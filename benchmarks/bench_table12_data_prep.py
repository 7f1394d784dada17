"""Table 12: data-preparation time versus ML runtime.

The paper shows that the one-time cost of constructing the normalized matrix
(building the sparse indicator matrices) is a small fraction of an iterative
ML algorithm's runtime -- and almost always smaller than materializing the
join output.  We benchmark the two preparation paths for every real-dataset
stand-in and, for one dataset, compare against the logistic-regression
runtime.
"""

import pathlib

import pytest

from _common import group_name, real_dataset
from repro.bench.reporting import format_table
from repro.core.normalized_matrix import NormalizedMatrix
from repro.la.ops import indicator_from_labels
from repro.ml import LogisticRegressionGD

RESULTS_DIR = pathlib.Path(__file__).parent / "results"
DATASETS = ("expedia", "movies", "yelp", "walmart", "lastfm", "books", "flights")
SCALE = 0.01


def _fk_labels(dataset):
    """Recover the foreign-key label arrays from the stand-in's indicators."""
    return [indicator.codes for indicator in dataset.indicators]


@pytest.mark.parametrize("name", DATASETS)
class TestDataPreparation:
    def test_materialize_join(self, benchmark, name):
        """Paper's "M" preparation: compute the join output [S, K1 R1, ...]."""
        benchmark.group = group_name("table12", "prep", name)
        dataset = real_dataset(name, SCALE)
        normalized = dataset.normalized
        benchmark.pedantic(normalized.materialize, rounds=3, iterations=1, warmup_rounds=1)

    def test_build_normalized_matrix(self, benchmark, name):
        """Paper's "F" preparation: build indicator matrices from foreign keys."""
        benchmark.group = group_name("table12", "prep", name)
        dataset = real_dataset(name, SCALE)
        labels = _fk_labels(dataset)
        sizes = [attribute.shape[0] for attribute in dataset.attributes]

        def build():
            indicators = [indicator_from_labels(lab, num_columns=size)
                          for lab, size in zip(labels, sizes)]
            return NormalizedMatrix(dataset.entity, indicators, dataset.attributes,
                                    validate=False)

        benchmark.pedantic(build, rounds=3, iterations=1, warmup_rounds=1)


def test_table12_prep_to_training_ratio(benchmark):
    """Preparation time should be a small fraction of a 20-iteration training run."""
    import time

    dataset = real_dataset("walmart", SCALE)
    labels = _fk_labels(dataset)
    sizes = [attribute.shape[0] for attribute in dataset.attributes]

    def measure_ratio():
        start = time.perf_counter()
        indicators = [indicator_from_labels(lab, num_columns=size)
                      for lab, size in zip(labels, sizes)]
        normalized = NormalizedMatrix(dataset.entity, indicators, dataset.attributes,
                                      validate=False)
        prep_seconds = time.perf_counter() - start

        start = time.perf_counter()
        LogisticRegressionGD(max_iter=20, step_size=1e-4).fit(normalized, dataset.binary_target)
        train_seconds = time.perf_counter() - start
        return prep_seconds, train_seconds

    prep_seconds, train_seconds = benchmark.pedantic(measure_ratio, rounds=1, iterations=1)
    ratio = prep_seconds / train_seconds
    RESULTS_DIR.mkdir(exist_ok=True)
    table = format_table(
        ["dataset", "prep (s)", "20-iteration logistic regression (s)", "ratio"],
        [["walmart", f"{prep_seconds:.4f}", f"{train_seconds:.4f}", f"{ratio:.3f}"]],
    )
    (RESULTS_DIR / "table12_data_prep.txt").write_text(table + "\n")
    # The paper reports ratios of a few percent; allow generous slack at laptop scale.
    assert ratio < 0.5
