"""Table 8: Morpheus versus the ML algorithm-specific Orion tool.

The paper compares the speed-up of Morpheus-factorized logistic regression
against Orion's factorized learning over a dense PK-FK join while varying the
feature ratio.  We benchmark three implementations at each feature ratio:

* the materialized baseline (the common denominator),
* the Orion-style hash/associative-array implementation, and
* Morpheus's pure-LA factorized version.

Morpheus should achieve comparable or better runtimes than Orion (Table 8's
takeaway), both being faster than the materialized baseline.
"""

import pytest

from _common import group_name, pkfk_dataset
from repro.baselines.orion import OrionLogisticRegression
from repro.ml import LogisticRegressionGD

FEATURE_RATIOS = (1, 2, 4)
TUPLE_RATIO = 10
ITERATIONS = 3
# Orion streams Python-level rows, so use a smaller base than the pure-LA benches.
ATTRIBUTE_ROWS = 200


def _dataset(feature_ratio):
    return pkfk_dataset(TUPLE_RATIO, feature_ratio, attribute_rows=ATTRIBUTE_ROWS,
                        entity_features=10)


@pytest.mark.parametrize("feature_ratio", FEATURE_RATIOS, ids=lambda f: f"FR{f}")
class TestOrionComparison:
    def test_materialized(self, benchmark, feature_ratio):
        benchmark.group = group_name("table8", "logreg", f"FR{feature_ratio}")
        dataset = _dataset(feature_ratio)
        materialized = dataset.materialized
        model = LogisticRegressionGD(max_iter=ITERATIONS, step_size=1e-3)
        benchmark.pedantic(lambda: model.fit(materialized, dataset.target), rounds=2,
                           iterations=1, warmup_rounds=0)

    def test_orion(self, benchmark, feature_ratio):
        benchmark.group = group_name("table8", "logreg", f"FR{feature_ratio}")
        dataset = _dataset(feature_ratio)
        labels = dataset.indicators[0].codes
        model = OrionLogisticRegression(max_iter=ITERATIONS, step_size=1e-3)
        benchmark.pedantic(
            lambda: model.fit(dataset.entity, labels, dataset.attributes[0], dataset.target),
            rounds=1, iterations=1, warmup_rounds=0)

    def test_morpheus(self, benchmark, feature_ratio):
        benchmark.group = group_name("table8", "logreg", f"FR{feature_ratio}")
        dataset = _dataset(feature_ratio)
        normalized = dataset.normalized
        model = LogisticRegressionGD(max_iter=ITERATIONS, step_size=1e-3)
        benchmark.pedantic(lambda: model.fit(normalized, dataset.target), rounds=2,
                           iterations=1, warmup_rounds=0)
