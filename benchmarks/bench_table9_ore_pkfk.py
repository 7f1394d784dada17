"""Table 9: scalability on the ORE-style chunked backend, PK-FK join.

The paper runs logistic regression on Oracle R Enterprise over
larger-than-memory data and varies the feature ratio.  We emulate ORE's
``ore.rowapply`` execution with the chunked backend (see docs/paper_map.md
for the substitution rationale): the materialized version streams the wide
join output chunk by chunk, while the factorized version streams only the
base-table chunks.
"""

import pytest

from _common import group_name, pkfk_dataset
from repro.core.shard import RowPartitioned
from repro.ml import LogisticRegressionGD

FEATURE_RATIOS = (0.5, 1, 2, 4)
TUPLE_RATIO = 10
CHUNK_ROWS = 2_048
ITERATIONS = 3


@pytest.mark.parametrize("feature_ratio", FEATURE_RATIOS, ids=lambda f: f"FR{f:g}")
class TestChunkedLogisticPKFK:
    def test_materialized_chunked(self, benchmark, feature_ratio):
        benchmark.group = group_name("table9", "logreg-chunked", f"FR{feature_ratio:g}")
        dataset = pkfk_dataset(TUPLE_RATIO, feature_ratio)
        chunked = RowPartitioned.chunked(dataset.materialized, CHUNK_ROWS)
        model = LogisticRegressionGD(max_iter=ITERATIONS, step_size=1e-4)
        benchmark.pedantic(lambda: model.fit(chunked, dataset.target), rounds=2, iterations=1,
                           warmup_rounds=0)

    def test_factorized(self, benchmark, feature_ratio):
        benchmark.group = group_name("table9", "logreg-chunked", f"FR{feature_ratio:g}")
        dataset = pkfk_dataset(TUPLE_RATIO, feature_ratio)
        normalized = dataset.normalized
        model = LogisticRegressionGD(max_iter=ITERATIONS, step_size=1e-4)
        benchmark.pedantic(lambda: model.fit(normalized, dataset.target), rounds=2,
                           iterations=1, warmup_rounds=0)
