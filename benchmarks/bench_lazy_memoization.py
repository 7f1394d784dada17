"""Cross-iteration memoization: lazy vs eager inner loops (new subsystem).

Unlike the ``bench_fig*`` modules this benchmark has no direct figure in the
paper: it measures the lazy expression-graph layer (``repro.core.lazy``) that
memoizes join-invariant subexpressions across the iterations of the paper's
iterative workloads (Figures 8--10).  Three comparisons per sweep point:

* ``linreg-gd``  -- eager GD performs one LMM and one transposed LMM per
  iteration; the lazy path evaluates the gradient as
  ``crossprod(T) w - T^T Y`` and computes both data-sized terms once per
  fit (cached on the matrix), so an iteration costs ``O(d^2)``.
* ``kmeans``     -- the lazy path writes ``rowSums(T^2)`` and ``2 T`` inside
  the loop and lets the FactorizedCache hoist them.
* ``logreg-gd``  -- no data-sized term is join invariant (the gradient is
  nonlinear in ``w``), so only the transposed view is memoized and the
  per-iteration LMM structure is unchanged; this one bounds the overhead of
  the graph layer rather than showing a speed-up.

Each lazy benchmark asserts its cache counters (for K-Means and logistic
regression >= 1 cache hit per iteration after the first; for linear
regression one miss per cached invariant node and no lookups in the loop)
and the module prints the hit/miss counters next to the runtimes.
"""

import numpy as np
import pytest

from _common import group_name, pkfk_dataset, point_id
from repro.bench.reporting import format_table, print_report
from repro.ml import KMeans, LinearRegressionGD, LogisticRegressionGD

POINTS = ((10, 2), (20, 4))
ITERATIONS = 20

_cache_rows = []


def _record(workload, point, cache):
    stats = cache.stats()
    _cache_rows.append([
        workload, point_id(point), stats.hits, stats.misses,
        f"{stats.hit_rate:.2f}",
    ])


def _fresh_normalized(point):
    """A private normalized-matrix view so each round starts with a cold cache.

    The underlying base matrices are shared with the cached dataset; only the
    wrapper (and hence the attached FactorizedCache) is new.
    """
    dataset = pkfk_dataset(*point)
    source = dataset.normalized
    from repro.core.normalized_matrix import NormalizedMatrix

    return NormalizedMatrix(source.entity, source.indicators, source.attributes,
                            validate=False)


@pytest.mark.parametrize("point", POINTS, ids=point_id)
class TestLinregGDMemoization:
    def test_eager(self, benchmark, point):
        benchmark.group = group_name("lazy-memo", "linreg-gd", point_id(point))
        dataset = pkfk_dataset(*point)
        target = np.asarray(dataset.target, dtype=np.float64)
        model = LinearRegressionGD(max_iter=ITERATIONS, step_size=1e-6)
        benchmark.pedantic(lambda: model.fit(dataset.normalized, target),
                           rounds=2, iterations=1, warmup_rounds=0)

    def test_lazy(self, benchmark, point):
        benchmark.group = group_name("lazy-memo", "linreg-gd", point_id(point))
        dataset = pkfk_dataset(*point)
        target = np.asarray(dataset.target, dtype=np.float64)

        def run():
            model = LinearRegressionGD(max_iter=ITERATIONS, step_size=1e-6,
                                       engine="lazy")
            model.fit(_fresh_normalized(point), target)
            return model

        model = benchmark.pedantic(run, rounds=2, iterations=1, warmup_rounds=0)
        # Acceptance: on the cold cache of a fresh matrix, crossprod(T), T^T
        # and T^T Y are computed once each and the loop looks up nothing.
        assert (model.lazy_cache_.hits, model.lazy_cache_.misses) == (0, 3)
        _record("linreg-gd", point, model.lazy_cache_)


@pytest.mark.parametrize("point", POINTS, ids=point_id)
class TestKMeansMemoization:
    def test_eager(self, benchmark, point):
        benchmark.group = group_name("lazy-memo", "kmeans", point_id(point))
        dataset = pkfk_dataset(*point)
        model = KMeans(num_clusters=5, max_iter=ITERATIONS, seed=0)
        benchmark.pedantic(lambda: model.fit(dataset.normalized),
                           rounds=2, iterations=1, warmup_rounds=0)

    def test_lazy(self, benchmark, point):
        benchmark.group = group_name("lazy-memo", "kmeans", point_id(point))

        def run():
            model = KMeans(num_clusters=5, max_iter=ITERATIONS, seed=0, engine="lazy")
            model.fit(_fresh_normalized(point))
            return model

        model = benchmark.pedantic(run, rounds=2, iterations=1, warmup_rounds=0)
        assert model.lazy_cache_.hits >= 3 * (ITERATIONS - 1)
        _record("kmeans", point, model.lazy_cache_)


@pytest.mark.parametrize("point", POINTS[:1], ids=point_id)
class TestLogregGDOverhead:
    def test_eager(self, benchmark, point):
        benchmark.group = group_name("lazy-memo", "logreg-gd", point_id(point))
        dataset = pkfk_dataset(*point)
        target = np.asarray(dataset.target, dtype=np.float64)
        model = LogisticRegressionGD(max_iter=ITERATIONS, step_size=1e-4)
        benchmark.pedantic(lambda: model.fit(dataset.normalized, target),
                           rounds=2, iterations=1, warmup_rounds=0)

    def test_lazy(self, benchmark, point):
        benchmark.group = group_name("lazy-memo", "logreg-gd", point_id(point))
        dataset = pkfk_dataset(*point)
        target = np.asarray(dataset.target, dtype=np.float64)

        def run():
            model = LogisticRegressionGD(max_iter=ITERATIONS, step_size=1e-4,
                                         engine="lazy")
            model.fit(_fresh_normalized(point), target)
            return model

        model = benchmark.pedantic(run, rounds=2, iterations=1, warmup_rounds=0)
        assert model.lazy_cache_.hits >= ITERATIONS - 1
        _record("logreg-gd", point, model.lazy_cache_)


def test_report_cache_statistics():
    """Print the FactorizedCache counters collected by the lazy benchmarks."""
    if not _cache_rows:
        pytest.skip("no lazy benchmarks ran")
    body = format_table(
        ["workload", "point", "hits", "misses", "hit rate"], _cache_rows
    )
    print_report("Lazy memoization: FactorizedCache statistics "
                 f"({ITERATIONS} iterations per fit)", body)
