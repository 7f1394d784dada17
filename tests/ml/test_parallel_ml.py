"""ML algorithms with ``n_jobs``: sharded parallel fits match serial fits.

All four algorithms accept ``n_jobs``; a parallel fit shards the data matrix
through :mod:`repro.core.shard` and must reproduce the serial coefficients to
within floating-point reassociation (and bit-for-bit when ``n_jobs=1``).
"""

import numpy as np
import pytest

from repro.core.normalized_matrix import NormalizedMatrix
from repro.core.shard import RowPartitioned
from repro.ml.base import effective_n_jobs, shard_for_jobs, validate_n_jobs
from repro.ml.gnmf import GNMF
from repro.ml.kmeans import KMeans
from repro.ml.linear_regression import (
    LinearRegressionCofactor,
    LinearRegressionGD,
    LinearRegressionNE,
)
from repro.ml.logistic_regression import LogisticRegressionGD


@pytest.fixture
def regression_problem(single_join_dense):
    dataset, normalized, materialized = single_join_dense
    return normalized, materialized, np.asarray(dataset.target, dtype=np.float64)


@pytest.fixture
def classification_problem(regression_problem):
    normalized, materialized, target = regression_problem
    return normalized, materialized, np.where(target > np.median(target), 1.0, -1.0)


class TestNJobsValidation:
    def test_rejects_zero_and_negative_counts(self):
        for bad in (0, -2, 1.5, "two", True):
            with pytest.raises(ValueError):
                validate_n_jobs(bad)

    def test_accepts_positive_and_all_cpus(self):
        assert validate_n_jobs(3) == 3
        assert validate_n_jobs(-1) == -1
        assert effective_n_jobs(-1) >= 1

    def test_estimator_constructor_validates(self):
        with pytest.raises(ValueError):
            LinearRegressionGD(n_jobs=0)
        with pytest.raises(ValueError):
            LogisticRegressionGD(n_jobs=-3)
        with pytest.raises(ValueError):
            LinearRegressionNE(n_jobs=0)


class TestShardForJobs:
    def test_single_job_passthrough(self, regression_problem):
        normalized, materialized, _ = regression_problem
        assert shard_for_jobs(normalized, 1) is normalized
        assert shard_for_jobs(materialized, 1) is materialized

    def test_normalized_matrix_shards_factorized(self, regression_problem):
        normalized, _, _ = regression_problem
        sharded = shard_for_jobs(normalized, 3)
        assert isinstance(sharded, RowPartitioned)
        assert all(isinstance(p, NormalizedMatrix) for p in sharded.pieces)
        assert sharded.num_pieces == 3

    def test_plain_matrix_becomes_sharded_matrix(self, regression_problem):
        _, materialized, _ = regression_problem
        sharded = shard_for_jobs(materialized, 2)
        assert sharded.num_pieces == 2
        assert np.array_equal(sharded.to_dense(), materialized)

    def test_chunked_operand_passes_through(self, regression_problem):
        _, materialized, _ = regression_problem
        chunked = RowPartitioned.chunked(materialized, 16)
        assert shard_for_jobs(chunked, 4) is chunked

    def test_lazy_view_is_resharded_keeping_its_cache(self, regression_problem):
        """A lazy view's FactorizedCache must survive n_jobs re-dispatch."""
        from repro.core.lazy import FactorizedCache
        from repro.core.lazy.expr import LeafExpr

        normalized, _, _ = regression_problem
        cache = FactorizedCache()
        view = normalized.lazy(cache=cache)
        dispatched = shard_for_jobs(view, 2)
        assert isinstance(dispatched, LeafExpr)
        assert isinstance(dispatched.value, RowPartitioned)
        assert dispatched.cache is cache

    def test_shard_view_is_memoized_per_matrix_and_count(self, regression_problem):
        """Repeated fits reuse one shard wrapper (and hence one lazy cache)."""
        normalized, _, _ = regression_problem
        first = shard_for_jobs(normalized, 3)
        second = shard_for_jobs(normalized, 3)
        other = shard_for_jobs(normalized, 2)
        assert first is second
        assert other is not first and other.num_pieces == 2

    def test_lazy_fit_cache_is_warm_across_fits(self, regression_problem):
        normalized, _, y = regression_problem
        cold = LinearRegressionGD(max_iter=3, step_size=1e-4, engine="lazy", n_jobs=2)
        cold.fit(normalized, y)
        warm = LinearRegressionGD(max_iter=3, step_size=1e-4, engine="lazy", n_jobs=2)
        warm.fit(normalized, y)
        assert warm.lazy_cache_ is cold.lazy_cache_
        assert warm.lazy_cache_.stats().misses == cold.lazy_cache_.stats().misses


class TestLinearRegressionParallel:
    def test_gd_matches_serial(self, regression_problem):
        normalized, _, y = regression_problem
        serial = LinearRegressionGD(max_iter=8, step_size=1e-4).fit(normalized, y)
        parallel = LinearRegressionGD(max_iter=8, step_size=1e-4, n_jobs=3).fit(normalized, y)
        assert np.allclose(parallel.coef_, serial.coef_, atol=1e-8)

    def test_gd_over_plain_matrix(self, regression_problem):
        _, materialized, y = regression_problem
        serial = LinearRegressionGD(max_iter=8, step_size=1e-4).fit(materialized, y)
        parallel = LinearRegressionGD(max_iter=8, step_size=1e-4, n_jobs=4).fit(materialized, y)
        assert np.allclose(parallel.coef_, serial.coef_, atol=1e-8)

    def test_ne_matches_serial(self, regression_problem):
        normalized, _, y = regression_problem
        serial = LinearRegressionNE().fit(normalized, y)
        parallel = LinearRegressionNE(n_jobs=3).fit(normalized, y)
        assert np.allclose(parallel.coef_, serial.coef_, atol=1e-7)

    def test_ne_crossprod_method_with_n_jobs(self, regression_problem):
        """crossprod_method must survive sharding of both operand families."""
        normalized, materialized, y = regression_problem
        serial = LinearRegressionNE().fit(materialized, y)
        for data in (normalized, materialized):
            model = LinearRegressionNE(crossprod_method="naive", n_jobs=2).fit(data, y)
            assert np.allclose(model.coef_, serial.coef_, atol=1e-7)

    def test_cofactor_matches_serial(self, regression_problem):
        normalized, _, y = regression_problem
        serial = LinearRegressionCofactor(max_iter=8).fit(normalized, y)
        parallel = LinearRegressionCofactor(max_iter=8, n_jobs=2).fit(normalized, y)
        assert np.allclose(parallel.coef_, serial.coef_, atol=1e-8)

    def test_n_jobs_all_cpus(self, regression_problem):
        normalized, _, y = regression_problem
        serial = LinearRegressionGD(max_iter=4, step_size=1e-4).fit(normalized, y)
        parallel = LinearRegressionGD(max_iter=4, step_size=1e-4, n_jobs=-1).fit(normalized, y)
        assert np.allclose(parallel.coef_, serial.coef_, atol=1e-8)

    def test_n_jobs_one_is_bit_for_bit(self, regression_problem):
        normalized, _, y = regression_problem
        serial = LinearRegressionGD(max_iter=4, step_size=1e-4).fit(normalized, y)
        one_job = LinearRegressionGD(max_iter=4, step_size=1e-4, n_jobs=1).fit(normalized, y)
        assert np.array_equal(one_job.coef_, serial.coef_)

    def test_lazy_engine_composes_with_n_jobs(self, regression_problem):
        normalized, _, y = regression_problem
        serial = LinearRegressionGD(max_iter=6, step_size=1e-4).fit(normalized, y)
        parallel = LinearRegressionGD(max_iter=6, step_size=1e-4, engine="lazy",
                                      n_jobs=2).fit(normalized, y)
        assert np.allclose(parallel.coef_, serial.coef_, atol=1e-8)
        # crossprod(T), T^T and T^T Y miss once each, computed shard-parallel;
        # a refit through the memoized shard view hits crossprod(T) and T^T Y.
        cache = parallel.lazy_cache_
        assert (cache.hits, cache.misses) == (0, 3)
        refit = LinearRegressionGD(max_iter=6, step_size=1e-4, engine="lazy",
                                   n_jobs=2).fit(normalized, y)
        assert refit.lazy_cache_ is cache
        assert (cache.hits, cache.misses) == (2, 3)


class TestLogisticRegressionParallel:
    def test_matches_serial(self, classification_problem):
        normalized, _, y = classification_problem
        serial = LogisticRegressionGD(max_iter=8, step_size=1e-3).fit(normalized, y)
        parallel = LogisticRegressionGD(max_iter=8, step_size=1e-3, n_jobs=3).fit(normalized, y)
        assert np.allclose(parallel.coef_, serial.coef_, atol=1e-8)

    def test_predictions_match(self, classification_problem):
        normalized, materialized, y = classification_problem
        serial = LogisticRegressionGD(max_iter=8, step_size=1e-3).fit(normalized, y)
        parallel = LogisticRegressionGD(max_iter=8, step_size=1e-3, n_jobs=2).fit(normalized, y)
        assert np.array_equal(parallel.predict(materialized), serial.predict(materialized))

    def test_lazy_engine_composes_with_n_jobs(self, classification_problem):
        normalized, _, y = classification_problem
        serial = LogisticRegressionGD(max_iter=6, step_size=1e-3).fit(normalized, y)
        parallel = LogisticRegressionGD(max_iter=6, step_size=1e-3, engine="lazy",
                                        n_jobs=2).fit(normalized, y)
        assert np.allclose(parallel.coef_, serial.coef_, atol=1e-8)
        assert parallel.lazy_cache_.hits >= 6 - 1


class TestKMeansParallel:
    def test_matches_serial(self, regression_problem):
        normalized, _, _ = regression_problem
        serial = KMeans(num_clusters=4, max_iter=6, seed=0).fit(normalized)
        parallel = KMeans(num_clusters=4, max_iter=6, seed=0, n_jobs=3).fit(normalized)
        assert np.allclose(parallel.centroids_, serial.centroids_, atol=1e-8)
        assert np.array_equal(parallel.labels_, serial.labels_)

    def test_lazy_engine_composes_with_n_jobs(self, regression_problem):
        normalized, _, _ = regression_problem
        serial = KMeans(num_clusters=3, max_iter=5, seed=0).fit(normalized)
        parallel = KMeans(num_clusters=3, max_iter=5, seed=0, engine="lazy",
                          n_jobs=2).fit(normalized)
        assert np.allclose(parallel.centroids_, serial.centroids_, atol=1e-8)


class TestGNMFParallel:
    def test_matches_serial(self, regression_problem):
        normalized, _, _ = regression_problem
        nonneg = normalized ** 2  # GNMF needs non-negative data; stays factorized
        serial = GNMF(rank=3, max_iter=6, seed=0).fit(nonneg)
        parallel = GNMF(rank=3, max_iter=6, seed=0, n_jobs=3).fit(nonneg)
        assert np.allclose(parallel.w_, serial.w_, atol=1e-8)
        assert np.allclose(parallel.h_, serial.h_, atol=1e-8)

    def test_lazy_engine_composes_with_n_jobs(self, regression_problem):
        _, materialized, _ = regression_problem
        nonneg = np.abs(materialized)
        serial = GNMF(rank=3, max_iter=5, seed=0).fit(nonneg)
        parallel = GNMF(rank=3, max_iter=5, seed=0, engine="lazy", n_jobs=2).fit(nonneg)
        assert np.allclose(parallel.h_, serial.h_, atol=1e-8)
