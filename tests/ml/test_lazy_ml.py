"""Eager-vs-lazy equivalence and memoization tests for the four ML algorithms.

Acceptance criteria of the lazy subsystem: for linear regression GD, logistic
regression, K-Means and GNMF, the ``engine="lazy"`` path must

* produce numerically identical models (within 1e-8) to the eager path on
  PK-FK and M:N normalized matrices with dense and sparse base matrices, and
* report at least one :class:`~repro.core.lazy.cache.FactorizedCache` hit per
  iteration after the first, because the join-invariant terms of each inner
  loop are computed once and then reused.

Linear regression GD goes further: it evaluates its two join-invariant terms,
``crossprod(T)`` and ``T^T Y``, once per fit, so its cache counters are exact
(see :func:`assert_linreg_cache_contract`).
"""

from __future__ import annotations

import numpy as np
import pytest
import scipy.sparse as sp

from repro.core.mn_matrix import MNNormalizedMatrix
from repro.core.normalized_matrix import NormalizedMatrix
from repro.la.ops import indicator_from_labels
from repro.ml import GNMF, KMeans, LinearRegressionGD, LogisticRegressionGD

ITERS = 7
TOL = dict(rtol=1e-8, atol=1e-10)

#: Cached nodes of lazy linear-regression GD's two join-invariant terms:
#: ``crossprod(T)``, ``T^T`` and ``T^T Y``.  A cold fit misses each once.
LINREG_INVARIANT_NODES = 3
#: Terms a lazy linear-regression fit evaluates (``crossprod(T)``, ``T^T Y``):
#: a warm refit looks up each once and hits.
LINREG_TERMS = 2


def assert_linreg_cache_contract(fit):
    """A cold lazy linreg fit misses once per invariant node; a refit hits only.

    *fit* trains a fresh ``engine="lazy"`` estimator on the same matrix and
    returns it.  The first call must be cold; the refit shares its cache.
    Returns the first (cold) model.
    """
    cold = fit()
    cache = cold.lazy_cache_
    assert (cache.hits, cache.misses) == (0, LINREG_INVARIANT_NODES)
    assert fit().lazy_cache_ is cache
    assert (cache.hits, cache.misses) == (LINREG_TERMS, LINREG_INVARIANT_NODES)
    return cold


def make_pkfk(sparse: bool = False, seed: int = 0):
    """A fresh single-join PK-FK normalized matrix plus a target vector.

    Fresh per call so each test starts with an empty FactorizedCache.
    """
    rng = np.random.default_rng(seed)
    n_s, n_r, d_s, d_r = 180, 20, 4, 6
    entity = rng.standard_normal((n_s, d_s))
    attribute = rng.standard_normal((n_r, d_r))
    labels = np.concatenate([np.arange(n_r), rng.integers(0, n_r, size=n_s - n_r)])
    rng.shuffle(labels)
    indicator = indicator_from_labels(labels, num_columns=n_r)
    if sparse:
        entity, attribute = sp.csr_matrix(entity), sp.csr_matrix(attribute)
    normalized = NormalizedMatrix(entity, [indicator], [attribute])
    target = rng.standard_normal((n_s, 1))
    return normalized, target


def make_mn(seed: int = 0):
    """A fresh two-component M:N normalized matrix plus a target vector."""
    rng = np.random.default_rng(seed)
    n_out, dom = 160, 24
    indicators, attributes = [], []
    for width in (5, 3):
        labels = np.concatenate([np.arange(dom), rng.integers(0, dom, size=n_out - dom)])
        rng.shuffle(labels)
        indicators.append(indicator_from_labels(labels, num_columns=dom))
        attributes.append(rng.standard_normal((dom, width)))
    normalized = MNNormalizedMatrix(indicators, attributes)
    target = rng.standard_normal((n_out, 1))
    return normalized, target


DATA_BUILDERS = {
    "pkfk-dense": lambda: make_pkfk(sparse=False),
    "pkfk-sparse": lambda: make_pkfk(sparse=True),
    "mn": make_mn,
}


def nonnegative(normalized):
    """Same normalized structure with non-negative components, for GNMF."""
    if isinstance(normalized, MNNormalizedMatrix):
        return MNNormalizedMatrix(
            normalized.indicators,
            [np.abs(np.asarray(a.todense() if sp.issparse(a) else a)) for a in normalized.attributes],
        )
    absolute = lambda m: abs(m) if sp.issparse(m) else np.abs(np.asarray(m))
    entity = absolute(normalized.entity) if normalized.entity is not None else None
    return NormalizedMatrix(entity, normalized.indicators,
                            [absolute(a) for a in normalized.attributes])


@pytest.mark.parametrize("flavour", sorted(DATA_BUILDERS))
class TestEagerLazyEquivalence:
    def test_linear_regression_gd(self, flavour):
        normalized, target = DATA_BUILDERS[flavour]()
        eager = LinearRegressionGD(max_iter=ITERS, step_size=1e-4).fit(normalized, target)
        # crossprod(T) and T^T Y are evaluated once per fit: computed on the
        # first fit, served from the cache on a refit.
        lazy = assert_linreg_cache_contract(lambda: LinearRegressionGD(
            max_iter=ITERS, step_size=1e-4, engine="lazy").fit(normalized, target))
        np.testing.assert_allclose(lazy.coef_, eager.coef_, **TOL)

    @pytest.mark.parametrize("update", ["paper", "exact"])
    def test_logistic_regression_gd(self, flavour, update):
        normalized, target = DATA_BUILDERS[flavour]()
        labels = np.where(target > 0, 1.0, -1.0)
        eager = LogisticRegressionGD(max_iter=ITERS, step_size=1e-3, update=update).fit(
            normalized, labels)
        lazy = LogisticRegressionGD(max_iter=ITERS, step_size=1e-3, update=update,
                                    engine="lazy").fit(normalized, labels)
        np.testing.assert_allclose(lazy.coef_, eager.coef_, **TOL)
        # The transposed view of the data matrix is reused every iteration.
        assert lazy.lazy_cache_.hits >= ITERS - 1

    def test_kmeans(self, flavour):
        normalized, _ = DATA_BUILDERS[flavour]()
        eager = KMeans(num_clusters=4, max_iter=ITERS, seed=3).fit(normalized)
        lazy = KMeans(num_clusters=4, max_iter=ITERS, seed=3, engine="lazy").fit(normalized)
        np.testing.assert_allclose(lazy.centroids_, eager.centroids_, **TOL)
        np.testing.assert_array_equal(lazy.labels_, eager.labels_)
        assert lazy.inertia_ == pytest.approx(eager.inertia_, rel=1e-8)
        # rowSums(T^2), 2*T and T^T are all reused every iteration.
        assert lazy.lazy_cache_.hits >= 3 * (ITERS - 1)

    def test_gnmf(self, flavour):
        normalized, _ = DATA_BUILDERS[flavour]()
        data = nonnegative(normalized)
        eager = GNMF(rank=3, max_iter=ITERS, seed=4).fit(data)
        lazy = GNMF(rank=3, max_iter=ITERS, seed=4, engine="lazy").fit(data)
        np.testing.assert_allclose(lazy.w_, eager.w_, **TOL)
        np.testing.assert_allclose(lazy.h_, eager.h_, **TOL)
        assert lazy.lazy_cache_.hits >= ITERS - 1


def reference_lazy_linreg(data, target, n_jobs: int, track_history: bool):
    """Lazy linreg GD evaluating ``(gram @ w - projected)`` every iteration.

    The loop lazy GD ran before it evaluated its join-invariant terms once per
    fit; ``_fit_lazy`` must reproduce it bit for bit.
    """
    from repro.core.lazy import as_lazy, constant
    from repro.la.generic import to_dense_result
    from repro.ml.base import as_column, shard_for_jobs

    y = as_column(target)
    lazy_t = as_lazy(shard_for_jobs(data, n_jobs))
    gram = lazy_t.crossprod()
    projected = lazy_t.T @ constant(y)
    w = np.zeros((lazy_t.shape[1], 1))
    history = []
    for _ in range(ITERS):
        if track_history:
            residual = to_dense_result((lazy_t @ w).evaluate()) - y
            history.append(float(np.sum(residual ** 2)))
        w = w - 1e-4 * (gram @ w - projected).evaluate()
    return w, history


def _chunked_pkfk():
    from repro.core.shard import RowPartitioned

    normalized, target = make_pkfk()
    return RowPartitioned.chunked(np.asarray(normalized.materialize()), 32), target


#: name -> (builder of a fresh data matrix and target, n_jobs)
REFERENCE_INPUTS = {
    "pkfk-dense": (DATA_BUILDERS["pkfk-dense"], 1),
    "pkfk-sparse": (DATA_BUILDERS["pkfk-sparse"], 1),
    "mn": (DATA_BUILDERS["mn"], 1),
    "chunked": (_chunked_pkfk, 1),
    "pkfk-dense-n_jobs=2": (DATA_BUILDERS["pkfk-dense"], 2),
}


class TestLazyLinregOncePerFit:
    @pytest.mark.parametrize("track_history", [False, True])
    @pytest.mark.parametrize("name", sorted(REFERENCE_INPUTS))
    def test_matches_per_iteration_evaluation_bit_for_bit(self, name, track_history):
        build, n_jobs = REFERENCE_INPUTS[name]
        data, target = build()
        model = LinearRegressionGD(max_iter=ITERS, step_size=1e-4, engine="lazy",
                                   n_jobs=n_jobs, track_history=track_history
                                   ).fit(data, target)
        reference_data, reference_target = build()
        coef, history = reference_lazy_linreg(reference_data, reference_target,
                                              n_jobs, track_history)
        assert np.array_equal(model.coef_, coef)
        assert model.history_ == history


class TestLazyEngineBehaviour:
    def test_lazy_on_chunked_backend(self):
        # The chunked (out-of-core) backend runs through the lazy layer too:
        # as_lazy attaches a per-object cache to the row partition itself.
        from repro.core.lazy import as_lazy
        from repro.core.shard import RowPartitioned

        normalized, target = make_pkfk()
        chunked = RowPartitioned.chunked(np.asarray(normalized.materialize()), 32)
        eager = LinearRegressionGD(max_iter=ITERS, step_size=1e-4).fit(chunked, target)
        lazy = assert_linreg_cache_contract(lambda: LinearRegressionGD(
            max_iter=ITERS, step_size=1e-4, engine="lazy").fit(chunked, target))
        np.testing.assert_allclose(lazy.coef_, eager.coef_, **TOL)
        assert as_lazy(chunked).cache is lazy.lazy_cache_  # per-object persistence

        km_eager = KMeans(num_clusters=3, max_iter=3, seed=0).fit(chunked)
        km_lazy = KMeans(num_clusters=3, max_iter=3, seed=0, engine="lazy").fit(chunked)
        np.testing.assert_allclose(km_lazy.centroids_, km_eager.centroids_, **TOL)

    def test_lazy_on_plain_dense_matrix(self):
        normalized, target = make_pkfk()
        materialized = np.asarray(normalized.materialize())
        eager = LinearRegressionGD(max_iter=ITERS, step_size=1e-4).fit(materialized, target)
        lazy = LinearRegressionGD(max_iter=ITERS, step_size=1e-4, engine="lazy").fit(
            materialized, target)
        np.testing.assert_allclose(lazy.coef_, eager.coef_, **TOL)
        # A bare ndarray cannot carry a cache, so every fit on it is cold.
        again = LinearRegressionGD(max_iter=ITERS, step_size=1e-4, engine="lazy").fit(
            materialized, target)
        assert again.lazy_cache_ is not lazy.lazy_cache_
        for cache in (lazy.lazy_cache_, again.lazy_cache_):
            assert (cache.hits, cache.misses) == (0, LINREG_INVARIANT_NODES)

    def test_plain_matrix_view_keeps_its_cache_across_fits(self):
        # A lazy view of a plain ndarray carries the cache on the leaf (the
        # array itself cannot hold it); fitting through the view must use
        # that cache, and a second fit must start warm.
        from repro.core.lazy import as_lazy

        normalized, target = make_pkfk()
        view = as_lazy(np.asarray(normalized.materialize()))
        first = LinearRegressionGD(max_iter=ITERS, step_size=1e-4, engine="lazy").fit(
            view, target)
        assert first.lazy_cache_ is view.cache
        misses = view.cache.misses
        second = LinearRegressionGD(max_iter=ITERS, step_size=1e-4, engine="lazy").fit(
            view, target)
        assert second.lazy_cache_ is view.cache
        assert view.cache.misses == misses  # warm: nothing recomputed

    def test_lazy_factorized_matches_lazy_materialized(self):
        normalized, target = make_pkfk()
        materialized = np.asarray(normalized.materialize())
        factorized = LinearRegressionGD(max_iter=ITERS, step_size=1e-4, engine="lazy").fit(
            normalized, target)
        standard = LinearRegressionGD(max_iter=ITERS, step_size=1e-4, engine="lazy").fit(
            materialized, target)
        np.testing.assert_allclose(factorized.coef_, standard.coef_, rtol=1e-7, atol=1e-9)

    def test_cache_persists_across_fits_on_same_matrix(self):
        normalized, target = make_pkfk()
        first = LinearRegressionGD(max_iter=ITERS, step_size=1e-4, engine="lazy").fit(
            normalized, target)
        misses_after_first = first.lazy_cache_.misses
        second = LinearRegressionGD(max_iter=ITERS, step_size=1e-4, engine="lazy").fit(
            normalized, target)
        assert second.lazy_cache_ is first.lazy_cache_
        # The second fit re-derives nothing: crossprod(T) and T^T Y are warm.
        assert second.lazy_cache_.misses == misses_after_first

    def test_history_tracking_matches(self):
        normalized, target = make_pkfk()
        eager = LinearRegressionGD(max_iter=ITERS, step_size=1e-4,
                                   track_history=True).fit(normalized, target)
        lazy = LinearRegressionGD(max_iter=ITERS, step_size=1e-4, track_history=True,
                                  engine="lazy").fit(normalized, target)
        np.testing.assert_allclose(lazy.history_, eager.history_, rtol=1e-8)

    def test_predict_works_after_lazy_fit(self):
        normalized, target = make_pkfk()
        labels = np.where(target > 0, 1.0, -1.0)
        model = LogisticRegressionGD(max_iter=ITERS, step_size=1e-3, engine="lazy").fit(
            normalized, labels)
        predictions = model.predict(normalized)
        assert set(np.unique(predictions)) <= {-1.0, 1.0}

    def test_fit_and_predict_accept_lazy_views(self):
        # fit()/predict() take TN.lazy() interchangeably with TN itself, for
        # every estimator family.
        normalized, target = make_pkfk()
        labels = np.where(target > 0, 1.0, -1.0)
        view = normalized.lazy()

        logreg = LogisticRegressionGD(max_iter=ITERS, step_size=1e-3,
                                      engine="lazy").fit(view, labels)
        np.testing.assert_array_equal(logreg.predict(view), logreg.predict(normalized))

        linreg = LinearRegressionGD(max_iter=ITERS, step_size=1e-4,
                                    engine="lazy").fit(view, target)
        np.testing.assert_allclose(linreg.predict(view), linreg.predict(normalized),
                                   **TOL)
        # The view shares the per-matrix cache, so invariant terms stay warm.
        assert linreg.lazy_cache_ is logreg.lazy_cache_

        kmeans = KMeans(num_clusters=3, max_iter=3, seed=0, engine="lazy").fit(view)
        np.testing.assert_array_equal(kmeans.predict(view), kmeans.predict(normalized))

        gnmf_data = nonnegative(normalized)
        lazy_fit = GNMF(rank=2, max_iter=3, seed=0, engine="lazy").fit(gnmf_data.lazy())
        plain_fit = GNMF(rank=2, max_iter=3, seed=0, engine="lazy").fit(gnmf_data)
        np.testing.assert_allclose(lazy_fit.w_, plain_fit.w_, **TOL)

    def test_invalid_engine_rejected(self):
        with pytest.raises(ValueError):
            LinearRegressionGD(engine="deferred")
        with pytest.raises(ValueError):
            KMeans(engine="")

    def test_eager_fit_leaves_no_cache(self):
        normalized, target = make_pkfk()
        model = LinearRegressionGD(max_iter=3, step_size=1e-4).fit(normalized, target)
        assert model.lazy_cache_ is None

    def test_eager_refit_clears_stale_lazy_cache(self):
        normalized, target = make_pkfk()
        model = LinearRegressionGD(max_iter=3, step_size=1e-4, engine="lazy").fit(
            normalized, target)
        assert model.lazy_cache_ is not None
        model.engine = "eager"
        model.fit(normalized, target)
        assert model.lazy_cache_ is None

    def test_hyperparameter_sweep_does_not_grow_the_cache(self):
        # The lazy fits memoize only canonical terms (never keyed by a
        # hyperparameter), so sweeping step sizes must not accumulate
        # data-sized cache entries per setting.
        normalized, target = make_pkfk()
        labels = np.where(target > 0, 1.0, -1.0)
        sizes = []
        for alpha in (1e-4, 1e-3, 1e-2):
            model = LogisticRegressionGD(max_iter=3, step_size=alpha,
                                         engine="lazy").fit(normalized, labels)
            sizes.append(len(model.lazy_cache_))
        assert sizes[0] == sizes[1] == sizes[2]
