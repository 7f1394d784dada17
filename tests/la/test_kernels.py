"""Equivalence and registry tests for the fused kernel layer.

The fused kernels (:mod:`repro.la.kernels`) are the execution layer behind
every factorized rewrite, so their contract is strict:

* every implementation set (``reference`` primitive chains, compiled
  ``numba`` when installed) computes the same values on
  star, M:N and snowflake schemas, dense and sparse bases, float32 and
  float64, empty attribute tables and zero-row batches;
* the golden operator traces are byte-identical whichever set is active --
  tracing always routes through the reference primitive chains;
* operand dtypes survive the rewrite layer (the float32 round-trip pin);
* ``indicator_codes`` returns the codes an indicator is stored as, and the
  default set runs a streamed fit and a serving batch without a fallback;
* the crossing ``K_i^T K_j`` the reference chains reach equals the dense
  product whichever side of the density rule it lands on.
"""

from __future__ import annotations

import json
import pathlib
import threading

import numpy as np
import pytest
import scipy.sparse as sp

from repro import obs
from repro.core.indicator import indicator_codes
from repro.core.mn_matrix import MNNormalizedMatrix
from repro.core.normalized_matrix import NormalizedMatrix
from repro.la import kernels
from repro.la.indicator import _CROSSING_DENSITY_LIMIT, CodeIndicator
from repro.la.ops import indicator_from_labels
from repro.la.parallel import ParallelExecutor
from repro.relational.join import chained_indicator

ATOL = 1e-10

GOLDEN_DIR = pathlib.Path(__file__).resolve().parent.parent / "goldens"


def _labels(rng, n_rows: int, n_ref: int) -> np.ndarray:
    """Surjective foreign-key labels (every attribute row referenced once)."""
    labels = np.concatenate([np.arange(n_ref), rng.integers(0, n_ref, size=n_rows - n_ref)])
    rng.shuffle(labels)
    return labels


def _star(seed: int, dtype=np.float64, sparse_bases: bool = False,
          n_s: int = 23, d_r: int = 4) -> NormalizedMatrix:
    rng = np.random.default_rng(seed)
    entity = rng.standard_normal((n_s, 3)).astype(dtype)
    if sparse_bases:
        entity = sp.csr_matrix(entity).astype(dtype)
    indicators, attributes = [], []
    for n_r in (7, 5):
        attribute = rng.standard_normal((n_r, d_r)).astype(dtype)
        if sparse_bases:
            attribute = sp.csr_matrix(attribute).astype(dtype)
        indicators.append(indicator_from_labels(_labels(rng, n_s, n_r), num_columns=n_r))
        attributes.append(attribute)
    return NormalizedMatrix(entity, indicators, attributes)


def _mn(seed: int, dtype=np.float64) -> MNNormalizedMatrix:
    rng = np.random.default_rng(seed)
    n_out = 19
    indicators, attributes = [], []
    for n_r, width in ((6, 3), (4, 2)):
        attributes.append(rng.standard_normal((n_r, width)).astype(dtype))
        indicators.append(indicator_from_labels(_labels(rng, n_out, n_r), num_columns=n_r))
    return MNNormalizedMatrix(indicators, attributes)


def _snowflake(seed: int) -> NormalizedMatrix:
    rng = np.random.default_rng(seed)
    n_s = 21
    entity = rng.standard_normal((n_s, 2))
    hops = []
    rows = n_s
    for n_next in (8, 3):
        hops.append(indicator_from_labels(_labels(rng, rows, n_next), num_columns=n_next))
        rows = n_next
    attribute = rng.standard_normal((rows, 3))
    return NormalizedMatrix(entity, [chained_indicator(hops)], [attribute])


MATRICES = {
    "star-dense": lambda seed: _star(seed),
    "star-sparse": lambda seed: _star(seed, sparse_bases=True),
    "star-f32": lambda seed: _star(seed, dtype=np.float32),
    "star-empty-attr": lambda seed: _star(seed, d_r=0),
    "mn": lambda seed: _mn(seed),
    "snowflake": lambda seed: _snowflake(seed),
}


# -- set-vs-set operator equivalence ------------------------------------------

@pytest.mark.parametrize("schema", sorted(MATRICES))
@pytest.mark.parametrize("seed", range(5))
def test_fused_sets_agree_on_table1_operators(schema, seed):
    """Every available kernel set produces identical operator results."""
    matrix = MATRICES[schema](seed)
    dense = np.asarray(matrix.to_dense(), dtype=np.float64)
    n, d = dense.shape
    rng = np.random.default_rng(seed + 99)
    x = rng.standard_normal((d, 2))
    w = rng.standard_normal((2, n))
    y = rng.standard_normal((n, 1))

    def snapshot():
        return {
            "lmm": np.asarray(matrix @ x, dtype=np.float64),
            "rmm": np.asarray(w @ matrix, dtype=np.float64),
            "tlmm": np.asarray(matrix.T @ y, dtype=np.float64),
            "crossprod": np.asarray(matrix.crossprod(), dtype=np.float64),
            "rowsums": np.asarray(matrix.rowsums(), dtype=np.float64),
            "colsums": np.asarray(matrix.colsums(), dtype=np.float64),
            "total": np.asarray(matrix.total_sum(), dtype=np.float64),
        }

    with kernels.using("reference"):
        reference = snapshot()
    # Reference chains must match the materialized dense computation.
    assert np.allclose(reference["lmm"], dense @ x, atol=1e-6)
    assert np.allclose(reference["crossprod"], dense.T @ dense, atol=1e-5)
    for name in kernels.available_sets():
        with kernels.using(name):
            result = snapshot()
        for op, expected in reference.items():
            assert np.allclose(result[op], expected, atol=ATOL), (
                f"[seed={seed}] kernel set {name!r} diverged from reference on "
                f"{schema}/{op}: max abs diff "
                f"{np.abs(np.asarray(result[op]) - expected).max():.3e}"
            )


@pytest.mark.parametrize("seed", range(3))
def test_fused_sets_agree_on_zero_row_batches(seed):
    """take_rows with an empty index set works identically in every set."""
    matrix = _star(seed)
    empty = np.array([], dtype=np.int64)
    for name in kernels.available_sets():
        with kernels.using(name):
            batch = matrix.take_rows(empty)
            assert batch.shape[0] == 0
            result = np.asarray(batch @ np.ones((matrix.shape[1], 1)))
            assert result.shape == (0, 1)


@pytest.mark.parametrize("seed", range(3))
def test_take_indicator_rows_matches_fancy_indexing(seed):
    """A take_rows batch's indicator equals CSR fancy indexing of the parent's
    indicator, whichever kernel set is active."""
    matrix = _star(seed)
    rng = np.random.default_rng(seed)
    indices = rng.integers(0, matrix.shape[0], size=12)
    expected = [k.tocsr()[indices, :].toarray() for k in matrix.indicators]
    for name in kernels.available_sets():
        with kernels.using(name):
            batch = matrix.take_rows(indices)
        for sliced, want in zip(batch.indicators, expected):
            assert np.array_equal(sliced.toarray(), want)


@pytest.mark.parametrize("seed", range(3))
def test_sgd_kernels_agree_across_sets(seed):
    """The fused SGD steps match the reference primitive chains bit for bit
    (float64) on both linear and logistic updates."""
    matrix = _star(seed)
    rng = np.random.default_rng(seed + 7)
    y = rng.standard_normal((matrix.shape[0], 1))
    w0 = rng.standard_normal((matrix.shape[1], 1))
    with kernels.using("reference"):
        ref_w, ref_sse = kernels.sgd_step(matrix, y, w0.copy(), 1e-3)
        ref_lw, ref_scores = kernels.logistic_sgd_step(
            matrix, np.sign(y) + (y == 0), w0.copy(), 1e-3, "exact")
    for name in kernels.available_sets():
        with kernels.using(name):
            new_w, sse = kernels.sgd_step(matrix, y, w0.copy(), 1e-3)
            lw, scores = kernels.logistic_sgd_step(
                matrix, np.sign(y) + (y == 0), w0.copy(), 1e-3, "exact")
        assert np.allclose(new_w, ref_w, atol=ATOL)
        assert np.isclose(sse, ref_sse, atol=ATOL)
        assert np.allclose(lw, ref_lw, atol=ATOL)
        assert np.allclose(scores, ref_scores, atol=ATOL)


def test_gather_dot_matches_reference():
    """The serving gather kernel sums base + per-table partial rows."""
    rng = np.random.default_rng(0)
    base = rng.standard_normal((11, 2))
    partials = [rng.standard_normal((5, 2)), rng.standard_normal((3, 2))]
    code_rows = [rng.integers(0, 5, size=11), rng.integers(0, 3, size=11)]
    with kernels.using("reference"):
        expected = kernels.gather_dot(base, partials, code_rows)
    for name in kernels.available_sets():
        with kernels.using(name):
            assert np.allclose(kernels.gather_dot(base, partials, code_rows),
                               expected, atol=ATOL)


# -- golden traces stay byte-identical under the fused sets -------------------

def test_golden_traces_unchanged_with_fused_set_active():
    """Tracing forces the reference chains, so the committed goldens match
    byte for byte even while the fused kernel set is globally active."""
    from repro.core.rewrite.trace import table1_traces

    with kernels.using(kernels.best_available()):
        actual = table1_traces()
    for name, tree in actual.items():
        committed = json.loads((GOLDEN_DIR / f"{name}.json").read_text())
        assert tree == committed, (
            f"golden trace {name!r} changed while the fused kernel set was "
            f"active -- the tracing dispatcher must route to the reference set"
        )


# -- dtype preservation (float32 round trip) ----------------------------------

class TestDtypePreservation:
    def test_float32_lmm_round_trip(self):
        matrix = _star(3, dtype=np.float32)
        x = np.random.default_rng(4).standard_normal((matrix.shape[1], 2)).astype(np.float32)
        result = np.asarray(matrix @ x)
        assert result.dtype == np.float32
        dense = np.asarray(matrix.to_dense(), dtype=np.float32)
        assert np.allclose(result, dense @ x, atol=1e-4)

    def test_float32_rmm_round_trip(self):
        matrix = _star(5, dtype=np.float32)
        w = np.random.default_rng(6).standard_normal((2, matrix.shape[0])).astype(np.float32)
        result = np.asarray(w @ matrix)
        assert result.dtype == np.float32

    def test_float32_crossprod_round_trip(self):
        matrix = _star(7, dtype=np.float32)
        gram = np.asarray(matrix.crossprod())
        assert gram.dtype == np.float32
        dense = np.asarray(matrix.to_dense(), dtype=np.float32)
        assert np.allclose(gram, dense.T @ dense, atol=1e-3)

    def test_float32_mn_round_trip(self):
        matrix = _mn(8, dtype=np.float32)
        x = np.random.default_rng(9).standard_normal((matrix.shape[1], 1)).astype(np.float32)
        assert np.asarray(matrix @ x).dtype == np.float32
        assert np.asarray(matrix.crossprod()).dtype == np.float32

    def test_mixed_dtypes_upcast_to_float64(self):
        matrix = _star(10, dtype=np.float32)
        x64 = np.random.default_rng(11).standard_normal((matrix.shape[1], 1))
        assert np.asarray(matrix @ x64).dtype == np.float64

    def test_result_dtype_rules(self):
        f32 = np.zeros(2, dtype=np.float32)
        f64 = np.zeros(2, dtype=np.float64)
        i64 = np.zeros(2, dtype=np.int64)
        assert kernels.result_dtype(f32, f32) == np.float32
        assert kernels.result_dtype(f32, f64) == np.float64
        assert kernels.result_dtype(i64) == np.float64  # non-float promotes
        assert kernels.result_dtype() == np.float64
        assert kernels.result_dtype(None, f32) == np.float32


# -- registry machinery -------------------------------------------------------

class TestRegistry:
    def test_available_sets(self):
        sets = kernels.available_sets()
        assert sets == (("reference", "numba") if kernels.compiled_available()
                        else ("reference",))

    def test_best_available_prefers_compiled(self):
        best = kernels.best_available()
        assert best == ("numba" if kernels.compiled_available() else "reference")
        assert kernels.active() == best

    def test_using_restores_on_exception(self):
        before = kernels.active()
        with pytest.raises(RuntimeError):
            with kernels.using("reference"):
                raise RuntimeError("boom")
        assert kernels.active() == before

    def test_using_is_local_to_its_thread(self, monkeypatch):
        """One thread's using("reference") never reroutes another thread."""
        def fake_gather_add(*args):
            raise AssertionError("never called")

        monkeypatch.setitem(kernels._IMPLS, "fake", {"gather_add": fake_gather_add})
        monkeypatch.setattr(kernels, "best_available", lambda: "fake")
        default = kernels.active()
        assert default == "fake"
        entered, release = threading.Event(), threading.Event()
        seen = {}

        def pinned():
            with kernels.using("reference"):
                seen["inside"] = kernels._impl("gather_add")
                entered.set()
                release.wait(5)

        worker = threading.Thread(target=pinned)
        worker.start()
        try:
            assert entered.wait(5)
            assert kernels.active() == default
            assert kernels._impl("gather_add") is kernels._IMPLS[default]["gather_add"]
        finally:
            release.set()
            worker.join(5)
        assert seen["inside"] is kernels._IMPLS["reference"]["gather_add"]
        assert kernels.active() == default

    def test_using_reaches_thread_pool_workers(self):
        executor = ParallelExecutor("thread", default_max_workers=2)
        with kernels.using("reference"):
            seen = executor.map(lambda _: kernels.active(), range(4))
        assert seen == ["reference"] * 4
        assert executor.map(lambda _: kernels.active(), range(4)) == [
            kernels.active()] * 4

    def test_unknown_set_rejected(self):
        with pytest.raises(ValueError):
            with kernels.using("fortran"):
                pass

    @pytest.mark.skipif(kernels.compiled_available(), reason="numba installed")
    def test_numba_set_unavailable_mentions_extra(self):
        with pytest.raises(RuntimeError, match=r"\[kernels\]"):
            with kernels.using("numba"):
                pass

    def test_inventory_covers_every_kernel(self):
        inventory = kernels.kernel_inventory()
        assert set(inventory) == set(kernels.KERNEL_NAMES)
        assert all("reference" in sets for sets in inventory.values())
        assert set(kernels._IMPLS["reference"]) == set(kernels.KERNEL_NAMES)
        assert set(kernels._IMPLS["numba"]) <= set(kernels.KERNEL_NAMES)


# -- indicator-code memoization -----------------------------------------------

class TestCodesMemoization:
    def test_codes_cached_per_indicator_object(self):
        rng = np.random.default_rng(0)
        indicator = indicator_from_labels(_labels(rng, 17, 5), num_columns=5)
        first = indicator_codes(indicator)
        second = indicator_codes(indicator)
        assert first is second
        assert not first.flags.writeable

    def test_codes_values_match_argmax(self):
        rng = np.random.default_rng(1)
        labels = _labels(rng, 17, 5)
        indicator = indicator_from_labels(labels, num_columns=5)
        assert np.array_equal(indicator_codes(indicator), labels)

    def test_chain_codes_compose_hops(self):
        rng = np.random.default_rng(2)
        hop1 = indicator_from_labels(_labels(rng, 12, 6), num_columns=6)
        hop2 = indicator_from_labels(_labels(rng, 6, 3), num_columns=3)
        chain = chained_indicator([hop1, hop2])
        expected = indicator_codes(hop2)[indicator_codes(hop1)]
        assert np.array_equal(indicator_codes(chain), expected)

    def test_scorer_and_zone_map_share_cached_codes(self):
        """The serving scorer and the zone-map index hit the same cache entry."""
        rng = np.random.default_rng(5)
        indicator = indicator_from_labels(_labels(rng, 13, 4), num_columns=4)
        assert indicator_codes(indicator) is indicator_codes(indicator)


# -- the default set runs the streaming and serving kernels without fallback ---

class TestNoFallback:
    @pytest.fixture(autouse=True)
    def _obs(self):
        obs.enable()
        obs.REGISTRY.reset()
        yield
        obs.disable()
        obs.REGISTRY.reset()

    def _fallbacks(self) -> float:
        return obs.REGISTRY.get("repro_kernel_fallback_total").value

    def test_streamed_fit_and_serving_batch_do_not_fall_back(self):
        from repro.ml import LinearRegressionGD, LogisticRegressionGD, ServingExport
        from repro.serve import FactorizedScorer

        matrix = _star(0)
        rng = np.random.default_rng(0)
        y = rng.standard_normal((matrix.shape[0], 1))
        LinearRegressionGD(max_iter=3, step_size=1e-3, solver="sgd",
                           batch_size=7).fit(matrix, y)
        LogisticRegressionGD(max_iter=3, solver="sgd", batch_size=7).fit(
            matrix, np.sign(y) + (y == 0))
        scorer = FactorizedScorer(
            ServingExport("linear_regression",
                          rng.standard_normal((matrix.shape[1], 1))), matrix)
        scorer.score_rows(np.arange(matrix.shape[0]))
        dispatched = obs.REGISTRY.get("repro_kernel_dispatch_total").series()
        kernels_run = {labels[0] for labels, _ in dispatched}
        assert {"sgd_step", "logistic_sgd_step", "partial_scores",
                "gather_dot"} <= kernels_run
        assert self._fallbacks() == 0


# -- the crossing K_i^T K_j in code space ----------------------------------------

def _crossing_pair(n_rows: int, n_i: int, n_j: int, seed: int = 0):
    rng = np.random.default_rng(seed)
    return (CodeIndicator(rng.integers(0, n_i, size=n_rows), n_i),
            CodeIndicator(rng.integers(0, n_j, size=n_rows), n_j))


@pytest.mark.parametrize("n_rows,n_i,n_j,dense", [
    (40, 5, 4, True),                                 # well inside the rule
    (10, 16, 10, True),                               # n_i n_j == limit * n: dense
    (10, 161, 1, False),                              # one cell past the boundary
    (30, 50, 40, False),                              # far past it
    (0, 2, 3, True),                                  # zero rows, tiny crossing
    (0, 20, 30, False),                               # zero rows, wide crossing
])
def test_crossing_equals_dense_product(n_rows, n_i, n_j, dense):
    assert (n_i * n_j <= _CROSSING_DENSITY_LIMIT * max(n_rows, 1)) == dense
    k_i, k_j = _crossing_pair(n_rows, n_i, n_j)
    crossing = k_i.T @ k_j
    assert isinstance(crossing, np.ndarray) == dense
    assert sp.issparse(crossing) == (not dense)
    expected = k_i.toarray().T @ k_j.toarray()
    got = crossing if dense else crossing.toarray()
    assert got.shape == (n_i, n_j) and got.dtype == np.float64
    np.testing.assert_array_equal(got, expected)
