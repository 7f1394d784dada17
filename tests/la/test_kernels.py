"""Equivalence and registry tests for the fused kernel layer.

The fused kernels (:mod:`repro.la.kernels`) are the execution layer behind
every factorized rewrite, so their contract is strict:

* every implementation set (``reference`` primitive chains, vectorized
  ``numpy``, compiled ``numba`` when installed) computes the same values on
  star, M:N and snowflake schemas, dense and sparse bases, float32 and
  float64, empty attribute tables and zero-row batches;
* the golden operator traces are byte-identical whichever set is active --
  tracing always routes through the reference primitive chains;
* operand dtypes survive the rewrite layer (the float32 round-trip pin);
* ``indicator_codes`` is memoized per indicator object and invalidated when
  the indicator dies.
"""

from __future__ import annotations

import gc
import json
import pathlib
import threading

import numpy as np
import pytest
import scipy.sparse as sp

from repro.core.indicator import indicator_codes, reset_codes_cache
from repro.core.mn_matrix import MNNormalizedMatrix
from repro.core.normalized_matrix import NormalizedMatrix
from repro.la import kernels
from repro.la.chain import ChainedIndicator
from repro.la.ops import indicator_from_labels
from repro.la.parallel import ParallelExecutor

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
    return NormalizedMatrix(entity, [ChainedIndicator(hops)], [attribute])


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
    """The fused CSR slice equals the generic CSR fancy-indexing slice."""
    rng = np.random.default_rng(seed)
    indicator = indicator_from_labels(_labels(rng, 31, 9), num_columns=9)
    indices = rng.integers(0, 31, size=12)
    expected = indicator[indices, :].toarray()
    for name in kernels.available_sets():
        with kernels.using(name):
            sliced = kernels.take_indicator_rows(indicator, indices)
        assert np.array_equal(np.asarray(sp.csr_matrix(sliced).toarray()), expected)


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
        assert "reference" in sets and "numpy" in sets
        assert ("numba" in sets) == kernels.compiled_available()

    def test_best_available_prefers_compiled(self):
        best = kernels.best_available()
        assert best == ("numba" if kernels.compiled_available() else "numpy")

    def test_set_active_returns_previous_and_restores(self):
        previous = kernels.set_active("reference")
        try:
            assert kernels.active() == "reference"
        finally:
            kernels.set_active(previous)

    def test_using_restores_on_exception(self):
        before = kernels.active()
        with pytest.raises(RuntimeError):
            with kernels.using("reference"):
                raise RuntimeError("boom")
        assert kernels.active() == before

    def test_using_is_local_to_its_thread(self):
        """One thread's using("reference") never reroutes another thread."""
        default = kernels.active()
        assert default != "reference"
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
        with pytest.raises(Exception):
            kernels.set_active("fortran")

    @pytest.mark.skipif(kernels.compiled_available(), reason="numba installed")
    def test_numba_set_unavailable_mentions_extra(self):
        with pytest.raises(RuntimeError, match=r"\[kernels\]"):
            kernels.set_active("numba")

    def test_env_override_selects_set(self, monkeypatch):
        # The env pin is read once, on first resolution -- clear the resolved
        # set (and restore it afterwards) to exercise that path.
        monkeypatch.setenv("REPRO_KERNELS", "reference")
        monkeypatch.setattr(kernels, "_active", None)
        assert kernels.active() == "reference"

    def test_inventory_covers_every_kernel(self):
        inventory = kernels.kernel_inventory()
        assert set(inventory) == set(kernels.KERNEL_NAMES)
        for name, sets in inventory.items():
            assert "reference" in sets, f"{name} lacks a reference implementation"


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
        chain = ChainedIndicator([hop1, hop2])
        expected = indicator_codes(hop2)[indicator_codes(hop1)]
        assert np.array_equal(indicator_codes(chain), expected)

    def test_cache_evicts_dead_indicators(self):
        from repro.core import indicator as indicator_module

        reset_codes_cache()
        rng = np.random.default_rng(3)
        k = indicator_from_labels(_labels(rng, 9, 4), num_columns=4)
        indicator_codes(k)
        assert len(indicator_module._CODES_CACHE) == 1
        del k
        gc.collect()
        assert len(indicator_module._CODES_CACHE) == 0

    def test_reset_codes_cache(self):
        from repro.core import indicator as indicator_module

        rng = np.random.default_rng(4)
        k = indicator_from_labels(_labels(rng, 9, 4), num_columns=4)
        indicator_codes(k)
        reset_codes_cache()
        assert len(indicator_module._CODES_CACHE) == 0
        # Still correct after a reset (recomputed and re-cached).
        assert indicator_codes(k).shape == (9,)

    def test_scorer_and_zone_map_share_cached_codes(self):
        """The serving scorer and the zone-map index hit the same cache entry."""
        rng = np.random.default_rng(5)
        indicator = indicator_from_labels(_labels(rng, 13, 4), num_columns=4)
        assert indicator_codes(indicator) is indicator_codes(indicator)
