"""Machine calibration for the cost-based planner.

The paper's Table 3 / Table 11 cost models count *arithmetic operations*;
turning counts into predicted wall-clock seconds needs a handful of
machine-dependent constants: the effective FLOP throughput of the dense and
sparse kernels, the per-primitive-call Python dispatch overhead that every
rewrite rule pays, the per-shard fan-out overhead of the parallel backend,
the per-node overhead of the lazy evaluator, and the rate at which a join
output can be materialized.

:func:`probe` measures all of them with a one-time microbenchmark (well under
a second) and :func:`get_profile` caches the result on disk -- keyed only by
the machine, so every later process starts warm.  Tests and offline scoring
can bypass timing entirely with :meth:`CalibrationProfile.default`, whose
constants are representative of a laptop-class core; the planner's *ranking*
logic never depends on where the constants came from.
"""

from __future__ import annotations

import contextlib
import json
import os
import pathlib
import tempfile
import time
from dataclasses import asdict, dataclass, replace
from typing import Optional

import numpy as np
import scipy.sparse as sp

#: Environment variable overriding the on-disk cache location.
CACHE_ENV = "REPRO_CALIBRATION_CACHE"
#: Environment variable selecting the profile mode: ``auto`` (cache-or-probe,
#: the default), ``probe`` (always re-measure) or ``default`` (constants only,
#: no timing and no disk access -- what CI and the test suite use).
MODE_ENV = "REPRO_CALIBRATION"

_FORMAT_VERSION = 3


@dataclass(frozen=True)
class CalibrationProfile:
    """Per-machine execution constants consumed by the planner's cost model.

    All throughputs are in scalar operations per second; all overheads are in
    seconds.  ``dense_flops`` is deliberately calibrated with a *streaming*
    (tall-skinny) product, not a cache-resident square one: the data-matrix
    passes the planner prices are memory-bound, so BLAS peak would
    overestimate them several-fold.  ``indicator_flops`` /
    ``sparse_dispatch_overhead_s`` price the per-join indicator scatter
    (``K @ (R X)``) that every factorized operator pays.  ``source`` records
    provenance (``default`` / ``probe`` / ``cache``) so
    :meth:`~repro.core.planner.plan.Plan.explain` can report it.
    """

    dense_flops: float          # effective streaming dense matmul throughput
    sparse_flops: float         # effective sparse matmul throughput
    indicator_flops: float      # rows/sec of factorized overhead passes
    #                             (indicator scatter + block assembly)
    dispatch_overhead_s: float  # per primitive-call (rewrite-rule) overhead
    sparse_dispatch_overhead_s: float  # per sparse primitive-call overhead
    shard_overhead_s: float     # per shard, per operator fan-out overhead
    lazy_node_overhead_s: float  # per graph node, per evaluation
    materialize_bandwidth: float  # join-output elements materialized per second
    parallel_efficiency: float  # marginal speedup of each extra shard worker
    fused_gather_rows: float = 2e9  # row-elements/sec of the fused gather kernel
    source: str = "default"

    @classmethod
    def default(cls) -> "CalibrationProfile":
        """Representative laptop-class constants (no timing, fully deterministic)."""
        return cls(
            dense_flops=2.5e9,
            sparse_flops=1e9,
            indicator_flops=5e8,
            dispatch_overhead_s=5e-6,
            sparse_dispatch_overhead_s=1e-5,
            shard_overhead_s=5e-5,
            lazy_node_overhead_s=3e-6,
            materialize_bandwidth=2e8,
            parallel_efficiency=0.6,
            fused_gather_rows=2e9,
            source="default",
        )

    # -- disk cache -----------------------------------------------------------

    def to_json(self) -> dict:
        return {"version": _FORMAT_VERSION, **asdict(self)}

    @classmethod
    def from_json(cls, payload: dict) -> "CalibrationProfile":
        if payload.get("version") != _FORMAT_VERSION:
            raise ValueError(f"unsupported calibration format {payload.get('version')!r}")
        fields = {k: v for k, v in payload.items() if k != "version"}
        return cls(**fields)

    def save(self, path: pathlib.Path) -> None:
        """Write the profile atomically (tempfile in the same directory + rename).

        Multiple processes race on the shared cache file (e.g. the streaming
        benchmark's workers all probing on a cold machine); writing through a
        temporary file and ``os.replace`` guarantees a reader never sees a
        torn, half-written JSON document -- it sees the old profile or the new
        one.  A concurrent loser of the race simply overwrites with an
        equivalent profile.
        """
        path = pathlib.Path(path)
        path.parent.mkdir(parents=True, exist_ok=True)
        payload = json.dumps(self.to_json(), indent=2, sort_keys=True) + "\n"
        fd, tmp_name = tempfile.mkstemp(dir=path.parent, prefix=path.name + ".",
                                        suffix=".tmp")
        try:
            with os.fdopen(fd, "w") as handle:
                handle.write(payload)
            os.replace(tmp_name, path)
        except BaseException:
            with contextlib.suppress(OSError):
                os.unlink(tmp_name)
            raise

    @classmethod
    def load(cls, path: pathlib.Path) -> "CalibrationProfile":
        return cls.from_json(json.loads(path.read_text()))


def cache_path() -> pathlib.Path:
    """Resolve the calibration cache file (override with ``REPRO_CALIBRATION_CACHE``)."""
    override = os.environ.get(CACHE_ENV)
    if override:
        return pathlib.Path(override)
    return pathlib.Path.home() / ".cache" / "morpheus-repro" / "calibration.json"


def _best_seconds(fn, repeats: int = 3) -> float:
    best = float("inf")
    for _ in range(repeats):
        start = time.perf_counter()
        fn()
        best = min(best, time.perf_counter() - start)
    return max(best, 1e-9)


def probe(repeats: int = 3) -> CalibrationProfile:
    """One-time microbenchmark measuring every profile constant (well under 1 s)."""
    rng = np.random.default_rng(0)

    # Dense throughput: a tall-skinny streaming product -- the shape of a GD
    # data pass (memory-bound), deliberately not a cache-resident square
    # matmul whose BLAS peak would overestimate data passes several-fold.
    # Counted in multiply-add units (m*k*n, not 2*m*k*n) to match the
    # Table 3 / Table 11 operation counts the planner divides by this rate.
    m, k, n = 20_000, 24, 2
    a = rng.standard_normal((m, k))
    b = rng.standard_normal((k, n))
    a @ b  # warm up BLAS
    dense_flops = float(m * k * n) / _best_seconds(lambda: a @ b, repeats)

    # Sparse throughput: CSR @ dense, normalized by the nonzeros touched
    # (multiply-add units again).
    s = sp.random(4096, 256, density=0.05, random_state=1, format="csr")
    x = rng.standard_normal((256, 8))
    s @ x
    sparse_flops = float(s.nnz * x.shape[1]) / _best_seconds(lambda: s @ x, repeats)

    # Dispatch overhead: a product so tiny that its time is pure call overhead.
    t1 = np.ones((2, 2))
    from repro.la.ops import indicator_from_labels, matmul

    dispatch = _best_seconds(lambda: matmul(t1, t1), repeats)

    # Indicator scatter: two sizes of K @ x separate the fixed per-call sparse
    # overhead from the per-row slope (the K (R X) scatter and the block
    # assembly of every factorized operator are priced with this rate).
    small_k = indicator_from_labels(rng.integers(0, 128, size=512), num_columns=128)
    big_k = indicator_from_labels(rng.integers(0, 1024, size=16_384), num_columns=1024)
    x_small = rng.standard_normal((128, 1))
    x_big = rng.standard_normal((1024, 1))
    small_k @ x_small
    big_k @ x_big
    t_small = _best_seconds(lambda: matmul(small_k, x_small), repeats)
    t_big = _best_seconds(lambda: matmul(big_k, x_big), repeats)
    slope = max((t_big - t_small) / (big_k.nnz - small_k.nnz), 1e-12)
    indicator_flops = 1.0 / slope
    # Fixed per-call intercept only: the small call's per-row work is already
    # priced by the slope, so it must not be double-charged here.
    sparse_dispatch = max(t_small - small_k.nnz * slope, 1e-7)

    # Per-shard fan-out overhead: serial sharded LMM minus the plain LMM,
    # divided by the shard count.
    from repro.core.shard import RowPartitioned

    small = rng.standard_normal((64, 8))
    vec = rng.standard_normal((8, 1))
    sharded = RowPartitioned.from_matrix(small, 4, pool="serial")
    sharded @ vec
    t_sharded = _best_seconds(lambda: sharded @ vec, repeats)
    t_plain = _best_seconds(lambda: small @ vec, repeats)
    shard_overhead = max((t_sharded - t_plain) / 4.0, 1e-7)

    # Lazy per-node overhead: build + evaluate a 3-node graph over a tiny
    # operand with a cold cache each time.
    from repro.core.lazy.cache import FactorizedCache
    from repro.core.lazy.expr import as_lazy

    def lazy_pass():
        leaf = as_lazy(small, cache=FactorizedCache())
        ((leaf * 2.0) @ vec).evaluate()

    lazy_pass()
    t_lazy = _best_seconds(lazy_pass, repeats)
    t_eager = _best_seconds(lambda: (small * 2.0) @ vec, repeats)
    lazy_node_overhead = max((t_lazy - t_eager) / 3.0, 1e-7)

    # Materialization bandwidth: elements of join output assembled per second.
    from repro.core.materialize import materialize_star

    n_s, n_r, d_r = 4096, 256, 24
    entity = rng.standard_normal((n_s, 4))
    attribute = rng.standard_normal((n_r, d_r))
    labels = np.concatenate([np.arange(n_r), rng.integers(0, n_r, size=n_s - n_r)])
    indicator = indicator_from_labels(labels, num_columns=n_r)
    materialize_star(entity, [indicator], [attribute])
    t_mat = _best_seconds(lambda: materialize_star(entity, [indicator], [attribute]), repeats)
    materialize_bandwidth = n_s * (4 + d_r) / t_mat

    # Fused gather rate: row-elements per second of the fused
    # gather-multiply-reduce kernel (best available set -- compiled when the
    # [kernels] extra is installed, the reference ``take`` gather otherwise).  This is
    # the rate the planner uses to price the per-row overhead passes of a
    # fused-backend candidate, replacing the primitive-chain indicator rate.
    from repro.la import kernels

    gather_out = np.zeros((16_384, 4))
    attribute_big = rng.standard_normal((1024, d_r))
    gather_block = rng.standard_normal((d_r, 4))
    with kernels.using(kernels.best_available()):
        kernels.gather_add(gather_out, big_k, attribute_big,
                           gather_block)  # warm up (and JIT-compile)
        t_gather = _best_seconds(
            lambda: kernels.gather_add(gather_out, big_k, attribute_big,
                                       gather_block), repeats)
    fused_gather_rows = float(gather_out.shape[0] * gather_out.shape[1]) / t_gather

    # Marginal efficiency of extra thread workers: 2-shard thread LMM vs
    # serial.  The serial operand is concatenated outside the timed lambda so
    # the baseline times only the matmul, not a data copy.
    pooled = RowPartitioned.from_matrix(rng.standard_normal((8192, 32)), 2, pool="thread")
    unsharded = pooled.to_dense()
    wide = rng.standard_normal((32, 16))
    pooled @ wide
    t_pool = _best_seconds(lambda: pooled @ wide, repeats)
    t_serial = _best_seconds(lambda: unsharded @ wide, repeats)
    # speedup = 1 + eff  =>  eff = t_serial / t_pool - 1, clamped to [0.1, 1].
    parallel_efficiency = float(np.clip(t_serial / t_pool - 1.0, 0.1, 1.0))

    return CalibrationProfile(
        dense_flops=dense_flops,
        sparse_flops=sparse_flops,
        indicator_flops=indicator_flops,
        dispatch_overhead_s=dispatch,
        sparse_dispatch_overhead_s=sparse_dispatch,
        shard_overhead_s=shard_overhead,
        lazy_node_overhead_s=lazy_node_overhead,
        materialize_bandwidth=materialize_bandwidth,
        parallel_efficiency=parallel_efficiency,
        fused_gather_rows=fused_gather_rows,
        source="probe",
    )


_profile_singleton: Optional[CalibrationProfile] = None


#: The deterministic constants, built once (profiles are immutable).
_DEFAULT_PROFILE = CalibrationProfile.default()


def get_profile(mode: Optional[str] = None) -> CalibrationProfile:
    """The process-wide calibration profile.

    ``mode`` (or the ``REPRO_CALIBRATION`` environment variable) selects:

    * ``"auto"``   -- load the disk cache if present, otherwise probe once and
      save the result (the production path);
    * ``"probe"``  -- always re-measure (and refresh the cache);
    * ``"default"`` -- the deterministic constants, no timing, no disk access.
    """
    global _profile_singleton
    mode = (mode or os.environ.get(MODE_ENV) or "auto").lower()
    if mode not in ("auto", "probe", "default"):
        raise ValueError(f"unknown calibration mode {mode!r}")
    if mode == "default":
        return _DEFAULT_PROFILE
    if _profile_singleton is not None and mode == "auto":
        return _profile_singleton
    path = cache_path()
    if mode == "auto":
        try:
            _profile_singleton = replace(CalibrationProfile.load(path), source="cache")
            return _profile_singleton
        except (OSError, ValueError, TypeError, KeyError, json.JSONDecodeError):
            pass
    try:
        _profile_singleton = probe()
    except Exception:  # pragma: no cover - probe must never break planning
        _profile_singleton = CalibrationProfile.default()
        return _profile_singleton
    try:
        _profile_singleton.save(path)
    except OSError:  # pragma: no cover - read-only home directories
        pass
    return _profile_singleton


def reset_profile_cache() -> None:
    """Forget the in-process profile (tests use this around env-var changes)."""
    global _profile_singleton
    _profile_singleton = None
