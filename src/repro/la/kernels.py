"""Named fused gather-multiply-reduce kernels behind one registry.

The Table-1 rewrites win by pushing work into small per-table products, but
executing them as chains of generic primitives pays one generic product per
step: ``K @ (R @ X)`` is a product whose only job is to *gather* rows of the
small product, ``colSums(K)`` is a reduction whose only job is to *count*
codes, and so on.  Every one of those inner loops is really one of a handful
of fused shapes over the indicator **codes**
(:attr:`repro.la.indicator.CodeIndicator.codes` -- the per-row attribute-table
row index an indicator is stored as):

======================  =====================================================
kernel                  fused shape
======================  =====================================================
``gather_add``          ``out += (R @ X)[codes]``            (LMM term)
``scatter_right``       ``(X K) R`` via code-binned column sums  (RMM term)
``scatter_crossprod``   ``R^T diag(bincount(codes)) R``      (diagonal block)
``cross_block``         ``R_i^T (K_i^T K_j) R_j`` via paired-code counts
``entity_cross_block``  ``(S^T K) R`` via code-binned column sums
``gather_gram``         ``out += (R R^T)[codes][:, codes]``  (Gramian term)
``gather_rows``         ``rowSums(R)[codes]``
``scatter_colsums``     ``bincount(codes) @ R``
``scatter_total``       ``bincount(codes) . rowSums(R)``
``gather_dot``          entity dot + per-table partial gather (serving)
``partial_scores``      ``R_k @ W_k`` partial-score block     (serving)
``sgd_step``            fused residual/gradient/update        (streaming)
``logistic_sgd_step``   fused score/clip/sigmoid-step         (streaming)
======================  =====================================================

Two implementation sets live behind the registry:

* ``"reference"`` -- the primitive chains exactly as the rewrite rules emit
  them (``matmul``/``colsums``/... from :mod:`repro.la.ops`).  The chains
  reach :class:`~repro.la.indicator.CodeIndicator`'s own products, so every
  indicator step is already a single pass over the codes: ``K @ X`` a
  ``take`` gather, ``X @ K`` and ``colSums(K)`` ``bincount`` scatters, and
  the crossing ``K_i^T K_j`` a code-pair histogram.  This set *is* the traced
  algebra -- when golden-trace recording is active the dispatcher always
  routes here, so the operator traces are byte-identical by construction --
  and it is the default when Numba is absent.
* ``"numba"`` -- JIT-compiled single-pass loops from
  :mod:`repro.la._numba_kernels`; only offered when the optional ``[kernels]``
  extra (Numba) is installed, and then the default.  A kernel without a
  compiled variant falls back to its reference body.

:func:`using` selects a set for the current context only -- a
``contextvars.ContextVar``, the mechanism obs spans use -- so one thread's
``using("reference")`` never reroutes another thread, while shard workers,
which run in copies of the caller's context, follow it.
"""

from __future__ import annotations

import contextlib
import contextvars
from typing import Callable, Dict, Optional, Sequence, Tuple

import numpy as np

from repro import obs
from repro.la.ops import (
    colsums,
    crossprod,
    diag_scale_rows,
    matmul,
    rowsums,
    transpose,
)
from repro.la.types import MatrixLike, to_dense

__all__ = [
    "KERNEL_NAMES",
    "active",
    "available_sets",
    "best_available",
    "compiled_available",
    "cross_block",
    "entity_cross_block",
    "gather_add",
    "gather_dot",
    "gather_gram",
    "gather_rows",
    "kernel_inventory",
    "logistic_sgd_step",
    "partial_scores",
    "result_dtype",
    "scatter_colsums",
    "scatter_crossprod",
    "scatter_right",
    "scatter_total",
    "sgd_step",
    "using",
]

KERNEL_NAMES = (
    "gather_add", "scatter_right", "scatter_crossprod", "cross_block",
    "entity_cross_block", "gather_gram", "gather_rows", "scatter_colsums",
    "scatter_total", "gather_dot", "partial_scores", "sgd_step",
    "logistic_sgd_step",
)

# ---------------------------------------------------------------------------
# Lazy late-bound helper (repro.ml imports repro.la, not vice versa at module
# load -- resolving it inside the call breaks the cycle).
# ---------------------------------------------------------------------------

_clip_scores: Optional[Callable] = None


def _clip(scores: np.ndarray) -> np.ndarray:
    global _clip_scores
    if _clip_scores is None:
        from repro.ml.metrics import clip_scores
        _clip_scores = clip_scores
    return _clip_scores(scores)


def _dense_result(x) -> np.ndarray:
    """Densify an operator result (mirror of ``la.generic.to_dense_result``)."""
    if hasattr(x, "to_dense"):
        return x.to_dense()
    return to_dense(x)


def result_dtype(*operands) -> np.dtype:
    """The floating result dtype of a factorized operator.

    Combines the dtypes of the *data* operands (entity, attribute tables,
    multiplier) -- indicator matrices are excluded by the callers because
    their stored float64 ones are structural, not data, and would silently
    upcast float32 pipelines.  Non-float combinations (integer/bool tables)
    resolve to float64: the accumulating kernels need a float accumulator.
    """
    dtypes = [op.dtype for op in operands
              if op is not None and hasattr(op, "dtype")]
    if not dtypes:
        return np.dtype(np.float64)
    dtype = np.result_type(*dtypes)
    if dtype.kind != "f":
        return np.dtype(np.float64)
    return dtype


def _tracing() -> bool:
    """True while golden-trace recording has patched this module's primitives.

    :func:`repro.core.rewrite.trace.trace_rewrites` wraps the
    :mod:`repro.la.ops` names imported here (this module is listed in its
    ``REWRITE_MODULES``); the wrappers carry ``__wrapped_primitive__``.  The
    dispatcher then forces the ``"reference"`` set so the recorded primitive
    sequence is exactly the pre-kernel rewrite algebra.
    """
    return hasattr(matmul, "__wrapped_primitive__")


# ---------------------------------------------------------------------------
# Reference implementations: the exact primitive chains of the rewrite rules
# ---------------------------------------------------------------------------

def _ref_gather_add(out: np.ndarray, indicator: MatrixLike,
                    attribute: MatrixLike, block: np.ndarray) -> np.ndarray:
    # K (R X): compute the small product first, then scatter through K.
    out += to_dense(matmul(indicator, matmul(attribute, block)))
    return out


def _ref_scatter_right(x: MatrixLike, indicator: MatrixLike,
                       attribute: MatrixLike, dtype: np.dtype) -> np.ndarray:
    # (X K) R: the intermediate X K is only m x nR.
    block = to_dense(matmul(matmul(x, indicator), attribute))
    return np.asarray(block, dtype=dtype)


def _ref_scatter_crossprod(indicator: MatrixLike, attribute: MatrixLike,
                           dtype: np.dtype) -> np.ndarray:
    counts = colsums(indicator)
    scaled = diag_scale_rows(np.sqrt(np.asarray(counts).ravel()), attribute)
    return np.asarray(to_dense(crossprod(scaled)), dtype=dtype)


def _ref_cross_block(indicator_i: MatrixLike, indicator_j: MatrixLike,
                     attribute_i: MatrixLike, attribute_j: MatrixLike,
                     dtype: np.dtype) -> np.ndarray:
    crossing = matmul(transpose(indicator_i), indicator_j)
    block = to_dense(matmul(transpose(attribute_i), matmul(crossing, attribute_j)))
    return np.asarray(block, dtype=dtype)


def _ref_entity_cross_block(entity: MatrixLike, indicator: MatrixLike,
                            attribute: MatrixLike, dtype: np.dtype) -> np.ndarray:
    # (S^T K) R: small intermediate of size dS x nR.
    partial = to_dense(matmul(matmul(transpose(entity), indicator), attribute))
    return np.asarray(partial, dtype=dtype)


def _ref_gather_gram(out: np.ndarray, indicator: MatrixLike,
                     attribute: MatrixLike) -> np.ndarray:
    inner = matmul(attribute, transpose(attribute))
    out += to_dense(matmul(matmul(indicator, inner), transpose(indicator)))
    return out


def _ref_gather_rows(indicator: MatrixLike, attribute: MatrixLike) -> np.ndarray:
    return to_dense(matmul(indicator, rowsums(attribute)))


def _ref_scatter_colsums(indicator: MatrixLike, attribute: MatrixLike) -> np.ndarray:
    return to_dense(matmul(colsums(indicator), attribute))


def _ref_scatter_total(indicator: MatrixLike, attribute: MatrixLike) -> float:
    partial = matmul(colsums(indicator), rowsums(attribute))
    return float(to_dense(partial).ravel()[0])


def _ref_gather_dot(base: np.ndarray, partials: Sequence[np.ndarray],
                    code_rows: Sequence[np.ndarray]) -> np.ndarray:
    out = np.array(base, dtype=np.float64)
    for partial, rows in zip(partials, code_rows):
        out += partial.take(np.asarray(rows, dtype=np.intp), axis=0)
    return out


def _ref_partial_scores(attribute: MatrixLike, weight_slice: np.ndarray) -> np.ndarray:
    partial = np.asarray(to_dense(attribute @ weight_slice), dtype=np.float64)
    if partial.ndim == 1:
        partial = partial.reshape(-1, 1)
    partial.setflags(write=False)
    return partial


def _ref_sgd_step(data, y: np.ndarray, w: np.ndarray,
                  step_size: float) -> Tuple[np.ndarray, float]:
    residual = _dense_result(data @ w) - y
    gradient = _dense_result(data.T @ residual)
    return w - step_size * gradient, float(np.sum(residual ** 2))


def _ref_logistic_sgd_step(data, y: np.ndarray, w: np.ndarray, step_size: float,
                           update: str) -> Tuple[np.ndarray, np.ndarray]:
    scores = _dense_result(data @ w)
    if update == "paper":
        p = y / (1.0 + np.exp(_clip(scores)))
    else:
        p = y / (1.0 + np.exp(_clip(y * scores)))
    w = w + step_size * _dense_result(data.T @ p)
    return w, scores


# ---------------------------------------------------------------------------
# Numba-backed implementations (optional [kernels] extra)
# ---------------------------------------------------------------------------

_NUMBA_MODULE = False  # unresolved sentinel; None after a failed import


def _numba():
    global _NUMBA_MODULE
    if _NUMBA_MODULE is False:
        try:
            from repro.la import _numba_kernels
            _NUMBA_MODULE = _numba_kernels if _numba_kernels.AVAILABLE else None
        except Exception:  # pragma: no cover - defensive import guard
            _NUMBA_MODULE = None
    return _NUMBA_MODULE


def compiled_available() -> bool:
    """Whether the Numba-compiled kernel set can be activated."""
    return _numba() is not None


def _f64(x: np.ndarray) -> np.ndarray:
    return np.ascontiguousarray(x, dtype=np.float64)


def _nb_gather_add(out: np.ndarray, indicator: MatrixLike,
                   attribute: MatrixLike, block: np.ndarray) -> np.ndarray:
    small = to_dense(matmul(attribute, block))
    if out.dtype != np.float64 or not out.flags.c_contiguous:
        out += small[indicator.codes, :]
        return out
    _numba().gather_add_rows(out, _f64(small), indicator.codes)
    return out


def _nb_scatter_right(x: MatrixLike, indicator: MatrixLike,
                      attribute: MatrixLike, dtype: np.dtype) -> np.ndarray:
    if not isinstance(x, np.ndarray):
        return _ref_scatter_right(x, indicator, attribute, dtype)
    xk = _numba().scatter_columns(_f64(x), indicator.codes, indicator.shape[1])
    return np.asarray(to_dense(matmul(xk, attribute)), dtype=dtype)


def _nb_entity_cross_block(entity: MatrixLike, indicator: MatrixLike,
                           attribute: MatrixLike, dtype: np.dtype) -> np.ndarray:
    if not isinstance(entity, np.ndarray):
        return _ref_entity_cross_block(entity, indicator, attribute, dtype)
    sk = _numba().scatter_columns(_f64(entity.T), indicator.codes,
                                  indicator.shape[1])
    return np.asarray(to_dense(matmul(sk, attribute)), dtype=dtype)


def _nb_gather_dot(base: np.ndarray, partials: Sequence[np.ndarray],
                   code_rows: Sequence[np.ndarray]) -> np.ndarray:
    out = np.ascontiguousarray(np.array(base, dtype=np.float64))
    for partial, rows in zip(partials, code_rows):
        _numba().gather_add_rows(out, _f64(partial),
                                 np.ascontiguousarray(rows, dtype=np.int64))
    return out


def _nb_sgd_step(data, y: np.ndarray, w: np.ndarray,
                 step_size: float) -> Tuple[np.ndarray, float]:
    predicted = _dense_result(data @ w)
    residual, sse = _numba().residual_sse(_f64(predicted), _f64(y))
    gradient = _dense_result(data.T @ residual)
    return w - step_size * gradient, float(sse)


def _nb_logistic_sgd_step(data, y: np.ndarray, w: np.ndarray, step_size: float,
                          update: str) -> Tuple[np.ndarray, np.ndarray]:
    from repro.ml.metrics import SCORE_CLIP

    scores = _dense_result(data @ w)
    p = _numba().logistic_response(_f64(scores), _f64(y),
                                   update == "exact", float(SCORE_CLIP))
    w = w + step_size * _dense_result(data.T @ p)
    return w, scores


# ---------------------------------------------------------------------------
# Registry and dispatch
# ---------------------------------------------------------------------------

_IMPLS: Dict[str, Dict[str, Callable]] = {
    "reference": {
        "gather_add": _ref_gather_add,
        "scatter_right": _ref_scatter_right,
        "scatter_crossprod": _ref_scatter_crossprod,
        "cross_block": _ref_cross_block,
        "entity_cross_block": _ref_entity_cross_block,
        "gather_gram": _ref_gather_gram,
        "gather_rows": _ref_gather_rows,
        "scatter_colsums": _ref_scatter_colsums,
        "scatter_total": _ref_scatter_total,
        "gather_dot": _ref_gather_dot,
        "partial_scores": _ref_partial_scores,
        "sgd_step": _ref_sgd_step,
        "logistic_sgd_step": _ref_logistic_sgd_step,
    },
    "numba": {
        "gather_add": _nb_gather_add,
        "scatter_right": _nb_scatter_right,
        "entity_cross_block": _nb_entity_cross_block,
        "gather_dot": _nb_gather_dot,
        "sgd_step": _nb_sgd_step,
        "logistic_sgd_step": _nb_logistic_sgd_step,
    },
}

#: Per-context set installed by :func:`using`; ``None`` defers to
#: :func:`best_available`.
_override: contextvars.ContextVar[Optional[str]] = contextvars.ContextVar(
    "repro_kernel_set", default=None)


def available_sets() -> Tuple[str, ...]:
    """The kernel sets that can be activated in this process."""
    return ("reference", "numba") if compiled_available() else ("reference",)


def best_available() -> str:
    """The default set: ``"numba"`` when importable, else ``"reference"``."""
    return "numba" if compiled_available() else "reference"


def _validate_set(name: str) -> str:
    if name not in _IMPLS:
        raise ValueError(
            f"unknown kernel set {name!r}; expected one of {sorted(_IMPLS)}"
        )
    if name == "numba" and not compiled_available():
        raise RuntimeError(
            "the numba kernel set needs the optional [kernels] extra "
            "(pip install 'repro-morpheus[kernels]')"
        )
    return name


def active() -> str:
    """The kernel set active in the current context."""
    return _override.get() or best_available()


@contextlib.contextmanager
def using(name: str):
    """Activate one kernel set for the current context only.

    Other threads keep their own set; work fanned out through
    :class:`repro.la.parallel.ParallelExecutor` thread pools inherits it.
    """
    token = _override.set(_validate_set(name))
    try:
        yield
    finally:
        _override.reset(token)


_DISPATCH_TOTAL = obs.REGISTRY.counter(
    "repro_kernel_dispatch_total",
    "Kernel dispatches by kernel name and resolved implementation set",
    labels=("kernel", "impl_set"),
)
_FALLBACKS_TOTAL = obs.REGISTRY.counter(
    "repro_kernel_fallback_total",
    "Dispatches where the active set lacked the kernel and a fallback ran",
    labels=("kernel", "wanted", "used"),
)
_REFERENCE = _IMPLS["reference"]


def _impl(name: str) -> Callable:
    if _tracing():
        return _REFERENCE[name]
    active_set = active()
    fn = _IMPLS[active_set].get(name)
    resolved_set = active_set
    if fn is None:
        fn, resolved_set = _REFERENCE[name], "reference"
        if obs.enabled():
            _FALLBACKS_TOTAL.labels(
                kernel=name, wanted=active_set, used=resolved_set
            ).inc()
    if obs.enabled():
        _DISPATCH_TOTAL.labels(kernel=name, impl_set=resolved_set).inc()
    return fn


def kernel_inventory() -> Dict[str, Tuple[str, ...]]:
    """Which sets implement each kernel (docs/diagnostics helper)."""
    return {name: tuple(s for s in ("reference", "numba")
                        if name in _IMPLS[s])
            for name in KERNEL_NAMES}


# ---------------------------------------------------------------------------
# Public kernel entry points
# ---------------------------------------------------------------------------

def gather_add(out: np.ndarray, indicator: MatrixLike, attribute: MatrixLike,
               block: np.ndarray) -> np.ndarray:
    """Accumulate ``K (R @ block)`` into *out* (the LMM per-table term)."""
    return _impl("gather_add")(out, indicator, attribute, block)


def scatter_right(x: MatrixLike, indicator: MatrixLike, attribute: MatrixLike,
                  dtype: np.dtype) -> np.ndarray:
    """``(X K) R``: one RMM output block, cast to the operator result dtype."""
    return _impl("scatter_right")(x, indicator, attribute, dtype)


def scatter_crossprod(indicator: MatrixLike, attribute: MatrixLike,
                      dtype: np.dtype) -> np.ndarray:
    """``R^T (K^T K) R`` via the fan-out counts (diagonal cross-product block)."""
    return _impl("scatter_crossprod")(indicator, attribute, dtype)


def cross_block(indicator_i: MatrixLike, indicator_j: MatrixLike,
                attribute_i: MatrixLike, attribute_j: MatrixLike,
                dtype: np.dtype) -> np.ndarray:
    """``R_i^T (K_i^T K_j) R_j``: one off-diagonal cross-product block."""
    return _impl("cross_block")(indicator_i, indicator_j, attribute_i,
                                attribute_j, dtype)


def entity_cross_block(entity: MatrixLike, indicator: MatrixLike,
                       attribute: MatrixLike, dtype: np.dtype) -> np.ndarray:
    """``(S^T K) R``: the entity/table cross-product block."""
    return _impl("entity_cross_block")(entity, indicator, attribute, dtype)


def gather_gram(out: np.ndarray, indicator: MatrixLike,
                attribute: MatrixLike) -> np.ndarray:
    """Accumulate ``K (R R^T) K^T`` into *out* (the Gramian per-table term)."""
    return _impl("gather_gram")(out, indicator, attribute)


def gather_rows(indicator: MatrixLike, attribute: MatrixLike) -> np.ndarray:
    """``K rowSums(R)`` as an ``(n, 1)`` column (rowSums per-table term)."""
    return _impl("gather_rows")(indicator, attribute)


def scatter_colsums(indicator: MatrixLike, attribute: MatrixLike) -> np.ndarray:
    """``colSums(K) R`` as a ``(1, d_R)`` row (colSums per-table term)."""
    return _impl("scatter_colsums")(indicator, attribute)


def scatter_total(indicator: MatrixLike, attribute: MatrixLike) -> float:
    """``colSums(K) rowSums(R)`` as a float (sum per-table term)."""
    return _impl("scatter_total")(indicator, attribute)


def gather_dot(base: np.ndarray, partials: Sequence[np.ndarray],
               code_rows: Sequence[np.ndarray]) -> np.ndarray:
    """Serving score assembly: *base* plus one partial-row gather per table."""
    return _impl("gather_dot")(base, partials, code_rows)


def partial_scores(attribute: MatrixLike, weight_slice: np.ndarray) -> np.ndarray:
    """One table's read-only partial-score block ``R_k @ W_k`` (``n_Rk x m``)."""
    return _impl("partial_scores")(attribute, weight_slice)


def sgd_step(data, y: np.ndarray, w: np.ndarray,
             step_size: float) -> Tuple[np.ndarray, float]:
    """One fused least-squares mini-batch step; returns ``(w_new, batch_sse)``."""
    return _impl("sgd_step")(data, y, w, step_size)


def logistic_sgd_step(data, y: np.ndarray, w: np.ndarray, step_size: float,
                      update: str) -> Tuple[np.ndarray, np.ndarray]:
    """One fused logistic mini-batch step; returns ``(w_new, batch_scores)``."""
    return _impl("logistic_sgd_step")(data, y, w, step_size, update)

