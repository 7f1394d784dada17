"""Numba-compiled inner loops for the fused kernel layer.

Import-guarded: :mod:`repro.la.kernels` only activates the ``"numba"`` set
when ``AVAILABLE`` is true, so this module must import cleanly without Numba
installed (the optional ``[kernels]`` extra).  Every function here takes
contiguous float64/int64 arrays -- the wrappers in ``kernels.py`` own the
layout coercion and all sparse fallbacks -- and fuses one
gather-multiply-reduce shape into a single compiled pass, which is where the
chains of NumPy temporaries lose: each temporary is an extra full-size
allocation plus an extra memory walk.
"""

from __future__ import annotations

import numpy as np

try:
    from numba import njit, prange
    AVAILABLE = True
except ImportError:  # pragma: no cover - exercised by the no-numba CI leg
    AVAILABLE = False

    def njit(*args, **kwargs):  # type: ignore[misc]
        """Decorator stub so the module stays importable without Numba."""
        if args and callable(args[0]):
            return args[0]
        return lambda fn: fn

    prange = range


@njit(parallel=True, cache=True)
def gather_add_rows(out, small, codes):
    """``out[i, :] += small[codes[i], :]`` -- the fused LMM/serving gather."""
    n, m = out.shape
    for i in prange(n):
        row = codes[i]
        for j in range(m):
            out[i, j] += small[row, j]


@njit(parallel=True, cache=True)
def scatter_columns(x, codes, n_cols):
    """``X @ K`` as a code-binned column scatter (fused RMM / S^T K pass)."""
    n_rows, n = x.shape
    out = np.zeros((n_rows, n_cols))
    for r in prange(n_rows):
        for t in range(n):
            out[r, codes[t]] += x[r, t]
    return out


@njit(parallel=True, cache=True)
def residual_sse(predicted, y):
    """Fused ``residual = predicted - y`` and ``sum(residual ** 2)``."""
    n, m = predicted.shape
    residual = np.empty((n, m))
    sse = 0.0
    for i in prange(n):
        for j in range(m):
            r = predicted[i, j] - y[i, j]
            residual[i, j] = r
            sse += r * r
    return residual, sse


@njit(parallel=True, cache=True)
def logistic_response(scores, y, exact, clip):
    """Fused clipped logistic response ``y / (1 + exp(clip(margin)))``."""
    n, m = scores.shape
    p = np.empty((n, m))
    for i in prange(n):
        for j in range(m):
            margin = y[i, j] * scores[i, j] if exact else scores[i, j]
            if margin > clip:
                margin = clip
            elif margin < -clip:
                margin = -clip
            p[i, j] = y[i, j] / (1.0 + np.exp(margin))
    return p
