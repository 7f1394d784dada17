"""Uniform linear-algebra primitives over dense and sparse operands.

Every Morpheus rewrite rule (see :mod:`repro.core.rewrite`) is expressed only
in terms of the functions defined here plus ordinary ``@`` matrix products.
Keeping this layer small and uniform is what gives the framework closure with
respect to linear algebra: rewritten expressions never need anything that a
generic LA system (R, NumPy, SystemML, ...) would not provide.

All functions accept either ``numpy.ndarray`` or ``scipy.sparse`` operands and
return results in a natural type (aggregations return dense vectors, products
of two sparse operands stay sparse, and so on).
"""

from __future__ import annotations

from typing import Callable, Sequence, Union

import numpy as np
import scipy.sparse as sp
from numpy.linalg import pinv as _dense_pinv

from repro.exceptions import ShapeError
from repro.la.indicator import CodeIndicator
from repro.la.types import MatrixLike, ensure_2d, is_indicator, is_sparse, to_dense

Scalar = Union[int, float, np.floating, np.integer]


# ---------------------------------------------------------------------------
# Aggregations
# ---------------------------------------------------------------------------

def rowsums(x: MatrixLike) -> np.ndarray:
    """Row-wise sum of *x* as an ``(n, 1)`` dense column vector.

    Mirrors R's ``rowSums``; used by the aggregation rewrite rules and by
    K-Means (squared-norm pre-computation).
    """
    x = ensure_2d(x)
    if is_sparse(x) or is_indicator(x):
        return np.asarray(x.sum(axis=1)).reshape(-1, 1)
    return np.asarray(x).sum(axis=1, keepdims=True)


def colsums(x: MatrixLike) -> np.ndarray:
    """Column-wise sum of *x* as a ``(1, d)`` dense row vector (R's ``colSums``)."""
    x = ensure_2d(x)
    if is_sparse(x) or is_indicator(x):
        return np.asarray(x.sum(axis=0)).reshape(1, -1)
    return np.asarray(x).sum(axis=0, keepdims=True)


def total_sum(x: MatrixLike) -> float:
    """Sum of all elements of *x* (R's ``sum``)."""
    x = ensure_2d(x)
    return float(x.sum())


def row_min(x: MatrixLike) -> np.ndarray:
    """Row-wise minimum of *x* as an ``(n, 1)`` dense column vector.

    Needed by K-Means for the nearest-centroid assignment
    (``rowMin(D)`` in Algorithm 7/15 of the paper).  Sparse inputs are
    densified because minima over implicit zeros are not meaningful for
    distance matrices, which are dense in practice.
    """
    dense = to_dense(ensure_2d(x))
    return dense.min(axis=1, keepdims=True)


def nnz(x: MatrixLike) -> int:
    """Number of structurally non-zero elements of *x*."""
    if is_sparse(x) or is_indicator(x):
        return int(x.nnz)
    return int(np.count_nonzero(np.asarray(x)))


# ---------------------------------------------------------------------------
# Products
# ---------------------------------------------------------------------------

def matmul(a: MatrixLike, b: MatrixLike) -> MatrixLike:
    """Matrix product ``a @ b`` handling every dense/sparse combination.

    The result is dense whenever either operand is dense (matching NumPy and
    R semantics for mixed products), and sparse when both operands are sparse.
    """
    # Code-vector indicators gather / scatter in code space and check the
    # inner dimension themselves.
    if isinstance(a, CodeIndicator):
        return a @ ensure_2d(b)
    if isinstance(b, CodeIndicator):
        return b.__rmatmul__(ensure_2d(a))
    a2, b2 = ensure_2d(a), ensure_2d(b)
    if a2.shape[1] != b2.shape[0]:
        raise ShapeError(f"matmul: inner dimensions do not agree {a2.shape} @ {b2.shape}")
    if is_sparse(a2) and is_sparse(b2):
        return a2 @ b2
    if is_sparse(a2):
        return np.asarray(a2 @ b2)
    if is_sparse(b2):
        # ndarray @ sparse returns np.matrix in old scipy; normalize to ndarray.
        return np.asarray(a2 @ b2)
    return a2 @ b2


def crossprod(x: MatrixLike) -> MatrixLike:
    """Gram matrix ``x.T @ x`` (R's ``crossprod``), densified for sparse input.

    The output of a cross-product is a ``d x d`` matrix that is almost always
    dense even when ``x`` is sparse, so we return a dense array for sparse
    inputs to avoid carrying around dense data in a sparse container.
    """
    x = ensure_2d(x)
    out = x.T @ x
    if is_sparse(out):
        return np.asarray(out.todense())
    return np.asarray(out)


def transpose(x: MatrixLike) -> MatrixLike:
    """Transpose of a plain matrix operand."""
    return ensure_2d(x).T


def ginv(x: MatrixLike, rcond: float = 1e-12) -> np.ndarray:
    """Moore-Penrose pseudo-inverse (R's ``MASS::ginv``), always dense.

    The paper's rewrite rules reduce ``ginv`` over a normalized matrix to
    ``ginv`` over a small ``d x d`` or ``n x n`` cross-product, so densifying
    here is cheap in all intended uses.
    """
    return _dense_pinv(to_dense(ensure_2d(x)), rcond=rcond)


def solve_regularized(gram: MatrixLike, rhs: MatrixLike, ridge: float = 0.0) -> np.ndarray:
    """Solve ``(gram + ridge * I) w = rhs`` with a pseudo-inverse fallback.

    Utility for the normal-equation linear regression: when the Gram matrix is
    singular we fall back to the pseudo-inverse rather than failing.
    """
    gram_d = to_dense(ensure_2d(gram))
    rhs_d = to_dense(ensure_2d(rhs))
    if ridge:
        gram_d = gram_d + ridge * np.eye(gram_d.shape[0])
    try:
        return np.linalg.solve(gram_d, rhs_d)
    except np.linalg.LinAlgError:
        return _dense_pinv(gram_d) @ rhs_d


# ---------------------------------------------------------------------------
# Structural helpers
# ---------------------------------------------------------------------------

def sparse_diag(values: MatrixLike) -> sp.spmatrix:
    """Build a sparse diagonal matrix from a vector of values (R's ``diag``)."""
    vec = np.asarray(to_dense(values)).ravel()
    return sp.diags(vec, format="csr")


def diag_scale_rows(values: MatrixLike, x: MatrixLike) -> MatrixLike:
    """Compute ``diag(values) @ x`` without materializing the diagonal densely.

    This is the building block of the efficient cross-product rewrite
    (Algorithm 2): ``crossprod(diag(colSums(K)) ** 0.5 @ R)``.
    """
    vec = np.asarray(to_dense(values)).ravel()
    x = ensure_2d(x)
    if vec.shape[0] != x.shape[0]:
        raise ShapeError(
            f"diag_scale_rows: {vec.shape[0]} scaling values for {x.shape[0]} rows"
        )
    if is_sparse(x):
        return sparse_diag(vec) @ x
    return vec[:, None] * np.asarray(x)


def hstack(blocks: Sequence[MatrixLike]) -> MatrixLike:
    """Horizontally concatenate blocks, staying sparse only if all are sparse."""
    blocks = [ensure_2d(b) for b in blocks if b is not None and 0 not in ensure_2d(b).shape]
    if not blocks:
        raise ShapeError("hstack: no non-empty blocks to concatenate")
    if all(is_sparse(b) for b in blocks):
        return sp.hstack(blocks, format="csr")
    return np.hstack([to_dense(b) for b in blocks])


def vstack(blocks: Sequence[MatrixLike]) -> MatrixLike:
    """Vertically concatenate blocks, staying sparse only if all are sparse."""
    blocks = [ensure_2d(b) for b in blocks if b is not None and 0 not in ensure_2d(b).shape]
    if not blocks:
        raise ShapeError("vstack: no non-empty blocks to concatenate")
    if all(is_sparse(b) for b in blocks):
        return sp.vstack(blocks, format="csr")
    return np.vstack([to_dense(b) for b in blocks])


def block_2x2(upper_left: MatrixLike, upper_right: MatrixLike,
              lower_left: MatrixLike, lower_right: MatrixLike) -> np.ndarray:
    """Assemble a dense 2x2 block matrix (used by the cross-product rewrites)."""
    top = np.hstack([to_dense(upper_left), to_dense(upper_right)])
    bottom = np.hstack([to_dense(lower_left), to_dense(lower_right)])
    return np.vstack([top, bottom])


def block_grid(blocks: Sequence[Sequence[MatrixLike]]) -> np.ndarray:
    """Assemble a dense block matrix from a 2-D grid of blocks."""
    rows = [np.hstack([to_dense(b) for b in row]) for row in blocks]
    return np.vstack(rows)


def indicator_from_labels(labels: MatrixLike, num_columns: int | None = None) -> CodeIndicator:
    """Build a 0/1 indicator matrix from integer row labels.

    ``labels[i] = j`` produces a matrix ``K`` with ``K[i, j] = 1``.  This is
    exactly the paper's construction of the PK-FK indicator matrix from the
    foreign-key column (Section 3.1) and of ``IS``/``IR`` for M:N joins
    (Section 3.6).  Labels are zero-based; the result stores them as its
    code vector (:class:`~repro.la.indicator.CodeIndicator`).
    """
    lab = np.asarray(to_dense(labels)).ravel().astype(np.int64)
    if lab.size and lab.min() < 0:
        raise ShapeError("indicator_from_labels: labels must be non-negative")
    n_cols = int(lab.max()) + 1 if lab.size else 0
    if num_columns is not None:
        if lab.size and num_columns <= lab.max():
            raise ShapeError(
                f"indicator_from_labels: num_columns={num_columns} too small for max label {lab.max()}"
            )
        n_cols = num_columns
    return CodeIndicator.trusted(lab, n_cols)


# ---------------------------------------------------------------------------
# Element-wise operations
# ---------------------------------------------------------------------------

_SCALAR_OPS: dict[str, Callable] = {
    "+": lambda a, b: a + b,
    "-": lambda a, b: a - b,
    "*": lambda a, b: a * b,
    "/": lambda a, b: a / b,
    "**": lambda a, b: a ** b,
}


def scalar_op(x: MatrixLike, op: str, scalar: Scalar, reverse: bool = False) -> MatrixLike:
    """Apply an element-wise arithmetic op between matrix *x* and a scalar.

    ``reverse=True`` computes ``scalar op x`` instead of ``x op scalar``, which
    matters for the non-commutative ``-``, ``/`` and ``**``.

    Sparse operands are densified for operations that do not preserve sparsity
    (addition/subtraction of a non-zero scalar, division by the matrix, and
    exponentiation with the matrix in the exponent).
    """
    if op not in _SCALAR_OPS:
        raise ValueError(f"unsupported scalar op {op!r}")
    fn = _SCALAR_OPS[op]
    x = ensure_2d(x)
    sparsity_breaking = (
        (op in ("+", "-") and scalar != 0)
        or (op == "/" and reverse)
        or (op == "**" and reverse)
    )
    if is_sparse(x) and sparsity_breaking:
        x = to_dense(x)
    if is_sparse(x) and op == "**" and not reverse:
        return x.power(scalar)
    if reverse:
        return fn(scalar, x)
    return fn(x, scalar)


def elementwise(x: MatrixLike, fn: Callable[[np.ndarray], np.ndarray]) -> MatrixLike:
    """Apply a scalar function (``exp``, ``log1p``, ``sin`` ...) element-wise.

    For sparse inputs the function is applied to the stored values only, which
    is correct when ``fn(0) == 0`` (the common case in ML scripts, e.g.
    squaring).  When ``fn(0) != 0`` the matrix is densified first so that the
    implicit zeros are transformed too.
    """
    x = ensure_2d(x)
    if is_sparse(x):
        probe = float(fn(np.zeros(1))[0])
        if probe == 0.0:
            out = x.tocsr(copy=True)
            out.data = fn(out.data)
            return out
        return fn(to_dense(x))
    return fn(np.asarray(x))


def allclose(a: MatrixLike, b: MatrixLike, rtol: float = 1e-9, atol: float = 1e-9) -> bool:
    """Numerically compare two matrix-likes after densification."""
    da, db = to_dense(ensure_2d(a)), to_dense(ensure_2d(b))
    if da.shape != db.shape:
        return False
    return bool(np.allclose(da, db, rtol=rtol, atol=atol))
