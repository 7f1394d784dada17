"""Shared matrix type aliases and small structural predicates.

The library works with three families of operand:

* dense ``numpy.ndarray`` (2-D, or 1-D vectors that we promote to 2-D),
* SciPy sparse matrices (any format; CSR is the canonical internal format),
* the library's own logical types (``NormalizedMatrix``,
  ``MNNormalizedMatrix``, ``RowPartitioned``).

Indicator matrices are :class:`~repro.la.indicator.CodeIndicator` code
vectors; the helpers in this module treat them like sparse matrices and
normalize them together with the first two families, so the rest of the
code never needs to branch on ``isinstance`` checks scattered around.
"""

from __future__ import annotations

from typing import Union

import numpy as np
import scipy.sparse as sp

from repro.exceptions import ShapeError
from repro.la.indicator import CodeIndicator

#: Anything accepted as a plain (non-normalized) matrix operand.
MatrixLike = Union[np.ndarray, sp.spmatrix]


def is_sparse(x: object) -> bool:
    """Return ``True`` if *x* is a SciPy sparse matrix (any format)."""
    return sp.issparse(x)


def is_indicator(x: object) -> bool:
    """Return ``True`` if *x* is a code-vector :class:`CodeIndicator`."""
    return isinstance(x, CodeIndicator)


def is_dense(x: object) -> bool:
    """Return ``True`` if *x* is a dense NumPy ndarray."""
    return isinstance(x, np.ndarray)


def is_matrix_like(x: object) -> bool:
    """Return ``True`` if *x* is a plain dense or sparse matrix."""
    return is_dense(x) or is_sparse(x)


def is_vector(x: object) -> bool:
    """Return ``True`` if *x* is a 1-D array or a 2-D array with one row/column."""
    if is_dense(x):
        return x.ndim == 1 or (x.ndim == 2 and 1 in x.shape)
    if is_sparse(x):
        return 1 in x.shape
    return False


def ensure_2d(x: MatrixLike) -> MatrixLike:
    """Promote 1-D dense vectors to column matrices; pass everything else through.

    Sparse matrices are always 2-D already.  Raises :class:`ShapeError` for
    inputs with more than two dimensions.
    """
    if type(x) is np.ndarray and x.ndim == 2:
        return x
    if is_sparse(x) or is_indicator(x):
        return x
    arr = np.asarray(x)
    if arr.ndim == 1:
        return arr.reshape(-1, 1)
    if arr.ndim == 2:
        return arr
    raise ShapeError(f"expected a 1-D or 2-D operand, got ndim={arr.ndim}")


def to_dense(x: MatrixLike) -> np.ndarray:
    """Return a dense ``ndarray`` view/copy of *x*."""
    if type(x) is np.ndarray:
        return x
    if is_indicator(x):
        return x.toarray()
    if is_sparse(x):
        return np.asarray(x.todense())
    return np.asarray(x)


def to_sparse(x: MatrixLike, fmt: str = "csr") -> sp.spmatrix:
    """Return *x* as a SciPy sparse matrix in the requested format."""
    if is_indicator(x):
        x = x.tocsr()
    if is_sparse(x):
        return x.asformat(fmt)
    return sp.csr_matrix(np.atleast_2d(np.asarray(x))).asformat(fmt)


def shape_of(x: MatrixLike) -> tuple:
    """Return the 2-D shape of *x*, promoting 1-D vectors to column shape."""
    if is_sparse(x) or is_indicator(x):
        return x.shape
    arr = np.asarray(x)
    if arr.ndim == 1:
        return (arr.shape[0], 1)
    return arr.shape


def check_same_shape(a: MatrixLike, b: MatrixLike, context: str = "operation") -> None:
    """Raise :class:`ShapeError` unless *a* and *b* have identical 2-D shapes."""
    sa, sb = shape_of(a), shape_of(b)
    if sa != sb:
        raise ShapeError(f"{context}: shape mismatch {sa} vs {sb}")


def normalize_row_indices(row_indices, n_rows: int) -> np.ndarray:
    """Validate a row-selection argument and return it as an ``int64`` index array.

    Accepts an integer index array (duplicates and arbitrary order allowed) or
    a boolean mask of length *n_rows*.  Float arrays are accepted only when
    every value is finite and exactly integral (``np.arange(5.0)`` and
    integer-valued columns round-tripped through float storage are common);
    anything fractional, non-finite, or of a non-numeric dtype raises
    :class:`ShapeError` -- silently truncating ``1.7`` to row ``1`` would
    select the wrong row instead of surfacing the caller's bug.  Used by
    every ``take_rows`` implementation so star-schema and M:N row selection
    reject bad input identically.
    """
    indices = np.asarray(row_indices)
    if indices.dtype == bool:
        if indices.ndim != 1 or indices.shape[0] != n_rows:
            raise ShapeError("boolean row mask length does not match the number of rows")
        return np.flatnonzero(indices)
    if not (np.issubdtype(indices.dtype, np.integer)
            or np.issubdtype(indices.dtype, np.floating)):
        raise ShapeError(
            f"row indices must be integers or a boolean mask, got dtype {indices.dtype}"
        )
    if np.issubdtype(indices.dtype, np.floating) and indices.size:
        if not np.all(np.isfinite(indices)):
            raise ShapeError("row indices must be finite integers, got NaN or infinity")
        if not np.array_equal(indices, np.trunc(indices)):
            raise ShapeError(
                "row indices must be integral; got non-integral float values "
                "(truncating them would silently select the wrong rows)"
            )
    indices = indices.astype(np.int64).ravel()
    if indices.size and (indices.min() < 0 or indices.max() >= n_rows):
        raise ShapeError("row indices out of range")
    return indices


def check_matmul_shapes(a_shape: tuple, b_shape: tuple, context: str = "matmul") -> None:
    """Raise :class:`ShapeError` unless ``a @ b`` is dimensionally valid."""
    if a_shape[1] != b_shape[0]:
        raise ShapeError(
            f"{context}: inner dimensions do not agree, {a_shape} @ {b_shape}"
        )
