"""Indicator matrices stored as their code vectors.

A PK-FK indicator ``K`` (Section 3.1) and the M:N indicators ``I_S``/``I_R``
(Section 3.6) have exactly one 1 per row, so ``nnz(K) = n_S`` and the whole
matrix is determined by its vector of ``n_S`` **codes**: ``codes[i]`` is the
column holding row ``i``'s 1 -- the attribute-table row the join routes
entity row ``i`` to.  :class:`CodeIndicator` stores exactly that vector plus
the column count and the same zero-cost transposed flag the normalized
matrices use, and implements every product the factorized algebra performs
on an indicator directly in code space:

======================  ==========================================
product                 code-space form
======================  ==========================================
``K @ X``               ``X[codes]``                  (gather)
``K^T @ Y``             ``bincount(codes, Y[:, j])``   (scatter)
``X @ K``               ``bincount(codes, X[r, :])``   (scatter)
``X @ K^T``             ``X[:, codes]``               (gather)
``colSums(K)``          ``bincount(codes)``
``K_i^T @ K_j``         ``bincount(codes_i * n_j + codes_j)``  (crossing)
======================  ==========================================

Results keep the data operand's floating dtype (the stored ones are
structural, not data).  A row selection is a selection of codes -- a view
for a contiguous range -- and a multi-hop snowflake path composes to one
code vector ``c_h[... c_2[c_1]]``.  Sparse matrices appear only at the
edges: :meth:`CodeIndicator.tocsr` / :meth:`CodeIndicator.toarray` for
materialization and interop, and sparse results for a column selection
``K[:, cols]``, for products with other sparse matrices and for a crossing
too wide to histogram densely, built from the codes without forming ``K`` as
CSR.
"""

from __future__ import annotations

import numpy as np
import scipy.sparse as sp

from repro.exceptions import IndicatorError, ShapeError

#: A crossing ``K_i^T K_j`` is a dense code-pair histogram while it has at
#: most this many cells per joined row; wider ones are sparse, because the
#: dense matrix would dwarf the join itself.
_CROSSING_DENSITY_LIMIT = 16


def _out_dtype(dtype: np.dtype) -> np.dtype:
    """Floating data keeps its dtype; anything else accumulates in float64."""
    return dtype if dtype.kind in "fc" else np.dtype(np.float64)


def scatter_columns(rows: np.ndarray, codes: np.ndarray, n_cols: int) -> np.ndarray:
    """``rows @ K`` as float64: bin the columns of each row of *rows* by code."""
    out = np.empty((rows.shape[0], n_cols))
    for r in range(rows.shape[0]):
        out[r] = np.bincount(codes, weights=rows[r], minlength=n_cols)
    return out


class CodeIndicator:
    """An immutable 0/1 indicator matrix with one 1 per row, stored as codes.

    Parameters
    ----------
    codes:
        1-D integer array; ``codes[i]`` is the column of row ``i``'s 1.
        Stored as a read-only ``int64`` array.
    n_cols:
        Number of columns (rows of the referenced table); every code must be
        below it.
    transposed:
        Whether this object represents ``K`` (``False``) or ``K^T``.

    Raises :class:`~repro.exceptions.IndicatorError` for codes that are not a
    1-D integer array in ``[0, n_cols)``.
    """

    __slots__ = ("codes", "n_cols", "transposed")

    # Defer ``ndarray @ K`` and ``sparse @ K`` to our overloads.
    __array_ufunc__ = None
    __array_priority__ = 900

    def __init__(self, codes, n_cols: int, transposed: bool = False):
        codes = np.asarray(codes)
        if codes.ndim != 1:
            raise IndicatorError(f"indicator codes must be 1-D, got ndim={codes.ndim}")
        if codes.dtype.kind not in "iu":
            raise IndicatorError(f"indicator codes must be integers, got dtype {codes.dtype}")
        n_cols = int(n_cols)
        if n_cols < 0:
            raise IndicatorError(f"indicator column count must be non-negative, got {n_cols}")
        if codes.size:
            low, high = int(codes.min()), int(codes.max())
            if low < 0:
                raise IndicatorError(f"indicator codes must be non-negative, got {low}")
            if high >= n_cols:
                raise IndicatorError(
                    f"indicator code {high} out of range for {n_cols} columns"
                )
        self._init(np.array(codes, dtype=np.int64), n_cols, transposed)

    def _init(self, codes: np.ndarray, n_cols: int, transposed: bool) -> None:
        if codes.flags.writeable:
            codes = codes.view()
            codes.setflags(write=False)
        self.codes = codes
        self.n_cols = n_cols
        self.transposed = bool(transposed)

    @classmethod
    def trusted(cls, codes: np.ndarray, n_cols: int,
                transposed: bool = False) -> "CodeIndicator":
        """Wrap int64 *codes* already known to be valid, without re-checking.

        For library-internal derivations (row selections, compositions,
        transposes) of a validated indicator.
        """
        indicator = cls.__new__(cls)
        indicator._init(codes, int(n_cols), transposed)
        return indicator

    def __reduce__(self):
        return (CodeIndicator.trusted, (self.codes, self.n_cols, self.transposed))

    # -- shape and metadata ----------------------------------------------------

    @property
    def shape(self) -> tuple:
        shape = (int(self.codes.shape[0]), self.n_cols)
        return shape[::-1] if self.transposed else shape

    @property
    def ndim(self) -> int:
        return 2

    @property
    def nnz(self) -> int:
        return int(self.codes.shape[0])

    @property
    def T(self) -> "CodeIndicator":
        return CodeIndicator.trusted(self.codes, self.n_cols, not self.transposed)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"CodeIndicator(shape={self.shape}, transposed={self.transposed})"

    # -- edges: CSR / dense ----------------------------------------------------

    def tocsr(self) -> sp.csr_matrix:
        """The represented matrix (transpose applied) as CSR."""
        n = self.codes.shape[0]
        csr = sp.csr_matrix(
            (np.ones(n), self.codes, np.arange(n + 1, dtype=np.int64)),
            shape=(n, self.n_cols),
        )
        return csr.T.tocsr() if self.transposed else csr

    def toarray(self) -> np.ndarray:
        n = self.codes.shape[0]
        dense = np.zeros((n, self.n_cols))
        dense[np.arange(n), self.codes] = 1.0
        return dense.T if self.transposed else dense

    # -- row selection -----------------------------------------------------------

    def __getitem__(self, key):
        """``K[rows]`` / ``K[rows, :]`` and ``K[:, cols]`` on the untransposed indicator.

        A row selection is a selection of codes (a view for a slice).  A
        column selection can leave rows without a 1, so it is a sparse (CSC)
        matrix, built from the codes in one pass over them.
        """
        rows, cols = key if isinstance(key, tuple) else (key, slice(None))
        full = slice(None)
        if not self.transposed and isinstance(cols, slice) and cols == full:
            return CodeIndicator.trusted(self.codes[rows].reshape(-1), self.n_cols)
        if not self.transposed and isinstance(rows, slice) and rows == full:
            return self._select_columns(np.asarray(cols, dtype=np.int64).reshape(-1))
        raise TypeError("a CodeIndicator selects rows or columns of the untransposed "
                        "matrix; use tocsr() for other indexing")

    def _select_columns(self, cols: np.ndarray) -> sp.csc_matrix:
        unique, inverse = np.unique(cols, return_inverse=True)
        lookup = np.full(self.n_cols, -1, dtype=np.int64)
        lookup[unique] = np.arange(unique.size)
        position = lookup.take(self.codes)
        hit = np.flatnonzero(position >= 0)
        position = position[hit]
        indptr = np.zeros(unique.size + 1, dtype=np.int64)
        np.cumsum(np.bincount(position, minlength=unique.size), out=indptr[1:])
        selected = sp.csc_matrix(
            (np.ones(hit.size), hit[np.argsort(position, kind="stable")], indptr),
            shape=(self.codes.shape[0], unique.size),
        )
        return selected[:, inverse.reshape(-1)]

    # -- aggregation -------------------------------------------------------------

    def sum(self, axis=None):
        """``scipy.sparse``-style sums (2-D row/column results)."""
        if axis is None:
            return float(self.codes.shape[0])
        if axis not in (0, 1):
            raise ValueError("axis must be None, 0 or 1")
        # K's column sums count each code and its row sums are all ones;
        # K^T swaps the two.
        if (axis == 0) == self.transposed:
            sums = np.ones(self.codes.shape[0])
        else:
            sums = np.bincount(self.codes, minlength=self.n_cols).astype(np.float64)
        return sums.reshape(1, -1) if axis == 0 else sums.reshape(-1, 1)

    # -- products ----------------------------------------------------------------

    def __matmul__(self, other):
        if isinstance(other, CodeIndicator):
            if self.transposed and not other.transposed:
                self._check_inner(self.shape, other.shape)
                return _crossing(self.codes, other.codes, self.n_cols, other.n_cols)
            return self.tocsr() @ other.tocsr()
        if sp.issparse(other):
            self._check_inner(self.shape, other.shape)
            if self.transposed:
                # K^T S: move each stored entry of S to the row of its code.
                coo = other.tocoo()
                return sp.csr_matrix((coo.data, (self.codes[coo.row], coo.col)),
                                     shape=(self.n_cols, other.shape[1]))
            return other.tocsr()[self.codes]
        if not isinstance(other, np.ndarray):
            return NotImplemented
        vector = other.ndim == 1
        x = other.reshape(-1, 1) if vector else other
        self._check_inner(self.shape, x.shape)
        dtype = _out_dtype(x.dtype)
        if self.transposed:
            # K^T Y = (Y^T K)^T: bin the columns of Y^T by code.
            rows = np.ascontiguousarray(x.T, dtype=np.float64)
            out = scatter_columns(rows, self.codes, self.n_cols).T
        else:
            out = np.ascontiguousarray(x).take(self.codes, axis=0)
        out = np.ascontiguousarray(out, dtype=dtype)
        return out.ravel() if vector else out

    def __rmatmul__(self, other):
        if sp.issparse(other):
            self._check_inner(other.shape, self.shape)
            if self.transposed:
                return other.tocsr()[:, self.codes]
            # S K: move each stored entry of S to the column of its code.
            coo = other.tocoo()
            return sp.csr_matrix((coo.data, (coo.row, self.codes[coo.col])),
                                 shape=(other.shape[0], self.n_cols))
        if not isinstance(other, np.ndarray):
            return NotImplemented
        vector = other.ndim == 1
        x = other.reshape(1, -1) if vector else other
        self._check_inner(x.shape, self.shape)
        dtype = _out_dtype(x.dtype)
        if self.transposed:
            out = x.take(self.codes, axis=1)
        else:
            rows = np.ascontiguousarray(x, dtype=np.float64)
            out = scatter_columns(rows, self.codes, self.n_cols)
        out = np.asarray(out, dtype=dtype)
        return out.ravel() if vector else out

    @staticmethod
    def _check_inner(a_shape: tuple, b_shape: tuple) -> None:
        if a_shape[1] != b_shape[0]:
            raise ShapeError(
                f"matmul: inner dimensions do not agree {a_shape} @ {b_shape}"
            )


def _crossing(codes_i: np.ndarray, codes_j: np.ndarray, n_i: int, n_j: int):
    """``K_i^T K_j``: how many rows pair code ``a`` of ``K_i`` with code ``b`` of ``K_j``.

    A dense float64 ``bincount`` histogram of the code pairs while it has at
    most :data:`_CROSSING_DENSITY_LIMIT` cells per row, else a CSR matrix of
    the pairs (duplicates summed).
    """
    if n_i * n_j <= _CROSSING_DENSITY_LIMIT * max(codes_i.shape[0], 1):
        counts = np.bincount(codes_i * n_j + codes_j, minlength=n_i * n_j)
        return counts.astype(np.float64).reshape(n_i, n_j)
    return sp.csr_matrix((np.ones(codes_i.shape[0]), (codes_i, codes_j)),
                         shape=(n_i, n_j))


def compose(indicators) -> CodeIndicator:
    """The product ``K_1 K_2 ... K_h`` of untransposed indicators as one code vector.

    Each factor has one 1 per row, so the product does too, and its codes are
    ``c_h[... c_2[c_1]]`` -- one gather per extra hop, computed once.  A
    single factor is returned as-is.
    """
    indicators = list(indicators)
    if not indicators:
        raise ShapeError("composing indicators needs at least one hop")
    if len(indicators) == 1:
        return indicators[0]
    for i, hop in enumerate(indicators):
        if not isinstance(hop, CodeIndicator) or hop.transposed:
            raise ShapeError(f"hop {i} is not an untransposed CodeIndicator")
    for i, (a, b) in enumerate(zip(indicators, indicators[1:])):
        if a.n_cols != b.codes.shape[0]:
            raise ShapeError(
                f"hop {i} has {a.n_cols} columns but hop {i + 1} has "
                f"{b.codes.shape[0]} rows"
            )
    codes = indicators[0].codes
    for hop in indicators[1:]:
        codes = hop.codes[codes]
    return CodeIndicator.trusted(codes, indicators[-1].n_cols)
