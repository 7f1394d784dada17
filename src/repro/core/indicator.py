"""Validation and inspection of indicator matrices.

The normalized matrix is only well-defined when its indicator matrices have
the structure the paper relies on:

* PK-FK indicator ``K`` (Section 3.1): every row has exactly one non-zero,
  every non-zero equals one, and (after the pre-processing of Section 3.1)
  every column has at least one non-zero, so ``nnz(K) == n_S``.
* M:N indicators ``I_S``/``I_R`` (Section 3.6): every row has exactly one
  non-zero equal to one and every column at least one, so
  ``nnz(I) == |T'|``.

Exactly one 1 per row means an indicator *is* its vector of codes, so the
library stores every indicator as a :class:`~repro.la.indicator.CodeIndicator`.
The validators below are the edge where outside input (CSR, dense, or codes
from user code) becomes one; the matrix constructors call them eagerly
(validation is linear in the row count and therefore cheap relative to any
LA operator).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.exceptions import IndicatorError
from repro.la.indicator import CodeIndicator
from repro.la.types import MatrixLike, to_sparse


@dataclass(frozen=True)
class IndicatorStats:
    """Summary statistics of an indicator matrix."""

    shape: tuple
    nnz: int
    min_rows_per_column: int
    max_rows_per_column: int

    @property
    def average_fanout(self) -> float:
        """Average number of referencing rows per referenced row."""
        if self.shape[1] == 0:
            return 0.0
        return self.nnz / self.shape[1]


def _as_code_indicator(matrix, context: str) -> CodeIndicator:
    """*matrix* as an untransposed :class:`CodeIndicator`, checking one 1 per row."""
    if isinstance(matrix, CodeIndicator):
        if matrix.transposed:
            raise IndicatorError(f"{context}: a transposed indicator is not a row indicator")
        return matrix
    csr = to_sparse(matrix, "csr")
    if csr.nnz and not np.all(csr.data == 1.0):
        raise IndicatorError(f"{context}: all stored entries must equal 1")
    row_counts = np.diff(csr.indptr)
    if csr.shape[0] and not np.all(row_counts == 1):
        bad = int(np.argmax(row_counts != 1))
        raise IndicatorError(
            f"{context}: row {bad} has {int(row_counts[bad])} non-zeros, expected exactly 1"
        )
    return CodeIndicator.trusted(csr.indices.astype(np.int64), csr.shape[1])


def _check_full_columns(indicator: CodeIndicator, message: str) -> None:
    if indicator.n_cols:
        col_counts = np.bincount(indicator.codes, minlength=indicator.n_cols)
        if np.any(col_counts == 0):
            raise IndicatorError(message.format(int(np.argmax(col_counts == 0))))


def validate_pk_fk_indicator(matrix, require_full_columns: bool = True) -> CodeIndicator:
    """Validate a PK-FK indicator matrix ``K`` and return it as a :class:`CodeIndicator`.

    Checks that every row has exactly one entry equal to one, and (optionally)
    that every column is referenced at least once, which the paper assumes
    after dropping unreferenced attribute tuples.  A :class:`CodeIndicator`
    already holds one 1 per row, so only the column check applies to it.
    """
    indicator = _as_code_indicator(matrix, "PK-FK indicator")
    if require_full_columns:
        _check_full_columns(
            indicator,
            "PK-FK indicator: column {} is never referenced; "
            "drop unreferenced attribute rows before building the normalized matrix",
        )
    return indicator


def validate_mn_indicator(matrix, require_full_columns: bool = True) -> CodeIndicator:
    """Validate an M:N indicator matrix (``I_S`` or ``I_R``) and return it as a
    :class:`CodeIndicator`.

    Structurally the per-row requirement is the same as for PK-FK indicators
    (each output row of the join comes from exactly one source row); the
    difference is semantic -- the number of rows equals the join output size
    rather than the entity-table size.
    """
    indicator = _as_code_indicator(matrix, "M:N indicator")
    if require_full_columns:
        _check_full_columns(
            indicator,
            "M:N indicator: column {} contributes no join output rows; "
            "drop non-contributing base rows before building the normalized matrix",
        )
    return indicator


def as_indicator(matrix):
    """The ``validate=False`` edge of the matrix constructors.

    A :class:`CodeIndicator` passes through unchecked (internal derivations
    never re-validate).  Other input is converted when it has one 1 per row
    and kept as given otherwise: the caller opted out of validation, so a
    malformed operand fails when an operator first uses it.
    """
    if isinstance(matrix, CodeIndicator):
        return matrix
    try:
        return _as_code_indicator(matrix, "indicator")
    except IndicatorError:
        return matrix


def indicator_codes(matrix) -> np.ndarray:
    """The per-row key codes of an indicator matrix (read-only ``int64``).

    For a valid PK-FK or M:N indicator (exactly one non-zero per row) the
    code of row ``i`` is the column holding that non-zero -- i.e. the
    attribute-table row the join routes row ``i`` to.  This is the inverse of
    :func:`repro.la.ops.indicator_from_labels` and what the serving subsystem
    gathers with.  A :class:`CodeIndicator` returns its stored codes; other
    input is validated and converted first.
    """
    return _as_code_indicator(matrix, "indicator").codes


def indicator_stats(matrix: MatrixLike) -> IndicatorStats:
    """Compute summary statistics (shape, nnz, per-column fan-out range)."""
    if isinstance(matrix, CodeIndicator):
        col_counts = np.bincount(matrix.codes, minlength=matrix.n_cols)
        shape, nnz = matrix.shape, matrix.nnz
    else:
        csr = to_sparse(matrix, "csr")
        col_counts = np.asarray(csr.sum(axis=0)).ravel()
        shape, nnz = csr.shape, int(csr.nnz)
    if shape[1] == 0:
        return IndicatorStats(shape, nnz, 0, 0)
    return IndicatorStats(
        shape=shape,
        nnz=nnz,
        min_rows_per_column=int(col_counts.min()),
        max_rows_per_column=int(col_counts.max()),
    )
