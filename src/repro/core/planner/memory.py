"""Memory-footprint models for the cost-based planner and the streaming layer.

The planner's other dimensions (arithmetic, dispatch, engine, one-time) model
*time*; this module models *space*.  Two resident footprints matter when
deciding whether an operand can be executed in memory at all:

* the **materialized** footprint -- the dense join output ``n_S x d`` a
  materialized plan would have to hold, and
* the **factorized** footprint -- the base matrices plus the indicator
  code vectors a factorized plan keeps resident (usually far smaller, which is
  the paper's redundancy argument in byte form).

When a :class:`~repro.core.planner.planner.Planner` is given a
``memory_budget`` it drops candidates whose resident footprint exceeds the
budget and scores a ``"streamed"`` candidate instead: factorized mini-batch
execution through :class:`~repro.core.stream.NormalizedBatchIterator`, whose
batch size :func:`batch_rows_for_budget` derives from the same footprint
model.  The batch size is chosen so that even a *densified* batch (the worst
intermediate any Table-1 operator produces) fits in the budget, so the bound
holds for every operator mix.
"""

from __future__ import annotations

from typing import Tuple

import numpy as np
import scipy.sparse as sp

from repro.la.types import is_indicator

#: Bytes per dense float64 element.
DENSE_ELEMENT_BYTES = 8
#: Per-row overhead of slicing an indicator when a factorized batch is cut
#: out of the normalized matrix: one int64 code.
INDICATOR_ROW_BYTES = np.dtype(np.int64).itemsize


def matrix_nbytes(matrix) -> int:
    """Best-effort resident size in bytes of one concrete matrix."""
    if matrix is None:
        return 0
    if sp.issparse(matrix):
        total = 0
        for attr in ("data", "indices", "indptr", "row", "col", "offsets"):
            part = getattr(matrix, attr, None)
            if part is not None:
                total += int(np.asarray(part).nbytes)
        return total
    if isinstance(matrix, np.ndarray):
        return int(matrix.nbytes)
    if is_indicator(matrix):
        return int(matrix.codes.nbytes)
    shape = getattr(matrix, "shape", None)
    if shape is None:
        return 0
    return int(shape[0]) * int(shape[1]) * DENSE_ELEMENT_BYTES


def _logical_dims(data) -> Tuple[int, int]:
    """(rows, cols) of the untransposed logical matrix behind *data*."""
    rows = getattr(data, "logical_rows", None)
    cols = getattr(data, "logical_cols", None)
    if rows is not None and cols is not None:
        return int(rows), int(cols)
    n_rows, n_cols = data.shape
    if getattr(data, "transposed", False):
        n_rows, n_cols = n_cols, n_rows
    return int(n_rows), int(n_cols)


def resident_pieces(data):
    """What a row-partitioned operand keeps resident: its listed pieces, or
    the source a lazy partition slices (``None`` for other operands)."""
    from repro.core.shard import RowPartitioned

    if not isinstance(data, RowPartitioned):
        return None
    return [data.source] if data.source is not None else data.pieces


def materialized_nbytes(data) -> int:
    """Bytes of the dense join output a materialized plan keeps resident.

    For operands that *are* already materialized (plain matrices, plain row
    pieces) this is their actual storage size; for normalized operands it is
    the dense ``n_S x d`` the join would produce.
    """
    from repro.core.mn_matrix import MNNormalizedMatrix
    from repro.core.normalized_matrix import NormalizedMatrix

    if isinstance(data, (NormalizedMatrix, MNNormalizedMatrix)):
        rows, cols = _logical_dims(data)
        return rows * cols * DENSE_ELEMENT_BYTES
    pieces = resident_pieces(data)
    if pieces is not None:
        return sum(materialized_nbytes(p) for p in pieces)
    return matrix_nbytes(data)


def factorized_nbytes(data) -> int:
    """Bytes the factorized representation keeps resident (bases + indicators)."""
    from repro.core.mn_matrix import MNNormalizedMatrix
    from repro.core.normalized_matrix import NormalizedMatrix

    if isinstance(data, NormalizedMatrix):
        total = matrix_nbytes(data.entity)
        total += sum(matrix_nbytes(k) for k in data.indicators)
        total += sum(matrix_nbytes(r) for r in data.attributes)
        return total
    if isinstance(data, MNNormalizedMatrix):
        total = sum(matrix_nbytes(i) for i in data.indicators)
        total += sum(matrix_nbytes(r) for r in data.attributes)
        return total
    pieces = resident_pieces(data)
    if pieces is not None:  # normalized pieces share their attribute matrices
        total = sum(factorized_nbytes(p) for p in pieces)
        shared = sum(matrix_nbytes(r) for r in getattr(pieces[0], "attributes", ()))
        return total - shared * (len(pieces) - 1)
    return materialized_nbytes(data)


def entity_stream_nbytes(data) -> int:
    """Bytes of the n-row structures one factorized pass streams through.

    A factorized Table-1 pass touches the entity matrix and the indicator
    matrices end to end; the attribute tables are the shared, always-resident
    part (they are reused untouched by every pass and every mini-batch, the
    paper's central sharing argument).  This is the factorized working set a
    memory budget has to cover when the pass is *not* streamed; the streamed
    backend replaces it with one batch's slice.
    """
    from repro.core.mn_matrix import MNNormalizedMatrix
    from repro.core.normalized_matrix import NormalizedMatrix

    if isinstance(data, NormalizedMatrix):
        return matrix_nbytes(data.entity) + sum(matrix_nbytes(k) for k in data.indicators)
    if isinstance(data, MNNormalizedMatrix):
        return sum(matrix_nbytes(i) for i in data.indicators)
    pieces = resident_pieces(data)
    if pieces is not None:
        return sum(entity_stream_nbytes(p) for p in pieces)
    return materialized_nbytes(data)


def batch_row_nbytes(data) -> int:
    """Conservative resident bytes one logical row contributes to a mini-batch.

    Counts the densified row width (the worst-case intermediate a Table-1
    operator materializes for the batch) plus the per-join indicator slice
    overhead, so a batch of ``batch_rows_for_budget`` rows stays under the
    budget for every operator.
    """
    _, cols = _logical_dims(data)
    num_joins = len(getattr(data, "indicators", ()))
    return _row_nbytes(cols, num_joins)


def _row_nbytes(n_cols: int, num_joins: int) -> int:
    return max(1, n_cols * DENSE_ELEMENT_BYTES + num_joins * INDICATOR_ROW_BYTES)


def batch_rows_for_dims(n_rows: int, n_cols: int, num_joins: int,
                        memory_budget: float, min_rows: int = 1) -> int:
    """:func:`batch_rows_for_budget` on explicit dimensions (planner-internal)."""
    if memory_budget <= 0:
        raise ValueError("memory_budget must be positive")
    batch_rows = int(memory_budget // _row_nbytes(n_cols, num_joins))
    if n_rows > 0:
        return max(min(batch_rows, n_rows), min(min_rows, n_rows), 1)
    return max(batch_rows, min_rows, 1)


def batch_rows_for_budget(data, memory_budget: float, min_rows: int = 1) -> int:
    """Mini-batch row count such that one batch fits in *memory_budget* bytes.

    Clamped to ``[min_rows, n_rows]``: a budget too small for even one row
    still yields ``min_rows``-row batches (the stream degrades gracefully
    rather than refusing to run), and a budget larger than the whole matrix
    yields one full-size batch.
    """
    rows, cols = _logical_dims(data)
    num_joins = len(getattr(data, "indicators", ()))
    return batch_rows_for_dims(rows, cols, num_joins, memory_budget, min_rows=min_rows)


def streamed_batch_count(n_rows: int, batch_rows: int) -> int:
    """Number of batches one pass over *n_rows* rows takes at *batch_rows*."""
    if n_rows <= 0:
        return 0
    return -(-int(n_rows) // max(int(batch_rows), 1))
