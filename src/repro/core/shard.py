"""Row-partitioned operands executing Table-1 operators piece by piece.

Every factorized operator of the paper is embarrassingly parallel over row
pieces of the (logical) data matrix: row-partitioning ``T`` corresponds to
row-partitioning the entity matrix ``S`` and the indicator matrices
``K_i``/``I_i`` while *sharing* the attribute matrices ``R_i``, and each
Table-1 operator either concatenates per-piece results (LMM, ``rowSums``,
element-wise ops) or sums them (RMM, ``crossprod``, ``colSums``, ``sum``).
That is also all Oracle R Enterprise's ``ore.rowapply`` does (Section 5.2.4,
Tables 9 and 10): it visits a row partition one piece at a time.

:class:`RowPartitioned` is that one idea.  It has three parts:

* **pieces** -- plain dense/sparse row blocks, or row slices of a
  :class:`~repro.core.normalized_matrix.NormalizedMatrix` /
  :class:`~repro.core.mn_matrix.MNNormalizedMatrix` (entity and indicators
  sliced, attribute matrices shared by reference, so every per-piece
  operator runs through the factorized rewrite rules unchanged).  Pieces
  come from a list (``NormalizedMatrix.shard()``,
  :meth:`RowPartitioned.from_matrix`, :meth:`RowPartitioned.chunked`) or
  from a lazy row-slice source (``NormalizedMatrix.stream()``,
  :meth:`RowPartitioned.streamed`) that produces each piece when an
  operator reaches it and holds at most one produced piece alive;
* a :class:`~repro.la.parallel.ParallelExecutor` -- serial, thread, process
  or any ``concurrent.futures`` executor.  The ORE-style chunked matrix is a
  partition on the serial executor; a lazy source is always serial;
* a **transposed** flag -- transposed operators route through the
  identities of Appendix A, so the pieces themselves stay untransposed.

Per-piece work goes through the module-level ``_shard_*`` functions, which
branch on the piece type (plain pieces through :mod:`repro.la.ops`,
normalized pieces through their own overloads) and survive pickling into a
:class:`~repro.la.parallel.ProcessPool`; only ``apply`` with a non-picklable
callable is thread/serial-only.

With one piece the fan-out degenerates to the unpartitioned computation --
the executor runs single-item maps inline and the reductions are identity
operations -- so ``n_shards=1`` is bit-for-bit identical to serial execution.
"""

from __future__ import annotations

import operator
from typing import Callable, List, Optional, Sequence, Tuple, Union

import numpy as np
import scipy.sparse as sp

from repro import obs
from repro.core.stream import NormalizedBatchIterator, _slice_piece, slice_rows
from repro.exceptions import NotSupportedError, ShapeError
from repro.la import generic
from repro.la import ops as la_ops
from repro.la.parallel import ParallelExecutor, PoolSpec
from repro.la.types import MatrixLike, ensure_2d, is_matrix_like, is_sparse, to_dense, to_sparse

_SHARD_BUILDS = obs.REGISTRY.counter(
    "repro_shard_builds_total",
    "Sharded operands constructed, by source kind",
    labels=("kind",),
)

Scalar = Union[int, float, np.floating, np.integer]

_PY_OPS = {
    "+": operator.add,
    "-": operator.sub,
    "*": operator.mul,
    "/": operator.truediv,
    "**": operator.pow,
}

_EW_UFUNCS = {"+": np.add, "-": np.subtract, "*": np.multiply, "/": np.divide}


def _is_scalar(value: object) -> bool:
    return isinstance(value, (int, float, np.floating, np.integer)) and not isinstance(value, bool)


def shard_bounds(n_rows: int, n_shards: int) -> List[Tuple[int, int]]:
    """Balanced contiguous row partition: ``[(start, stop), ...]``.

    The shard count is clamped to the row count (a 1-row matrix yields one
    shard no matter what was requested), and row surplus goes to the leading
    shards so sizes differ by at most one.  A zero-row matrix partitions into
    a single empty shard ``[(0, 0)]`` rather than dividing by a clamped shard
    count of zero, so degenerate inputs (empty train/test splits, drained
    streams) flow through the partitioned operators instead of crashing.
    """
    if n_rows < 0:
        raise ShapeError("cannot shard a matrix with negative rows")
    if n_shards < 1:
        raise ValueError("n_shards must be at least 1")
    if n_rows == 0:
        return [(0, 0)]
    n_shards = min(int(n_shards), int(n_rows))
    base, extra = divmod(int(n_rows), n_shards)
    bounds: List[Tuple[int, int]] = []
    start = 0
    for i in range(n_shards):
        stop = start + base + (1 if i < extra else 0)
        bounds.append((start, stop))
        start = stop
    return bounds


def fixed_bounds(n_rows: int, piece_rows: int) -> List[Tuple[int, int]]:
    """Consecutive ``piece_rows``-row ranges (the last may be shorter).

    The partition of :meth:`RowPartitioned.chunked` and of a lazy source; like
    :func:`shard_bounds`, a zero-row matrix yields one empty piece.
    """
    if piece_rows < 1:
        raise ValueError("piece_rows must be at least 1")
    if n_rows == 0:
        return [(0, 0)]
    return [(start, min(start + piece_rows, n_rows)) for start in range(0, n_rows, piece_rows)]


# ---------------------------------------------------------------------------
# Module-level piece functions (picklable, so ProcessPool works).
# Each takes one argument tuple led by the piece and handles both plain and
# normalized pieces, dispatching plain matrices through repro.la.ops and
# logical pieces through their own (factorized) operator overloads.
# ---------------------------------------------------------------------------

def _shard_matmul(args):
    shard, other = args
    if is_matrix_like(shard):
        return la_ops.matmul(shard, other)
    return shard @ other


def _shard_rmatmul(args):
    shard, other_slice = args
    if is_matrix_like(shard):
        return la_ops.matmul(other_slice, shard)
    return other_slice @ shard


def _shard_transpose_matmul(args):
    shard, other_slice = args
    if is_matrix_like(shard):
        return to_dense(la_ops.matmul(la_ops.transpose(shard), other_slice))
    return shard.T @ other_slice


def _shard_crossprod(args):
    shard, method = args
    if hasattr(shard, "crossprod"):
        return shard.crossprod(method) if method else shard.crossprod()
    return to_dense(la_ops.crossprod(shard))


def _shard_rowsums(shard):
    return generic.rowsums(shard)


def _shard_colsums(shard):
    return generic.colsums(shard)


def _shard_total_sum(shard):
    return generic.total_sum(shard)


def _shard_scalar_op(args):
    shard, op, scalar, reverse = args
    if is_matrix_like(shard):
        return la_ops.scalar_op(shard, op, scalar, reverse=reverse)
    fn = _PY_OPS[op]
    return fn(scalar, shard) if reverse else fn(shard, scalar)


def _shard_elementwise_fn(args):
    shard, fn = args
    return generic.elementwise(shard, fn)


def _shard_elementwise_matrix(args):
    shard, other_slice, op, reverse = args
    if is_matrix_like(shard):
        fn = _EW_UFUNCS[op]
        left = to_dense(ensure_2d(other_slice)) if reverse else to_dense(ensure_2d(shard))
        right = to_dense(ensure_2d(shard)) if reverse else to_dense(ensure_2d(other_slice))
        return fn(left, right)
    fn = _PY_OPS[op]
    return fn(other_slice, shard) if reverse else fn(shard, other_slice)


def _shard_materialize(shard):
    return shard.materialize() if hasattr(shard, "materialize") else shard


def _shard_pair_outer(args):
    """One ``T_i T_j^T`` block of the transposed cross-product."""
    left, right = args
    return to_dense(left @ right.T)


def _split_rows(matrix: MatrixLike, bounds: Sequence[Tuple[int, int]]) -> List[MatrixLike]:
    matrix = ensure_2d(matrix)
    return [matrix[start:stop, :] for start, stop in bounds]


def _split_cols(matrix: MatrixLike, bounds: Sequence[Tuple[int, int]]) -> List[MatrixLike]:
    matrix = ensure_2d(matrix)
    return [matrix[:, start:stop] for start, stop in bounds]


def _sum_partials(parts: List):
    total = parts[0]
    for part in parts[1:]:
        total = total + part
    return total


def _operand(other):
    """*other* as a 2-D plain matrix, a logical operand, or ``None`` if neither."""
    if isinstance(other, (list, tuple)):
        other = np.asarray(other, dtype=np.float64)
    if is_matrix_like(other):
        return ensure_2d(other)
    return other if hasattr(other, "shape") else None


class _LazyRows:
    """Pieces produced on demand: ``batch_rows``-row slices of *source*.

    Each produced slice passes through *steps* -- the deferred per-piece ops
    ``(fn, args)`` that scalar operators and ``apply`` composed -- so a
    normalized slice stays factorized.  A slice covering every row is the
    source itself, so one full-size piece runs bit-for-bit like the source.
    """

    def __init__(self, source, batch_rows: int, steps: tuple = ()):
        self.source = source
        self.batch_rows = batch_rows
        self.steps = steps
        self.bounds = fixed_bounds(int(source.shape[0]), batch_rows)

    def produce(self, index: int):
        start, stop = self.bounds[index]
        if start == 0 and stop == self.source.shape[0]:
            piece = self.source
        else:
            piece = slice_rows(self.source, start, stop)
        for fn, args in self.steps:
            piece = fn((piece, *args))
        return piece

    def then(self, fn: Callable, *args) -> "_LazyRows":
        return _LazyRows(self.source, self.batch_rows, self.steps + ((fn, args),))


class RowPartitioned:
    """A matrix stored as row pieces, executing Table-1 operators per piece.

    ==================  =========================================
    operator            reduction over per-piece partials
    ==================  =========================================
    ``T @ X`` (LMM)     concatenate rows (stays partitioned)
    ``X @ T`` (RMM)     sum of ``X_i @ T_i``
    ``T^T @ Y``         sum of ``T_i^T @ Y_i``
    ``crossprod(T)``    sum of ``crossprod(T_i)``
    ``crossprod(T^T)``  block grid of ``T_i T_j^T`` pair products
    ``rowSums``         concatenate; ``colSums``/``sum``: sum
    scalar ops, ``f(T)``  per piece, closed (normalized pieces stay
                          normalized)
    ``T op X``          per piece against the row slice of ``X``
    ==================  =========================================

    Listed pieces fan out through the executor; a lazy source produces one
    piece per step instead and defers scalar ops to a composed per-piece op.
    Size-of-input results (LMM outputs, element-wise results) stay
    partitioned on the same executor; small results (aggregates, Gram
    matrices) come back as ordinary in-memory matrices.
    """

    __array_ufunc__ = None
    # Above plain matrices and the normalized classes (1000), below LazyExpr
    # (2000), so mixed expressions resolve to these overloads.
    __array_priority__ = 1500

    def __init__(self, pieces: Sequence, transposed: bool = False, pool: PoolSpec = None,
                 executor: Optional[ParallelExecutor] = None):
        if isinstance(pieces, _LazyRows):
            self.source = pieces.source
            self._n_cols = int(pieces.source.shape[1])
            self.bounds: List[Tuple[int, int]] = pieces.bounds
        else:
            pieces = [ensure_2d(p) if is_matrix_like(p) else p for p in pieces]
            if not pieces:
                raise ShapeError("RowPartitioned requires at least one piece")
            widths = {p.shape[1] for p in pieces}
            if len(widths) != 1:
                raise ShapeError(
                    f"all pieces must have the same number of columns, got {sorted(widths)}"
                )
            if any(getattr(p, "transposed", False) for p in pieces):
                raise ShapeError("pieces must be untransposed; use the transposed flag")
            self.source = None
            self._n_cols = int(pieces[0].shape[1])
            self.bounds, start = [], 0
            for piece in pieces:
                self.bounds.append((start, start + piece.shape[0]))
                start += piece.shape[0]
        self.pieces = pieces
        self.transposed = bool(transposed)
        self.executor = executor if executor is not None else ParallelExecutor(
            pool, default_max_workers=len(self.bounds)
        )

    # -- construction -------------------------------------------------------

    @classmethod
    def from_matrix(cls, matrix: MatrixLike, n_shards: int, pool: PoolSpec = None
                    ) -> "RowPartitioned":
        """Partition an in-memory matrix into *n_shards* balanced row pieces."""
        matrix = ensure_2d(matrix)
        with obs.span("shard.from_matrix", n_shards=n_shards,
                      n_rows=matrix.shape[0]):
            partitioned = cls(_split_rows(matrix, shard_bounds(matrix.shape[0], n_shards)),
                              pool=pool)
        _SHARD_BUILDS.labels(kind="matrix").inc()
        return partitioned

    @classmethod
    def chunked(cls, matrix: MatrixLike, chunk_rows: int) -> "RowPartitioned":
        """ORE-style out-of-core storage: *chunk_rows*-row pieces, serial executor.

        Dense input is stored as float64 and sparse input as float64 CSR, the
        layout of the Table 9 / Table 10 scalability experiments.
        """
        if is_sparse(matrix):
            matrix = to_sparse(matrix, "csr").astype(np.float64)
        else:
            matrix = np.asarray(matrix, dtype=np.float64)
        return cls([matrix[start:stop, :] for start, stop
                    in fixed_bounds(matrix.shape[0], chunk_rows)], pool="serial")

    @classmethod
    def from_normalized(cls, source, n_shards: int, pool: PoolSpec = None
                        ) -> "RowPartitioned":
        """Shard *source* (a PK-FK or M:N normalized matrix) into row pieces.

        Row pieces of the logical ``T`` slice the entity and indicator
        matrices; the attribute matrices are shared, not copied.  Sharding a
        transposed matrix shards the rows of the *untransposed* ``T`` and
        carries the flag on the partition.
        """
        plain = source.T if source.transposed else source
        with obs.span("shard.from_normalized", n_shards=n_shards,
                      n_rows=plain.shape[0]):
            bounds = shard_bounds(plain.shape[0], n_shards)
            pieces = [_slice_piece(plain, start, stop) for start, stop in bounds]
            partitioned = cls(pieces, transposed=source.transposed, pool=pool)
        _SHARD_BUILDS.labels(kind="normalized").inc()
        return partitioned

    @classmethod
    def streamed(cls, source, batch_rows: Optional[int] = None,
                 memory_budget: Optional[float] = None) -> "RowPartitioned":
        """Lazy row-slice partition of *source* on the serial executor.

        *source* is an untransposed normalized or plain matrix.  Every
        operator slices ``batch_rows`` rows at a time (derived from
        *memory_budget* through the planner's memory model when not given)
        and holds at most one produced piece alive, so no operator
        materializes an intermediate larger than one piece.
        """
        if getattr(source, "transposed", False):
            raise NotSupportedError(
                "a streamed partition wraps an untransposed source; use its T"
            )
        batch_rows = NormalizedBatchIterator(source, batch_size=batch_rows,
                                             memory_budget=memory_budget).batch_size
        return cls(_LazyRows(source, batch_rows), pool="serial")

    def _with(self, pieces, transposed: Optional[bool] = None) -> "RowPartitioned":
        """A partition over *pieces* sharing this one's executor (and pool)."""
        return RowPartitioned(pieces,
                              transposed=self.transposed if transposed is None else transposed,
                              executor=self.executor)

    def _plain(self) -> "RowPartitioned":
        """This partition with the transpose flag cleared (shares the pieces)."""
        return self._with(self.pieces, transposed=False) if self.transposed else self

    def apply_delta(self, table_index: int, delta, policy=None) -> "RowPartitioned":
        """Streamed view over the post-delta source (see the source's method).

        Only a lazy source over a normalized matrix can take a delta; the
        batch size, the transpose flag and the deferred per-piece ops carry
        over unchanged.
        """
        if not hasattr(self.source, "apply_delta"):
            raise NotSupportedError(
                "only a streamed partition of a normalized matrix takes a delta; "
                "rebuild listed pieces from the patched matrix instead"
            )
        patched = self.source.apply_delta(table_index, delta, policy=policy)
        return self._with(_LazyRows(patched, self.pieces.batch_rows, self.pieces.steps))

    # -- per-piece dispatch ------------------------------------------------------

    def _piece(self, index: int):
        if self.source is not None:
            return self.pieces.produce(index)
        return self.pieces[index]

    def _map(self, fn: Callable, task: Optional[Callable] = None, keys=None) -> list:
        """``fn(task(key))`` for every key (default: every piece index), in order.

        ``task`` builds one work item (default: the piece itself).  Listed
        pieces fan out through the executor.  A lazy source builds each item
        -- producing its piece -- inside the step that consumes it, so at
        most one produced piece is alive at a time.
        """
        keys = range(len(self.bounds)) if keys is None else keys
        task = task or self._piece
        if self.source is not None:
            return [fn(task(key)) for key in keys]
        return self.executor.map(fn, [task(key) for key in keys])

    def _each(self, fn: Callable, *args) -> "RowPartitioned":
        """Closed per-piece op: mapped now over listed pieces, deferred on a lazy source."""
        if self.source is not None:
            return self._with(self.pieces.then(fn, *args))
        return self._with(self._map(fn, lambda i: (self.pieces[i], *args)))

    # -- shape and metadata --------------------------------------------------

    @property
    def num_pieces(self) -> int:
        return len(self.bounds)

    @property
    def logical_rows(self) -> int:
        return self.bounds[-1][1]

    @property
    def logical_cols(self) -> int:
        return self._n_cols

    @property
    def shape(self) -> tuple:
        if self.transposed:
            return (self.logical_cols, self.logical_rows)
        return (self.logical_rows, self.logical_cols)

    @property
    def ndim(self) -> int:
        return 2

    @property
    def T(self) -> "RowPartitioned":
        return self._with(self.pieces, transposed=not self.transposed)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        kind = "streamed" if self.source is not None else self.executor.pool.name
        return (f"RowPartitioned(shape={self.shape}, pieces={self.num_pieces}, "
                f"{kind}, transposed={self.transposed})")

    # -- materialization ------------------------------------------------------

    def materialize(self) -> MatrixLike:
        if self.source is None and all(is_matrix_like(p) for p in self.pieces):
            parts = self.pieces  # plain pieces: nothing to compute per piece
        else:
            parts = self._map(_shard_materialize)
        if all(is_sparse(p) for p in parts):
            matrix = sp.vstack(parts, format="csr")
        else:
            matrix = np.vstack([to_dense(p) for p in parts])
        return matrix.T if self.transposed else matrix

    def to_dense(self) -> np.ndarray:
        return to_dense(self.materialize())

    # -- element-wise operators ------------------------------------------------

    def _scalar(self, op: str, scalar: Scalar, reverse: bool) -> "RowPartitioned":
        return self._each(_shard_scalar_op, op, float(scalar), reverse)

    def apply(self, fn: Callable[[np.ndarray], np.ndarray]) -> "RowPartitioned":
        """Element-wise scalar function ``f(T)``, applied piece-wise (closed)."""
        return self._each(_shard_elementwise_fn, fn)

    def _elementwise_matrix(self, other: MatrixLike, op: str, reverse: bool
                            ) -> "RowPartitioned":
        """Non-factorizable element-wise matrix arithmetic (Section 3.3.7).

        Each piece materializes against its row slice of *other*; the
        transposed case reuses the untransposed path on ``other^T`` via
        ``(T^T op X) = (T op X^T)^T``.
        """
        other = ensure_2d(other)
        if tuple(other.shape) != self.shape:
            raise ShapeError(
                f"element-wise op: shape mismatch {self.shape} vs {tuple(other.shape)}"
            )
        if self.transposed:
            return self._plain()._elementwise_matrix(other.T, op, reverse).T
        slices = _split_rows(other, self.bounds)
        parts = self._map(_shard_elementwise_matrix,
                          lambda i: (self._piece(i), slices[i], op, reverse))
        return self._with(parts, transposed=False)

    def _binary(self, op: str, other, reverse: bool):
        if _is_scalar(other):
            return self._scalar(op, other, reverse=reverse)
        if is_matrix_like(other):
            return self._elementwise_matrix(other, op, reverse=reverse)
        return NotImplemented

    def __mul__(self, other):
        return self._binary("*", other, reverse=False)

    def __rmul__(self, other):
        return self._binary("*", other, reverse=True)

    def __add__(self, other):
        return self._binary("+", other, reverse=False)

    def __radd__(self, other):
        return self._binary("+", other, reverse=True)

    def __sub__(self, other):
        return self._binary("-", other, reverse=False)

    def __rsub__(self, other):
        return self._binary("-", other, reverse=True)

    def __truediv__(self, other):
        return self._binary("/", other, reverse=False)

    def __rtruediv__(self, other):
        return self._binary("/", other, reverse=True)

    def __pow__(self, exponent):
        if _is_scalar(exponent):
            return self._scalar("**", exponent, reverse=False)
        return NotImplemented

    def __neg__(self):
        return self._scalar("*", -1.0, reverse=False)

    # -- aggregations ----------------------------------------------------------

    def rowsums(self) -> np.ndarray:
        if self.transposed:
            return self._colsums_plain().T
        return self._rowsums_plain()

    def colsums(self) -> np.ndarray:
        if self.transposed:
            return self._rowsums_plain().T
        return self._colsums_plain()

    def _rowsums_plain(self) -> np.ndarray:
        return np.vstack(self._map(_shard_rowsums))

    def _colsums_plain(self) -> np.ndarray:
        return _sum_partials(self._map(_shard_colsums))

    def total_sum(self) -> float:
        return float(sum(self._map(_shard_total_sum)))

    def sum(self, axis: Optional[int] = None):
        if axis is None:
            return self.total_sum()
        if axis == 0:
            return self.colsums()
        if axis == 1:
            return self.rowsums()
        raise ValueError("axis must be None, 0 or 1")

    # -- multiplication ---------------------------------------------------------

    def _align_rows(self, other) -> List:
        """Row slices of *other* aligned with the pieces.

        A partition with identical bounds (``T.T @ (T @ w)`` composes an LMM
        result straight back in) contributes its pieces with no copying;
        other logical operands are concretized first.
        """
        if isinstance(other, RowPartitioned):
            if other.source is None and not other.transposed and other.bounds == self.bounds:
                return list(other.pieces)
            other = other.materialize()
        elif not is_matrix_like(other):
            other = other.to_dense()
        return _split_rows(other, self.bounds)

    def __matmul__(self, other):
        other = _operand(other)
        if other is None:
            return NotImplemented
        if self.transposed:
            # T^T X = sum_i T_i^T X_i  (X row-aligned with the pieces).
            if other.shape[0] != self.logical_rows:
                raise ShapeError(
                    f"matmul: inner dimensions do not agree {self.shape} @ {tuple(other.shape)}"
                )
            slices = self._align_rows(other)
            return _sum_partials(self._map(_shard_transpose_matmul,
                                           lambda i: (self._piece(i), slices[i])))
        if other.shape[0] != self.logical_cols:
            raise ShapeError(
                f"matmul: inner dimensions do not agree {self.shape} @ {tuple(other.shape)}"
            )
        if isinstance(other, RowPartitioned):
            other = other.materialize()
        return self._with(self._map(_shard_matmul, lambda i: (self._piece(i), other)))

    def __rmatmul__(self, other):
        other = _operand(other)
        if other is None or not is_matrix_like(other):
            return NotImplemented
        if self.transposed:
            # X T^T = (T X^T)^T: an LMM whose parts concatenate.
            if other.shape[1] != self.logical_cols:
                raise ShapeError(
                    f"matmul: inner dimensions do not agree {tuple(other.shape)} @ {self.shape}"
                )
            other_t = to_dense(other).T
            parts = self._map(_shard_matmul, lambda i: (self._piece(i), other_t))
            return np.vstack([to_dense(p) for p in parts]).T
        if other.shape[1] != self.logical_rows:
            raise ShapeError(
                f"matmul: inner dimensions do not agree {tuple(other.shape)} @ {self.shape}"
            )
        slices = _split_cols(other, self.bounds)
        return _sum_partials(self._map(_shard_rmatmul,
                                       lambda i: (self._piece(i), slices[i])))

    # -- cross-product and inversion ---------------------------------------------

    def crossprod(self, method: Optional[str] = None) -> np.ndarray:
        """``crossprod(T) = T^T T`` as a sum of per-piece Gram matrices.

        *method* selects the naive/efficient rewrite of normalized pieces and
        is ignored by plain ones.  With the transpose flag set the result is
        ``T T^T``, assembled as a block grid of pair products ``T_i T_j^T``
        (each running through the normalized double-multiply rewrites where
        available).
        """
        if self.transposed:
            # The grid is symmetric (block (j, i) = block (i, j)^T), so only
            # the upper triangle's pair products are dispatched -- k(k+1)/2
            # instead of k^2 -- and the mirror blocks are transposes.
            k = self.num_pieces
            index_pairs = [(i, j) for i in range(k) for j in range(i, k)]
            blocks = self._map(_shard_pair_outer,
                               lambda ij: (self._piece(ij[0]), self._piece(ij[1])),
                               index_pairs)
            grid: List[List] = [[None] * k for _ in range(k)]
            for (i, j), block in zip(index_pairs, blocks):
                grid[i][j] = block
                if i != j:
                    grid[j][i] = block.T
            return la_ops.block_grid(grid)
        parts = self._map(_shard_crossprod, lambda i: (self._piece(i), method))
        return _sum_partials([to_dense(p) for p in parts])

    def ginv(self) -> np.ndarray:
        """Pseudo-inverse via the exact identity ``T^+ = (T^T T)^+ T^T``.

        ``(T^T T)^+`` is a small ``d x d`` pseudo-inverse of the per-piece
        cross-product, and the trailing product is a partitioned LMM:
        ``(T^T T)^+ T^T = (T (T^T T)^+)^T`` because the Gram pseudo-inverse is
        symmetric.  ``ginv(T^T) = ginv(T)^T`` handles the transposed flag.
        """
        plain = self._plain()
        gram_inv = la_ops.ginv(plain.crossprod())
        plain_ginv = (plain @ gram_inv).to_dense().T
        return plain_ginv if not self.transposed else plain_ginv.T

    def solve(self, rhs: MatrixLike, ridge: float = 0.0) -> np.ndarray:
        """Least-squares solve via the per-piece normal equations."""
        rhs = ensure_2d(rhs)
        if rhs.shape[0] != self.shape[0]:
            raise ShapeError(
                f"solve: right-hand side has {rhs.shape[0]} rows but the matrix has {self.shape[0]}"
            )
        gram = self.crossprod()
        # With the transpose flag set, self.T @ rhs is a partitioned LMM whose
        # result stays partitioned; solve_regularized needs a plain matrix.
        projected = generic.to_dense_result(self.T @ rhs)
        return la_ops.solve_regularized(gram, projected, ridge=ridge)

    # -- lazy evaluation -----------------------------------------------------------

    def lazy(self, cache=None):
        """Lazy expression leaf over this partition.

        The lazy evaluator executes operator nodes through the operand's own
        overloads, so graphs over a partitioned leaf run piece by piece, and
        the attached :class:`~repro.core.lazy.cache.FactorizedCache` memoizes
        join-invariant nodes exactly as for the eager normalized matrices --
        memoization and partitioned execution compose.
        """
        from repro.core.lazy import lazy_view

        return lazy_view(self, cache=cache)

    def equals_materialized(self, other: MatrixLike, rtol: float = 1e-9, atol: float = 1e-9
                            ) -> bool:
        mine = self.to_dense()
        theirs = to_dense(ensure_2d(other))
        if mine.shape != theirs.shape:
            return False
        return bool(np.allclose(mine, theirs, rtol=rtol, atol=atol))


# perfbench/tracer.py imports this name and wraps its operator methods, so
# the traced benchmark keeps attributing partitioned work to core.shard.
ShardedNormalizedMatrix = RowPartitioned


def row_apply(matrix: RowPartitioned, fn: Callable[[MatrixLike], object],
              pool: PoolSpec = None) -> list:
    """Apply *fn* to every row piece of *matrix* and collect the results in order.

    This is the Python analogue of ORE's ``ore.rowapply``: the function sees
    one in-memory piece at a time and never the whole matrix.  By default the
    pieces go through the matrix's own executor (serial for the chunked
    backend and for a lazy source); passing *pool* (a spec accepted by
    :func:`repro.la.parallel.resolve_pool`) maps them through that pool
    instead.
    """
    if pool is None:
        return matrix._map(fn)
    pooled = RowPartitioned(matrix.pieces, pool=pool)
    try:
        return pooled._map(fn)
    finally:
        # Only tear down pools built here from a spec; caller-owned
        # WorkerPool instances (resolve_pool returns them as-is) stay alive.
        if pooled.executor.pool is not pool:
            pooled.executor.pool.close()
