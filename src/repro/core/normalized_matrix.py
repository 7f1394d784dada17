"""The normalized matrix for star-schema PK-FK joins.

:class:`NormalizedMatrix` is the paper's central logical data type
(Sections 3.1, 3.2 and 3.5): a triple ``(S, K, R)`` for a single PK-FK join,
generalized to ``(S, K1..Kq, R1..Rq)`` for star schemas, such that the
(virtual) join output is ``T = [S, K1 R1, ..., Kq Rq]``.

Every linear-algebra operator of Table 1 is overloaded on this class and
executes through the factorized rewrite rules in :mod:`repro.core.rewrite`,
never through the materialized ``T`` -- except for the explicitly
non-factorizable element-wise matrix arithmetic (Section 3.3.7), which
materializes on demand.  Transposition is handled with a flag, exactly as the
paper's implementation does (Section 3.2 and Appendix A), so ``TN.T`` costs
nothing and later operators dispatch on the flag.
"""

from __future__ import annotations

from typing import Callable, List, Optional, Sequence, Union

import numpy as np

from repro.exceptions import NotSupportedError, RewriteError, ShapeError
from repro.la.types import (
    MatrixLike,
    ensure_2d,
    is_matrix_like,
    normalize_row_indices,
    to_dense,
)
from repro.core.indicator import as_indicator, validate_pk_fk_indicator
from repro.core.materialize import materialize_star
from repro.core.rewrite import aggregation, crossprod as crossprod_rules
from repro.core.rewrite import inversion, multiplication, scalar_ops

Scalar = Union[int, float, np.floating, np.integer]


def _is_scalar(value: object) -> bool:
    return isinstance(value, (int, float, np.floating, np.integer)) and not isinstance(value, bool)


class NormalizedMatrix:
    """Logical matrix ``T = [S, K1 R1, ..., Kq Rq]`` stored as its base matrices.

    Parameters
    ----------
    entity:
        The entity-table feature matrix ``S`` of shape ``(n_S, d_S)``, or
        ``None`` when the entity table contributes no features (``d_S = 0``),
        as in several of the paper's real datasets.
    indicators:
        PK-FK indicator matrices ``K_i`` of shape ``(n_S, n_Ri)``, one per
        attribute table: :class:`~repro.la.indicator.CodeIndicator` code
        vectors, or sparse/dense 0/1 matrices converted to them.
    attributes:
        Attribute-table feature matrices ``R_i`` of shape ``(n_Ri, d_Ri)``.
    transposed:
        Whether this object represents ``T`` (``False``) or ``T^T`` (``True``).
    validate:
        Validate indicator structure and shape compatibility (cheap; disable
        only inside internal constructors that already validated).
    crossprod_method:
        ``"efficient"`` (Algorithm 2, default) or ``"naive"`` (Algorithm 1).
    """

    # Make NumPy defer binary operations to this class so that expressions such
    # as ``w.T @ TN`` or ``2.0 * TN`` written in ML scripts hit our overloads.
    __array_ufunc__ = None
    __array_priority__ = 1000

    #: Monotonic delta version: 0 at construction, bumped by :meth:`apply_delta`.
    version = 0

    def __init__(self, entity: Optional[MatrixLike], indicators: Sequence[MatrixLike],
                 attributes: Sequence[MatrixLike], transposed: bool = False,
                 validate: bool = True, crossprod_method: str = "efficient"):
        if len(indicators) != len(attributes):
            raise ShapeError(
                f"got {len(indicators)} indicator matrices but {len(attributes)} attribute matrices"
            )
        if not indicators and entity is None:
            raise ShapeError("a normalized matrix needs an entity matrix or at least one join")
        if crossprod_method not in ("efficient", "naive"):
            raise ValueError("crossprod_method must be 'efficient' or 'naive'")

        self.entity = ensure_2d(entity) if entity is not None else None
        self.indicators = [validate_pk_fk_indicator(k) if validate else as_indicator(k)
                           for k in indicators]
        self.attributes = [ensure_2d(r) for r in attributes]
        self.transposed = bool(transposed)
        self.crossprod_method = crossprod_method

        if validate:
            self._validate_shapes()

    # -- construction / validation -------------------------------------------

    def _validate_shapes(self) -> None:
        n_rows = None
        if self.entity is not None:
            n_rows = self.entity.shape[0]
        for i, (indicator, attribute) in enumerate(zip(self.indicators, self.attributes)):
            if n_rows is None:
                n_rows = indicator.shape[0]
            if indicator.shape[0] != n_rows:
                raise ShapeError(
                    f"indicator {i} has {indicator.shape[0]} rows, expected {n_rows}"
                )
            if indicator.shape[1] != attribute.shape[0]:
                raise ShapeError(
                    f"indicator {i} has {indicator.shape[1]} columns but attribute matrix "
                    f"{i} has {attribute.shape[0]} rows"
                )

    def _with_components(self, entity: Optional[MatrixLike], attributes: Sequence[MatrixLike],
                         transposed: Optional[bool] = None) -> "NormalizedMatrix":
        """Build a sibling normalized matrix sharing this one's indicators."""
        return NormalizedMatrix(
            entity,
            self.indicators,
            list(attributes),
            transposed=self.transposed if transposed is None else transposed,
            validate=False,
            crossprod_method=self.crossprod_method,
        )

    # -- shape and metadata ----------------------------------------------------

    @property
    def num_joins(self) -> int:
        """Number of attribute tables (``q`` in the paper)."""
        return len(self.attributes)

    @property
    def entity_width(self) -> int:
        """Number of entity-table features ``d_S``."""
        return self.entity.shape[1] if self.entity is not None else 0

    @property
    def attribute_widths(self) -> List[int]:
        """Feature counts ``d_{R_1} .. d_{R_q}`` of the attribute tables."""
        return [r.shape[1] for r in self.attributes]

    def column_segments(self) -> List["ColumnSegment"]:
        """Ordered per-table column spans of the logical ``T``.

        Returns one :class:`~repro.core.segments.ColumnSegment` for the
        entity block (named ``"entity"``; present whenever the matrix has an
        entity matrix, even with ``d_S = 0``) followed by one ``"table_i"``
        segment per attribute table.  The segments partition
        ``[0, logical_cols)`` and are what the serving subsystem uses to
        slice a trained weight vector into per-table pieces.
        """
        from repro.core.segments import build_segments

        entity_width = self.entity_width if self.entity is not None else None
        return build_segments(entity_width, self.attribute_widths, "table")

    @property
    def n_features_per_table(self) -> dict:
        """Name -> feature-count mapping of :meth:`column_segments`."""
        from repro.core.segments import segment_widths

        return segment_widths(self.column_segments())

    @property
    def logical_rows(self) -> int:
        """Number of rows of the untransposed ``T`` (``n_S``)."""
        if self.indicators:
            return self.indicators[0].shape[0]
        return self.entity.shape[0]

    @property
    def logical_cols(self) -> int:
        """Number of columns of the untransposed ``T`` (``d = d_S + sum d_Ri``)."""
        return self.entity_width + sum(self.attribute_widths)

    @property
    def shape(self) -> tuple:
        if self.transposed:
            return (self.logical_cols, self.logical_rows)
        return (self.logical_rows, self.logical_cols)

    @property
    def ndim(self) -> int:
        return 2

    @property
    def T(self) -> "NormalizedMatrix":
        """Logical transpose: flips the flag, shares all components."""
        return NormalizedMatrix(
            self.entity, self.indicators, self.attributes,
            transposed=not self.transposed, validate=False,
            crossprod_method=self.crossprod_method,
        )

    def transpose(self) -> "NormalizedMatrix":
        return self.T

    @property
    def tuple_ratio(self) -> float:
        """Average tuple ratio ``n_S / n_R`` across the joins (Section 3.4).

        A degenerate attribute table with zero rows contributes an infinite
        ratio rather than a ``ZeroDivisionError`` (mirroring
        :class:`repro.core.cost.Dimensions`), so the decision rule and the
        planner stay well-defined on empty inputs.
        """
        if not self.attributes:
            return 1.0
        ratios = [self.logical_rows / r.shape[0] if r.shape[0] else float("inf")
                  for r in self.attributes]
        return float(np.mean(ratios))

    @property
    def feature_ratio(self) -> float:
        """Feature ratio ``sum d_Ri / d_S`` (infinite when ``d_S = 0``)."""
        total_attr = sum(self.attribute_widths)
        if self.entity_width == 0:
            return float("inf") if total_attr else 0.0
        return total_attr / self.entity_width

    def redundancy_ratio(self) -> float:
        """Size of the materialized ``T`` divided by the total base-table size."""
        materialized = self.logical_rows * self.logical_cols
        base = self.logical_rows * self.entity_width + sum(
            r.shape[0] * r.shape[1] for r in self.attributes
        )
        return materialized / base if base else float("inf")

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"NormalizedMatrix(shape={self.shape}, joins={self.num_joins}, "
            f"dS={self.entity_width}, dR={self.attribute_widths}, transposed={self.transposed})"
        )

    # -- row selection -----------------------------------------------------------

    def take_rows(self, row_indices) -> "NormalizedMatrix":
        """Return a normalized matrix restricted to the given entity rows.

        Selecting rows of ``T`` only touches the entity matrix and the rows of
        each indicator matrix -- the attribute tables are shared unchanged --
        so train/test splits and mini-batch selection stay factorized.  Only
        valid on an untransposed normalized matrix (row selection on ``T^T``
        would be column selection on ``T``).
        """
        if self.transposed:
            raise NotSupportedError("take_rows is only defined for untransposed matrices")
        indices = normalize_row_indices(row_indices, self.logical_rows)
        new_entity = self.entity[indices, :] if self.entity is not None else None
        new_indicators = [k[indices] for k in self.indicators]
        return NormalizedMatrix(
            new_entity, new_indicators, self.attributes, transposed=False,
            validate=False, crossprod_method=self.crossprod_method,
        )

    # -- incremental maintenance ----------------------------------------------

    def apply_delta(self, table_index: int, delta,
                    policy=None) -> "NormalizedMatrix":
        """Successor matrix with *delta* applied to attribute table *table_index*.

        Base matrices are immutable, so a row delta produces a **new**
        normalized matrix sharing every unchanged component; the predecessor
        stays valid for in-flight readers.  The attached lazy
        :class:`~repro.core.lazy.cache.FactorizedCache` (if any) migrates to
        the successor, with each memoized join-invariant term either patched
        in place via the rank-``|Δ|`` rules of
        :mod:`repro.core.rewrite.delta` or invalidated, as the *policy* (a
        :class:`~repro.core.planner.delta_policy.DeltaPolicy`) decides.  The
        successor's :attr:`version` is the predecessor's plus one.

        Deltas that append rows are rejected (:class:`~repro.exceptions.DeltaError`)
        -- row growth changes indicator shapes and needs a rebuild.
        """
        from repro.core.delta import migrate_lazy_state

        if not 0 <= table_index < self.num_joins:
            raise IndexError(
                f"table_index {table_index} out of range for {self.num_joins} joins"
            )
        attributes = list(self.attributes)
        attributes[table_index] = delta.apply_to(attributes[table_index])
        successor = self._with_components(self.entity, attributes)
        return migrate_lazy_state(self, successor, table_index, delta, policy)

    # -- streaming mini-batch execution -------------------------------------------

    def batches(self, target=None, batch_size: Optional[int] = None,
                shuffle: bool = False, seed: Optional[int] = 0,
                memory_budget: Optional[float] = None) -> "NormalizedBatchIterator":
        """Iterate this matrix (and an aligned *target*) as factorized row batches.

        Each batch is a ``take_rows`` slice -- entity and indicators sliced,
        attribute tables shared -- so mini-batch training never materializes
        the join.  See :class:`~repro.core.stream.NormalizedBatchIterator`
        for the ``batch_size`` / ``shuffle`` / ``memory_budget`` knobs.
        """
        from repro.core.stream import NormalizedBatchIterator

        return NormalizedBatchIterator(self, target=target, batch_size=batch_size,
                                       shuffle=shuffle, seed=seed,
                                       memory_budget=memory_budget)

    def stream(self, batch_rows: Optional[int] = None,
               memory_budget: Optional[float] = None) -> "RowPartitioned":
        """Out-of-core streamed view: Table-1 operators run one row batch at a time.

        Returns a :meth:`RowPartitioned.streamed
        <repro.core.shard.RowPartitioned.streamed>` partition whose operators
        never hold more than one batch resident; pass *memory_budget* (bytes)
        to derive the batch size from the planner's memory model.
        """
        from repro.core.shard import RowPartitioned

        return RowPartitioned.streamed(self, batch_rows=batch_rows, memory_budget=memory_budget)

    # -- sharded parallel execution ----------------------------------------------

    def shard(self, n_shards: int, pool=None) -> "RowPartitioned":
        """Row-shard this matrix for parallel factorized execution.

        Returns a :class:`~repro.core.shard.RowPartitioned` whose pieces slice
        the entity and indicator matrices (the attribute matrices are shared
        by reference) and whose Table-1 operators fan out over *pool* --
        ``"serial"``, ``"thread"`` (default), ``"process"``, a worker count, a
        :class:`~repro.la.parallel.WorkerPool`, or any ``concurrent.futures``
        executor.  The shard count is clamped to the row count;
        ``n_shards=1`` executes bit-for-bit like this matrix.
        """
        from repro.core.shard import RowPartitioned

        return RowPartitioned.from_normalized(self, n_shards, pool=pool)

    # -- lazy evaluation ---------------------------------------------------------

    def lazy(self, cache=None) -> "LazyExpr":
        """Return a lazy expression leaf over this matrix (deferred evaluation).

        Operators applied to the result build a :class:`~repro.core.lazy.expr.LazyExpr`
        graph instead of executing immediately; ``.evaluate()`` runs the graph
        through the same factorized rewrites as the eager path, memoizing
        join-invariant subexpressions in a per-matrix
        :class:`~repro.core.lazy.cache.FactorizedCache` so iterative
        workloads compute them only once.  Repeated ``lazy()`` calls on the
        same object share one cache; pass *cache* to share across matrices.
        The base matrices are treated as immutable, as everywhere else.

        The cache lives as long as this matrix and may hold data-sized
        entries (e.g. the scaled copy ``2 T`` that a lazy K-Means fit
        memoizes) -- a deliberate space-time tradeoff that lets later fits
        start warm.  Call ``TN.lazy().cache.clear()`` to release the entries
        while keeping the counters.
        """
        from repro.core.lazy import lazy_view

        return lazy_view(self, cache=cache)

    # -- cost-based planning -----------------------------------------------------

    def plan(self, workload=None, planner=None):
        """Score candidate execution strategies for this matrix (cost-based).

        Returns a :class:`~repro.core.planner.plan.Plan` ranking materialized
        vs. factorized layout, eager vs. lazy engine, and serial vs. sharded
        (vs. chunked) backends for *workload* -- a
        :class:`~repro.core.planner.workload.WorkloadDescriptor`, defaulting
        to a generic single pass over the Table-1 operator mix.  Pass a
        configured :class:`~repro.core.planner.planner.Planner` to control
        calibration or the candidate space; the default planner also scores
        the chunked out-of-core backend for completeness.
        """
        from repro.core.planner import Planner

        planner = planner or Planner(include_chunked=True)
        return planner.plan(self, workload)

    # -- materialization ---------------------------------------------------------

    def materialize(self) -> MatrixLike:
        """Materialize the denormalized matrix this object represents."""
        matrix = materialize_star(self.entity, self.indicators, self.attributes)
        return matrix.T if self.transposed else matrix

    def to_dense(self) -> np.ndarray:
        return to_dense(self.materialize())

    # -- element-wise scalar operators (Section 3.3.1) ---------------------------

    def _scalar_result(self, op: str, scalar: Scalar, reverse: bool) -> "NormalizedMatrix":
        entity, attributes = scalar_ops.scalar_op_star(
            self.entity, self.attributes, op, float(scalar), reverse=reverse
        )
        return self._with_components(entity, attributes)

    def __mul__(self, other):
        if _is_scalar(other):
            return self._scalar_result("*", other, reverse=False)
        if is_matrix_like(other):
            return self._elementwise_matrix_op(other, "*", reverse=False)
        return NotImplemented

    def __rmul__(self, other):
        if _is_scalar(other):
            return self._scalar_result("*", other, reverse=True)
        if is_matrix_like(other):
            return self._elementwise_matrix_op(other, "*", reverse=True)
        return NotImplemented

    def __add__(self, other):
        if _is_scalar(other):
            return self._scalar_result("+", other, reverse=False)
        if is_matrix_like(other):
            return self._elementwise_matrix_op(other, "+", reverse=False)
        return NotImplemented

    def __radd__(self, other):
        if _is_scalar(other):
            return self._scalar_result("+", other, reverse=True)
        if is_matrix_like(other):
            return self._elementwise_matrix_op(other, "+", reverse=True)
        return NotImplemented

    def __sub__(self, other):
        if _is_scalar(other):
            return self._scalar_result("-", other, reverse=False)
        if is_matrix_like(other):
            return self._elementwise_matrix_op(other, "-", reverse=False)
        return NotImplemented

    def __rsub__(self, other):
        if _is_scalar(other):
            return self._scalar_result("-", other, reverse=True)
        if is_matrix_like(other):
            return self._elementwise_matrix_op(other, "-", reverse=True)
        return NotImplemented

    def __truediv__(self, other):
        if _is_scalar(other):
            return self._scalar_result("/", other, reverse=False)
        if is_matrix_like(other):
            return self._elementwise_matrix_op(other, "/", reverse=False)
        return NotImplemented

    def __rtruediv__(self, other):
        if _is_scalar(other):
            return self._scalar_result("/", other, reverse=True)
        if is_matrix_like(other):
            return self._elementwise_matrix_op(other, "/", reverse=True)
        return NotImplemented

    def __pow__(self, exponent):
        if _is_scalar(exponent):
            return self._scalar_result("**", exponent, reverse=False)
        return NotImplemented

    def __neg__(self):
        return self._scalar_result("*", -1.0, reverse=False)

    def apply(self, fn: Callable[[np.ndarray], np.ndarray]) -> "NormalizedMatrix":
        """Apply an element-wise scalar function ``f(T)`` (e.g. ``np.exp``)."""
        entity, attributes = scalar_ops.function_star(self.entity, self.attributes, fn)
        return self._with_components(entity, attributes)

    def exp(self) -> "NormalizedMatrix":
        """Element-wise exponential (lets ``np.exp``-style scripts stay generic)."""
        return self.apply(np.exp)

    def log(self) -> "NormalizedMatrix":
        """Element-wise natural logarithm."""
        return self.apply(np.log)

    def sqrt(self) -> "NormalizedMatrix":
        """Element-wise square root."""
        return self.apply(np.sqrt)

    def _elementwise_matrix_op(self, other: MatrixLike, op: str, reverse: bool) -> MatrixLike:
        """Non-factorizable element-wise matrix arithmetic (Section 3.3.7).

        The join introduces no exploitable redundancy into ``T (op) X`` for an
        arbitrary regular ``X``, so the paper treats these as non-factorizable;
        we materialize and delegate to the plain operator, returning a regular
        matrix.
        """
        materialized = to_dense(self.materialize())
        other_dense = to_dense(ensure_2d(other))
        if materialized.shape != other_dense.shape:
            raise ShapeError(
                f"element-wise op: shape mismatch {materialized.shape} vs {other_dense.shape}"
            )
        ops = {
            "+": np.add, "-": np.subtract, "*": np.multiply, "/": np.divide,
        }
        fn = ops[op]
        if reverse:
            return fn(other_dense, materialized)
        return fn(materialized, other_dense)

    # -- aggregation operators (Section 3.3.2) -----------------------------------

    def rowsums(self) -> np.ndarray:
        """``rowSums(T)`` -- a column vector; honours the transpose flag."""
        if self.transposed:
            return aggregation.colsums_star(self.entity, self.indicators, self.attributes).T
        return aggregation.rowsums_star(self.entity, self.indicators, self.attributes)

    def colsums(self) -> np.ndarray:
        """``colSums(T)`` -- a row vector; honours the transpose flag."""
        if self.transposed:
            return aggregation.rowsums_star(self.entity, self.indicators, self.attributes).T
        return aggregation.colsums_star(self.entity, self.indicators, self.attributes)

    def total_sum(self) -> float:
        """``sum(T)`` -- the grand total of all elements."""
        return aggregation.sum_star(self.entity, self.indicators, self.attributes)

    def sum(self, axis: Optional[int] = None):
        """NumPy-flavoured alias: ``axis=None`` grand total, ``0`` colsums, ``1`` rowsums."""
        if axis is None:
            return self.total_sum()
        if axis == 0:
            return self.colsums()
        if axis == 1:
            return self.rowsums()
        raise ValueError("axis must be None, 0 or 1")

    # -- multiplication operators (Sections 3.3.3, 3.3.4, Appendix C) ------------

    def __matmul__(self, other):
        if isinstance(other, NormalizedMatrix):
            return self._double_multiply(other)
        if not is_matrix_like(other):
            return NotImplemented
        other = ensure_2d(other)
        if self.transposed:
            # T^T X -> (X^T T)^T  (Appendix A), which is a factorized RMM.
            result = multiplication.rmm_star(
                self.entity, self.indicators, self.attributes, to_dense(other).T
            )
            return result.T
        return multiplication.lmm_star(self.entity, self.indicators, self.attributes, other)

    def __rmatmul__(self, other):
        if not is_matrix_like(other):
            return NotImplemented
        other = ensure_2d(other)
        if self.transposed:
            # X T^T -> (T X^T)^T  (Appendix A), which is a factorized LMM.
            result = multiplication.lmm_star(
                self.entity, self.indicators, self.attributes, to_dense(other).T
            )
            return result.T
        return multiplication.rmm_star(self.entity, self.indicators, self.attributes, other)

    def dot(self, other) -> MatrixLike:
        """Alias for ``self @ other`` to keep NumPy-style scripts working."""
        return self.__matmul__(other)

    def _double_multiply(self, other: "NormalizedMatrix") -> np.ndarray:
        """Double matrix multiplication ``A @ B`` with both operands normalized."""
        if self.num_joins != 1 or other.num_joins != 1 or \
                self.entity is None or other.entity is None:
            # Appendix C covers the single-join case; fall back to materializing
            # the (smaller) right operand otherwise.
            return self.__matmul__(other.materialize())
        if not self.transposed and not other.transposed:
            return multiplication.dmm_single(
                self.entity, self.indicators[0], self.attributes[0],
                other.entity, other.indicators[0], other.attributes[0],
            )
        if self.transposed and other.transposed:
            # A^T B^T = (B A)^T
            return other._double_multiply_untransposed(self).T
        if self.transposed and not other.transposed:
            return multiplication.dmm_gram_pair(
                self.entity, self.indicators[0], self.attributes[0],
                other.entity, other.indicators[0], other.attributes[0],
            )
        # not self.transposed and other.transposed
        return multiplication.dmm_outer_pair(
            self.entity, self.indicators[0], self.attributes[0],
            other.entity, other.indicators[0], other.attributes[0],
        )

    def _double_multiply_untransposed(self, other: "NormalizedMatrix") -> np.ndarray:
        """Helper computing ``self @ other`` ignoring both transpose flags."""
        plain_self = NormalizedMatrix(self.entity, self.indicators, self.attributes,
                                      transposed=False, validate=False)
        plain_other = NormalizedMatrix(other.entity, other.indicators, other.attributes,
                                       transposed=False, validate=False)
        return plain_self._double_multiply(plain_other)

    # -- cross-product and inversion (Sections 3.3.5, 3.3.6) ----------------------

    def crossprod(self, method: Optional[str] = None) -> np.ndarray:
        """``crossprod(T) = T^T T`` (or ``T T^T`` when the transpose flag is set)."""
        method = method or self.crossprod_method
        if self.transposed:
            return crossprod_rules.gram_transposed_star(
                self.entity, self.indicators, self.attributes
            )
        if method == "naive":
            return crossprod_rules.crossprod_star_naive(
                self.entity, self.indicators, self.attributes
            )
        return crossprod_rules.crossprod_star_efficient(
            self.entity, self.indicators, self.attributes
        )

    def gram(self) -> np.ndarray:
        """Alias for :meth:`crossprod`."""
        return self.crossprod()

    def ginv(self) -> np.ndarray:
        """Moore-Penrose pseudo-inverse of the (virtual) matrix (Section 3.3.6)."""
        plain = inversion.ginv_star(
            self.entity, self.indicators, self.attributes,
            materialize_fn=lambda: materialize_star(self.entity, self.indicators, self.attributes),
        )
        # ginv(T^T) == ginv(T)^T, so the transposed case reuses the same rewrite.
        return plain.T if self.transposed else plain

    def solve(self, rhs: MatrixLike, ridge: float = 0.0) -> np.ndarray:
        """Least-squares solve ``min_w ||T w - rhs||`` via the factorized normal equations.

        The paper notes (Section 3.3.6) that the rewrite rules for ``solve``
        mirror those for ``ginv``: the Gram matrix comes from the factorized
        cross-product and the right-hand side from a factorized transposed
        LMM, so nothing is ever materialized.  An optional ridge term
        regularizes ill-conditioned systems.
        """
        from repro.la.ops import solve_regularized

        rhs = ensure_2d(rhs)
        if rhs.shape[0] != self.shape[0]:
            raise ShapeError(
                f"solve: right-hand side has {rhs.shape[0]} rows but the matrix has {self.shape[0]}"
            )
        gram = self.crossprod()
        projected = self.T @ rhs
        return solve_regularized(gram, projected, ridge=ridge)

    # -- equality helpers used by tests -------------------------------------------

    def equals_materialized(self, other: MatrixLike, rtol: float = 1e-9, atol: float = 1e-9) -> bool:
        """Check that this normalized matrix materializes to *other* numerically."""
        mine = to_dense(self.materialize())
        theirs = to_dense(ensure_2d(other))
        if mine.shape != theirs.shape:
            return False
        return bool(np.allclose(mine, theirs, rtol=rtol, atol=atol))
