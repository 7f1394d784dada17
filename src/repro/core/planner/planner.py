"""The cost-based adaptive execution planner.

Where the paper stops at a static two-threshold heuristic (Section 5.1), the
repo now has a whole lattice of execution choices -- materialized vs.
factorized layout, eager vs. lazy engine, serial vs. sharded (vs. chunked)
backends, shard counts -- and the profitable corner moves with the workload.
:class:`Planner` closes that loop: it combines the paper's Table 3 / Table 11
arithmetic models (:class:`~repro.core.cost.CostModel`) with the machine
calibration constants (:mod:`repro.core.planner.calibration`) and a
:class:`~repro.core.planner.workload.WorkloadDescriptor`, scores every
candidate plan in predicted wall-clock seconds, and returns an explainable
:class:`~repro.core.planner.plan.Plan`.

The predicted cost of a candidate is a sum of four terms:

* **arithmetic** -- operator flops (standard or factorized counts) divided by
  the calibrated throughput, scaled by the shard-parallel speedup model
  ``1 + (workers - 1) * parallel_efficiency``;
* **dispatch** -- per-primitive-call overhead: factorized rewrites issue
  roughly ``2 + 2q`` dense primitive calls plus ``q`` sparse indicator
  scatters per operator (q = number of joins); the scatter pass and the block
  assembly are additionally priced per row at a calibrated rate, since
  ``K @ (R X)`` behaves nothing like a dense matmul.  Sharded execution
  multiplies every call by the shard count, chunked by the chunk count;
* **engine** -- the lazy evaluator's per-node bookkeeping (invariant
  subexpressions are priced once plus a cache-hit per iteration);
* **one-time** -- materialization of the join output when a materialized plan
  is chosen for normalized input, and shard-construction setup.

Only work that differs between candidates is priced: per-iteration
regular-matrix work common to all of them (e.g. K-Means' assignment step)
cancels in the comparison, while engine-specific regular work -- the ``d x d``
gram-vector product lazy GD performs *instead of* the hoisted data passes --
is charged via :attr:`WorkloadDescriptor.lazy_gram_applies`.
"""

from __future__ import annotations

import threading
from collections import OrderedDict
from dataclasses import dataclass
from typing import List, Optional, Sequence, Tuple

from repro import obs
from repro.exceptions import PlanningError
from repro.core.cost import CostModel, Operator
from repro.core.mn_matrix import MNNormalizedMatrix
from repro.core.normalized_matrix import NormalizedMatrix
from repro.core.planner import memory as memory_model
from repro.core.planner.calibration import CalibrationProfile, get_profile
from repro.core.planner.plan import Plan, ScoredCandidate
from repro.core.planner.workload import WorkloadDescriptor
from repro.la.types import is_sparse

#: Estimated lazy-graph nodes evaluated per Table-1 operator (leaf + op +
#: result handling); only used to price the lazy engine's bookkeeping.
_NODES_PER_OP = 3.0

#: Plans memoized per operand (see :meth:`Planner.plan`); the oldest entry is
#: evicted first once an operand holds this many.
PLAN_MEMO_SIZE = 16

#: Guards the per-operand plan memos against concurrent planners.
_MEMO_LOCK = threading.Lock()

_PLANS_TOTAL = obs.REGISTRY.counter(
    "repro_planner_plans_total",
    "Plans produced, by workload, chosen engine/backend and calibration source",
    labels=("workload", "engine", "backend", "calibration"),
)
_MEMO_TOTAL = obs.REGISTRY.counter(
    "repro_planner_memo_total",
    "Plan-memo lookups on immutable operands, by result",
    labels=("result",),
)
_CANDIDATES_SCORED = obs.REGISTRY.counter(
    "repro_planner_candidates_scored_total",
    "Candidate strategies scored across all planning calls",
    labels=("workload",),
)
_CANDIDATE_SECONDS = obs.REGISTRY.gauge(
    "repro_planner_candidate_predicted_seconds",
    "Predicted wall-clock seconds per candidate of the most recent plan",
    labels=("workload", "candidate"),
)


@dataclass(frozen=True)
class _DataProfile:
    """What the planner needs to know about the operand being planned for."""

    kind: str  # "normalized", "mn-normalized", "sharded-normalized",
    #            "sharded", "chunked" or "plain"
    model: CostModel
    sparse: bool
    n_rows: int
    n_cols: int
    num_joins: int
    can_factorize: bool         # layout is still a free choice
    fixed_factorized: bool = False  # layout is fixed *factorized* (pre-sharded)
    partitions: int = 1         # row partitions of a chunked/sharded operand
    parallel_partitions: bool = False  # partitions execute on a parallel pool
    tuple_ratio: Optional[float] = None
    feature_ratio: Optional[float] = None
    redundancy_ratio: Optional[float] = None
    #: resident bytes of the materialized / factorized representations plus
    #: the per-pass factorized working set (the planner's memory dimension;
    #: see repro.core.planner.memory).
    materialized_bytes: int = 0
    factorized_bytes: int = 0
    stream_bytes: int = 0

    @property
    def layouts(self) -> tuple:
        """The layout axis of the candidate space for this operand."""
        if self.can_factorize:
            return (True, False)
        return (True,) if self.fixed_factorized else (False,)


def describe_data(data) -> _DataProfile:
    """Build the planner's view of a data matrix of any supported family."""
    from repro.core.lazy.expr import LazyExpr, LeafExpr

    if isinstance(data, LeafExpr):
        # A lazy view (TN.lazy()): describe the wrapped operand, not the
        # graph node -- otherwise a lazy-wrapped normalized matrix would be
        # misclassified as a fixed-layout plain matrix.
        data = data.value
    elif isinstance(data, LazyExpr):
        # A composite graph only has a concrete operand family once
        # evaluated (a data-sized computation; the ML auto path evaluates
        # before planning for exactly this reason and reuses the result).
        data = data.evaluate()
    from repro.core.shard import RowPartitioned

    mem = dict(
        materialized_bytes=memory_model.materialized_nbytes(data),
        factorized_bytes=memory_model.factorized_nbytes(data),
        stream_bytes=memory_model.entity_stream_nbytes(data),
    )
    if isinstance(data, RowPartitioned):
        # A row-partitioned operand: the layout and the piece fan-out are
        # fixed, only the engine is free, priced at the operand's own
        # partition count (and pool parallelism).  Normalized pieces keep the
        # *factorized* operator costs -- they share the attribute matrices, so
        # one piece carries the per-join dimensions.  Plain pieces on the
        # serial executor are the ORE-style chunked backend, on a parallel
        # pool the sharded one.
        pieces = memory_model.resident_pieces(data)
        piece = pieces[0]
        n_rows, n_cols = data.logical_rows, data.logical_cols
        parallel = data.executor.pool.name != "serial"
        common = dict(n_rows=n_rows, n_cols=n_cols, can_factorize=False,
                      partitions=data.num_pieces, parallel_partitions=parallel, **mem)
        if isinstance(piece, (NormalizedMatrix, MNNormalizedMatrix)):
            d_s = piece.entity_width if isinstance(piece, NormalizedMatrix) else 0
            attribute_dims = [(r.shape[0], r.shape[1]) for r in piece.attributes]
            bases = list(piece.attributes)
            if isinstance(piece, NormalizedMatrix) and piece.entity is not None:
                bases.append(piece.entity)
            return _DataProfile(
                kind="sharded-normalized", model=CostModel(n_rows, d_s, attribute_dims),
                sparse=any(is_sparse(b) for b in bases), num_joins=len(attribute_dims),
                fixed_factorized=True, **common,
            )
        return _DataProfile(
            kind="sharded" if parallel else "chunked", model=CostModel(n_rows, n_cols, []),
            sparse=any(is_sparse(p) for p in pieces), num_joins=0, **common,
        )
    if isinstance(data, NormalizedMatrix):
        plain = data.T if data.transposed else data
        attribute_dims = [(r.shape[0], r.shape[1]) for r in plain.attributes]
        model = CostModel(plain.logical_rows, plain.entity_width, attribute_dims)
        bases = ([plain.entity] if plain.entity is not None else []) + list(plain.attributes)
        return _DataProfile(
            kind="normalized", model=model,
            sparse=any(is_sparse(b) for b in bases),
            n_rows=plain.logical_rows, n_cols=plain.logical_cols,
            num_joins=plain.num_joins, can_factorize=True,
            tuple_ratio=plain.tuple_ratio, feature_ratio=plain.feature_ratio,
            redundancy_ratio=plain.redundancy_ratio(), **mem,
        )
    if isinstance(data, MNNormalizedMatrix):
        plain = data.T if data.transposed else data
        attribute_dims = [(r.shape[0], r.shape[1]) for r in plain.attributes]
        model = CostModel(plain.logical_rows, 0, attribute_dims)
        return _DataProfile(
            kind="mn-normalized", model=model,
            sparse=any(is_sparse(r) for r in plain.attributes),
            n_rows=plain.logical_rows, n_cols=plain.logical_cols,
            num_joins=plain.num_components, can_factorize=True,
            redundancy_ratio=plain.redundancy_ratio(), **mem,
        )
    # Plain dense/sparse operands: the layout is fixed, only the engine and
    # the shard count remain to be chosen.
    n_rows, n_cols = int(data.shape[0]), int(data.shape[1])
    return _DataProfile(
        kind="plain", model=CostModel(n_rows, n_cols, []),
        sparse=is_sparse(data), n_rows=n_rows, n_cols=n_cols,
        num_joins=0, can_factorize=False, **mem,
    )


def _copy_summary(summary: dict) -> dict:
    """A private copy of a memoized data summary.

    Its values are scalars, tuples and one dict (``fused_kernels``), which is
    copied too.
    """
    copied = dict(summary)
    for name, value in summary.items():
        if isinstance(value, dict):
            copied[name] = dict(value)
    return copied


class Planner:
    """Scores candidate execution plans and returns the cheapest as a :class:`Plan`.

    Parameters
    ----------
    calibration:
        A :class:`CalibrationProfile`; defaults to :func:`get_profile` (disk
        cache or one-time probe, ``REPRO_CALIBRATION=default`` for constants).
    shard_candidates:
        Shard counts to consider beyond serial execution.  Defaults to
        ``(2, 4, cpu_count)`` filtered to the machine.
    include_chunked:
        Also score the out-of-core chunked backend (off by default: the ML
        ``engine="auto"`` surface cannot dispatch to it, but
        ``NormalizedMatrix.plan()`` reports it for completeness).
    chunk_rows:
        Chunk size used when pricing chunked candidates.
    include_fused:
        Also score a serial factorized candidate executed through the
        compiled fused kernel set (:mod:`repro.la.kernels`).  ``None`` (the
        default) resolves to whether the compiled set is importable -- the
        ``[kernels]`` extra -- so plans never recommend a backend the process
        cannot run.  The NumPy kernel set serves every rewrite regardless;
        the ``fused`` candidate exists to price compiled execution against
        the primitive-chain candidates.
    charge_materialization:
        Whether a materialized plan for normalized input pays the one-time
        join-materialization cost (the honest cold-start default).  The ML
        ``engine="auto"`` path disables it: the estimators memoize the
        materialized view per data matrix, so across repeated fits the
        conversion is a one-time setup (like the calibration probe itself)
        and the plan should optimize the steady state.
    memory_budget:
        Optional per-pass working-set budget in bytes -- the planner's memory
        dimension (see :mod:`repro.core.planner.memory`).  The budget bounds
        what one data pass streams through beyond the always-resident
        attribute tables: candidates whose working set exceeds it (a
        materialized/chunked plan whose dense join output does not fit, a
        full-pass factorized plan whose entity + indicator matrices do not
        fit) are infeasible and dropped, and a ``"streamed"`` candidate --
        mini-batch execution through
        :class:`~repro.core.stream.NormalizedBatchIterator` at the batch size
        :func:`~repro.core.planner.memory.batch_rows_for_budget` derives from
        the budget -- is scored instead.  When the materialized footprint
        exceeds the budget the streamed (or full-pass factorized) plan is all
        that remains, which is how ``engine="auto"`` routes larger-than-budget
        fits to the estimators' mini-batch paths.
    """

    def __init__(self, calibration: Optional[CalibrationProfile] = None,
                 shard_candidates: Optional[Sequence[int]] = None,
                 include_chunked: bool = False, chunk_rows: int = 4096,
                 include_fused: Optional[bool] = None,
                 charge_materialization: bool = True,
                 memory_budget: Optional[float] = None):
        from repro.la import kernels

        self.calibration = calibration
        self.include_chunked = bool(include_chunked)
        self.include_fused = (kernels.compiled_available() if include_fused is None
                              else bool(include_fused))
        self.chunk_rows = int(chunk_rows)
        self.charge_materialization = bool(charge_materialization)
        if memory_budget is not None and memory_budget <= 0:
            raise ValueError("memory_budget must be positive (bytes)")
        self.memory_budget = None if memory_budget is None else float(memory_budget)
        from repro.la.parallel import default_workers

        #: Worker count the parallel speedup model prices shards against.
        self._workers = default_workers()
        if shard_candidates is None:
            cores = self._workers
            shard_candidates = sorted({n for n in (2, 4, cores) if 1 < n <= cores})
        self.shard_candidates = tuple(int(n) for n in shard_candidates)

    # -- public API -----------------------------------------------------------

    def plan(self, data, workload: Optional[WorkloadDescriptor] = None,
             n_shards: Optional[int] = None) -> Plan:
        """Score all candidates for *data* under *workload* and rank them.

        ``n_shards`` restricts the shard axis to one explicit value (the ML
        estimators pass a user-supplied ``n_jobs`` through here, leaving the
        planner to choose only the layout and the engine).

        Plans for the library's immutable operands -- normalized, M:N
        normalized and row-partitioned matrices, or lazy views of them -- are
        memoized on the operand under every other input of the scoring (see
        :meth:`_memo_slot`), so repeated fits on one matrix score the
        candidates once.  Each call still returns its own :class:`Plan`, with
        a fresh ``outcome`` slot and a private ``data_summary``.
        """
        workload = workload or WorkloadDescriptor.generic()
        with obs.span("planner.plan", workload=workload.name):
            profile = self.calibration or get_profile()
            memo, key = self._memo_slot(data, profile, workload, n_shards)
            entry = None
            if memo is not None:
                with _MEMO_LOCK:
                    entry = memo.get(key)
                if obs.enabled():
                    _MEMO_TOTAL.labels(result="miss" if entry is None else "hit").inc()
            if entry is None:
                entry = self._score_operand(data, workload, profile, n_shards)
                if memo is not None:
                    with _MEMO_LOCK:
                        memo[key] = entry
                        while len(memo) > PLAN_MEMO_SIZE:
                            memo.popitem(last=False)
            candidates, summary, threshold_choice = entry
            plan = Plan(
                candidates=candidates,
                workload=workload,
                data_summary=_copy_summary(summary),
                calibration=profile,
                threshold_rule_choice=threshold_choice,
            )
            if obs.enabled():
                self._record_plan_metrics(plan)
        return plan

    def _score_operand(self, data, workload: WorkloadDescriptor,
                       profile: CalibrationProfile, n_shards: Optional[int]) -> tuple:
        """``(ranked candidates, data summary, threshold choice)`` for one operand."""
        data_profile = describe_data(data)
        candidates = self._score_all(data_profile, workload, profile, n_shards)
        summary = self._summary(data_profile)
        return tuple(candidates), summary, self._threshold_choice(data_profile)

    def _memo_slot(self, data, profile: CalibrationProfile,
                   workload: WorkloadDescriptor, n_shards: Optional[int]):
        """The operand's plan memo and this call's key, or ``(None, None)``.

        Only normalized, M:N normalized and row-partitioned operands carry a
        memo: they are immutable, and ``apply_delta`` returns a successor
        that starts without one.  Plain ndarray and scipy operands may be
        written in place and cannot hold attributes, so they are re-planned
        on every call.  The key is everything besides the operand that
        reaches the scoring: this planner's settings, the calibration profile
        and the workload (both compared by value), the pinned shard count,
        the kernel availability :meth:`_summary` reports and the worker count
        the parallel speedup model reads.  Cache warmth is not in the key
        because the cost model does not read it; a cache-aware cost model
        must add it.
        """
        from repro.core.lazy.expr import LeafExpr
        from repro.core.shard import RowPartitioned
        from repro.la import kernels

        operand = data.value if isinstance(data, LeafExpr) else data
        if not isinstance(operand, (NormalizedMatrix, MNNormalizedMatrix, RowPartitioned)):
            return None, None
        key = (self.include_chunked, self.chunk_rows, self.include_fused,
               self.charge_materialization, self.memory_budget, self.shard_candidates,
               profile, workload, n_shards, kernels.compiled_available(),
               kernels.best_available(), self._workers)
        try:
            hash(key)
        except TypeError:  # a hand-built workload with unhashable fields
            return None, None
        with _MEMO_LOCK:
            memo = getattr(operand, "_plan_memo", None)
            if memo is None:
                memo = OrderedDict()
                try:
                    operand._plan_memo = memo
                except AttributeError:  # pragma: no cover - exotic operand types
                    return None, None
        return memo, key

    @staticmethod
    def _record_plan_metrics(plan: Plan) -> None:
        """Publish the chosen plan and its candidate scores to the registry."""
        chosen = plan.chosen
        workload = plan.workload.name
        # Label values go positionally (in each family's label order): this
        # runs once per fit, memoized plans included.
        _PLANS_TOTAL.labels(workload, chosen.engine, chosen.backend,
                            plan.calibration.source).inc()
        _CANDIDATES_SCORED.labels(workload).inc(len(plan.candidates))
        for candidate in plan.candidates:
            _CANDIDATE_SECONDS.labels(workload, candidate.label).set(
                candidate.predicted_seconds)
        obs.annotate(
            chosen=chosen.label,
            predicted_seconds=chosen.predicted_seconds,
            candidates=len(plan.candidates),
            calibration=plan.calibration.source,
        )

    # -- candidate enumeration and scoring ------------------------------------

    def _score_all(self, dp: _DataProfile, workload: WorkloadDescriptor,
                   profile: CalibrationProfile, n_shards: Optional[int]
                   ) -> List[ScoredCandidate]:
        layouts = dp.layouts
        if n_shards is not None and n_shards > 1:
            # Clamp like the shard views themselves do: a 3-row matrix never
            # has more than 3 non-empty shards, whatever n_jobs says.
            shard_axis: Tuple[int, ...] = (max(1, min(int(n_shards), dp.n_rows)),)
        elif n_shards is not None:
            shard_axis = (1,)
        else:
            shard_axis = (1,) + tuple(n for n in self.shard_candidates if n <= dp.n_rows)
        if dp.kind == "chunked":
            shard_axis = (1,)  # chunked operands cannot be re-sharded
        elif dp.kind in ("sharded-normalized", "sharded"):
            # The operand's shard fan-out is fixed by the user; price (and
            # report) every candidate at that fan-out.
            shard_axis = (dp.partitions,)
        serial_backend = "chunked" if dp.kind == "chunked" else (
            "sparse" if dp.sparse else "dense")

        candidates = []
        for factorized in layouts:
            for engine in ("eager", "lazy"):
                for shards in shard_axis:
                    backend = serial_backend if shards == 1 else "sharded"
                    candidates.append(self._score(
                        dp, workload, profile, factorized, engine, backend, shards))
                if self.include_chunked and dp.kind != "chunked" \
                        and (n_shards is None or n_shards == 1):
                    candidates.append(self._score(
                        dp, workload, profile, factorized, engine, "chunked", 1))
            # Fused candidate: serial factorized execution through the
            # compiled kernel set.  Only meaningful where the kernels apply
            # (factorized layout over at least one join) and only scored when
            # the compiled set can actually run (see include_fused).
            if self.include_fused and factorized and dp.num_joins \
                    and dp.kind in ("normalized", "mn-normalized") \
                    and (n_shards is None or n_shards == 1):
                candidates.append(self._score(
                    dp, workload, profile, True, "eager", "fused", 1))

        # Memory dimension: drop candidates whose resident footprint exceeds
        # the budget and add the streamed (mini-batch) candidate for
        # factorized-capable operands.  The streamed candidate is always
        # feasible by construction -- its batch size is derived from the same
        # budget -- so a larger-than-budget matrix still gets a plan.
        if self.memory_budget is not None:
            feasible = [c for c in candidates if self._fits_budget(dp, c)]
            streamed = []
            if dp.kind in ("normalized", "mn-normalized", "plain"):
                # Streamed mini-batch execution: the per-pass working set is
                # one batch's slice, so it is feasible under any budget.  The
                # layout follows the operand (factorized batches for
                # normalized input, row slices for plain input); chunked and
                # pre-sharded operands have no row-selection surface.
                batch_rows = memory_model.batch_rows_for_dims(
                    dp.n_rows, dp.n_cols, dp.num_joins, self.memory_budget)
                streamed.append(self._score(
                    dp, workload, profile, dp.can_factorize, "eager", "streamed", 1,
                    batch_rows=batch_rows))
            candidates = feasible + streamed
            if not candidates:
                raise PlanningError(
                    f"no execution plan fits the memory budget "
                    f"({self.memory_budget:.0f} bytes): materialized passes need "
                    f"{dp.materialized_bytes} bytes, factorized passes need "
                    f"{dp.stream_bytes} bytes, and a "
                    f"{dp.kind} operand cannot be streamed"
                )

        # On exact cost ties prefer: fewer shards, the eager engine, the
        # input's own layout (no conversion risk), and the simplest backend
        # family (in-memory serial before sharded before out-of-core chunked
        # -- never recommend wrapping a small matrix in the chunked backend
        # for a tie's worth of benefit).
        backend_rank = {"dense": 0, "sparse": 0, "fused": 1, "sharded": 1,
                        "streamed": 2, "chunked": 3}
        input_factorized = dp.can_factorize or dp.fixed_factorized

        def sort_key(c: ScoredCandidate):
            return (
                c.predicted_seconds,
                c.n_shards,
                0 if c.engine == "eager" else 1,
                0 if c.factorized == input_factorized else 1,
                backend_rank.get(c.backend, 3),
            )

        candidates.sort(key=sort_key)
        return candidates

    def _fits_budget(self, dp: _DataProfile, candidate: ScoredCandidate) -> bool:
        """Whether a candidate's per-pass working set fits the memory budget.

        The budget bounds what one data pass streams through *beyond the
        always-resident attribute tables*: a materialized pass touches the
        dense ``n_S x d`` join output (the repo's chunked backend holds its
        row chunks in memory, so it is *not* an escape hatch from the budget),
        a factorized pass touches the entity and indicator matrices, and the
        streamed backend touches one mini-batch slice at a time -- which is
        why it is the fallback that always fits.
        """
        budget = self.memory_budget
        if budget is None:
            return True
        footprint = dp.stream_bytes if candidate.factorized else dp.materialized_bytes
        return footprint <= budget

    def _score(self, dp: _DataProfile, workload: WorkloadDescriptor,
               profile: CalibrationProfile, factorized: bool, engine: str,
               backend: str, shards: int,
               batch_rows: Optional[int] = None) -> ScoredCandidate:
        uses = workload.uses_for_engine(engine)
        iterations = workload.iterations

        # Arithmetic: Table 3 / Table 11 counts over the calibrated throughput,
        # plus the row-wise overhead passes factorized execution performs on
        # top of the base-matrix products: the indicator scatters (K @ (R X))
        # and the block assembly of the partial results -- about (q + 1)
        # extra n_S-row touches per operator (validated against the measured
        # sweep grid), priced at the calibrated scatter rate.  This term is
        # what makes high-TR / low-FR schemas (big n_S, little arithmetic
        # saved) correctly favour the materialized plan even though the raw
        # flop counts say otherwise.
        flops = 0.0
        total_ops = 0.0
        overhead_rows = 0.0
        scatter_calls = 0.0
        for use in uses:
            count = workload.total_count(use)
            cost = dp.model.cost(use.operator, use.x_cols)
            flops += count * (cost.factorized if factorized else cost.standard)
            total_ops += count
            if factorized and dp.num_joins:
                width = use.x_cols if use.operator in (Operator.LMM, Operator.RMM) else 1
                overhead_rows += count * (dp.num_joins + 1) * dp.n_rows * width
                scatter_calls += count * dp.num_joins
        throughput = profile.sparse_flops if dp.sparse else profile.dense_flops
        # The fused kernels replace the per-row indicator scatter passes
        # (K @ (R X) + block assembly) with one gather loop over memoized
        # codes, so their overhead runs at the calibrated fused gather rate
        # instead of the primitive-chain scatter rate.
        overhead_rate = (profile.fused_gather_rows if backend == "fused"
                         else profile.indicator_flops)
        speedup = 1.0
        fixed_partitioning = dp.kind in ("sharded-normalized", "sharded")
        if shards > 1 and (not fixed_partitioning or dp.parallel_partitions):
            workers = min(shards, self._workers)
            speedup = 1.0 + (workers - 1) * profile.parallel_efficiency
        # The scatter/assembly passes fan out across shards exactly like the
        # base-matrix products, so both terms share the parallel speedup.
        arithmetic_s = (flops / throughput + overhead_rows / overhead_rate) / speedup
        if engine == "lazy" and workload.lazy_gram_applies:
            # Per-iteration gram-vector products of the hoisted lazy form
            # (e.g. lazy GD's ``gram @ w``): regular d x d arithmetic that the
            # eager candidates do NOT perform, so it cannot cancel and must be
            # priced -- it is what caps lazy's win on wide matrices.
            arithmetic_s += (iterations * workload.lazy_gram_applies
                             * float(dp.n_cols) ** 2 / profile.dense_flops)

        # Dispatch: primitive calls per operator, multiplied by the fan-out.
        # A factorized operator issues ~2 dense calls plus, per join, two
        # small base-matrix calls and one sparse indicator scatter.  The
        # fused backend collapses each join's primitive chain into a single
        # kernel dispatch over the indicator codes, so it pays one call
        # per join (plus the entity term) and no sparse scatter calls.
        if backend == "fused":
            calls_per_op = 1.0 + float(dp.num_joins)
            scatter_calls = 0.0
        else:
            calls_per_op = (2.0 + 2.0 * max(dp.num_joins, 1)) if factorized else 1.0
        fanout = float(shards)
        if backend == "streamed":
            # Every operator is executed once per mini-batch.
            fanout = float(max(
                memory_model.streamed_batch_count(dp.n_rows, batch_rows or dp.n_rows), 1))
        if backend == "chunked":
            if dp.kind == "chunked":  # a real chunked operand: its own fan-out
                fanout = float(dp.partitions)
            else:  # hypothetical chunked candidate for in-memory input
                from repro.core.shard import fixed_bounds

                fanout = float(len(fixed_bounds(dp.n_rows, self.chunk_rows)))
        dispatch_s = total_ops * calls_per_op * fanout * profile.dispatch_overhead_s
        dispatch_s += scatter_calls * fanout * profile.sparse_dispatch_overhead_s
        if shards > 1:
            dispatch_s += total_ops * shards * profile.shard_overhead_s
        if backend == "streamed":
            # Cutting a factorized batch slices the entity plus each indicator
            # matrix once per batch per pass -- priced at the sparse dispatch
            # rate like any other indicator touch.
            dispatch_s += (fanout * workload.iterations * (dp.num_joins + 1)
                           * profile.sparse_dispatch_overhead_s)

        # Engine: lazy bookkeeping.  Per-iteration nodes are re-evaluated each
        # pass; invariant nodes (per_iteration=False) are built once and then
        # touched as one cache hit per later iteration -- either way every op
        # node costs one graph traversal per iteration.
        engine_s = 0.0
        if engine == "lazy":
            evaluations = sum(use.count for use in uses) * iterations
            engine_s = evaluations * _NODES_PER_OP * profile.lazy_node_overhead_s

        # One-time costs: materializing the join output, shard construction.
        one_time_s = 0.0
        if dp.can_factorize and not factorized and self.charge_materialization:
            one_time_s += dp.n_rows * dp.n_cols / profile.materialize_bandwidth
        if shards > 1:
            one_time_s += shards * profile.shard_overhead_s

        breakdown = {
            "arithmetic": arithmetic_s,
            "dispatch": dispatch_s,
            "engine": engine_s,
            "one-time": one_time_s,
        }
        return ScoredCandidate(
            factorized=factorized, engine=engine, backend=backend, n_shards=shards,
            predicted_seconds=sum(breakdown.values()), breakdown=breakdown,
            batch_rows=batch_rows,
        )

    # -- reporting helpers -----------------------------------------------------

    def _summary(self, dp: _DataProfile) -> dict:
        from repro.la import kernels

        summary = {
            "kind": dp.kind,
            "shape": (dp.n_rows, dp.n_cols),
            "sparse": dp.sparse,
            "num_joins": dp.num_joins,
            "materialized_bytes": dp.materialized_bytes,
            "factorized_bytes": dp.factorized_bytes,
            "fused_kernels": {
                "compiled": kernels.compiled_available(),
                "kernel_set": kernels.best_available(),
                "considered": self.include_fused,
            },
        }
        if self.memory_budget is not None:
            summary["memory_budget"] = self.memory_budget
        if dp.tuple_ratio is not None:
            summary["tuple_ratio"] = dp.tuple_ratio
            summary["feature_ratio"] = dp.feature_ratio
        if dp.redundancy_ratio is not None:
            summary["redundancy_ratio"] = dp.redundancy_ratio
        return summary

    @staticmethod
    def _threshold_choice(dp: _DataProfile) -> Optional[str]:
        if dp.kind == "normalized":
            from repro.core.decision import DecisionRule

            rule = DecisionRule()
            return ("factorize" if rule.predict(dp.tuple_ratio, dp.feature_ratio)
                    else "materialize")
        if dp.kind == "mn-normalized":
            return "factorize" if (dp.redundancy_ratio or 0.0) >= 1.5 else "materialize"
        return None
