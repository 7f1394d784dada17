"""The benchmark's workloads: seeded inputs, program set-up, operations, checks.

Every workload is a closed loop driven by one client thread through the
program's public API.  The benchmark owns its inputs: a seeded NumPy
generator builds raw entity and attribute columns, and the program receives
them only as :class:`repro.relational.Table` objects joined by
:func:`repro.relational.normalized_from_tables` -- never through
``repro.datasets``, so an edit there cannot change a workload.

A workload object exposes five steps, which the runner sequences and times:

* ``setup()`` -- program set-up (tables, join, normalized matrix, scorer,
  warm-up).  Timed as ``setup_s``; input generation happens before it, in
  ``__init__``, and is not timed.
* ``prepare()`` -- build the next operation's arguments (delta rows, request
  rows).  Never timed.
* ``execute(op)`` -- the operation itself.  The only timed call.
* ``observe(op, output)`` -- untimed bookkeeping and sampled correctness
  checks; returns False when a sampled output is wrong.
* ``final_check()`` -- checks that need a dense reference, run after peak
  memory has been read; returns the number of operations found wrong.

``kind_latencies(loop)`` gives the report its latencies per operation kind;
the serving workload adds those of the single requests inside its rounds.
"""

from __future__ import annotations

import collections
import time
from dataclasses import dataclass
from typing import Dict, List, Optional, Tuple

import numpy as np

from repro import LinearRegressionGD, LinearRegressionNE, LogisticRegressionGD
from repro.core.delta import MatrixDelta
from repro.ml import ServingExport
from repro.relational import Table, normalized_from_tables
from repro.serve import FactorizedScorer, ScoringService
from repro.serve.snapshot import compute_partial
from repro.serve.topk import full_scan_top_k

#: Workload sizes.  ``full`` is what the benchmark command runs; ``tiny``
#: keeps the same shape of every workload at a size the self-tests can run
#: in well under a second per workload.
SIZES: Dict[str, Dict[str, dict]] = {
    "full": {
        # TR = 20 and 40, FR = (80 + 40) / 20 = 6: the most redundant
        # corner of the paper's Fig. 5 grid.
        "retrain": dict(n_s=200_000, d_s=20, r1=(10_000, 80), r2=(5_000, 40),
                        delta_frac=0.01, iters=10, sgd_batch=2048),
        # TR = 10, FR = 2, 60 columns.
        "auto_sweep": dict(n_s=20_000, d_s=20, r=(2_000, 40), iters=10),
        "serve_mixed": dict(n_s=200_000, d_s=4, a=(100_000, 50), b=(256, 40),
                            delta_frac=0.01, batch=256, k=100,
                            check_every=dict(point=8, batch=1, topk=8)),
    },
    "tiny": {
        "retrain": dict(n_s=2_000, d_s=4, r1=(100, 8), r2=(50, 4),
                        delta_frac=0.05, iters=3, sgd_batch=256),
        "auto_sweep": dict(n_s=1_000, d_s=4, r=(100, 8), iters=3),
        "serve_mixed": dict(n_s=4_096, d_s=4, a=(1_000, 8), b=(32, 6),
                            delta_frac=0.01, batch=64, k=10,
                            check_every=dict(point=1, batch=1, topk=1)),
    },
}

#: Relative tolerance for coefficients fitted over the normalized matrix
#: against the same estimator on the materialized matrix.  The two paths sum
#: in different orders (and the lazy engine uses the normal-equation form of
#: the gradient), so they agree to rounding, not bit for bit.
COEF_RTOL = 1e-6
#: Relative and absolute tolerance for scores against ``T[i] @ w``.
SCORE_TOL = 1e-9


def _close(value: np.ndarray, reference: np.ndarray, rtol: float) -> bool:
    value = np.asarray(value, dtype=np.float64)
    reference = np.asarray(reference, dtype=np.float64)
    if value.shape != reference.shape or not np.all(np.isfinite(value)):
        return False
    scale = max(float(np.linalg.norm(reference)), 1e-300)
    return float(np.linalg.norm(value - reference)) <= rtol * scale


def _covering_codes(rng: np.random.Generator, n_rows: int, n_keys: int) -> np.ndarray:
    """Foreign-key codes that reference every attribute row at least once."""
    codes = np.concatenate([rng.permutation(n_keys),
                            rng.integers(0, n_keys, n_rows - n_keys)])
    return rng.permutation(codes)


def _primary_keys(rng: np.random.Generator, n_keys: int) -> np.ndarray:
    """Distinct, unordered primary-key values, so the join really looks keys up."""
    return rng.permutation(n_keys).astype(np.int64) * 7 + 1_000_003


def _feature_columns(prefix: str, matrix: np.ndarray) -> Dict[str, np.ndarray]:
    return {f"{prefix}{j}": np.ascontiguousarray(matrix[:, j])
            for j in range(matrix.shape[1])}


@dataclass
class Op:
    """One prepared operation: its kind, its arguments and its index in the run."""

    kind: str
    index: int
    args: tuple = ()


class Workload:
    """Shared plumbing: the op counter and the sampled-check tallies."""

    name = ""

    def __init__(self, seed: int, size: str = "full"):
        self.seed = int(seed)
        self.params = SIZES[size][self.name]
        self.ops_prepared = 0
        self.checks = collections.Counter()
        #: measured / predicted seconds of each engine="auto" fit's plan.
        self.residual_ratios: List[float] = []

    def close(self) -> None:
        """Release program resources (background workers)."""

    def counters(self) -> Dict[str, float]:
        """Cumulative program counters read through the public API."""
        return {}

    def config(self) -> Dict[str, object]:
        """Run facts the report records (plan labels and the like)."""
        return {}

    def kind_latencies(self, loop) -> Dict[str, List[int]]:
        """Latencies (ns) per kind for the report, from the untimed *loop*."""
        return {kind: list(values) for kind, values in loop.latencies.items()}


# ---------------------------------------------------------------------------
# retrain: delta + five fits per round on a redundant star schema
# ---------------------------------------------------------------------------

class Retrain(Workload):
    """One round = a 1% upsert on R1, then lazy GD, NE, eager and sharded
    logistic GD, and one shuffled mini-batch SGD epoch."""

    name = "retrain"

    def __init__(self, seed: int, size: str = "full"):
        super().__init__(seed, size)
        p = self.params
        rng = np.random.default_rng([self.seed, 1])
        n, ds = p["n_s"], p["d_s"]
        (n1, d1), (n2, d2) = p["r1"], p["r2"]
        entity = rng.standard_normal((n, ds))
        r1 = rng.standard_normal((n1, d1))
        r2 = rng.standard_normal((n2, d2))
        codes1 = _covering_codes(rng, n, n1)
        codes2 = _covering_codes(rng, n, n2)
        pk1, pk2 = _primary_keys(rng, n1), _primary_keys(rng, n2)
        weights = rng.standard_normal(ds + d1 + d2)
        y = (entity @ weights[:ds] + (r1 @ weights[ds:ds + d1])[codes1]
             + (r2 @ weights[ds + d1:])[codes2] + rng.standard_normal(n))
        label = np.where(y > np.median(y), 1.0, -1.0)
        s_cols, a_cols, b_cols = (_feature_columns("s", entity),
                                  _feature_columns("a", r1), _feature_columns("b", r2))
        self._columns = dict(
            entity={"sid": np.arange(n, dtype=np.int64), "fk1": pk1[codes1],
                    "fk2": pk2[codes2], "y": y, "label": label, **s_cols},
            r1={"r1_id": pk1, **a_cols},
            r2={"r2_id": pk2, **b_cols},
        )
        self._names = (list(s_cols), list(a_cols), list(b_cols))
        # Step sizes well inside the stability limit of 10 GD iterations
        # (the Gram matrix's top eigenvalue is about n * d).
        d = ds + d1 + d2
        self.linear_step = 0.1 / (n * d)
        self.logistic_step = 1.0 / (n * d)
        self.sgd_step = 1.0 / (p["sgd_batch"] * d)
        self._delta_rng = np.random.default_rng([self.seed, 2])
        self.matrix = None
        self.checked: Dict[str, tuple] = {}

    def setup(self) -> Dict[str, float]:
        self.matrix = None
        started = time.perf_counter()
        cols = self._columns
        entity = Table("S", cols["entity"])
        r1 = Table("R1", cols["r1"])
        r2 = Table("R2", cols["r2"])
        s_names, a_names, b_names = self._names
        dataset = normalized_from_tables(
            entity, [("fk1", r1, "r1_id", a_names), ("fk2", r2, "r2_id", b_names)],
            entity_features=s_names, target_column="y", sparse=False)
        relational_s = time.perf_counter() - started
        self.matrix = dataset.matrix
        self.y = dataset.target
        self.labels = entity.column("label").astype(np.float64).reshape(-1, 1)
        # Warm-up: one round of fits without a delta (fills the lazy cache,
        # the shard view and the indicator codes).
        self._fits(self.matrix, round_seed=0)
        return {"relational_s": relational_s}

    def _fits(self, matrix, round_seed: int) -> List[object]:
        p = self.params
        return [
            LinearRegressionGD(max_iter=p["iters"], step_size=self.linear_step,
                               engine="lazy").fit(matrix, self.y),
            LinearRegressionNE().fit(matrix, self.y),
            LogisticRegressionGD(max_iter=p["iters"],
                                 step_size=self.logistic_step).fit(matrix, self.labels),
            LogisticRegressionGD(max_iter=p["iters"], step_size=self.logistic_step,
                                 n_jobs=2).fit(matrix, self.labels),
            LogisticRegressionGD(max_iter=1, step_size=self.sgd_step, solver="sgd",
                                 batch_size=p["sgd_batch"], shuffle=True,
                                 seed=round_seed).fit(matrix, self.labels),
        ]

    def prepare(self) -> Op:
        index = self.ops_prepared
        self.ops_prepared += 1
        current = self.matrix.attributes[0]
        n1, d1 = current.shape
        rows = np.sort(self._delta_rng.choice(
            n1, max(1, int(round(self.params["delta_frac"] * n1))), replace=False))
        new = self._delta_rng.standard_normal((rows.size, d1))
        delta = MatrixDelta.upsert(rows, new, current,
                                   version=self.matrix.version + 1)
        return Op("round", index, (delta, index + 1))

    def execute(self, op: Op):
        delta, round_seed = op.args
        matrix = self.matrix.apply_delta(0, delta)
        models = self._fits(matrix, round_seed)
        return matrix, models

    def observe(self, op: Op, output) -> bool:
        matrix, models = output
        self.matrix = matrix
        record = (matrix, op.args[1], [np.array(m.coef_) for m in models])
        # The first and the latest round are checked against the
        # materialized matrix once the run is over.
        if "first" not in self.checked:
            self.checked["first"] = record
        else:
            self.checked["last"] = record
        return True

    def final_check(self) -> int:
        wrong = 0
        for matrix, round_seed, coefs in self.checked.values():
            dense = matrix.materialize()
            references = [np.array(m.coef_) for m in self._reference_fits(dense, round_seed)]
            self.checks["round"] += 1
            if not all(_close(c, r, COEF_RTOL) for c, r in zip(coefs, references)):
                wrong += 1
            del dense
        return wrong

    def _reference_fits(self, dense, round_seed: int) -> List[object]:
        p = self.params
        logistic = LogisticRegressionGD(max_iter=p["iters"],
                                        step_size=self.logistic_step).fit(dense, self.labels)
        return [
            LinearRegressionGD(max_iter=p["iters"],
                               step_size=self.linear_step).fit(dense, self.y),
            LinearRegressionNE().fit(dense, self.y),
            logistic,
            logistic,  # the sharded fit must agree with the serial one
            LogisticRegressionGD(max_iter=1, step_size=self.sgd_step, solver="sgd",
                                 batch_size=p["sgd_batch"], shuffle=True,
                                 seed=round_seed).fit(dense, self.labels),
        ]

    def counters(self) -> Dict[str, float]:
        stats = self.matrix.lazy().cache.stats()
        return {"cache_patched": stats.patched, "cache_invalidated": stats.invalidated}


# ---------------------------------------------------------------------------
# auto_sweep: repeated engine="auto" fits on one small matrix
# ---------------------------------------------------------------------------

#: Step-size multipliers the sweep cycles through (16 values).
STEP_GRID = tuple(float(x) for x in np.geomspace(0.05, 1.0, 16))


class AutoSweep(Workload):
    """One operation = one ``LinearRegressionGD(engine="auto")`` fit."""

    name = "auto_sweep"

    def __init__(self, seed: int, size: str = "full"):
        super().__init__(seed, size)
        p = self.params
        rng = np.random.default_rng([self.seed, 3])
        n, ds = p["n_s"], p["d_s"]
        nr, dr = p["r"]
        entity = rng.standard_normal((n, ds))
        attribute = rng.standard_normal((nr, dr))
        codes = _covering_codes(rng, n, nr)
        pk = _primary_keys(rng, nr)
        weights = rng.standard_normal(ds + dr)
        y = entity @ weights[:ds] + (attribute @ weights[ds:])[codes] \
            + rng.standard_normal(n)
        s_cols, a_cols = _feature_columns("s", entity), _feature_columns("a", attribute)
        self._columns = dict(
            entity={"sid": np.arange(n, dtype=np.int64), "fk": pk[codes], "y": y,
                    **s_cols},
            r={"r_id": pk, **a_cols},
        )
        self._names = (list(s_cols), list(a_cols))
        self.base_step = 0.5 / (n * (ds + dr))
        self.matrix = None
        #: (grid index, coefficient bytes) -> [coefficients, fits that produced them];
        #: repeated fits give identical bytes, so memory does not grow with the run.
        self.fitted: Dict[Tuple[int, bytes], list] = {}
        self.plan_labels = collections.Counter()

    def setup(self) -> Dict[str, float]:
        self.matrix = None
        started = time.perf_counter()
        entity = Table("S", self._columns["entity"])
        attribute = Table("R", self._columns["r"])
        s_names, a_names = self._names
        dataset = normalized_from_tables(
            entity, [("fk", attribute, "r_id", a_names)],
            entity_features=s_names, target_column="y", sparse=False)
        relational_s = time.perf_counter() - started
        self.matrix = dataset.matrix
        self.y = dataset.target
        # Warm-up: one fit per step size (fills the lazy cache the auto plans use).
        for grid_index in range(len(STEP_GRID)):
            self.execute(Op("fit", -1, (grid_index,)))
        return {"relational_s": relational_s}

    def _estimator(self, grid_index: int, engine: str) -> LinearRegressionGD:
        return LinearRegressionGD(max_iter=self.params["iters"],
                                  step_size=self.base_step * STEP_GRID[grid_index],
                                  engine=engine)

    def prepare(self) -> Op:
        index = self.ops_prepared
        self.ops_prepared += 1
        return Op("fit", index, (index % len(STEP_GRID),))

    def execute(self, op: Op):
        return self._estimator(op.args[0], "auto").fit(self.matrix, self.y)

    def observe(self, op: Op, output) -> bool:
        plan = output.plan_
        self.plan_labels[plan.chosen.label] += 1
        outcome = getattr(plan, "outcome", None)
        if outcome is not None and np.isfinite(outcome.ratio):
            self.residual_ratios.append(float(outcome.ratio))
        coef = np.array(output.coef_)
        entry = self.fitted.setdefault((op.args[0], coef.tobytes()), [coef, 0])
        entry[1] += 1
        return True

    def final_check(self) -> int:
        dense = self.matrix.materialize()
        references = {}
        wrong = 0
        for (grid_index, _), (coef, fits) in self.fitted.items():
            if grid_index not in references:
                references[grid_index] = np.array(
                    self._estimator(grid_index, "eager").fit(dense, self.y).coef_)
            self.checks["fit"] += fits
            if not _close(coef, references[grid_index], COEF_RTOL):
                wrong += fits
        return wrong

    def config(self) -> Dict[str, object]:
        return {"plan_labels": dict(self.plan_labels)}


# ---------------------------------------------------------------------------
# serve_mixed: point / batch / top-k reads interleaved with deltas
# ---------------------------------------------------------------------------

#: One serving round: a delta first, then the reads in a seeded order.  The
#: counts are the workload's request mix (85% point, 5% each of the others).
ROUND_READS = (("point", 17), ("batch", 1), ("topk", 1))
#: Zipf exponent of the point-request row popularity.
ZIPF_A = 1.2


class ServeMixed(Workload):
    """Closed-loop serving in rounds of 20 requests: one 1% delta of A, then
    17 Zipf point reads, one batch and one top-k in a seeded order."""

    name = "serve_mixed"

    def __init__(self, seed: int, size: str = "full"):
        super().__init__(seed, size)
        p = self.params
        rng = np.random.default_rng([self.seed, 4])
        n, ds = p["n_s"], p["d_s"]
        (na, da), (nb, db) = p["a"], p["b"]
        # Small entity features, so the gathered partials dominate each score.
        self.entity = 0.01 * rng.standard_normal((n, ds))
        self.a = rng.standard_normal((na, da))
        # Log-normal row scales: a few B rows dominate the score range.
        self.b = np.exp(3.0 * rng.standard_normal((nb, 1))) * rng.standard_normal((nb, db))
        self.codes_a = _covering_codes(rng, n, na)
        # Entity rows sorted by their B key, so rows sharing a B row share
        # zone-map blocks and top-k can skip blocks.
        self.codes_b = np.sort(_covering_codes(rng, n, nb))
        pk_a, pk_b = _primary_keys(rng, na), _primary_keys(rng, nb)
        self.weights = rng.standard_normal((ds + da + db, 1))
        e_cols, a_cols, b_cols = (_feature_columns("e", self.entity),
                                  _feature_columns("a", self.a), _feature_columns("b", self.b))
        self._columns = dict(
            entity={"sid": np.arange(n, dtype=np.int64), "fka": pk_a[self.codes_a],
                    "fkb": pk_b[self.codes_b], **e_cols},
            a={"a_id": pk_a, **a_cols},
            b={"b_id": pk_b, **b_cols},
        )
        self._names = (list(e_cols), list(a_cols), list(b_cols))
        self._op_rng = np.random.default_rng([self.seed, 5])
        self._popular = self._op_rng.permutation(n)
        self._reads = [kind for kind, count in ROUND_READS for _ in range(count)]
        self.service: Optional[ScoringService] = None
        self.version = 0
        self.kind_counts = collections.Counter()
        #: Latency (ns) of every request, by kind, timed inside the rounds.
        self.request_latencies: Dict[str, List[int]] = collections.defaultdict(list)

    # -- program set-up ---------------------------------------------------

    def setup(self) -> Dict[str, float]:
        self.close()
        self.service = None
        started = time.perf_counter()
        entity = Table("S", self._columns["entity"])
        a = Table("A", self._columns["a"])
        b = Table("B", self._columns["b"])
        e_names, a_names, b_names = self._names
        dataset = normalized_from_tables(
            entity, [("fka", a, "a_id", a_names), ("fkb", b, "b_id", b_names)],
            entity_features=e_names, sparse=False)
        relational_s = time.perf_counter() - started
        scorer = FactorizedScorer(ServingExport("linear_regression", self.weights),
                                  dataset.matrix)
        self.service = ScoringService(scorer, max_batch_size=256, cache_size=4096)
        # Warm-up: reads only, so every set-up starts from the same state.
        rows = self._popular[:256]
        for row in rows:
            self.service.score_row(int(row))
        self.service.score_rows(rows)
        self.service.top_k(self.params["k"])
        return {"relational_s": relational_s}

    def close(self) -> None:
        if self.service is not None:
            self.service.close()

    # -- operations ---------------------------------------------------------

    def prepare(self) -> Op:
        rng, p = self._op_rng, self.params
        index = self.ops_prepared
        self.ops_prepared += 1
        na = self.a.shape[0]
        rows = np.sort(rng.choice(na, max(1, int(round(p["delta_frac"] * na))),
                                  replace=False))
        new = rng.standard_normal((rows.size, self.a.shape[1]))
        self.version += 1
        delta = MatrixDelta.upsert(rows, new, self.a, version=self.version)
        n = self.entity.shape[0]
        requests = []
        for order in rng.permutation(len(self._reads)):
            kind = self._reads[order]
            if kind == "point":
                rank = (int(rng.zipf(ZIPF_A)) - 1) % n
                requests.append((kind, int(self._popular[rank])))
            elif kind == "batch":
                requests.append((kind, rng.integers(0, n, p["batch"])))
            else:
                requests.append((kind, p["k"]))
        return Op("round", index, (delta, requests))

    def execute(self, op: Op):
        """The round; returns the reads' outputs and every request's latency."""
        clock = time.perf_counter_ns
        service = self.service
        call = {"point": service.score_row, "batch": service.score_rows,
                "topk": service.top_k}
        delta, requests = op.args
        started = clock()
        service.apply_delta(0, delta, wait=True)
        timings = [clock() - started]
        outputs = []
        for kind, arg in requests:
            started = clock()
            outputs.append(call[kind](arg))
            timings.append(clock() - started)
        return outputs, timings

    def reference_scores(self, rows: np.ndarray) -> np.ndarray:
        """``T[rows] @ w`` from the benchmark's own copy of the tables."""
        ds, da = self.entity.shape[1], self.a.shape[1]
        w = self.weights
        return (self.entity[rows] @ w[:ds] + self.a[self.codes_a[rows]] @ w[ds:ds + da]
                + self.b[self.codes_b[rows]] @ w[ds + da:])

    def observe(self, op: Op, output) -> bool:
        """Records the request latencies and checks sampled reads; every read
        of the round must see the round's delta."""
        delta, requests = op.args
        outputs, timings = output
        self.request_latencies["delta"].append(timings[0])
        self.a[delta.rows] = delta.new
        correct = True
        for (kind, arg), result, elapsed in zip(requests, outputs, timings[1:]):
            self.request_latencies[kind].append(elapsed)
            self.kind_counts[kind] += 1
            if self.kind_counts[kind] % self.params["check_every"][kind] == 0:
                self.checks[kind] += 1
                correct = self._check(kind, arg, result) and correct
        return correct

    def _check(self, kind: str, arg, result) -> bool:
        if kind == "point":
            expected = self.reference_scores(np.array([arg]))[0]
            return bool(np.allclose(result, expected, rtol=SCORE_TOL, atol=SCORE_TOL))
        if kind == "batch":
            expected = self.reference_scores(arg)
            return bool(np.allclose(result, expected, rtol=SCORE_TOL, atol=SCORE_TOL))
        scorer = self.service.scorer
        all_scores = scorer.score_rows(np.arange(scorer.n_rows))[:, 0]
        rows, scores = full_scan_top_k(all_scores, arg)
        return bool(np.array_equal(result.rows, rows)
                    and np.array_equal(result.scores, scores))

    def kind_latencies(self, loop) -> Dict[str, List[int]]:
        latencies = super().kind_latencies(loop)
        latencies.update((kind, list(values))
                         for kind, values in self.request_latencies.items())
        return latencies

    def final_check(self) -> int:
        """The delta-patched serving partial equals a rebuild from scratch."""
        ds, da = self.entity.shape[1], self.a.shape[1]
        rebuilt = compute_partial(self.a, self.weights[ds:ds + da])
        served = self.service.scorer.current_snapshot().partials[0]
        self.checks["final_partial"] += 1
        return 0 if np.allclose(served, rebuilt, rtol=1e-10, atol=1e-10) else 1

    def counters(self) -> Dict[str, float]:
        stats = self.service.stats()
        return {key: float(stats[key]) for key in
                ("cache_hits", "cache_misses", "topk_requests", "topk_blocks_visited",
                 "topk_blocks_skipped", "topk_rows_scored")}


WORKLOADS = {cls.name: cls for cls in (Retrain, AutoSweep, ServeMixed)}
