"""Unit tests for the cost-based adaptive execution planner.

Everything here runs against :meth:`CalibrationProfile.default` so no timing
ever happens inside a test: the planner's *ranking* logic is deterministic
given a profile, and the calibration probe has its own (smoke-level) test.
"""

from __future__ import annotations

import json
import math
import pathlib

import numpy as np
import pytest

from repro.bench.harness import PlanEvaluation
from repro.core.cost import CostModel, Operator
from repro.core.planner import (
    CalibrationProfile,
    Plan,
    Planner,
    WorkloadDescriptor,
    describe_data,
)
from repro.core.planner.workload import OperatorUse


@pytest.fixture
def planner() -> Planner:
    return Planner(calibration=CalibrationProfile.default(), shard_candidates=(2, 4))


@pytest.fixture
def redundant():
    """TR = 20, FR = 4 at 8000x50: deep inside the factorize-wins region, and
    large enough that arithmetic, not Python dispatch overhead, dominates the
    predicted costs (at the 240x15 scale of the shared ``single_join_dense``
    fixture the planner correctly prefers materialized execution -- the same
    regime the paper's thresholds guard)."""
    from repro.datasets.synthetic import SyntheticPKFKConfig, generate_pk_fk

    config = SyntheticPKFKConfig.from_ratios(
        tuple_ratio=20, feature_ratio=4, num_attribute_rows=400,
        num_entity_features=10, seed=0)
    return generate_pk_fk(config).normalized


class TestCalibrationProfile:
    def test_default_is_deterministic(self):
        assert CalibrationProfile.default() == CalibrationProfile.default()
        assert CalibrationProfile.default().source == "default"

    def test_json_roundtrip(self, tmp_path):
        profile = CalibrationProfile.default()
        path = tmp_path / "calibration.json"
        profile.save(path)
        assert CalibrationProfile.load(path) == profile

    def test_load_rejects_unknown_format(self, tmp_path):
        path = tmp_path / "calibration.json"
        path.write_text(json.dumps({"version": 999}))
        with pytest.raises(ValueError, match="unsupported calibration format"):
            CalibrationProfile.load(path)

    def test_cache_path_env_override(self, monkeypatch, tmp_path):
        from repro.core.planner import cache_path

        target = tmp_path / "custom.json"
        monkeypatch.setenv("REPRO_CALIBRATION_CACHE", str(target))
        assert cache_path() == target
        monkeypatch.delenv("REPRO_CALIBRATION_CACHE")
        assert cache_path() == pathlib.Path.home() / ".cache" / "morpheus-repro" / "calibration.json"

    def test_get_profile_default_mode_skips_disk(self, monkeypatch, tmp_path):
        from repro.core.planner import get_profile, reset_profile_cache

        monkeypatch.setenv("REPRO_CALIBRATION", "default")
        monkeypatch.setenv("REPRO_CALIBRATION_CACHE", str(tmp_path / "calib.json"))
        reset_profile_cache()
        profile = get_profile()
        assert profile == CalibrationProfile.default()
        assert not (tmp_path / "calib.json").exists()
        reset_profile_cache()

    def test_save_is_atomic_and_leaves_no_temp_files(self, tmp_path):
        # Regression: save() used to write the cache file in place, so a
        # concurrent reader could observe a torn JSON document.
        profile = CalibrationProfile.default()
        path = tmp_path / "nested" / "calibration.json"
        profile.save(path)
        profile.save(path)  # overwrite path exercises os.replace on existing
        assert CalibrationProfile.load(path) == profile
        leftovers = [p for p in path.parent.iterdir() if p.name != path.name]
        assert leftovers == []

    def test_torn_cache_file_triggers_reprobe(self, monkeypatch, tmp_path):
        # A corrupt (half-written) cache must not crash get_profile in auto
        # mode -- it re-probes and rewrites the cache.
        from repro.core.planner import get_profile, reset_profile_cache
        from repro.core.planner import calibration as calibration_module

        cache = tmp_path / "calibration.json"
        cache.write_text('{"version": 2, "dense_flops": 2.5e9, "spar')  # torn
        monkeypatch.setenv("REPRO_CALIBRATION", "auto")
        monkeypatch.setenv("REPRO_CALIBRATION_CACHE", str(cache))
        probed = CalibrationProfile.default()
        monkeypatch.setattr(calibration_module, "probe", lambda: probed)
        reset_profile_cache()
        try:
            assert get_profile() == probed
            assert CalibrationProfile.load(cache) == probed  # cache repaired
        finally:
            reset_profile_cache()

    def test_probe_produces_positive_constants(self):
        from repro.core.planner import probe

        profile = probe(repeats=1)
        assert profile.source == "probe"
        assert profile.dense_flops > 0
        assert profile.sparse_flops > 0
        assert profile.dispatch_overhead_s > 0
        assert profile.shard_overhead_s > 0
        assert profile.materialize_bandwidth > 0
        assert 0.1 <= profile.parallel_efficiency <= 1.0


class TestWorkloadDescriptor:
    def test_per_algorithm_footprints_cover_table1_ops(self):
        logreg = WorkloadDescriptor.logistic_regression(10)
        assert logreg.iterations == 10
        assert {u.operator for u in logreg.uses} == {Operator.LMM, Operator.RMM}

        kmeans = WorkloadDescriptor.kmeans(num_clusters=7, max_iter=5)
        widths = {u.operator: u.x_cols for u in kmeans.uses}
        assert widths[Operator.LMM] == 7
        invariant = [u for u in kmeans.uses if not u.per_iteration]
        assert invariant, "kmeans precomputations must be loop-invariant"

    def test_linreg_gd_lazy_variant_hoists_invariants(self):
        wl = WorkloadDescriptor.linear_regression_gd(50)
        assert wl.lazy_uses is not None
        assert all(not u.per_iteration for u in wl.lazy_uses)
        assert wl.uses_for_engine("lazy") == wl.lazy_uses
        assert wl.uses_for_engine("eager") == wl.uses

    def test_total_count_scales_with_iterations(self):
        wl = WorkloadDescriptor.gnmf(rank=3, max_iter=8)
        assert wl.total_count(wl.uses[0]) == 8
        once = OperatorUse(Operator.CROSSPROD, per_iteration=False)
        assert wl.total_count(once) == 1


class TestDescribeData:
    def test_normalized_star(self, redundant):
        profile = describe_data(redundant)
        assert profile.kind == "normalized"
        assert profile.can_factorize
        assert profile.n_rows == redundant.shape[0]
        assert profile.tuple_ratio == pytest.approx(redundant.tuple_ratio)
        assert isinstance(profile.model, CostModel)

    def test_transposed_normalized_uses_untransposed_dims(self, redundant):
        profile = describe_data(redundant.T)
        assert profile.n_rows == redundant.shape[0]
        assert profile.n_cols == redundant.shape[1]

    def test_mn_normalized(self, mn_dataset):
        _, normalized, _ = mn_dataset
        profile = describe_data(normalized)
        assert profile.kind == "mn-normalized"
        assert profile.can_factorize
        assert profile.redundancy_ratio == pytest.approx(normalized.redundancy_ratio())

    def test_plain_matrix(self):
        profile = describe_data(np.ones((30, 4)))
        assert profile.kind == "plain"
        assert not profile.can_factorize
        assert profile.num_joins == 0

    def test_lazy_view_describes_the_wrapped_operand(self, redundant):
        # Planner.plan(TN.lazy()) must see the normalized matrix, not a
        # fixed-layout graph leaf.
        profile = describe_data(redundant.lazy())
        assert profile.kind == "normalized"
        assert profile.can_factorize
        plan = Planner(calibration=CalibrationProfile.default()).plan(
            redundant.lazy(), WorkloadDescriptor.logistic_regression(20))
        assert plan.factorized

    def test_describe_data_ratios_guard_degenerate_schemas(self):
        # The planner reads the ratios off the matrix, whose zero guards turn
        # degenerate schemas into infinities rather than ZeroDivisionError.
        import scipy.sparse as sp

        from repro.core.normalized_matrix import NormalizedMatrix

        degenerate = NormalizedMatrix(np.zeros((5, 2)), [sp.csr_matrix((5, 0))],
                                      [np.zeros((0, 3))], validate=False)
        profile = describe_data(degenerate)
        assert profile.tuple_ratio == float("inf")


class TestPlannerChoices:
    def test_redundant_data_factorizes(self, planner, redundant):
        plan = planner.plan(redundant, WorkloadDescriptor.logistic_regression(20))
        assert plan.factorized
        assert plan.threshold_rule_choice == "factorize"

    def test_low_redundancy_materializes_under_long_workloads(self, planner):
        from repro.datasets.synthetic import SyntheticPKFKConfig, generate_pk_fk

        config = SyntheticPKFKConfig.from_ratios(
            tuple_ratio=1, feature_ratio=0.25, num_attribute_rows=200,
            num_entity_features=8, seed=0)
        dataset = generate_pk_fk(config)
        plan = planner.plan(dataset.normalized,
                            WorkloadDescriptor.logistic_regression(50))
        assert not plan.factorized
        assert plan.threshold_rule_choice == "materialize"

    def test_linreg_gd_prefers_lazy_memoization(self, planner, redundant):
        plan = planner.plan(redundant, WorkloadDescriptor.linear_regression_gd(40))
        assert plan.engine == "lazy"

    def test_logreg_prefers_eager_over_lazy_bookkeeping(self, planner, redundant):
        plan = planner.plan(redundant, WorkloadDescriptor.logistic_regression(40))
        assert plan.engine == "eager"

    def test_wide_matrix_linreg_gd_prefers_eager(self, planner):
        # On a short-and-wide matrix the lazy engine's per-iteration d x d
        # gram-vector product outweighs the hoisted data passes; the planner
        # must charge it (lazy_gram_applies) and pick eager.
        from repro.core.normalized_matrix import NormalizedMatrix
        from repro.la.ops import indicator_from_labels

        rng = np.random.default_rng(0)
        n_s, n_r = 200, 50
        entity = rng.standard_normal((n_s, 100))
        attribute = rng.standard_normal((n_r, 900))
        labels = np.concatenate([np.arange(n_r), rng.integers(0, n_r, size=n_s - n_r)])
        wide = NormalizedMatrix(entity, [indicator_from_labels(labels, num_columns=n_r)],
                                [attribute])  # 200 x 1000
        plan = planner.plan(wide, WorkloadDescriptor.linear_regression_gd(200))
        assert plan.engine == "eager"

    def test_plain_input_never_plans_factorized(self, planner):
        plan = planner.plan(np.ones((100, 6)), WorkloadDescriptor.generic())
        assert all(not c.factorized for c in plan.candidates)
        assert plan.threshold_rule_choice is None

    def test_pinned_shard_count_restricts_the_axis(self, planner, redundant):
        plan = planner.plan(redundant, WorkloadDescriptor.generic(), n_shards=2)
        assert {c.n_shards for c in plan.candidates} == {2}
        assert plan.n_jobs == 2
        assert plan.backend == "sharded"

    def test_shard_axis_clamped_to_row_count(self, planner):
        plan = planner.plan(np.ones((3, 2)), WorkloadDescriptor.generic())
        assert {c.n_shards for c in plan.candidates} == {1, 2}

    def test_sharding_wins_when_parallelism_is_cheap(self, redundant, monkeypatch):
        # Free fan-out, four workers, perfectly efficient: the cost model must
        # rank the 4-shard candidate first.
        from dataclasses import replace

        import repro.la.parallel as parallel

        monkeypatch.setattr(parallel, "default_workers", lambda: 4)
        cheap = replace(CalibrationProfile.default(),
                        dispatch_overhead_s=0.0, sparse_dispatch_overhead_s=0.0,
                        shard_overhead_s=0.0, parallel_efficiency=1.0)
        planner = Planner(calibration=cheap, shard_candidates=(4,))
        plan = planner.plan(redundant, WorkloadDescriptor.logistic_regression(30))
        assert plan.backend == "sharded"
        assert plan.n_jobs == 4

    def test_sharding_loses_when_fanout_is_expensive(self, planner, redundant):
        # The default profile's per-shard dispatch overhead dwarfs the
        # arithmetic of this small matrix, so serial execution must win.
        plan = planner.plan(redundant, WorkloadDescriptor.logistic_regression(30))
        assert plan.backend != "sharded"

    def test_chunked_candidates_only_when_requested(self, redundant):
        base = Planner(calibration=CalibrationProfile.default(), shard_candidates=())
        assert all(c.backend != "chunked" for c in base.plan(redundant).candidates)
        chunky = Planner(calibration=CalibrationProfile.default(),
                         shard_candidates=(), include_chunked=True)
        assert any(c.backend == "chunked" for c in chunky.plan(redundant).candidates)

    def test_cost_ties_never_prefer_the_chunked_backend(self):
        # A matrix smaller than chunk_rows makes the hypothetical chunked
        # candidate cost-identical to dense serial; the tie-break must rank
        # the in-memory backend first rather than recommending out-of-core
        # wrapping for zero benefit.
        planner = Planner(calibration=CalibrationProfile.default(),
                          shard_candidates=(), include_chunked=True)
        plan = planner.plan(np.ones((64, 4)))
        assert plan.backend != "chunked"
        chunked = [c for c in plan.candidates if c.backend == "chunked"]
        assert chunked and chunked[0].predicted_seconds == pytest.approx(
            plan.predicted_seconds)  # the tie really existed

    def test_candidates_sorted_by_predicted_cost(self, planner, redundant):
        plan = planner.plan(redundant, WorkloadDescriptor.gnmf(5, 10))
        costs = [c.predicted_seconds for c in plan.candidates]
        assert costs == sorted(costs)
        assert plan.chosen is plan.candidates[0]


class TestPlanReporting:
    def test_explain_reports_predicted_vs_chosen_costs(self, planner, redundant):
        plan = planner.plan(redundant, WorkloadDescriptor.logistic_regression(20))
        text = plan.explain()
        assert "chosen:" in text
        assert "predicted" in text
        assert "rank 2:" in text
        assert "x chosen" in text              # alternatives priced vs the pick
        assert "paper threshold rule" in text  # ties back to Section 5.1
        assert "calibration: default" in text

    def test_plan_to_json_is_serializable(self, planner, redundant):
        plan = planner.plan(redundant, WorkloadDescriptor.kmeans(4, 6))
        payload = json.dumps(plan.to_json())
        decoded = json.loads(payload)
        assert decoded["chosen"]["factorized"] is True
        assert decoded["workload"]["name"] == "kmeans"
        assert len(decoded["candidates"]) == len(plan.candidates)

    def test_breakdown_terms_sum_to_prediction(self, planner, redundant):
        plan = planner.plan(redundant, WorkloadDescriptor.generic())
        for candidate in plan.candidates:
            assert candidate.predicted_seconds == pytest.approx(
                sum(candidate.breakdown.values()))

    def test_empty_plan_is_rejected(self, planner, redundant):
        complete = planner.plan(redundant)
        with pytest.raises(ValueError, match="at least one scored candidate"):
            Plan(candidates=(), workload=complete.workload,
                 data_summary=complete.data_summary,
                 calibration=complete.calibration)


class TestSurfaceIntegration:
    def test_normalized_matrix_plan_method(self, redundant):
        plan = redundant.plan()
        assert isinstance(plan, Plan)
        assert plan.workload.name == "generic"
        # the default matrix-level planner also scores the chunked backend
        assert any(c.backend == "chunked" for c in plan.candidates)

    def test_mn_matrix_plan_method(self, mn_dataset):
        _, normalized, _ = mn_dataset
        plan = normalized.plan()
        assert isinstance(plan, Plan)
        assert plan.data_summary["kind"] == "mn-normalized"

    def test_backend_partitions_for(self):
        # The fan-out the planner prices for a chunked (fixed_bounds) and a
        # sharded (shard_bounds, clamped to the row count) partition.
        from repro.core.shard import RowPartitioned, fixed_bounds, shard_bounds

        assert len(fixed_bounds(250, 100)) == 3
        assert len(fixed_bounds(10_000, 10_000)) == 1
        assert len(shard_bounds(3, 4)) == 3
        assert RowPartitioned.chunked(np.ones((250, 2)), 100).num_pieces == 3

    def test_auto_engine_exposes_plan(self, redundant):
        from repro.ml.logistic_regression import LogisticRegressionGD

        rng = np.random.default_rng(0)
        y = np.where(rng.standard_normal(redundant.shape[0]) > 0, 1.0, -1.0)
        model = LogisticRegressionGD(max_iter=3, engine="auto")
        model.planner = Planner(calibration=CalibrationProfile.default())
        model.fit(redundant, y)
        assert model.plan_ is not None
        assert "chosen:" in model.plan_.explain()
        assert model.coef_ is not None

    def test_auto_engine_matches_eager_reference(self, single_join_dense):
        from repro.ml.linear_regression import LinearRegressionGD

        _, normalized, materialized = single_join_dense
        rng = np.random.default_rng(1)
        y = rng.standard_normal(normalized.shape[0])
        auto = LinearRegressionGD(max_iter=4, engine="auto")
        auto.planner = Planner(calibration=CalibrationProfile.default())
        auto.fit(normalized, y)
        reference = LinearRegressionGD(max_iter=4).fit(materialized, y)
        assert np.allclose(auto.coef_, reference.coef_, atol=1e-8)

    def test_auto_engine_explicit_n_jobs_1_pins_serial(self, redundant, monkeypatch):
        # n_jobs=1 must guarantee serial execution even when the planner would
        # otherwise shard (cheap-parallelism profile, 4 workers).
        from dataclasses import replace

        import repro.la.parallel as parallel
        from repro.ml.logistic_regression import LogisticRegressionGD

        monkeypatch.setattr(parallel, "default_workers", lambda: 4)
        cheap = replace(CalibrationProfile.default(),
                        dispatch_overhead_s=0.0, sparse_dispatch_overhead_s=0.0,
                        shard_overhead_s=0.0, parallel_efficiency=1.0)
        rng = np.random.default_rng(8)
        y = np.where(rng.standard_normal(redundant.shape[0]) > 0, 1.0, -1.0)

        pinned = LogisticRegressionGD(max_iter=3, engine="auto", n_jobs=1)
        pinned.planner = Planner(calibration=cheap, shard_candidates=(4,))
        pinned.fit(redundant, y)
        assert {c.n_shards for c in pinned.plan_.candidates} == {1}

        free = LogisticRegressionGD(max_iter=3, engine="auto")
        free.planner = Planner(calibration=cheap, shard_candidates=(4,))
        free.fit(redundant, y)
        assert free.plan_.n_jobs == 4  # default None leaves the axis free

    def test_pinned_shard_count_clamped_to_rows(self, planner):
        from repro.datasets.synthetic import SyntheticPKFKConfig, generate_pk_fk

        config = SyntheticPKFKConfig.from_ratios(
            tuple_ratio=1, feature_ratio=1, num_attribute_rows=3,
            num_entity_features=2, seed=0)
        tiny = generate_pk_fk(config).normalized  # 3 rows
        plan = planner.plan(tiny, WorkloadDescriptor.generic(), n_shards=8)
        assert plan.n_jobs == 3  # clamped like shard_bounds itself

    def test_describe_data_plain_sharded_operand(self):
        from repro.core.shard import RowPartitioned

        sharded = RowPartitioned.from_matrix(np.ones((60, 5)), 4, pool="thread")
        profile = describe_data(sharded)
        assert profile.kind == "sharded"
        assert profile.layouts == (False,)
        assert profile.partitions == 4
        assert profile.parallel_partitions
        assert describe_data(sharded.T).kind == "sharded"  # transposed flag
        plan = Planner(calibration=CalibrationProfile.default()).plan(sharded)
        assert plan.n_jobs == 4
        assert plan.backend == "sharded"

    def test_mn_plan_explain_reports_redundancy_rule(self, mn_dataset):
        _, normalized, _ = mn_dataset
        plan = Planner(calibration=CalibrationProfile.default()).plan(normalized)
        text = plan.explain()
        assert "redundancy rule" in text
        assert plan.threshold_rule_choice in ("factorize", "materialize")

    def test_describe_data_chunked_operand(self):
        from repro.core.shard import RowPartitioned

        chunked = RowPartitioned.chunked(np.ones((100, 4)), 30)
        profile = describe_data(chunked)
        assert profile.kind == "chunked"
        assert profile.layouts == (False,)
        assert profile.partitions == 4
        assert describe_data(chunked.T).kind == "chunked"  # transposed flag

    def test_describe_data_keys_partitions_on_piece_type(self, single_join_dense):
        _, normalized, _ = single_join_dense
        sharded = describe_data(normalized.shard(3, pool="thread"))
        assert sharded.kind == "sharded-normalized"
        assert sharded.layouts == (True,)
        assert sharded.partitions == 3 and sharded.parallel_partitions
        streamed = normalized.stream(batch_rows=50)
        profile = describe_data(streamed)
        assert profile.kind == "sharded-normalized"
        assert profile.partitions == streamed.num_pieces
        assert not profile.parallel_partitions
        assert profile.factorized_bytes == describe_data(normalized).factorized_bytes

    def test_chunked_operand_plan_reports_chunked_backend(self):
        from repro.core.shard import RowPartitioned

        planner = Planner(calibration=CalibrationProfile.default(),
                          shard_candidates=(2, 4))
        chunked = RowPartitioned.chunked(np.ones((100, 4)), 10)
        plan = planner.plan(chunked, WorkloadDescriptor.logistic_regression(5))
        assert all(c.backend == "chunked" and c.n_shards == 1
                   for c in plan.candidates)
        # dispatch is priced at the real 10-chunk fan-out: strictly more than
        # the same workload on the equivalent monolithic matrix.
        mono = planner.plan(np.ones((100, 4)),
                            WorkloadDescriptor.logistic_regression(5),
                            n_shards=1)
        chunked_eager = next(c for c in plan.candidates if c.engine == "eager")
        mono_eager = next(c for c in mono.candidates if c.engine == "eager")
        assert chunked_eager.breakdown["dispatch"] > mono_eager.breakdown["dispatch"]

    def test_auto_engine_evaluates_composite_lazy_graph_once(self, single_join_dense):
        from repro.core.lazy.expr import LazyExpr
        from repro.ml.linear_regression import LinearRegressionGD

        _, normalized, materialized = single_join_dense
        rng = np.random.default_rng(9)
        y = rng.standard_normal(normalized.shape[0])
        graph = normalized.lazy() * 2.0
        evaluations = []
        original = LazyExpr.evaluate

        def counting_evaluate(self, cache=None):
            evaluations.append(self)
            return original(self, cache=cache)

        LazyExpr.evaluate = counting_evaluate
        try:
            model = LinearRegressionGD(max_iter=3, step_size=1e-3, engine="auto")
            model.planner = Planner(calibration=CalibrationProfile.default())
            model.fit(graph, y)
        finally:
            LazyExpr.evaluate = original
        # the composite input graph itself is evaluated exactly once
        assert sum(1 for e in evaluations if e is graph) == 1
        reference = LinearRegressionGD(max_iter=3, step_size=1e-3).fit(
            2.0 * materialized, y)
        assert np.allclose(model.coef_, reference.coef_, atol=1e-8)

    def test_auto_engine_pins_serial_for_undispatchable_operands(self):
        # Chunked operands pass through shard_for_jobs unchanged, so a sharded
        # plan could never be realized: the resolver pins the shard axis and
        # the reported plan matches what actually runs.
        from repro.core.shard import RowPartitioned
        from repro.ml.linear_regression import LinearRegressionGD

        rng = np.random.default_rng(4)
        dense = rng.standard_normal((64, 5))
        chunked = RowPartitioned.chunked(dense, 16)
        y = rng.standard_normal(64)
        model = LinearRegressionGD(max_iter=3, step_size=1e-3, engine="auto")
        model.planner = Planner(calibration=CalibrationProfile.default(),
                                shard_candidates=(2, 4))
        model.fit(chunked, y)
        assert model.plan_.n_jobs == 1
        assert all(c.n_shards == 1 for c in model.plan_.candidates)
        reference = LinearRegressionGD(max_iter=3, step_size=1e-3).fit(dense, y)
        assert np.allclose(model.coef_, reference.coef_, atol=1e-10)

    def test_auto_engine_never_densifies_sharded_normalized_input(self, single_join_dense):
        # A pre-sharded normalized operand has a fixed layout: engine="auto"
        # must neither materialize the join output nor re-shard it, and the
        # fit must still run (shard-parallel) through the factorized rewrites.
        from repro.ml.logistic_regression import LogisticRegressionGD

        _, normalized, materialized = single_join_dense
        sharded = normalized.shard(4, pool="serial")
        rng = np.random.default_rng(6)
        y = np.where(rng.standard_normal(normalized.shape[0]) > 0, 1.0, -1.0)
        model = LogisticRegressionGD(max_iter=3, engine="auto")
        model.planner = Planner(calibration=CalibrationProfile.default(),
                                shard_candidates=(2, 4))
        model.fit(sharded, y)
        assert getattr(sharded, "_materialized_view", None) is None
        # The plan truthfully reports the fixed factorized layout and the
        # operand's own 4-shard fan-out, and prices the engine choice with
        # factorized operator costs at that fan-out.
        assert model.plan_.factorized
        assert model.plan_.n_jobs == 4
        assert model.plan_.backend == "sharded"
        assert model.plan_.data_summary["kind"] == "sharded-normalized"
        assert all(c.factorized and c.n_shards == 4 for c in model.plan_.candidates)
        reference = LogisticRegressionGD(max_iter=3).fit(materialized, y)
        assert np.allclose(model.coef_, reference.coef_, atol=1e-8)

    def test_describe_data_sharded_normalized_uses_factorized_costs(self, single_join_dense):
        _, normalized, _ = single_join_dense
        sharded = normalized.shard(3, pool="serial")
        profile = describe_data(sharded)
        assert profile.kind == "sharded-normalized"
        assert profile.layouts == (True,)
        assert profile.n_rows == normalized.shape[0]
        assert profile.n_cols == normalized.shape[1]
        assert profile.num_joins == normalized.num_joins
        assert profile.partitions == sharded.num_pieces
        assert not profile.parallel_partitions  # serial pool: no speedup
        assert describe_data(normalized.shard(3, pool="thread")).parallel_partitions
        # transposed wrapper: same untransposed dimensions
        assert describe_data(sharded.T).n_rows == normalized.shape[0]

    def test_auto_engine_respects_explicit_n_jobs(self, single_join_dense):
        from repro.ml.logistic_regression import LogisticRegressionGD

        _, normalized, materialized = single_join_dense
        rng = np.random.default_rng(2)
        y = np.where(rng.standard_normal(normalized.shape[0]) > 0, 1.0, -1.0)
        model = LogisticRegressionGD(max_iter=3, engine="auto", n_jobs=2)
        model.planner = Planner(calibration=CalibrationProfile.default())
        model.fit(normalized, y)
        assert model.plan_.n_jobs == 2
        reference = LogisticRegressionGD(max_iter=3).fit(materialized, y)
        assert np.allclose(model.coef_, reference.coef_, atol=1e-8)


@pytest.fixture
def scorings(monkeypatch):
    """Counts the planner's candidate scorings (plan-memo misses) per call."""
    calls = []
    score = Planner._score_operand

    def counting(self, data, *args):
        calls.append(data)
        return score(self, data, *args)

    monkeypatch.setattr(Planner, "_score_operand", counting)
    return calls


class TestPlanMemo:
    LINREG = WorkloadDescriptor.linear_regression_gd(10)

    def test_hit_returns_a_fresh_plan_with_equal_candidates(self, planner, redundant,
                                                            scorings):
        first = planner.plan(redundant, self.LINREG)
        first.record_outcome(1e-3)
        second = planner.plan(redundant, self.LINREG)
        assert len(scorings) == 1
        assert second is not first
        assert second.candidates == first.candidates
        assert second.outcome is None and first.outcome is not None
        assert second.data_summary == first.data_summary
        assert second.data_summary is not first.data_summary

    def test_mutated_summary_does_not_leak_into_the_next_plan(self, planner, redundant):
        first = planner.plan(redundant, self.LINREG)
        expected = json.loads(json.dumps(first.data_summary))
        first.data_summary["kind"] = "tampered"
        first.data_summary["fused_kernels"]["kernel_set"] = "tampered"
        second = planner.plan(redundant, self.LINREG)
        assert json.loads(json.dumps(second.data_summary)) == expected

    def test_apply_delta_successor_replans(self, planner, redundant, scorings):
        from repro.core.delta import MatrixDelta

        planner.plan(redundant, self.LINREG)
        attribute = redundant.attributes[0]
        rows = np.random.default_rng(0).standard_normal((2, attribute.shape[1]))
        successor = redundant.apply_delta(0, MatrixDelta.upsert([0, 1], rows, attribute))
        planner.plan(successor, self.LINREG)
        assert len(scorings) == 2 and scorings[1] is successor
        planner.plan(successor, self.LINREG)
        assert len(scorings) == 2

    def test_every_key_part_replans(self, redundant, scorings):
        from dataclasses import replace

        default = CalibrationProfile.default()
        base = dict(calibration=default, shard_candidates=(2, 4))
        variants = [
            (Planner(**base), self.LINREG, None),
            (Planner(**base), WorkloadDescriptor.linear_regression_gd(20), None),
            (Planner(**base), self.LINREG, 2),
            (Planner(**base, memory_budget=1e9), self.LINREG, None),
            (Planner(calibration=replace(default, dense_flops=5e9),
                     shard_candidates=(2, 4)), self.LINREG, None),
            (Planner(**base, include_chunked=True), self.LINREG, None),
        ]
        for planner, workload, n_shards in variants:
            planner.plan(redundant, workload, n_shards=n_shards)
        assert len(scorings) == len(variants)
        for planner, workload, n_shards in variants:  # all memoized now
            planner.plan(redundant, workload, n_shards=n_shards)
        assert len(scorings) == len(variants)

    def test_calibration_and_workload_compare_by_value(self, redundant, scorings):
        from dataclasses import replace

        Planner(calibration=CalibrationProfile.default()).plan(
            redundant, WorkloadDescriptor.linear_regression_gd(10))
        Planner(calibration=replace(CalibrationProfile.default())).plan(
            redundant, WorkloadDescriptor.linear_regression_gd(10))
        assert len(scorings) == 1

    def test_lazy_view_and_row_partitions_are_memoized(self, planner, redundant,
                                                       scorings):
        planner.plan(redundant, self.LINREG)
        planner.plan(redundant.lazy(), self.LINREG)
        assert len(scorings) == 1
        sharded = redundant.shard(2, pool="serial")
        planner.plan(sharded, self.LINREG)
        planner.plan(sharded, self.LINREG)
        assert len(scorings) == 2

    def test_plain_operands_are_never_memoized(self, planner, scorings):
        import scipy.sparse as sp

        dense = np.random.default_rng(1).standard_normal((200, 6))
        sparse = sp.random(200, 6, density=0.2, format="csr", random_state=1)
        for operand in (dense, sparse):
            first = planner.plan(operand, self.LINREG)
            second = planner.plan(operand, self.LINREG)
            assert second.candidates == first.candidates
        assert len(scorings) == 4
        assert not hasattr(sparse, "_plan_memo")

    def test_concurrent_planners_agree(self, redundant):
        import sys
        from concurrent.futures import ThreadPoolExecutor

        def plan(_):
            return Planner(calibration=CalibrationProfile.default()).plan(
                redundant, self.LINREG)

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            with ThreadPoolExecutor(max_workers=8) as pool:
                plans = list(pool.map(plan, range(8), timeout=60))
        finally:
            sys.setswitchinterval(interval)
        assert len({p.chosen.label for p in plans}) == 1
        assert all(p.candidates == plans[0].candidates for p in plans)
        assert len({id(p) for p in plans}) == 8
        assert len(redundant._plan_memo) == 1

    def test_memo_is_bounded_and_evicts_the_oldest(self, planner, redundant, scorings):
        from repro.core.planner.planner import PLAN_MEMO_SIZE

        workloads = [WorkloadDescriptor.linear_regression_gd(i + 1)
                     for i in range(PLAN_MEMO_SIZE + 3)]
        for workload in workloads:
            planner.plan(redundant, workload)
            assert len(redundant._plan_memo) <= PLAN_MEMO_SIZE
        assert len(redundant._plan_memo) == PLAN_MEMO_SIZE
        planner.plan(redundant, workloads[-1])   # newest: still memoized
        assert len(scorings) == len(workloads)
        planner.plan(redundant, workloads[0])    # oldest: evicted, re-scored
        assert len(scorings) == len(workloads) + 1


class TestPlanEvaluation:
    def test_slowdown_and_within(self):
        ev = PlanEvaluation(parameters={}, auto_label="a", auto_seconds=0.15,
                            best_label="b", best_seconds=0.1)
        assert ev.slowdown == pytest.approx(1.5)
        assert ev.within(1.5)
        assert not ev.within(1.4)

    def test_nan_measurements_never_pass(self):
        ev = PlanEvaluation(parameters={}, auto_label="a",
                            auto_seconds=float("nan"), best_label="b",
                            best_seconds=0.1)
        assert math.isnan(ev.slowdown)
        assert not ev.within(10.0)

    def test_zero_best_guard(self):
        ev = PlanEvaluation(parameters={}, auto_label="a", auto_seconds=0.1,
                            best_label="b", best_seconds=0.0)
        assert ev.slowdown == float("inf")
        ev2 = PlanEvaluation(parameters={}, auto_label="a", auto_seconds=0.0,
                             best_label="b", best_seconds=0.0)
        assert ev2.slowdown == 1.0
