"""End-to-end observability: one instrumented fit/delta/serve run.

The acceptance scenario for the obs layer: with observability on, an
auto-planned fit plus a delta update plus top-k serving must leave behind
(a) a span tree rooted at the fit with the planner nested inside, (b) metric
series from every instrumented layer -- planner, lazy cache, kernels, delta
path, serving, ml -- visible through every exporter, and (c) a
predicted-vs-measured line in ``Plan.explain()``.  With observability off,
the permanent instrumentation must cost nothing measurable (<= 2% on a
traced logistic-regression fit).
"""

from __future__ import annotations

import json
import time

import numpy as np
import pytest

from repro import obs
from repro.core.delta import MatrixDelta
from repro.core.normalized_matrix import NormalizedMatrix
from repro.core.planner import DeltaPolicy
from repro.la.ops import indicator_from_labels
from repro.ml import LinearRegressionGD, LogisticRegressionGD, ServingExport
from repro.serve import FactorizedScorer, ScoringService

ALWAYS_PATCH = DeltaPolicy(threshold=1.0)


def _star_schema(n_s=300, n_r=12, d_s=3, d_r=4, seed=0):
    rng = np.random.default_rng(seed)
    entity = rng.standard_normal((n_s, d_s))
    attribute = rng.standard_normal((n_r, d_r))
    labels = np.sort(np.concatenate([np.arange(n_r),
                                     rng.integers(0, n_r, size=n_s - n_r)]))
    indicator = indicator_from_labels(labels, num_columns=n_r)
    return NormalizedMatrix(entity, [indicator], [attribute]), rng


class TestInstrumentedEndToEnd:
    def test_fit_delta_serve_produces_spans_and_series(self):
        obs.enable()
        normalized, rng = _star_schema()
        y = rng.standard_normal(normalized.shape[0])

        # 1. Auto-planned fit: planner span + plan-feedback outcome.
        model = LinearRegressionGD(engine="auto", max_iter=3).fit(normalized, y)
        assert model.plan_ is not None
        assert model.plan_.outcome is not None
        assert model.plan_.outcome.measured_seconds > 0
        explained = model.plan_.explain()
        assert "measured:" in explained
        assert "predicted" in explained

        # 2. Lazy-engine fit: exercises the memoization cache (hits + misses).
        LinearRegressionGD(engine="lazy", max_iter=3).fit(normalized, y)

        # 3. Delta update against the warmed cache: patch/invalidate decisions
        #    and the rank-|delta| rewrite rules.
        lazy = normalized.lazy()
        lazy.crossprod().evaluate()
        delta = MatrixDelta.upsert(
            [0, 1], rng.standard_normal((2, normalized.attributes[0].shape[1])),
            normalized.attributes[0])
        successor = normalized.apply_delta(0, delta, policy=ALWAYS_PATCH)
        assert successor._lazy_cache.patched > 0

        # 4. Serving: micro-batched scoring, top-k, and a serving-side delta.
        export = ServingExport(
            "linear_regression",
            rng.standard_normal((normalized.logical_cols, 2)))
        scorer = FactorizedScorer(export, normalized, zone_block_size=64)
        service = ScoringService(scorer, max_batch_size=32)
        service.score_rows(np.arange(64))
        service.top_k(5)
        service.apply_delta(0, MatrixDelta.upsert(
            [2], rng.standard_normal((1, normalized.attributes[0].shape[1])),
            normalized.attributes[0]))

        # -- span tree: fit root with the planner nested inside ---------------
        roots = obs.recent_spans()
        (fit_root,) = [r for r in roots if r.name == "LinearRegressionGD.fit"
                       and r.find("planner.plan") is not None]
        planner_span = fit_root.find("planner.plan")
        assert planner_span.attrs.get("workload")
        assert fit_root.attrs.get("plan") == model.plan_.chosen.label
        assert fit_root.attrs.get("measured_seconds") == pytest.approx(
            model.plan_.outcome.measured_seconds)
        assert any(r.find("serve.apply_delta") is not None for r in roots)
        assert any(r.name == "cache.apply_delta" or r.find("cache.apply_delta")
                   for r in roots)

        # -- metric series from every instrumented layer ----------------------
        text = obs.to_prometheus()
        for needle in (
            'repro_planner_plans_total{',          # planner
            'repro_lazy_cache_events_total{event="hit"}',   # lazy cache
            'repro_kernel_dispatch_total{',        # kernel registry
            'repro_delta_patch_decisions_total{decision="patch"',  # delta path
            'repro_delta_rules_total{',            # rewrite rules
            'repro_serve_requests_total{path="batch"}',     # serving
            'repro_serve_topk_blocks_total{',      # top-k
            'repro_serve_updates_total{',          # serving delta
            'repro_serve_zonemap_patches_total{mode="widen"}',  # zone maps
            'repro_ml_fits_total{',                # estimators
        ):
            assert needle in text, f"missing {needle!r} in exposition:\n{text}"

        # -- the same data round-trips through the other exporters ------------
        names = {json.loads(line)["name"]
                 for line in obs.to_jsonl(spans=False).splitlines()}
        assert {"repro_planner_plans_total", "repro_lazy_cache_events_total",
                "repro_kernel_dispatch_total", "repro_serve_requests_total",
                "repro_ml_fits_total"} <= names
        table = obs.summary()
        assert "repro_plan_outcomes_total" in table

    def test_disabled_run_records_nothing(self):
        assert not obs.enabled()
        normalized, rng = _star_schema(seed=3)
        y = rng.standard_normal(normalized.shape[0])
        LinearRegressionGD(engine="auto", max_iter=2).fit(normalized, y)
        assert obs.recent_spans() == []
        # Families registered at import time stick around, but no gated
        # series may have recorded anything.
        for name in ("repro_planner_plans_total", "repro_kernel_dispatch_total",
                     "repro_ml_fits_total"):
            family = obs.REGISTRY.get(name)
            assert family is None or family.value == 0

    def test_outcome_recorded_even_when_disabled(self):
        """Plan feedback is unconditional: two clock reads, always on."""
        assert not obs.enabled()
        normalized, rng = _star_schema(seed=4)
        y = rng.standard_normal(normalized.shape[0])
        model = LinearRegressionGD(engine="auto", max_iter=2).fit(normalized, y)
        assert model.plan_.outcome is not None
        assert "measured:" in model.plan_.explain()


def _count_spans(span, name: str) -> int:
    return (span.name == name) + sum(_count_spans(c, name) for c in span.children)


class TestPlanMemoCounter:
    def test_repeated_auto_fits_plan_once_and_count_every_plan(self):
        obs.enable()
        normalized, rng = _star_schema(seed=6)
        y = rng.standard_normal(normalized.shape[0])
        for _ in range(5):
            LinearRegressionGD(engine="auto", max_iter=3).fit(normalized, y)
        memo = obs.REGISTRY.get("repro_planner_memo_total")
        assert memo.labels(result="miss").value == 1
        assert memo.labels(result="hit").value == 4
        assert obs.REGISTRY.get("repro_planner_plans_total").value == 5
        fits = [r for r in obs.recent_spans() if r.name == "LinearRegressionGD.fit"]
        assert len(fits) == 5
        assert [_count_spans(r, "planner.plan") for r in fits] == [1] * 5
        assert 'repro_planner_memo_total{result="hit"} 4' in obs.to_prometheus()


class TestZoneMapPatchCounter:
    def test_one_percent_delta_stream_rebuilds_once_per_hundred_widens(self):
        """Widened rows add up to the table size every 100 1% deltas, and
        each time the patch re-tightens with one exact rebuild."""
        obs.enable()
        normalized, rng = _star_schema(n_s=4000, n_r=2000, seed=5)
        attribute = np.asarray(normalized.attributes[0])
        export = ServingExport("linear_regression",
                               rng.standard_normal((normalized.logical_cols, 1)))
        scorer = FactorizedScorer(export, normalized, zone_block_size=128)
        for _ in range(300):
            rows = np.sort(rng.choice(attribute.shape[0], size=20, replace=False))
            delta = MatrixDelta.upsert(
                rows, rng.standard_normal((20, attribute.shape[1])), attribute)
            attribute = np.asarray(delta.apply_to(attribute))
            scorer.apply_delta(0, delta)
        scorer.close()
        family = obs.REGISTRY.get("repro_serve_zonemap_patches_total")
        widens = family.labels(mode="widen").value
        rebuilds = family.labels(mode="rebuild").value
        assert (widens, rebuilds) == (297, 3)
        assert 'repro_serve_zonemap_patches_total{mode="rebuild"}' in obs.to_prometheus()


class TestDisabledOverhead:
    """The <= 2% gate: permanently-installed instrumentation, obs off."""

    REPEATS = 7
    RELATIVE_BUDGET = 1.02
    ABSOLUTE_SLACK = 2e-3  # seconds; absorbs scheduler jitter on tiny fits

    @staticmethod
    def _min_time(fn, repeats):
        fn()  # warm caches/JIT'd numpy paths outside the timed region
        best = float("inf")
        for _ in range(repeats):
            started = time.perf_counter()
            fn()
            best = min(best, time.perf_counter() - started)
        return best

    def test_traced_logreg_fit_within_two_percent(self):
        assert not obs.enabled()
        rng = np.random.default_rng(11)
        data = rng.standard_normal((2000, 30))
        y = np.where(rng.standard_normal(2000) > 0, 1.0, -1.0)
        model = LogisticRegressionGD(max_iter=40)
        baseline_fit = LogisticRegressionGD.fit.__wrapped__  # undecorated

        instrumented = self._min_time(lambda: model.fit(data, y), self.REPEATS)
        baseline = self._min_time(lambda: baseline_fit(model, data, y),
                                  self.REPEATS)
        budget = baseline * self.RELATIVE_BUDGET + self.ABSOLUTE_SLACK
        assert instrumented <= budget, (
            f"disabled-mode overhead too high: instrumented {instrumented:.6f}s "
            f"vs baseline {baseline:.6f}s (budget {budget:.6f}s)"
        )
