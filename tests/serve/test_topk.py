"""Top-k exactness and zone-map consistency.

The bound-pruned search must return *exactly* the full-scan ranking -- same
rows, same order, deterministic tie-break -- on every schema class, for every
k (including the k = 0 and k >= N edges), on adversarial all-equal-score
inputs, and immediately after ``update_table`` and ``apply_delta`` snapshot
swaps.  The pruning statistics are also pinned: on clustered skewed data the
search must actually skip blocks, and on structureless data it must still be
correct (just without savings).
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.core.delta import MatrixDelta
from repro.core.mn_matrix import MNNormalizedMatrix
from repro.core.normalized_matrix import NormalizedMatrix
from repro.exceptions import ServingError
from repro.la.ops import indicator_from_labels
from repro.ml import ServingExport
from repro.serve import (
    FactorizedScorer,
    ScoringService,
    ZoneMaps,
    full_scan_top_k,
)

K_GRID = (0, 1, 3, 10, 37)


def _random_export(matrix, m=2, seed=0, kind="linear_regression"):
    rng = np.random.default_rng(seed)
    return ServingExport(kind, rng.standard_normal((matrix.logical_cols, m)))


def _assert_exact(scorer, k_values=K_GRID, outputs=(0,), snapshot=None):
    """scorer.top_k == full-scan reference for every (k, largest, output)."""
    full = scorer.score_rows(np.arange(scorer.n_rows), snapshot=snapshot)
    for k in list(k_values) + [scorer.n_rows, scorer.n_rows + 5]:
        for largest in (True, False):
            for output in outputs:
                result = scorer.top_k(k, largest=largest, output=output,
                                      snapshot=snapshot)
                ref_rows, ref_scores = full_scan_top_k(full[:, output], k, largest)
                np.testing.assert_array_equal(result.rows, ref_rows)
                np.testing.assert_array_equal(result.scores, ref_scores)
                stats = result.stats
                assert (stats["blocks_visited"] + stats["blocks_skipped"]
                        == stats["blocks_total"])


def _assert_contains(zones, fresh):
    """Widened zone maps contain the exact ones built from the same partials."""
    assert np.all(zones.upper >= fresh.upper)
    assert np.all(zones.lower <= fresh.lower)
    for got, want in zip(zones.partial_hi, fresh.partial_hi):
        assert np.all(got >= want)
    for got, want in zip(zones.partial_lo, fresh.partial_lo):
        assert np.all(got <= want)


def _assert_tight(zones, fresh):
    """Zone maps bit-equal to a from-scratch build (after an exact rebuild)."""
    np.testing.assert_array_equal(zones.upper, fresh.upper)
    np.testing.assert_array_equal(zones.lower, fresh.lower)
    for got, want in zip(zones.partial_hi, fresh.partial_hi):
        np.testing.assert_array_equal(got, want)
    for got, want in zip(zones.partial_lo, fresh.partial_lo):
        np.testing.assert_array_equal(got, want)


def _clustered_skewed_scorer(n_s=4096, n_r=64, d_r=5, block_size=128, seed=0,
                             m=2):
    """A star schema with FK locality and a heavy-tailed score distribution."""
    rng = np.random.default_rng(seed)
    entity = rng.standard_normal((n_s, 3)) * 0.01
    # A few hot attribute rows dominate the score; sorted codes give locality.
    attribute = rng.standard_normal((n_r, d_r)) * np.exp(
        rng.standard_normal((n_r, 1)) * 3)
    labels = np.sort(np.concatenate([np.arange(n_r),
                                     rng.integers(0, n_r, size=n_s - n_r)]))
    normalized = NormalizedMatrix(entity, [indicator_from_labels(labels, num_columns=n_r)],
                                  [attribute])
    export = _random_export(normalized, m=m, seed=seed + 1)
    return FactorizedScorer(export, normalized, zone_block_size=block_size), normalized


class TestExactness:
    @pytest.mark.parametrize("fixture", ["single_join_dense", "multi_join_dense"])
    def test_star_schemas(self, fixture, request):
        _, normalized, _ = request.getfixturevalue(fixture)
        scorer = FactorizedScorer(_random_export(normalized), normalized,
                                  zone_block_size=16)
        _assert_exact(scorer, outputs=(0, 1))

    def test_sparse_star(self, single_join_sparse):
        normalized, _ = single_join_sparse
        scorer = FactorizedScorer(_random_export(normalized, seed=3), normalized,
                                  zone_block_size=16)
        _assert_exact(scorer)

    def test_no_entity_features(self, no_entity_features):
        normalized, _ = no_entity_features
        scorer = FactorizedScorer(_random_export(normalized, seed=5), normalized,
                                  zone_block_size=8)
        _assert_exact(scorer)

    def test_mn_schemas(self, mn_dataset, mn_multi_component):
        for normalized in (mn_dataset[1], mn_multi_component[0]):
            scorer = FactorizedScorer(_random_export(normalized, seed=7), normalized,
                                      zone_block_size=8)
            _assert_exact(scorer)

    def test_all_equal_scores_tie_break(self):
        """Adversarial input: every row scores identically; no pruning is
        sound, and the result must be the first k row indices."""
        n_s, n_r = 600, 12
        entity = np.zeros((n_s, 2))
        attribute = np.ones((n_r, 3))
        labels = np.sort(np.concatenate([np.arange(n_r),
                                         np.zeros(n_s - n_r, dtype=np.int64)]))
        normalized = NormalizedMatrix(entity, [indicator_from_labels(labels, num_columns=n_r)],
                                      [attribute])
        weights = np.ones((normalized.logical_cols, 1))
        scorer = FactorizedScorer(ServingExport("linear_regression", weights),
                                  normalized, zone_block_size=32)
        for largest in (True, False):
            result = scorer.top_k(25, largest=largest)
            np.testing.assert_array_equal(result.rows, np.arange(25))
        _assert_exact(scorer, outputs=(0,))

    def test_k_edges(self, single_join_dense):
        _, normalized, _ = single_join_dense
        scorer = FactorizedScorer(_random_export(normalized), normalized,
                                  zone_block_size=16)
        empty = scorer.top_k(0)
        assert len(empty) == 0
        assert empty.rows.dtype == np.int64
        everything = scorer.top_k(scorer.n_rows * 3)
        assert len(everything) == scorer.n_rows
        with pytest.raises(ServingError, match="non-negative"):
            scorer.top_k(-1)
        with pytest.raises(ServingError, match="out of range"):
            scorer.top_k(3, output=99)

    def test_seeded_random_property_sweep(self):
        """Many random schemas x block sizes: pruned == full scan, always."""
        for seed in range(8):
            rng = np.random.default_rng(seed)
            n_r = int(rng.integers(4, 40))
            n_s = int(rng.integers(n_r, 900))
            d_s = int(rng.integers(0, 4))
            entity = rng.standard_normal((n_s, d_s)) if d_s else None
            attribute = rng.standard_normal((n_r, int(rng.integers(1, 6))))
            labels = np.concatenate([np.arange(n_r),
                                     rng.integers(0, n_r, size=n_s - n_r)])
            if seed % 2:
                labels = np.sort(labels)  # clustered half the time
            else:
                rng.shuffle(labels)
            normalized = NormalizedMatrix(
                entity, [indicator_from_labels(labels, num_columns=n_r)], [attribute])
            scorer = FactorizedScorer(
                _random_export(normalized, m=1, seed=seed), normalized,
                zone_block_size=int(rng.integers(4, 128)))
            _assert_exact(scorer, k_values=(0, 1, 5, n_s // 3))


class TestZoneMapConsistency:
    def test_update_table_rebuilds_zone_maps(self, multi_join_dense, rng):
        _, normalized, _ = multi_join_dense
        scorer = FactorizedScorer(_random_export(normalized), normalized,
                                  zone_block_size=16)
        before = scorer.current_snapshot().zones
        new_table = rng.standard_normal(np.asarray(normalized.attributes[1]).shape)
        scorer.update_table(1, new_table)
        snapshot = scorer.current_snapshot()
        fresh = ZoneMaps.build(snapshot.zones.index, snapshot.partials)
        np.testing.assert_array_equal(snapshot.zones.upper, fresh.upper)
        np.testing.assert_array_equal(snapshot.zones.lower, fresh.lower)
        assert not np.array_equal(before.upper, snapshot.zones.upper)
        # untouched table's bounds are shared, not recomputed
        assert snapshot.zones.table_lo[0] is before.table_lo[0]
        _assert_exact(scorer, outputs=(0, 1))

    def test_apply_delta_patches_zone_maps(self):
        """A delta widens the bounds (sound, maybe loose); once the widened
        rows reach the table's row count the patch rebuilds them exactly."""
        scorer, normalized = _clustered_skewed_scorer()
        attribute = np.asarray(normalized.attributes[0])
        rng = np.random.default_rng(42)
        rows = np.array([1, 7, 40])
        delta = MatrixDelta.upsert(rows, rng.standard_normal((3, attribute.shape[1])) * 50,
                                   attribute)
        scorer.apply_delta(0, delta)
        snapshot = scorer.current_snapshot()
        fresh = ZoneMaps.build(snapshot.zones.index, snapshot.partials)
        _assert_contains(snapshot.zones, fresh)
        assert snapshot.zones.widened[0] == 3
        _assert_exact(scorer, outputs=(0, 1))
        attribute = np.asarray(delta.apply_to(attribute))
        # 64 attribute rows: the 22nd three-row delta crosses the count.
        for step in range(21):
            rows = np.sort(rng.choice(attribute.shape[0], size=3, replace=False))
            delta = MatrixDelta.upsert(
                rows, rng.standard_normal((3, attribute.shape[1])) * 50, attribute)
            attribute = np.asarray(delta.apply_to(attribute))
            scorer.apply_delta(0, delta)
            zones = scorer.current_snapshot().zones
            assert zones.widened[0] == (0 if step == 20 else 3 * (step + 2))
        snapshot = scorer.current_snapshot()
        _assert_tight(snapshot.zones, ZoneMaps.build(snapshot.zones.index,
                                                     snapshot.partials))
        _assert_exact(scorer, outputs=(0, 1))

    def test_growing_delta_keeps_adhoc_bounds_current(self):
        """Appended attribute rows enter the ad-hoc partial bounds."""
        scorer, normalized = _clustered_skewed_scorer(n_s=512, n_r=16, block_size=64)
        attribute = np.asarray(normalized.attributes[0])
        lo_before, hi_before = scorer.partial_score_bounds()[0]
        grown = np.full((2, attribute.shape[1]), 1e3)
        delta = MatrixDelta.upsert(np.array([16, 17]), grown, attribute)
        scorer.apply_delta(0, delta)
        lo_after, hi_after = scorer.partial_score_bounds()[0]
        assert hi_after != hi_before or lo_after != lo_before
        snapshot = scorer.current_snapshot()
        fresh = ZoneMaps.build(snapshot.zones.index, snapshot.partials)
        np.testing.assert_array_equal(snapshot.zones.upper, fresh.upper)
        _assert_exact(scorer, outputs=(0, 1))

    def test_gap_append_folds_zero_rows_into_adhoc_bounds(self):
        """Appended positions a delta skips score zero; the ad-hoc lower
        bound must drop to zero even when every named row is positive."""
        n_s, n_r = 256, 8
        labels = np.sort(np.concatenate([np.arange(n_r), np.zeros(n_s - n_r, dtype=np.int64)]))
        attribute = np.arange(1.0, 1.0 + 3 * n_r).reshape(n_r, 3)
        normalized = NormalizedMatrix(None, [indicator_from_labels(labels, num_columns=n_r)],
                                      [attribute])
        scorer = FactorizedScorer(ServingExport("linear_regression", np.ones((3, 1))),
                                  normalized, zone_block_size=32)
        ((lo, _),) = scorer.partial_score_bounds()
        assert lo > 0
        delta = MatrixDelta.upsert(np.array([n_r + 2]), np.full((1, 3), 5.0), attribute)
        scorer.apply_delta(0, delta)
        ((lo, hi),) = scorer.partial_score_bounds()
        partial = scorer.current_snapshot().partials[0][:, 0]
        assert partial.shape[0] == n_r + 3 and partial[n_r] == 0.0
        assert lo <= partial.min() and hi >= partial.max()

    def test_chained_swaps_and_deltas_stay_consistent(self, rng):
        """Swaps rebuild exactly; deltas keep the bounds sound in between,
        including the delta that crosses the amortized exact rebuild."""
        scorer, normalized = _clustered_skewed_scorer(n_s=1024, n_r=32, block_size=64)
        attribute = np.asarray(normalized.attributes[0])
        # Four deltas between swaps cover the first ones; the eleven-delta
        # run at the end crosses 32 widened rows and re-tightens.
        schedule = ["delta", "swap", "delta", "delta", "swap"] + ["delta"] * 11
        for action in schedule:
            if action == "swap":
                attribute = rng.standard_normal(attribute.shape)
                scorer.update_table(0, attribute)
            else:
                rows = rng.choice(attribute.shape[0], size=3, replace=False)
                new_values = rng.standard_normal((3, attribute.shape[1])) * 20
                delta = MatrixDelta.upsert(np.sort(rows), new_values, attribute)
                attribute = np.asarray(delta.apply_to(attribute))
                scorer.apply_delta(0, delta)
            snapshot = scorer.current_snapshot()
            fresh = ZoneMaps.build(snapshot.zones.index, snapshot.partials)
            if snapshot.zones.widened[0] == 0:
                _assert_tight(snapshot.zones, fresh)
            else:
                _assert_contains(snapshot.zones, fresh)
            _assert_exact(scorer, k_values=(5, 20), outputs=(0,))
        assert snapshot.zones.widened[0] == 0  # the last delta re-tightened

    def test_topk_pinned_snapshot_survives_swap(self, rng):
        """A pinned snapshot keeps answering with its own bounds + partials."""
        scorer, normalized = _clustered_skewed_scorer(n_s=1024, n_r=32, block_size=64)
        pinned = scorer.current_snapshot()
        expected = scorer.top_k(10, snapshot=pinned)
        scorer.update_table(0, rng.standard_normal(
            np.asarray(normalized.attributes[0]).shape))
        replay = scorer.top_k(10, snapshot=pinned)
        np.testing.assert_array_equal(replay.rows, expected.rows)
        np.testing.assert_array_equal(replay.scores, expected.scores)


class TestPruning:
    def test_clustered_skew_skips_majority_of_blocks(self):
        scorer, _ = _clustered_skewed_scorer()
        result = scorer.top_k(16)
        stats = result.stats
        assert stats["pruned"]
        assert stats["blocks_skipped"] > stats["blocks_total"] // 2
        assert stats["rows_scored"] < scorer.n_rows // 2

    def test_full_scan_fallback_when_k_covers_the_data(self, single_join_dense):
        _, normalized, _ = single_join_dense
        scorer = FactorizedScorer(_random_export(normalized), normalized,
                                  zone_block_size=16)
        result = scorer.top_k(scorer.n_rows)
        assert not result.stats["pruned"]
        assert result.stats["rows_scored"] == scorer.n_rows

    def test_partial_score_bounds_cover_all_adhoc_requests(self):
        scorer, normalized = _clustered_skewed_scorer(m=1)
        snapshot = scorer.current_snapshot()
        (lo, hi), = scorer.partial_score_bounds()
        partial = snapshot.partials[0]
        assert lo == partial[:, 0].min() and hi == partial[:, 0].max()


class TestService:
    def test_service_topk_matches_scorer_and_counts(self):
        scorer, _ = _clustered_skewed_scorer()
        service = ScoringService(scorer)
        direct = scorer.top_k(12, largest=False, output=1)
        via_service = service.top_k(12, largest=False, output=1)
        np.testing.assert_array_equal(via_service.rows, direct.rows)
        np.testing.assert_array_equal(via_service.scores, direct.scores)
        stats = service.stats()
        assert stats["topk_requests"] == 1
        assert (stats["topk_blocks_visited"] + stats["topk_blocks_skipped"]
                == direct.stats["blocks_total"])
        assert stats["topk_rows_scored"] == direct.stats["rows_scored"]

    def test_service_topk_after_delta(self, rng):
        scorer, normalized = _clustered_skewed_scorer(n_s=1024, n_r=32, block_size=64)
        service = ScoringService(scorer)
        attribute = np.asarray(normalized.attributes[0])
        delta = MatrixDelta.upsert(np.array([2, 9]),
                                   rng.standard_normal((2, attribute.shape[1])) * 30,
                                   attribute)
        service.apply_delta(0, delta)
        full = scorer.score_rows(np.arange(scorer.n_rows))
        ref_rows, _ = full_scan_top_k(full[:, 0], 8)
        np.testing.assert_array_equal(service.top_k(8).rows, ref_rows)


class TestLegacySnapshots:
    def test_zoneless_snapshot_falls_back_to_full_scan(self, single_join_dense):
        """Hand-built snapshots without zone maps still answer exactly."""
        from repro.serve import ServingSnapshot

        _, normalized, _ = single_join_dense
        scorer = FactorizedScorer(_random_export(normalized), normalized)
        bare = ServingSnapshot(scorer.current_snapshot().partials)
        assert bare.zones is None
        result = scorer.top_k(5, snapshot=bare)
        full = scorer.score_rows(np.arange(scorer.n_rows), snapshot=bare)
        ref_rows, _ = full_scan_top_k(full[:, 0], 5)
        np.testing.assert_array_equal(result.rows, ref_rows)
        assert not result.stats["pruned"]
