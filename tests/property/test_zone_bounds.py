"""Zone-map bounds stay sound under any sequence of row deltas.

Delta patches *widen* the per-block score bounds instead of recomputing
them, and re-tighten them exactly only once the widened rows add up to the
table's row count (:meth:`repro.serve.bounds.ZoneMaps.patch_table`).  The
contract that top-k pruning relies on is containment, not tightness, so this
suite drives seeded random star schemas -- random block sizes, sorted and
shuffled foreign keys, one or two attribute tables -- through 40+ mixed
deltas each: heavy-tailed upserts, a hot row replaced by a small one (the
case that leaves a widened bound loose), appends with and without gaps, and
tombstones.  After every delta it checks that

* every computed score lies inside its block's ``[lower, upper]``;
* every partial-score row lies inside ``partial_score_bounds()``;
* ``top_k`` equals the full-scan reference for ``k`` in {1, 5, N/3}.

All data is integer-valued and small enough that every product and sum is
exact in float64, so the containment checks are bit-exact.  The failing seed
and step are embedded in every assertion message for replay.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.core.delta import MatrixDelta
from repro.core.normalized_matrix import NormalizedMatrix
from repro.la.ops import indicator_from_labels
from repro.ml import ServingExport
from repro.serve import FactorizedScorer, full_scan_top_k

SEEDS = range(60)
DELTAS_PER_CASE = 40


def _heavy_rows(rng: np.random.Generator, count: int, width: int) -> np.ndarray:
    """Small integer rows, a few of them scaled up by 1000 (the hot rows)."""
    rows = rng.integers(-4, 5, size=(count, width)).astype(np.float64)
    hot = rng.random(count) < 0.2
    rows[hot] *= 1000.0
    return rows


def _build_case(seed: int):
    rng = np.random.default_rng(seed)
    n_tables = int(rng.integers(1, 3))
    n_s = int(rng.integers(64, 1200))
    d_s = int(rng.integers(0, 4))
    entity = (rng.integers(-3, 4, size=(n_s, d_s)).astype(np.float64)
              if d_s else None)
    indicators, attributes = [], []
    for _ in range(n_tables):
        n_r = int(rng.integers(4, min(48, n_s) + 1))
        labels = np.concatenate([np.arange(n_r),
                                 rng.integers(0, n_r, size=n_s - n_r)])
        if rng.random() < 0.5:
            labels = np.sort(labels)  # clustered keys: blocks share rows
        else:
            rng.shuffle(labels)
        indicators.append(indicator_from_labels(labels, num_columns=n_r))
        attributes.append(_heavy_rows(rng, n_r, int(rng.integers(1, 5))))
    normalized = NormalizedMatrix(entity, indicators, attributes)
    m = int(rng.integers(1, 3))
    weights = rng.integers(-3, 4, size=(normalized.logical_cols, m)).astype(np.float64)
    scorer = FactorizedScorer(ServingExport("linear_regression", weights), normalized,
                              # at most ~48 blocks keeps the top-k sweeps quick
                              zone_block_size=int(rng.integers(max(1, n_s // 48), 129)))
    return rng, scorer, attributes


def _random_delta(rng: np.random.Generator, attribute: np.ndarray) -> MatrixDelta:
    """One of: hot-row replacement, upsert, append, tombstone."""
    n_rows, width = attribute.shape
    kind = rng.choice(["hot", "upsert", "append", "tombstone"], p=[0.3, 0.35, 0.15, 0.2])
    if kind == "hot":
        hottest = int(np.argmax(np.abs(attribute).max(axis=1)))
        small = rng.integers(-1, 2, size=(1, width)).astype(np.float64)
        return MatrixDelta.upsert(np.array([hottest]), small, attribute)
    if kind == "append":
        # Leave a gap half the time: unnamed appended rows score zero.
        start = n_rows + int(rng.integers(0, 2))
        rows = np.arange(start, start + int(rng.integers(1, 4)))
        return MatrixDelta.upsert(rows, _heavy_rows(rng, rows.shape[0], width), attribute)
    b = int(rng.integers(1, max(2, n_rows // 4) + 1))
    rows = np.sort(rng.choice(n_rows, size=b, replace=False))
    if kind == "tombstone":
        return MatrixDelta.tombstone(rows, attribute)
    return MatrixDelta.upsert(rows, _heavy_rows(rng, b, width), attribute)


def _apply(attribute: np.ndarray, delta: MatrixDelta) -> np.ndarray:
    """The post-delta table, appends (and the zero rows of any gap) included."""
    after = np.zeros((delta.num_rows_after, attribute.shape[1]))
    after[: attribute.shape[0]] = attribute
    after[delta.rows] = delta.new
    return after


def _check_snapshot(scorer: FactorizedScorer, step: int, where: str) -> None:
    """Check the current snapshot's bounds and top-k answers.

    Containment is checked for every output; the top-k comparison (the
    costly part) rotates through the outputs step by step.
    """
    snapshot = scorer.current_snapshot()
    zones = snapshot.zones
    n = scorer.n_rows
    scores = scorer.score_rows(np.arange(n), snapshot=snapshot)
    block_of = np.arange(n) // zones.index.block_size
    assert np.all(scores >= zones.lower[block_of]), where
    assert np.all(scores <= zones.upper[block_of]), where
    for output in range(scorer.n_outputs):
        bounds = scorer.partial_score_bounds(output, snapshot=snapshot)
        for (lo, hi), partial in zip(bounds, snapshot.partials):
            assert lo <= partial[:, output].min(), where
            assert partial[:, output].max() <= hi, where
    output = step % scorer.n_outputs
    for k in (1, 5, n // 3):
        for largest in (True, False):
            result = scorer.top_k(k, largest=largest, output=output, snapshot=snapshot)
            rows, expected = full_scan_top_k(scores[:, output], k, largest)
            assert np.array_equal(result.rows, rows), f"{where} k={k} largest={largest}"
            assert np.array_equal(result.scores, expected), f"{where} k={k}"


@pytest.mark.parametrize("seed", SEEDS)
def test_zone_bounds_contain_every_score_under_deltas(seed):
    rng, scorer, attributes = _build_case(seed)
    try:
        _check_snapshot(scorer, 0, f"seed={seed} initial")
        for step in range(DELTAS_PER_CASE):
            table = int(rng.integers(0, len(attributes)))
            delta = _random_delta(rng, attributes[table])
            scorer.apply_delta(table, delta)
            attributes[table] = _apply(attributes[table], delta)
            _check_snapshot(scorer, step + 1, f"seed={seed} step={step}")
    finally:
        scorer.close()
