"""Top-k scoring: zone-map bound pruning vs. the full-scan baseline.

The top-k subsystem claims that "give me the k best entities" should cost
work proportional to the blocks that *could* hold winners, not to ``N`` --
whenever high scores cluster.  This module measures that claim on a skewed
clustered workload (heavy-tailed attribute scaling, entity rows sorted by
their foreign key so winners share blocks, the layout range partitioning or
time-ordered ingestion naturally produces):

* **Latency** -- :meth:`FactorizedScorer.top_k` (seed sample, blocks visited
  in decreasing bound order, prune on the k-th best) versus the baseline of
  one vectorized ``score_rows`` over all ``N`` rows followed by the
  ``full_scan_top_k`` selection.  The acceptance gate asserts the pruned
  search is >= 3x faster wherever ``k <= N / 100`` and ``N >= 1e5`` (with
  one noise retry, like the other benchmark gates).
* **Work skipped** (timing-independent) -- the pruned search must skip a
  majority of blocks and score fewer than half the rows at those points; the
  same stats are also written to the results file as a diagnostic.

Both sides return identical rows and scores -- exactness is asserted at
every measured point, so a pruning bug can never masquerade as a speedup.

Run styles:

* ``pytest benchmarks/bench_topk.py`` -- the full grid with pytest-benchmark
  timing plus timing-independent exactness/pruning gates;
* ``python benchmarks/bench_topk.py --smoke`` -- a reduced grid for CI;
  writes ``benchmarks/results/topk.json``.
"""

from __future__ import annotations

import argparse
import json
import pathlib
import sys
from typing import Dict, List, Sequence, Tuple

import numpy as np
from scipy import sparse

from repro.bench.harness import SpeedupResult, compare
from repro.core.delta import MatrixDelta
from repro.core.normalized_matrix import NormalizedMatrix
from repro.ml import ServingExport
from repro.serve import FactorizedScorer, ServingSnapshot, ZoneMaps
from repro.serve.topk import full_scan_top_k

RESULTS_DIR = pathlib.Path(__file__).parent / "results"
RESULTS_FILE = RESULTS_DIR / "topk.json"

FULL_GRID = dict(entity_rows=(100_000, 200_000), ks=(10, 100, 1000),
                 table_rows=256, table_width=40, outputs=2, repeats=5)
SMOKE_GRID = dict(entity_rows=(100_000,), ks=(100, 1000),
                  table_rows=256, table_width=40, outputs=2, repeats=3)

#: acceptance: the pruned search beats the full scan by at least this
#: wherever k <= N / TARGET_K_DIVISOR and N >= TARGET_ENTITY_ROWS.
TARGET_SPEEDUP = 3.0
TARGET_K_DIVISOR = 100
TARGET_ENTITY_ROWS = 100_000

#: timing-independent floor: at accepted points the search must skip a
#: majority of blocks and score fewer than half the rows.
SKIP_MAJORITY = 0.5

#: timing-independent floor: under a stream of 1% deltas, top-k over the
#: widened zone maps must skip at least this share of the blocks that
#: freshly built bounds skip on the same snapshot.
WIDENED_SKIP_FLOOR = 0.9


def _lognormal_rows(rng: np.random.Generator, rows: int, width: int) -> np.ndarray:
    """Attribute rows with log-normal scale factors: a few dominate the range."""
    return np.exp(3.0 * rng.standard_normal((rows, 1))) * rng.standard_normal((rows, width))


def _skewed_schema(entity_rows: int, table_rows: int, table_width: int,
                   outputs: int, seed: int = 29):
    """``(normalized, export)`` of a star schema whose score mass clusters.

    Each attribute row gets a log-normal scale factor, so a handful of
    attribute rows dominate the score range; sorting the entity's foreign
    keys gives rows that share an attribute row adjacent positions -- the
    clustered layout (range partitioning, time-ordered ingestion) that makes
    zone maps selective.  Entity features are kept small so the gathered
    partial dominates each score.
    """
    rng = np.random.default_rng(seed)
    entity = 0.01 * rng.standard_normal((entity_rows, 4))
    codes = np.sort(np.concatenate([
        rng.permutation(table_rows),  # PK-FK cover: every attribute row used
        rng.integers(0, table_rows, entity_rows - table_rows),
    ]))
    indicator = sparse.csr_matrix(
        (np.ones(entity_rows), (np.arange(entity_rows), codes)),
        shape=(entity_rows, table_rows),
    )
    table = _lognormal_rows(rng, table_rows, table_width)
    normalized = NormalizedMatrix(entity, [indicator], [table])
    export = ServingExport(
        "linear_regression",
        rng.standard_normal((4 + table_width, outputs)),
    )
    return normalized, export


def _build_skewed_scorer(entity_rows: int, table_rows: int, table_width: int,
                         outputs: int, block_size: int = 1024,
                         seed: int = 29) -> FactorizedScorer:
    """A star-schema scorer whose score mass clusters in few blocks."""
    normalized, export = _skewed_schema(entity_rows, table_rows, table_width,
                                        outputs, seed)
    return FactorizedScorer(export, normalized, zone_block_size=block_size)


def evaluate_point(scorer: FactorizedScorer, entity_rows: int, k: int,
                   repeats: int) -> Tuple[SpeedupResult, dict]:
    """Time pruned top-k vs. the full-scan baseline at one (N, k) point."""
    all_rows = np.arange(entity_rows, dtype=np.int64)

    def full_scan():
        return full_scan_top_k(scorer.score_rows(all_rows)[:, 0], k)

    def pruned():
        return scorer.top_k(k)

    # Exactness first: a wrong answer must never time as a win.
    base_rows, base_scores = full_scan()
    result = pruned()
    np.testing.assert_array_equal(result.rows, base_rows)
    np.testing.assert_allclose(result.scores, base_scores, rtol=0, atol=0)

    timing = compare(
        full_scan, pruned,
        parameters={"entity_rows": entity_rows, "k": k},
        repeats=repeats,
    )
    stats = result.stats
    record = {
        "entity_rows": entity_rows,
        "k": k,
        "blocks_total": stats["blocks_total"],
        "blocks_visited": stats["blocks_visited"],
        "blocks_skipped": stats["blocks_skipped"],
        "rows_scored": stats["rows_scored"],
        "full_scan_seconds": timing.materialized_seconds,
        "pruned_seconds": timing.factorized_seconds,
        "speedup": timing.speedup,
    }
    return timing, record


def run_sweep(entity_rows: Sequence[int], ks: Sequence[int], table_rows: int,
              table_width: int, outputs: int,
              repeats: int) -> Tuple[List[SpeedupResult], List[dict]]:
    results, records = [], []
    for n in entity_rows:
        scorer = _build_skewed_scorer(n, table_rows, table_width, outputs)
        try:
            for k in ks:
                result, record = evaluate_point(scorer, n, k, repeats)
                results.append(result)
                records.append(record)
        finally:
            scorer.close()
    return results, records


def write_results(records: List[dict]) -> pathlib.Path:
    RESULTS_DIR.mkdir(exist_ok=True)
    RESULTS_FILE.write_text(
        json.dumps({"points": records}, indent=2, sort_keys=True) + "\n")
    return RESULTS_FILE


def _gated(parameters: Dict[str, float]) -> bool:
    return (parameters["entity_rows"] >= TARGET_ENTITY_ROWS
            and parameters["k"] * TARGET_K_DIVISOR <= parameters["entity_rows"])


def _acceptance(results: List[SpeedupResult]) -> Dict[str, bool]:
    """Per-point pass/fail at the corner the issue gates on."""
    return {
        f"n={r.parameters['entity_rows']:g},k={r.parameters['k']:g}":
            bool(r.speedup >= TARGET_SPEEDUP)
        for r in results if _gated(r.parameters)
    }


def _passes(results: List[SpeedupResult]) -> bool:
    verdict = _acceptance(results)
    return not verdict or all(verdict.values())


def _format(results: List[SpeedupResult]) -> str:
    return "\n".join(
        f"n={r.parameters['entity_rows']:>7g} k={r.parameters['k']:>5g}  "
        f"full={r.materialized_seconds * 1e3:8.3f} ms  "
        f"pruned={r.factorized_seconds * 1e3:8.3f} ms  speedup={r.speedup:.1f}x"
        for r in results
    )


# -- timing-independent gates (run in any environment) ------------------------

def test_pruned_top_k_is_exact_on_benchmark_workload():
    """Same rows, same scores, same order as the full scan -- both ends of k."""
    n = 20_000
    scorer = _build_skewed_scorer(n, 128, 12, 2, block_size=256)
    try:
        scores = scorer.score_rows(np.arange(n))
        for k in (1, 10, 200):
            for largest in (True, False):
                for output in (0, 1):
                    rows, expected = full_scan_top_k(scores[:, output], k, largest)
                    result = scorer.top_k(k, largest=largest, output=output)
                    np.testing.assert_array_equal(result.rows, rows)
                    np.testing.assert_allclose(result.scores, expected,
                                               rtol=0, atol=0)
    finally:
        scorer.close()


def test_skewed_workload_skips_majority_of_blocks():
    """At k <= N/100 the search visits a minority of blocks and rows."""
    n = 50_000
    scorer = _build_skewed_scorer(n, 256, 12, 2, block_size=512)
    try:
        result = scorer.top_k(n // 100)
        stats = result.stats
        assert stats["pruned"]
        assert stats["blocks_skipped"] > SKIP_MAJORITY * stats["blocks_total"], stats
        assert stats["rows_scored"] < n / 2, stats
    finally:
        scorer.close()


def test_widened_bounds_keep_pruning_under_delta_stream():
    """100 1% deltas of fresh log-normal rows: after each one, top-k over the
    widened zone maps skips >= 90% of the blocks fresh bounds would skip."""
    normalized, export = _skewed_schema(100_000, 256, 12, 2)
    scorer = FactorizedScorer(export, normalized)
    try:
        table = np.asarray(normalized.attributes[0])
        rng = np.random.default_rng(31)
        b = max(1, round(0.01 * table.shape[0]))
        worst = 1.0
        for _ in range(100):
            rows = np.sort(rng.choice(table.shape[0], size=b, replace=False))
            delta = MatrixDelta.upsert(rows, _lognormal_rows(rng, b, table.shape[1]),
                                       table)
            table = np.asarray(delta.apply_to(table))
            scorer.apply_delta(0, delta)
            snapshot = scorer.current_snapshot()
            fresh = ServingSnapshot(snapshot.partials, snapshot.version,
                                    ZoneMaps.build(snapshot.zones.index,
                                                   snapshot.partials))
            widened = scorer.top_k(100, snapshot=snapshot)
            rebuilt = scorer.top_k(100, snapshot=fresh)
            np.testing.assert_array_equal(widened.rows, rebuilt.rows)
            skipped = widened.stats["blocks_skipped"]
            reference = rebuilt.stats["blocks_skipped"]
            assert skipped >= WIDENED_SKIP_FLOOR * reference, (skipped, reference)
            if reference:
                worst = min(worst, skipped / reference)
        print(f"worst widened/fresh blocks-skipped ratio: {worst:.3f}")
    finally:
        scorer.close()


# -- timed gates (pytest-benchmark) -------------------------------------------

def test_pruned_top_k_beats_full_scan(benchmark):
    """Pruned top-k wins >= 3x at k <= N/100 on >= 1e5 skewed rows."""
    def run():
        return run_sweep(**FULL_GRID)

    results, records = benchmark.pedantic(run, rounds=1, iterations=1)
    write_results(records)
    assert len(results) == len(FULL_GRID["entity_rows"]) * len(FULL_GRID["ks"])
    assert _passes(results), _format(results)
    for record in records:
        if _gated({"entity_rows": record["entity_rows"], "k": record["k"]}):
            assert record["blocks_skipped"] > SKIP_MAJORITY * record["blocks_total"], (
                record)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--smoke", action="store_true", help="reduced grid for CI")
    args = parser.parse_args(argv)
    grid = SMOKE_GRID if args.smoke else FULL_GRID

    results, records = run_sweep(**grid)
    if not _passes(results):
        retry = dict(grid, repeats=grid["repeats"] + 2)
        print("acceptance miss on first pass; re-measuring with more repeats")
        results, records = run_sweep(**retry)
    path = write_results(records)
    print(f"wrote {path}")
    print(_format(results))
    for record in records:
        print(f"n={record['entity_rows']:>7g} k={record['k']:>5g}  "
              f"blocks {record['blocks_visited']}/{record['blocks_total']} visited "
              f"({record['blocks_skipped']} skipped), "
              f"{record['rows_scored']:,} rows scored")
    ok = _passes(results)
    skipped_ok = all(
        record["blocks_skipped"] > SKIP_MAJORITY * record["blocks_total"]
        for record in records
        if _gated({"entity_rows": record["entity_rows"], "k": record["k"]})
    )
    print(f"pruned top-k >= {TARGET_SPEEDUP:g}x at k <= N/{TARGET_K_DIVISOR:g}, "
          f"N >= {TARGET_ENTITY_ROWS:g}: {'OK' if ok else 'FAIL'}")
    print(f"majority of blocks skipped at gated points: "
          f"{'OK' if skipped_ok else 'FAIL'}")
    return 0 if ok and skipped_ok else 1


if __name__ == "__main__":
    sys.exit(main())
