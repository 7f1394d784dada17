"""Observability demo: one instrumented fit / delta / serve run, exported.

Turns the obs layer on, runs a small end-to-end workload -- an auto-planned
gradient-descent fit on a normalized star schema, a lazy fit that warms the
memoization cache, a row delta absorbed by both the cache and the serving
partials, micro-batched scoring and a top-k query -- and then prints the
span tree, the plan's predicted-vs-measured line and the metrics summary,
and writes the JSON-lines and Prometheus exports next to the benchmark
results (CI uploads them as artifacts).

Run with::

    python examples/observability_demo.py [output_dir]
"""

from __future__ import annotations

import pathlib
import sys

import numpy as np

from repro import LinearRegressionGD, NormalizedMatrix, obs
from repro.core.delta import MatrixDelta
from repro.la.ops import indicator_from_labels
from repro.ml import ServingExport
from repro.serve import FactorizedScorer, ScoringService

DEFAULT_OUTPUT = pathlib.Path(__file__).parent.parent / "benchmarks" / "results"


def build_star_schema(n_s: int = 5_000, n_r: int = 100, d_s: int = 4,
                      d_r: int = 6, seed: int = 0):
    rng = np.random.default_rng(seed)
    entity = rng.standard_normal((n_s, d_s))
    attribute = rng.standard_normal((n_r, d_r))
    labels = np.concatenate([np.arange(n_r),
                             rng.integers(0, n_r, size=n_s - n_r)])
    indicator = indicator_from_labels(labels, num_columns=n_r)
    return NormalizedMatrix(entity, [indicator], [attribute]), rng


def main(argv=None) -> int:
    args = list(sys.argv[1:] if argv is None else argv)
    output_dir = pathlib.Path(args[0]) if args else DEFAULT_OUTPUT
    output_dir.mkdir(parents=True, exist_ok=True)

    obs.enable()
    normalized, rng = build_star_schema()
    target = rng.standard_normal(normalized.shape[0])

    # 1. Auto-planned fit: the planner picks the engine/backend, the obs layer
    # records the choice, and the measured runtime lands back on the plan.
    model = LinearRegressionGD(engine="auto", max_iter=5).fit(normalized, target)
    print("== plan (with feedback) ==")
    print(model.plan_.explain())
    print()

    # 2. Lazy fit: crossprod(T) and T^T Y are evaluated once each.  A cold
    # cache misses and stores them; they hit only if the auto fit above
    # already ran on the lazy engine.
    LinearRegressionGD(engine="lazy", max_iter=5).fit(normalized, target)

    # 3. A row delta, absorbed incrementally by the lazy cache...
    delta = MatrixDelta.upsert(
        rng.choice(normalized.attributes[0].shape[0], size=3, replace=False),
        rng.standard_normal((3, normalized.attributes[0].shape[1])),
        normalized.attributes[0])
    normalized.lazy().crossprod().evaluate()
    normalized.apply_delta(0, delta)

    # 4. ... and by the serving partials, between scoring traffic.
    export = ServingExport("linear_regression",
                           rng.standard_normal((normalized.logical_cols, 2)))
    service = ScoringService(
        FactorizedScorer(export, normalized, zone_block_size=256),
        max_batch_size=64)
    service.score_rows(np.arange(512))
    service.apply_delta(0, delta)
    service.top_k(10)

    print("== span trees ==")
    for root in obs.recent_spans():
        print(root.render())
    print()
    print("== metrics ==")
    print(obs.summary())

    jsonl_path = output_dir / "obs_demo.jsonl"
    prom_path = output_dir / "obs_demo.prom"
    obs.to_jsonl(str(jsonl_path))
    prom_path.write_text(obs.to_prometheus())
    print()
    print(f"wrote {jsonl_path} and {prom_path}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
