"""Validation of the cost-based adaptive planner (``engine="auto"``).

Over the same (tuple ratio, feature ratio) sweep grid as the Section 5.1
decision-rule benchmark, this module measures a logistic-regression GD fit
under every hand-picked configuration -- materialized vs. factorized layout x
eager vs. lazy engine x serial vs. 2-shard execution -- then asks the planner
to choose.  The acceptance bar: at every grid point the configuration
``engine="auto"`` selects must run within 1.5x of the fastest hand-picked
configuration (selection quality is what is scored; the planner's own
overhead is a one-time microbenchmark probe cached on disk).

Run styles:

* ``pytest benchmarks/bench_auto_planner.py`` -- the full grid with
  pytest-benchmark timing (like every other module here);
* ``python benchmarks/bench_auto_planner.py --smoke`` -- a reduced grid for
  CI; writes ``benchmarks/results/auto_planner.json`` (per-point plans +
  evaluations + the calibration profile) as a build artifact either way.
"""

from __future__ import annotations

import argparse
import json
import pathlib
import sys
from typing import Dict, List, Sequence, Tuple

import numpy as np

from repro.bench.harness import PlanEvaluation, measure
from repro.ml.logistic_regression import LogisticRegressionGD

RESULTS_DIR = pathlib.Path(__file__).parent / "results"
RESULTS_FILE = RESULTS_DIR / "auto_planner.json"

#: acceptance factor: auto-picked plan vs. fastest hand-picked configuration
ACCEPTANCE_FACTOR = 1.5

#: hand-picked configurations: (factorized, engine, n_jobs)
Config = Tuple[bool, str, int]
HAND_PICKED: Tuple[Config, ...] = (
    (False, "eager", 1),
    (False, "lazy", 1),
    (True, "eager", 1),
    (True, "lazy", 1),
    (False, "eager", 2),
    (True, "eager", 2),
)

FULL_GRID = dict(tuple_ratios=(1, 2, 5, 10, 20), feature_ratios=(0.25, 0.5, 1, 2, 4),
                 attribute_rows=1_500, max_iter=5, repeats=3)
# Smoke scale: big enough that per-fit timings are in the milliseconds (a
# 300-row grid measures ~100 us fits, which cold-runner noise can spread by
# several x between identical workloads).
SMOKE_GRID = dict(tuple_ratios=(2, 10), feature_ratios=(0.5, 2),
                  attribute_rows=600, max_iter=5, repeats=3)


def _config_label(config: Config) -> str:
    factorized, engine, n_jobs = config
    layout = "factorized" if factorized else "materialized"
    shards = f" x{n_jobs}" if n_jobs > 1 else ""
    return f"{layout}/{engine}{shards}"


def _labels_for(n_rows: int, seed: int = 23) -> np.ndarray:
    rng = np.random.default_rng(seed)
    return np.where(rng.standard_normal(n_rows) > 0, 1.0, -1.0)


def evaluate_point(tuple_ratio: float, feature_ratio: float, attribute_rows: int,
                   max_iter: int, repeats: int) -> Tuple[PlanEvaluation, dict]:
    """Measure every configuration at one grid point and score the auto pick."""
    from repro.bench.experiments import build_pk_fk_dataset

    dataset = build_pk_fk_dataset(tuple_ratio, feature_ratio,
                                  num_attribute_rows=attribute_rows)
    normalized, materialized = dataset.normalized, dataset.materialized
    y = _labels_for(normalized.shape[0])

    def fit(config: Config):
        factorized, engine, n_jobs = config
        data = normalized if factorized else materialized
        LogisticRegressionGD(max_iter=max_iter, engine=engine, n_jobs=n_jobs
                             ).fit(data, y)

    # One untimed pass over every configuration first: the very first fits of
    # a process pay one-time costs (lazy-engine imports, BLAS threading
    # warm-up) that would otherwise land on whichever config is measured
    # first and masquerade as a planner miss on cold CI runners.
    for config in HAND_PICKED:
        fit(config)

    timings: Dict[Config, float] = {}
    for config in HAND_PICKED:
        timings[config] = measure(lambda c=config: fit(c),
                                  label=_config_label(config), repeats=repeats).best

    auto = LogisticRegressionGD(max_iter=max_iter, engine="auto")
    auto.fit(normalized, y)
    plan = auto.plan_
    auto_config: Config = (plan.factorized, plan.engine, plan.n_jobs)
    if auto_config not in timings:  # plan outside the hand-picked set: measure it
        timings[auto_config] = measure(lambda: fit(auto_config),
                                       label=_config_label(auto_config),
                                       repeats=repeats).best

    best_config = min(HAND_PICKED, key=lambda c: timings[c])
    evaluation = PlanEvaluation(
        parameters={"tuple_ratio": tuple_ratio, "feature_ratio": feature_ratio},
        auto_label=_config_label(auto_config),
        auto_seconds=timings[auto_config],
        best_label=_config_label(best_config),
        best_seconds=timings[best_config],
    )
    record = {
        "tuple_ratio": tuple_ratio,
        "feature_ratio": feature_ratio,
        "timings": {_config_label(c): s for c, s in timings.items()},
        "auto": _config_label(auto_config),
        "best": _config_label(best_config),
        "slowdown": evaluation.slowdown,
        "plan": plan.to_json(),
    }
    return evaluation, record


def run_sweep(tuple_ratios: Sequence[float], feature_ratios: Sequence[float],
              attribute_rows: int, max_iter: int, repeats: int
              ) -> Tuple[List[PlanEvaluation], List[dict]]:
    evaluations, records = [], []
    for tr in tuple_ratios:
        for fr in feature_ratios:
            evaluation, record = evaluate_point(tr, fr, attribute_rows,
                                                max_iter, repeats)
            evaluations.append(evaluation)
            records.append(record)
    return evaluations, records


def write_results(records: List[dict]) -> pathlib.Path:
    from repro.core.planner import get_profile

    RESULTS_DIR.mkdir(exist_ok=True)
    payload = {
        "acceptance_factor": ACCEPTANCE_FACTOR,
        "calibration": get_profile().to_json(),
        "points": records,
    }
    RESULTS_FILE.write_text(json.dumps(payload, indent=2, sort_keys=True) + "\n")
    return RESULTS_FILE


def test_auto_planner_within_factor_of_best(benchmark):
    """engine="auto" is never > 1.5x off the fastest hand-picked configuration."""
    def run():
        return run_sweep(**FULL_GRID)

    evaluations, records = benchmark.pedantic(run, rounds=1, iterations=1)
    write_results(records)
    assert len(evaluations) == len(FULL_GRID["tuple_ratios"]) * len(FULL_GRID["feature_ratios"])
    violations = [e for e in evaluations if not e.within(ACCEPTANCE_FACTOR)]
    assert not violations, "\n".join(
        f"TR={e.parameters['tuple_ratio']:g} FR={e.parameters['feature_ratio']:g}: "
        f"auto {e.auto_label} {e.auto_seconds * 1e3:.2f} ms vs best {e.best_label} "
        f"{e.best_seconds * 1e3:.2f} ms ({e.slowdown:.2f}x)"
        for e in violations
    )


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--smoke", action="store_true",
                        help="reduced grid for CI (seconds, not minutes)")
    args = parser.parse_args(argv)
    grid = SMOKE_GRID if args.smoke else FULL_GRID
    evaluations, records = run_sweep(**grid)
    if not all(ev.within(ACCEPTANCE_FACTOR) for ev in evaluations):
        # One retry with more repeats before declaring a regression: the gate
        # measures wall clock on shared runners, and a single noisy repeat
        # must not fail the build when the selection itself is sound.
        retry = dict(grid, repeats=grid["repeats"] + 2)
        print("acceptance miss on first pass; re-measuring with more repeats")
        evaluations, records = run_sweep(**retry)
    path = write_results(records)
    print(f"wrote {path}")
    worst = 0.0
    for ev in evaluations:
        print(f"TR={ev.parameters['tuple_ratio']:>4g} FR={ev.parameters['feature_ratio']:>5g}  "
              f"auto={ev.auto_label:<22} best={ev.best_label:<22} "
              f"slowdown={ev.slowdown:.2f}x")
        worst = max(worst, ev.slowdown)
    ok = all(ev.within(ACCEPTANCE_FACTOR) for ev in evaluations)
    print(f"worst slowdown {worst:.2f}x (acceptance {ACCEPTANCE_FACTOR}x): "
          f"{'OK' if ok else 'FAIL'}")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
