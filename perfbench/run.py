"""The repository benchmark: one command, three closed-loop workloads.

Usage (from the repository root)::

    python3 perfbench/run.py --workload retrain --seed 1 --seconds 30 --trace 0

``--trace 0`` measures the end-to-end metrics with tracing off.  ``--trace 1``
runs the same loop for half the time untraced and half the time with the
per-layer wrappers of ``tracer.py`` installed and ``repro.obs`` on, and
reports the per-layer metrics (per operation) plus the tracing overhead.

Human-readable report lines come first; the last line of standard output is
one JSON object ``{"correct", "attempted", "failed", "metrics"}``.  Workload
design (why each workload, the tail percentiles, the layer -> end-to-end
map) is recorded in ``perfbench/design.json``.

The program is imported from ``src/`` of the checkout the command runs in;
without it the command exits with status 2 and prints no result.
"""

from __future__ import annotations

import argparse
import contextlib
import gc
import hashlib
import json
import math
import os
import pathlib
import platform
import resource
import statistics
import subprocess
import sys
import time
import traceback
from typing import Dict, List, Optional, Tuple

BENCH_DIR = pathlib.Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
OUT_DIR = BENCH_DIR / "out"

#: Set-ups per untraced run: at least this many, and more until they have
#: taken SETUP_SECONDS; ``setup_s`` is their median.
SETUP_REPEATS = 5
SETUP_SECONDS = 3.0
#: Percentile of ``op_tail_ms`` per workload: one that keeps at least ten
#: samples beyond it at the benchmark's run length and repeated across runs
#: within the metric's bound (see design.json); the per-kind tails in the
#: report follow the ten-samples rule alone.
TAIL_PERCENTILE = {"retrain": 75.0, "auto_sweep": 95.0, "serve_mixed": 90.0}
#: Ladder the per-kind report tails are picked from.
TAIL_LADDER = (50.0, 75.0, 90.0, 95.0, 99.0, 99.9)

#: Metric names and units, as declared in BENCHMARK.json.
SPEC_FILE = ROOT / "BENCHMARK.json"


def declared_units(section: str) -> Dict[str, str]:
    """``{name: unit}`` of the ``end_to_end`` or ``per_layer`` metrics."""
    spec = json.loads(SPEC_FILE.read_text())
    return {metric["name"]: metric["unit"] for metric in spec[section]}


BLAS_THREAD_VARIABLES = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS")


class ProgramMissing(RuntimeError):
    """The checkout holds no ``src/repro`` to benchmark."""


def prepare_environment() -> None:
    """Pin the program's configuration and make ``src/`` importable.

    The planner's calibration is pinned to its deterministic constants (a
    stale probe cached under the home directory could flip ``engine="auto"``
    plans between runs), its cache path points inside the checkout, and the
    observability gate starts off.  BLAS runs one thread per call, so the
    shard layer's two worker threads are the only parallelism: threaded BLAS
    inside threaded shards oversubscribes a two-core box and made cold fits
    swing by 10x between runs.  Must run before NumPy is imported.
    """
    src = ROOT / "src"
    if not (src / "repro" / "__init__.py").is_file():
        raise ProgramMissing(f"no program sources under {src}")
    os.environ["REPRO_CALIBRATION"] = "default"
    os.environ["REPRO_CALIBRATION_CACHE"] = str(OUT_DIR / "calibration-cache.json")
    os.environ["REPRO_OBS"] = "0"
    for name in BLAS_THREAD_VARIABLES:
        os.environ[name] = "1"
    if str(src) not in sys.path:
        sys.path.insert(0, str(src))
    if str(BENCH_DIR) not in sys.path:
        sys.path.insert(0, str(BENCH_DIR))


# ---------------------------------------------------------------------------
# Statistics
# ---------------------------------------------------------------------------

def percentile(values_ns: List[int], q: float) -> float:
    """The *q*-th percentile in milliseconds (linear interpolation); NaN
    when there are no values, as when every operation failed."""
    import numpy as np

    if not values_ns:
        return math.nan
    return float(np.percentile(np.asarray(values_ns, dtype=np.float64), q)) / 1e6


def tail_percentile(count: int) -> Optional[float]:
    """Highest ladder percentile with at least ten samples beyond it."""
    best = None
    for q in TAIL_LADDER:
        if count * (1.0 - q / 100.0) >= 10:
            best = q
    return best


# ---------------------------------------------------------------------------
# The closed loop
# ---------------------------------------------------------------------------

class LoopResult:
    def __init__(self):
        self.latencies: Dict[str, List[int]] = {}
        self.attempted = 0
        self.failed = 0

    def all_latencies(self) -> List[int]:
        return [v for values in self.latencies.values() for v in values]


#: Tracebacks kept per run; failures beyond these are only counted.
MAX_ERRORS = 5


def closed_loop(workload, seconds: float, errors: List[str],
                untimed=contextlib.nullcontext) -> LoopResult:
    """One client thread: prepare (untimed), execute (timed), observe (untimed).

    ``prepare`` and ``observe`` run inside the ``untimed()`` context.  Failed
    operations are counted and never retried.
    """
    result = LoopResult()
    gc.collect()
    clock = time.perf_counter_ns
    deadline = clock() + int(seconds * 1e9)
    while clock() < deadline:
        with untimed():
            op = workload.prepare()
        result.attempted += 1
        started = clock()
        try:
            output = workload.execute(op)
        except Exception:  # a failed operation is a result, not a crash
            result.failed += 1
            if len(errors) < MAX_ERRORS:
                errors.append(traceback.format_exc())
            continue
        elapsed = clock() - started
        result.latencies.setdefault(op.kind, []).append(elapsed)
        try:
            with untimed():
                correct = workload.observe(op, output)
        except Exception:
            correct = False
            if len(errors) < MAX_ERRORS:
                errors.append(traceback.format_exc())
        if not correct:
            result.failed += 1
    return result


@contextlib.contextmanager
def _untraced(tracer):
    """Keep the benchmark's own untimed work out of the traced figures: the
    wrappers record no spans and ``repro.obs`` counts nothing meanwhile."""
    from repro import obs

    tracer.paused = True
    obs.disable()
    try:
        yield
    finally:
        obs.enable()
        tracer.paused = False


def _obs_off(errors: List[str], where: str) -> bool:
    from repro import obs

    if obs.enabled():
        errors.append(f"repro.obs was enabled {where} an untraced timed loop")
        return False
    return True


# ---------------------------------------------------------------------------
# Run record
# ---------------------------------------------------------------------------

def _git_commit() -> Optional[str]:
    """HEAD of the checkout, or None when the checkout is not its own git repository."""
    try:
        done = subprocess.run(["git", "rev-parse", "--show-toplevel", "HEAD"], cwd=ROOT,
                              capture_output=True, text=True, timeout=10)
    except (OSError, subprocess.SubprocessError):
        return None
    lines = done.stdout.split()
    if done.returncode != 0 or len(lines) != 2 or pathlib.Path(lines[0]) != ROOT:
        return None
    return lines[1]


def _source_digest() -> str:
    digest = hashlib.sha256()
    for path in sorted((ROOT / "src").rglob("*.py")):
        digest.update(str(path.relative_to(ROOT)).encode())
        digest.update(path.read_bytes())
    return digest.hexdigest()[:16]


def run_config(workload_name: str, seed: int, trace: bool) -> Dict[str, object]:
    import numpy
    import scipy
    from repro.la import kernels

    return {
        "workload": workload_name,
        "seed": seed,
        "trace": trace,
        "git_commit": _git_commit(),
        "source_sha256": _source_digest(),
        "nproc": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else None,
        "blas_threads": {name: os.environ.get(name, "unset")
                         for name in BLAS_THREAD_VARIABLES},
        "kernels_active": kernels.active(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "python": platform.python_version(),
        "calibration": os.environ.get("REPRO_CALIBRATION"),
    }


# ---------------------------------------------------------------------------
# Metrics
# ---------------------------------------------------------------------------

def end_to_end_metrics(name: str, setup_seconds: List[float], peak_rss_mb: float,
                       loop: LoopResult) -> Dict[str, float]:
    return {
        "setup_s": statistics.median(setup_seconds),
        "peak_rss_mb": peak_rss_mb,
        "op_tail_ms": percentile(loop.all_latencies(), TAIL_PERCENTILE[name]),
    }


def loop_summary(loop: LoopResult) -> Dict[str, float]:
    """Median latency and throughput of an untraced loop.

    Reported with the per-layer metrics rather than gated end to end: on the
    reference box they did not repeat within any allowed bound (design.json).
    """
    latencies = loop.all_latencies()
    busy_s = sum(latencies) / 1e9
    return {
        "op_p50_ms": percentile(latencies, 50.0),
        "throughput_ops_s": len(latencies) / busy_s if busy_s else 0.0,
    }


def kind_report(latencies: Dict[str, List[int]]) -> List[Tuple[str, float, str, str]]:
    """(name, value, unit, note) of each operation or request kind's median
    and tail latency, named as in design.json (point reads in microseconds)."""
    rows = []
    for kind, values in latencies.items():
        unit = "us" if kind == "point" else "ms"
        scale = 1e3 if unit == "us" else 1.0
        rows.append((f"{kind}_p50_{unit}", percentile(values, 50.0) * scale, unit,
                     f"n={len(values)}"))
        tail = tail_percentile(len(values))
        if tail is not None and tail > 50.0:
            rows.append((f"{kind}_tail_{unit}", percentile(values, tail) * scale, unit,
                         f"p{tail:g} n={len(values)}"))
    return rows


def _counter_total(name: str) -> float:
    from repro import obs

    family = obs.REGISTRY.get(name)
    return float(family.value) if family is not None else 0.0


def _ratio(numerator: float, denominator: float) -> float:
    return numerator / denominator if denominator else 0.0


def per_layer_metrics(tracer, ops: int, before: Dict[str, float],
                      after: Dict[str, float], residual_ratios: List[float],
                      relational_s: float, untraced: LoopResult,
                      traced_p50: float) -> Dict[str, float]:
    """Per-operation layer metrics of one traced phase, plus the untraced
    phase's :func:`loop_summary` and the tracing overhead."""
    summary = loop_summary(untraced)
    untraced_p50 = summary["op_p50_ms"]
    self_ns = tracer.self_times()
    counts = tracer.span_counts()

    def layer_ms(layer: str, name: Optional[str] = None) -> float:
        total = sum(ns for (lay, nam), ns in self_ns.items()
                    if lay == layer and (name is None or nam == name))
        return _ratio(total / 1e6, ops)

    def layer_calls(layer: str) -> float:
        return _ratio(sum(n for (lay, _), n in counts.items() if lay == layer), ops)

    def delta(key: str) -> float:
        return after.get(key, 0.0) - before.get(key, 0.0)

    patch_calls = counts.get(("serve.bounds", "ZoneMaps.patch_table"), 0)
    return {
        "la.kernels.self_ms": layer_ms("la.kernels"),
        "la.kernels.calls": layer_calls("la.kernels"),
        "la.kernels.fallback_frac": _ratio(delta("kernel_fallbacks"),
                                           delta("kernel_dispatches")),
        "core.rewrite.self_ms": layer_ms("core.rewrite"),
        "core.rewrite.calls": layer_calls("core.rewrite"),
        "core.lazy.self_ms": layer_ms("core.lazy"),
        "core.lazy.hit_frac": _ratio(tracer.events["lazy_hits"],
                                     tracer.events["lazy_lookups"]),
        "core.planner.self_ms": layer_ms("core.planner"),
        "core.planner.plans": layer_calls("core.planner"),
        "core.planner.residual_ratio": (statistics.median(residual_ratios)
                                        if residual_ratios else 0.0),
        "core.shard.self_ms": layer_ms("core.shard"),
        "core.shard.fanouts": _ratio(tracer.events["shard_fanouts"], ops),
        "core.stream.batch_ms": layer_ms("core.stream"),
        "core.stream.batches": layer_calls("core.stream"),
        "core.indicator.codes_ms": layer_ms("core.indicator"),
        "core.indicator.codes_calls": layer_calls("core.indicator"),
        "core.delta.apply_ms": layer_ms("core.delta"),
        "core.delta.patched_frac": _ratio(
            delta("cache_patched"), delta("cache_patched") + delta("cache_invalidated")),
        "ml.fit_self_ms": layer_ms("ml"),
        "relational.build_ms": relational_s * 1e3,
        "serve.scorer.self_ms": layer_ms("serve.scorer"),
        "serve.service.self_ms": layer_ms("serve.service"),
        "serve.service.lru_hit_frac": _ratio(
            delta("cache_hits"), delta("cache_hits") + delta("cache_misses")),
        "serve.topk.self_ms": layer_ms("serve.topk"),
        "serve.topk.blocks_skipped_frac": _ratio(
            delta("topk_blocks_skipped"),
            delta("topk_blocks_skipped") + delta("topk_blocks_visited")),
        "serve.topk.rows_scored": _ratio(delta("topk_rows_scored"), delta("topk_requests")),
        "serve.bounds.patch_ms": layer_ms("serve.bounds"),
        "serve.bounds.rebuild_frac": _ratio(
            tracer.with_child("ZoneMaps.patch_table", "ZoneMaps.rebuild_table"),
            patch_calls),
        "serve.snapshot.patch_ms": layer_ms("serve.snapshot",
                                            "repro.serve.snapshot.patch_partial"),
        "serve.snapshot.swap_ms": layer_ms("serve.snapshot", "SnapshotManager.swap"),
        "obs.overhead_frac": _ratio(traced_p50 - untraced_p50, untraced_p50),
        **summary,
    }


def _program_counters(workload) -> Dict[str, float]:
    counters = dict(workload.counters())
    counters["kernel_dispatches"] = _counter_total("repro_kernel_dispatch_total")
    counters["kernel_fallbacks"] = _counter_total("repro_kernel_fallback_total")
    return counters


# ---------------------------------------------------------------------------
# One benchmark run
# ---------------------------------------------------------------------------

def _setup_times(workload, trace: bool) -> Tuple[List[float], List[float]]:
    """Set the workload up (once when tracing, else SETUP_REPEATS times and
    then until SETUP_SECONDS have passed); returns the set-up and relational
    build times in seconds."""
    setup_seconds, relational_seconds = [], []
    while True:
        started = time.perf_counter()
        info = workload.setup()
        setup_seconds.append(time.perf_counter() - started)
        relational_seconds.append(info["relational_s"])
        if trace or (len(setup_seconds) >= SETUP_REPEATS
                     and sum(setup_seconds) >= SETUP_SECONDS):
            return setup_seconds, relational_seconds


def run_benchmark(workload_name: str, seed: int, seconds: float, trace: bool,
                  size: str = "full", out_dir: pathlib.Path = OUT_DIR):
    """Run one workload; returns ``(result, report_lines)``.

    ``result`` is the JSON object the command prints last; ``report_lines``
    are the human-readable lines printed before it.
    """
    from repro import obs

    import tracer as tracing
    import workloads

    if workload_name not in workloads.WORKLOADS:
        raise ValueError(f"unknown workload {workload_name!r}; "
                         f"expected one of {sorted(workloads.WORKLOADS)}")
    errors: List[str] = []
    workload = workloads.WORKLOADS[workload_name](seed, size=size)
    lines = [f"config {json.dumps(run_config(workload_name, seed, trace), sort_keys=True)}"]
    try:
        obs_ok = _obs_off(errors, "before")
        setup_seconds, relational_seconds = _setup_times(workload, trace)
        untraced_seconds = seconds / 2 if trace else seconds
        loop = closed_loop(workload, untraced_seconds, errors)
        obs_ok = _obs_off(errors, "after") and obs_ok
        kind_latencies = workload.kind_latencies(loop)
        peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
        attempted, failed = loop.attempted, loop.failed

        residual_ratios = list(workload.residual_ratios)
        if trace:
            tracer = tracing.Tracer()
            obs.reset()
            obs.enable()
            tracing.install(tracer)
            try:
                before = _program_counters(workload)
                traced = closed_loop(workload, seconds / 2, errors,
                                     untimed=lambda: _untraced(tracer))
                after = _program_counters(workload)
            finally:
                tracer.uninstall()
                obs.disable()
            unrestored = [label for label, ok in tracer.restored() if not ok]
            if unrestored:
                errors.append(f"wrappers left in place: {unrestored}")
            attempted += traced.attempted
            failed += traced.failed
            out_dir.mkdir(parents=True, exist_ok=True)
            spans_path = out_dir / f"spans-{workload_name}.jsonl"
            tracer.dump(spans_path)
            lines.append(f"spans {spans_path} ({len(tracer.spans)} spans, "
                         f"{traced.attempted} traced operations)")
            metrics = per_layer_metrics(
                tracer, traced.attempted, before, after, residual_ratios,
                statistics.median(relational_seconds), loop,
                percentile(traced.all_latencies(), 50.0))
            units = declared_units("per_layer")
        else:
            metrics = end_to_end_metrics(workload_name, setup_seconds, peak_rss_mb, loop)
            units = declared_units("end_to_end")

        failed += workload.final_check()
        lines.append(f"config {json.dumps(workload.config(), sort_keys=True)}")
    finally:
        workload.close()

    measured = {name: value for name, value in metrics.items() if math.isfinite(value)}
    correct = failed == 0 and obs_ok and not errors and len(measured) == len(metrics)
    everything = loop.all_latencies()
    lines.append("latency all operations (untraced): n=%d " % len(everything) + " ".join(
        f"p{q:g}={percentile(everything, q):.6g}ms" for q in TAIL_LADDER))
    for name, value, unit, note in kind_report(kind_latencies):
        lines.append(f"metric {name} {value:.6g} {unit} ({note}, untraced)")
    if not trace:
        summary = loop_summary(loop)
        lines.append(f"metric op_p50_ms {summary['op_p50_ms']:.6g} ms (untraced)")
        lines.append(f"metric throughput_ops_s {summary['throughput_ops_s']:.6g} 1/s "
                     "(untraced)")
    lines.append(f"setup {len(setup_seconds)} set-ups: median "
                 f"{statistics.median(setup_seconds):.6g} s, min {min(setup_seconds):.6g} s, "
                 f"max {max(setup_seconds):.6g} s")
    lines.append(f"metric fail_frac {_ratio(failed, attempted):.6g} ratio "
                 f"({failed} of {attempted} operations; sampled checks "
                 f"{dict(workload.checks)})")
    for name, value in metrics.items():
        lines.append(f"metric {name} {value:.6g} {units[name]}")
    for error in errors:
        lines.append("error " + error.strip().replace("\n", "\n      "))
    result = {
        "correct": bool(correct),
        "attempted": int(attempted),
        "failed": int(failed),
        "metrics": {name: {"value": float(value), "unit": units[name]}
                    for name, value in measured.items()},
    }
    return result, lines


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seconds <= 0:
        parser.error("--seconds must be positive")
    try:
        prepare_environment()
    except ProgramMissing as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 2
    result, lines = run_benchmark(args.workload, args.seed, args.seconds,
                                  bool(args.trace))
    for line in lines:
        print(line)
    print(json.dumps(result, sort_keys=True))
    return 0


if __name__ == "__main__":
    sys.exit(main())
