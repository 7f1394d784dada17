"""Self-tests of the benchmark at tiny sizes.

Run with ``python -m pytest perfbench -q`` from the repository root.
"""

from __future__ import annotations

import dataclasses
import json
import pathlib
import shutil
import subprocess
import sys

import numpy as np
import pytest

import run

run.prepare_environment()

import tracer as tracing  # noqa: E402
import workloads  # noqa: E402

BENCHMARK = json.loads((run.ROOT / "BENCHMARK.json").read_text())
SECONDS = 0.4


def _run(name: str, trace: bool, tmp_path: pathlib.Path):
    return run.run_benchmark(name, seed=3, seconds=SECONDS, trace=trace, size="tiny",
                             out_dir=tmp_path)


@pytest.mark.parametrize("name", sorted(workloads.WORKLOADS))
def test_every_declared_metric_is_emitted_with_its_unit(name, tmp_path):
    for trace, declared in ((False, BENCHMARK["end_to_end"]),
                            (True, BENCHMARK["per_layer"])):
        result, lines = _run(name, trace, tmp_path)
        assert set(result) == {"correct", "attempted", "failed", "metrics"}
        assert result["correct"], lines
        assert result["attempted"] >= 1 and result["failed"] == 0
        expected = {m["name"]: m["unit"] for m in declared}
        emitted = {key: value["unit"] for key, value in result["metrics"].items()}
        assert emitted == expected
        assert all(np.isfinite(value["value"]) for value in result["metrics"].values())
        assert any(line.startswith("metric fail_frac ") for line in lines)


def test_workloads_match_the_declaration():
    assert [w["name"] for w in BENCHMARK["workloads"]] == list(workloads.WORKLOADS)


def test_planted_wrong_top_k_row_counts_as_a_failure(monkeypatch, tmp_path):
    original = workloads.ScoringService.top_k

    def perturbed(self, k, largest=True, output=0):
        result = original(self, k, largest=largest, output=output)
        rows = result.rows.copy()
        rows[-1] = (rows[-1] + 1) % self.scorer.n_rows
        return dataclasses.replace(result, rows=rows)

    monkeypatch.setattr(workloads.ScoringService, "top_k", perturbed)
    result, lines = _run("serve_mixed", False, tmp_path)
    assert result["failed"] > 0
    assert not result["correct"]
    fail_frac = next(line for line in lines if line.startswith("metric fail_frac "))
    assert float(fail_frac.split()[2]) > 0


def test_planted_wrong_coefficients_count_as_a_failure(monkeypatch, tmp_path):
    original = workloads.LinearRegressionNE.fit

    def perturbed(self, data, target):
        fitted = original(self, data, target)
        if not isinstance(data, np.ndarray):  # leave the dense reference alone
            fitted.coef_ = fitted.coef_ * (1 + 1e-3)
        return fitted

    monkeypatch.setattr(workloads.LinearRegressionNE, "fit", perturbed)
    result, _ = _run("retrain", False, tmp_path)
    assert result["failed"] > 0 and not result["correct"]


def test_a_run_where_every_operation_fails_still_reports(monkeypatch, tmp_path):
    def broken(self, op):
        raise RuntimeError("planted failure")

    monkeypatch.setattr(workloads.Retrain, "execute", broken)
    result, lines = _run("retrain", False, tmp_path)
    assert result["attempted"] >= 1 and result["failed"] == result["attempted"]
    assert not result["correct"]
    assert "op_tail_ms" not in result["metrics"]
    fail_frac = next(line for line in lines if line.startswith("metric fail_frac "))
    assert float(fail_frac.split()[2]) == 1.0


def test_paused_tracer_records_nothing():
    tracer = tracing.Tracer()
    wrapped = tracer._wrapper("layer", "f", lambda x: x + 1)
    tracer.paused = True
    assert wrapped(1) == 2 and tracer.spans == []
    tracer.paused = False
    assert wrapped(1) == 2 and len(tracer.spans) == 1


def _program_bindings():
    """Identity of every module global and class attribute of the program."""
    bindings = {}
    for module in tracing._program_modules():
        for key, value in vars(module).items():
            bindings[(module.__name__, key)] = value
            if isinstance(value, type) and value.__module__.startswith("repro"):
                for attr, member in vars(value).items():
                    bindings[(module.__name__, key, attr)] = member
    return bindings


@pytest.mark.parametrize("name", sorted(workloads.WORKLOADS))
def test_traced_run_restores_every_wrapped_attribute(name, tmp_path):
    before = _program_bindings()
    result, _ = _run(name, True, tmp_path)
    after = _program_bindings()
    assert result["correct"]
    changed = [key for key, value in before.items() if after.get(key) is not value]
    assert changed == []
    assert (tmp_path / f"spans-{name}.jsonl").stat().st_size > 0


def test_wrappers_do_not_switch_the_kernel_set():
    from repro.la import kernels

    tracer = tracing.Tracer()
    tracing.install(tracer)
    try:
        assert not kernels._tracing()
        assert all(not hasattr(fn, "__wrapped_primitive__")
                   for fn, _ in tracer._wrappers.values())
    finally:
        tracer.uninstall()
    assert all(restored for _, restored in tracer.restored())


def test_self_time_subtracts_the_union_of_child_spans():
    tracer = tracing.Tracer()
    tracer.spans = [
        (1, None, "outer", "a", 0, 100),
        (2, 1, "inner", "b", 10, 50),   # two children running side by side
        (3, 1, "inner", "b", 30, 70),
        (4, 2, "leaf", "c", 20, 25),
    ]
    self_ns = tracer.self_times()
    assert self_ns[("outer", "a")] == 100 - 60
    assert self_ns[("inner", "b")] == (40 - 5) + 40
    assert self_ns[("leaf", "c")] == 5


def test_command_fails_without_the_program(tmp_path):
    shutil.copy(run.ROOT / "BENCHMARK.json", tmp_path / "BENCHMARK.json")
    shutil.copytree(run.BENCH_DIR, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("out", "__pycache__"))
    done = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "retrain", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=120)
    assert done.returncode != 0
    assert not any(line.startswith("{") for line in done.stdout.splitlines())
