"""Compiled kernel set vs. the primitive-chain reference implementations.

The kernel layer (:mod:`repro.la.kernels`) has two implementation sets: the
``reference`` primitive chains (``K @ (R X)`` and friends, each indicator
step a single code-space pass of :class:`repro.la.indicator.CodeIndicator`)
and, with the optional ``[kernels]`` extra, the ``numba`` set of compiled
single-pass loops.  The Figure 3 operator workloads and the Figure 5 ML
workloads at tuple ratio >= 10 are where the paper's rewrites spend their
time, so that is what this module measures:

* **Operators** (Fig. 3 shapes) -- LMM ``T X``, transposed LMM ``T^T Y`` and
  ``crossprod(T)`` on a PK-FK star at tuple ratios 10 and 20.
* **ML** (Fig. 5 shapes) -- a few GD iterations of linear and logistic
  regression over the same normalized matrices.

Every point times the reference chains.  When Numba is installed it also
times the ``numba`` set, asserts it reproduces the reference values before
any timing (so a wrong kernel can never masquerade as a speedup), and gates
it at >= ``COMPILED_TARGET`` (3x).  Without Numba the results file records
the reference timings alone and there is no gate.

Run styles:

* ``pytest benchmarks/bench_kernels.py`` -- timing-free exactness gates plus
  the pytest-benchmark timed sweep;
* ``python benchmarks/bench_kernels.py --smoke`` -- a reduced grid for CI;
  writes ``benchmarks/results/kernels.json``.
"""

from __future__ import annotations

import argparse
import json
import pathlib
import sys
from typing import Callable, Dict, List, Sequence

import numpy as np

from repro.bench.harness import measure
from repro.core.normalized_matrix import NormalizedMatrix
from repro.la import kernels
from repro.la.ops import indicator_from_labels
from repro.ml.linear_regression import LinearRegressionGD
from repro.ml.logistic_regression import LogisticRegressionGD

RESULTS_DIR = pathlib.Path(__file__).parent / "results"
RESULTS_FILE = RESULTS_DIR / "kernels.json"

FULL_GRID = dict(tuple_ratios=(10, 20), n_r=2_000, d_r=40, d_s=4,
                 x_cols=2, iters=3, repeats=5)
SMOKE_GRID = dict(tuple_ratios=(10,), n_r=1_000, d_r=40, d_s=4,
                  x_cols=2, iters=2, repeats=3)

#: the compiled set must win by this factor on every gated point
COMPILED_TARGET = 3.0


def _build_star(tuple_ratio: int, n_r: int, d_r: int, d_s: int,
                seed: int = 11) -> NormalizedMatrix:
    """A PK-FK star at the given tuple ratio (n_S = TR * n_R)."""
    rng = np.random.default_rng(seed)
    n_s = tuple_ratio * n_r
    entity = rng.standard_normal((n_s, d_s))
    labels = np.concatenate([np.arange(n_r), rng.integers(0, n_r, size=n_s - n_r)])
    rng.shuffle(labels)
    indicator = indicator_from_labels(labels, num_columns=n_r)
    attribute = rng.standard_normal((n_r, d_r))
    return NormalizedMatrix(entity, [indicator], [attribute])


def _workloads(matrix: NormalizedMatrix, x_cols: int, iters: int,
               seed: int = 13) -> Dict[str, Callable[[], np.ndarray]]:
    """(name -> thunk) covering the Fig. 3 operators and Fig. 5 ML fits."""
    rng = np.random.default_rng(seed)
    n, d = matrix.shape
    x = rng.standard_normal((d, x_cols))
    y = rng.standard_normal((n, 1))
    labels = np.where(rng.standard_normal(n) > 0, 1.0, -1.0)

    return {
        "lmm": lambda: np.asarray(matrix @ x),
        "tlmm": lambda: np.asarray(matrix.T @ y),
        "crossprod": lambda: np.asarray(matrix.crossprod()),
        "linreg-gd": lambda: LinearRegressionGD(
            max_iter=iters, step_size=1e-6).fit(matrix, y).coef_,
        "logreg-gd": lambda: LogisticRegressionGD(
            max_iter=iters).fit(matrix, labels).coef_,
    }


def _best_seconds(kernel_set: str, thunk: Callable[[], np.ndarray], repeats: int) -> float:
    def run():
        with kernels.using(kernel_set):
            return thunk()

    return measure(run, kernel_set, repeats=repeats).best


def evaluate_point(tuple_ratio: int, n_r: int, d_r: int, d_s: int, x_cols: int,
                   iters: int, repeats: int) -> List[dict]:
    """Time every workload under the reference chains (and the numba set)."""
    matrix = _build_star(tuple_ratio, n_r, d_r, d_s)
    compiled = kernels.compiled_available()
    records = []
    for name, thunk in _workloads(matrix, x_cols, iters).items():
        record = {"workload": name, "tuple_ratio": tuple_ratio, "n_r": n_r,
                  "d_r": d_r, "numba_seconds": None, "speedup": None}
        if compiled:
            # Exactness first: the compiled set must reproduce the reference.
            with kernels.using("reference"):
                expected = thunk()
            with kernels.using("numba"):
                actual = thunk()
            np.testing.assert_allclose(actual, expected, rtol=1e-9, atol=1e-9)
        record["reference_seconds"] = _best_seconds("reference", thunk, repeats)
        if compiled:
            record["numba_seconds"] = _best_seconds("numba", thunk, repeats)
            record["speedup"] = record["reference_seconds"] / record["numba_seconds"]
        records.append(record)
    return records


def run_sweep(tuple_ratios: Sequence[int], n_r: int, d_r: int, d_s: int,
              x_cols: int, iters: int, repeats: int) -> List[dict]:
    records = []
    for tr in tuple_ratios:
        records.extend(evaluate_point(tr, n_r, d_r, d_s, x_cols, iters, repeats))
    return records


def write_results(records: List[dict]) -> pathlib.Path:
    RESULTS_DIR.mkdir(exist_ok=True)
    RESULTS_FILE.write_text(json.dumps({
        "compiled_available": kernels.compiled_available(),
        "best_set": kernels.best_available(),
        "points": records,
    }, indent=2, sort_keys=True) + "\n")
    return RESULTS_FILE


def _passes(records: List[dict]) -> bool:
    return all(r["speedup"] is None or r["speedup"] >= COMPILED_TARGET for r in records)


def _format(records: List[dict]) -> str:
    lines = []
    for r in records:
        line = (f"TR={r['tuple_ratio']:>3g} {r['workload']:<10s} "
                f"reference={r['reference_seconds'] * 1e3:8.3f} ms")
        if r["numba_seconds"] is not None:
            line += (f"  numba={r['numba_seconds'] * 1e3:8.3f} ms  "
                     f"speedup={r['speedup']:.2f}x")
        lines.append(line)
    return "\n".join(lines)


# -- timing-free gates (run in any environment) -------------------------------

def test_fused_sets_exact_on_benchmark_workloads():
    """Every available kernel set reproduces the reference chains exactly."""
    matrix = _build_star(10, 200, 12, 3)
    for name, thunk in _workloads(matrix, 2, 2).items():
        with kernels.using("reference"):
            expected = thunk()
        for kernel_set in kernels.available_sets():
            with kernels.using(kernel_set):
                actual = thunk()
            np.testing.assert_allclose(actual, expected, rtol=1e-9, atol=1e-9,
                                       err_msg=f"{kernel_set}/{name}")


def test_results_file_is_self_describing():
    """The artifact records whether the compiled set was measured."""
    records = [{"workload": "lmm", "tuple_ratio": 10, "n_r": 10, "d_r": 2,
                "reference_seconds": 1.0, "numba_seconds": None, "speedup": None}]
    path = write_results(records)
    payload = json.loads(path.read_text())
    assert payload["compiled_available"] == kernels.compiled_available()
    assert payload["points"] == records


# -- timed gate (pytest-benchmark) --------------------------------------------

def test_fused_kernels_meet_speedup_gates(benchmark):
    """numba >= 3x over the reference chains (when installed)."""
    def run():
        return run_sweep(**FULL_GRID)

    records = benchmark.pedantic(run, rounds=1, iterations=1)
    write_results(records)
    if not _passes(records):
        # one noise retry, like the other benchmark gates
        records = run_sweep(**dict(FULL_GRID, repeats=FULL_GRID["repeats"] + 2))
        write_results(records)
    assert _passes(records), _format(records)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--smoke", action="store_true", help="reduced grid for CI")
    args = parser.parse_args(argv)
    grid = SMOKE_GRID if args.smoke else FULL_GRID

    records = run_sweep(**grid)
    if not _passes(records):
        print("acceptance miss on first pass; re-measuring with more repeats")
        records = run_sweep(**dict(grid, repeats=grid["repeats"] + 2))
    path = write_results(records)
    print(f"wrote {path}")
    print(_format(records))
    compiled = kernels.compiled_available()
    print(f"compiled (numba) set measured: {compiled}")
    if not compiled:
        print("no gate without numba: reference timings recorded only")
        return 0
    ok = _passes(records)
    print(f"numba >= {COMPILED_TARGET:g}x: {'OK' if ok else 'FAIL'}")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
