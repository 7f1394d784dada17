"""Parallel sharded execution: speedup vs. shard count for factorized logreg GD.

No direct figure in the paper: this module measures the sharded execution
backend (``repro.core.shard``) that parallelizes the paper's serial chunked
scalability setup (Section 5.2.4, Tables 9/10).  The workload is the paper's
scalability workload -- logistic regression with batch gradient descent --
at laptop benchmark scale, and three execution strategies are compared:

* ``serial-chunked factorized``  -- the factorized algorithm streamed
  serially at ORE-like chunk granularity (``CHUNK_ROWS`` rows per chunk),
  i.e. ``TN.shard(n_chunks, pool="serial")``.  This is the baseline the
  acceptance criterion names: factorized logistic-regression GD under serial
  chunked execution.
* ``serial-chunked materialized`` -- the materialized join output streamed
  through :meth:`repro.core.shard.RowPartitioned.chunked`, a serial row
  partition (the Table-9 "M" setup), reported
  for context.
* ``sharded(k) factorized``      -- ``TN.shard(k, pool="thread")`` for
  ``k`` in ``SHARD_COUNTS``: few large shards dispatched through a thread
  pool.

Two effects add up in the sharded column.  Coarse sharding amortizes the
per-chunk dispatch overhead that fine-grained serial streaming pays (each
chunk of the factorized baseline re-runs the whole per-chunk operator
pipeline, including the ``R``-sided products); and on multi-core hardware the
thread pool overlaps the per-shard NumPy/SciPy kernels, which release the
GIL.  Only the first effect is visible on a single-core CI runner -- which is
already enough for the >= 2x acceptance gate asserted below; on real
hardware the shard-count curve additionally bends with the core count (see
``docs/parallelism.md``).
"""

import numpy as np
import pytest

from _common import pkfk_dataset
from repro.bench.harness import SpeedupResult, measure
from repro.bench.reporting import format_table, print_report
from repro.core.shard import RowPartitioned
from repro.ml import LogisticRegressionGD

TUPLE_RATIO = 20
FEATURE_RATIO = 4
CHUNK_ROWS = 512            # ORE-style streaming granularity of the serial baseline
SHARD_COUNTS = (1, 2, 4, 8)
ITERATIONS = 5
REPEATS = 3
ACCEPTANCE_SHARDS = 4
ACCEPTANCE_SPEEDUP = 2.0


def _fit_time(data, target) -> float:
    model = LogisticRegressionGD(max_iter=ITERATIONS, step_size=1e-4)
    return measure(lambda: model.fit(data, target), repeats=REPEATS, warmup=1).best


@pytest.fixture(scope="module")
def workload():
    dataset = pkfk_dataset(TUPLE_RATIO, FEATURE_RATIO)
    target = np.where(np.asarray(dataset.target) > 0, 1.0, -1.0)
    return dataset, target


@pytest.fixture(scope="module")
def timings(workload):
    """Measure every strategy once per module and share the numbers."""
    dataset, target = workload
    normalized = dataset.normalized
    n_rows = normalized.shape[0]
    n_chunks = max(1, n_rows // CHUNK_ROWS)

    results = {
        "serial-chunked factorized": _fit_time(
            normalized.shard(n_chunks, pool="serial"), target
        ),
        "serial-chunked materialized": _fit_time(
            RowPartitioned.chunked(dataset.materialized, CHUNK_ROWS), target
        ),
    }
    for shards in SHARD_COUNTS:
        results[f"sharded({shards}) factorized"] = _fit_time(
            normalized.shard(shards, pool="thread"), target
        )
    return results


def test_report_scaling_table(timings, workload):
    """Print the shard-count scaling table (speedups vs. both serial baselines)."""
    dataset, _ = workload
    baseline = timings["serial-chunked factorized"]
    materialized = timings["serial-chunked materialized"]
    rows = []
    for label, seconds in timings.items():
        rows.append([
            label, f"{seconds * 1000:.2f}",
            f"{baseline / seconds:.2f}x", f"{materialized / seconds:.2f}x",
        ])
    body = format_table(
        ["strategy", "time (ms)", "vs serial-chunked F", "vs serial-chunked M"], rows
    )
    shape = dataset.materialized.shape
    print_report(
        f"Parallel sharded scaling: logreg GD, {ITERATIONS} iterations, "
        f"T = {shape[0]}x{shape[1]} (TR={TUPLE_RATIO}, FR={FEATURE_RATIO}, "
        f"chunk_rows={CHUNK_ROWS})", body,
    )


def test_acceptance_speedup_at_four_shards(timings):
    """>= 2x at 4 shards over serial chunked execution of factorized logreg GD."""
    result = SpeedupResult(
        parameters={"shards": ACCEPTANCE_SHARDS},
        materialized_seconds=timings["serial-chunked factorized"],
        factorized_seconds=timings[f"sharded({ACCEPTANCE_SHARDS}) factorized"],
    )
    assert result.speedup >= ACCEPTANCE_SPEEDUP, (
        f"sharded({ACCEPTANCE_SHARDS}) is only {result.speedup:.2f}x faster than "
        f"serial chunked factorized execution (acceptance floor "
        f"{ACCEPTANCE_SPEEDUP}x)"
    )


def test_sharded_fit_matches_serial_coefficients(workload):
    """The speed comparison is apples-to-apples: identical models, 1e-8 close."""
    dataset, target = workload
    serial = LogisticRegressionGD(max_iter=ITERATIONS, step_size=1e-4).fit(
        dataset.normalized, target
    )
    sharded = LogisticRegressionGD(max_iter=ITERATIONS, step_size=1e-4).fit(
        dataset.normalized.shard(ACCEPTANCE_SHARDS, pool="thread"), target
    )
    assert np.allclose(sharded.coef_, serial.coef_, atol=1e-8)
