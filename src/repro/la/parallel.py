"""Worker pools and the fan-out/reduce executor behind sharded execution.

The paper's scalability experiments (Section 5.2.4, Tables 9 and 10) stream
row chunks through a *serial* ORE-style loop; :mod:`repro.la.chunked` emulates
that faithfully.  This module provides the piece that loop is missing: a small
pool abstraction (:class:`SerialPool`, :class:`ThreadPool`,
:class:`ProcessPool`, or any user-supplied ``concurrent.futures`` executor)
and a :class:`ParallelExecutor` that fans a function out over row shards and
collects the partial results in order.

Morpheus-style factorized operators are embarrassingly parallel over row
shards of the entity and indicator matrices -- every Table-1 operator either
concatenates per-shard results (LMM, ``rowSums``, element-wise ops) or sums
them (RMM, ``crossprod``, ``colSums``, ``sum``) -- so the executor only ever
needs an order-preserving ``map``.  The sharded operand types in
:mod:`repro.core.shard` build on exactly that.

Pool choice matters because of the GIL (see ``docs/parallelism.md``): NumPy
and SciPy release the GIL inside their C kernels, so :class:`ThreadPool` is
the right default for LA-bound shard work, while :class:`ProcessPool` only
pays off when the per-shard work is Python-bound and large enough to amortize
pickling the shard operands.
"""

from __future__ import annotations

import abc
import contextvars
import os
from concurrent.futures import Executor, ProcessPoolExecutor, ThreadPoolExecutor
from typing import Callable, Iterable, List, Optional, Sequence, TypeVar, Union

from repro import obs

_Item = TypeVar("_Item")
_Result = TypeVar("_Result")

PoolSpec = Union[None, str, int, "WorkerPool", Executor]

_FANOUTS_TOTAL = obs.REGISTRY.counter(
    "repro_shard_fanouts_total",
    "ParallelExecutor.map fan-outs by pool kind",
    labels=("pool",),
)
_TASKS_TOTAL = obs.REGISTRY.counter(
    "repro_shard_tasks_total",
    "Per-shard tasks dispatched through ParallelExecutor.map",
    labels=("pool",),
)


def default_workers() -> int:
    """Default worker count: the machine's CPU count (at least one)."""
    return max(1, os.cpu_count() or 1)


class WorkerPool(abc.ABC):
    """Order-preserving ``map`` over a set of workers.

    Implementations must return results in input order -- the shard reducers
    rely on positional alignment (shard ``i``'s partial result lands at index
    ``i``).  Pools are reusable across many ``map`` calls; the underlying
    executor is created lazily on first use so constructing a pool is free.
    """

    #: short identifier used in benchmark reports and reprs
    name: str = "abstract"

    @abc.abstractmethod
    def map(self, fn: Callable[[_Item], _Result], items: Iterable[_Item]) -> List[_Result]:
        """Apply *fn* to every item, returning the results in input order."""

    def close(self) -> None:
        """Release worker resources (no-op for pools without state)."""

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"{type(self).__name__}()"


class SerialPool(WorkerPool):
    """Run every task inline on the calling thread.

    This is the reference implementation the parallel pools must agree with
    bit for bit: the same shard functions run in the same order, so results
    are identical regardless of pool choice.
    """

    name = "serial"

    def map(self, fn: Callable[[_Item], _Result], items: Iterable[_Item]) -> List[_Result]:
        return [fn(item) for item in items]


class _ExecutorBackedPool(WorkerPool):
    """Shared lazy-construction logic for the ``concurrent.futures`` pools."""

    def __init__(self, max_workers: Optional[int] = None):
        if max_workers is not None and max_workers < 1:
            raise ValueError("max_workers must be at least 1")
        self.max_workers = max_workers
        self._executor: Optional[Executor] = None

    @abc.abstractmethod
    def _make_executor(self) -> Executor:
        """Build the underlying executor (called once, on first map)."""

    def map(self, fn: Callable[[_Item], _Result], items: Iterable[_Item]) -> List[_Result]:
        if self._executor is None:
            self._executor = self._make_executor()
        return list(self._executor.map(fn, items))

    def close(self) -> None:
        if self._executor is not None:
            self._executor.shutdown(wait=True)
            self._executor = None

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"{type(self).__name__}(max_workers={self.max_workers})"


class ThreadPool(_ExecutorBackedPool):
    """Shard work over a ``ThreadPoolExecutor`` (the default pool).

    Threads share the shard operands by reference (no pickling) and NumPy /
    SciPy kernels release the GIL, so this pool parallelizes LA-bound shard
    work with essentially zero dispatch cost.
    """

    name = "thread"

    def _make_executor(self) -> Executor:
        return ThreadPoolExecutor(max_workers=self.max_workers or default_workers())


class ProcessPool(_ExecutorBackedPool):
    """Shard work over a ``ProcessPoolExecutor``.

    Every task's callable *and* operands are pickled to the worker processes,
    so this pool requires module-level shard functions (the ones in
    :mod:`repro.core.shard` qualify) and pays a per-call serialization cost
    proportional to the shard size.  Use it only for Python-bound shard work;
    see ``docs/parallelism.md`` for the tradeoff.
    """

    name = "process"

    def _make_executor(self) -> Executor:
        return ProcessPoolExecutor(max_workers=self.max_workers or default_workers())


class ExecutorPool(WorkerPool):
    """Adapter wrapping a user-supplied ``concurrent.futures`` executor.

    The caller keeps ownership: :meth:`close` does *not* shut the executor
    down, so one application-level pool can serve many sharded matrices.
    """

    name = "executor"

    def __init__(self, executor: Executor):
        if not isinstance(executor, Executor):
            raise TypeError(f"expected a concurrent.futures.Executor, got {type(executor).__name__}")
        self.executor = executor

    def map(self, fn: Callable[[_Item], _Result], items: Iterable[_Item]) -> List[_Result]:
        return list(self.executor.map(fn, items))


_NAMED_POOLS = {
    "serial": SerialPool,
    "thread": ThreadPool,
    "process": ProcessPool,
}


def resolve_pool(pool: PoolSpec = None, default_max_workers: Optional[int] = None) -> WorkerPool:
    """Coerce a pool specification to a :class:`WorkerPool`.

    Accepted specifications:

    * ``None`` -- a :class:`ThreadPool` (the right default for LA-bound work);
    * a string -- ``"serial"``, ``"thread"`` or ``"process"``;
    * an int -- a :class:`ThreadPool` with that many workers;
    * a ``concurrent.futures`` executor -- wrapped in :class:`ExecutorPool`;
    * a :class:`WorkerPool` -- returned as-is.

    *default_max_workers* bounds the worker count for pools this function
    constructs (callers pass the shard count, since more workers than shards
    is pure overhead); explicit pool instances are never resized.
    """
    if isinstance(pool, WorkerPool):
        return pool
    if pool is None:
        return ThreadPool(max_workers=default_max_workers)
    if isinstance(pool, str):
        key = pool.lower()
        if key not in _NAMED_POOLS:
            raise ValueError(f"unknown pool {pool!r}; expected one of {sorted(_NAMED_POOLS)}")
        if key == "serial":
            return SerialPool()
        return _NAMED_POOLS[key](max_workers=default_max_workers)
    if isinstance(pool, bool):
        raise TypeError("pool must be a pool spec, not a bool")
    if isinstance(pool, int):
        if pool < 1:
            raise ValueError("pool worker count must be at least 1")
        return ThreadPool(max_workers=pool)
    if isinstance(pool, Executor):
        return ExecutorPool(pool)
    raise TypeError(f"cannot build a worker pool from {type(pool).__name__}")


class ParallelExecutor:
    """Fans shard-local work out across a pool and reduces the partials.

    This is the one seam every sharded operand type shares: hand it a
    module-level shard function (so process pools can pickle it) and a list of
    per-shard argument tuples; get the ordered partial results back, ready for
    a concatenating or summing reduction.  A single-item fan-out skips the
    pool entirely -- one shard is serial by construction, which also makes
    ``n_shards=1`` bit-for-bit identical to unsharded execution.
    """

    def __init__(self, pool: PoolSpec = None, default_max_workers: Optional[int] = None):
        self.pool = resolve_pool(pool, default_max_workers=default_max_workers)

    def map(self, fn: Callable[[_Item], _Result], items: Sequence[_Item]) -> List[_Result]:
        """Apply *fn* to every item through the pool, preserving order."""
        items = list(items)
        if len(items) <= 1:
            return [fn(item) for item in items]
        threaded = self.pool.name == "thread"
        if obs.enabled():
            _FANOUTS_TOTAL.labels(pool=self.pool.name).inc()
            _TASKS_TOTAL.labels(pool=self.pool.name).inc(len(items))
            if threaded and obs.current_span() is not None:
                with obs.span("shard.map", pool=self.pool.name, tasks=len(items)):
                    return self._map_in_context(fn, items)
        if threaded:
            return self._map_in_context(fn, items)
        return self.pool.map(fn, items)

    def _map_in_context(self, fn: Callable[[_Item], _Result],
                        items: List[_Item]) -> List[_Result]:
        """Run each task in a copy of the caller's context.

        Context variables -- the active obs span, a ``kernels.using()``
        override -- thereby follow the work into the worker threads.  Each
        task gets its own copy (a Context object cannot be entered
        concurrently).  Process/executor pools may cross a pickle boundary,
        so their shard work runs in the workers' own contexts.
        """
        ctx = contextvars.copy_context()
        return self.pool.map(lambda item: ctx.copy().run(fn, item), items)

    def map_reduce(self, fn: Callable[[_Item], _Result], items: Sequence[_Item],
                   reduce_fn: Callable[[List[_Result]], _Result]) -> _Result:
        """Fan out with :meth:`map`, then combine the partials with *reduce_fn*."""
        return reduce_fn(self.map(fn, items))

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"ParallelExecutor(pool={self.pool.name})"
