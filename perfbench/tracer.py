"""Per-layer tracing from outside the program.

For the traced run only, :func:`install` replaces the public entry points of
each ``src/repro`` layer with thin wrappers that record a span -- layer,
name, start, end and the enclosing span -- around the original call.  Every
alias of a wrapped module function (``from x import f`` in another module,
late-bound module globals) is replaced too, so calls reach the wrapper
whichever name they use, and :meth:`Tracer.uninstall` puts every original
object back.

The wrappers deliberately carry no ``__wrapped_primitive__`` attribute and
do not reuse :mod:`repro.core.rewrite.trace`: the kernel dispatcher treats
either as golden-trace recording and forces the reference kernel set, so the
traced run would measure a different program.

A layer's self time is the sum over its spans of the span's duration minus
the part of it that child spans cover (the union of the child intervals, so
shard pieces running side by side on two threads are not counted twice).

While :attr:`Tracer.paused` is set, wrappers call straight through and record
nothing; the runner sets it around the benchmark's own untimed work
(preparing operations and checking outputs), so the per-layer figures hold
the program's work on timed operations only.
"""

from __future__ import annotations

import collections
import contextvars
import inspect
import itertools
import json
import sys
import time
from typing import Callable, Dict, Iterable, List, Optional, Tuple

#: (span id, parent span id or None, layer, name, start ns, end ns)
Span = Tuple[int, Optional[int], str, str, int, int]


class Tracer:
    """Span recorder plus the patch table that installs and removes wrappers."""

    def __init__(self):
        self.spans: List[Span] = []
        #: Event counts taken from wrapped calls' results (cache hits, ...).
        self.events: collections.Counter = collections.Counter()
        self._current: contextvars.ContextVar = contextvars.ContextVar(
            "perfbench_span", default=None)
        self._ids = itertools.count(1)
        #: (owner, attribute, original) for every replaced binding.
        self._patches: List[Tuple[object, str, object]] = []
        #: id(wrapper) -> (wrapper, original); holding the wrapper keeps its id unique.
        self._wrappers: Dict[int, Tuple[Callable, Callable]] = {}
        #: When set, wrappers call through without recording spans or events.
        self.paused = False

    # -- recording ----------------------------------------------------------

    def call(self, layer: str, name: str, fn: Callable, args, kwargs,
             parent: Optional[int] = None, use_parent: bool = False):
        """Run ``fn(*args, **kwargs)`` inside a span."""
        span_id = next(self._ids)
        if not use_parent:
            parent = self._current.get()
        token = self._current.set(span_id)
        start = time.perf_counter_ns()
        try:
            return fn(*args, **kwargs)
        finally:
            end = time.perf_counter_ns()
            self._current.reset(token)
            self.spans.append((span_id, parent, layer, name, start, end))

    def current(self) -> Optional[int]:
        return self._current.get()

    def _wrapper(self, layer: str, name: str, original: Callable,
                 observe: Optional[Callable] = None) -> Callable:
        def wrapper(*args, **kwargs):
            if self.paused:
                return original(*args, **kwargs)
            result = self.call(layer, name, original, args, kwargs)
            if observe is not None:
                observe(self.events, args, result)
            return result

        wrapper.__name__ = getattr(original, "__name__", name)
        wrapper.__qualname__ = getattr(original, "__qualname__", name)
        wrapper.__doc__ = getattr(original, "__doc__", None)
        self._wrappers[id(wrapper)] = (wrapper, original)
        return wrapper

    # -- installing -----------------------------------------------------------

    def _set(self, owner, attr: str, value, original) -> None:
        setattr(owner, attr, value)
        self._patches.append((owner, attr, original))

    def wrap_function(self, module, attr: str, layer: str,
                      observe: Optional[Callable] = None) -> None:
        """Wrap a module-level function and every module global bound to it."""
        original = getattr(module, attr)
        wrapper = self._wrapper(layer, f"{module.__name__}.{attr}", original, observe)
        for other in _program_modules():
            for key, value in list(vars(other).items()):
                if value is original:
                    self._set(other, key, wrapper, original)

    def wrap_method(self, cls, attr: str, layer: str,
                    observe: Optional[Callable] = None) -> None:
        """Wrap a method defined on *cls* (inherited by its subclasses)."""
        original = vars(cls)[attr]
        self.replace_method(cls, attr, self._wrapper(layer, f"{cls.__name__}.{attr}",
                                                     original, observe))

    def replace_method(self, cls, attr: str, wrapper: Callable) -> None:
        """Install a purpose-built *wrapper* in place of ``cls.attr``."""
        original = vars(cls)[attr]
        self._wrappers[id(wrapper)] = (wrapper, original)
        self._set(cls, attr, wrapper, original)

    def uninstall(self) -> None:
        """Put every original back, including copies of a wrapper that the
        program cached in its own module globals while the wrappers were in."""
        for owner, attr, original in reversed(self._patches):
            setattr(owner, attr, original)
        for module in _program_modules():
            for key, value in list(vars(module).items()):
                wrapper, original = self._wrappers.get(id(value), (None, None))
                if wrapper is not None and value is wrapper:
                    setattr(module, key, original)
                    self._patches.append((module, key, original))

    def restored(self) -> List[Tuple[str, bool]]:
        """For every binding that was replaced: is the original back?"""
        report = []
        for owner, attr, original in self._patches:
            current = vars(owner).get(attr)
            label = f"{getattr(owner, '__name__', owner)}.{attr}"
            report.append((label, current is original))
        return report

    # -- analysis -------------------------------------------------------------

    def self_times(self) -> Dict[Tuple[str, str], int]:
        """Self time per (layer, span name), in nanoseconds."""
        children: Dict[int, List[Tuple[int, int]]] = collections.defaultdict(list)
        for _, parent, _, _, start, end in self.spans:
            if parent is not None:
                children[parent].append((start, end))
        totals: Dict[Tuple[str, str], int] = collections.Counter()
        for span_id, _, layer, name, start, end in self.spans:
            covered = _covered(children.get(span_id, ()), start, end)
            totals[layer, name] += (end - start) - covered
        return dict(totals)

    def span_counts(self) -> Dict[Tuple[str, str], int]:
        """Span count per (layer, span name)."""
        return dict(collections.Counter((span[2], span[3]) for span in self.spans))

    def with_child(self, parent_name: str, child_name: str) -> int:
        """How many spans named *parent_name* have a direct *child_name* child."""
        parents = {span[0] for span in self.spans if span[3] == parent_name}
        return len({span[1] for span in self.spans
                    if span[3] == child_name and span[1] in parents})

    def dump(self, path) -> None:
        """Write the spans as JSON lines, times in ns since the first span began."""
        origin = min((span[4] for span in self.spans), default=0)
        with open(path, "w") as handle:
            for span_id, parent, layer, name, start, end in self.spans:
                handle.write(json.dumps({"id": span_id, "parent": parent, "layer": layer,
                                         "name": name, "start_ns": start - origin,
                                         "end_ns": end - origin},
                                        separators=(",", ":")) + "\n")


def _covered(intervals: Iterable[Tuple[int, int]], start: int, end: int) -> int:
    """Length of the union of *intervals* clipped to ``[start, end]``."""
    total = 0
    reach = start
    for lo, hi in sorted(intervals):
        lo, hi = max(lo, reach), min(hi, end)
        if hi > lo:
            total += hi - lo
            reach = hi
    return total


def _program_modules():
    return [module for name, module in list(sys.modules.items())
            if module is not None and (name == "repro" or name.startswith("repro."))]


def _public_functions(module) -> List[str]:
    return sorted(name for name, value in vars(module).items()
                  if inspect.isfunction(value) and not name.startswith("_")
                  and value.__module__ == module.__name__)


# ---------------------------------------------------------------------------
# The entry points wrapped for the traced run, by layer
# ---------------------------------------------------------------------------

def _count_lookup(events, args, result) -> None:
    events["lazy_lookups"] += 1
    if result[0]:
        events["lazy_hits"] += 1


def _sharded_map(tracer: Tracer, original: Callable) -> Callable:
    """``ParallelExecutor.map`` wrapper: a fan-out span whose per-shard tasks
    run as child spans, parented explicitly because worker threads do not
    inherit the caller's context."""

    def map_wrapper(executor, fn, items):
        if tracer.paused:
            return original(executor, fn, items)
        items = list(items)
        if len(items) > 1:
            tracer.events["shard_fanouts"] += 1

        def fan_out(executor, fn, items):
            parent = tracer.current()
            if executor.pool.name not in ("thread", "serial"):
                return original(executor, fn, items)  # tasks cross a pickle boundary

            def piece(item):
                return tracer.call("core.shard.piece", "shard piece", fn, (item,), {},
                                   parent=parent, use_parent=True)

            return original(executor, piece, items)

        return tracer.call("core.shard", "ParallelExecutor.map", fan_out,
                           (executor, fn, items), {})

    map_wrapper.__name__ = original.__name__
    return map_wrapper


def install(tracer: Tracer) -> None:
    """Wrap the public entry points of every measured layer."""
    from repro.core import indicator, stream
    from repro.core.lazy.cache import FactorizedCache
    from repro.core.lazy.expr import LazyExpr
    from repro.core.normalized_matrix import NormalizedMatrix
    from repro.core.planner.planner import Planner
    from repro.core.rewrite import aggregation, crossprod, multiplication
    from repro.core.shard import ShardedNormalizedMatrix
    from repro.la import kernels
    from repro.la.parallel import ParallelExecutor
    from repro.ml import LinearRegressionGD, LinearRegressionNE, LogisticRegressionGD
    from repro.serve import snapshot, topk
    from repro.serve.bounds import ZoneMaps
    from repro.serve.scorer import FactorizedScorer
    from repro.serve.service import ScoringService

    for name in kernels.KERNEL_NAMES:
        tracer.wrap_function(kernels, name, "la.kernels")
    for module in (multiplication, crossprod, aggregation):
        for name in _public_functions(module):
            tracer.wrap_function(module, name, "core.rewrite")
    tracer.wrap_method(FactorizedCache, "lookup", "core.lazy", observe=_count_lookup)
    tracer.wrap_method(FactorizedCache, "store", "core.lazy")
    tracer.wrap_method(LazyExpr, "evaluate", "core.lazy")
    tracer.wrap_method(Planner, "plan", "core.planner")
    for name in ("__matmul__", "__rmatmul__", "crossprod", "rowsums", "colsums",
                 "total_sum"):
        tracer.wrap_method(ShardedNormalizedMatrix, name, "core.shard")
    tracer.replace_method(ParallelExecutor, "map",
                          _sharded_map(tracer, vars(ParallelExecutor)["map"]))
    tracer.wrap_function(stream, "take_rows", "core.stream")
    tracer.wrap_function(stream, "slice_rows", "core.stream")
    tracer.wrap_function(indicator, "indicator_codes", "core.indicator")
    tracer.wrap_method(NormalizedMatrix, "apply_delta", "core.delta")
    for estimator in (LinearRegressionGD, LinearRegressionNE, LogisticRegressionGD):
        tracer.wrap_method(estimator, "fit", "ml")
    tracer.wrap_method(FactorizedScorer, "score_rows", "serve.scorer")
    for name in ("score_row", "score_rows", "top_k", "apply_delta"):
        tracer.wrap_method(ScoringService, name, "serve.service")
    tracer.wrap_function(topk, "top_k_search", "serve.topk")
    tracer.wrap_method(ZoneMaps, "patch_table", "serve.bounds")
    tracer.wrap_method(ZoneMaps, "rebuild_table", "serve.bounds")
    tracer.wrap_function(snapshot, "patch_partial", "serve.snapshot")
    tracer.wrap_method(snapshot.SnapshotManager, "swap", "serve.snapshot")
