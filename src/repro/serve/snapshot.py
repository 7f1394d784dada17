"""Immutable serving snapshots and the atomic swap protocol.

The serving subsystem must stay correct while attribute tables change
underneath it -- the HTAP freshness requirement: a new product row or a
refreshed feature vector lands in ``R_k``, and analytical reads (scoring
requests) must never observe a half-updated state.  The design follows the
consistent-snapshot recipe:

* All state a scoring request touches after validation lives in one
  **immutable** :class:`ServingSnapshot` (the per-table partial-score
  matrices, read-only).  A request reads the current snapshot reference
  exactly once and then works only with that object, so it can never see a
  mix of old and new partials.
* Updates build replacement state **off to the side** -- recomputing only the
  changed table's partial, not the whole model -- and then **atomically
  swap** the snapshot reference.  Reference assignment is atomic in Python,
  so readers are never blocked and never torn; a writer lock serializes
  concurrent updates so no swap is lost.
* :meth:`SnapshotManager.submit` runs the rebuild on a single background
  worker thread, which is what makes ``update_table`` non-blocking for the
  serving path: scoring continues against the old snapshot until the new one
  is ready.
"""

from __future__ import annotations

import threading
import time
from concurrent.futures import Future, ThreadPoolExecutor
from typing import Callable, Optional, Tuple

import numpy as np

from repro import obs
from repro.la import kernels
from repro.la.types import MatrixLike, to_dense

_SWAP_SECONDS = obs.REGISTRY.histogram(
    "repro_serve_snapshot_swap_seconds",
    "Duration of an atomic snapshot swap (update fn inside the writer lock)",
)
_SWAPS_TOTAL = obs.REGISTRY.counter(
    "repro_serve_snapshot_swaps_total",
    "Snapshot swaps published across all managers",
)
_REBUILDS_TOTAL = obs.REGISTRY.counter(
    "repro_serve_snapshot_rebuilds_total",
    "Background rebuild tasks submitted across all managers",
)


def compute_partial(attribute: MatrixLike, weight_slice: np.ndarray) -> np.ndarray:
    """Precompute one table's partial scores ``R_k @ W_k`` (``n_Rk x m``).

    The result is dense (partials are gathered per request, and ``m`` is
    small) and marked read-only, since it is shared by every snapshot that
    carries it and by every in-flight request.  Routed through the
    :mod:`repro.la.kernels` registry so the compiled set applies when active.
    """
    return kernels.partial_scores(attribute, weight_slice)


def patch_partial(partial: np.ndarray, delta, weight_slice: np.ndarray) -> np.ndarray:
    """The post-delta partial: only the ``b`` changed rows recomputed.

    ``partial = R_k @ W_k`` is linear in the table rows, so a row delta
    replaces exactly the changed rows -- ``partial'[ρ] = new[ρ] @ W_k`` --
    at ``O(b·d_k·m)`` cost, versus ``O(n_Rk·d_k·m)`` for
    :func:`compute_partial` from scratch.  Appending rows (``delta.grows``)
    extends the partial; new row positions not named by the delta score
    zero, matching the tombstone convention.  Returns a fresh read-only
    array -- the input snapshot's partial is shared and never mutated.
    """
    changed = np.asarray(to_dense(delta.new @ weight_slice), dtype=np.float64)
    if changed.ndim == 1:
        changed = changed.reshape(-1, 1)
    rows_after = max(partial.shape[0], delta.num_rows_after)
    if rows_after > partial.shape[0]:
        patched = np.zeros((rows_after, partial.shape[1]), dtype=np.float64)
        patched[: partial.shape[0]] = partial
    else:
        patched = np.array(partial, dtype=np.float64)
    patched[delta.rows, :] = changed
    patched.setflags(write=False)
    return patched


class ServingSnapshot:
    """One immutable, internally consistent serving state.

    Holds the per-table partial-score matrices plus a monotonically
    increasing version number.  Instances are never mutated; updates go
    through :meth:`with_partial`, which shares every untouched partial with
    its predecessor.

    When the snapshot carries zone maps (``zones``, see
    :mod:`repro.serve.bounds` -- the scorer builds them for its initial
    snapshot), every successor keeps them consistent with its partials:
    ``with_partial`` rebuilds the swapped table's block bounds from scratch,
    ``with_patched_partial`` widens only the blocks whose entity rows
    reference a row the delta touched (see :meth:`ZoneMaps.patch_table`).
    Both run inside the writer lock of :meth:`SnapshotManager.swap`, so
    readers always observe partials and bounds from the *same* state.
    """

    __slots__ = ("partials", "version", "zones")

    def __init__(self, partials: Tuple[np.ndarray, ...], version: int = 0, zones=None):
        self.partials = tuple(partials)
        self.version = int(version)
        self.zones = zones

    def with_partial(self, table_index: int, partial: np.ndarray) -> "ServingSnapshot":
        """A successor snapshot replacing one table's partial (version + 1)."""
        partials = list(self.partials)
        partials[table_index] = partial
        zones = (self.zones.rebuild_table(table_index, partial)
                 if self.zones is not None else None)
        return ServingSnapshot(tuple(partials), self.version + 1, zones)

    def with_patched_partial(self, table_index: int, delta,
                             weight_slice: np.ndarray) -> "ServingSnapshot":
        """A successor with one partial delta-patched (see :func:`patch_partial`)."""
        previous = self.partials[table_index]
        patched = patch_partial(previous, delta, weight_slice)
        partials = list(self.partials)
        partials[table_index] = patched
        zones = None
        if self.zones is not None:
            changed = delta.rows
            if patched.shape[0] > previous.shape[0]:
                # Appended positions the delta does not name score zero;
                # they enter the ad-hoc bounds like any changed row.
                changed = np.union1d(changed, np.arange(previous.shape[0],
                                                        patched.shape[0]))
            zones = self.zones.patch_table(table_index, patched, changed)
        return ServingSnapshot(tuple(partials), self.version + 1, zones)

    @property
    def partial_bytes(self) -> int:
        """Resident bytes of all partial-score matrices."""
        return int(sum(p.nbytes for p in self.partials))


class SnapshotManager:
    """Publishes snapshots to readers; serializes writers; owns the worker.

    Readers call :attr:`snapshot` (a single attribute read -- atomic, never
    blocking).  Writers pass a pure ``snapshot -> snapshot`` function to
    :meth:`swap`; the writer lock makes concurrent updates to *different*
    tables compose instead of overwriting each other.  :meth:`submit` runs a
    rebuild callable on one lazily created background thread, so at most one
    rebuild runs at a time and swaps apply in submission order.
    """

    def __init__(self, snapshot: ServingSnapshot):
        self._snapshot = snapshot
        self._write_lock = threading.Lock()
        self._executor: Optional[ThreadPoolExecutor] = None
        self._executor_lock = threading.Lock()
        # Back-compat style views: counting is unconditional, cheap, and
        # readable via the swap_count / rebuild_count properties.
        self._swaps = obs.Counter(always=True)
        self._rebuilds = obs.Counter(always=True)

    @property
    def snapshot(self) -> ServingSnapshot:
        """The current snapshot; read it once per request and hold on to it."""
        return self._snapshot

    @property
    def swap_count(self) -> int:
        """Snapshot swaps this manager has published."""
        return int(self._swaps.value)

    @property
    def rebuild_count(self) -> int:
        """Background rebuild tasks this manager has accepted."""
        return int(self._rebuilds.value)

    def swap(self, update: Callable[[ServingSnapshot], ServingSnapshot]) -> ServingSnapshot:
        """Atomically replace the snapshot with ``update(current)``."""
        record = obs.enabled()
        started = time.perf_counter() if record else 0.0
        with self._write_lock:
            snapshot = update(self._snapshot)
            self._snapshot = snapshot
        self._swaps.inc()
        _SWAPS_TOTAL.inc()
        if record:
            _SWAP_SECONDS.observe(time.perf_counter() - started)
        return snapshot

    def apply_delta(self, table_index: int, delta,
                    weight_slice: np.ndarray) -> ServingSnapshot:
        """Atomically publish a delta-patched partial for one table.

        The ``O(b·m)`` patch runs **inside** the writer lock so it always
        applies to the latest snapshot -- concurrent deltas and full
        ``update_table`` rebuilds on other tables compose instead of losing
        updates.  Readers are untouched: they hold either the pre- or the
        post-delta snapshot, never a mix (the patched partial is a fresh
        array, the swap a single reference assignment).
        """
        return self.swap(
            lambda snap: snap.with_patched_partial(table_index, delta, weight_slice)
        )

    def submit(self, task: Callable[[], ServingSnapshot]) -> "Future[ServingSnapshot]":
        """Run *task* (rebuild + swap) on the single background worker."""
        self._rebuilds.inc()
        _REBUILDS_TOTAL.inc()
        with self._executor_lock:
            if self._executor is None:
                self._executor = ThreadPoolExecutor(
                    max_workers=1, thread_name_prefix="serve-snapshot"
                )
            return self._executor.submit(task)

    def close(self) -> None:
        """Stop the background worker (waits for a pending rebuild)."""
        with self._executor_lock:
            if self._executor is not None:
                self._executor.shutdown(wait=True)
                self._executor = None
