"""Zone-map score bounds for data-skipping top-k serving.

Scanning all ``N`` entity rows to answer "the k best" wastes the factorized
structure twice over: the per-table partial scores already summarize every
attribute table, and real entity tables have *locality* -- rows ingested
together reference the same attribute rows, so high scores cluster in
contiguous row ranges.  This module turns both observations into zone maps
(the classic min-max data-skipping metadata, here over *score contributions*
instead of raw column values):

* The entity rows are cut into contiguous **blocks** of ``block_size`` rows.
* For every block and every output column, the zone map stores a lower and
  an upper bound on each score component over the block: the entity
  contribution ``S[i] @ W_S`` and, per attribute table, the gathered partial
  contribution ``partial_k[code_k(i)]``.
* Summing the per-component upper bounds (in the same order the scorer
  accumulates the components -- floating-point rounding is monotone, so the
  computed bound dominates every computed score in the block) gives a
  per-block upper bound no row in the block can exceed; the lower bounds
  give the lower bound.  A top-k search can then *skip every block whose
  bound cannot reach the current k-th best score* (see
  :mod:`repro.serve.topk`).
* Per table, bounds over all partial-score rows are kept as well -- the
  bound for **ad-hoc key requests**, where the key can name any attribute
  row rather than the ones the stored indicators reference.

A bound only has to *contain* its scores, not be tight (the soundness rule
of provenance-based data skipping, Niu et al.).  A fresh build stores the
exact min/max; a row delta then **widens** only the blocks that reference a
changed attribute row, folding the changed rows' new partial values into
their min/max at ``O(|δ|·fan-out)`` cost, and folds the same rows into the
ad-hoc bounds in ``O(|δ|)``.  Every stored bound is still an actual partial
value, so the rounding argument above holds unchanged.  Widening never
tightens, so each :class:`ZoneMaps` counts the rows widened per table since
that table's last exact build; once the count reaches the table's row count
the patch rebuilds the table's bounds exactly instead -- amortized ``O(1)``
per delta row.  On 1% deltas of a 1e5-row table under a 2e5-row entity
(2-core box, numpy kernels) the bounds patch drops from 2.3-2.4 ms, when
every delta rebuilt the table's bounds, to 0.28-0.36 ms, and top-k skips
the same blocks as before.

The split between the two classes mirrors the snapshot protocol:

* :class:`ZoneMapIndex` is the **immutable per-scorer context** -- block
  geometry, the indicator codes (fixed for the scorer's lifetime), the
  entity-contribution block bounds (weights and entity matrix never change),
  and a per-table CSR reverse index from attribute row to the distinct
  entity blocks that reference it.  Built once in
  ``FactorizedScorer.__init__``.
* :class:`ZoneMaps` is the **per-snapshot state** -- per-table block bounds
  over the snapshot's partials plus the combined per-block bounds.  It is
  immutable like the snapshot that carries it: ``update_table`` swaps rebuild
  the swapped table's bounds exactly (:meth:`ZoneMaps.rebuild_table`), delta
  patches widen them (:meth:`ZoneMaps.patch_table`), and either way the
  result is a fresh object published by the same atomic snapshot swap.
"""

from __future__ import annotations

from typing import Optional, Sequence, Tuple

import numpy as np

from repro import obs
from repro.la.types import to_dense

#: Default number of entity rows per zone-map block.
DEFAULT_BLOCK_SIZE = 1024

_ZONEMAP_PATCHES = obs.REGISTRY.counter(
    "repro_serve_zonemap_patches_total",
    "Zone-map delta patches, by mode: widened in place or rebuilt exactly",
    labels=("mode",),
)
_WIDENS = _ZONEMAP_PATCHES.labels(mode="widen")
_REBUILDS = _ZONEMAP_PATCHES.labels(mode="rebuild")


def _readonly(array: np.ndarray) -> np.ndarray:
    array.setflags(write=False)
    return array


def _block_reduce(values: np.ndarray, starts: np.ndarray) -> Tuple[np.ndarray, np.ndarray]:
    """Per-block (min, max) of ``values`` cut at ``starts`` along axis 0."""
    if values.shape[0] == 0:
        empty = np.empty((0, values.shape[1]), dtype=np.float64)
        return empty, empty.copy()
    lo = np.minimum.reduceat(values, starts, axis=0)
    hi = np.maximum.reduceat(values, starts, axis=0)
    return lo, hi


def _reverse_index(codes: np.ndarray, block_size: int) -> Tuple[np.ndarray, np.ndarray]:
    """CSR map from attribute row to the distinct entity blocks referencing it.

    Returns ``(indptr, block_ids)``: the blocks of attribute row ``r`` are
    ``block_ids[indptr[r]:indptr[r + 1]]``, ascending.  A stable sort keeps
    each code's entity rows in order, so its blocks come out non-decreasing
    and one adjacent-duplicate mask leaves the distinct (code, block) pairs.
    """
    order = np.argsort(codes, kind="stable")
    sorted_codes = codes[order]
    blocks = order // block_size
    keep = np.ones(sorted_codes.shape[0], dtype=bool)
    keep[1:] = (sorted_codes[1:] != sorted_codes[:-1]) | (blocks[1:] != blocks[:-1])
    n_keys = int(sorted_codes[-1]) + 1 if sorted_codes.size else 0
    indptr = np.zeros(n_keys + 1, dtype=np.int64)
    np.cumsum(np.bincount(sorted_codes[keep], minlength=n_keys), out=indptr[1:])
    return _readonly(indptr), _readonly(blocks[keep])


class ZoneMapIndex:
    """Immutable block geometry + code index shared by every snapshot.

    Parameters are derived once from the scorer's fixed state: the indicator
    codes per attribute table, the number of entity rows and outputs, and
    (for star schemas with entity features) the per-block min/max of the
    entity contribution ``S @ W_S``.
    """

    __slots__ = ("block_size", "n_rows", "n_blocks", "n_outputs", "codes",
                 "block_starts", "entity_lo", "entity_hi", "_reverse")

    def __init__(self, codes: Sequence[np.ndarray], n_rows: int, n_outputs: int,
                 entity_lo: Optional[np.ndarray], entity_hi: Optional[np.ndarray],
                 block_size: int):
        if block_size < 1:
            raise ValueError("zone-map block_size must be at least 1")
        self.block_size = int(block_size)
        self.n_rows = int(n_rows)
        self.n_outputs = int(n_outputs)
        self.n_blocks = -(-self.n_rows // self.block_size) if self.n_rows else 0
        self.block_starts = np.arange(0, max(self.n_rows, 1), self.block_size)[: self.n_blocks]
        self.codes = tuple(np.asarray(c, dtype=np.int64) for c in codes)
        zeros = np.zeros((self.n_blocks, self.n_outputs), dtype=np.float64)
        self.entity_lo = _readonly(zeros if entity_lo is None else np.asarray(entity_lo))
        self.entity_hi = _readonly(zeros.copy() if entity_hi is None else np.asarray(entity_hi))
        self._reverse = tuple(_reverse_index(c, self.block_size) for c in self.codes)

    @classmethod
    def build(cls, codes: Sequence[np.ndarray], n_rows: int, n_outputs: int,
              entity=None, entity_weights: Optional[np.ndarray] = None,
              block_size: int = DEFAULT_BLOCK_SIZE) -> "ZoneMapIndex":
        """Derive the index from scorer state, scoring the entity block-wise.

        The entity contribution is evaluated per block (never as one resident
        ``N x m`` matrix) with exactly the block slices the pruned search
        will later score, so the stored bounds dominate the values the
        scorer computes for those rows.
        """
        entity_lo = entity_hi = None
        if (entity is not None and entity_weights is not None
                and entity_weights.shape[0] and n_rows):
            n_blocks = -(-n_rows // block_size)
            entity_lo = np.empty((n_blocks, n_outputs), dtype=np.float64)
            entity_hi = np.empty((n_blocks, n_outputs), dtype=np.float64)
            for b in range(n_blocks):
                start = b * block_size
                stop = min(start + block_size, n_rows)
                scores = np.asarray(to_dense(entity[start:stop] @ entity_weights),
                                    dtype=np.float64)
                if scores.ndim == 1:
                    scores = scores.reshape(-1, 1)
                entity_lo[b] = scores.min(axis=0)
                entity_hi[b] = scores.max(axis=0)
        return cls(codes, n_rows, n_outputs, entity_lo, entity_hi, block_size)

    def block_bounds(self, start: int, stop: Optional[int] = None) -> Tuple[int, int]:
        """Row interval ``[lo, hi)`` covered by blocks ``start..stop``."""
        stop = start + 1 if stop is None else stop
        return start * self.block_size, min(stop * self.block_size, self.n_rows)

    def table_bounds(self, partial: np.ndarray, position: int) -> Tuple[np.ndarray, np.ndarray]:
        """Full per-block (min, max) of ``partial[codes]`` for one table."""
        gathered = partial[self.codes[position], :]
        lo, hi = _block_reduce(gathered, self.block_starts)
        return _readonly(lo), _readonly(hi)

    def touched_blocks(self, position: int,
                       attribute_rows: np.ndarray) -> Tuple[np.ndarray, np.ndarray]:
        """Entity blocks referencing each of *attribute_rows*, concatenated.

        Returns ``(blocks, counts)``: ``counts[j]`` blocks of the result
        belong to ``attribute_rows[j]`` (rows no entity references, such as
        appended ones, count zero).  Vectorized over the CSR reverse index.
        """
        indptr, block_ids = self._reverse[position]
        n_keys = indptr.shape[0] - 1
        rows = np.asarray(attribute_rows, dtype=np.int64).ravel()
        starts = indptr[np.minimum(rows, n_keys)]
        counts = indptr[np.minimum(rows + 1, n_keys)] - starts
        total = int(counts.sum())
        offsets = np.repeat(starts - (np.cumsum(counts) - counts), counts)
        return block_ids[offsets + np.arange(total)], counts


class ZoneMaps:
    """Per-snapshot zone-map state: block bounds over one set of partials.

    ``lower``/``upper`` are the combined ``(n_blocks, n_outputs)`` bounds on
    the full factorized score, accumulated component-by-component in the same
    order as :meth:`FactorizedScorer.score_rows` (entity first, then each
    table) so that, by monotonicity of floating-point rounding, no computed
    score in a block escapes its computed bound.  ``partial_lo``/
    ``partial_hi`` are the per-table global bounds over *all* attribute rows,
    valid for ad-hoc key requests.  ``widened`` counts, per table, the rows
    folded in by :meth:`patch_table` since that table's last exact build.
    """

    __slots__ = ("index", "table_lo", "table_hi", "partial_lo", "partial_hi",
                 "widened", "lower", "upper")

    def __init__(self, index: ZoneMapIndex,
                 table_lo: Tuple[np.ndarray, ...], table_hi: Tuple[np.ndarray, ...],
                 partial_lo: Tuple[np.ndarray, ...], partial_hi: Tuple[np.ndarray, ...],
                 widened: Optional[Tuple[int, ...]] = None):
        self.index = index
        self.table_lo = tuple(table_lo)
        self.table_hi = tuple(table_hi)
        self.partial_lo = tuple(partial_lo)
        self.partial_hi = tuple(partial_hi)
        self.widened = (tuple(widened) if widened is not None
                        else (0,) * len(self.table_lo))
        lower = self.index.entity_lo.copy()
        upper = self.index.entity_hi.copy()
        for lo, hi in zip(self.table_lo, self.table_hi):
            lower = lower + lo
            upper = upper + hi
        self.lower = _readonly(lower)
        self.upper = _readonly(upper)

    @staticmethod
    def _global_bounds(partial: np.ndarray) -> Tuple[np.ndarray, np.ndarray]:
        if partial.shape[0] == 0:
            width = partial.shape[1]
            return (_readonly(np.full(width, np.inf)),
                    _readonly(np.full(width, -np.inf)))
        return (_readonly(partial.min(axis=0).astype(np.float64)),
                _readonly(partial.max(axis=0).astype(np.float64)))

    @classmethod
    def build(cls, index: ZoneMapIndex, partials: Sequence[np.ndarray]) -> "ZoneMaps":
        """Exact zone maps for a full set of partials (initial snapshot)."""
        table_lo, table_hi, partial_lo, partial_hi = [], [], [], []
        for position, partial in enumerate(partials):
            lo, hi = index.table_bounds(partial, position)
            table_lo.append(lo)
            table_hi.append(hi)
            glo, ghi = cls._global_bounds(partial)
            partial_lo.append(glo)
            partial_hi.append(ghi)
        return cls(index, tuple(table_lo), tuple(table_hi),
                   tuple(partial_lo), tuple(partial_hi))

    def rebuild_table(self, position: int, partial: np.ndarray) -> "ZoneMaps":
        """Successor zone maps with one table's bounds exactly recomputed.

        Used by ``update_table`` swaps -- the replacement partial shares
        nothing with its predecessor, so every block bound of that table is
        stale -- and by :meth:`patch_table` to re-tighten widened bounds.
        All other tables' bounds are shared with this object.
        """
        lo, hi = self.index.table_bounds(partial, position)
        glo, ghi = self._global_bounds(partial)
        return self._replace(position, lo, hi, glo, ghi, 0)

    def patch_table(self, position: int, partial: np.ndarray,
                    attribute_rows: np.ndarray) -> "ZoneMaps":
        """Successor zone maps after a row delta to one table's partial.

        *attribute_rows* are the partial rows whose values changed.  Their
        new values widen the bounds of exactly the entity blocks that
        reference them (via the reverse code index) and the table's ad-hoc
        bounds.  Once the rows widened since the table's last exact build
        reach its row count, the bounds are rebuilt exactly instead.  Either
        way the patched partial itself was already produced in O(b) by
        ``patch_partial``.
        """
        rows = np.asarray(attribute_rows, dtype=np.int64).ravel()
        widened = self.widened[position] + rows.shape[0]
        if widened >= partial.shape[0]:
            _REBUILDS.inc()
            return self.rebuild_table(position, partial)
        _WIDENS.inc()
        values = partial[rows, :]
        blocks, counts = self.index.touched_blocks(position, rows)
        spread = np.repeat(values, counts, axis=0)
        lo = np.array(self.table_lo[position])
        hi = np.array(self.table_hi[position])
        np.minimum.at(lo, blocks, spread)
        np.maximum.at(hi, blocks, spread)
        glo = np.minimum(self.partial_lo[position], values.min(axis=0, initial=np.inf))
        ghi = np.maximum(self.partial_hi[position], values.max(axis=0, initial=-np.inf))
        return self._replace(position, _readonly(lo), _readonly(hi),
                             _readonly(glo), _readonly(ghi), widened)

    def _replace(self, position: int, lo: np.ndarray, hi: np.ndarray,
                 glo: np.ndarray, ghi: np.ndarray, widened: int) -> "ZoneMaps":
        table_lo = list(self.table_lo)
        table_hi = list(self.table_hi)
        partial_lo = list(self.partial_lo)
        partial_hi = list(self.partial_hi)
        counts = list(self.widened)
        table_lo[position], table_hi[position] = lo, hi
        partial_lo[position], partial_hi[position] = glo, ghi
        counts[position] = widened
        return ZoneMaps(self.index, tuple(table_lo), tuple(table_hi),
                        tuple(partial_lo), tuple(partial_hi), tuple(counts))

    @property
    def n_blocks(self) -> int:
        return self.index.n_blocks

    @property
    def nbytes(self) -> int:
        """Resident bytes of the per-snapshot bound arrays."""
        arrays = [self.lower, self.upper, *self.table_lo, *self.table_hi,
                  *self.partial_lo, *self.partial_hi]
        return int(sum(a.nbytes for a in arrays))
