"""Out-of-core mini-batch streaming over normalized (and plain) matrices.

Factorization makes mini-batching nearly free: a row batch of the logical
join output ``T`` is just a ``take_rows`` slice of the entity matrix and the
indicator matrices, while the attribute tables ``R_k`` are shared untouched
across every batch (and across epochs).  This module provides the row
selection the streaming layer is built on:

* :func:`take_rows` / :func:`slice_rows` -- row selection across operand
  families (normalized matrices slice their entity and indicators, plain
  matrices are sliced directly).
* :class:`NormalizedBatchIterator` -- yields factorized row batches of a data
  matrix (plus aligned target slices) with a configurable ``batch_size``,
  seeded shuffling, and a ``memory_budget`` mode that derives the batch size
  from the planner's memory model
  (:func:`repro.core.planner.memory.batch_rows_for_budget`).  The ML
  estimators' ``solver="sgd"`` / ``partial_fit`` paths consume it, as does
  the chunk-wise CSV ingestion in :mod:`repro.relational.csv_io`.

Out-of-core execution of the Table-1 operator surface is
:meth:`RowPartitioned.streamed <repro.core.shard.RowPartitioned.streamed>`
(``NormalizedMatrix.stream()``): a row partition whose pieces are
``slice_rows`` batches produced one at a time.  Scalar operators and
``apply`` compose a per-piece op that runs on each batch as it is produced,
so a normalized batch stays factorized and ``(2 * T) @ w`` still streams
factorized batches; only a plain sparse batch densifies, one batch at a
time, when the op does not preserve sparsity (``sparse + 1``).

The row selection and the iterator accept any operand with a ``take_rows``
method (:class:`~repro.core.normalized_matrix.NormalizedMatrix`,
:class:`~repro.core.mn_matrix.MNNormalizedMatrix`) as well as plain
dense/sparse matrices (sliced directly), so factorized and materialized
streaming runs share one code path -- which is what the equivalence tests and
the streaming benchmark compare.
"""

from __future__ import annotations

import time
from dataclasses import dataclass
from typing import Iterator, Optional

import numpy as np

from repro import obs
from repro.exceptions import NotSupportedError, ShapeError
from repro.la.types import (
    ensure_2d,
    is_matrix_like,
    normalize_row_indices,
)

_STREAM_EPOCHS = obs.REGISTRY.counter(
    "repro_stream_epochs_total", "Full passes started over a streamed source"
)
_STREAM_BATCHES = obs.REGISTRY.counter(
    "repro_stream_batches_total", "Mini-batches yielded by the streaming loop"
)
_STREAM_ROWS = obs.REGISTRY.counter(
    "repro_stream_rows_total", "Rows yielded by the streaming loop"
)
_STREAM_EPOCH_SECONDS = obs.REGISTRY.histogram(
    "repro_stream_epoch_seconds", "Wall-clock seconds per completed epoch pass"
)
_STREAM_ROWS_PER_SEC = obs.REGISTRY.gauge(
    "repro_stream_rows_per_second", "Throughput of the most recent epoch pass"
)


def take_rows(data, indices) -> object:
    """Row selection across operand families.

    Normalized matrices slice through their own ``take_rows`` (entity and
    indicators sliced, attribute tables shared); plain dense/sparse matrices
    are sliced directly.  Index validation matches
    :func:`repro.la.types.normalize_row_indices` everywhere.
    """
    if hasattr(data, "take_rows"):
        return data.take_rows(indices)
    matrix = ensure_2d(data)
    indices = normalize_row_indices(indices, matrix.shape[0])
    return matrix[indices, :]


def slice_rows(data, start: int, stop: int) -> object:
    """Contiguous row range ``[start, stop)`` of *data* -- the hot batch cut.

    Equivalent to ``take_rows(data, np.arange(start, stop))`` but slices with
    Python ranges, which keeps dense entity slices and the indicator codes
    zero-copy views instead of fancy gathers -- the difference is most of
    the per-batch overhead of an unshuffled epoch.
    """
    if hasattr(data, "take_rows"):
        try:
            return _slice_piece(data, start, stop)
        except TypeError:  # an operand family _slice_piece does not know
            return data.take_rows(np.arange(start, stop))
    return ensure_2d(data)[start:stop, :]


@dataclass
class Batch:
    """One mini-batch: the row-sliced data matrix, its row indices, the target slice."""

    data: object
    indices: np.ndarray
    target: Optional[np.ndarray] = None

    @property
    def num_rows(self) -> int:
        return int(self.indices.shape[0])


class NormalizedBatchIterator:
    """Iterate a data matrix (and optional target) as factorized row batches.

    Parameters
    ----------
    data:
        The data matrix: a :class:`~repro.core.normalized_matrix.NormalizedMatrix`,
        an :class:`~repro.core.mn_matrix.MNNormalizedMatrix`, or a plain
        dense/sparse matrix.  Must be untransposed.
    target:
        Optional target aligned with the data rows; sliced alongside every
        batch.  1-D targets are promoted to column vectors.
    batch_size:
        Rows per batch.  Defaults to one full-size batch (``n_rows``) unless
        *memory_budget* is given.
    shuffle:
        Draw a fresh seeded permutation per epoch (per ``__iter__`` call).
        With ``shuffle=False`` batches are contiguous row ranges in order, and
        a batch that covers every row is the original operand itself -- so one
        epoch at ``batch_size >= n_rows`` executes bit-for-bit like a
        full-batch pass.
    seed:
        Seed for the shuffling RNG; epochs draw successive permutations from
        one generator, so a whole multi-epoch run is reproducible.
    memory_budget:
        When *batch_size* is not given, pick it so one (densified) batch fits
        in this many bytes, via the planner's memory model
        (:func:`~repro.core.planner.memory.batch_rows_for_budget`).
    """

    def __init__(self, data, target=None, batch_size: Optional[int] = None,
                 shuffle: bool = False, seed: Optional[int] = 0,
                 memory_budget: Optional[float] = None):
        if getattr(data, "transposed", False):
            raise NotSupportedError("batch iteration is only defined for untransposed matrices")
        if not (hasattr(data, "take_rows") or is_matrix_like(data)):
            raise NotSupportedError(
                f"cannot stream batches of {type(data).__name__}: it has no row "
                "selection surface (take_rows)"
            )
        self.data = data
        self.n_rows = int(data.shape[0])
        if target is not None:
            target = ensure_2d(np.asarray(target))
            if target.shape[0] != self.n_rows:
                raise ShapeError(
                    f"target has {target.shape[0]} rows but the data matrix has {self.n_rows}"
                )
        self.target = target
        if batch_size is not None:
            batch_size = int(batch_size)
            if batch_size < 1:
                raise ValueError("batch_size must be at least 1")
        elif memory_budget is not None:
            from repro.core.planner.memory import batch_rows_for_budget

            batch_size = batch_rows_for_budget(data, memory_budget)
        else:
            batch_size = max(self.n_rows, 1)
        self.batch_size = batch_size
        self.shuffle = bool(shuffle)
        self._rng = np.random.default_rng(seed)

    @property
    def num_batches(self) -> int:
        """Batches per epoch (0 for an empty matrix)."""
        return -(-self.n_rows // self.batch_size) if self.n_rows else 0

    def __len__(self) -> int:
        return self.num_batches

    def __iter__(self) -> Iterator[Batch]:
        record = obs.enabled()
        if record:
            epoch_started = time.perf_counter()
            _STREAM_EPOCHS.inc()
        order = self._rng.permutation(self.n_rows) if self.shuffle else None
        try:
            yield from self._iter_batches(order, record)
        finally:
            if record:
                elapsed = time.perf_counter() - epoch_started
                _STREAM_EPOCH_SECONDS.observe(elapsed)
                if elapsed > 0:
                    _STREAM_ROWS_PER_SEC.set(self.n_rows / elapsed)

    def _iter_batches(self, order, record: bool) -> Iterator[Batch]:
        for start in range(0, self.n_rows, self.batch_size):
            stop = min(start + self.batch_size, self.n_rows)
            if record:
                _STREAM_BATCHES.inc()
                _STREAM_ROWS.inc(stop - start)
            if order is None:
                if start == 0 and stop == self.n_rows:
                    # Identity fast path: a full-coverage in-order batch *is*
                    # the matrix -- no slicing, so full-batch equivalence is
                    # bit-for-bit by construction.
                    yield Batch(data=self.data, indices=np.arange(self.n_rows),
                                target=self.target)
                    continue
                indices = np.arange(start, stop)
                target = self.target[start:stop] if self.target is not None else None
                yield Batch(data=slice_rows(self.data, start, stop),
                            indices=indices, target=target)
                continue
            indices = order[start:stop]
            target = self.target[indices] if self.target is not None else None
            yield Batch(data=take_rows(self.data, indices), indices=indices, target=target)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (f"NormalizedBatchIterator(rows={self.n_rows}, batch_size={self.batch_size}, "
                f"batches={self.num_batches}, shuffle={self.shuffle})")


def _slice_piece(plain, start: int, stop: int):
    """Row slice ``[start, stop)`` of an untransposed normalized matrix."""
    from repro.core.mn_matrix import MNNormalizedMatrix
    from repro.core.normalized_matrix import NormalizedMatrix

    if isinstance(plain, NormalizedMatrix):
        entity = plain.entity[start:stop, :] if plain.entity is not None else None
        indicators = [k[start:stop, :] for k in plain.indicators]
        return NormalizedMatrix(entity, indicators, plain.attributes, transposed=False,
                                validate=False, crossprod_method=plain.crossprod_method)
    if isinstance(plain, MNNormalizedMatrix):
        indicators = [i[start:stop, :] for i in plain.indicators]
        return MNNormalizedMatrix(indicators, plain.attributes, transposed=False,
                                  validate=False, crossprod_method=plain.crossprod_method)
    raise TypeError(f"cannot slice operands of type {type(plain).__name__}")
