"""The factorized scorer: inference pushed through the joins.

Training over normalized data avoids materializing the join; this module
carries the same idea to inference.  A linear score over the join output,

.. code-block:: text

    T @ W = [S, K1 R1, ..., Kq Rq] @ W
          = S @ W_S + K1 (R1 @ W_1) + ... + Kq (Rq @ W_q)

decomposes by the column segments of the normalized matrix: each attribute
table contributes ``K_k (R_k @ W_k)``, and ``R_k @ W_k`` -- the table's
**partial scores** -- depends only on the base table and the weights, never
on the request.  :class:`FactorizedScorer` precomputes those ``n_Rk x m``
partials once, so a scoring request is:

* one dense dot product over the *entity* features only (``d_S`` columns,
  not ``d``), plus
* one O(1) row gather per join key from each precomputed partial.

No join output row is ever assembled, no per-request matmul touches the
attribute columns, and the resident state (``sum_k n_Rk * m`` plus the base
matrices) is a tiny fraction of the materialized ``n_S x d`` matrix -- the
same redundancy argument as training, at request latency.  The M:N class
works identically with every component indicator-routed (no entity block).

Updates go through :meth:`update_table`: only the changed table's partial is
rebuilt (in the background if requested) and the snapshot swap of
:mod:`repro.serve.snapshot` publishes it atomically.
"""

from __future__ import annotations

import time

import numpy as np

from repro import obs
from repro.core.indicator import indicator_codes
from repro.core.mn_matrix import MNNormalizedMatrix
from repro.la import kernels
from repro.core.normalized_matrix import NormalizedMatrix
from repro.core.segments import schema_fingerprint
from repro.exceptions import SchemaMismatchError, ServingError
from repro.la.types import is_matrix_like, normalize_row_indices, to_dense
from repro.ml.base import validate_predict_data
from repro.ml.export import ServingExport, apply_head, export_model
from repro.serve.bounds import DEFAULT_BLOCK_SIZE, ZoneMapIndex, ZoneMaps
from repro.serve.snapshot import ServingSnapshot, SnapshotManager, compute_partial
from repro.serve.topk import TopKResult, top_k_search

#: Update-to-visibility: from the freshness call to the published swap,
#: including any queue wait on the background worker.
_VISIBILITY_SECONDS = obs.REGISTRY.histogram(
    "repro_serve_update_visibility_seconds",
    "Latency from update_table/apply_delta call to the published snapshot",
    labels=("path",),
)
_UPDATES_TOTAL = obs.REGISTRY.counter(
    "repro_serve_updates_total",
    "Freshness operations accepted, by path and mode",
    labels=("path", "mode"),
)


class FactorizedScorer:
    """Low-latency scorer over a normalized schema for one exported model.

    Parameters
    ----------
    export:
        The model's :class:`~repro.ml.export.ServingExport` (weights sliced
        here by column segment).
    matrix:
        The untransposed :class:`NormalizedMatrix` or
        :class:`MNNormalizedMatrix` describing the serving schema.  Its
        entity matrix and indicators provide the row-scoring path
        (:meth:`score_rows`); its attribute tables seed the partials.
    expected_fingerprint:
        Schema fingerprint the export was saved under (the registry passes
        it); mismatch with *matrix* raises :class:`SchemaMismatchError`.
    zone_block_size:
        Entity rows per zone-map block (see :mod:`repro.serve.bounds`).  The
        block min/max score bounds are what :meth:`top_k` prunes with; the
        default suits 1e5+-row serving sets.
    """

    def __init__(self, export: ServingExport, matrix, expected_fingerprint=None,
                 zone_block_size: int = DEFAULT_BLOCK_SIZE):
        if not isinstance(matrix, (NormalizedMatrix, MNNormalizedMatrix)):
            raise ServingError(
                "FactorizedScorer needs a normalized matrix describing the schema; "
                f"got {type(matrix).__name__} (serve plain matrices by plain matmul)"
            )
        if matrix.transposed:
            raise ServingError("FactorizedScorer is only defined for untransposed matrices")
        self.export = export
        self.fingerprint = schema_fingerprint(matrix)
        if expected_fingerprint is not None and expected_fingerprint != self.fingerprint:
            raise SchemaMismatchError(
                f"model was exported for schema {expected_fingerprint[:12]}... but the "
                f"serving matrix has schema {self.fingerprint[:12]}...; "
                "re-export the model or rebuild the matrix"
            )
        if export.n_features != matrix.logical_cols:
            raise SchemaMismatchError(
                f"model has {export.n_features} weights but the schema has "
                f"{matrix.logical_cols} columns"
            )

        self.segments = matrix.column_segments()
        weights = export.weights
        entity_segment = next((s for s in self.segments if s.is_entity), None)
        self._entity = matrix.entity if isinstance(matrix, NormalizedMatrix) else None
        self._entity_weights = (weights[entity_segment.slice()]
                                if entity_segment is not None else None)
        #: segments routed through indicators, in attribute-table order.
        self._table_segments = [s for s in self.segments if not s.is_entity]
        self._codes = [indicator_codes(k) for k in matrix.indicators]
        self._n_rows = matrix.logical_rows

        # The attribute tables are not retained: once the partials exist the
        # scorer never reads them again (update_table receives the fresh
        # table from the caller), and holding them would pin sum_k n_Rk x d_Rk
        # of dead state for the scorer's lifetime.
        partials = tuple(
            compute_partial(matrix.attributes[s.table_index], weights[s.slice()])
            for s in self._table_segments
        )
        # Zone maps ride on every snapshot: the index (block geometry, codes,
        # entity-contribution bounds) is fixed for the scorer's lifetime,
        # the per-snapshot bounds follow the partials through every swap.
        zone_index = ZoneMapIndex.build(
            codes=[self._codes[s.table_index] for s in self._table_segments],
            n_rows=self._n_rows, n_outputs=self.n_outputs,
            entity=self._entity, entity_weights=self._entity_weights,
            block_size=zone_block_size,
        )
        self._snapshots = SnapshotManager(
            ServingSnapshot(partials, zones=ZoneMaps.build(zone_index, partials))
        )

    # -- metadata ----------------------------------------------------------------

    @property
    def kind(self) -> str:
        """The served model kind (selects the prediction heads)."""
        return self.export.kind

    @property
    def n_rows(self) -> int:
        """Number of entity rows addressable by :meth:`score_rows`."""
        return self._n_rows

    @property
    def n_outputs(self) -> int:
        return self.export.n_outputs

    @property
    def num_tables(self) -> int:
        """Number of indicator-routed tables (each with a precomputed partial)."""
        return len(self._table_segments)

    @property
    def entity_width(self) -> int:
        return self._entity_weights.shape[0] if self._entity_weights is not None else 0

    @property
    def version(self) -> int:
        """Snapshot version; bumps by one on every :meth:`update_table` swap."""
        return self._snapshots.snapshot.version

    @property
    def partial_bytes(self) -> int:
        """Resident bytes of the precomputed partial-score matrices."""
        return self._snapshots.snapshot.partial_bytes

    @classmethod
    def from_model(cls, model, matrix) -> "FactorizedScorer":
        """Build a scorer straight from a fitted estimator (no registry)."""
        return cls(export_model(model), matrix)

    # -- scoring -----------------------------------------------------------------

    def current_snapshot(self):
        """The snapshot a request would read right now.

        Pass it back via the ``snapshot=`` parameter of :meth:`score_rows` /
        :meth:`score` to pin several calls to one consistent state -- the
        :class:`~repro.serve.service.ScoringService` does this so a batch
        split into micro-batches never straddles a swap.
        """
        return self._snapshots.snapshot

    def score_rows(self, row_indices, snapshot=None) -> np.ndarray:
        """Raw scores ``T[rows] @ W`` for entity rows of the serving matrix.

        The join keys come from the stored indicator codes, so this is the
        pure lookup path: entity-row gather + ``d_S``-wide dot product + one
        partial gather per table.  Returns ``(len(rows), m)``.  *snapshot*
        (from :meth:`current_snapshot`) pins the serving state across calls;
        by default each call reads the current snapshot once.
        """
        indices = normalize_row_indices(row_indices, self._n_rows)
        if snapshot is None:
            snapshot = self._snapshots.snapshot
        base = self._entity_contribution(
            self._entity[indices, :] if self._entity is not None else None,
            len(indices),
        )
        code_rows = [self._codes[segment.table_index][indices]
                     for segment in self._table_segments]
        return kernels.gather_dot(base, snapshot.partials, code_rows)

    def score(self, features=None, keys=None, snapshot=None) -> np.ndarray:
        """Raw scores for ad-hoc requests: entity features + join keys.

        Parameters
        ----------
        features:
            ``(n, d_S)`` entity-feature rows (or one 1-D row); required
            exactly when the schema has entity features, forbidden otherwise.
        keys:
            ``(n, q)`` attribute-row indices, one column per indicator-routed
            table in segment order (``(n,)`` accepted when ``q == 1``).
        snapshot:
            Optional pinned state from :meth:`current_snapshot`.
        """
        # One snapshot read serves validation *and* gathering: validating
        # against one snapshot and gathering from a successor could read past
        # the end of a partial that shrank in between.
        if snapshot is None:
            snapshot = self._snapshots.snapshot
        features, keys = self._validate_request(features, keys, snapshot)
        n = keys.shape[0] if keys is not None else features.shape[0]
        base = self._entity_contribution(features, n)
        if keys is None:
            return base
        code_rows = [keys[:, position]
                     for position in range(len(self._table_segments))]
        return kernels.gather_dot(base, snapshot.partials, code_rows)

    def predict_rows(self, row_indices) -> np.ndarray:
        """Model predictions for entity rows (labels / clusters / loadings)."""
        return apply_head(self.export, self.score_rows(row_indices), "predict")

    def predict(self, features=None, keys=None) -> np.ndarray:
        """Model predictions for ad-hoc requests."""
        return apply_head(self.export, self.score(features, keys), "predict")

    def predict_proba_rows(self, row_indices) -> np.ndarray:
        """Positive-class probabilities for entity rows (logistic models only)."""
        return apply_head(self.export, self.score_rows(row_indices), "predict_proba")

    def predict_proba(self, features=None, keys=None) -> np.ndarray:
        """Positive-class probabilities for ad-hoc requests (logistic models only)."""
        return apply_head(self.export, self.score(features, keys), "predict_proba")

    # -- top-k: bound-pruned data-skipping search ----------------------------------

    def top_k(self, k: int, largest: bool = True, output: int = 0,
              snapshot=None) -> TopKResult:
        """The k best-scoring entity rows, exactly, without scoring all of them.

        Visits zone-map blocks (see :mod:`repro.serve.bounds`) in decreasing
        bound order and skips every block whose bound cannot beat the current
        k-th best score; surviving blocks are scored exactly through
        :meth:`score_rows`.  The result -- rows ordered best-first, ties by
        ascending row index -- is identical to ranking a full scan, at a
        fraction of the scoring work whenever high scores cluster (see
        ``benchmarks/bench_topk.py``).  The whole search is pinned to one
        snapshot: a concurrent ``update_table``/``apply_delta`` swap can
        never mix bounds from one state with scores from another.

        Parameters
        ----------
        k:
            Number of rows to return; clamped to ``n_rows`` (``k = 0`` is an
            empty result).
        largest:
            Rank by largest (default) or smallest scores.
        output:
            Output column to rank by (models with ``m > 1`` outputs).
        snapshot:
            Optional pinned state from :meth:`current_snapshot`.
        """
        k = int(k)
        if k < 0:
            raise ServingError(f"top_k needs a non-negative k, got {k}")
        output = int(output)
        if not 0 <= output < self.n_outputs:
            raise ServingError(
                f"output {output} out of range for {self.n_outputs} model output(s)"
            )
        if snapshot is None:
            snapshot = self._snapshots.snapshot

        def score_fn(rows: np.ndarray) -> np.ndarray:
            return self.score_rows(rows, snapshot=snapshot)[:, output]

        return top_k_search(score_fn, self._n_rows, k, snapshot.zones,
                            largest=largest, output=output)

    def partial_score_bounds(self, output: int = 0, snapshot=None):
        """Per-table global (min, max) partial-score bounds for one output.

        The ad-hoc counterpart of the per-block bounds: any request keyed to
        *any* attribute row draws each table's contribution from inside these
        intervals, so their sum (plus the entity contribution) bounds every
        reachable ad-hoc score.  The intervals contain every partial row but
        may be loose: deltas widen them with the changed rows' new values and
        never shrink them until the table's bounds are next rebuilt exactly
        (see :meth:`repro.serve.bounds.ZoneMaps.patch_table`).  Returns a
        list of ``(lo, hi)`` floats in table-segment order.
        """
        output = int(output)
        if not 0 <= output < self.n_outputs:
            raise ServingError(
                f"output {output} out of range for {self.n_outputs} model output(s)"
            )
        if snapshot is None:
            snapshot = self._snapshots.snapshot
        if snapshot.zones is None:
            raise ServingError("this snapshot carries no zone maps")
        zones = snapshot.zones
        return [(float(lo[output]), float(hi[output]))
                for lo, hi in zip(zones.partial_lo, zones.partial_hi)]

    def normalize_keys(self, keys) -> np.ndarray:
        """Canonical ``(n, q)`` shape of a join-key argument.

        A flat vector is a key *column* for single-join schemas and one
        q-key request row otherwise.  The single source of this rule: the
        service front end must apply it before chunking (splitting a raw
        1-D vector across micro-batches would turn one q-key request into
        q bogus ones), and the scorer applies it during validation.
        """
        keys = np.asarray(keys)
        if keys.ndim == 1:
            if keys.size == 0:
                return keys.reshape(0, self.num_tables)  # empty batch, not one empty request
            return keys.reshape(-1, 1) if self.num_tables == 1 else keys.reshape(1, -1)
        return keys

    def _entity_contribution(self, features, n: int) -> np.ndarray:
        if self._entity_weights is None or self._entity_weights.shape[0] == 0:
            return np.zeros((n, self.n_outputs))
        return np.asarray(to_dense(features @ self._entity_weights), dtype=np.float64)

    def _validate_request(self, features, keys, snapshot):
        wants_features = self.entity_width > 0
        if wants_features:
            if features is None:
                raise ServingError(
                    f"this schema has {self.entity_width} entity features; "
                    "pass features= alongside the join keys"
                )
            features = validate_predict_data(features, self.entity_width,
                                             "FactorizedScorer.score")
            if not is_matrix_like(features):
                raise ServingError("features must be a dense or sparse matrix")
        elif features is not None:
            raise ServingError("this schema has no entity features; pass keys only")
        if self.num_tables == 0:
            if keys is not None:
                raise ServingError("this schema has no indicator-routed tables")
            return features, None
        if keys is None:
            raise ServingError(f"this schema needs {self.num_tables} join key(s) per request")
        keys = self.normalize_keys(keys)
        if keys.ndim != 2 or keys.shape[1] != self.num_tables:
            raise ServingError(
                f"keys must have shape (n, {self.num_tables}), got {keys.shape}"
            )
        if not np.issubdtype(keys.dtype, np.integer):
            if keys.size:
                raise ServingError("join keys must be integer attribute-row indices")
            # An empty request batch carries no dtype information (np.asarray
            # of [] is float64); let it reach the shaped-empty-result path.
        keys = keys.astype(np.int64, copy=False)
        for position, segment in enumerate(self._table_segments):
            limit = snapshot.partials[position].shape[0]
            column = keys[:, position]
            if column.size and (column.min() < 0 or column.max() >= limit):
                raise ServingError(
                    f"join key out of range for {segment.name} "
                    f"(valid rows: 0..{limit - 1})"
                )
        if wants_features and features.shape[0] != keys.shape[0]:
            raise ServingError(
                f"got {features.shape[0]} feature rows but {keys.shape[0]} key rows"
            )
        return features, keys

    # -- freshness: per-table partial rebuild + snapshot swap ----------------------

    def update_table(self, table, new_attribute, wait: bool = True):
        """Swap in a fresh attribute table, rebuilding only its partial scores.

        *table* is a table index or a segment name (``"table_1"`` /
        ``"component_0"``).  The new matrix must keep the table's feature
        count (the weight slice depends on it) and must still cover every
        row the stored indicators reference; the row count may grow (new
        products) or shrink to that bound.  With ``wait=False`` the rebuild
        runs on the background worker and a ``Future`` of the new snapshot
        is returned; scoring continues against the old snapshot until the
        atomic swap, so no request ever reads a torn state.
        """
        segment = self._resolve_table(table)
        expected_width = segment.width
        if not is_matrix_like(new_attribute):
            new_attribute = np.asarray(new_attribute, dtype=np.float64)
        if new_attribute.ndim != 2 or new_attribute.shape[1] != expected_width:
            raise SchemaMismatchError(
                f"{segment.name} has {expected_width} features; replacement has shape "
                f"{getattr(new_attribute, 'shape', None)} (schema changes need a re-export)"
            )
        codes = self._codes[segment.table_index]
        min_rows = int(codes.max()) + 1 if codes.size else 0
        if new_attribute.shape[0] < min_rows:
            raise ServingError(
                f"{segment.name} replacement has {new_attribute.shape[0]} rows but the "
                f"serving indicators reference rows up to {min_rows - 1}"
            )
        weight_slice = self.export.weights[segment.slice()]
        position = self._table_segments.index(segment)

        record = obs.enabled()
        accepted = time.perf_counter() if record else 0.0

        def rebuild() -> ServingSnapshot:
            with obs.span("serve.update_table", table=segment.name):
                partial = compute_partial(new_attribute, weight_slice)
                snapshot = self._snapshots.swap(
                    lambda snap: snap.with_partial(position, partial))
            if record:
                _VISIBILITY_SECONDS.labels(path="rebuild").observe(
                    time.perf_counter() - accepted)
            return snapshot

        if record:
            _UPDATES_TOTAL.labels(path="rebuild",
                                  mode="wait" if wait else "background").inc()
        if wait:
            return rebuild()
        return self._snapshots.submit(rebuild)

    def apply_delta(self, table, delta, wait: bool = True):
        """Absorb a row delta into one table's partial scores incrementally.

        The cheap freshness path: where :meth:`update_table` recomputes the
        whole ``n_Rk x m`` partial from a replacement table,
        this recomputes only the delta's ``b`` changed rows (``new @ W_k``)
        and publishes the patched partial with the same atomic swap -- for
        serving partials the patch is *always* at least as cheap as a
        rebuild, so no cost rule is consulted.  Row appends are allowed
        (``delta.num_rows`` must match the current partial, indices beyond it
        extend it); tombstone deletes zero the rows' contribution.  With
        ``wait=False`` the patch runs on the background worker.
        """
        segment = self._resolve_table(table)
        if delta.width != segment.width:
            raise SchemaMismatchError(
                f"{segment.name} has {segment.width} features but the delta has "
                f"{delta.width} (schema changes need a re-export)"
            )
        weight_slice = self.export.weights[segment.slice()]
        position = self._table_segments.index(segment)

        record = obs.enabled()
        accepted = time.perf_counter() if record else 0.0

        def patch() -> ServingSnapshot:
            # The row-count check runs inside the swap's writer lock (via this
            # closure) against the snapshot actually being patched, so a
            # concurrent grow/shrink on the same table cannot invalidate it.
            def update(snap: ServingSnapshot) -> ServingSnapshot:
                current_rows = snap.partials[position].shape[0]
                if delta.num_rows != current_rows:
                    raise ServingError(
                        f"delta for {segment.name} was captured at {delta.num_rows} "
                        f"rows but the serving partial has {current_rows}; "
                        "recapture against the current table state"
                    )
                return snap.with_patched_partial(position, delta, weight_slice)

            with obs.span("serve.apply_delta", table=segment.name,
                          delta_rows=int(delta.rows.shape[0])):
                snapshot = self._snapshots.swap(update)
            if record:
                _VISIBILITY_SECONDS.labels(path="patch").observe(
                    time.perf_counter() - accepted)
            return snapshot

        if record:
            _UPDATES_TOTAL.labels(path="patch",
                                  mode="wait" if wait else "background").inc()
        if wait:
            return patch()
        return self._snapshots.submit(patch)

    def _resolve_table(self, table):
        if isinstance(table, str):
            for segment in self._table_segments:
                if segment.name == table:
                    return segment
            names = [s.name for s in self._table_segments]
            raise ServingError(f"unknown table {table!r}; serving tables: {names}")
        index = int(table)
        for segment in self._table_segments:
            if segment.table_index == index:
                return segment
        raise ServingError(
            f"table index {index} out of range for {self.num_tables} serving tables"
        )

    def close(self) -> None:
        """Stop the background update worker (idempotent)."""
        self._snapshots.close()
