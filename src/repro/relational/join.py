"""Join execution and indicator-matrix construction.

This module is where the relational world meets the linear-algebra world.
Given base tables it can either

* **materialize** the join output (what the paper calls the materialized
  approach, "M"), or
* build the **indicator matrices** that define the normalized matrix
  (the factorized approach, "F"): ``K_i`` for star-schema PK-FK joins
  (Section 3.1 and 3.5) and ``(I_S, I_R)`` for M:N equi-joins (Section 3.6).

Both paths are used by the benchmarks so that data-preparation time
(Table 12) can be compared between the two approaches.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

from repro.exceptions import SchemaError
from repro.la.indicator import CodeIndicator, compose
from repro.la.ops import indicator_from_labels
from repro.relational.schema import Column, TableSchema
from repro.relational.table import Table


@dataclass
class JoinResult:
    """Outcome of a join: either materialized columns or indicator matrices.

    Attributes
    ----------
    materialized:
        The joined :class:`Table` when materialization was requested.
    indicators:
        List of indicator matrices (one per attribute table for star
        schemas; ``[I_S, I_R]`` for M:N joins).
    row_mappings:
        For each indicator matrix, the integer row labels it was built from
        (useful for debugging and for tests).
    """

    materialized: Optional[Table] = None
    indicators: List[CodeIndicator] = field(default_factory=list)
    row_mappings: List[np.ndarray] = field(default_factory=list)


# ---------------------------------------------------------------------------
# PK-FK joins
# ---------------------------------------------------------------------------

def _check_key_nan(table: Table, column: str, role: str) -> None:
    """Reject NaN join-key values with an error naming the table and column."""
    values = table.column(column)
    if np.issubdtype(values.dtype, np.floating):
        nan_mask = np.isnan(values)
        if nan_mask.any():
            row = int(np.argmax(nan_mask))
        else:
            return
    elif values.dtype == object:
        nan_rows = [i for i, v in enumerate(values.tolist())
                    if isinstance(v, float) and np.isnan(v)]
        if not nan_rows:
            return
        row = nan_rows[0]
    else:
        return
    raise SchemaError(
        f"{role} column {table.name}.{column} contains NaN at row {row}; "
        "NaN never equals any key, so the join is undefined -- drop or "
        "impute the rows first"
    )


def pk_fk_indicator(entity: Table, fk_column: str, attribute: Table,
                    pk_column: str) -> Tuple[CodeIndicator, np.ndarray]:
    """Build the PK-FK indicator matrix ``K`` for one foreign-key edge.

    ``K`` has shape ``(n_S, n_R)`` with ``K[i, j] = 1`` iff row ``i`` of the
    entity table references row ``j`` of the attribute table.  Every entity row
    must reference an existing attribute row (standard referential integrity);
    a dangling foreign key raises :class:`SchemaError` naming the offending
    value, and NaN foreign keys are rejected up front (NaN never matches a
    primary key).

    The key lookup goes through the attribute table's cached
    :meth:`~repro.relational.table.Table.positions_for_keys` index and is
    vectorized, so repeated indicator builds against the same attribute table
    (every snowflake alias sharing a dimension, every rebuild in a training
    sweep) reuse one sorted index instead of re-hashing the primary key
    column per call.

    Returns the indicator matrix together with the integer row labels used to
    build it (``labels[i] = j``).
    """
    fk_values = entity.column(fk_column)
    _check_key_nan(entity, fk_column, "foreign key")
    # A NaN primary key is just as broken as a NaN foreign key: no FK value
    # can ever reference it, so the row is silently unreachable.
    _check_key_nan(attribute, pk_column, "primary key")
    try:
        labels = attribute.positions_for_keys(pk_column, fk_values)
    except SchemaError as exc:
        value = getattr(exc, "key", None)
        if value is None:
            raise  # table-level problem (e.g. duplicate primary key)
        raise SchemaError(
            f"foreign key value {value!r} in {entity.name}.{fk_column} "
            f"has no match in {attribute.name}.{pk_column}"
        ) from None
    indicator = indicator_from_labels(labels, num_columns=attribute.num_rows)
    return indicator, labels


def chained_indicator(hops: Sequence[CodeIndicator]) -> CodeIndicator:
    """Compose per-hop PK-FK indicators into one indicator.

    A single hop is returned as-is.  Multiple hops compose, once, into the
    code vector of their product ``K_1 K_2 ... K_h`` (``c_h[... c_2[c_1]]``):
    the product of one-1-per-row indicators has one 1 per row, so a
    snowflake path is an ordinary indicator to everything downstream.
    Raises :class:`~repro.exceptions.ShapeError` when a hop's row count does
    not match the previous hop's column count.
    """
    hops = list(hops)
    if not hops:
        raise SchemaError("chained_indicator needs at least one hop")
    return compose(hops)


def drop_unreferenced(entity: Table, fk_column: str, attribute: Table,
                      pk_column: str) -> Table:
    """Remove attribute-table rows never referenced by the entity table.

    The paper assumes (w.l.o.g.) that every tuple of ``R`` is referenced by at
    least one tuple of ``S`` and notes that unreferenced tuples can be removed
    a priori (Section 3.1).  This helper performs that pre-processing step.
    """
    referenced = set(entity.column(fk_column).tolist())
    keep = [i for i, v in enumerate(attribute.column(pk_column).tolist()) if v in referenced]
    if len(keep) == attribute.num_rows:
        return attribute
    return attribute.select_rows(keep)


def join_pk_fk(entity: Table, fk_column: str, attribute: Table, pk_column: str,
               attribute_columns: Optional[Sequence[str]] = None) -> Table:
    """Materialize the PK-FK join output ``T = S join R`` as a new table.

    Every column of the entity table is kept; the selected attribute columns
    (all non-key columns by default) are gathered via the foreign key.  Column
    name clashes are resolved by prefixing with the attribute table name.
    """
    _, labels = pk_fk_indicator(entity, fk_column, attribute, pk_column)
    if attribute_columns is None:
        attribute_columns = [c for c in attribute.column_names if c != pk_column]
    columns: Dict[str, np.ndarray] = {c: entity.column(c) for c in entity.column_names}
    schema_cols = [entity._column_meta(c) for c in entity.column_names]
    for col in attribute_columns:
        values = attribute.column(col)[labels]
        out_name = col if col not in columns else f"{attribute.name}.{col}"
        columns[out_name] = values
        meta = attribute._column_meta(col)
        schema_cols.append(meta if meta.name == out_name
                           else Column(out_name, meta.ctype))
    # Column roles survive materialization: the joined table keeps the entity
    # side's keys and every source column's declared type, so downstream
    # encode_features still one-hot encodes categorical-coded numeric columns.
    schema = TableSchema(
        name=f"{entity.name}_join_{attribute.name}", columns=schema_cols,
        primary_key=entity.schema.primary_key,
        foreign_keys=list(entity.schema.foreign_keys),
    )
    return Table(f"{entity.name}_join_{attribute.name}", columns, schema=schema)


def join_star(entity: Table, edges: Sequence[Tuple[str, Table, str]]) -> Table:
    """Materialize a star-schema join of the entity table with several attribute tables.

    *edges* is a sequence of ``(fk_column, attribute_table, pk_column)``
    triples, applied left to right.
    """
    result = entity
    for fk_column, attribute, pk_column in edges:
        result = join_pk_fk(result, fk_column, attribute, pk_column)
    return result


def star_indicators(entity: Table, edges: Sequence[Tuple[str, Table, str]]
                    ) -> JoinResult:
    """Build the indicator matrices ``K_1 .. K_q`` for a star schema."""
    result = JoinResult()
    for fk_column, attribute, pk_column in edges:
        indicator, labels = pk_fk_indicator(entity, fk_column, attribute, pk_column)
        result.indicators.append(indicator)
        result.row_mappings.append(labels)
    return result


# ---------------------------------------------------------------------------
# M:N equi-joins
# ---------------------------------------------------------------------------

def mn_join_indicators(left: Table, left_column: str, right: Table,
                       right_column: str) -> Tuple[CodeIndicator, CodeIndicator]:
    """Build the pair of indicator matrices ``(I_S, I_R)`` for an M:N equi-join.

    Following Section 3.6, we conceptually compute the non-deduplicating
    projection join ``T' = pi(S) join pi(R)`` on the join attributes and record
    which source rows produced each output row: ``I_S[t, i] = 1`` iff output
    row ``t`` came from row ``i`` of the left table (similarly for ``I_R``).
    Output rows are ordered by left row index then right row index, which is
    deterministic and matches a nested-loop join over sorted groups.
    """
    _check_key_nan(left, left_column, "M:N join key")
    _check_key_nan(right, right_column, "M:N join key")
    right_groups = right.group_positions(right_column)
    left_values = left.column(left_column)
    left_rows: List[int] = []
    right_rows: List[int] = []
    for i, value in enumerate(left_values.tolist()):
        matches = right_groups.get(value)
        if not matches:
            continue
        for j in matches:
            left_rows.append(i)
            right_rows.append(j)
    if not left_rows:
        raise SchemaError(
            f"M:N join between {left.name}.{left_column} and {right.name}.{right_column} is empty"
        )
    i_s = indicator_from_labels(np.asarray(left_rows), num_columns=left.num_rows)
    i_r = indicator_from_labels(np.asarray(right_rows), num_columns=right.num_rows)
    return i_s, i_r


def join_mn(left: Table, left_column: str, right: Table, right_column: str,
            left_columns: Optional[Sequence[str]] = None,
            right_columns: Optional[Sequence[str]] = None) -> Table:
    """Materialize an M:N equi-join with the same row order as the indicators."""
    i_s, i_r = mn_join_indicators(left, left_column, right, right_column)
    left_labels, right_labels = i_s.codes, i_r.codes
    if left_columns is None:
        left_columns = list(left.column_names)
    if right_columns is None:
        right_columns = [c for c in right.column_names if c != right_column]
    columns: Dict[str, np.ndarray] = {}
    schema_cols = []
    for col in left_columns:
        columns[col] = left.column(col)[left_labels]
        schema_cols.append(left._column_meta(col))
    for col in right_columns:
        out_name = col if col not in columns else f"{right.name}.{col}"
        columns[out_name] = right.column(col)[right_labels]
        meta = right._column_meta(col)
        schema_cols.append(meta if meta.name == out_name
                           else Column(out_name, meta.ctype))
    # The join output has no primary key (rows multiply), but column types
    # must survive so feature encoding treats the output like the sources.
    schema = TableSchema(name=f"{left.name}_mnjoin_{right.name}", columns=schema_cols)
    return Table(f"{left.name}_mnjoin_{right.name}", columns, schema=schema)


def mn_drop_noncontributing(left: Table, left_column: str, right: Table,
                            right_column: str) -> Tuple[Table, Table]:
    """Drop rows of either table that contribute nothing to the M:N join output.

    This mirrors the paper's assumption that every column of ``I_S`` and
    ``I_R`` has at least one non-zero (Section 3.6).
    """
    left_values = set(left.column(left_column).tolist())
    right_values = set(right.column(right_column).tolist())
    common = left_values & right_values
    left_keep = [i for i, v in enumerate(left.column(left_column).tolist()) if v in common]
    right_keep = [i for i, v in enumerate(right.column(right_column).tolist()) if v in common]
    if not left_keep or not right_keep:
        raise SchemaError("M:N join would be empty after dropping non-contributing rows")
    left_out = left if len(left_keep) == left.num_rows else left.select_rows(left_keep)
    right_out = right if len(right_keep) == right.num_rows else right.select_rows(right_keep)
    return left_out, right_out
