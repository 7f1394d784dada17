"""Relational substrate: tables, schemas, joins, and feature encoding.

The paper assumes the input arrives as a *normalized* relational schema -- an
entity table ``S`` with one or more foreign keys into attribute tables
``R1..Rq`` (star-schema PK-FK), or two tables related by a general M:N
equi-join.  This subpackage provides everything needed to go from raw tabular
data to the matrices the Morpheus core consumes:

* :class:`repro.relational.table.Table` -- a small column-oriented table with
  typed columns and schema metadata.
* :mod:`repro.relational.schema` -- column/key/schema descriptors and
  validation.
* :mod:`repro.relational.join` -- PK-FK joins, star-schema joins and M:N
  equi-joins, including construction of the indicator matrices ``K``
  and ``(IS, IR)`` that define the normalized matrix.
* :mod:`repro.relational.encoding` -- one-hot encoding of categorical columns
  into sparse feature matrices (how the paper's "real" datasets become sparse
  matrices, Table 6).
* :mod:`repro.relational.csv_io` -- CSV reading/writing so the quickstart
  mirrors the paper's R snippet (``read.csv`` followed by ``sparseMatrix``).
"""

from repro.relational.schema import (
    Column,
    ColumnType,
    ForeignKey,
    Join,
    Mapping,
    SchemaGraph,
    StarSchema,
    TableSchema,
    to_mapping,
)
from repro.relational.table import Table
from repro.relational.join import (
    JoinResult,
    chained_indicator,
    pk_fk_indicator,
    join_pk_fk,
    join_star,
    mn_join_indicators,
    join_mn,
    drop_unreferenced,
)
from repro.relational.encoding import OneHotEncoder, encode_features, FeatureMatrix
from repro.relational.csv_io import (
    read_csv,
    read_csv_chunks,
    stream_normalized_batches,
    write_csv,
)
from repro.relational.pipeline import (
    NormalizedDataset,
    normalized_from_schema,
    normalized_from_tables,
    mn_normalized_from_tables,
)

__all__ = [
    "Column",
    "ColumnType",
    "ForeignKey",
    "Join",
    "Mapping",
    "SchemaGraph",
    "TableSchema",
    "StarSchema",
    "Table",
    "to_mapping",
    "JoinResult",
    "chained_indicator",
    "pk_fk_indicator",
    "join_pk_fk",
    "join_star",
    "mn_join_indicators",
    "join_mn",
    "drop_unreferenced",
    "OneHotEncoder",
    "encode_features",
    "FeatureMatrix",
    "read_csv",
    "read_csv_chunks",
    "stream_normalized_batches",
    "write_csv",
    "NormalizedDataset",
    "normalized_from_schema",
    "normalized_from_tables",
    "mn_normalized_from_tables",
]
