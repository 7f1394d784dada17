"""Synthetic stand-ins for the seven real multi-table datasets of Table 6.

The paper evaluates Morpheus on seven public multi-table datasets (Expedia,
MovieLens1M, Yelp, Walmart, LastFM, BookCrossing, Flights) adapted from
Kumar et al. [28]: categorical features are one-hot encoded, so the feature
matrices are sparse, and each dataset is a star schema with two or three
attribute tables.

We cannot ship the original data, so each spec here records the dataset's
dimensions from Table 6 -- ``(n_S, d_S, nnz_S)`` and per-attribute-table
``(n_Ri, d_Ri, nnz_i)`` -- and :func:`generate_real_dataset` synthesizes data
with the same *shape*: same relative table sizes, same feature counts and the
same per-table density, scaled down by a user-chosen factor.  Because the
factorized speed-ups depend only on these shape parameters (Section 3.4), the
stand-ins preserve who wins and by roughly how much, which is what
EXPERIMENTS.md compares.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import List, Optional, Tuple

import numpy as np
import scipy.sparse as sp

from repro.exceptions import DataGenerationError
from repro.la.indicator import CodeIndicator
from repro.la.ops import indicator_from_labels
from repro.core.normalized_matrix import NormalizedMatrix


@dataclass(frozen=True)
class AttributeTableSpec:
    """Published dimensions of one attribute table: rows, features, non-zeros."""

    num_rows: int
    num_features: int
    nnz: int


@dataclass(frozen=True)
class RealWorldSpec:
    """Published dimensions of one real dataset (a row of Table 6)."""

    name: str
    num_entity_rows: int
    num_entity_features: int
    entity_nnz: int
    attribute_tables: Tuple[AttributeTableSpec, ...]

    @property
    def num_joins(self) -> int:
        return len(self.attribute_tables)

    def scaled(self, scale: float) -> "RealWorldSpec":
        """Shrink every table by *scale* while preserving ratios and density."""
        if not 0 < scale <= 1:
            raise DataGenerationError("scale must be in (0, 1]")

        def shrink_rows(rows: int) -> int:
            return max(2, int(round(rows * scale)))

        entity_rows = shrink_rows(self.num_entity_rows)
        tables = []
        for table in self.attribute_tables:
            rows = min(shrink_rows(table.num_rows), entity_rows)
            # Preserve the average number of non-zeros per row: a one-hot encoded
            # attribute row has the same number of active features regardless of
            # how many rows the table has, and the operator costs depend on nnz.
            nnz_per_row = table.nnz / max(1, table.num_rows)
            features = max(2, int(round(table.num_features * scale)))
            nnz = min(rows * features, max(rows, int(round(nnz_per_row * rows))))
            tables.append(AttributeTableSpec(rows, features, nnz))
        entity_nnz_per_row = self.entity_nnz / max(1, self.num_entity_rows)
        entity_features = self.num_entity_features
        entity_nnz = min(entity_rows * max(1, entity_features),
                         int(round(entity_nnz_per_row * entity_rows)))
        return RealWorldSpec(self.name, entity_rows, entity_features, entity_nnz, tuple(tables))


@dataclass
class RealWorldDataset:
    """Synthesized stand-in: sparse base matrices, indicators and a numeric target."""

    spec: RealWorldSpec
    entity: Optional[sp.csr_matrix]
    indicators: List[CodeIndicator]
    attributes: List[sp.csr_matrix]
    target: np.ndarray = field(repr=False)

    @property
    def normalized(self) -> NormalizedMatrix:
        return NormalizedMatrix(self.entity, self.indicators, self.attributes)

    @property
    def materialized(self) -> sp.csr_matrix:
        return self.normalized.materialize()

    @property
    def binary_target(self) -> np.ndarray:
        """Median-binarized target in ``{-1, +1}`` (how the paper runs logistic regression)."""
        cut = float(np.median(self.target))
        return np.where(self.target > cut, 1.0, -1.0).reshape(-1, 1)


def _sparse_features(rng: np.random.Generator, num_rows: int, num_features: int,
                     nnz: int) -> sp.csr_matrix:
    """Random sparse non-negative feature matrix with roughly *nnz* non-zeros.

    Every row gets at least one non-zero (each entity/attribute row has at
    least its own one-hot category in the original encodings).
    """
    if num_features == 0:
        return sp.csr_matrix((num_rows, 0))
    nnz = max(num_rows, min(nnz, num_rows * num_features))
    rows = list(range(num_rows))
    cols = list(rng.integers(0, num_features, size=num_rows))
    extra = nnz - num_rows
    if extra > 0:
        rows.extend(rng.integers(0, num_rows, size=extra).tolist())
        cols.extend(rng.integers(0, num_features, size=extra).tolist())
    data = rng.uniform(0.1, 1.0, size=len(rows))
    matrix = sp.csr_matrix((data, (rows, cols)), shape=(num_rows, num_features))
    matrix.sum_duplicates()
    return matrix


def generate_real_dataset(spec: RealWorldSpec, scale: float = 1.0,
                          seed: int = 0) -> RealWorldDataset:
    """Synthesize a dataset matching *spec* (optionally scaled down)."""
    scaled = spec.scaled(scale) if scale != 1.0 else spec
    rng = np.random.default_rng(seed)
    n_s = scaled.num_entity_rows

    entity = None
    if scaled.num_entity_features > 0:
        entity = _sparse_features(rng, n_s, scaled.num_entity_features, scaled.entity_nnz)

    indicators: List[CodeIndicator] = []
    attributes: List[sp.csr_matrix] = []
    for table in scaled.attribute_tables:
        attributes.append(_sparse_features(rng, table.num_rows, table.num_features, table.nnz))
        labels = np.concatenate([
            np.arange(table.num_rows, dtype=np.int64),
            rng.integers(0, table.num_rows, size=n_s - table.num_rows, dtype=np.int64),
        ])
        rng.shuffle(labels)
        indicators.append(indicator_from_labels(labels, num_columns=table.num_rows))

    normalized = NormalizedMatrix(entity, indicators, attributes, validate=False)
    weights = rng.standard_normal((normalized.logical_cols, 1))
    target = np.asarray(normalized @ weights).reshape(-1, 1)
    target += 0.1 * rng.standard_normal(target.shape)
    return RealWorldDataset(spec=scaled, entity=entity, indicators=indicators,
                            attributes=attributes, target=target)
