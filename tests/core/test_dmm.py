"""Tests for double matrix multiplication (paper Appendix C)."""

import numpy as np
import pytest

from repro.core.normalized_matrix import NormalizedMatrix
from repro.core.rewrite import multiplication
from repro.exceptions import ShapeError
from repro.la.ops import indicator_from_labels
from repro.la.types import to_sparse


def build_single_join(n_s: int, d_s: int, n_r: int, d_r: int, seed: int) -> NormalizedMatrix:
    rng = np.random.default_rng(seed)
    entity = rng.standard_normal((n_s, d_s))
    attribute = rng.standard_normal((n_r, d_r))
    labels = np.concatenate([np.arange(n_r), rng.integers(0, n_r, size=n_s - n_r)])
    rng.shuffle(labels)
    indicator = indicator_from_labels(labels, num_columns=n_r)
    return NormalizedMatrix(entity, [indicator], [attribute])


class TestPlainDMM:
    def test_single_join_pair(self):
        # A is (20 x 8); B must be (8 x anything): n_SB = d_A = 8.
        a = build_single_join(n_s=20, d_s=5, n_r=4, d_r=3, seed=1)
        b = build_single_join(n_s=8, d_s=4, n_r=3, d_r=6, seed=2)
        ta = np.asarray(a.materialize())
        tb = np.asarray(b.materialize())
        assert np.allclose(a @ b, ta @ tb)

    def test_output_is_regular_matrix(self):
        a = build_single_join(20, 5, 4, 3, seed=3)
        b = build_single_join(8, 4, 3, 6, seed=4)
        assert isinstance(a @ b, np.ndarray)

    def test_shape_mismatch_raises(self):
        a = build_single_join(20, 5, 4, 3, seed=5)
        b = build_single_join(10, 4, 5, 6, seed=6)
        with pytest.raises(ShapeError):
            a @ b

    def test_multi_join_falls_back_to_materialization(self, multi_join_dense):
        _, normalized, materialized = multi_join_dense
        d = materialized.shape[1]
        other = build_single_join(n_s=d, d_s=3, n_r=4, d_r=5, seed=7)
        expected = materialized @ np.asarray(other.materialize())
        assert np.allclose(normalized @ other, expected)


class TestTransposedDMM:
    def test_gram_pair_a_transposed(self):
        """A^T B with both operands sharing the row dimension."""
        a = build_single_join(n_s=25, d_s=4, n_r=5, d_r=3, seed=8)
        b = build_single_join(n_s=25, d_s=6, n_r=5, d_r=2, seed=9)
        ta = np.asarray(a.materialize())
        tb = np.asarray(b.materialize())
        assert np.allclose(a.T @ b, ta.T @ tb)

    def test_outer_pair_equal_entity_widths(self):
        a = build_single_join(n_s=15, d_s=4, n_r=5, d_r=3, seed=10)
        b = build_single_join(n_s=12, d_s=4, n_r=4, d_r=3, seed=11)
        ta = np.asarray(a.materialize())
        tb = np.asarray(b.materialize())
        assert np.allclose(a @ b.T, ta @ tb.T)

    def test_outer_pair_a_narrower_entity(self):
        a = build_single_join(n_s=15, d_s=2, n_r=5, d_r=5, seed=12)
        b = build_single_join(n_s=12, d_s=4, n_r=4, d_r=3, seed=13)
        ta = np.asarray(a.materialize())
        tb = np.asarray(b.materialize())
        assert np.allclose(a @ b.T, ta @ tb.T)

    def test_outer_pair_a_wider_entity(self):
        a = build_single_join(n_s=15, d_s=5, n_r=5, d_r=2, seed=14)
        b = build_single_join(n_s=12, d_s=3, n_r=4, d_r=4, seed=15)
        ta = np.asarray(a.materialize())
        tb = np.asarray(b.materialize())
        assert np.allclose(a @ b.T, ta @ tb.T)

    def test_both_transposed(self):
        a = build_single_join(n_s=8, d_s=4, n_r=3, d_r=6, seed=16)   # d_A = 10
        b = build_single_join(n_s=20, d_s=5, n_r=4, d_r=3, seed=17)  # B is 20 x 8
        ta = np.asarray(a.materialize())
        tb = np.asarray(b.materialize())
        # A^T is 10 x 8, B^T is 8 x 20.
        assert np.allclose(a.T @ b.T, ta.T @ tb.T)


class TestDMMFunctions:
    def test_dmm_single_function(self):
        a = build_single_join(20, 5, 4, 3, seed=18)
        b = build_single_join(8, 4, 3, 6, seed=19)
        out = multiplication.dmm_single(
            a.entity, a.indicators[0], a.attributes[0],
            b.entity, b.indicators[0], b.attributes[0],
        )
        assert np.allclose(out, np.asarray(a.materialize()) @ np.asarray(b.materialize()))

    def test_gram_pair_function_row_mismatch(self):
        a = build_single_join(20, 5, 4, 3, seed=20)
        b = build_single_join(12, 5, 4, 3, seed=21)
        with pytest.raises(ShapeError):
            multiplication.dmm_gram_pair(
                a.entity, a.indicators[0], a.attributes[0],
                b.entity, b.indicators[0], b.attributes[0],
            )

    def test_outer_pair_function_width_mismatch(self):
        a = build_single_join(15, 4, 5, 3, seed=22)
        b = build_single_join(12, 4, 4, 5, seed=23)
        with pytest.raises(ShapeError):
            multiplication.dmm_outer_pair(
                a.entity, a.indicators[0], a.attributes[0],
                b.entity, b.indicators[0], b.attributes[0],
            )


class TestNnzBounds:
    """Theorems C.1 and C.2: bounds on nnz(K_A^T K_B)."""

    def test_crossing_product_nnz_bounds(self):
        rng = np.random.default_rng(29)
        n_s = 40
        n_ra, n_rb = 6, 9
        labels_a = np.concatenate([np.arange(n_ra), rng.integers(0, n_ra, size=n_s - n_ra)])
        labels_b = np.concatenate([np.arange(n_rb), rng.integers(0, n_rb, size=n_s - n_rb)])
        k_a = indicator_from_labels(labels_a, num_columns=n_ra)
        k_b = indicator_from_labels(labels_b, num_columns=n_rb)
        # A narrow crossing is a dense code-pair histogram; count its non-zeros.
        product = to_sparse(k_a.T @ k_b)
        product.eliminate_zeros()
        assert product.nnz >= max(n_ra, n_rb)
        assert product.nnz <= n_s
        assert product.sum() == pytest.approx(n_s)
