"""ORE-style chunked storage: :meth:`RowPartitioned.chunked`, serial fixed-size pieces."""

import numpy as np
import pytest
import scipy.sparse as sp

from repro.core.shard import RowPartitioned, row_apply
from repro.exceptions import ShapeError


@pytest.fixture
def dense_matrix():
    return np.random.default_rng(42).standard_normal((23, 5))


@pytest.fixture
def chunked(dense_matrix):
    return RowPartitioned.chunked(dense_matrix, chunk_rows=6)


class TestConstruction:
    def test_from_matrix_chunk_count(self, chunked):
        assert chunked.num_pieces == 4
        assert chunked.executor.pool.name == "serial"

    def test_from_matrix_shape(self, chunked, dense_matrix):
        assert chunked.shape == dense_matrix.shape

    def test_from_matrix_roundtrip(self, chunked, dense_matrix):
        assert np.allclose(chunked.to_dense(), dense_matrix)

    def test_uneven_last_chunk(self, chunked):
        assert chunked.pieces[-1].shape[0] == 23 - 3 * 6

    def test_sparse_chunks(self):
        x = sp.random(20, 4, density=0.3, random_state=1, format="csr")
        chunked = RowPartitioned.chunked(x, 7)
        assert sp.issparse(chunked.materialize())
        assert np.allclose(chunked.to_dense(), x.toarray())

    def test_empty_chunk_list_rejected(self):
        with pytest.raises(ShapeError):
            RowPartitioned([])

    def test_inconsistent_widths_rejected(self):
        with pytest.raises(ShapeError):
            RowPartitioned([np.ones((2, 3)), np.ones((2, 4))])

    def test_invalid_chunk_rows(self, dense_matrix):
        with pytest.raises(ValueError):
            RowPartitioned.chunked(dense_matrix, 0)

    def test_from_dense_returns_chunked(self):
        out = RowPartitioned.chunked(np.ones((10, 2), dtype=np.int64), chunk_rows=4)
        assert isinstance(out, RowPartitioned)
        assert out.num_pieces == 3
        assert out.executor.pool.name == "serial"
        assert all(p.dtype == np.float64 for p in out.pieces)

    def test_from_sparse_returns_chunked(self):
        out = RowPartitioned.chunked(sp.eye(12, format="coo", dtype=np.int64), chunk_rows=5)
        assert isinstance(out, RowPartitioned)
        assert out.shape == (12, 12)
        assert all(sp.issparse(p) and p.format == "csr" and p.dtype == np.float64
                   for p in out.pieces)

    def test_iteration_yields_chunks(self, chunked):
        assert sum(c.shape[0] for c in chunked.pieces) == 23


class TestAggregations:
    def test_rowsums(self, chunked, dense_matrix):
        assert np.allclose(chunked.rowsums().ravel(), dense_matrix.sum(axis=1))

    def test_colsums(self, chunked, dense_matrix):
        assert np.allclose(chunked.colsums().ravel(), dense_matrix.sum(axis=0))

    def test_total_sum(self, chunked, dense_matrix):
        assert np.isclose(chunked.total_sum(), dense_matrix.sum())


class TestProducts:
    def test_matmul_matches_dense(self, chunked, dense_matrix):
        x = np.random.default_rng(1).standard_normal((5, 3))
        assert np.allclose((chunked @ x).to_dense(), dense_matrix @ x)

    def test_matmul_result_stays_chunked(self, chunked):
        out = chunked @ np.ones((5, 2))
        assert isinstance(out, RowPartitioned)
        assert out.executor is chunked.executor

    def test_matmul_shape_mismatch(self, chunked):
        with pytest.raises(ShapeError):
            chunked @ np.ones((4, 2))

    def test_rmatmul_matches_dense(self, chunked, dense_matrix):
        x = np.random.default_rng(2).standard_normal((3, 23))
        assert np.allclose(x @ chunked, x @ dense_matrix)

    def test_rmatmul_shape_mismatch(self, chunked):
        with pytest.raises(ShapeError):
            np.ones((2, 10)) @ chunked

    def test_crossprod(self, chunked, dense_matrix):
        assert np.allclose(chunked.crossprod(), dense_matrix.T @ dense_matrix)

    def test_transpose_matmul(self, chunked, dense_matrix):
        other = np.random.default_rng(3).standard_normal((23, 4))
        assert np.allclose(chunked.T @ other, dense_matrix.T @ other)

    def test_transpose_matmul_shape_mismatch(self, chunked):
        with pytest.raises(ShapeError):
            chunked.T @ np.ones((10, 2))


class TestElementwise:
    def test_scalar_multiplication(self, chunked, dense_matrix):
        assert np.allclose((chunked * 2.5).to_dense(), dense_matrix * 2.5)

    def test_right_scalar_multiplication(self, chunked, dense_matrix):
        assert np.allclose((3 * chunked).to_dense(), 3 * dense_matrix)

    def test_scalar_addition(self, chunked, dense_matrix):
        assert np.allclose((chunked + 1.0).to_dense(), dense_matrix + 1.0)

    def test_scalar_subtraction(self, chunked, dense_matrix):
        assert np.allclose((chunked - 1.0).to_dense(), dense_matrix - 1.0)

    def test_reverse_subtraction(self, chunked, dense_matrix):
        assert np.allclose((1.0 - chunked).to_dense(), 1.0 - dense_matrix)

    def test_division(self, chunked, dense_matrix):
        assert np.allclose((chunked / 4.0).to_dense(), dense_matrix / 4.0)

    def test_power(self, chunked, dense_matrix):
        assert np.allclose((chunked ** 2).to_dense(), dense_matrix ** 2)

    def test_elementwise_function(self, chunked, dense_matrix):
        assert np.allclose(chunked.apply(np.exp).to_dense(), np.exp(dense_matrix))


class TestRowApply:
    def test_row_apply_visits_every_chunk(self, chunked):
        sizes = row_apply(chunked, lambda c: c.shape[0])
        assert sizes == [6, 6, 6, 5]

    def test_row_apply_results_concatenate(self, chunked, dense_matrix):
        pieces = row_apply(chunked, lambda c: np.asarray(c).sum(axis=1, keepdims=True))
        assert np.allclose(np.vstack(pieces).ravel(), dense_matrix.sum(axis=1))


class TestWrongShapeOperands:
    """Regression: chunk-wise arithmetic used to broadcast a wrong-shape matrix
    operand over every chunk (or die inside the scalar path)."""

    @pytest.fixture
    def backend_chunked(self):
        return RowPartitioned.chunked(np.arange(24.0).reshape(8, 3), chunk_rows=4)

    def test_chunk_sized_operand_is_rejected(self, backend_chunked):
        with pytest.raises(ShapeError):
            backend_chunked * np.arange(12.0).reshape(4, 3)

    def test_row_vector_operand_is_rejected(self, backend_chunked):
        with pytest.raises(ShapeError):
            backend_chunked + np.ones((1, 3))

    def test_full_shape_operand_is_elementwise(self, backend_chunked):
        other = np.arange(24.0).reshape(8, 3)
        out = backend_chunked * other
        assert np.allclose(out.to_dense(), other * other)
