"""Tests for the generic dispatch layer in :mod:`repro.la.generic`."""

import numpy as np
import scipy.sparse as sp

from repro.core.shard import RowPartitioned
from repro.la import generic


class TestDispatchOnPlainMatrices:
    def setup_method(self):
        self.x = np.random.default_rng(5).standard_normal((11, 4))

    def test_rowsums(self):
        assert np.allclose(generic.rowsums(self.x).ravel(), self.x.sum(axis=1))

    def test_colsums(self):
        assert np.allclose(generic.colsums(self.x).ravel(), self.x.sum(axis=0))

    def test_total_sum(self):
        assert np.isclose(generic.total_sum(self.x), self.x.sum())

    def test_crossprod(self):
        assert np.allclose(generic.crossprod(self.x), self.x.T @ self.x)

    def test_ginv(self):
        g = generic.ginv(self.x)
        assert np.allclose(self.x @ g @ self.x, self.x, atol=1e-8)

    def test_elementwise(self):
        assert np.allclose(generic.elementwise(self.x, np.exp), np.exp(self.x))

    def test_square(self):
        assert np.allclose(generic.square(self.x), self.x ** 2)

    def test_matmul(self):
        y = np.ones((4, 2))
        assert np.allclose(generic.matmul(self.x, y), self.x @ y)

    def test_row_min(self):
        assert np.allclose(generic.row_min(self.x).ravel(), self.x.min(axis=1))

    def test_num_rows_cols(self):
        assert generic.num_rows(self.x) == 11
        assert generic.num_cols(self.x) == 4

    def test_to_dense_result_sparse(self):
        s = sp.eye(3, format="csr")
        assert isinstance(generic.to_dense_result(s), np.ndarray)


class TestDispatchOnNormalizedMatrix:
    def test_rowsums_uses_factorized_method(self, single_join_dense):
        _, normalized, materialized = single_join_dense
        assert np.allclose(generic.rowsums(normalized).ravel(), materialized.sum(axis=1))

    def test_colsums_uses_factorized_method(self, single_join_dense):
        _, normalized, materialized = single_join_dense
        assert np.allclose(generic.colsums(normalized).ravel(), materialized.sum(axis=0))

    def test_crossprod_uses_factorized_method(self, single_join_dense):
        _, normalized, materialized = single_join_dense
        assert np.allclose(generic.crossprod(normalized), materialized.T @ materialized)

    def test_total_sum(self, single_join_dense):
        _, normalized, materialized = single_join_dense
        assert np.isclose(generic.total_sum(normalized), materialized.sum())

    def test_elementwise_returns_normalized(self, single_join_dense):
        _, normalized, materialized = single_join_dense
        out = generic.elementwise(normalized, np.abs)
        assert hasattr(out, "materialize")
        assert np.allclose(out.to_dense(), np.abs(materialized))

    def test_to_dense_result(self, single_join_dense):
        _, normalized, materialized = single_join_dense
        assert np.allclose(generic.to_dense_result(normalized), materialized)


class TestDispatchOnChunkedMatrix:
    def setup_method(self):
        self.dense = np.random.default_rng(6).standard_normal((17, 3))
        self.chunked = RowPartitioned.chunked(self.dense, 5)

    def test_rowsums(self):
        assert np.allclose(generic.rowsums(self.chunked).ravel(), self.dense.sum(axis=1))

    def test_colsums(self):
        assert np.allclose(generic.colsums(self.chunked).ravel(), self.dense.sum(axis=0))

    def test_crossprod(self):
        assert np.allclose(generic.crossprod(self.chunked), self.dense.T @ self.dense)

    def test_elementwise(self):
        out = generic.elementwise(self.chunked, np.exp)
        assert np.allclose(out.to_dense(), np.exp(self.dense))

    def test_total_sum(self):
        assert np.isclose(generic.total_sum(self.chunked), self.dense.sum())
