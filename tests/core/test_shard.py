"""Row-partitioned execution: shard geometry, operators, pools, edge cases."""

from concurrent.futures import ThreadPoolExecutor

import numpy as np
import pytest
import scipy.sparse as sp

from repro.core.normalized_matrix import NormalizedMatrix
from repro.core.shard import RowPartitioned, fixed_bounds, row_apply, shard_bounds
from repro.exceptions import ShapeError
from repro.la.parallel import (
    ParallelExecutor,
    ProcessPool,
    SerialPool,
    ThreadPool,
    resolve_pool,
)


class TestShardBounds:
    def test_balanced_partition(self):
        bounds = shard_bounds(10, 3)
        assert bounds == [(0, 4), (4, 7), (7, 10)]

    def test_exact_division(self):
        assert shard_bounds(8, 4) == [(0, 2), (2, 4), (4, 6), (6, 8)]

    def test_single_shard(self):
        assert shard_bounds(7, 1) == [(0, 7)]

    def test_one_row(self):
        assert shard_bounds(1, 1) == [(0, 1)]

    def test_shard_count_clamped_to_rows(self):
        assert shard_bounds(3, 100) == [(0, 1), (1, 2), (2, 3)]
        assert shard_bounds(1, 8) == [(0, 1)]

    def test_covers_every_row_exactly_once(self):
        for n_rows in (1, 2, 5, 17, 64):
            for n_shards in (1, 2, 3, 7, 100):
                bounds = shard_bounds(n_rows, n_shards)
                assert bounds[0][0] == 0 and bounds[-1][1] == n_rows
                assert all(a[1] == b[0] for a, b in zip(bounds, bounds[1:]))

    def test_invalid_inputs(self):
        with pytest.raises(ShapeError):
            shard_bounds(-1, 2)
        with pytest.raises(ValueError):
            shard_bounds(5, 0)

    def test_zero_rows_yield_a_single_empty_shard(self):
        # Regression: divmod(0, min(k, 0)) used to raise instead of degrading
        # to an empty partition.
        for n_shards in (1, 2, 8):
            assert shard_bounds(0, n_shards) == [(0, 0)]

    def test_fixed_bounds(self):
        assert fixed_bounds(10, 4) == [(0, 4), (4, 8), (8, 10)]
        assert fixed_bounds(0, 4) == [(0, 0)]
        with pytest.raises(ValueError):
            fixed_bounds(5, 0)

    def test_zero_row_sharded_matrix(self):
        empty = np.zeros((0, 4))
        sharded = RowPartitioned.from_matrix(empty, 3)
        assert sharded.shape == (0, 4)
        assert sharded.num_pieces == 1
        assert sharded.colsums().shape == (1, 4)
        assert np.allclose(sharded.crossprod(), np.zeros((4, 4)))
        assert sharded.to_dense().shape == (0, 4)

    def test_zero_row_normalized_shard(self):
        attribute = np.arange(6.0).reshape(3, 2)
        indicator = sp.csr_matrix((0, 3))
        normalized = NormalizedMatrix(np.zeros((0, 2)), [indicator], [attribute],
                                      validate=False)
        sharded = normalized.shard(4)
        assert sharded.shape == (0, 4)
        assert sharded.num_pieces == 1
        assert np.allclose(sharded.crossprod(), np.zeros((4, 4)))


class TestPools:
    def test_resolve_named_pools(self):
        assert isinstance(resolve_pool("serial"), SerialPool)
        assert isinstance(resolve_pool("thread"), ThreadPool)
        assert isinstance(resolve_pool("process"), ProcessPool)

    def test_resolve_int_and_instance(self):
        pool = resolve_pool(3)
        assert isinstance(pool, ThreadPool) and pool.max_workers == 3
        assert resolve_pool(pool) is pool

    def test_resolve_wraps_raw_executor(self):
        with ThreadPoolExecutor(max_workers=2) as executor:
            pool = resolve_pool(executor)
            assert pool.map(lambda x: x * 2, [1, 2, 3]) == [2, 4, 6]

    def test_resolve_rejects_bad_specs(self):
        with pytest.raises(ValueError):
            resolve_pool("warp-drive")
        with pytest.raises(ValueError):
            resolve_pool(0)
        with pytest.raises(TypeError):
            resolve_pool(object())

    def test_maps_preserve_order(self):
        items = list(range(50))
        for spec in ("serial", "thread"):
            assert resolve_pool(spec).map(lambda x: x + 1, items) == [x + 1 for x in items]

    def test_executor_single_item_runs_inline(self):
        executor = ParallelExecutor("thread")
        assert executor.map(lambda x: x * 10, [4]) == [40]
        # the lazily-created thread pool was never needed
        assert executor.pool._executor is None

    def test_map_reduce(self):
        executor = ParallelExecutor("serial")
        assert executor.map_reduce(lambda x: x * x, [1, 2, 3], sum) == 14


@pytest.fixture
def dense_matrix(rng):
    return rng.standard_normal((23, 5))


class TestShardedMatrix:
    """A RowPartitioned of plain dense/sparse pieces."""

    def test_from_matrix_roundtrip(self, dense_matrix):
        sharded = RowPartitioned.from_matrix(dense_matrix, 4, pool="serial")
        assert sharded.shape == dense_matrix.shape
        assert sharded.num_pieces == 4
        assert np.array_equal(sharded.to_dense(), dense_matrix)

    def test_from_dense_and_sparse(self, rng):
        dense = RowPartitioned.from_matrix(rng.standard_normal((10, 3)), 2, pool="serial")
        assert isinstance(dense, RowPartitioned) and dense.num_pieces == 2
        sparse = RowPartitioned.from_matrix(
            sp.random(10, 3, density=0.4, random_state=1, format="csr"), 2, pool="serial")
        assert isinstance(sparse, RowPartitioned) and sparse.num_pieces == 2

    def test_invalid_shard_count(self, dense_matrix):
        with pytest.raises(ValueError):
            RowPartitioned.from_matrix(dense_matrix, 0)

    def test_operators_match_dense(self, dense_matrix, rng):
        sharded = RowPartitioned.from_matrix(dense_matrix, 3, pool="thread")
        x = rng.standard_normal((5, 2))
        w = rng.standard_normal((2, 23))
        y = rng.standard_normal((23, 4))
        assert np.allclose((sharded @ x).to_dense(), dense_matrix @ x)
        assert np.allclose(w @ sharded, w @ dense_matrix)
        assert np.allclose(sharded.T @ y, dense_matrix.T @ y)
        assert np.allclose(sharded.crossprod(), dense_matrix.T @ dense_matrix)
        assert np.allclose(sharded.rowsums(), dense_matrix.sum(axis=1, keepdims=True))
        assert np.allclose(sharded.colsums(), dense_matrix.sum(axis=0, keepdims=True))
        assert sharded.total_sum() == pytest.approx(dense_matrix.sum())
        assert np.allclose((2 * sharded - 1).to_dense(), 2 * dense_matrix - 1)
        assert np.allclose((sharded ** 2).to_dense(), dense_matrix ** 2)
        assert np.allclose((-sharded).to_dense(), -dense_matrix)
        assert np.allclose(sharded.apply(np.exp).to_dense(), np.exp(dense_matrix))

    def test_elementwise_matrix_operands(self, dense_matrix):
        sharded = RowPartitioned.from_matrix(dense_matrix, 4, pool="serial")
        other = dense_matrix + 3.0
        assert np.allclose((sharded * other).to_dense(), dense_matrix * other)
        assert np.allclose((sharded - other).to_dense(), dense_matrix - other)
        assert np.allclose((other / (sharded + 10.0)).to_dense(), other / (dense_matrix + 10.0))
        with pytest.raises(ShapeError):
            sharded * other[:5, :]

    def test_sparse_shards_stay_sparse(self):
        matrix = sp.random(40, 6, density=0.3, random_state=0, format="csr")
        sharded = RowPartitioned.from_matrix(matrix, 3, pool="serial")
        assert sp.issparse(sharded.materialize())
        assert np.allclose(sharded.to_dense(), matrix.toarray())
        assert np.allclose(sharded.crossprod(), (matrix.T @ matrix).toarray())

    def test_transposed_view(self, dense_matrix):
        sharded = RowPartitioned.from_matrix(dense_matrix, 3)
        view = sharded.T
        assert view.shape == (5, 23)
        assert view.T.transposed is False
        assert all(a is b for a, b in zip(view.T.pieces, sharded.pieces))
        assert view.executor is sharded.executor
        assert np.array_equal(view.to_dense(), dense_matrix.T)

    def test_results_share_executor(self, dense_matrix):
        sharded = RowPartitioned.from_matrix(dense_matrix, 3, pool="serial")
        product = sharded @ np.eye(5)
        assert product.executor is sharded.executor

    def test_sum_axis_dispatch(self, dense_matrix):
        sharded = RowPartitioned.from_matrix(dense_matrix, 2, pool="serial")
        assert sharded.sum() == pytest.approx(dense_matrix.sum())
        assert np.allclose(sharded.sum(axis=0), dense_matrix.sum(axis=0, keepdims=True))
        assert np.allclose(sharded.sum(axis=1), dense_matrix.sum(axis=1, keepdims=True))
        with pytest.raises(ValueError):
            sharded.sum(axis=2)

    def test_shape_validation(self, dense_matrix, rng):
        sharded = RowPartitioned.from_matrix(dense_matrix, 2)
        with pytest.raises(ShapeError):
            sharded @ rng.standard_normal((4, 2))
        with pytest.raises(ShapeError):
            rng.standard_normal((2, 9)) @ sharded
        with pytest.raises(ShapeError):
            RowPartitioned([])
        with pytest.raises(ShapeError):
            RowPartitioned([np.ones((2, 3)), np.ones((2, 4))])


class TestShardedNormalizedMatrix:
    """A RowPartitioned of normalized pieces (``NormalizedMatrix.shard``)."""

    def test_single_join_operators_match_materialized(self, single_join_dense, rng):
        _, normalized, materialized = single_join_dense
        sharded = normalized.shard(4, pool="thread")
        x = rng.standard_normal((materialized.shape[1], 3))
        y = rng.standard_normal((materialized.shape[0], 2))
        w = rng.standard_normal((2, materialized.shape[0]))
        assert sharded.shape == materialized.shape
        assert np.allclose((sharded @ x).to_dense(), materialized @ x, atol=1e-8)
        assert np.allclose(w @ sharded, w @ materialized, atol=1e-8)
        assert np.allclose(sharded.T @ y, materialized.T @ y, atol=1e-8)
        assert np.allclose(sharded.crossprod(), materialized.T @ materialized, atol=1e-8)
        assert np.allclose(sharded.rowsums(), materialized.sum(axis=1, keepdims=True))
        assert np.allclose(sharded.colsums(), materialized.sum(axis=0, keepdims=True))
        assert sharded.total_sum() == pytest.approx(materialized.sum())

    def test_scalar_ops_stay_sharded_and_factorized(self, single_join_dense):
        _, normalized, materialized = single_join_dense
        sharded = normalized.shard(3, pool="serial")
        doubled = 2.0 * sharded + 1.0
        assert isinstance(doubled, RowPartitioned)
        assert all(isinstance(p, NormalizedMatrix) for p in doubled.pieces)
        assert doubled.num_pieces == sharded.num_pieces
        assert np.allclose(doubled.to_dense(), 2.0 * materialized + 1.0)
        squared = sharded ** 2
        assert all(isinstance(p, NormalizedMatrix) for p in squared.pieces)
        assert np.allclose(squared.to_dense(), materialized ** 2)

    def test_apply_is_closed(self, single_join_dense):
        _, normalized, materialized = single_join_dense
        sharded = normalized.shard(3, pool="serial")
        result = sharded.apply(np.exp)
        assert all(isinstance(p, NormalizedMatrix) for p in result.pieces)
        assert np.allclose(result.to_dense(), np.exp(materialized))

    def test_transposed_operators(self, single_join_dense, rng):
        _, normalized, materialized = single_join_dense
        transposed = normalized.shard(4, pool="serial").T
        y = rng.standard_normal((materialized.shape[0], 2))
        x = rng.standard_normal((3, materialized.shape[1]))
        assert transposed.shape == (materialized.shape[1], materialized.shape[0])
        assert np.allclose(transposed @ y, materialized.T @ y, atol=1e-8)
        assert np.allclose(x @ transposed, x @ materialized.T, atol=1e-8)
        assert np.allclose(transposed.crossprod(), materialized @ materialized.T, atol=1e-8)
        assert np.allclose(transposed.rowsums(), materialized.T.sum(axis=1, keepdims=True))
        assert np.allclose(transposed.colsums(), materialized.T.sum(axis=0, keepdims=True))
        assert transposed.T.transposed is False

    def test_sharding_a_transposed_matrix(self, single_join_dense, rng):
        _, normalized, materialized = single_join_dense
        sharded = normalized.T.shard(3, pool="serial")
        assert sharded.transposed
        y = rng.standard_normal((materialized.shape[0], 2))
        assert np.allclose(sharded @ y, materialized.T @ y, atol=1e-8)

    def test_one_shard_is_bit_for_bit_serial(self, single_join_dense, rng):
        _, normalized, materialized = single_join_dense
        sharded = normalized.shard(1, pool="serial")
        assert sharded.num_pieces == 1
        x = rng.standard_normal((materialized.shape[1], 3))
        y = rng.standard_normal((materialized.shape[0], 2))
        assert np.array_equal((sharded @ x).to_dense(), np.asarray(normalized @ x))
        assert np.array_equal(sharded.T @ y, np.asarray(normalized.T @ y))
        assert np.array_equal(sharded.crossprod(), normalized.crossprod())
        assert np.array_equal(sharded.rowsums(), normalized.rowsums())
        assert np.array_equal(sharded.colsums(), normalized.colsums())

    def test_shard_count_exceeding_rows_is_clamped(self):
        rng = np.random.default_rng(0)
        entity = rng.standard_normal((3, 2))
        indicator = sp.csr_matrix(np.eye(3))
        attribute = rng.standard_normal((3, 2))
        normalized = NormalizedMatrix(entity, [indicator], [attribute])
        sharded = normalized.shard(16)
        assert sharded.num_pieces == 3
        assert np.allclose(sharded.to_dense(), normalized.to_dense())

    def test_one_row_matrix(self):
        entity = np.array([[1.0, 2.0]])
        indicator = sp.csr_matrix(np.array([[1.0]]))
        attribute = np.array([[3.0, 4.0]])
        normalized = NormalizedMatrix(entity, [indicator], [attribute])
        sharded = normalized.shard(4, pool="serial")
        assert sharded.num_pieces == 1
        assert np.allclose(sharded.to_dense(), [[1.0, 2.0, 3.0, 4.0]])
        assert np.allclose(sharded.crossprod(), normalized.crossprod())

    def test_empty_attribute_list_entity_only(self, rng):
        """A normalized matrix with no joins (entity features only) still shards."""
        entity = rng.standard_normal((12, 4))
        normalized = NormalizedMatrix(entity, [], [])
        sharded = normalized.shard(3, pool="serial")
        assert sharded.num_pieces == 3
        x = rng.standard_normal((4, 2))
        assert np.allclose((sharded @ x).to_dense(), entity @ x)
        assert np.allclose(sharded.crossprod(), entity.T @ entity, atol=1e-8)

    def test_no_entity_features(self, no_entity_features, rng):
        normalized, materialized = no_entity_features
        sharded = normalized.shard(4, pool="serial")
        x = rng.standard_normal((materialized.shape[1], 2))
        assert np.allclose((sharded @ x).to_dense(), materialized @ x, atol=1e-8)
        assert np.allclose(sharded.crossprod(), materialized.T @ materialized, atol=1e-8)

    def test_sparse_bases(self, single_join_sparse, rng):
        normalized, materialized = single_join_sparse
        sharded = normalized.shard(5, pool="serial")
        x = rng.standard_normal((materialized.shape[1], 2))
        assert np.allclose((sharded @ x).to_dense(), materialized @ x, atol=1e-8)
        assert np.allclose(sharded.crossprod(), materialized.T @ materialized, atol=1e-8)
        assert np.allclose(sharded.to_dense(), materialized)

    def test_multi_join_star(self, multi_join_dense, rng):
        _, normalized, materialized = multi_join_dense
        sharded = normalized.shard(4, pool="serial")
        x = rng.standard_normal((materialized.shape[1], 2))
        assert np.allclose((sharded @ x).to_dense(), materialized @ x, atol=1e-8)
        assert np.allclose(sharded.crossprod(), materialized.T @ materialized, atol=1e-8)

    def test_mn_matrix(self, mn_dataset, rng):
        _, normalized, materialized = mn_dataset
        dense = np.asarray(
            materialized.todense() if sp.issparse(materialized) else materialized
        )
        sharded = normalized.shard(4, pool="serial")
        x = rng.standard_normal((dense.shape[1], 2))
        assert np.allclose((sharded @ x).to_dense(), dense @ x, atol=1e-8)
        assert np.allclose(sharded.crossprod(), dense.T @ dense, atol=1e-8)
        assert np.allclose(sharded.T.crossprod(), dense @ dense.T, atol=1e-8)

    def test_attribute_matrices_are_shared_not_copied(self, single_join_dense):
        _, normalized, _ = single_join_dense
        sharded = normalized.shard(3)
        for piece in sharded.pieces:
            assert piece.attributes[0] is normalized.attributes[0]

    def test_ginv_matches_pinv(self, single_join_dense):
        _, normalized, materialized = single_join_dense
        sharded = normalized.shard(3, pool="serial")
        assert np.allclose(sharded.ginv(), np.linalg.pinv(materialized), atol=1e-7)
        assert np.allclose(sharded.T.ginv(), np.linalg.pinv(materialized.T), atol=1e-7)

    def test_solve_matches_lstsq(self, single_join_dense, rng):
        _, normalized, materialized = single_join_dense
        sharded = normalized.shard(3, pool="serial")
        y = rng.standard_normal((materialized.shape[0], 1))
        expected = np.linalg.lstsq(materialized, y, rcond=None)[0]
        assert np.allclose(sharded.solve(y), expected, atol=1e-7)

    def test_solve_on_transposed_matrix(self, single_join_dense, rng):
        """Regression: the projected RHS of a transposed solve stays sharded
        and must be densified; result must match the eager transposed solve
        (the system is underdetermined, so lstsq's minimum-norm answer is not
        the reference -- the eager normal-equation path is)."""
        _, normalized, materialized = single_join_dense
        transposed = normalized.shard(3, pool="serial").T
        rhs = rng.standard_normal((materialized.shape[1], 1))
        expected = normalized.T.solve(rhs)
        assert np.allclose(transposed.solve(rhs), expected, atol=1e-8)

    def test_crossprod_accepts_method_argument(self, single_join_dense):
        _, normalized, materialized = single_join_dense
        sharded = normalized.shard(3, pool="serial")
        assert np.allclose(sharded.crossprod("naive"), materialized.T @ materialized,
                           atol=1e-8)
        plain = RowPartitioned.from_matrix(materialized, 3, pool="serial")
        assert np.allclose(plain.crossprod("naive"), materialized.T @ materialized,
                           atol=1e-8)

    def test_elementwise_matrix_op(self, single_join_dense):
        _, normalized, materialized = single_join_dense
        sharded = normalized.shard(3, pool="serial")
        other = materialized + 0.5
        assert np.allclose((sharded * other).to_dense(), materialized * other)
        assert np.allclose((sharded.T * other.T).to_dense(), materialized.T * other.T)
        with pytest.raises(ShapeError):
            sharded + other[:-1, :]

    def test_equals_materialized(self, single_join_dense):
        _, normalized, materialized = single_join_dense
        sharded = normalized.shard(3, pool="serial")
        assert sharded.equals_materialized(materialized)
        assert not sharded.equals_materialized(materialized + 1.0)

    def test_process_pool_executes(self, single_join_dense, rng):
        _, normalized, materialized = single_join_dense
        sharded = normalized.shard(2, pool=ProcessPool(max_workers=2))
        x = rng.standard_normal((materialized.shape[1], 2))
        try:
            assert np.allclose((sharded @ x).to_dense(), materialized @ x, atol=1e-8)
        finally:
            sharded.executor.pool.close()

    def test_lazy_composes_with_sharding(self, single_join_dense, rng):
        _, normalized, materialized = single_join_dense
        sharded = normalized.shard(3, pool="serial")
        lazy = sharded.lazy()
        x = rng.standard_normal((materialized.shape[1], 2))
        gram_node = lazy.crossprod()
        first = (gram_node @ x).evaluate()
        second = (gram_node @ x).evaluate()
        assert np.allclose(first, materialized.T @ materialized @ x, atol=1e-8)
        assert np.allclose(first, second)
        stats = lazy.cache.stats()
        assert stats.hits >= 1  # the crossprod node is served from the cache

    def test_rejects_transposed_pieces(self, single_join_dense):
        _, normalized, _ = single_join_dense
        with pytest.raises(ShapeError):
            RowPartitioned([normalized.T])
        with pytest.raises(ShapeError):
            RowPartitioned([])


class TestRowApplyParallel:
    def test_serial_default_unchanged(self, rng):
        chunked = RowPartitioned.chunked(rng.standard_normal((20, 3)), 6)
        results = row_apply(chunked, lambda c: c.sum())
        assert len(results) == chunked.num_pieces

    def test_parallel_pool_matches_serial(self, rng):
        matrix = rng.standard_normal((20, 3))
        chunked = RowPartitioned.chunked(matrix, 6)
        serial = row_apply(chunked, lambda c: float(c.sum()))
        threaded = row_apply(chunked, lambda c: float(c.sum()), pool="thread")
        assert serial == threaded

    def test_bound_method(self, rng):
        chunked = RowPartitioned.chunked(rng.standard_normal((9, 2)), 3)
        assert row_apply(chunked, lambda c: c.shape[0], pool=2) == [3, 3, 3]


class TestShardedOperandComposition:
    """Sharded results feeding straight back into transposed products.

    ``T.T @ (T @ w)`` is the textbook gradient composition: the inner LMM
    returns a RowPartitioned, which must be accepted as the row-aligned right
    operand of the transposed product (regression test -- this used to raise
    ShapeError through ensure_2d(np.asarray(partitioned))).
    """

    def test_normalized_gradient_composition(self, single_join_dense):
        _, normalized, materialized = single_join_dense
        w = np.random.default_rng(0).standard_normal((materialized.shape[1], 1))
        sharded = normalized.shard(3, pool="serial")
        product = sharded @ w
        assert isinstance(product, RowPartitioned)
        gradient = sharded.T @ product
        assert np.allclose(np.asarray(gradient), materialized.T @ (materialized @ w))

    def test_plain_gradient_composition(self, rng):
        matrix = rng.standard_normal((31, 4))
        w = rng.standard_normal((4, 1))
        sharded = RowPartitioned.from_matrix(matrix, 4)
        gradient = sharded.T @ (sharded @ w)
        assert np.allclose(np.asarray(gradient), matrix.T @ (matrix @ w))

    def test_mismatched_bounds_are_concretized(self, rng):
        matrix = rng.standard_normal((30, 4))
        w = rng.standard_normal((4, 2))
        sharded = RowPartitioned.from_matrix(matrix, 3)
        other = RowPartitioned.from_matrix(matrix @ w, 5)  # different bounds
        gradient = sharded.T @ other
        assert np.allclose(np.asarray(gradient), matrix.T @ (matrix @ w))

    def test_transposed_crossprod_symmetric_block_grid(self, single_join_dense):
        _, normalized, materialized = single_join_dense
        sharded = normalized.shard(3, pool="serial")
        gram = sharded.T.crossprod()
        assert np.allclose(gram, materialized @ materialized.T)
        assert np.allclose(gram, gram.T)
