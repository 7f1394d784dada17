"""Multi-hop indicator composition through the join builder.

:func:`repro.relational.join.chained_indicator` composes a snowflake path
``K1 K2 ... Kh`` once into one code vector.  Every structural operation
(products, transposes, aggregation) on the composed indicator is checked
against the dense product of its hops -- the composition must be
indistinguishable from the matrix it represents.
"""

import numpy as np
import pytest
import scipy.sparse as sp

from repro.exceptions import SchemaError, ShapeError
from repro.la.indicator import CodeIndicator
from repro.la.ops import indicator_from_labels
from repro.relational.join import chained_indicator


def _hops():
    """entity(8) -> K1(4) -> K2(2): a surjective two-hop chain."""
    k1 = indicator_from_labels([0, 1, 2, 3, 3, 2, 1, 0], num_columns=4)
    k2 = indicator_from_labels([0, 1, 0, 1], num_columns=2)
    return k1, k2


def _chain():
    return chained_indicator(list(_hops()))


def _reference():
    k1, k2 = _hops()
    return k1.toarray() @ k2.toarray()


# -- composition ---------------------------------------------------------------


def test_composed_indicator_equals_dense_product_of_hops():
    chain = _chain()
    assert isinstance(chain, CodeIndicator)
    np.testing.assert_array_equal(chain.toarray(), _reference())


def test_three_hop_composition_equals_dense_product():
    rng = np.random.default_rng(4)
    hops, rows = [], 30
    for n_next in (12, 5, 3):
        labels = np.concatenate([np.arange(n_next),
                                 rng.integers(0, n_next, size=rows - n_next)])
        rng.shuffle(labels)
        hops.append(indicator_from_labels(labels, num_columns=n_next))
        rows = n_next
    chain = chained_indicator(hops)
    assert chain.shape == (30, 3)
    expected = hops[0].toarray() @ hops[1].toarray() @ hops[2].toarray()
    np.testing.assert_array_equal(chain.toarray(), expected)


def test_empty_hops_rejected():
    with pytest.raises(SchemaError, match="at least one hop"):
        chained_indicator([])


def test_dense_hop_rejected():
    k1, _ = _hops()
    with pytest.raises(ShapeError, match="not an untransposed CodeIndicator"):
        chained_indicator([np.eye(8), k1])


def test_inner_dimension_mismatch_rejected():
    k1 = indicator_from_labels([0, 1, 2], num_columns=3)
    k2 = indicator_from_labels([0, 1], num_columns=2)  # 2 rows != 3 columns
    with pytest.raises(ShapeError, match="hop 0 has 3 columns but hop 1 has 2 rows"):
        chained_indicator([k1, k2])


def test_nested_chain_flattens():
    k1, k2 = _hops()
    k3 = indicator_from_labels([0, 0], num_columns=1)
    nested = chained_indicator([k1, chained_indicator([k2, k3])])
    flat = chained_indicator([k1, k2, k3])
    np.testing.assert_array_equal(nested.codes, flat.codes)


def test_nested_transposed_chain_rejected():
    k1, k2 = _hops()
    with pytest.raises(ShapeError, match="not an untransposed"):
        chained_indicator([k1, k2.T])


# -- shape, transpose, materialization -----------------------------------------


def test_shape_and_metadata():
    chain = _chain()
    assert chain.shape == (8, 2)
    assert chain.ndim == 2
    assert chain.T.shape == (2, 8)
    assert chain.T.T.shape == (8, 2)
    assert chain.nnz == 8  # one 1 per entity row, like any PK-FK indicator


def test_tocsr_and_toarray_respect_transpose():
    chain = _chain()
    np.testing.assert_array_equal(chain.toarray(), _reference())
    np.testing.assert_array_equal(chain.T.toarray(), _reference().T)
    assert sp.issparse(chain.T.tocsr())
    np.testing.assert_array_equal(chain.T.tocsr().toarray(), _reference().T)


# -- products ------------------------------------------------------------------


def test_matmul_matches_collapsed():
    rng = np.random.default_rng(0)
    chain = _chain()
    x = rng.standard_normal((2, 3))
    np.testing.assert_allclose(chain @ x, _reference() @ x, atol=1e-12)


def test_matmul_one_dimensional_operand():
    chain = _chain()
    v = np.arange(2.0)
    out = chain @ v
    assert out.shape == (8,)
    np.testing.assert_allclose(out, _reference() @ v, atol=1e-12)


def test_rmatmul_matches_collapsed():
    rng = np.random.default_rng(1)
    chain = _chain()
    y = rng.standard_normal((5, 8))
    np.testing.assert_allclose(y @ chain, y @ _reference(), atol=1e-12)
    w = np.arange(8.0)
    out = w @ chain
    assert out.shape == (2,)
    np.testing.assert_allclose(out, w @ _reference(), atol=1e-12)


def test_transposed_products():
    rng = np.random.default_rng(2)
    chain = _chain()
    x = rng.standard_normal((8, 3))
    np.testing.assert_allclose(chain.T @ x, _reference().T @ x, atol=1e-12)
    y = rng.standard_normal((4, 2))
    np.testing.assert_allclose(y @ chain.T, y @ _reference().T, atol=1e-12)


def test_products_keep_the_data_dtype():
    chain = _chain()
    x = np.ones((2, 3), dtype=np.float32)
    assert (chain @ x).dtype == np.float32
    assert (chain.T @ np.ones((8, 3), dtype=np.float32)).dtype == np.float32
    assert (np.ones((3, 8), dtype=np.float32) @ chain).dtype == np.float32


def test_sparse_operands_stay_sparse():
    chain = _chain()
    ref = _reference()
    x = sp.random(2, 4, density=0.5, format="csr", random_state=3)
    out = chain @ x
    assert sp.issparse(out)
    np.testing.assert_allclose(out.toarray(), ref @ x.toarray(), atol=1e-12)
    y = sp.random(8, 3, density=0.5, format="csr", random_state=4)
    z = sp.random(3, 8, density=0.5, format="csc", random_state=5)
    w = sp.random(3, 2, density=0.5, format="coo", random_state=6)
    for out, expected in ((chain.T @ y, ref.T @ y.toarray()),
                          (z @ chain, z.toarray() @ ref),
                          (w @ chain.T, w.toarray() @ ref.T)):
        assert sp.issparse(out)
        np.testing.assert_allclose(out.toarray(), expected, atol=1e-12)


def test_matmul_shape_mismatch():
    chain = _chain()
    with pytest.raises(ShapeError, match="inner dimensions"):
        chain @ np.ones((3, 3))
    with pytest.raises(ShapeError, match="inner dimensions"):
        np.ones((3, 3)) @ chain


def test_chain_matmul_chain():
    k1, k2 = _hops()
    np.testing.assert_array_equal(np.asarray((k1 @ k2).todense()), _reference())


# -- aggregation ---------------------------------------------------------------


def test_sum_matches_scipy_semantics():
    chain = _chain()
    ref = sp.csr_matrix(_reference())
    assert chain.sum() == ref.sum()
    np.testing.assert_array_equal(np.asarray(chain.sum(axis=0)), np.asarray(ref.sum(axis=0)))
    np.testing.assert_array_equal(np.asarray(chain.sum(axis=1)), np.asarray(ref.sum(axis=1)))
    np.testing.assert_array_equal(np.asarray(chain.T.sum(axis=0)),
                                  np.asarray(ref.T.sum(axis=0)))


# -- slicing -------------------------------------------------------------------


def test_full_slice_returns_equivalent_chain():
    chain = _chain()
    full = chain[:, :]
    assert isinstance(full, CodeIndicator)
    assert np.shares_memory(full.codes, chain.codes)
    np.testing.assert_array_equal(full.toarray(), _reference())


def test_column_slice_is_sparse():
    # A column selection can leave rows without a 1, so it leaves code space.
    chain = _chain()
    for cols in ([1], [1, 0], [0, 0, 1], []):
        sliced = chain[:, cols]
        assert sp.issparse(sliced)
        np.testing.assert_array_equal(sliced.toarray(), _reference()[:, cols])
    with pytest.raises(TypeError):
        chain[1:3, [0]]
    with pytest.raises(TypeError):
        chain.T[0]
