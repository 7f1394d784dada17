"""ML algorithms over the chunked (ORE-style) backend.

These tests pin down the closure claim used by the scalability experiments
(Tables 9 and 10): the same estimator code runs over the chunked backend's
serial RowPartitioned and produces the same model as over the in-memory matrix.
"""

import numpy as np
import pytest

from repro.core.shard import RowPartitioned
from repro.ml.linear_regression import LinearRegressionGD, LinearRegressionNE
from repro.ml.logistic_regression import LogisticRegressionGD


@pytest.fixture
def chunked_pair(rng):
    dense = rng.standard_normal((64, 6))
    target = np.where(dense @ rng.standard_normal((6, 1)) > 0, 1.0, -1.0)
    return dense, RowPartitioned.chunked(dense, 10), target


class TestLogisticOverChunked:
    def test_coefficients_match_dense(self, chunked_pair):
        dense, chunked, target = chunked_pair
        a = LogisticRegressionGD(max_iter=5, step_size=1e-2).fit(chunked, target)
        b = LogisticRegressionGD(max_iter=5, step_size=1e-2).fit(dense, target)
        assert np.allclose(a.coef_, b.coef_, atol=1e-10)

    def test_predictions_match_dense(self, chunked_pair):
        dense, chunked, target = chunked_pair
        model = LogisticRegressionGD(max_iter=5, step_size=1e-2).fit(chunked, target)
        assert np.array_equal(model.predict(chunked), model.predict(dense))


class TestLinearRegressionOverChunked:
    def test_normal_equations_match_dense(self, chunked_pair, rng):
        dense, chunked, _ = chunked_pair
        y = dense @ rng.standard_normal((6, 1))
        a = LinearRegressionNE().fit(chunked, y)
        b = LinearRegressionNE().fit(dense, y)
        assert np.allclose(a.coef_, b.coef_, atol=1e-8)

    def test_gradient_descent_matches_dense(self, chunked_pair, rng):
        dense, chunked, _ = chunked_pair
        y = dense @ rng.standard_normal((6, 1))
        a = LinearRegressionGD(max_iter=6, step_size=1e-3).fit(chunked, y)
        b = LinearRegressionGD(max_iter=6, step_size=1e-3).fit(dense, y)
        assert np.allclose(a.coef_, b.coef_, atol=1e-10)
