"""Tests for the Orion-style baseline and the materialized helpers."""

import numpy as np
import pytest

from repro.baselines.materialized import (
    run_materialized_gnmf,
    run_materialized_kmeans,
    run_materialized_linear_ne,
    run_materialized_logistic,
)
from repro.baselines.orion import OrionLogisticRegression
from repro.exceptions import ShapeError
from repro.ml.logistic_regression import LogisticRegressionGD


class TestOrionLogisticRegression:
    def _labels(self, dataset):
        return dataset.indicators[0].codes

    @pytest.mark.parametrize("update", ["paper", "exact"])
    def test_matches_morpheus_logistic(self, single_join_dense, update):
        dataset, normalized, _ = single_join_dense
        labels = self._labels(dataset)
        orion = OrionLogisticRegression(max_iter=4, step_size=1e-3, update=update)
        orion.fit(dataset.entity, labels, dataset.attributes[0], dataset.target)
        morpheus = LogisticRegressionGD(max_iter=4, step_size=1e-3, update=update)
        morpheus.fit(normalized, dataset.target)
        assert np.allclose(orion.coef_, morpheus.coef_, atol=1e-8)

    def test_matches_materialized_logistic(self, single_join_dense):
        dataset, _, materialized = single_join_dense
        labels = self._labels(dataset)
        orion = OrionLogisticRegression(max_iter=3, step_size=1e-3)
        orion.fit(dataset.entity, labels, dataset.attributes[0], dataset.target)
        standard = run_materialized_logistic(materialized, dataset.target, max_iter=3,
                                             step_size=1e-3)
        assert np.allclose(orion.coef_, standard.coef_, atol=1e-8)

    def test_predict_scores_match_materialized(self, single_join_dense):
        dataset, _, materialized = single_join_dense
        labels = self._labels(dataset)
        orion = OrionLogisticRegression(max_iter=3, step_size=1e-3)
        orion.fit(dataset.entity, labels, dataset.attributes[0], dataset.target)
        scores = orion.predict_scores(dataset.entity, labels, dataset.attributes[0])
        assert np.allclose(scores, materialized @ orion.coef_, atol=1e-10)

    def test_row_count_mismatch(self, single_join_dense):
        dataset, _, _ = single_join_dense
        labels = self._labels(dataset)
        with pytest.raises(ShapeError):
            OrionLogisticRegression(max_iter=1).fit(
                dataset.entity[:-1], labels, dataset.attributes[0], dataset.target)

    def test_out_of_range_labels(self, single_join_dense):
        dataset, _, _ = single_join_dense
        labels = self._labels(dataset).copy()
        labels[0] = dataset.attributes[0].shape[0] + 5
        with pytest.raises(ShapeError):
            OrionLogisticRegression(max_iter=1).fit(
                dataset.entity, labels, dataset.attributes[0], dataset.target)

    def test_invalid_update(self):
        with pytest.raises(ValueError):
            OrionLogisticRegression(update="nope")

    def test_predict_before_fit(self, single_join_dense):
        dataset, _, _ = single_join_dense
        with pytest.raises(RuntimeError):
            OrionLogisticRegression().predict_scores(
                dataset.entity, self._labels(dataset), dataset.attributes[0])


class TestMaterializedHelpers:
    def test_logistic_helper(self, single_join_dense):
        dataset, _, materialized = single_join_dense
        model = run_materialized_logistic(materialized, dataset.target, max_iter=2)
        assert model.coef_.shape == (materialized.shape[1], 1)

    def test_linear_ne_helper(self, single_join_dense, rng):
        _, _, materialized = single_join_dense
        y = materialized @ rng.standard_normal((materialized.shape[1], 1))
        model = run_materialized_linear_ne(materialized, y)
        assert np.allclose(model.predict(materialized), y, atol=1e-6)

    def test_kmeans_helper(self, single_join_dense):
        _, _, materialized = single_join_dense
        model = run_materialized_kmeans(materialized, num_clusters=3, max_iter=3, seed=1)
        assert model.centroids_.shape == (materialized.shape[1], 3)

    def test_gnmf_helper(self, single_join_dense):
        _, _, materialized = single_join_dense
        model = run_materialized_gnmf(np.abs(materialized), rank=2, max_iter=3, seed=2)
        assert model.w_.shape == (materialized.shape[0], 2)
