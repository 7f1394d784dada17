"""Tests for row selection on normalized matrices (train/test splits stay factorized)."""

import numpy as np
import pytest

from repro.core.normalized_matrix import NormalizedMatrix
from repro.exceptions import NotSupportedError, ShapeError
from repro.ml import LogisticRegressionGD, train_test_split_rows


class TestTakeRows:
    def test_selected_rows_match_materialized(self, single_join_dense):
        _, normalized, materialized = single_join_dense
        indices = np.array([0, 5, 9, 17, 3])
        subset = normalized.take_rows(indices)
        assert isinstance(subset, NormalizedMatrix)
        assert np.allclose(subset.to_dense(), materialized[indices, :])
        # A row take is a take of the indicator codes.
        np.testing.assert_array_equal(subset.indicators[0].codes,
                                      normalized.indicators[0].codes[indices])

    def test_multi_join(self, multi_join_dense):
        _, normalized, materialized = multi_join_dense
        indices = np.arange(0, materialized.shape[0], 3)
        assert np.allclose(normalized.take_rows(indices).to_dense(), materialized[indices, :])

    def test_no_entity_features(self, no_entity_features):
        normalized, materialized = no_entity_features
        indices = np.array([2, 4, 6])
        assert np.allclose(normalized.take_rows(indices).to_dense(), materialized[indices, :])

    def test_boolean_mask(self, single_join_dense):
        _, normalized, materialized = single_join_dense
        mask = np.zeros(materialized.shape[0], dtype=bool)
        mask[::4] = True
        assert np.allclose(normalized.take_rows(mask).to_dense(), materialized[mask, :])

    def test_attribute_tables_are_shared(self, single_join_dense):
        _, normalized, _ = single_join_dense
        subset = normalized.take_rows(np.array([0, 1, 2]))
        assert subset.attributes[0] is normalized.attributes[0]

    def test_duplicate_and_reordered_rows(self, single_join_dense):
        _, normalized, materialized = single_join_dense
        indices = np.array([7, 7, 1, 0])
        subset = normalized.take_rows(indices)
        assert np.allclose(subset.to_dense(), materialized[indices, :])
        np.testing.assert_array_equal(subset.indicators[0].codes,
                                      normalized.indicators[0].codes[indices])

    def test_out_of_range_rejected(self, single_join_dense):
        _, normalized, _ = single_join_dense
        with pytest.raises(ShapeError):
            normalized.take_rows(np.array([0, normalized.shape[0]]))

    def test_wrong_mask_length_rejected(self, single_join_dense):
        _, normalized, _ = single_join_dense
        with pytest.raises(ShapeError):
            normalized.take_rows(np.zeros(3, dtype=bool))

    def test_transposed_rejected(self, single_join_dense):
        _, normalized, _ = single_join_dense
        with pytest.raises(NotSupportedError):
            normalized.T.take_rows(np.array([0]))

    def test_train_test_split_workflow(self, single_join_dense):
        dataset, normalized, materialized = single_join_dense
        train_idx, test_idx = train_test_split_rows(materialized.shape[0], 0.25, seed=1)
        train_view = normalized.take_rows(train_idx)
        test_view = normalized.take_rows(test_idx)
        factorized = LogisticRegressionGD(max_iter=5, step_size=1e-3)
        factorized.fit(train_view, dataset.target[train_idx])
        standard = LogisticRegressionGD(max_iter=5, step_size=1e-3)
        standard.fit(materialized[train_idx], dataset.target[train_idx])
        assert np.allclose(factorized.coef_, standard.coef_, atol=1e-9)
        assert np.array_equal(factorized.predict(test_view),
                              standard.predict(materialized[test_idx]))
