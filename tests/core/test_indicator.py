"""Tests for indicator-matrix validation in :mod:`repro.core.indicator` and
the input checks of :class:`repro.la.indicator.CodeIndicator`."""

import numpy as np
import pytest
import scipy.sparse as sp

from repro.core.indicator import (
    indicator_stats,
    validate_mn_indicator,
    validate_pk_fk_indicator,
)
from repro.core.mn_matrix import MNNormalizedMatrix
from repro.core.normalized_matrix import NormalizedMatrix
from repro.exceptions import IndicatorError
from repro.la.indicator import CodeIndicator
from repro.la.ops import indicator_from_labels


def valid_indicator() -> CodeIndicator:
    return indicator_from_labels(np.array([0, 1, 2, 1, 0]))


class TestPkFkValidation:
    def test_valid_matrix_passes(self):
        out = validate_pk_fk_indicator(valid_indicator())
        assert out.shape == (5, 3)

    def test_returns_code_indicator(self):
        out = validate_pk_fk_indicator(valid_indicator().tocsr().tocoo())
        assert isinstance(out, CodeIndicator)
        np.testing.assert_array_equal(out.codes, [0, 1, 2, 1, 0])

    def test_dense_input_accepted(self):
        dense = valid_indicator().toarray()
        out = validate_pk_fk_indicator(dense)
        assert isinstance(out, CodeIndicator)

    def test_transposed_indicator_rejected(self):
        with pytest.raises(IndicatorError, match="transposed"):
            validate_pk_fk_indicator(valid_indicator().T)

    def test_row_with_two_nonzeros_rejected(self):
        bad = valid_indicator().toarray()
        bad[0, 2] = 1.0
        with pytest.raises(IndicatorError):
            validate_pk_fk_indicator(bad)

    def test_row_with_zero_nonzeros_rejected(self):
        bad = valid_indicator().toarray()
        bad[0, :] = 0.0
        with pytest.raises(IndicatorError):
            validate_pk_fk_indicator(bad)

    def test_non_unit_entry_rejected(self):
        bad = valid_indicator().toarray()
        bad[0, 0] = 2.0
        with pytest.raises(IndicatorError):
            validate_pk_fk_indicator(bad)

    def test_unreferenced_column_rejected(self):
        bad = indicator_from_labels(np.array([0, 0, 1]), num_columns=3)
        with pytest.raises(IndicatorError):
            validate_pk_fk_indicator(bad)

    def test_unreferenced_column_allowed_when_not_required(self):
        bad = indicator_from_labels(np.array([0, 0, 1]), num_columns=3)
        out = validate_pk_fk_indicator(bad, require_full_columns=False)
        assert out.shape == (3, 3)


class TestMnValidation:
    def test_valid_matrix_passes(self):
        out = validate_mn_indicator(valid_indicator())
        assert out.nnz == 5

    def test_row_with_two_nonzeros_rejected(self):
        bad = valid_indicator().toarray()
        bad[1, 0] = 1.0
        with pytest.raises(IndicatorError):
            validate_mn_indicator(bad)

    def test_noncontributing_column_rejected(self):
        bad = indicator_from_labels(np.array([0, 1]), num_columns=3)
        with pytest.raises(IndicatorError):
            validate_mn_indicator(bad)

    def test_noncontributing_column_allowed_when_not_required(self):
        bad = indicator_from_labels(np.array([0, 1]), num_columns=3)
        assert validate_mn_indicator(bad, require_full_columns=False).shape == (2, 3)


class TestIndicatorStats:
    def test_nnz_equals_rows(self):
        stats = indicator_stats(valid_indicator())
        assert stats.nnz == 5
        assert stats.shape == (5, 3)

    def test_fanout_range(self):
        stats = indicator_stats(valid_indicator())
        assert stats.min_rows_per_column == 1
        assert stats.max_rows_per_column == 2

    def test_average_fanout(self):
        stats = indicator_stats(valid_indicator())
        assert stats.average_fanout == pytest.approx(5 / 3)

    def test_empty_columns_edge_case(self):
        stats = indicator_stats(sp.csr_matrix((3, 0)))
        assert stats.average_fanout == 0.0


class TestCodeIndicatorInput:
    """Codes from outside the program are checked when the object is built."""

    def test_valid_codes_accepted(self):
        k = CodeIndicator(np.array([2, 0, 1], dtype=np.int32), 3)
        assert k.shape == (3, 3)
        assert k.codes.dtype == np.int64
        assert not k.codes.flags.writeable

    def test_codes_are_copied_from_caller(self):
        codes = np.array([0, 1, 1])
        k = CodeIndicator(codes, 2)
        codes[0] = 1
        np.testing.assert_array_equal(k.codes, [0, 1, 1])

    def test_two_dimensional_codes_rejected(self):
        with pytest.raises(IndicatorError, match="1-D"):
            CodeIndicator(np.zeros((2, 2), dtype=np.int64), 2)

    def test_non_integer_codes_rejected(self):
        with pytest.raises(IndicatorError, match="integers"):
            CodeIndicator(np.array([0.0, 1.0]), 2)

    def test_negative_codes_rejected(self):
        with pytest.raises(IndicatorError, match="non-negative"):
            CodeIndicator(np.array([0, -1]), 2)

    def test_code_at_or_above_column_count_rejected(self):
        with pytest.raises(IndicatorError, match="out of range"):
            CodeIndicator(np.array([0, 2]), 2)


class TestConstructorEdge:
    """The matrix constructors turn CSR input into code vectors and reject
    malformed indicators; internal ``validate=False`` paths do not re-check."""

    def _csr(self, dense):
        return sp.csr_matrix(np.asarray(dense, dtype=np.float64))

    @pytest.mark.parametrize("dense", [
        [[1, 0], [0, 0], [0, 1]],          # a row with no non-zero
        [[1, 0], [1, 1], [0, 1]],          # a row with two non-zeros
        [[1, 0], [0, 2], [0, 1]],          # a stored value other than 1
        [[1, 0, 0], [0, 1, 0], [1, 0, 0]],  # column 2 never referenced
    ])
    def test_star_constructor_rejects_malformed_csr(self, dense):
        indicator = self._csr(dense)
        attribute = np.ones((indicator.shape[1], 2))
        with pytest.raises(IndicatorError):
            NormalizedMatrix(np.ones((3, 1)), [indicator], [attribute])

    @pytest.mark.parametrize("dense", [
        [[1, 0], [0, 0], [0, 1]],
        [[1, 0], [1, 1], [0, 1]],
        [[1, 0], [0, 2], [0, 1]],
        [[1, 0, 0], [0, 1, 0], [1, 0, 0]],
    ])
    def test_mn_constructor_rejects_malformed_csr(self, dense):
        indicator = self._csr(dense)
        with pytest.raises(IndicatorError):
            MNNormalizedMatrix([indicator], [np.ones((indicator.shape[1], 2))])

    def test_csr_input_becomes_code_indicator(self):
        indicator = self._csr([[0, 1], [1, 0], [0, 1]])
        matrix = NormalizedMatrix(np.ones((3, 1)), [indicator], [np.ones((2, 2))])
        [stored] = matrix.indicators
        assert isinstance(stored, CodeIndicator)
        np.testing.assert_array_equal(stored.codes, [1, 0, 1])

    def test_validate_false_does_not_recheck(self):
        # Column 2 is unreferenced: rejected when validating, accepted (and
        # stored as the same object) on the unchecked internal path.
        indicator = indicator_from_labels(np.array([0, 1, 0]), num_columns=3)
        attribute = np.ones((3, 2))
        with pytest.raises(IndicatorError):
            NormalizedMatrix(np.ones((3, 1)), [indicator], [attribute])
        matrix = NormalizedMatrix(np.ones((3, 1)), [indicator], [attribute],
                                  validate=False)
        assert matrix.indicators[0] is indicator
