"""Argument checks of the ORE-style chunked backend, :meth:`RowPartitioned.chunked`."""

import numpy as np
import pytest
import scipy.sparse as sp

from repro.core.shard import RowPartitioned


class TestChunkedBackend:
    def test_invalid_chunk_rows(self):
        for matrix in (np.ones((10, 2)), sp.eye(10, format="csr")):
            for chunk_rows in (0, -3):
                with pytest.raises(ValueError):
                    RowPartitioned.chunked(matrix, chunk_rows)
