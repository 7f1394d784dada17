"""Linear-algebra utility layer.

This subpackage is the substrate every other part of the library builds on.
It provides:

* :mod:`repro.la.types` -- shared type aliases and dense/sparse predicates.
* :mod:`repro.la.indicator` -- :class:`CodeIndicator`, the one indicator
  representation: a one-1-per-row 0/1 matrix stored as its code vector.
* :mod:`repro.la.ops` -- a uniform set of LA primitives (``rowsums``,
  ``colsums``, ``crossprod``, ``ginv`` ...) that behave identically for dense
  NumPy arrays and SciPy sparse matrices.  The Morpheus rewrite rules are
  expressed exclusively in terms of these primitives, which is what gives the
  framework *closure*: a rewritten operator is just another LA expression.
* :mod:`repro.la.kernels` -- the named kernels the rewrite rules call, each
  with one NumPy body (the ``reference`` primitive chain) and, with the
  optional ``[kernels]`` extra, a compiled ``numba`` variant.
* :mod:`repro.la.parallel` -- worker pools and the fan-out executor behind
  row-partitioned execution (:class:`~repro.core.shard.RowPartitioned`,
  whose :meth:`~repro.core.shard.RowPartitioned.chunked` storage emulates
  Oracle R Enterprise's ``ore.rowapply`` for Tables 9 and 10).
"""

from repro.la.types import (
    MatrixLike,
    is_sparse,
    is_dense,
    is_vector,
    ensure_2d,
    to_dense,
    to_sparse,
)
from repro.la.indicator import CodeIndicator
from repro.la.ops import (
    rowsums,
    colsums,
    total_sum,
    crossprod,
    ginv,
    diag_scale_rows,
    sparse_diag,
    hstack,
    vstack,
    matmul,
    transpose,
    elementwise,
    scalar_op,
    allclose,
    nnz,
    row_min,
    indicator_from_labels,
)
from repro.la.parallel import (
    ExecutorPool,
    ParallelExecutor,
    ProcessPool,
    SerialPool,
    ThreadPool,
    WorkerPool,
    resolve_pool,
)

__all__ = [
    "MatrixLike",
    "is_sparse",
    "is_dense",
    "is_vector",
    "ensure_2d",
    "to_dense",
    "to_sparse",
    "CodeIndicator",
    "rowsums",
    "colsums",
    "total_sum",
    "crossprod",
    "ginv",
    "diag_scale_rows",
    "sparse_diag",
    "hstack",
    "vstack",
    "matmul",
    "transpose",
    "elementwise",
    "scalar_op",
    "allclose",
    "nnz",
    "row_min",
    "indicator_from_labels",
    "WorkerPool",
    "SerialPool",
    "ThreadPool",
    "ProcessPool",
    "ExecutorPool",
    "ParallelExecutor",
    "resolve_pool",
]
