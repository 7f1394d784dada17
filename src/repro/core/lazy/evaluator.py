"""Executes lazy expression graphs against the eager operator implementations.

The evaluator is intentionally thin: every operator node is computed by
handing the evaluated child operands to the *same* code the eager path uses --
the operator overloads of ``NormalizedMatrix`` / ``MNNormalizedMatrix`` /
``RowPartitioned``, the generic dispatchers of :mod:`repro.la.generic` and the
plain-matrix primitives of :mod:`repro.la.ops`.  The factorized rewrite rules
of Section 3.3/3.5/3.6 and the closure property therefore apply at graph
level without being reimplemented, and any backend whose operands implement
the Table-1 surface executes unchanged.

On top of that the evaluator adds the one thing the eager path cannot do:
**cross-iteration memoization**.  Non-leaf nodes whose subtree is join
invariant (see :mod:`repro.core.lazy.expr`) are looked up in -- and stored
into -- the :class:`~repro.core.lazy.cache.FactorizedCache` attached to the
data matrix, so a GD loop that rebuilds ``crossprod(T)`` or ``T^T Y`` every
iteration computes them exactly once.  Within a single ``evaluate()`` call,
shared DAG nodes are additionally deduplicated by identity, so diamond-shaped
graphs evaluate each node once even when nothing is invariant.
"""

from __future__ import annotations

import operator
from typing import Any, Callable, Dict, Optional

import numpy as np

from repro.core.lazy.cache import FactorizedCache
from repro.core.lazy.expr import LazyExpr, LeafExpr
from repro.la import generic
from repro.la import ops as la_ops
from repro.la.types import ensure_2d, is_matrix_like, to_dense

_PY_OPS: Dict[str, Callable] = {
    "+": operator.add,
    "-": operator.sub,
    "*": operator.mul,
    "/": operator.truediv,
    "**": operator.pow,
}

_EW_UFUNCS: Dict[str, Callable] = {
    "+": np.add, "-": np.subtract, "*": np.multiply, "/": np.divide,
}


def find_cache(expr: LazyExpr) -> Optional[FactorizedCache]:
    """First :class:`FactorizedCache` found among the expression's leaves."""
    for leaf in expr.leaves():
        if isinstance(leaf, LeafExpr) and leaf.cache is not None:
            return leaf.cache
    return None


def evaluate(expr: LazyExpr, cache: Optional[FactorizedCache] = None) -> Any:
    """Evaluate *expr*, memoizing join-invariant subexpressions in *cache*.

    When *cache* is ``None`` the cache attached to the expression's data
    matrix (by ``.lazy()``) is used; with no cache anywhere, evaluation still
    works -- it just recomputes everything, matching eager semantics exactly.
    """
    if not isinstance(expr, LazyExpr):
        raise TypeError(f"evaluate() expects a LazyExpr, got {type(expr).__name__}")
    if cache is None:
        cache = find_cache(expr)
    return _evaluate(expr, cache, {})


def _evaluate(node: LazyExpr, cache: Optional[FactorizedCache],
              memo: Dict[int, Any]) -> Any:
    node_id = id(node)
    if node_id in memo:
        return memo[node_id]

    if isinstance(node, LeafExpr):
        result = node.value
    elif node.invariant and cache is not None:
        found, result = cache.lookup(node.key)
        if not found:
            result = _freeze(_compute(node, cache, memo))
            cache.store(node.key, result, patch_rule=_patch_rule(node, memo))
    else:
        result = _compute(node, cache, memo)

    memo[node_id] = result
    return result


def _freeze(value: Any) -> Any:
    """Make a to-be-cached dense result read-only.

    Cached values are returned by reference on every hit, so an in-place
    mutation by a caller would silently corrupt every future evaluation.
    Freezing turns that into an immediate ``ValueError``; callers that need a
    mutable result should copy.  (Sparse and normalized results rely on the
    library-wide immutable-base-matrix convention instead.)
    """
    if isinstance(value, np.ndarray):
        value.setflags(write=False)
    return value


def apply_matmul(a: Any, b: Any) -> Any:
    """``a @ b`` over two evaluated operands, exactly as a ``matmul`` node computes it."""
    if is_matrix_like(a) and is_matrix_like(b):
        return la_ops.matmul(a, b)
    return a @ b


def apply_elemwise(sym: str, a: Any, b: Any) -> Any:
    """``a <sym> b`` over two evaluated operands, exactly as an ``elemwise`` node computes it."""
    if is_matrix_like(a) and is_matrix_like(b):
        # Plain x plain: densify so sparse '*' is element-wise, not matmul.
        return _EW_UFUNCS[sym](to_dense(ensure_2d(a)), to_dense(ensure_2d(b)))
    # At least one logical operand: its overload implements the paper's
    # Section 3.3.7 semantics (materialize on demand).
    return _PY_OPS[sym](a, b)


#: Aggregation operators whose cached result the delta layer can patch.
_AGG_KINDS = {"rowsums": "rowsums", "colsums": "colsums", "total_sum": "total_sum"}


def _normalized_leaf_token(expr: LazyExpr) -> Optional[str]:
    """The leaf identity token when *expr* wraps an untransposed normalized matrix.

    Duck-typed (``indicators`` + ``attributes``) to avoid importing the matrix
    classes here; transposed views are excluded because the delta rules are
    stated over ``T``, not ``T^T``.
    """
    if not isinstance(expr, LeafExpr):
        return None
    value = expr.value
    if getattr(value, "transposed", False):
        return None
    if hasattr(value, "indicators") and hasattr(value, "attributes"):
        token = getattr(value, "_lazy_token", None)
        if token is not None and expr.token == token:
            return token
    return None


def _patch_rule(node: LazyExpr, memo: Dict[int, Any]):
    """A :class:`~repro.core.delta.CachePatchRule` for recognized node shapes.

    Recognized: ``crossprod(T)``, ``T @ X``, ``T^T @ Y`` and the aggregations,
    each built directly over a normalized-matrix leaf with any co-operand
    independent of that leaf (checked structurally on the co-operand's key).
    Everything else returns ``None`` and falls back to full invalidation on
    delta -- unrecognized shapes cost correctness nothing, only reuse.
    """
    from repro.core.delta import CachePatchRule
    from repro.core.lazy.cache import _key_involves

    op = node.op
    if op == "crossprod":
        token = _normalized_leaf_token(node.children[0])
        if token is not None:
            return CachePatchRule("crossprod", token)
    elif op in _AGG_KINDS:
        token = _normalized_leaf_token(node.children[0])
        if token is not None:
            return CachePatchRule(_AGG_KINDS[op], token)
    elif op == "matmul":
        left, right = node.children
        token = _normalized_leaf_token(left)
        if token is not None and not _key_involves(right.key, token):
            operand = memo.get(id(right))
            if operand is not None:
                return CachePatchRule("lmm", token, operand=operand)
        if left.op == "transpose":
            token = _normalized_leaf_token(left.children[0])
            if token is not None and not _key_involves(right.key, token):
                operand = memo.get(id(right))
                if operand is not None:
                    return CachePatchRule("tlmm", token, operand=operand)
    return None


def _compute(node: LazyExpr, cache: Optional[FactorizedCache],
             memo: Dict[int, Any]) -> Any:
    """Apply one operator to its evaluated children via the eager implementations."""
    values = [_evaluate(child, cache, memo) for child in node.children]
    op = node.op

    if op == "transpose":
        return values[0].T
    if op == "matmul":
        return apply_matmul(*values)
    if op == "crossprod":
        (value,), (method,) = values, node.params
        if hasattr(value, "crossprod"):
            return value.crossprod(method) if method else value.crossprod()
        return np.asarray(to_dense(la_ops.crossprod(ensure_2d(value))))
    if op == "ginv":
        return generic.ginv(values[0])
    if op == "rowsums":
        return generic.rowsums(values[0])
    if op == "colsums":
        return generic.colsums(values[0])
    if op == "total_sum":
        return generic.total_sum(values[0])
    if op == "scalar":
        (value,), (sym, scalar, reverse) = values, node.params
        if is_matrix_like(value):
            return la_ops.scalar_op(value, sym, scalar, reverse=reverse)
        fn = _PY_OPS[sym]
        return fn(scalar, value) if reverse else fn(value, scalar)
    if op == "elemwise":
        return apply_elemwise(node.params[0], *values)
    if op == "apply":
        return generic.elementwise(values[0], node.fn)

    raise NotImplementedError(f"unknown lazy operator {node.op!r}")  # pragma: no cover
