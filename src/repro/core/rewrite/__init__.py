"""Factorized rewrite rules for linear-algebra operators.

Each module in this package implements one operator group of Table 1 as plain
functions over the base-table matrices, in two flavours:

* ``*_star`` functions operate on a star-schema PK-FK normalized matrix given
  as ``(S, Ks, Rs)`` where ``S`` is the entity-table feature matrix (possibly
  ``None`` when the entity table contributes no features), ``Ks`` is the list
  of indicator matrices and ``Rs`` the list of attribute-table feature
  matrices (Sections 3.3 and 3.5 of the paper).
* ``*_mn`` functions operate on a (multi-table) M:N normalized matrix given as
  ``(indicators, Rs)`` -- one indicator per component, including the
  entity table, so that ``T = [I1 R1, ..., Iq Rq]`` (Section 3.6 and
  Appendices D/E).

Keeping the rules as free functions (rather than methods) lets the test suite
verify each rewrite against its materialized counterpart directly, and lets
the ablation benchmarks compare alternative rewrites (naive vs. efficient
cross-product, the two LMM multiplication orders) without touching the
``NormalizedMatrix`` classes.
"""

from repro.core.rewrite import (
    aggregation,
    crossprod,
    delta,
    inversion,
    multiplication,
    scalar_ops,
)

__all__ = ["aggregation", "crossprod", "delta", "inversion", "multiplication", "scalar_ops"]
