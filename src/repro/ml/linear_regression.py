"""Least-squares linear regression (paper Algorithms 5/6, 11/12 and 13/14).

Three solvers are provided, matching the paper:

* :class:`LinearRegressionNE` -- the normal-equation solver
  ``w = ginv(crossprod(T)) (T^T Y)`` of Algorithm 5.  Its runtime is dominated
  by ``crossprod``, which is why its speed-up curves track Figure 3(c).
* :class:`LinearRegressionGD` -- batch gradient descent
  ``w -= alpha * T^T (T w - Y)`` of Algorithm 11 (Appendix G), used when ``d``
  is large or the Gram matrix is singular.
* :class:`LinearRegressionCofactor` -- the hybrid of Schleich et al.
  (Algorithm 13/14): build the co-factor matrix
  ``C = [Y^T T ; crossprod(T)]`` once, then iterate cheap ``(d+1) x d``
  updates (optionally with AdaGrad step-size scaling).

All three are written against the generic LA surface, so they are
automatically factorized when handed a normalized matrix.
"""

from __future__ import annotations

from typing import Optional

import numpy as np

from repro.la import generic, kernels
from repro.la.generic import to_dense_result
from repro.ml.base import (
    IterativeEstimator,
    as_column,
    fit_telemetry,
    check_rows_match,
    shard_for_jobs,
    unwrap_lazy,
    validate_n_jobs,
    validate_predict_data,
)
from repro.ml.export import ServingExport


def _export_linear(coef: Optional[np.ndarray], context: str) -> ServingExport:
    """Shared ``export_weights`` body of the three linear-regression solvers."""
    if coef is None:
        raise RuntimeError(f"{context}: model is not fitted")
    return ServingExport("linear_regression", coef)


class LinearRegressionNE:
    """Ordinary least squares via the normal equations and the pseudo-inverse."""

    def __init__(self, crossprod_method: Optional[str] = None, n_jobs: int = 1):
        self.crossprod_method = crossprod_method
        self.n_jobs = validate_n_jobs(n_jobs)
        self.coef_: Optional[np.ndarray] = None

    @fit_telemetry
    def fit(self, data, target) -> "LinearRegressionNE":
        """Solve ``w = ginv(T^T T) (T^T Y)``."""
        data = shard_for_jobs(unwrap_lazy(data), self.n_jobs)
        y = as_column(target)
        check_rows_match(data, y, "LinearRegressionNE.fit")
        if self.crossprod_method is not None and hasattr(data, "crossprod"):
            gram = np.asarray(data.crossprod(self.crossprod_method))
        else:
            gram = generic.crossprod(data)
        xty = to_dense_result(data.T @ y)
        self.coef_ = np.linalg.pinv(gram) @ xty
        return self

    def predict(self, data) -> np.ndarray:
        if self.coef_ is None:
            raise RuntimeError("model is not fitted")
        data = validate_predict_data(data, self.coef_.shape[0], "LinearRegressionNE.predict")
        return to_dense_result(data @ self.coef_)

    def export_weights(self) -> ServingExport:
        """Export the learned weights for the serving subsystem."""
        return _export_linear(self.coef_, "LinearRegressionNE.export_weights")


class LinearRegressionGD(IterativeEstimator):
    """Ordinary least squares via batch gradient descent (Algorithm 11/12).

    With ``engine="lazy"`` the gradient is evaluated through the lazy layer in
    its normal-equation form ``crossprod(T) w - T^T Y`` (algebraically equal
    to ``T^T (T w - Y)``; this is the same one-time-LA trick the co-factor
    hybrid below uses).  Both ``crossprod(T)`` and ``T^T Y`` are join
    invariant: they are evaluated once per fit (memoized in the matrix's
    FactorizedCache, so a refit on the same matrix recomputes neither), and
    every pass costs ``O(d^2)`` regular arithmetic instead of two LA passes
    over the data.
    """

    def __init__(self, max_iter: int = 20, step_size: float = 1e-6,
                 seed: Optional[int] = 0, track_history: bool = False,
                 engine: str = "eager", n_jobs: Optional[int] = None,
                 solver: str = "batch", batch_size: Optional[int] = None,
                 shuffle: bool = False, memory_budget: Optional[float] = None):
        super().__init__(max_iter=max_iter, step_size=step_size, seed=seed,
                         track_history=track_history, engine=engine, n_jobs=n_jobs,
                         solver=solver, batch_size=batch_size, shuffle=shuffle,
                         memory_budget=memory_budget)
        self.coef_: Optional[np.ndarray] = None

    def _workload_descriptor(self):
        from repro.core.planner import WorkloadDescriptor

        return WorkloadDescriptor.linear_regression_gd(self.max_iter)

    @fit_telemetry
    def fit(self, data, target, initial_weights: Optional[np.ndarray] = None
            ) -> "LinearRegressionGD":
        y = as_column(target)
        engine, data = self._resolve_engine(data)
        check_rows_match(data, y, "LinearRegressionGD.fit")
        d = data.shape[1]
        w = as_column(initial_weights).copy() if initial_weights is not None else np.zeros((d, 1))
        self.history_ = []
        self.lazy_cache_ = None
        if self._use_minibatch():
            return self._fit_sgd(unwrap_lazy(data), y, w)
        if engine == "lazy":
            # Hand the original operand over: a lazy view keeps its attached
            # FactorizedCache (as_lazy passes views through unchanged).
            return self._fit_lazy(data, y, w)
        data = unwrap_lazy(data)
        for _ in range(self.max_iter):
            residual = to_dense_result(data @ w) - y
            gradient = to_dense_result(data.T @ residual)
            w = w - self.step_size * gradient
            if self.track_history:
                self.history_.append(float(np.sum(residual ** 2)))
        self.coef_ = w
        return self

    def _minibatch_step(self, data, y: np.ndarray, w: np.ndarray):
        """One mini-batch gradient step; returns the new weights and the batch SSE."""
        return kernels.sgd_step(data, y, w, self.step_size)

    def _fit_sgd(self, data, y: np.ndarray, w: np.ndarray) -> "LinearRegressionGD":
        """Mini-batch SGD: ``max_iter`` epochs over factorized row batches.

        Each batch of a normalized matrix is a ``take_rows`` slice (attribute
        tables shared), so an epoch streams the base matrices without ever
        materializing the join; one epoch at ``batch_size >= n_rows`` is the
        full-batch update bit for bit.
        """
        batches = self._stream_batches(data, y)
        for _ in range(self.max_iter):
            epoch_sse = 0.0
            for batch in batches:
                w, sse = self._minibatch_step(self._dispatch_batch(batch.data),
                                              batch.target, w)
                epoch_sse += sse
            if self.track_history:
                self.history_.append(epoch_sse)
        self.coef_ = w
        return self

    def partial_fit(self, data, target) -> "LinearRegressionGD":
        """One incremental gradient step on a single mini-batch.

        Initializes ``coef_`` to zeros on the first call (the feature count
        comes from the batch) and applies one update of the Algorithm 11 rule
        restricted to the batch.  *data* may be a factorized batch (a
        ``take_rows`` slice, as yielded by
        :class:`~repro.core.stream.NormalizedBatchIterator` or the chunk-wise
        CSV reader) or a plain row slice -- the two match to numerical
        precision, which the equivalence suite checks.
        """
        data = self._dispatch_batch(unwrap_lazy(data))
        y = as_column(target)
        check_rows_match(data, y, "LinearRegressionGD.partial_fit")
        if self.coef_ is None:
            self.coef_ = np.zeros((data.shape[1], 1))
        self.coef_, sse = self._minibatch_step(data, y, self.coef_)
        if self.track_history:
            self.history_.append(sse)
        return self

    def _fit_lazy(self, data, y: np.ndarray, w: np.ndarray) -> "LinearRegressionGD":
        from repro.core.lazy import constant
        from repro.core.lazy.evaluator import apply_elemwise, apply_matmul

        lazy_t = self._lazy_data(data)
        # Both join-invariant terms are evaluated once per fit, through the
        # matrix's FactorizedCache (a warm refit is two hits); the loop then
        # applies the evaluator's own product and subtraction to them, so
        # the weights equal a per-iteration (gram @ w - projected).evaluate().
        gram = lazy_t.crossprod().evaluate()
        projected = (lazy_t.T @ constant(y)).evaluate()
        for _ in range(self.max_iter):
            if self.track_history:
                residual = to_dense_result((lazy_t @ w).evaluate()) - y
                self.history_.append(float(np.sum(residual ** 2)))
            gradient = apply_elemwise("-", apply_matmul(gram, w), projected)
            w = w - self.step_size * gradient
        self.coef_ = w
        return self

    def predict(self, data) -> np.ndarray:
        if self.coef_ is None:
            raise RuntimeError("model is not fitted")
        data = validate_predict_data(data, self.coef_.shape[0], "LinearRegressionGD.predict")
        return to_dense_result(data @ self.coef_)

    def export_weights(self) -> ServingExport:
        """Export the learned weights for the serving subsystem."""
        return _export_linear(self.coef_, "LinearRegressionGD.export_weights")


class LinearRegressionCofactor(IterativeEstimator):
    """The co-factor hybrid of Schleich et al. [35] (Algorithms 13 and 14).

    The expensive LA over the data matrix happens exactly once, when building
    the co-factor ``C = [Y^T T ; crossprod(T)]``; the iterative phase only
    touches ``C``, which is ``(d+1) x d``.  With a normalized matrix, building
    ``C`` uses the factorized transposed-LMM and cross-product rewrites, which
    is how Morpheus subsumes that prior system.
    """

    def __init__(self, max_iter: int = 20, step_size: float = 1e-6,
                 seed: Optional[int] = 0, track_history: bool = False,
                 adagrad: bool = True, epsilon: float = 1e-8, n_jobs: int = 1):
        super().__init__(max_iter=max_iter, step_size=step_size, seed=seed,
                         track_history=track_history, n_jobs=n_jobs)
        self.adagrad = bool(adagrad)
        self.epsilon = float(epsilon)
        self.coef_: Optional[np.ndarray] = None
        self.cofactor_: Optional[np.ndarray] = None

    @fit_telemetry
    def fit(self, data, target, initial_weights: Optional[np.ndarray] = None
            ) -> "LinearRegressionCofactor":
        data = self._dispatch_data(unwrap_lazy(data))
        y = as_column(target)
        check_rows_match(data, y, "LinearRegressionCofactor.fit")
        d = data.shape[1]
        yt_t = to_dense_result(y.T @ data)          # 1 x d, factorized RMM
        gram = generic.crossprod(data)              # d x d, factorized cross-product
        cofactor = np.vstack([yt_t, gram])          # (d + 1) x d
        self.cofactor_ = cofactor

        w = as_column(initial_weights).copy() if initial_weights is not None else np.zeros((d, 1))
        accumulated = np.zeros((d, 1))
        self.history_ = []
        for _ in range(self.max_iter):
            stacked = np.vstack([-np.ones((1, 1)), w])      # [-1; w]
            gradient = cofactor.T @ stacked                  # = crossprod(T) w - T^T Y
            if self.adagrad:
                accumulated += gradient ** 2
                scaled = gradient / (np.sqrt(accumulated) + self.epsilon)
                w = w - self.step_size * scaled
            else:
                w = w - self.step_size * gradient
            if self.track_history:
                self.history_.append(float(np.linalg.norm(gradient)))
        self.coef_ = w
        return self

    def predict(self, data) -> np.ndarray:
        if self.coef_ is None:
            raise RuntimeError("model is not fitted")
        data = validate_predict_data(data, self.coef_.shape[0],
                                     "LinearRegressionCofactor.predict")
        return to_dense_result(data @ self.coef_)

    def export_weights(self) -> ServingExport:
        """Export the learned weights for the serving subsystem."""
        return _export_linear(self.coef_, "LinearRegressionCofactor.export_weights")
