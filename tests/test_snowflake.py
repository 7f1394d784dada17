"""Acceptance test: a two-hop snowflake schema behind the declarative frontend.

The schema is orders -> customers -> regions (a two-hop chain: the regions
indicator is the product of the customers and regions hops) plus one shared
``locations`` dimension joined under two roles (``ship_loc`` / ``bill_loc``).
Built through :func:`normalized_from_schema`, all four ML algorithms must
reproduce the dense materialized reference to 1e-8 on every engine, and the
serving scorer must score the composed matrix exactly.
"""

import numpy as np
import pytest

from repro.core.normalized_matrix import NormalizedMatrix
from repro.core.planner import CalibrationProfile, Planner
from repro.la.indicator import CodeIndicator
from repro.ml import (
    GNMF,
    KMeans,
    LinearRegressionGD,
    LogisticRegressionGD,
    ServingExport,
)
from repro.relational import Join, SchemaGraph, Table, normalized_from_schema
from repro.serve import FactorizedScorer

TOL = dict(atol=1e-8, rtol=1e-8)
ITERS = 5
ENGINES = ("eager", "lazy", "sharded", "streamed", "auto")


@pytest.fixture(scope="module")
def snowflake():
    rng = np.random.default_rng(23)
    n, n_cust, n_reg, n_loc = 90, 12, 4, 6

    def surjective(size, count):
        labels = np.concatenate([np.arange(count),
                                 rng.integers(0, count, size=size - count)])
        rng.shuffle(labels)
        return labels

    tables = {
        "orders": Table("orders", {
            "cust_id": surjective(n, n_cust),
            "ship_to": surjective(n, n_loc),
            "bill_to": surjective(n, n_loc),
            "quantity": rng.uniform(1, 9, size=n),
            "total": rng.uniform(5, 500, size=n),
        }),
        "customers": Table("customers", {
            "id": np.arange(n_cust),
            "region_id": surjective(n_cust, n_reg),
            "age": rng.uniform(18, 80, size=n_cust),
            "income": rng.uniform(20, 200, size=n_cust),
        }),
        "regions": Table("regions", {
            "id": np.arange(n_reg),
            "gdp": rng.uniform(1, 10, size=n_reg),
        }),
        "locations": Table("locations", {
            "id": np.arange(n_loc),
            "tax": rng.uniform(0.0, 0.3, size=n_loc),
        }),
    }
    graph = SchemaGraph("orders", [
        Join("orders.cust_id", "customers.id"),
        Join("customers.region_id", "regions.id"),
        Join("orders.ship_to", "locations.id", alias="ship_loc"),
        Join("orders.bill_to", "locations.id", alias="bill_loc"),
    ])
    dataset = normalized_from_schema(graph, tables, target_column="total")

    # Hand-materialized reference, in the graph's breadth-first alias order:
    # customers, ship_loc, bill_loc, regions.
    orders = tables["orders"]
    cust = orders.column("cust_id")
    region_of_cust = tables["customers"].column("region_id")[cust]
    tax = tables["locations"].column("tax")
    dense = np.column_stack([
        orders.column("quantity"),
        tables["customers"].column("age")[cust],
        tables["customers"].column("income")[cust],
        tax[orders.column("ship_to")],
        tax[orders.column("bill_to")],
        tables["regions"].column("gdp")[region_of_cust],
    ])
    return graph, tables, dataset, dense


def _deterministic_planner() -> Planner:
    return Planner(calibration=CalibrationProfile.default())


def _fit(estimator_cls, engine, data, *fit_args, **kwargs):
    if engine == "sharded":
        est = estimator_cls(n_jobs=2, **kwargs)
    elif engine == "streamed":
        est = estimator_cls(**kwargs)
        data = data.stream(batch_rows=16)
    elif engine == "auto":
        est = estimator_cls(engine="auto", **kwargs)
        est.planner = _deterministic_planner()
    else:
        est = estimator_cls(engine=engine, **kwargs)
    return est.fit(data, *fit_args)


class TestSchemaConstruction:
    def test_structure(self, snowflake):
        _, _, dataset, dense = snowflake
        assert isinstance(dataset.matrix, NormalizedMatrix)
        assert dataset.matrix.shape == dense.shape
        assert dataset.feature_names == [
            "quantity", "customers.age", "customers.income",
            "ship_loc.tax", "bill_loc.tax", "regions.gdp",
        ]

    def test_two_hop_chain_kept_factorized(self, snowflake):
        # The two-hop path is one n_S code vector routing orders to regions;
        # the regions table itself stays unjoined.
        _, tables, dataset, _ = snowflake
        regions = dataset.matrix.indicators[3]
        assert isinstance(regions, CodeIndicator)
        assert regions.shape == (90, 4)
        cust = tables["orders"].column("cust_id")
        np.testing.assert_array_equal(
            regions.codes, tables["customers"].column("region_id")[cust])
        assert dataset.matrix.attributes[3].shape[0] == 4

    def test_materializes_to_reference(self, snowflake):
        _, _, dataset, dense = snowflake
        np.testing.assert_allclose(np.asarray(dataset.matrix.to_dense()),
                                   dense, **TOL)


@pytest.mark.parametrize("engine", ENGINES)
class TestAllAlgorithmsAllEngines:
    def test_linear_regression(self, snowflake, engine):
        _, _, dataset, dense = snowflake
        y = dataset.target
        model = _fit(LinearRegressionGD, engine, dataset.matrix, y,
                     max_iter=ITERS, step_size=1e-4)
        reference = LinearRegressionGD(max_iter=ITERS, step_size=1e-4).fit(dense, y)
        np.testing.assert_allclose(model.coef_, reference.coef_, **TOL)

    def test_logistic_regression(self, snowflake, engine):
        _, _, dataset, dense = snowflake
        labels = np.where(dataset.target > np.median(dataset.target), 1.0, -1.0)
        model = _fit(LogisticRegressionGD, engine, dataset.matrix, labels,
                     max_iter=ITERS, step_size=1e-3)
        reference = LogisticRegressionGD(max_iter=ITERS, step_size=1e-3).fit(
            dense, labels)
        np.testing.assert_allclose(model.coef_, reference.coef_, **TOL)

    def test_kmeans(self, snowflake, engine):
        _, _, dataset, dense = snowflake
        model = _fit(KMeans, engine, dataset.matrix,
                     num_clusters=3, max_iter=ITERS, seed=0)
        reference = KMeans(num_clusters=3, max_iter=ITERS, seed=0).fit(dense)
        np.testing.assert_allclose(model.centroids_, reference.centroids_, **TOL)
        np.testing.assert_array_equal(model.labels_, reference.labels_)

    def test_gnmf(self, snowflake, engine):
        # All snowflake features are drawn non-negative, so GNMF applies as-is.
        _, _, dataset, dense = snowflake
        model = _fit(GNMF, engine, dataset.matrix, rank=3, max_iter=ITERS, seed=1)
        reference = GNMF(rank=3, max_iter=ITERS, seed=1).fit(dense)
        np.testing.assert_allclose(model.w_, reference.w_, **TOL)
        np.testing.assert_allclose(model.h_, reference.h_, **TOL)


class TestServingOverChains:
    def test_factorized_scorer_matches_dense(self, snowflake):
        _, _, dataset, dense = snowflake
        rng = np.random.default_rng(5)
        weights = rng.standard_normal((dense.shape[1], 1))
        scorer = FactorizedScorer(ServingExport("linear_regression", weights),
                                  dataset.matrix)
        rows = np.arange(dense.shape[0])
        np.testing.assert_allclose(scorer.score_rows(rows), dense @ weights,
                                   **TOL)
