"""Tests for the table-to-normalized-matrix builders in :mod:`repro.relational.pipeline`."""

import numpy as np
import pytest

from repro.core.decision import DecisionRule
from repro.core.mn_matrix import MNNormalizedMatrix
from repro.core.normalized_matrix import NormalizedMatrix
from repro.exceptions import SchemaError
from repro.relational.pipeline import (
    NormalizedDataset,
    mn_normalized_from_tables,
    normalized_from_schema,
    normalized_from_tables,
)
from repro.relational.table import Table


@pytest.fixture
def star_tables():
    rng = np.random.default_rng(41)
    num_orders, num_products, num_stores = 120, 12, 6
    orders = Table("orders", {
        "order_id": np.arange(num_orders),
        "quantity": rng.integers(1, 9, size=num_orders).astype(float),
        "total": rng.uniform(5, 500, size=num_orders),
        "product_id": np.concatenate([np.arange(num_products),
                                      rng.integers(0, num_products, size=num_orders - num_products)]),
        "store_id": np.concatenate([np.arange(num_stores),
                                    rng.integers(0, num_stores, size=num_orders - num_stores)]),
    })
    products = Table("products", {
        "product_id": np.arange(num_products),
        "price": rng.uniform(1, 50, size=num_products),
        "category": rng.choice(np.array(["food", "toys", "tools"]), size=num_products),
    })
    stores = Table("stores", {
        "store_id": np.arange(num_stores),
        "size": rng.uniform(100, 900, size=num_stores),
    })
    return orders, products, stores


class TestNormalizedFromTables:
    def _build(self, star_tables, **kwargs):
        orders, products, stores = star_tables
        edges = [
            ("product_id", products, "product_id", ["price", "category"]),
            ("store_id", stores, "store_id", ["size"]),
        ]
        return normalized_from_tables(orders, edges, entity_features=["quantity"],
                                      target_column="total", **kwargs)

    def test_returns_factorized_dataset(self, star_tables):
        dataset = self._build(star_tables)
        assert isinstance(dataset, NormalizedDataset)
        assert isinstance(dataset.matrix, NormalizedMatrix)
        assert dataset.is_factorized

    def test_shape_and_feature_names(self, star_tables):
        dataset = self._build(star_tables)
        # quantity + price + 3 categories + size
        assert dataset.shape == (120, 6)
        assert dataset.feature_names[0] == "quantity"
        assert any(name.startswith("products.category=") for name in dataset.feature_names)
        assert "stores.size" in dataset.feature_names

    def test_feature_name_count_matches_width(self, star_tables):
        dataset = self._build(star_tables)
        assert len(dataset.feature_names) == dataset.shape[1]

    def test_target_extracted(self, star_tables):
        orders, _, _ = star_tables
        dataset = self._build(star_tables)
        assert dataset.target.shape == (120, 1)
        assert np.allclose(dataset.target.ravel(), orders.column("total"))

    def test_materialization_matches_manual_join(self, star_tables):
        dataset = self._build(star_tables, sparse=False)
        orders, products, stores = star_tables
        dense = dataset.matrix.to_dense()
        product_rows = orders.column("product_id")
        assert np.allclose(dense[:, 1], products.column("price")[product_rows])

    def test_dense_encoding_option(self, star_tables):
        dataset = self._build(star_tables, sparse=False)
        assert isinstance(dataset.matrix.entity, np.ndarray)

    def test_no_entity_features(self, star_tables):
        orders, products, stores = star_tables
        edges = [("product_id", products, "product_id", ["price"])]
        dataset = normalized_from_tables(orders, edges)
        assert dataset.matrix.entity_width == 0
        assert dataset.target is None

    def test_decision_rule_can_materialize(self, star_tables):
        strict = DecisionRule(tuple_ratio_threshold=10_000)
        dataset = self._build(star_tables, force_factorized=False, decision_rule=strict)
        assert not dataset.is_factorized
        assert isinstance(dataset.matrix, np.ndarray) or hasattr(dataset.matrix, "toarray")

    def test_requires_edges(self, star_tables):
        orders, _, _ = star_tables
        with pytest.raises(SchemaError):
            normalized_from_tables(orders, [], entity_features=["quantity"])


class TestMNNormalizedFromTables:
    def test_builds_mn_matrix(self):
        left = Table("papers", {
            "topic": np.array([1, 2, 2, 3]),
            "citations": np.array([10.0, 5.0, 7.0, 1.0]),
        })
        right = Table("venues", {
            "topic": np.array([2, 3, 3, 1]),
            "rank": np.array([1.0, 2.0, 3.0, 4.0]),
        })
        dataset = mn_normalized_from_tables(left, "topic", right, "topic",
                                            left_features=["citations"],
                                            right_features=["rank"])
        assert isinstance(dataset.matrix, MNNormalizedMatrix)
        assert dataset.shape[1] == 2
        assert dataset.feature_names == ["papers.citations", "venues.rank"]
        # topic 1 matches 1, topic 2 matches 1 each (x2 left rows), topic 3 matches 2.
        assert dataset.shape[0] == 1 + 1 + 1 + 2

    def test_matches_materialized_values(self):
        left = Table("l", {"j": np.array([1, 1, 2]), "x": np.array([1.0, 2.0, 3.0])})
        right = Table("r", {"j": np.array([1, 2]), "y": np.array([10.0, 20.0])})
        dataset = mn_normalized_from_tables(left, "j", right, "j",
                                            left_features=["x"], right_features=["y"],
                                            sparse=False)
        dense = dataset.matrix.to_dense()
        assert np.allclose(dense, [[1.0, 10.0], [2.0, 10.0], [3.0, 20.0]])


class TestTargetValidation:
    def test_non_numeric_target_raises_named_error(self):
        entity = Table("orders", {
            "store_id": np.array([0, 1]),
            "status": np.array(["paid", "open"]),
        })
        stores = Table("stores", {"store_id": np.array([0, 1]),
                                  "size": np.array([1.0, 2.0])})
        with pytest.raises(
                SchemaError,
                match=r"target column 'status' of table 'orders' has "
                      r"non-numeric dtype"):
            normalized_from_tables(
                entity, [("store_id", stores, "store_id", ["size"])],
                target_column="status")

    def test_boolean_target_accepted_as_01(self):
        entity = Table("orders", {
            "store_id": np.array([0, 1, 0]),
            "churned": np.array([True, False, True]),
        })
        stores = Table("stores", {"store_id": np.array([0, 1]),
                                  "size": np.array([1.0, 2.0])})
        dataset = normalized_from_tables(
            entity, [("store_id", stores, "store_id", ["size"])],
            target_column="churned")
        np.testing.assert_array_equal(dataset.target.ravel(), [1.0, 0.0, 1.0])
        assert dataset.target.dtype == np.float64
        assert dataset.target.shape == (3, 1)


class TestNormalizedFromSchema:
    @pytest.fixture
    def snowflake(self):
        """orders -> customers -> regions, plus locations under two roles."""
        from repro.relational import Join, SchemaGraph

        rng = np.random.default_rng(11)
        n, n_cust, n_reg, n_loc = 40, 8, 3, 5
        orders = Table("orders", {
            "cust_id": np.concatenate([np.arange(n_cust),
                                       rng.integers(0, n_cust, size=n - n_cust)]),
            "ship_to": np.concatenate([np.arange(n_loc),
                                       rng.integers(0, n_loc, size=n - n_loc)]),
            "bill_to": np.concatenate([np.arange(n_loc),
                                       rng.integers(0, n_loc, size=n - n_loc)]),
            "quantity": rng.uniform(1, 9, size=n),
            "total": rng.uniform(5, 500, size=n),
        })
        customers = Table("customers", {
            "id": np.arange(n_cust),
            "region_id": np.concatenate([np.arange(n_reg),
                                         rng.integers(0, n_reg, size=n_cust - n_reg)]),
            "age": rng.uniform(18, 80, size=n_cust),
        })
        regions = Table("regions", {
            "id": np.arange(n_reg), "gdp": rng.uniform(1, 10, size=n_reg),
        })
        locations = Table("locations", {
            "id": np.arange(n_loc), "tax": rng.uniform(0, 0.3, size=n_loc),
        })
        graph = SchemaGraph("orders", [
            Join("orders.cust_id", "customers.id"),
            Join("customers.region_id", "regions.id"),
            Join("orders.ship_to", "locations.id", alias="ship_loc"),
            Join("orders.bill_to", "locations.id", alias="bill_loc"),
        ])
        tables = {"orders": orders, "customers": customers,
                  "regions": regions, "locations": locations}
        return graph, tables

    def _dense_reference(self, tables):
        """Materialized snowflake join in breadth-first alias order."""
        orders = tables["orders"]
        customers, regions = tables["customers"], tables["regions"]
        locations = tables["locations"]
        cust = orders.column("cust_id")
        region_of_cust = customers.column("region_id")[cust]
        return np.column_stack([
            orders.column("quantity"),
            customers.column("age")[cust],
            locations.column("tax")[orders.column("ship_to")],
            locations.column("tax")[orders.column("bill_to")],
            regions.column("gdp")[region_of_cust],
        ])

    def test_matches_materialized_reference(self, snowflake):
        graph, tables = snowflake
        dataset = normalized_from_schema(graph, tables, target_column="total")
        assert isinstance(dataset.matrix, NormalizedMatrix)
        dense = np.asarray(dataset.matrix.to_dense())
        np.testing.assert_allclose(dense, self._dense_reference(tables), atol=1e-12)

    def test_feature_names_use_aliases_in_resolve_order(self, snowflake):
        graph, tables = snowflake
        dataset = normalized_from_schema(graph, tables, target_column="total")
        assert dataset.feature_names == [
            "quantity", "customers.age", "ship_loc.tax", "bill_loc.tax",
            "regions.gdp",
        ]

    def test_keys_and_target_excluded_from_features(self, snowflake):
        graph, tables = snowflake
        dataset = normalized_from_schema(graph, tables, target_column="total")
        assert "cust_id" not in dataset.feature_names
        assert "total" not in dataset.feature_names
        np.testing.assert_array_equal(
            dataset.target.ravel(), tables["orders"].column("total"))

    def test_two_hop_alias_stays_factorized_by_default(self, snowflake):
        from repro.la.indicator import CodeIndicator
        from repro.relational.join import pk_fk_indicator

        graph, tables = snowflake
        dataset = normalized_from_schema(graph, tables)
        assert all(isinstance(k, CodeIndicator) for k in dataset.matrix.indicators)
        # orders -> customers -> regions composes to one n_S code vector.
        [regions] = [k for k in dataset.matrix.indicators if k.shape[1] == 3]
        hop1, _ = pk_fk_indicator(tables["orders"], "cust_id", tables["customers"], "id")
        hop2, _ = pk_fk_indicator(tables["customers"], "region_id", tables["regions"], "id")
        assert regions.codes.shape == (40,)
        np.testing.assert_array_equal(regions.toarray(), hop1.toarray() @ hop2.toarray())

    def test_per_alias_feature_override(self, snowflake):
        graph, tables = snowflake
        dataset = normalized_from_schema(
            graph, tables, entity_features=(), target_column="total",
            features={"ship_loc": [], "bill_loc": [], "regions": []})
        assert dataset.feature_names == ["customers.age"]

    def test_shared_dimension_builds_one_hop_per_role(self, snowflake):
        graph, tables = snowflake
        dataset = normalized_from_schema(graph, tables)
        # ship_loc and bill_loc both map into locations: two indicators with
        # the same column count but different row labels.
        ship, bill = dataset.matrix.indicators[1], dataset.matrix.indicators[2]
        assert ship.shape == bill.shape == (40, 5)
        assert np.any(ship.codes != bill.codes)

    def test_missing_table_rejected(self, snowflake):
        graph, tables = snowflake
        del tables["regions"]
        with pytest.raises(SchemaError, match="'regions' missing"):
            normalized_from_schema(graph, tables)
