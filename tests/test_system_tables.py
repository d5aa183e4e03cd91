"""``v_monitor`` system tables answered through the ordinary SQL path.

The acceptance bar for the observability subsystem: a ``SELECT`` over the
virtual tables returns *live, correct* data — depot rows agree with each
node's :class:`CacheStats`, and request rows agree with the simulated S3
backend's own dollar accounting.
"""

import pytest

from repro import EonCluster
from repro.errors import CatalogError


@pytest.fixture
def cluster():
    cluster = EonCluster(["n1", "n2", "n3"], shard_count=3, seed=7)
    cluster.execute("create table t (k int, v int)")
    cluster.load("t", [(i, i * 2) for i in range(150)])
    cluster.enable_observability()
    return cluster


def rows_of(cluster, sql):
    return [tuple(r) for r in cluster.query(sql).rows.to_pylist()]


class TestDepotActivity:
    def test_matches_cache_stats(self, cluster):
        cluster.query("select count(*) from t")  # warm hits
        cluster.query("select count(*) from t", use_cache=False)  # misses
        rows = rows_of(
            cluster,
            "select node_name, hits, misses, bytes_read, bytes_missed"
            " from v_monitor.depot_activity",
        )
        assert [r[0] for r in rows] == ["n1", "n2", "n3"]
        for node_name, hits, misses, bytes_read, bytes_missed in rows:
            stats = cluster.nodes[node_name].cache.stats
            assert (hits, misses) == (stats.hits, stats.misses)
            assert (bytes_read, bytes_missed) == (
                stats.bytes_read, stats.bytes_missed
            )
        assert sum(r[1] for r in rows) > 0
        assert sum(r[2] for r in rows) > 0

    def test_where_predicate_filters(self, cluster):
        rows = rows_of(
            cluster,
            "select node_name, capacity_bytes from v_monitor.depot_activity"
            " where node_name = 'n2'",
        )
        assert rows == [("n2", cluster.nodes["n2"].cache.capacity_bytes)]


class TestDcRequestsIssued:
    def test_s3_dollars_match_backend_accounting(self, cluster):
        dollars_before = cluster.shared.metrics.dollars
        gets_before = cluster.shared.metrics.get_requests
        cluster.query("select sum(v) from t", use_cache=False)
        dollars_delta = cluster.shared.metrics.dollars - dollars_before
        gets_delta = cluster.shared.metrics.get_requests - gets_before
        assert gets_delta > 0

        rows = rows_of(
            cluster,
            "select request_id, request, s3_requests, s3_dollars"
            " from v_monitor.dc_requests_issued",
        )
        assert len(rows) == 1  # the monitor query itself is not recorded
        request_id, request, s3_requests, s3_dollars = rows[0]
        assert request == "select sum(v) from t"
        assert s3_requests == gets_delta
        assert s3_dollars == pytest.approx(dollars_delta)

    def test_rows_and_duration_match_result(self, cluster):
        result = cluster.query("select k from t where k < 5")
        rows = rows_of(
            cluster,
            "select rows_produced, duration_seconds"
            " from v_monitor.dc_requests_issued",
        )
        assert rows == [
            (result.rows.num_rows, result.stats.latency_seconds)
        ]

    def test_monitor_queries_are_not_self_recorded(self, cluster):
        for _ in range(3):
            rows_of(cluster, "select node_name from v_monitor.depot_activity")
        assert len(cluster.obs.requests) == 0


class TestQueryProfiles:
    def test_operator_rows_match_recorded_profiles(self, cluster):
        cluster.query("select k, v from t where k < 30")
        profile = cluster.obs.profiles[-1]
        rows = rows_of(
            cluster,
            "select request_id, operator, rows_produced"
            " from v_monitor.query_profiles",
        )
        assert len(rows) == len(profile.operators)
        assert {r[0] for r in rows} == {profile.request_id}
        by_operator = {}
        for _, operator, produced in rows:
            by_operator[operator] = by_operator.get(operator, 0) + produced
        assert by_operator["Scan"] == 30


class TestStorageContainers:
    def test_inventory_covers_loaded_rows(self, cluster):
        # ("projection" is a reserved word in this dialect — skip the column.)
        rows = rows_of(
            cluster,
            "select shard_id, row_count from v_monitor.storage_containers",
        )
        assert sum(r[1] for r in rows) == 150
        assert {r[0] for r in rows} <= set(range(3))


class TestResourceUsage:
    def test_one_row_per_node(self, cluster):
        rows = rows_of(
            cluster,
            "select node_name, node_state, subscriptions"
            " from v_monitor.resource_usage",
        )
        assert [r[0] for r in rows] == ["n1", "n2", "n3"]
        for _, state, subscriptions in rows:
            assert state == "UP"
            assert subscriptions >= 1


class TestDcStorageOperations:
    def test_per_class_counts_match_op_stats(self, cluster):
        cluster.query("select count(*) from t", use_cache=False)
        rows = rows_of(
            cluster,
            "select operation, requests, dollars"
            " from v_monitor.dc_storage_operations",
        )
        assert [r[0] for r in rows] == ["DELETE", "GET", "LIST", "PUT", "SELECT"]
        for operation, requests, dollars in rows:
            stats = cluster.shared.op_stats[operation]
            assert requests == stats.requests
            assert dollars == pytest.approx(stats.dollars)
        by_op = {r[0]: r[1] for r in rows}
        assert by_op["GET"] == cluster.shared.metrics.get_requests
        assert by_op["PUT"] == cluster.shared.metrics.put_requests


class TestSqlPathIntegration:
    def test_aggregate_over_system_table(self, cluster):
        cluster.query("select count(*) from t", use_cache=False)
        [(total,)] = rows_of(
            cluster,
            "select sum(requests) from v_monitor.dc_storage_operations",
        )
        assert total == cluster.shared.metrics.total_requests

    def test_order_by_over_system_table(self, cluster):
        rows = rows_of(
            cluster,
            "select node_name from v_monitor.resource_usage"
            " order by node_name desc",
        )
        assert [r[0] for r in rows] == ["n3", "n2", "n1"]

    def test_unknown_system_table_lists_available(self, cluster):
        with pytest.raises(CatalogError) as err:
            cluster.query("select x from v_monitor.nope")
        assert "depot_activity" in str(err.value)
        assert "dc_requests_issued" in str(err.value)

    def test_system_tables_visible_without_observability(self):
        # Metrics-backed tables answer even with recording off; only the
        # request/profile tables need obs to have been enabled.
        quiet = EonCluster(["n1", "n2"], shard_count=2, seed=3)
        quiet.execute("create table t (k int)")
        quiet.load("t", [(i,) for i in range(10)])
        rows = rows_of(
            quiet, "select node_name, hits from v_monitor.depot_activity"
        )
        assert [r[0] for r in rows] == ["n1", "n2"]
        assert len(quiet.obs.requests) == 0


class TestGenericBackendFallback:
    """``dc_storage_operations`` over a backend without per-op-class
    accounting (the in-memory local disk) must report the same five op classes — SELECT
    included — sourced from the aggregate ledger."""

    def test_all_op_classes_reported_from_aggregate_metrics(self):
        from repro.shared_storage.posix import MemoryFilesystem

        cluster = EonCluster(
            ["n1", "n2"], shard_count=2, seed=5,
            shared_storage=MemoryFilesystem(),
        )
        cluster.execute("create table t (k int)")
        cluster.load("t", [(i,) for i in range(40)])
        cluster.enable_observability()
        cluster.query("select count(*) from t", use_cache=False)
        rows = rows_of(
            cluster,
            "select operation, requests, bytes"
            " from v_monitor.dc_storage_operations",
        )
        assert [r[0] for r in rows] == \
            ["DELETE", "GET", "LIST", "PUT", "SELECT"]
        by_op = {r[0]: (r[1], r[2]) for r in rows}
        m = cluster.shared.metrics
        assert by_op["GET"] == (m.get_requests, m.bytes_read)
        assert by_op["PUT"] == (m.put_requests, m.bytes_written)
        assert by_op["GET"][0] > 0
        # No server-side compute on a local disk: present, and zero.
        assert by_op["SELECT"] == (0, 0)
