"""Workload generators: dashboard and IoT."""

import pytest

from repro import EnterpriseCluster, EonCluster
from repro.storage.container import RowSet
from repro.workloads.dashboard import (
    dashboard_query,
    load_dashboard_data,
    setup_dashboard_schema,
)
from repro.workloads.iot import iot_batch, setup_iot_schema
from tests.helpers import sqlite_mirror


@pytest.fixture
def cluster():
    return EonCluster(["n1", "n2", "n3"], shard_count=3, seed=20)


class TestDashboard:
    def test_schema_and_data(self, cluster):
        setup_dashboard_schema(cluster)
        load_dashboard_data(cluster, n_events=2_000, n_devices=50, n_sites=5)
        counts = cluster.query("select count(*) from events").rows.to_pylist()
        assert counts == [(2_000,)]

    def test_query_is_multi_join_aggregation(self, cluster):
        setup_dashboard_schema(cluster)
        load_dashboard_data(cluster, n_events=2_000, n_devices=50, n_sites=5)
        result = cluster.query(dashboard_query())
        from repro.engine.plan import JoinNode, walk

        joins = [n for n in walk(result.plan.root) if isinstance(n, JoinNode)]
        assert len(joins) == 2  # the paper's "multiple joins"
        assert result.rows.num_rows > 0
        assert result.rows.num_rows <= 20  # LIMIT 20

    def test_device_join_is_local(self, cluster):
        setup_dashboard_schema(cluster)
        load_dashboard_data(cluster, n_events=1_000, n_devices=20, n_sites=3)
        result = cluster.query(dashboard_query())
        from repro.engine.plan import JoinNode, walk

        localities = [
            n.locality for n in walk(result.plan.root) if isinstance(n, JoinNode)
        ]
        assert all(l == "local" for l in localities)

    def test_recency_filter(self, cluster):
        setup_dashboard_schema(cluster)
        load_dashboard_data(cluster, n_events=1_000, n_devices=20, n_sites=3)
        recent = cluster.query(dashboard_query(recent_after=900))
        total = sum(r[3] for r in recent.rows.to_pylist())
        assert total <= 100


class TestIot:
    def test_batches_deterministic_per_key(self):
        _t1, a = iot_batch(0, 0, rows=100)
        _t2, b = iot_batch(0, 0, rows=100)
        assert a == b

    def test_batches_differ_across_streams_and_sequences(self):
        _, a = iot_batch(0, 0, rows=100)
        _, b = iot_batch(1, 0, rows=100)
        _, c = iot_batch(0, 1, rows=100)
        assert a != b and a != c

    def test_streams_map_to_distinct_tables(self, cluster):
        setup_iot_schema(cluster, streams=3)
        names = {iot_batch(s, 0)[0] for s in range(3)}
        assert len(names) == 3
        state = cluster.any_up_node().catalog.state
        for name in names:
            assert name in state.tables

    @pytest.mark.parametrize("flavor", [
        lambda: EonCluster(["n1", "n2", "n3"], shard_count=3, seed=20),
        lambda: EnterpriseCluster(["e1", "e2", "e3"], seed=20),
    ], ids=["eon", "enterprise"])
    def test_recent_window_equals_sqlite(self, flavor):
        """``iot_ingest``'s recent-window read returns SQLite's rows after
        real COPYs, from a batch boundary and from inside a batch."""
        cluster = flavor()
        setup_iot_schema(cluster, streams=2)
        batches = [iot_batch(stream, seq, rows=200) for seq in range(3) for stream in range(2)]
        for table, rows in batches:
            cluster.load(table, rows)
        oracle = sqlite_mirror({
            table: RowSet.concat([rows for name, rows in batches if name == table])
            for table, _ in batches
        })
        for start in (200, 300):
            assert oracle.check(cluster, (
                "select m_flags, count(*) n, avg(m_value) mean from metrics_1 "
                f"where m_ts >= {start} group by m_flags"
            )) is None
