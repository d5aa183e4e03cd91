"""EonCluster: bootstrap, DDL, load, query, sessions, metadata sharding."""

import pytest

from repro import ColumnType, EonCluster, Segmentation
from repro.errors import CatalogError, ClusterError
from repro.sharding.shard import REPLICA_SHARD_ID
from repro.sharding.subscription import SubscriptionState


class TestBootstrap:
    def test_every_shard_covered(self, eon4):
        for shard in eon4.shard_map.shard_ids():
            assert len(eon4.active_up_subscribers(shard)) >= 2

    def test_every_node_subscribes_to_a_segment(self):
        cluster = EonCluster([f"n{i}" for i in range(9)], shard_count=3, seed=1)
        state = cluster.any_up_node().catalog.state
        for name in cluster.nodes:
            segments = [
                s for (n, s), _ in state.subscriptions.items()
                if n == name and s != REPLICA_SHARD_ID
            ]
            assert segments, f"{name} subscribes to no segment shard"

    def test_replica_shard_on_every_node(self, eon4):
        assert set(eon4.active_up_subscribers(REPLICA_SHARD_ID)) == set(eon4.nodes)

    def test_shard_filters_match_subscriptions(self, eon4):
        state = eon4.any_up_node().catalog.state
        for name, node in eon4.nodes.items():
            expected = {s for (n, s), _ in state.subscriptions.items() if n == name}
            assert node.catalog.subscribed_shards == expected


class TestDDL:
    def test_create_table_with_superprojection(self, eon4):
        eon4.execute("create table t (a int, b varchar)")
        state = eon4.any_up_node().catalog.state
        assert "t" in state.tables
        assert "t_super" in state.projections

    def test_duplicate_table_rejected(self, eon4):
        eon4.execute("create table t (a int)")
        with pytest.raises(CatalogError):
            eon4.execute("create table t (a int)")

    def test_create_projection_via_sql(self, eon4):
        eon4.execute("create table t (a int, b varchar)")
        eon4.execute(
            "create projection t_by_b (a, b) as select * from t "
            "order by b segmented by hash(b)"
        )
        proj = eon4.any_up_node().catalog.state.projection("t_by_b")
        assert proj.segmentation.columns == ("b",)

    def test_projection_on_nonempty_table_refreshes(self, eon_loaded):
        eon_loaded.create_projection(
            "late", "t", ["a", "b"], ["b"], Segmentation.by_hash("b")
        )
        # The refreshed projection holds all the data and serves queries.
        result = eon_loaded.query("select b, count(*) n from t group by b order by b")
        assert result.plan.projections_used["t"] == "late"
        assert sum(r[1] for r in result.rows.to_pylist()) == 1000

    def test_projection_on_nonempty_table_without_refresh_rejected(self, eon_loaded):
        with pytest.raises(CatalogError):
            eon_loaded.create_projection(
                "late", "t", ["a"], ["a"], Segmentation.by_hash("a"),
                refresh=False,
            )

    def test_ddl_replicated_to_all_nodes(self, eon4):
        eon4.execute("create table t (a int)")
        for node in eon4.nodes.values():
            assert "t" in node.catalog.state.tables

    def test_create_user(self, eon4):
        eon4.create_user("alice", is_superuser=True)
        assert eon4.any_up_node().catalog.state.users["alice"].is_superuser

    def test_drop_table(self, eon_loaded):
        eon_loaded.execute("drop table t")
        state = eon_loaded.any_up_node().catalog.state
        assert "t" not in state.tables
        assert not state.projections_of("t")


class TestLoadAndMetadataSharding:
    def test_load_reports(self, eon4):
        eon4.execute("create table t (a int, b varchar)")
        report = eon4.load("t", [(i, "x") for i in range(100)])
        assert report.rows_loaded == 100
        assert report.containers_written >= 1
        assert report.peer_pushes >= report.containers_written  # k>=2

    def test_containers_only_on_subscribers(self, eon_loaded):
        for name, node in eon_loaded.nodes.items():
            subscribed = node.catalog.subscribed_shards
            for container in node.catalog.state.containers.values():
                assert container.shard_id in subscribed

    def test_containers_single_shard_each(self, eon_loaded):
        for node in eon_loaded.nodes.values():
            for container in node.catalog.state.containers.values():
                assert container.shard_id is not None

    def test_data_uploaded_before_commit_visible(self, eon_loaded):
        state = eon_loaded.any_up_node().catalog.state
        for container in state.containers.values():
            assert eon_loaded.shared_data.contains(container.location)

    def test_load_schema_mismatch_rejected(self, eon4):
        eon4.execute("create table t (a int, b varchar)")
        from repro.storage.container import RowSet
        from repro.common.types import TableSchema
        wrong = RowSet.from_rows(
            TableSchema.of(("z", ColumnType.INT)), [(1,)]
        )
        with pytest.raises(CatalogError):
            eon_loaded = eon4.load("t", wrong)

    def test_insert_via_sql(self, eon4):
        eon4.execute("create table t (a int, b varchar)")
        eon4.execute("insert into t values (1, 'x'), (2, 'y')")
        assert eon4.query("select count(*) from t").rows.to_pylist() == [(2,)]

    def test_partitioned_table_containers_carry_keys(self, eon4):
        eon4.execute("create table ev (d int, v float) partition by d")
        eon4.load("ev", [(day, float(day)) for day in (1, 1, 2, 3)])
        keys = set()
        for node in eon4.nodes.values():
            for c in node.catalog.state.containers.values():
                keys.add(c.partition_key)
        assert keys == {1, 2, 3}


class TestQueries:
    def test_aggregate_query(self, eon_loaded):
        result = eon_loaded.query(
            "select b, count(*) n from t group by b order by b"
        )
        assert result.rows.to_pylist() == [(f"s{i}", 200) for i in range(5)]

    def test_filter_query(self, eon_loaded):
        result = eon_loaded.query("select count(*) from t where a < 100")
        assert result.rows.to_pylist() == [(100,)]

    def test_container_pruning_counted(self, eon_loaded):
        result = eon_loaded.query("select count(*) from t where a < -1")
        stats = result.stats
        assert result.rows.to_pylist() == [(0,)]
        total_pruned = sum(w.containers_pruned for w in stats.per_node.values())
        assert total_pruned > 0

    def test_per_node_stats_populated(self, eon_loaded):
        result = eon_loaded.query("select sum(v) from t")
        assert result.stats.latency_seconds > 0
        assert result.stats.total_rows_scanned == 1000

    def test_second_query_hits_cache(self, eon_loaded):
        eon_loaded.query("select sum(v) from t")
        result = eon_loaded.query("select sum(v) from t")
        assert result.stats.total_bytes_from_shared == 0
        assert result.stats.total_bytes_from_cache > 0

    def test_cache_bypass(self, eon_loaded):
        result = eon_loaded.query("select sum(v) from t", use_cache=False)
        assert result.stats.total_bytes_from_shared > 0

    def test_multiple_statements_via_execute(self, eon4):
        result = eon4.execute(
            "create table x (a int); insert into x values (5); "
            "select a from x"
        )
        assert result.rows.to_pylist() == [(5,)]


class TestSessions:
    def test_assignment_covers_all_shards(self, eon_loaded):
        session = eon_loaded.create_session(seed=3)
        with session:
            assert set(session.assignment) == set(eon_loaded.shard_map.shard_ids())

    def test_sessions_vary_over_seeds(self, eon_loaded):
        layouts = set()
        for seed in range(20):
            session = eon_loaded.create_session(seed=seed)
            with session:
                layouts.add(tuple(sorted(session.assignment.items())))
        assert len(layouts) > 1

    def test_snapshot_isolation(self, eon_loaded):
        session = eon_loaded.create_session(seed=1)
        with session:
            eon_loaded.load("t", [(9999, "zz", 0.0)])
            from repro.sql.parser import parse
            stale = eon_loaded.query_statement(
                parse("select count(*) from t")[0], session=session
            )
            assert stale.rows.to_pylist() == [(1000,)]
        fresh = eon_loaded.query("select count(*) from t")
        assert fresh.rows.to_pylist() == [(1001,)]

    def test_add_column_with_occ(self, eon4):
        eon4.execute("create table t (a int)")
        version = eon4.add_column("t", "b", ColumnType.VARCHAR)
        assert "b" in eon4.any_up_node().catalog.state.table("t").schema
        assert version == eon4.version
