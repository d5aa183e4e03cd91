"""Enterprise-mode baseline: buddies, WOS/moveout, repair recovery."""

import pytest

from repro import ColumnType, EnterpriseCluster, Segmentation
from repro.cluster import enterprise
from repro.errors import QuorumLost, ShardCoverageLost


@pytest.fixture
def cluster(monkeypatch):
    monkeypatch.setattr(enterprise, "DIRECT_LOAD_ROWS", 100)
    c = EnterpriseCluster(["e1", "e2", "e3"], seed=7)
    c.create_table("t", [("a", ColumnType.INT), ("b", ColumnType.VARCHAR)])
    return c


class TestPhysicalDesign:
    def test_buddy_projection_auto_created(self, cluster):
        state = cluster.catalog.state
        assert "t_super" in state.projections
        assert "t_super_b1" in state.projections
        assert state.projection("t_super_b1").buddy_of == "t_super"

    def test_replicated_projection_has_no_buddy(self, cluster):
        cluster.create_table("r", [("x", ColumnType.INT)], create_super=False)
        cluster.create_projection("r_p", "r", ["x"], ["x"], Segmentation.replicated())
        assert "r_p_b1" not in cluster.catalog.state.projections

    def test_buddy_containers_on_rotated_node(self, cluster):
        cluster.load("t", [(i, "x") for i in range(300)], direct=True)
        state = cluster.catalog.state
        for container in state.containers.values():
            owner = cluster.container_owner[str(container.sid)]
            proj = state.projection(container.projection)
            region = container.shard_id
            if proj.is_buddy:
                assert owner == cluster.buddy_node_of_region(region)
            elif not proj.segmentation.is_replicated:
                assert owner == cluster.node_order[region]


class TestWosAndMoveout:
    def test_small_load_buffers_in_wos(self, cluster):
        cluster.load("t", [(1, "a"), (2, "b")])
        assert sum(n.wos.total_rows for n in cluster.nodes.values()) > 0
        # Queries see WOS contents.
        assert cluster.query("select count(*) from t").rows.to_pylist() == [(2,)]

    def test_large_load_goes_direct(self, cluster):
        cluster.load("t", [(i, "x") for i in range(200)])
        assert all(n.wos.total_rows == 0 for n in cluster.nodes.values())

    def test_moveout_drains_wos(self, cluster):
        cluster.load("t", [(i, "w") for i in range(50)])
        moved = sum(cluster.moveout(n) for n in cluster.nodes)
        assert moved > 0
        assert all(n.wos.total_rows == 0 for n in cluster.nodes.values())
        assert cluster.query("select count(*) from t").rows.to_pylist() == [(50,)]

    def test_wos_overflow_triggers_moveout(self, monkeypatch):
        monkeypatch.setattr(enterprise, "WOS_CAPACITY_ROWS", 10)
        c = EnterpriseCluster(["e1", "e2"], seed=1)
        c.create_table("t", [("a", ColumnType.INT)])
        for i in range(5):
            c.load("t", [(i * 10 + j,) for j in range(10)])
        # Overflow forced moveouts; data intact either way.
        assert c.query("select count(*) from t").rows.to_pylist() == [(50,)]


class TestQueries:
    def test_group_by(self, cluster):
        cluster.load("t", [(i, f"g{i % 3}") for i in range(300)], direct=True)
        out = cluster.query("select b, count(*) n from t group by b order by b")
        assert out.rows.to_pylist() == [("g0", 100), ("g1", 100), ("g2", 100)]

    def test_mixed_wos_and_ros(self, cluster):
        cluster.load("t", [(i, "ros") for i in range(200)], direct=True)
        cluster.load("t", [(900, "wos")])
        out = cluster.query("select count(*) from t")
        assert out.rows.to_pylist() == [(201,)]

    def test_io_charged_at_ebs_rates(self, cluster):
        from repro.cluster.enterprise import EBS_READ_BANDWIDTH

        cluster.load("t", [(i, "x") for i in range(500)], direct=True)
        assert all(
            n.local_fs.read_bandwidth == EBS_READ_BANDWIDTH
            for n in cluster.nodes.values()
        )
        out = cluster.query("select sum(a) from t")
        assert out.stats.latency_seconds > 0


class TestFailureAndRepair:
    def test_buddy_serves_down_region(self, cluster):
        cluster.load("t", [(i, f"g{i % 3}") for i in range(300)], direct=True)
        expect = cluster.query("select count(*), sum(a) from t").rows.to_pylist()
        cluster.kill_node("e2")
        assert cluster.query("select count(*), sum(a) from t").rows.to_pylist() == expect

    def test_buddy_pair_down_loses_coverage(self):
        c = EnterpriseCluster(["a", "b", "c", "d", "e"], seed=1)
        c.create_table("t", [("x", ColumnType.INT)])
        c.kill_node("b")
        # b's buddy is c: killing c too orphans region 1.
        with pytest.raises(ShardCoverageLost):
            c.kill_node("c")

    def test_quorum_loss(self, cluster):
        cluster.kill_node("e1")
        with pytest.raises((QuorumLost, ShardCoverageLost)):
            cluster.kill_node("e2")

    def test_repair_recovery_transfers_whole_node(self, cluster):
        cluster.load("t", [(i, f"g{i % 3}") for i in range(600)], direct=True)
        expect = cluster.query("select count(*), sum(a) from t").rows.to_pylist()
        cluster.kill_node("e2")
        transferred = cluster.recover_node("e2")
        # Repair is proportional to the node's whole data set.
        assert transferred > 0
        assert cluster.query("select count(*), sum(a) from t").rows.to_pylist() == expect

    def test_repair_leaves_no_orphaned_files(self, cluster):
        cluster.load("t", [(i, f"g{i % 3}") for i in range(600)], direct=True)
        cluster.kill_node("e2")
        cluster.recover_node("e2")
        locations = {c.location for c in cluster.catalog.state.containers.values()}
        for name, node in cluster.nodes.items():
            assert set(node.local_fs.list()) <= locations, name

    def test_recovered_node_serves_data_again(self, cluster):
        cluster.load("t", [(i, "x") for i in range(300)], direct=True)
        cluster.kill_node("e3")
        cluster.recover_node("e3")
        out = cluster.query("select count(*) from t")
        assert out.rows.to_pylist() == [(300,)]
        assert "e3" in out.stats.per_node

    def test_enterprise_repair_exceeds_eon_recovery_bytes(self):
        """Section 6.1's headline contrast: Enterprise repairs the full
        node; Eon re-warms only the cache working set."""
        from repro import EonCluster

        rows = [(i, f"g{i % 3}") for i in range(2_000)]
        ent = EnterpriseCluster(["a", "b", "c"], seed=2)
        ent.create_table("t", [("a", ColumnType.INT), ("b", ColumnType.VARCHAR)])
        ent.load("t", rows, direct=True)
        ent.kill_node("b")
        ent_bytes = ent.recover_node("b")

        eon = EonCluster(["a", "b", "c"], shard_count=3, seed=2)
        eon.execute("create table t (a int, b varchar)")
        eon.load("t", rows)
        eon.kill_node("b")  # process death: cache survives
        reports = eon.recover_node("b")
        eon_bytes = sum(r.bytes_transferred for r in reports.values() if r)
        assert eon_bytes < ent_bytes
