"""Enterprise mergeout: per-node independent compaction (section 6.2)."""

import pytest

from repro import ColumnType, EnterpriseCluster
from repro.cluster import enterprise


@pytest.fixture
def cluster(monkeypatch):
    monkeypatch.setattr(enterprise, "STRATA_WIDTH", 3)
    monkeypatch.setattr(enterprise, "STRATA_BASE_BYTES", 256)
    c = EnterpriseCluster(["e1", "e2", "e3"], seed=2)
    c.create_table("t", [("a", ColumnType.INT), ("b", ColumnType.VARCHAR)])
    for batch in range(8):
        c.load("t", [(batch * 50 + i, f"g{i % 3}") for i in range(50)], direct=True)
    return c


class TestEnterpriseMergeout:
    def test_compacts_and_preserves_answers(self, cluster):
        before = cluster.query("select count(*), sum(a) from t").rows.to_pylist()
        count_before = len(cluster.catalog.state.containers)
        jobs = sum(
            cluster.mergeout(name)
            for name in cluster.nodes
        )
        assert jobs > 0
        assert len(cluster.catalog.state.containers) < count_before
        assert cluster.query("select count(*), sum(a) from t").rows.to_pylist() == before

    def test_each_node_merges_independently(self, cluster):
        """Redundant merging: base and buddy copies merge separately,
        unlike Eon's single coordinator per shard."""
        jobs_per_node = {
            name: cluster.mergeout(name)
            for name in cluster.nodes
        }
        # Every node had work of its own (it owns base + buddy containers).
        assert all(jobs > 0 for jobs in jobs_per_node.values())

    def test_ownership_tracked_after_merge(self, cluster):
        cluster.mergeout("e1")
        for sid, container in cluster.catalog.state.containers.items():
            assert sid in cluster.container_owner

    def test_buddy_still_covers_failures_after_merge(self, cluster):
        for name in cluster.nodes:
            cluster.mergeout(name)
        expect = cluster.query("select count(*) from t").rows.to_pylist()
        cluster.kill_node("e2")
        assert cluster.query("select count(*) from t").rows.to_pylist() == expect

    def test_old_files_deleted_from_local_disk(self, cluster):
        node = cluster.nodes["e1"]
        files_before = len(node.local_fs.list())
        cluster.mergeout("e1")
        assert len(node.local_fs.list()) < files_before

    def test_mergeout_on_down_node_rejected(self, cluster):
        cluster.kill_node("e2")
        from repro.errors import NodeDown

        with pytest.raises(NodeDown):
            cluster.mergeout("e2")
