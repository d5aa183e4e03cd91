"""Enterprise add-node: the full-redistribution anti-pattern (section 9)."""

import pytest

from repro import ColumnType, EnterpriseCluster, EonCluster
from repro.errors import ClusterError

COLUMNS = [("k", ColumnType.INT), ("g", ColumnType.VARCHAR)]
ROWS = [(i, f"g{i % 3}") for i in range(900)]


@pytest.fixture
def cluster():
    c = EnterpriseCluster(["a", "b", "c"], seed=3)
    c.create_table("t", COLUMNS)
    c.load("t", ROWS, direct=True)
    return c


class TestEnterpriseAddNode:
    def test_data_preserved(self, cluster):
        before = cluster.query("select count(*), sum(k) from t").rows.to_pylist()
        cluster.add_node("d")
        assert cluster.query("select count(*), sum(k) from t").rows.to_pylist() == before

    def test_new_node_participates(self, cluster):
        cluster.add_node("d")
        result = cluster.query("select g, count(*) from t group by g")
        assert "d" in result.stats.per_node

    def test_rewrites_entire_dataset(self, cluster):
        dataset = sum(
            c_.size_bytes for c_ in cluster.catalog.state.containers.values()
        )
        rewritten = cluster.add_node("d")
        # Base + buddy of every segmented projection: ~the full dataset.
        assert rewritten > dataset * 0.8

    def test_contrast_with_eon(self, cluster):
        ent_bytes = cluster.add_node("d")
        eon = EonCluster(["a", "b", "c"], shard_count=3, seed=3)
        eon.create_table("t", COLUMNS)
        eon.load("t", ROWS)
        puts_before = eon.shared_data.metrics.put_requests
        eon.add_node("d", warm_cache=False)
        # Eon adds the node with zero data rewrites; Enterprise rewrote
        # everything.
        assert eon.shared_data.metrics.put_requests == puts_before
        assert ent_bytes > 0

    def test_buddy_coverage_after_add(self, cluster):
        cluster.add_node("d")
        expect = cluster.query("select count(*) from t").rows.to_pylist()
        cluster.kill_node("b")
        assert cluster.query("select count(*) from t").rows.to_pylist() == expect

    def test_wos_flushed_before_redistribution(self, cluster):
        cluster.load("t", [(10_000, "wos-row")])  # small: buffers in WOS
        cluster.add_node("d")
        out = cluster.query("select count(*) from t where g = 'wos-row'")
        assert out.rows.to_pylist() == [(1,)]

    def test_duplicate_node_rejected(self, cluster):
        with pytest.raises(ClusterError):
            cluster.add_node("a")

    def test_region_map_grows(self, cluster):
        assert cluster.shard_map.count == 3
        cluster.add_node("d")
        assert cluster.shard_map.count == 4
        assert cluster.node_order[-1] == "d"
