"""Rack-aware session layout (section 4.1's priority-tier example)."""

import pytest

from repro import EonCluster


@pytest.fixture
def racked_cluster():
    """6 nodes across 2 racks; every shard has subscribers on both racks."""
    c = EonCluster(
        [f"n{i}" for i in range(6)],
        shard_count=3,
        racks={f"n{i}": ("rack-a" if i < 3 else "rack-b") for i in range(6)},
        seed=19,
    )
    c.execute("create table t (a int, b varchar)")
    c.load("t", [(i, f"g{i % 3}") for i in range(300)])
    return c


class TestRackAwareness:
    def test_session_stays_on_initiator_rack(self, racked_cluster):
        for seed in range(10):
            session = racked_cluster.create_session(initiator="n0", seed=seed)
            with session:
                racks = {
                    racked_cluster.nodes[n].rack
                    for n in session.assignment.values()
                }
            assert racks == {"rack-a"}

    def test_other_rack_initiator_uses_its_rack(self, racked_cluster):
        session = racked_cluster.create_session(initiator="n5", seed=1)
        with session:
            racks = {
                racked_cluster.nodes[n].rack for n in session.assignment.values()
            }
        assert racks == {"rack-b"}

    def test_cross_rack_when_rack_cannot_cover(self, racked_cluster):
        # Kill two rack-a nodes: the remaining one may not cover all
        # shards, so lower tiers (rack-b) join as needed.
        racked_cluster.kill_node("n1")
        racked_cluster.kill_node("n2")
        session = racked_cluster.create_session(initiator="n0", seed=2)
        with session:
            assignment = session.assignment
        assert set(assignment) == {0, 1, 2}  # all shards covered
        # n0 still serves whatever it can.
        assert "n0" in assignment.values()

    def test_rackless_cluster_unaffected(self):
        c = EonCluster(["x", "y"], shard_count=2, seed=3)
        c.execute("create table t (a int)")
        c.load("t", [(1,)])
        assert c.query("select count(*) from t").rows.to_pylist() == [(1,)]

    def test_queries_correct_under_rack_routing(self, racked_cluster):
        result = racked_cluster.query(
            "select b, count(*) n from t group by b order by b",
            initiator="n0",
        )
        assert result.rows.to_pylist() == [("g0", 100), ("g1", 100), ("g2", 100)]
