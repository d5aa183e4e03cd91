"""Failure handling: node down/recovery, quorum, OCC conflicts, invariants."""

import pytest

from repro import ColumnType, EonCluster
from repro.cluster import subscriptions
from repro.catalog.mvcc import op_add_column
from repro.common.types import SchemaColumn
from repro.errors import (
    OCCConflict,
    QuorumLost,
    ShardCoverageLost,
    StorageUnavailable,
    TransactionAborted,
)
from repro.sharding.subscription import SubscriptionState


@pytest.fixture
def cluster():
    c = EonCluster(["n1", "n2", "n3", "n4"], shard_count=4, seed=5)
    c.execute("create table t (a int, b varchar)")
    c.load("t", [(i, f"s{i % 3}") for i in range(600)])
    return c


class TestNodeDown:
    def test_queries_survive_single_failure(self, cluster):
        cluster.kill_node("n2")
        result = cluster.query("select count(*) from t")
        assert result.rows.to_pylist() == [(600,)]

    def test_down_node_not_selected(self, cluster):
        cluster.kill_node("n2")
        for seed in range(10):
            session = cluster.create_session(seed=seed)
            with session:
                assert "n2" not in session.assignment.values()

    def test_peer_cache_already_warm_on_takeover(self, cluster):
        """Peer pushes at load time mean the takeover node serves from
        cache, not S3 (section 5.2)."""
        cluster.query("select count(*) from t")  # warm everyone
        cluster.kill_node("n1")
        result = cluster.query("select count(*) from t")
        assert result.stats.total_bytes_from_shared == 0

    def test_loads_survive_single_failure(self, cluster):
        cluster.kill_node("n3")
        report = cluster.load("t", [(1000 + i, "x") for i in range(50)])
        assert report.rows_loaded == 50
        assert cluster.query("select count(*) from t").rows.to_pylist() == [(650,)]

    def test_quorum_loss_shuts_down(self, cluster):
        cluster.kill_node("n1")
        with pytest.raises(QuorumLost):
            cluster.kill_node("n2")
        assert cluster.shut_down
        with pytest.raises(Exception):
            cluster.query("select count(*) from t")

    def test_shard_coverage_loss_detected(self):
        # k=1: killing any node orphans its shards.
        c = EonCluster(["a", "b", "c"], shard_count=3,
                       subscribers_per_shard=1, seed=2)
        with pytest.raises(ShardCoverageLost):
            c.kill_node("a")
        assert c.shut_down


class TestRecovery:
    def test_recovery_restores_service(self, cluster):
        cluster.kill_node("n2")
        cluster.load("t", [(10_000, "late")])  # committed while down
        cluster.recover_node("n2")
        assert not cluster.shut_down
        result = cluster.query("select count(*) from t")
        assert result.rows.to_pylist() == [(601,)]

    def test_recovered_node_catches_up_metadata(self, cluster):
        before = cluster.nodes["n2"].catalog.state.version
        cluster.kill_node("n2")
        cluster.load("t", [(10_000, "late")])
        cluster.recover_node("n2")
        assert cluster.nodes["n2"].catalog.state.version == cluster.version > before

    def test_resubscription_cycle_runs(self, cluster):
        cluster.kill_node("n2")
        reports = cluster.recover_node("n2")
        state = cluster.any_up_node().catalog.state
        subs = {
            s: st for (n, s), st in state.subscriptions.items() if n == "n2"
        }
        assert all(st == SubscriptionState.ACTIVE.value for st in subs.values())
        assert set(reports) == set(subs)

    def test_recovery_warm_is_incremental(self, cluster):
        cluster.query("select count(*) from t")  # everyone warm
        cluster.kill_node("n2")  # process death, disk survives
        reports = cluster.recover_node("n2")
        # The lukewarm cache already holds the files: nothing transferred.
        transferred = sum(r.copied_from_peer + r.fetched_from_shared for r in reports.values() if r)
        already = sum(r.already_present for r in reports.values() if r)
        assert transferred == 0
        assert already > 0

    def test_instance_loss_rebuilds_from_peer(self, cluster):
        cluster.query("select count(*) from t")
        cluster.kill_node("n2", lose_local_disk=True)
        reports = cluster.recover_node("n2")
        transferred = sum(r.copied_from_peer + r.fetched_from_shared for r in reports.values() if r)
        assert transferred > 0  # cold cache had to be rebuilt
        assert cluster.query("select count(*) from t").rows.to_pylist() == [(600,)]

    def test_first_node_rebuilds_from_a_peer_not_from_itself(self, cluster):
        """After a revive the retained history no longer reaches a
        disk-less node's version 0, so recovery takes the full-rebuild
        path — and by then the recovering node is itself up, first in
        ``cluster.nodes``, with an empty catalog to copy."""
        from repro.cluster.revive import revive

        cluster.graceful_shutdown()
        revived = revive(cluster.shared, clock=cluster.clock, seed=7)
        revived.kill_node("n1", lose_local_disk=True)
        revived.load("t", [(i, "late") for i in range(600, 650)])
        revived.recover_node("n1")
        n1 = revived.nodes["n1"]
        assert n1.catalog.state.version == revived.version
        mine = {
            shard: state
            for (node, shard), state in n1.catalog.state.subscriptions.items()
            if node == "n1"
        }
        assert mine and set(mine.values()) == {SubscriptionState.ACTIVE.value}
        assert not revived.uncovered_shards()
        answer = revived.query("select count(*) from t", initiator="n1")
        assert answer.rows.to_pylist() == [(650,)]

    def test_a_passive_shard_takes_its_metadata_on_recovery(self, monkeypatch):
        """A subscribe whose warming fails leaves the node PASSIVE with its
        metadata transfer in memory only: the newest checkpoint predates
        it.  Recovery replays that checkpoint and runs PASSIVE -> PENDING ->
        PASSIVE -> ACTIVE; its PENDING step must transfer the shard's
        metadata again, or the node serves the shard holding none of it."""
        cluster = EonCluster(["a", "b", "c", "d"], shard_count=4, seed=1)
        cluster.execute("create table t (k int, v int)")
        cluster.load("t", [(i, i) for i in range(400)])
        for i in range(140):
            cluster.create_user(f"u{i}")
        a = cluster.nodes["a"]
        assert a.catalog.log_store.listing().checkpoints == [64, 128]
        assert 2 not in a.catalog.subscribed_shards

        def unavailable(cluster, node, shard_id):
            raise StorageUnavailable("shared storage is out")

        monkeypatch.setattr(subscriptions, "_warm_cache_from_peer", unavailable)
        with pytest.raises(StorageUnavailable):
            cluster.subscribe("a", 2)
        monkeypatch.undo()
        state = cluster.nodes["b"].catalog.state
        assert state.subscriptions[("a", 2)] == SubscriptionState.PASSIVE.value
        cluster.kill_node("a")
        cluster.recover_node("a")
        def shard_2(node):
            return [c.location for c in node.catalog.state.containers.values() if c.shard_id == 2]

        assert shard_2(a) and shard_2(a) == shard_2(cluster.nodes["b"])
        answers = {
            cluster.query("select count(*) from t", seed=seed).rows.to_pylist()[0]
            for seed in range(16)
        }
        assert answers == {(400,)}

    def test_recovered_node_serves_queries_again(self, cluster):
        cluster.kill_node("n2")
        cluster.recover_node("n2")
        seen = set()
        for seed in range(30):
            session = cluster.create_session(seed=seed)
            with session:
                seen |= set(session.assignment.values())
        assert "n2" in seen

    def test_recover_up_node_rejected(self, cluster):
        with pytest.raises(Exception):
            cluster.recover_node("n1")


class TestOCC:
    def test_concurrent_add_column_conflicts(self, cluster):
        txn1 = cluster.begin()
        txn2 = cluster.begin()
        # Both transactions prepare metadata offline against the same
        # table version (section 6.3).
        coordinator = cluster.any_up_node().catalog
        op1 = op_add_column("t", SchemaColumn("c1", ColumnType.INT))
        op2 = op_add_column("t", SchemaColumn("c2", ColumnType.INT))
        txn1.write_set.record_ops([op1], coordinator.versions)
        txn2.write_set.record_ops([op2], coordinator.versions)
        txn1.add_op(op1)
        txn2.add_op(op2)
        cluster.commit(txn1)
        with pytest.raises(OCCConflict):
            cluster.commit(txn2)
        assert cluster.coordinator.aborted_commits == 1

    def test_unrelated_tables_do_not_conflict(self, cluster):
        cluster.execute("create table other (x int)")
        coordinator = cluster.any_up_node().catalog
        txn1 = cluster.begin()
        txn2 = cluster.begin()
        op1 = op_add_column("t", SchemaColumn("c1", ColumnType.INT))
        op2 = op_add_column("other", SchemaColumn("c2", ColumnType.INT))
        txn1.write_set.record_ops([op1], coordinator.versions)
        txn2.write_set.record_ops([op2], coordinator.versions)
        txn1.add_op(op1)
        txn2.add_op(op2)
        cluster.commit(txn1)
        cluster.commit(txn2)  # no conflict


class TestCommitInvariants:
    def test_writer_losing_subscription_aborts(self, cluster):
        txn = cluster.begin()
        txn.expect_subscription(0, "n_not_subscribed")
        txn.add_op({"op": "set_property", "key": "k", "value": 1})
        with pytest.raises(TransactionAborted):
            cluster.commit(txn)

    def test_shard_with_no_up_subscriber_aborts(self, cluster):
        from repro.catalog.mvcc import op_set_property

        # Make shard 0's subscribers all down *after* building the txn.
        subscribers = cluster.active_up_subscribers(0)
        txn = cluster.begin()
        txn.add_op({"op": "set_property", "key": "x", "value": 1, "shard": 0})
        for name in subscribers:
            cluster.nodes[name].state = cluster.nodes[name].state.__class__("DOWN")
        with pytest.raises(TransactionAborted):
            cluster.commit(txn)
