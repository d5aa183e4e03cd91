"""Node lifecycle (sections 3.5, 4.3, 6.1, 6.4): one catch-up rule for every
way a node comes back in, subclusters that refuse without leaving state
behind, and typed refusals for names and shard ids that do not exist."""

import json

import pytest

from repro import EnterpriseCluster, EonCluster, SimClock
from repro.catalog.transaction_log import Checkpoint, LogRecord
from repro.cluster import lifecycle
from repro.cluster.revive import form_cluster, revive
from repro.errors import CatalogError, ClusterError
from repro.sharding.subscription import SubscriptionState, holders


def build():
    """Three nodes over three shards at k=2: no node holds every shard, so a
    rebuild needs more than one peer."""
    cluster = EonCluster(["n1", "n2", "n3"], shard_count=3, seed=5, clock=SimClock())
    cluster.execute("create table t (a int, b varchar)")
    load(cluster, 0)
    return cluster


def load(cluster, batch):
    cluster.load("t", [(batch * 100 + i, f"g{i % 3}") for i in range(100)])


def revived():
    cluster = build()
    load(cluster, 1)
    cluster.sync_catalogs()
    cluster.write_cluster_info(lease_seconds=0)
    cluster = revive(cluster.shared, clock=SimClock(), force=True)
    load(cluster, 2)
    return cluster


def diverged(in_history):
    """A commit that reached n1 and n2 but not n3 (a mid-commit crash); with
    ``in_history`` the coordinator logged it before the crash."""
    cluster = build()
    record = LogRecord(
        version=cluster.version + 1, ops=({"op": "set_property", "key": "orphan", "value": 1},)
    )
    if in_history:
        cluster.coordinator.log_history.append(record)
    for name in ("n1", "n2"):
        cluster.nodes[name].catalog.apply_commit(record)
    return cluster


def process_death():
    cluster = build()
    cluster.kill_node("n3")
    load(cluster, 1)
    cluster.recover_node("n3")
    return cluster, "n3"


def lost_disk():
    cluster = build()
    cluster.kill_node("n3", lose_local_disk=True)
    load(cluster, 1)
    cluster.recover_node("n3")
    return cluster, "n3"


def gap_after_revive():
    cluster = revived()
    cluster.kill_node("n3", lose_local_disk=True)
    load(cluster, 3)
    cluster.recover_node("n3")
    return cluster, "n3"


def added_before_revive():
    cluster = build()
    cluster.add_node("n4")
    return cluster, "n4"


def added_after_revive():
    cluster = revived()
    cluster.add_node("n4")
    return cluster, "n4"


def behind_at_formation_in_history():
    cluster = diverged(in_history=True)
    form_cluster(cluster)
    return cluster, "n3"


def behind_at_formation_past_history():
    cluster = diverged(in_history=False)
    form_cluster(cluster)
    return cluster, "n3"


def payload(state, shards):
    """A catalog state's checkpoint payload, held to ``shards``, with each
    object list in a fixed order (replay and rebuild add in different
    orders)."""
    doc = json.loads(Checkpoint.of_state(state.holding(shards, {})).payload)
    return {k: sorted(map(json.dumps, v)) if isinstance(v, list) else v for k, v in doc.items()}


class TestCatchUp:
    @pytest.mark.parametrize("scenario, branch", [
        (process_death, "replay"),
        (lost_disk, "replay"),
        (gap_after_revive, "rebuild"),
        (added_before_revive, "replay"),
        (added_after_revive, "rebuild"),
        (behind_at_formation_in_history, "replay"),
        (behind_at_formation_past_history, "rebuild"),
    ])
    def test_the_branch_and_what_the_node_then_holds(self, monkeypatch, scenario, branch):
        taken = []
        catch_up = lifecycle.catch_up

        def recording(cluster, node, persist=True):
            taken.append((node.name, catch_up(cluster, node, persist)))
            return taken[-1][1]

        monkeypatch.setattr(lifecycle, "catch_up", recording)
        cluster, name = scenario()
        assert (name, branch) in taken
        node = cluster.nodes[name]
        state = node.catalog.state
        peer = next(n for n in cluster.up_nodes() if n is not node).catalog.state
        assert state.version == peer.version == cluster.version
        assert payload(state, set()) == payload(peer, set())  # the global objects
        for shard in sorted(node.catalog.subscribed_shards):
            active = holders(state.subscriptions, shard, [SubscriptionState.ACTIVE])
            holder = next(n for n in active if n != name and cluster.nodes[n].is_up)
            holding = cluster.nodes[holder].catalog.state
            assert payload(state, {shard}) == payload(holding, {shard}), shard

    def test_a_fresh_cluster_at_version_zero_is_a_no_op(self):
        cluster = EonCluster(["a"], shard_count=1, _bootstrap=False)
        node = cluster._new_node("b", 1 << 20, 1)
        assert lifecycle.catch_up(cluster, node) == "replay"
        assert node.catalog.state.version == 0

    def test_formation_past_the_history_leaves_a_working_cluster(self):
        """The agreed version was never logged by the coordinator: the
        history now ends there, so the next commit follows every node's
        catalog instead of repeating the agreed version."""
        cluster = diverged(in_history=False)
        best = form_cluster(cluster)
        assert cluster.version == best
        load(cluster, 1)
        assert cluster.query("select count(*) from t").rows.to_pylist() == [(200,)]


class TestDefineSubcluster:
    def layout(self, cluster):
        state = cluster.any_up_node().catalog.state
        return (
            dict(state.subscriptions), {k: set(v) for k, v in cluster.subclusters.items()},
            {n: node.subcluster for n, node in cluster.nodes.items()},
        )

    def test_an_empty_subcluster_is_refused_with_nothing_recorded(self):
        cluster = EonCluster(["a", "b", "c", "d"], shard_count=4, seed=1)
        before = self.layout(cluster)
        with pytest.raises(ClusterError, match="no up member"):
            cluster.define_subcluster("s", [])
        assert self.layout(cluster) == before

    def test_a_subcluster_of_down_nodes_is_refused_with_nothing_recorded(self):
        cluster = EonCluster(["a", "b", "c", "d"], shard_count=2, seed=1)
        cluster.kill_node("d")
        before = self.layout(cluster)
        with pytest.raises(ClusterError, match="no up member"):
            cluster.define_subcluster("t", ["d"])
        assert self.layout(cluster) == before

    def test_a_down_member_is_passed_over(self):
        """``a`` is down, and ties with ``b`` for the fewest subscriptions
        but sorts first: the shards the subcluster lacks go to ``b``."""
        cluster = EonCluster(["a", "b", "c", "d", "e"], shard_count=5, seed=1)
        cluster.kill_node("a")
        cluster.define_subcluster("s", ["a", "b"])
        assert cluster.subclusters["s"] == {"a", "b"}
        assert cluster.uncovered_shards() == []
        with cluster.create_session(subcluster="s") as session:
            assert set(session.assignment.values()) == {"b"}


def eon():
    return EonCluster(["a", "b", "c", "d"], shard_count=4, seed=1)


@pytest.mark.parametrize("make, call, error", [
    (eon, lambda c: c.kill_node("zz"), ClusterError),
    (eon, lambda c: c.recover_node("zz"), ClusterError),
    (eon, lambda c: c.remove_node("zz"), ClusterError),
    (lambda: EnterpriseCluster(["a", "b", "c"]), lambda c: c.kill_node("zz"), ClusterError),
    (lambda: EnterpriseCluster(["a", "b", "c"]), lambda c: c.recover_node("zz"), ClusterError),
    (eon, lambda c: c.subscribe("a", 42), CatalogError),
    (eon, lambda c: c.add_node("e", shards=[99]), CatalogError),
], ids=[
    "eon-kill", "eon-recover", "eon-remove", "enterprise-kill", "enterprise-recover",
    "subscribe-shard-42", "add-node-shard-99",
])
def test_outside_input_is_refused_typed_and_changes_nothing(make, call, error):
    cluster = make()

    def seen():
        subs = getattr(cluster.up_nodes()[0].catalog.state, "subscriptions", None)
        return sorted(cluster.nodes), [n.state for n in cluster.nodes.values()], dict(subs or {})

    before = seen()
    with pytest.raises(error):
        call(cluster)
    assert seen() == before
