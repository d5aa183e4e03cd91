"""Subscription state machine (Figure 4): its transitions, the one reader of
a subscription map, and the two walks a cluster takes along it."""

import pytest

from repro import EonCluster
from repro.cluster import subscriptions
from repro.errors import CatalogError, ReproError, StorageUnavailable
from repro.sharding.subscription import (
    SubscriptionState,
    holders,
    shards_of,
    uncovered,
    validate_transition,
)

P = SubscriptionState.PENDING
PA = SubscriptionState.PASSIVE
A = SubscriptionState.ACTIVE
R = SubscriptionState.REMOVING


class TestTransitions:
    @pytest.mark.parametrize(
        "current,target",
        [
            (None, P),  # create
            (P, PA),  # metadata transferred
            (PA, A),  # cache warmed (or skipped)
            (A, R),  # start unsubscribe
            (R, None),  # dropped
            (A, P),  # node recovery forces re-subscription
            (R, A),  # removal abandoned
            (P, None),  # failed subscription dropped
            (PA, None),
            (PA, P),
        ],
    )
    def test_legal(self, current, target):
        validate_transition(current, target)  # no raise

    @pytest.mark.parametrize(
        "current,target",
        [
            (None, A),  # cannot jump straight to serving
            (None, PA),
            (None, R),
            (P, A),  # must pass through PASSIVE
            (P, R),
            (A, PA),
            (A, None),  # must go through REMOVING
            (R, P),
            (R, PA),
        ],
    )
    def test_illegal(self, current, target):
        with pytest.raises(CatalogError):
            validate_transition(current, target)


class TestStateSemantics:
    def test_commit_participation(self):
        # PASSIVE "can participate in commits and could be promoted to
        # ACTIVE if all other subscribers fail".
        assert PA.participates_in_commit
        assert A.participates_in_commit
        assert R.participates_in_commit
        assert not P.participates_in_commit


class TestReader:
    SUBS = {
        ("b", 1): "ACTIVE",
        ("a", 1): "PASSIVE",
        ("a", 0): "ACTIVE",
        ("c", 1): "ACTIVE",
        ("c", 2): "REMOVING",
    }

    def test_shards_of_is_in_shard_order(self):
        assert list(shards_of(self.SUBS, "a").items()) == [(0, "ACTIVE"), (1, "PASSIVE")]
        assert shards_of(self.SUBS, "z") == {}

    def test_holders(self):
        assert holders(self.SUBS, 1) == ["a", "b", "c"]
        assert holders(self.SUBS, 1, [A]) == ["b", "c"]
        assert holders(self.SUBS, 1, [PA, R]) == ["a"]
        assert holders(self.SUBS) == ["a", "b", "c"]

    def test_uncovered_counts_only_active_holders_among(self):
        assert uncovered(self.SUBS, [0, 1, 2, 3], {"a", "b", "c"}) == [2, 3]
        assert uncovered(self.SUBS, [0, 1], {"a"}) == [1]
        assert uncovered(self.SUBS, [1, 0], set()) == [1, 0]


# -- the walks ---------------------------------------------------------------------
#
# Node ``a`` holds shards 0 and 1 at bootstrap; shard 2 is ``b``'s and ``c``'s.
# Each case puts (a, 2) in a starting state along legal steps, runs one
# operation, and replays the subscription ops the operation committed for
# (a, 2) through ``validate_transition``.

STARTS = [None, P, PA, A, R]


def cluster_with(start):
    cluster = EonCluster(["a", "b", "c", "d"], shard_count=4, seed=1)
    cluster.execute("create table t (k int, v int)")
    cluster.load("t", [(i, i) for i in range(100)])
    if start in (A, R):
        cluster.subscribe("a", 2)
    elif start is not None:
        subscriptions._commit_sub_state(cluster, "a", 2, P)
    if start is PA:
        subscriptions.transfer_metadata(cluster, cluster.nodes["a"], [2])
        subscriptions._commit_sub_state(cluster, "a", 2, PA)
    if start is R:
        subscriptions._commit_sub_state(cluster, "a", 2, R)
    return cluster


def replay(cluster, since, start):
    """Validate every step committed for (a, 2) after ``since``; the end state."""
    state = start
    for record in cluster.coordinator.log_history:
        for op in record.ops if record.version > since else ():
            if op["op"].endswith("_subscription") and (op["node"], op["shard_id"]) == ("a", 2):
                target = SubscriptionState(op["state"]) if "state" in op else None
                validate_transition(state, target)
                state = target
    return state


def subscribe(cluster):
    cluster.subscribe("a", 2)


def unsubscribe(cluster):
    cluster.unsubscribe("a", 2)


def remove_node(cluster):
    cluster.remove_node("a")


def promote(cluster):
    # With b down shard 2 is one ACTIVE subscriber short: the rebalancer
    # promotes a's subscription, or subscribes a (least loaded) to it.
    cluster.kill_node("b")
    cluster.rebalance_subscriptions()


def recover_node(cluster):
    cluster.kill_node("a")
    cluster.recover_node("a")


#: operation -> the documented end state of (a, 2) per start; CatalogError
#: where Figure 4 has no legal first step.
WALKS = {
    subscribe: {None: A, P: CatalogError, PA: A, A: A, R: CatalogError},
    unsubscribe: {None: CatalogError, P: None, PA: None, A: None, R: None},
    remove_node: {start: None for start in STARTS},
    promote: {start: A for start in STARTS},
    recover_node: {None: None, P: A, PA: A, A: A, R: None},
}


class TestWalks:
    @pytest.mark.parametrize("operation", list(WALKS), ids=lambda f: f.__name__)
    @pytest.mark.parametrize("start", STARTS, ids=str)
    def test_every_start_ends_documented_or_raises_typed(self, operation, start):
        cluster = cluster_with(start)
        since = cluster.version
        expected = WALKS[operation][start]
        if expected is CatalogError:
            with pytest.raises(ReproError):
                operation(cluster)
            expected = start
        else:
            operation(cluster)
        assert replay(cluster, since, start) is expected
        held = shards_of(subscriptions.current(cluster), "a")
        assert (None if 2 not in held else SubscriptionState(held[2])) is expected
        if operation is remove_node:
            assert "a" not in cluster.nodes and held == {}
        assert cluster.query("select count(*) from t").rows.to_pylist() == [(100,)]

    def test_sole_active_subscriber_is_refused_before_any_commit(self):
        cluster = cluster_with(None)
        cluster.unsubscribe("b", 2)
        version = cluster.version
        with pytest.raises(ReproError):
            cluster.unsubscribe("c", 2)
        assert cluster.version == version
        assert holders(subscriptions.current(cluster), 2, [A]) == ["c"]


class TestPassiveAfterFailedWarming:
    """``subscribe`` whose depot warming fails leaves the subscription
    PASSIVE (the sim's ``Subscribe`` accepts that outcome).  Unsubscribing
    it, or removing its node, used to raise a bare ``ValueError`` on the
    illegal PASSIVE -> REMOVING step — ``remove_node`` after it had
    already dropped the node's other subscriptions."""

    @pytest.fixture
    def cluster(self, monkeypatch):
        cluster = EonCluster(["a", "b", "c", "d"], shard_count=4, seed=1)
        cluster.execute("create table t (k int, v int)")
        cluster.load("t", [(i, i) for i in range(100)])

        def unavailable(cluster, node, shard_id):
            raise StorageUnavailable("shared storage is out")

        monkeypatch.setattr(subscriptions, "_warm_cache_from_peer", unavailable)
        with pytest.raises(StorageUnavailable):
            cluster.subscribe("a", 2)
        monkeypatch.undo()
        assert shards_of(subscriptions.current(cluster), "a")[2] == PA.value
        return cluster

    def test_unsubscribe_drops_it(self, cluster):
        cluster.unsubscribe("a", 2)
        assert 2 not in shards_of(subscriptions.current(cluster), "a")
        assert 2 not in cluster.nodes["a"].catalog.subscribed_shards
        assert not [
            c for c in cluster.nodes["a"].catalog.state.containers.values()
            if c.shard_id == 2
        ]
        assert cluster.query("select count(*) from t").rows.to_pylist() == [(100,)]

    def test_remove_node_removes_it_whole(self, cluster):
        cluster.remove_node("a")
        assert "a" not in cluster.nodes
        assert shards_of(subscriptions.current(cluster), "a") == {}
        assert cluster.query("select count(*) from t").rows.to_pylist() == [(100,)]
