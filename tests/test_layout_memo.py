"""The session-layout memo is the solver.

``reference_select`` is ``select_participating_subscriptions`` as it was
before solved layouts were kept — a fresh max flow per call — kept here as
the oracle, the way ``tests/test_join_kernel.py`` keeps the old join.  The
property asserts the same assignment, or the same ``AssignmentError``, on a
miss and on a hit, over 1–6 nodes, 1–8 shards, 1–3 subscribers per shard
(sometimes one more shard nobody serves), optional priority tiers and any
seed.  Each example asks four times: its layout (a miss), another seed's
(one the memo must not answer from the first), its layout again (a hit), and
the same topology under other node names with the first seed (the same
shuffle of other lists).  A memo keyed without the shuffles fails the second
question; one keyed without the subscriber lists fails the fourth.
"""

import random
from typing import Dict, List

import pytest
from hypothesis import given, settings, strategies as st

from repro.sharding import assignment
from repro.sharding.assignment import AssignmentError, select_participating_subscriptions
from repro.sharding.maxflow import FlowNetwork

# ---------------------------------------------------------------------------
# the oracle: one max flow per call


def reference_select(shard_ids, subscribers, priority_tiers=None, seed=0) -> Dict[int, str]:
    shard_ids = list(shard_ids)
    if not shard_ids:
        return {}
    rng = random.Random(seed)
    network = FlowNetwork()
    all_nodes: List[str] = []
    seen_nodes = set()
    for shard_id in shard_ids:
        network.add_edge("source", ("shard", shard_id), 1)
        nodes = list(subscribers.get(shard_id, ()))
        rng.shuffle(nodes)
        for node in nodes:
            network.add_edge(("shard", shard_id), ("node", node), 1)
            if node not in seen_nodes:
                seen_nodes.add(node)
                all_nodes.append(node)
    if not priority_tiers:
        tiers = [set(all_nodes)]
    else:
        tiers = [set(t) for t in priority_tiers]
        covered = set().union(*tiers)
        leftovers = {n for n in all_nodes if n not in covered}
        if leftovers:
            tiers.append(leftovers)
    target = len(shard_ids)
    attached: List[str] = []
    flow = 0
    for tier in tiers:
        tier_nodes = [n for n in all_nodes if n in tier and n not in attached]
        if not tier_nodes and attached:
            continue
        attached.extend(tier_nodes)
        if not attached:
            continue
        base = max(target // len(attached), 1)
        for node in attached:
            vertex = ("node", node)
            if network.has_edge(vertex, "sink"):
                network.set_capacity(vertex, "sink", max(network.capacity(vertex, "sink"), base))
            else:
                network.add_edge(vertex, "sink", base)
        flow = network.max_flow("source", "sink")
        capacity = base
        while flow < target and capacity < target:
            capacity += 1
            for node in attached:
                vertex = ("node", node)
                network.set_capacity(vertex, "sink", max(capacity, network.flow(vertex, "sink")))
            flow = network.max_flow("source", "sink")
        if flow == target:
            break
    if flow < target:
        missing = [s for s in shard_ids if network.flow("source", ("shard", s)) == 0]
        raise AssignmentError(f"no ACTIVE subscriber available for shards {missing}")
    chosen = {}
    for shard_id in shard_ids:
        for node in subscribers.get(shard_id, ()):
            shard_v, node_v = ("shard", shard_id), ("node", node)
            if network.has_edge(shard_v, node_v) and network.flow(shard_v, node_v) > 0:
                chosen[shard_id] = node
                break
    return chosen


def outcome(select, topology, seed):
    """The assignment, or the ``AssignmentError`` raised (any other error
    fails the property)."""
    shard_ids, subscribers, tiers = topology
    try:
        return select(shard_ids, subscribers, tiers, seed=seed)
    except AssignmentError as exc:
        return (type(exc).__name__, str(exc))


# ---------------------------------------------------------------------------
# generated topologies


@st.composite
def topologies(draw):
    nodes = [f"n{i}" for i in range(draw(st.integers(1, 6)))]
    shards = draw(st.integers(1, 8))
    subscribers = {
        shard: draw(st.lists(st.sampled_from(nodes), min_size=1,
                             max_size=min(3, len(nodes)), unique=True))
        for shard in range(shards)
    }
    shard_ids = list(range(shards))
    # Sometimes a shard nobody can serve: absent from the map, or listed
    # with no subscriber.
    orphan = draw(st.sampled_from([None, None, None, "absent", "empty"]))
    if orphan is not None:
        shard_ids.append(shards)
        if orphan == "empty":
            subscribers[shards] = []
    tiers = draw(st.none() | st.lists(
        st.sets(st.sampled_from(nodes), min_size=1), min_size=1, max_size=2))
    return shard_ids, subscribers, tiers


def renamed(topology):
    """The same topology under other node names."""
    shard_ids, subscribers, tiers = topology
    name = {f"n{i}": f"m{5 - i}" for i in range(6)}.__getitem__
    return (
        shard_ids,
        {shard: [name(n) for n in nodes] for shard, nodes in subscribers.items()},
        None if tiers is None else [set(map(name, tier)) for tier in tiers],
    )


@pytest.fixture
def solves(monkeypatch) -> list:
    """One entry per max flow the module builds."""
    built = []

    class Counting(FlowNetwork):
        def __init__(self):
            built.append(1)
            super().__init__()

    monkeypatch.setattr(assignment, "FlowNetwork", Counting)
    assignment._layouts.clear()
    return built


class TestTheMemoIsTheSolver:
    @given(topologies(), st.integers(0, 2**32 - 1), st.integers(0, 2**32 - 1))
    @settings(max_examples=300, deadline=None)
    def test_a_miss_and_a_hit_answer_as_the_solver(self, topology, seed, other):
        assignment._layouts.clear()
        for asked, asked_seed in [(topology, seed), (topology, other),
                                  (topology, seed), (renamed(topology), seed)]:
            got = outcome(select_participating_subscriptions, asked, asked_seed)
            assert got == outcome(reference_select, asked, asked_seed)

    def test_a_repeated_layout_solves_nothing(self, solves):
        subs = {s: [f"n{s}", f"n{(s + 1) % 4}"] for s in range(4)}
        first = select_participating_subscriptions(range(4), subs, seed=7)
        assert select_participating_subscriptions(range(4), subs, seed=7) == first
        assert len(solves) == 1
        # Two subscribers on each of four shards: 16 shuffles, so 16 solves
        # at most, whatever the number of sessions.
        for seed in range(200):
            assert (select_participating_subscriptions(range(4), subs, seed=seed)
                    == reference_select(range(4), subs, seed=seed))
        assert len(solves) <= 16

    def test_the_caller_owns_what_it_gets(self, solves):
        subs = {0: ["a", "b"], 1: ["b"]}
        got = select_participating_subscriptions([0, 1], subs, seed=3)
        want = dict(got)
        got[0] = "elsewhere"
        assert select_participating_subscriptions([0, 1], subs, seed=3) == want
        assert len(solves) == 1

    def test_an_assignment_error_is_never_kept(self, solves):
        subs = {0: ["a"], 1: []}
        for _ in range(2):
            with pytest.raises(AssignmentError, match=r"\[1\]"):
                select_participating_subscriptions([0, 1], subs, seed=1)
        assert len(solves) == 2 and not assignment._layouts

    def test_the_least_recently_used_layout_goes_first(self, solves, monkeypatch):
        monkeypatch.setattr(assignment, "_LAYOUTS_KEPT", 2)
        layouts = [({0: [name]}, [0]) for name in "abc"]
        for subs, ids in layouts[:2]:
            select_participating_subscriptions(ids, subs)
        select_participating_subscriptions(layouts[0][1], layouts[0][0])  # a hit: ``a`` is fresh
        select_participating_subscriptions(layouts[2][1], layouts[2][0])  # ``b`` goes
        assert len(solves) == 3 and len(assignment._layouts) == 2
        select_participating_subscriptions(layouts[0][1], layouts[0][0])
        assert len(solves) == 3
        select_participating_subscriptions(layouts[1][1], layouts[1][0])
        assert len(solves) == 4
