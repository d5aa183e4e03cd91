"""Participating-subscription selection: balance, variation, priorities."""

import pytest
from hypothesis import given, settings, strategies as st

from repro.sharding.assignment import (
    AssignmentError,
    naive_first_subscriber_assignment,
    select_participating_subscriptions,
)


def assignment_skew(assignment) -> int:
    """Max minus min shards-per-node over nodes used; 0 is perfectly even."""
    if not assignment:
        return 0
    counts = {}
    for node in assignment.values():
        counts[node] = counts.get(node, 0) + 1
    return max(counts.values()) - min(counts.values())


def ring_subscribers(shards, nodes, k=2):
    names = [f"n{i}" for i in range(nodes)]
    subs = {s: [] for s in range(shards)}
    for i in range(max(nodes, shards)):
        for j in range(k):
            node = names[i % nodes]
            shard = (i + j) % shards
            if node not in subs[shard]:
                subs[shard].append(node)
    return subs


class TestBasicSelection:
    def test_complete_assignment(self):
        subs = ring_subscribers(4, 4)
        assignment = select_participating_subscriptions(range(4), subs, seed=1)
        assert set(assignment) == {0, 1, 2, 3}
        for shard, node in assignment.items():
            assert node in subs[shard]

    def test_balanced_when_possible(self):
        subs = ring_subscribers(4, 4)
        assignment = select_participating_subscriptions(range(4), subs, seed=3)
        assert assignment_skew(assignment) == 0

    def test_empty_shards(self):
        assert select_participating_subscriptions([], {}, seed=0) == {}

    def test_missing_coverage_raises_with_shard_ids(self):
        subs = {0: [], 1: ["n1"]}
        with pytest.raises(AssignmentError) as err:
            select_participating_subscriptions([0, 1], subs)
        assert "[0]" in str(err.value)

    def test_single_node_serves_everything(self):
        subs = {s: ["only"] for s in range(5)}
        assignment = select_participating_subscriptions(range(5), subs)
        assert set(assignment.values()) == {"only"}


class TestBalanceRounds:
    def test_asymmetric_subscriptions_balanced(self):
        # One node subscribes to everything; flow must still spread.
        subs = {0: ["hub"], 1: ["hub", "a"], 2: ["hub", "b"], 3: ["hub", "c"]}
        assignment = select_participating_subscriptions(range(4), subs, seed=1)
        assert set(assignment) == {0, 1, 2, 3}
        assert assignment_skew(assignment) == 0
        assert assignment[0] == "hub"  # forced
        assert set(assignment.values()) == {"hub", "a", "b", "c"}

    def test_more_shards_than_nodes(self):
        subs = {s: ["n0", "n1"] for s in range(6)}
        assignment = select_participating_subscriptions(range(6), subs, seed=1)
        assert set(assignment) == set(range(6))
        assert assignment_skew(assignment) == 0  # 3 shards each

    def test_beats_naive_on_max_load(self):
        subs = {s: ["n0", f"n{s % 3 + 1}"] for s in range(6)}
        flow = select_participating_subscriptions(range(6), subs, seed=2)
        naive = naive_first_subscriber_assignment(range(6), subs)

        def max_load(assignment):
            counts = {}
            for node in assignment.values():
                counts[node] = counts.get(node, 0) + 1
            return max(counts.values())

        # Naive piles all 6 shards onto n0; flow spreads them.
        assert max_load(naive) == 6
        assert max_load(flow) <= 2


class TestEdgeOrderVariation:
    def test_different_seeds_give_different_mappings(self):
        subs = ring_subscribers(4, 8)
        mappings = {
            tuple(sorted(select_participating_subscriptions(range(4), subs, seed=s).items()))
            for s in range(30)
        }
        assert len(mappings) >= 4

    def test_same_seed_deterministic(self):
        subs = ring_subscribers(4, 8)
        a = select_participating_subscriptions(range(4), subs, seed=7)
        b = select_participating_subscriptions(range(4), subs, seed=7)
        assert a == b

    def test_load_spreads_over_all_subscribers(self):
        subs = ring_subscribers(3, 6)
        used = set()
        for seed in range(60):
            used |= set(
                select_participating_subscriptions(range(3), subs, seed=seed).values()
            )
        assert used == {f"n{i}" for i in range(6)}


class TestPriorityTiers:
    def test_priority_nodes_win_when_sufficient(self):
        subs = {s: ["a", "b", "c", "d"] for s in range(4)}
        assignment = select_participating_subscriptions(
            range(4), subs, priority_tiers=[{"a", "b"}], seed=1
        )
        assert set(assignment.values()) <= {"a", "b"}

    def test_lower_tier_joins_when_needed(self):
        # Priority node covers only shard 0; others must come from tier 2.
        subs = {0: ["prio", "x"], 1: ["x"], 2: ["y"]}
        assignment = select_participating_subscriptions(
            range(3), subs, priority_tiers=[{"prio"}], seed=1
        )
        assert assignment[0] == "prio"
        assert assignment[1] == "x" and assignment[2] == "y"

    def test_multiple_tiers_in_order(self):
        subs = {s: ["t1", "t2", "t3"] for s in range(2)}
        assignment = select_participating_subscriptions(
            range(2), subs, priority_tiers=[{"t1"}, {"t2"}], seed=1
        )
        # t1 alone can serve both shards (balance rounds raise capacity).
        assert set(assignment.values()) == {"t1"}

    # n0 alone serves shards 0-3, so the first tier gives it a flow of 4; the
    # second tier's balance rounds start at capacity 3 and must not set n0's
    # sink capacity below that flow (they raised ``ValueError`` before).
    @pytest.mark.parametrize("seed", range(8))
    def test_a_later_tier_keeps_the_flow_an_earlier_tier_gave(self, seed):
        subs = {0: ["n0"], 1: ["n0"], 2: ["n0"], 3: ["n0", "n1"], 4: []}
        with pytest.raises(AssignmentError, match=r"\[4\]"):
            select_participating_subscriptions(
                range(5), subs, priority_tiers=[{"n0"}], seed=seed
            )
        subs = {0: ["n0"], 1: ["n0"], 2: ["n0"], 3: ["n0", "n2"],
                4: ["n1"], 5: ["n1"], 6: ["n1"]}
        assignment = select_participating_subscriptions(
            range(7), subs, priority_tiers=[{"n0"}], seed=seed
        )
        assert assignment == {0: "n0", 1: "n0", 2: "n0", 3: "n0", 4: "n1", 5: "n1", 6: "n1"}


class TestPropertyBased:
    @given(
        st.integers(min_value=1, max_value=8),
        st.integers(min_value=1, max_value=8),
        st.integers(min_value=1, max_value=3),
        st.integers(min_value=0, max_value=1000),
    )
    @settings(max_examples=60, deadline=None)
    def test_always_valid_and_complete(self, shards, nodes, k, seed):
        subs = ring_subscribers(shards, nodes, min(k, nodes))
        assignment = select_participating_subscriptions(range(shards), subs, seed=seed)
        assert set(assignment) == set(range(shards))
        for shard, node in assignment.items():
            assert node in subs[shard]

    @given(st.integers(min_value=0, max_value=500))
    @settings(max_examples=30)
    def test_skew_bounded_by_one_on_ring(self, seed):
        subs = ring_subscribers(4, 3)
        assignment = select_participating_subscriptions(range(4), subs, seed=seed)
        # 4 shards over 3 nodes: best possible skew is 1.
        assert assignment_skew(assignment) <= 1
