"""Participating-subscription selection via max flow (section 4.1, Figure 6).

For each query session, Eon picks one serving node per shard from the
ACTIVE subscribers.  The constraints are encoded as a flow network:

    SOURCE --cap 1--> shard_i --cap 1--> node_j --cap max(S/N,1)--> SINK

where a shard->node edge exists iff node_j subscribes to shard_i.  A max
flow of S (the shard count) yields a complete assignment; the edges
carrying flow are the selected mapping.

Three refinements from the paper:

* **Balance rounds** — if the flow is short of S (asymmetric
  subscriptions), re-run max flow with node->SINK capacities incremented,
  "leaving the existing flow intact", until all shards are assigned with
  minimal skew.
* **Edge-order variation** — max flow is deterministic, so the order
  shard->node edges are created is shuffled per session; different sessions
  then spread load over different subscribers, "increasing query throughput
  because the same nodes are not full serving the same shards for all
  queries".
* **Priority tiers** — node->SINK edges are added tier by tier (e.g. the
  client's subcluster first, or same-rack nodes first); lower tiers join
  only if higher tiers cannot cover every shard.  This is the mechanism
  behind subcluster workload isolation (section 4.3).

A session's layout is a function of the topology and of the shuffle its
seed draws, and a topology has few shuffles (two subscribers on each of four
shards: 16), so solved layouts are kept in a bounded memo keyed by all the
solver reads; a session whose shuffle was solved before costs the draw and
one lookup.
"""

from __future__ import annotations

import random
from collections import OrderedDict
from typing import Dict, Iterable, List, Mapping, Optional, Sequence, Set, Tuple

from repro.errors import ShardCoverageLost
from repro.sharding.maxflow import FlowNetwork

_SOURCE = ("source",)
_SINK = ("sink",)

#: Solved layouts kept, least recently used out first.  One memo per
#: process: a layout is a function of its key alone, the same for every
#: cluster that asks.
_LAYOUTS_KEPT = 256
_layouts: "OrderedDict[tuple, Dict[int, str]]" = OrderedDict()


class AssignmentError(ShardCoverageLost):
    """No complete assignment of shards to nodes exists."""


def _shard_vertex(shard_id: int) -> tuple:
    return ("shard", shard_id)


def _node_vertex(node: str) -> tuple:
    return ("node", node)


def select_participating_subscriptions(
    shard_ids: Sequence[int],
    subscribers: Mapping[int, Iterable[str]],
    priority_tiers: Optional[Sequence[Set[str]]] = None,
    seed: int = 0,
) -> Dict[int, str]:
    """Choose one serving node per shard.

    Parameters
    ----------
    shard_ids:
        The segment shards the query must cover.
    subscribers:
        shard id -> nodes with an ACTIVE subscription to it.
    priority_tiers:
        Optional list of node sets, highest priority first.  Nodes absent
        from every tier form a final implicit tier.  With no tiers, all
        nodes join at once.
    seed:
        Session seed driving the edge-order variation.

    Returns
    -------
    dict mapping each shard id to its selected node (the caller's to keep;
    a layout solved before — same shard ids, subscriber lists, shuffle and
    tiers — is copied out of the memo, not solved again).

    Raises
    ------
    AssignmentError
        if some shard has no subscriber in any tier.
    """
    shard_ids = tuple(shard_ids)
    if not shard_ids:
        return {}
    rng = random.Random(seed)
    given = tuple(tuple(subscribers.get(shard_id, ())) for shard_id in shard_ids)
    # Edge-order variation: shuffle the subscriber order per shard.  A
    # shuffle's draws depend on the list's length alone, so shuffling
    # positions draws the permutation shuffling the names would.
    orders = []
    for nodes in given:
        order = list(range(len(nodes)))
        rng.shuffle(order)
        orders.append(tuple(order))
    key = (
        shard_ids, given, tuple(orders),
        tuple(map(frozenset, priority_tiers)) if priority_tiers else None,
    )
    assignment = _layouts.get(key)
    if assignment is None:
        # Raises AssignmentError before anything is kept.
        assignment = _layouts[key] = _solve(shard_ids, given, orders, priority_tiers)
        if len(_layouts) > _LAYOUTS_KEPT:
            _layouts.popitem(last=False)
    else:
        _layouts.move_to_end(key)
    return dict(assignment)


def _solve(
    shard_ids: Sequence[int],
    given: Sequence[Tuple[str, ...]],
    orders: Sequence[Tuple[int, ...]],
    priority_tiers: Optional[Sequence[Set[str]]],
) -> Dict[int, str]:
    """Max flow over the shards' subscriber lists (``given``), each shard's
    edges added in its shuffled ``orders``; balance rounds and tiers as in
    the module docstring."""
    network = FlowNetwork()
    all_nodes: List[str] = []
    seen_nodes: Set[str] = set()

    for shard_id, nodes, order in zip(shard_ids, given, orders):
        network.add_edge(_SOURCE, _shard_vertex(shard_id), 1)
        for node in map(nodes.__getitem__, order):
            network.add_edge(_shard_vertex(shard_id), _node_vertex(node), 1)
            if node not in seen_nodes:
                seen_nodes.add(node)
                all_nodes.append(node)

    tiers = _normalise_tiers(priority_tiers, all_nodes)
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
            vertex = _node_vertex(node)
            if network.has_edge(vertex, _SINK):
                network.set_capacity(
                    vertex, _SINK, max(network.capacity(vertex, _SINK), base)
                )
            else:
                network.add_edge(vertex, _SINK, base)
        flow = network.max_flow(_SOURCE, _SINK)
        # Balance rounds: grow sink capacities one unit at a time so flow
        # spreads evenly before any node takes a second/third shard.  A node
        # an earlier tier gave more flow keeps capacity for it.
        capacity = base
        while flow < target and capacity < target:
            capacity += 1
            for node in attached:
                vertex = _node_vertex(node)
                network.set_capacity(
                    vertex, _SINK, max(capacity, network.flow(vertex, _SINK))
                )
            flow = network.max_flow(_SOURCE, _SINK)
        if flow == target:
            break

    if flow < target:
        missing = [
            shard_id
            for shard_id in shard_ids
            if network.flow(_SOURCE, _shard_vertex(shard_id)) == 0
        ]
        raise AssignmentError(
            f"no ACTIVE subscriber available for shards {missing}"
        )

    assignment: Dict[int, str] = {}
    for shard_id, nodes in zip(shard_ids, given):
        shard_v = _shard_vertex(shard_id)
        for node in nodes:
            node_v = _node_vertex(node)
            if network.has_edge(shard_v, node_v) and network.flow(shard_v, node_v) > 0:
                assignment[shard_id] = node
                break
    return assignment


def _normalise_tiers(
    priority_tiers: Optional[Sequence[Set[str]]], all_nodes: Sequence[str]
) -> List[Set[str]]:
    if not priority_tiers:
        return [set(all_nodes)]
    tiers = [set(t) for t in priority_tiers]
    covered: Set[str] = set().union(*tiers) if tiers else set()
    leftovers = {n for n in all_nodes if n not in covered}
    if leftovers:
        tiers.append(leftovers)
    return tiers


def naive_first_subscriber_assignment(
    shard_ids: Sequence[int], subscribers: Mapping[int, Iterable[str]]
) -> Dict[int, str]:
    """Baseline for the assignment ablation: first listed subscriber wins.

    This is what a system without the flow formulation would do; it piles
    shards onto early nodes when subscription lists overlap.
    """
    assignment = {}
    for shard_id in shard_ids:
        nodes = list(subscribers.get(shard_id, ()))
        if not nodes:
            raise AssignmentError(f"no subscriber for shard {shard_id}")
        assignment[shard_id] = nodes[0]
    return assignment
