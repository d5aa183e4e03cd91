"""Node lifecycle on an Eon cluster (sections 3.5, 4.3, 6.1 and 6.4).

A node dies with or without its disk, comes back, joins or leaves, and
nodes are grouped into subclusters.  Every way back in (recovery, a new
node, a node behind at cluster formation) brings the node's catalog up to
the cluster's version by one rule, :func:`catch_up`: replay the commits
the node missed when the history still holds them all, else rebuild the
catalog from a peer.  The functions hold an ``EonCluster`` by reference,
as ``query_path`` does, and ``EonCluster`` binds the public ones under the
same names.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Sequence

from repro.cache.warming import WarmingReport
from repro.cluster import subscriptions
from repro.cluster.node import Node, member
from repro.errors import ClusterError, QuorumLost
from repro.sharding.shard import REPLICA_SHARD_ID
from repro.sharding.subscription import shards_of, uncovered


def catch_up(cluster, node: Node, persist: bool = True) -> str:
    """Bring ``node``'s catalog to the cluster's version (sections 3.5,
    6.1, 6.4); returns the branch taken.  ``"replay"`` applies the commits
    after the node's version when they start right after it, or when there
    are none and the node is already current.  Otherwise the history no
    longer reaches back that far (a revive, a formation, a brand-new node
    after either) and the node takes ``"rebuild"``: its catalog from a peer."""
    version = node.catalog.state.version
    missed = cluster.coordinator.records_after(version)
    reaches = missed[0].version == version + 1 if missed else version == cluster.version
    if reaches:
        for record in missed:
            node.catalog.apply_commit(record, persist=persist)
        return "replay"
    _rebuild_from_peer(cluster, node)
    return "rebuild"


def _rebuild_from_peer(cluster, node: Node) -> None:
    """Rebuild a node's whole catalog from peers: global objects from any
    up peer, then each subscribed shard's storage metadata from that
    shard's subscribers."""
    # A recovering node is already UP, so "any up node" could be the very
    # node whose catalog is behind.
    peer = next((n for n in cluster.up_nodes() if n is not node), None)
    if peer is None:
        raise QuorumLost(f"no up peer to rebuild {node.name}'s catalog from")
    node.catalog.reshard(base=peer.catalog)
    # Each shard's source is read from the subscriptions just taken over.
    subscriptions.transfer_metadata(cluster, node, node.catalog.subscribed_shards)
    node.catalog.write_checkpoint()


# -- failure & recovery (section 6.1) -------------------------------------------


def kill_node(cluster, name: str, lose_local_disk: bool = False) -> None:
    member(cluster.nodes, name).go_down(lose_local_disk=lose_local_disk)
    cluster.check_viability()


def recover_node(cluster, name: str, warm_cache: bool = True) -> Dict[int, Optional[WarmingReport]]:
    """Node recovery (section 6.1): restart, catch up metadata, force
    re-subscription, incremental cache warm, serve again."""
    node = member(cluster.nodes, name)
    if node.is_up:
        raise ClusterError(f"node {name} is already up")
    node.restart()
    catch_up(cluster, node)
    return subscriptions.resubscribe(cluster, name, warm_cache)


# -- elasticity (section 6.4) ---------------------------------------------------


def add_node(
    cluster,
    name: str,
    shards: Optional[Sequence[int]] = None,
    warm_cache: bool = True,
    cache_bytes: Optional[int] = None,
    subcluster: Optional[str] = None,
) -> Node:
    """Add a node and subscribe it to ``shards`` (default: balanced).

    "Nodes can easily be added to the system by adjusting the mapping
    ... no expensive redistribution mechanism over all records is
    required" (section 6.4)."""
    if name in cluster.nodes:
        raise ClusterError(f"node {name} already exists")
    if shards is not None:
        subscriptions.check_shards(cluster, shards)
    first = next(iter(cluster.nodes.values()))
    node = cluster._new_node(
        name, cache_bytes or first.cache_bytes, first.execution_slots, subcluster=subcluster
    )
    # The new node subscribes to nothing yet, so shard-scoped metadata is
    # filtered out of its catch-up.
    node.catalog.subscribed_shards = set()
    catch_up(cluster, node, persist=False)
    cluster.nodes[name] = node
    if subcluster:
        cluster.subclusters.setdefault(subcluster, set()).add(name)
    if shards is None:
        shards = _balanced_shards(cluster)
    for shard_id in shards:
        cluster.subscribe(name, shard_id, warm_cache=warm_cache)
    cluster.subscribe(name, REPLICA_SHARD_ID, warm_cache=False)
    return node


def _balanced_shards(cluster) -> List[int]:
    """Give a new node the shards with the fewest subscribers."""
    counts = {
        shard: len(cluster.active_up_subscribers(shard))
        for shard in cluster.shard_map.shard_ids()
    }
    target = max(1, cluster.shard_map.count * cluster.subscribers_per_shard // len(cluster.nodes))
    return sorted(counts, key=lambda s: (counts[s], s))[:target]


def remove_node(cluster, name: str) -> None:
    """Gracefully remove a node: retire every subscription it holds,
    whatever its state, then drop it."""
    member(cluster.nodes, name)
    for shard_id in shards_of(subscriptions.current(cluster), name):
        cluster.unsubscribe(name, shard_id)
    cluster.nodes.pop(name)
    for members in cluster.subclusters.values():
        members.discard(name)


# -- subclusters (section 4.3) --------------------------------------------------


def define_subcluster(cluster, name: str, node_names: Sequence[str]) -> None:
    """Designate a subcluster and subscribe its up members so every shard
    has a subscriber inside it (section 4.3): each shard it lacks goes to
    the least-loaded up member, ties broken by name.  Refused, with
    nothing changed, when a member is unknown or a shard it lacks has no
    up member to take it."""
    members = set(node_names)
    unknown = members - set(cluster.nodes)
    if unknown:
        raise ClusterError(f"unknown nodes {sorted(unknown)}")
    up_members = {m for m in members if cluster.nodes[m].is_up}
    lacking = uncovered(subscriptions.current(cluster), cluster.shard_map.shard_ids(), up_members)
    if lacking and not up_members:
        raise ClusterError(
            f"subcluster {name!r} has no up member to subscribe to shard {lacking[0]}"
        )
    cluster.subclusters[name] = members
    for node_name in members:
        cluster.nodes[node_name].subcluster = name
    for shard_id in lacking:
        subs = subscriptions.current(cluster)
        chosen = min(up_members, key=lambda m: (len(shards_of(subs, m)), m))
        cluster.subscribe(chosen, shard_id)
