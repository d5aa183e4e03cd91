"""Catalog durability on shared storage (sections 3.4, 3.5 and 6.3).

Each node uploads its transaction log, as one segment per sync, and its
checkpoints to its own metadata area, and prunes what a revive to the
advertised truncation version no longer needs.  The consensus truncation
version is the highest version every shard can be revived to from some
subscriber's uploads; ``cluster_info`` records it with the incarnation and
a lease.  A sharing cluster catches up from the primary's uploads, and a
graceful shutdown leaves a complete record.  The functions hold an
``EonCluster`` by reference, as ``query_path`` does, and ``EonCluster``
binds them under the same names.
"""

from __future__ import annotations

import json
from typing import Dict, Optional, Tuple

from repro.catalog.transaction_log import LogStore
from repro.cluster import subscriptions
from repro.cluster.node import NodeState
from repro.errors import ClusterError
from repro.sharding.subscription import uncovered
from repro.shared_storage.api import PrefixView, RetryingFilesystem, retrying


def shared_meta_store(cluster, node_name: str, incarnation: Optional[str] = None) -> LogStore:
    incarnation = incarnation or cluster.incarnation
    return LogStore(
        RetryingFilesystem(
            PrefixView(cluster.shared, f"meta_{incarnation}_{node_name}_")
        )
    )


def sync_catalogs(cluster, include_checkpoint: bool = True) -> Dict[str, Tuple[int, int]]:
    """Upload each up node's logs/checkpoints; returns sync intervals."""
    intervals = {}
    for node in cluster.up_nodes():
        store = cluster.shared_meta_store(node.name)
        intervals[node.name] = node.catalog.sync_to(
            store, include_checkpoint=include_checkpoint
        )
    return intervals


def compute_truncation_version(cluster) -> int:
    """Consensus truncation version (section 3.5, Figure 5): the highest
    version every shard can be revived to from some subscriber's uploaded
    metadata (one LIST per node)."""
    subs = subscriptions.current(cluster)
    listings = {name: cluster.shared_meta_store(name).listing() for name in cluster.nodes}
    candidates = sorted({listing.interval()[1] for listing in listings.values()}, reverse=True)
    for candidate in candidates:
        holding = {name for name, listing in listings.items() if listing.holds(candidate)}
        if not uncovered(subs, cluster.shard_map.all_shard_ids(), holding):
            cluster.last_truncation_version = candidate
            return candidate
    return 0


def write_cluster_info(cluster, lease_seconds: float = 300.0) -> str:
    """Persist cluster_info.json (sequenced names; S3 objects are immutable
    in this simulation, so each write gets a fresh name and readers take the
    newest — the commit-point semantics of section 3.5 are preserved because
    the *latest* file wins)."""
    truncation = cluster.compute_truncation_version()
    doc = {
        "truncation_version": truncation,
        "incarnation": cluster.incarnation,
        "timestamp": cluster.clock.now,
        "lease_expiry": cluster.clock.now + lease_seconds,
        "nodes": sorted(cluster.nodes),
        "shard_count": cluster.shard_map.count,
        "subscribers_per_shard": cluster.subscribers_per_shard,
    }
    shared = cluster.shared
    existing = retrying(lambda: shared.list("cluster_info_"), shared.metrics)
    next_seq = 1
    if existing:
        last = existing[-1][len("cluster_info_"):].split(".")[0]
        next_seq = int(last) + 1
    name = f"cluster_info_{next_seq:012d}.json"
    retrying(
        lambda: shared.write(name, json.dumps(doc).encode("utf-8")),
        shared.metrics,
    )
    # Protect what a revive to the advertised version reads from pruning
    # (only once it is advertised: an older advertised version stays whole
    # if this write fails).
    if truncation:
        for node in cluster.nodes.values():
            node.catalog.truncation_floor = truncation
    return name


def refresh_from_shared(cluster) -> int:
    """Sharing-cluster catch-up: apply the primary's newly uploaded commits
    from shared storage.  Returns commits applied.

    The sharing cluster lags the primary by at most the primary's
    catalog-sync interval — the same freshness bound a revive gets.
    """
    if not cluster.read_only or cluster._source_incarnation is None:
        raise ClusterError("refresh_from_shared is for read-only sharing clusters")
    applied = 0
    for name, node in cluster.nodes.items():
        store = cluster.shared_meta_store(name, incarnation=cluster._source_incarnation)
        version = node.catalog.state.version
        records = store.records(store.listing(), version)
        if records and records[0].version != version + 1:
            raise ClusterError(
                f"node {name} is at version {version} but the primary's uploads "
                f"start at {records[0].version}: pruned past this reader, "
                "attach it again"
            )
        for record in records:
            if record.version != node.catalog.state.version + 1:
                break  # a gap in the uploads: wait for it to be filled
            node.catalog.apply_commit(record, persist=False)
            applied += 1
    # Keep the coordinator's version in step for session bookkeeping.
    cluster.coordinator.base_version = max(
        node.catalog.state.version for node in cluster.nodes.values()
    )
    subscriptions.refresh_shard_filters(cluster)
    return applied


def graceful_shutdown(cluster) -> None:
    """Upload any remaining logs so shared storage has a complete record,
    then stop (section 3.5)."""
    cluster.sync_catalogs(include_checkpoint=True)
    cluster.write_cluster_info(lease_seconds=0.0)
    for node in cluster.up_nodes():
        node.state = NodeState.DOWN
    cluster.shut_down = True
