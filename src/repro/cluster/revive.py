"""Revive: starting a cluster from shared storage alone (section 3.5).

The running cluster periodically uploads transaction logs and checkpoints
(per node) and a ``cluster_info.json`` carrying the consensus truncation
version, the incarnation id, and a lease.  Revive:

1. reads the latest cluster_info; aborts if the lease has not expired
   (another cluster is probably still running against this storage);
2. commissions nodes with empty local storage and has each download its
   catalog from the old incarnation's metadata area;
3. truncates every catalog to the truncation version and writes a fresh
   checkpoint;
4. adopts a *new* incarnation id, so post-revive metadata uploads land in
   a distinct namespace even though version numbers repeat;
5. uploads a new cluster_info.json — the commit point of the revive.

Our simulated S3 enforces object immutability, so cluster_info files use
monotonically sequenced names and readers take the newest; the paper's
"write of the cluster_info.json is the commit point" semantics carry over
because the newest file wins.
"""

from __future__ import annotations

import json
from typing import Dict, List, Optional

from repro.catalog.mvcc import CatalogState
from repro.cluster.eon import EonCluster
from repro.cluster.transactions import CommitCoordinator
from repro.common.clock import SimClock
from repro.errors import ReviveError
from repro.shared_storage.api import Filesystem

CLUSTER_INFO_PREFIX = "cluster_info_"


def read_latest_cluster_info(shared: Filesystem) -> Optional[dict]:
    from repro.shared_storage.api import retrying

    names = retrying(lambda: shared.list(CLUSTER_INFO_PREFIX), shared.metrics)
    if not names:
        return None
    return json.loads(retrying(lambda: shared.read(names[-1]), shared.metrics))


def revive(
    shared_storage: Filesystem,
    clock: Optional[SimClock] = None,
    force: bool = False,
    seed: int = 1,
    cache_bytes: int = 256 << 20,
    read_only: bool = False,
    observability=None,
) -> EonCluster:
    """Start a cluster from shared storage; returns the revived cluster.

    ``read_only=True`` builds a *sharing* cluster (section 10: "the idea of
    two or more databases sharing the same metadata and data files is
    practical and compelling"): it attaches to the primary's uploaded
    metadata without taking over the lease, serves queries against its own
    compute and caches, refuses writes, and can catch up on the primary's
    new commits with :meth:`EonCluster.refresh_from_shared`.
    """
    clock = clock or SimClock()
    metrics_before = shared_storage.metrics.sim_seconds
    info = read_latest_cluster_info(shared_storage)
    if info is None:
        raise ReviveError("no cluster_info.json found on shared storage")
    if not read_only and not force and clock.now < info["lease_expiry"]:
        raise ReviveError(
            f"lease active until {info['lease_expiry']} (now {clock.now}); "
            "another cluster may be running — pass force=True to override"
        )
    truncation = info["truncation_version"]
    old_incarnation = info["incarnation"]
    node_names: List[str] = info["nodes"]

    cluster = EonCluster(
        node_names,
        info["shard_count"],
        shared_storage=shared_storage,
        subscribers_per_shard=info.get("subscribers_per_shard", 2),
        cache_bytes=cache_bytes,
        seed=seed,
        clock=clock,
        observability=observability,
        _bootstrap=False,
    )
    cluster.coordinator = CommitCoordinator(cluster, base_version=truncation)
    cluster.last_truncation_version = truncation
    cluster.read_only = read_only
    if read_only:
        cluster._source_incarnation = old_incarnation

    for name in node_names:
        node = cluster.nodes[name]
        remote = cluster.shared_meta_store(name, incarnation=old_incarnation)
        # "All nodes individually download their catalog from shared
        # storage": copy the uploaded checkpoints and logs to local disk,
        # then run normal startup recovery and truncate.
        uploaded = remote.fs.list()
        if not uploaded:
            raise ReviveError(
                f"node {name} has no uploaded metadata under incarnation "
                f"{old_incarnation}; cannot revive"
            )
        if not remote.checkpoint_versions():
            # Logs alone cannot seed recovery: replay starts from a
            # checkpoint, so a missing/deleted checkpoint object is fatal
            # for this node's reconstruction.
            raise ReviveError(
                f"node {name} has transaction logs but no checkpoint "
                "object on shared storage; cannot revive"
            )
        for obj in uploaded:
            node.local_fs.write(obj, remote.fs.read(obj))
        node.catalog.subscribed_shards = None  # learn subscriptions first
        node.catalog.recover()
        node.catalog.truncate_to(truncation)
        _trim_to_subscriptions(node)
        # The trim is not represented in the log; checkpoint so a later
        # restart recovers from the post-trim state.
        node.catalog.write_checkpoint()

    # Cluster-formation invariants: every shard must be covered by a
    # subscription that was ACTIVE when the nodes went down (section 3.4).
    cluster._refresh_shard_filters()
    state = cluster.any_up_node().catalog.state
    if state.version != truncation:
        raise ReviveError(
            f"catalog reconstruction reached {state.version}, "
            f"expected {truncation}"
        )
    cluster.check_viability()

    if cluster.obs.enabled:
        cluster.obs.tracer.record(
            "revive",
            duration=shared_storage.metrics.sim_seconds - metrics_before,
            incarnation_from=old_incarnation,
            truncation_version=truncation,
            nodes=len(node_names),
            read_only=read_only,
        )

    if read_only:
        # A sharing cluster never writes to the primary's metadata or
        # lease; it is a pure consumer of the shared files.
        return cluster

    # New incarnation; upload its first cluster_info as the commit point.
    cluster.incarnation = f"{cluster.rng.getrandbits(128):032x}"
    cluster.sync_catalogs(include_checkpoint=True)
    cluster.write_cluster_info()
    return cluster


def form_cluster(cluster) -> int:
    """Reconcile divergent node catalogs after a mid-commit crash.

    "Cluster formation reuses the revive mechanism when the cluster
    crashes mid commit and some nodes restart with different catalog
    versions.  The cluster former notices the discrepancy based on invite
    messages and instructs the cluster to perform a truncation operation
    to the best catalog version.  The cluster follows the same mechanism
    as revive, moving to a new incarnation id." (section 3.5)

    Returns the agreed version.  Nodes ahead of it truncate; nodes behind
    are repaired through the normal recovery path afterwards.
    """
    up = [n for n in cluster.nodes.values() if n.is_up]
    if len(up) * 2 <= len(cluster.nodes):
        raise ReviveError("cannot form a cluster without quorum")
    versions = sorted({n.catalog.state.version for n in up}, reverse=True)
    best: Optional[int] = None
    for candidate in versions:
        participants = {n.name for n in up if n.catalog.state.version >= candidate}
        # Every shard needs an ACTIVE-when-down subscriber among the
        # participants at this version.
        reference = next(
            n for n in up if n.catalog.state.version >= candidate
        ).catalog.state
        covered = True
        for shard_id in cluster.shard_map.all_shard_ids():
            subscribers = {
                node
                for (node, shard), state in reference.subscriptions.items()
                if shard == shard_id and state == "ACTIVE"
            }
            if not subscribers & participants:
                covered = False
                break
        if covered:
            best = candidate
            break
    if best is None:
        raise ReviveError(
            "no catalog version is covered by surviving ACTIVE subscriptions"
        )
    # Discard the uncommitted tail everywhere (the paper's truncation).
    for node in up:
        if node.catalog.state.version > best:
            node.catalog.truncate_to(best)
    base = cluster.coordinator.base_version
    cluster.coordinator.log_history = [
        record
        for record in cluster.coordinator.log_history
        if record.version <= best
    ]
    cluster.coordinator.base_version = min(base, best)
    # Nodes behind the agreed version catch up from the retained history
    # so the next commit finds everyone at the same version.
    for node in up:
        while node.catalog.state.version < best:
            missing = [
                record
                for record in cluster.coordinator.log_history
                if record.version == node.catalog.state.version + 1
            ]
            if not missing:
                cluster._full_metadata_rebuild(node)
                break
            node.catalog.apply_commit(missing[0])
    # New incarnation: post-formation commits reuse version numbers the
    # discarded tail held, so their metadata must land in a new namespace.
    cluster.incarnation = f"{cluster.rng.getrandbits(128):032x}"
    cluster._refresh_shard_filters()
    return best


def _trim_to_subscriptions(node) -> None:
    """Drop storage metadata for shards the node does not subscribe to."""
    state = node.catalog.state
    shards = {
        shard for (n, shard), _ in state.subscriptions.items() if n == node.name
    }
    node.catalog.subscribed_shards = shards
    trimmed = state.copy()
    changed = False
    for sid, container in list(trimmed.containers.items()):
        if container.shard_id not in shards:
            del trimmed.containers[sid]
            changed = True
    for sid, dv in list(trimmed.delete_vectors.items()):
        if dv.shard_id not in shards:
            del trimmed.delete_vectors[sid]
            changed = True
    if changed:
        node.catalog.state = trimmed
        node.catalog._recent[trimmed.version] = trimmed
