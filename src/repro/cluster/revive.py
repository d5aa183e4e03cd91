"""Revive: starting a cluster from shared storage alone (section 3.5).

The running cluster periodically uploads transaction logs and checkpoints
(per node) and a ``cluster_info.json`` carrying the consensus truncation
version, the incarnation id, and a lease.  Revive:

1. reads the latest cluster_info; aborts if the lease has not expired
   (another cluster is probably still running against this storage);
2. commissions nodes with empty local storage and has each download, from
   the old incarnation's metadata area, the newest checkpoint at or below
   the truncation version and the log segments after it;
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
from typing import List, Optional

from repro.cluster import lifecycle, subscriptions
from repro.cluster.eon import EonCluster
from repro.cluster.node import has_quorum
from repro.cluster.transactions import CommitCoordinator
from repro.common.clock import SimClock
from repro.errors import ReviveError
from repro.sharding.subscription import shards_of, uncovered
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
        # storage": the newest checkpoint at or below the truncation version
        # and the segments after it, then normal startup recovery and
        # truncation.
        listing = remote.listing()
        if not listing.names:
            raise ReviveError(
                f"node {name} has no uploaded metadata under incarnation "
                f"{old_incarnation}; cannot revive"
            )
        base = listing.base_for(truncation)
        if base is None:
            # Logs alone cannot seed recovery: replay starts from a
            # checkpoint, so a missing/deleted checkpoint object is fatal
            # for this node's reconstruction.
            raise ReviveError(
                f"node {name} has no checkpoint at or below version "
                f"{truncation} on shared storage; cannot revive"
            )
        if listing.reach(base) < truncation:
            raise ReviveError(
                f"node {name}'s uploaded log reaches version "
                f"{listing.reach(base)}, not {truncation}; cannot revive"
            )
        for obj in listing.revive_set(truncation):
            node.local_fs.write(obj, remote.fs.read(obj))
        node.catalog.subscribed_shards = None  # learn subscriptions first
        node.catalog.recover()
        node.catalog.truncate_to(truncation)
        # Trim to the node's own subscriptions.  The trim is not represented
        # in the log; checkpoint so a later restart recovers from it.
        node.catalog.subscribed_shards = set(
            shards_of(node.catalog.state.subscriptions, name)
        )
        node.catalog.reshard()
        node.catalog.write_checkpoint()

    # Cluster-formation invariants: every shard must be covered by a
    # subscription that was ACTIVE when the nodes went down (section 3.4).
    subscriptions.refresh_shard_filters(cluster)
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

    Returns the agreed version, which the commit history then ends at.
    Nodes ahead of it truncate; nodes behind it catch up by
    ``lifecycle.catch_up``, as recovery and a new node do.
    """
    up = [n for n in cluster.nodes.values() if n.is_up]
    if not has_quorum(len(up), len(cluster.nodes)):
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
        if not uncovered(
            reference.subscriptions, cluster.shard_map.all_shard_ids(), participants
        ):
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
    coordinator = cluster.coordinator
    if best > coordinator.version:
        # The agreed tail never reached the commit history (the crash came
        # before the coordinator logged it): as after a revive, the
        # history starts at the agreed version and holds nothing.
        coordinator.base_version, coordinator.log_history = best, []
    else:
        coordinator.log_history = [r for r in coordinator.log_history if r.version <= best]
        coordinator.base_version = min(coordinator.base_version, best)
    # Nodes behind the agreed version catch up (replay, or rebuild when the
    # retained history no longer reaches them) so the next commit finds
    # everyone at the same version.
    for node in up:
        lifecycle.catch_up(cluster, node)
    # New incarnation: post-formation commits reuse version numbers the
    # discarded tail held, so their metadata must land in a new namespace.
    cluster.incarnation = f"{cluster.rng.getrandbits(128):032x}"
    subscriptions.refresh_shard_filters(cluster)
    return best

