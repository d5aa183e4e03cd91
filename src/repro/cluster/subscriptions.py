"""Figure 4 on a cluster: a subscription walks to ACTIVE, or goes away.

The states, their legal steps and the one reader of the subscription map are
``repro.sharding.subscription``; the walks run here, on an ``EonCluster`` held
by reference as ``query_path`` does.  Each step is one commit, checked against
Figure 4 first (an illegal step raises :class:`CatalogError`); the metadata
transfer and the trim are ``Catalog.reshard`` calls.  :func:`activate` is the
one walk to ACTIVE (``subscribe``, node recovery, the rebalancer) and
:func:`retire` the one walk to no subscription (``unsubscribe``,
``remove_node`` and so every caller that removes a node, recovery of a
node that died mid-removal).  The rebalance process (section 6.4) is
:func:`rebalance_subscriptions`.  ``EonCluster`` binds ``subscribe``,
``unsubscribe`` and ``rebalance_subscriptions`` from here.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, Iterable, List, Optional, Tuple

from repro.cache.warming import WarmingReport, warm_from_peer
from repro.catalog.mvcc import op_drop_subscription, op_set_subscription
from repro.errors import CatalogError, ShardCoverageLost
from repro.sharding.subscription import (
    SubscriptionState,
    Subscriptions,
    holders,
    shards_of,
    uncovered,
    validate_transition,
)

PENDING = SubscriptionState.PENDING
PASSIVE = SubscriptionState.PASSIVE
ACTIVE = SubscriptionState.ACTIVE
REMOVING = SubscriptionState.REMOVING


# -- reading the cluster's map -------------------------------------------------


def current(cluster) -> Subscriptions:
    """The subscription map, as the first up node's catalog holds it."""
    return cluster.any_up_node().catalog.state.subscriptions


def uncovered_without(cluster, gone: Iterable[str] = (), shard_ids=None) -> List[int]:
    """The shards of ``shard_ids`` (every shard when None) that no up ACTIVE
    subscriber outside ``gone`` covers: what losing ``gone`` would cost."""
    if shard_ids is None:
        shard_ids = cluster.shard_map.all_shard_ids()
    up = {node.name for node in cluster.up_nodes()}.difference(gone)
    return uncovered(current(cluster), shard_ids, up) if up else list(shard_ids)


def check_shards(cluster, shard_ids: Iterable[int]) -> None:
    """Refuse shard ids the cluster's shard map does not hold."""
    unknown = sorted(set(shard_ids).difference(cluster.shard_map.all_shard_ids()))
    if unknown:
        raise CatalogError(f"no shard {unknown[0]} in a {cluster.shard_map.count}-shard cluster")


def refresh_shard_filters(cluster) -> None:
    """Point each node's catalog filter at the shards it subscribes to."""
    subs = current(cluster)
    for name, node in cluster.nodes.items():
        node.catalog.subscribed_shards = set(shards_of(subs, name))


# -- the walks -----------------------------------------------------------------


def subscribe(
    cluster, node_name: str, shard_id: int, warm_cache: bool = True
) -> Optional[WarmingReport]:
    """The subscription process of section 3.3 / Figure 4: commit PENDING (a
    PASSIVE or ACTIVE subscription restarts there, as in recovery), then
    :func:`activate`."""
    check_shards(cluster, [shard_id])
    node = cluster.nodes[node_name]
    node.ensure_up()
    _commit_sub_state(cluster, node_name, shard_id, PENDING)
    report = activate(cluster, node_name, shard_id, warm_cache)
    # The transfer edited catalog state without log records, so a restart's
    # log replay cannot reproduce it.  Checkpointing now pins the
    # post-transfer state as the recovery base, keeping replay's shard
    # filter consistent with the log span it covers.
    node.catalog.write_checkpoint()
    return report


def activate(
    cluster, node_name: str, shard_id: int, warm_cache: bool = True
) -> Optional[WarmingReport]:
    """Walk a subscription to ACTIVE from where it stands; returns the depot
    warming report, None when nothing was warmed.  PENDING takes the
    metadata transfer every time: what a node holds may predate it (a crash
    mid-subscribe, or a subscribe whose warming failed before its
    checkpoint).  No subscription at all is an illegal start."""
    node = cluster.nodes[node_name]
    state = _state_of(cluster, node_name, shard_id)
    if state is PENDING:
        transfer_metadata(cluster, node, [shard_id])
        _commit_sub_state(cluster, node_name, shard_id, PASSIVE)
        state = PASSIVE
    report = None
    if state is PASSIVE and warm_cache:
        report = _warm_cache_from_peer(cluster, node, shard_id)
    if state is not ACTIVE:
        _commit_sub_state(cluster, node_name, shard_id, ACTIVE)
    return report


def resubscribe(cluster, node_name: str) -> Dict[int, Optional[WarmingReport]]:
    """Node recovery's forced re-subscription (section 6.1): each of the
    node's subscriptions goes back to PENDING and walks to ACTIVE; returns
    each one's warming report.  REMOVING -> PENDING is illegal: a removal
    completes when the shard is covered without the node, else it is
    abandoned (-> ACTIVE) and the shard re-subscribed."""
    reports: Dict[int, Optional[WarmingReport]] = {}
    for shard_id, state in shards_of(current(cluster), node_name).items():
        if state == REMOVING.value:
            if not uncovered_without(cluster, [node_name], [shard_id]):
                retire(cluster, node_name, shard_id)
                continue
            _commit_sub_state(cluster, node_name, shard_id, ACTIVE)
        if state != PENDING.value:
            _commit_sub_state(cluster, node_name, shard_id, PENDING)
        reports[shard_id] = activate(cluster, node_name, shard_id)
    return reports


def retire(cluster, node_name: str, shard_id: int) -> None:
    """The unsubscription process of section 3.3, from any state: an ACTIVE
    subscription goes REMOVING only if another up ACTIVE subscriber covers
    the shard (else :class:`ShardCoverageLost`, nothing committed); then the
    node's cached files of the shard go, the drop commits, and the node's
    copy of the shard's metadata is trimmed and checkpointed."""
    state = _state_of(cluster, node_name, shard_id)
    if state is ACTIVE:
        if uncovered_without(cluster, [node_name], [shard_id]):
            raise ShardCoverageLost(
                f"cannot unsubscribe {node_name} from shard {shard_id}: "
                "no other ACTIVE subscriber"
            )
        _commit_sub_state(cluster, node_name, shard_id, REMOVING)
    node = cluster.nodes[node_name]
    for container in node.catalog.state.shard_containers(shard_id):
        node.cache.drop(container.location)
    _commit_sub_state(cluster, node_name, shard_id, None)
    # The commit's filter refresh trims future metadata; the trim forgets
    # what the node holds.  The log never saw the trim: checkpoint it.
    node.catalog.reshard()
    node.catalog.write_checkpoint()


@dataclass
class RebalanceReport:
    """What one rebalance pass changed."""

    #: (node, shard) subscriptions promoted to ACTIVE through legal transitions.
    promoted: List[Tuple[str, int]] = field(default_factory=list)
    #: (node, shard) fresh subscriptions created on spare nodes.
    subscribed: List[Tuple[str, int]] = field(default_factory=list)
    #: True when the pass was skipped (cluster shut down or degraded).
    skipped: bool = False


def rebalance_subscriptions(cluster) -> RebalanceReport:
    """One pass of the rebalance process (section 6.4), run on demand and
    periodically by :class:`~repro.cluster.services.ServiceScheduler`.

    A shard with fewer up ACTIVE subscribers than ``subscribers_per_shard``
    (capped by the number of up nodes) — none at all is an uncovered shard —
    first has its up non-ACTIVE subscriptions walked to ACTIVE, most ready
    first (REMOVING already serves queries, PASSIVE has metadata, PENDING
    has neither), then the least-loaded up nodes that hold none subscribed.
    A shut-down or degraded (storage-outage) cluster is skipped: every
    change is a commit, and commits are rejected in both states."""
    report = RebalanceReport()
    if cluster.shut_down or getattr(cluster, "degraded", False):
        report.skipped = True
        return report
    want = min(cluster.subscribers_per_shard, len(cluster.up_nodes()))
    have = {
        shard_id: len(cluster.active_up_subscribers(shard_id))
        for shard_id in cluster.shard_map.all_shard_ids()
    }
    for shard_id in sorted(shard for shard, n in have.items() if n < want):
        short = want - have[shard_id]
        for node in _promotable(cluster, shard_id):
            if short <= 0:
                break
            activate(cluster, node, shard_id)
            report.promoted.append((node, shard_id))
            short -= 1
        for node in _spares(cluster, shard_id):
            if short <= 0:
                break
            cluster.subscribe(node, shard_id)
            report.subscribed.append((node, shard_id))
            short -= 1
    return report


# -- the steps -----------------------------------------------------------------


def transfer_metadata(cluster, node, shard_ids: Iterable[int]) -> None:
    """Figure 4's metadata transfer: in-process nodes share the commit
    stream, so a node's catalog already holds global objects; each shard's
    storage objects it skipped come from an up peer subscriber's catalog.
    Takes nothing when nothing is missing."""
    subs = current(cluster)
    peers = {n.name for n in cluster.up_nodes()} - {node.name}
    sources = {}
    for shard_id in shard_ids:
        held = [n for n in holders(subs, shard_id) if n in peers]
        if held:
            sources[shard_id] = cluster.nodes[held[0]].catalog.state
    node.catalog.reshard(sources)


def _promotable(cluster, shard_id: int) -> List[str]:
    """Up nodes holding a non-ACTIVE subscription to the shard, most ready
    first; each can walk to ACTIVE."""
    subs, nodes = current(cluster), cluster.nodes
    return [
        n
        for state in (REMOVING, PASSIVE, PENDING)
        for n in holders(subs, shard_id, [state])
        if n in nodes and nodes[n].is_up
    ]


def _spares(cluster, shard_id: int) -> List[str]:
    """Up nodes with no subscription to the shard, least loaded first."""
    subs = current(cluster)
    held = set(holders(subs, shard_id))
    spares = [n for n, node in cluster.nodes.items() if node.is_up and n not in held]
    load = {n: len(shards_of(subs, n)) for n in spares}
    spares.sort(key=lambda n: (load[n], n))
    return spares


def _state_of(cluster, node_name: str, shard_id: int) -> Optional[SubscriptionState]:
    value = shards_of(current(cluster), node_name).get(shard_id)
    return None if value is None else SubscriptionState(value)


def _commit_sub_state(
    cluster, node_name: str, shard_id: int, target: Optional[SubscriptionState]
) -> None:
    """Commit one Figure-4 step; ``target`` None drops the subscription."""
    validate_transition(_state_of(cluster, node_name, shard_id), target)
    txn = cluster.begin()
    if target is None:
        txn.add_op(op_drop_subscription(node_name, shard_id))
    else:
        txn.add_op(op_set_subscription(node_name, shard_id, target.value))
    cluster.commit(txn)


def _warm_cache_from_peer(cluster, node, shard_id: int) -> Optional[WarmingReport]:
    """Pick a warming peer (same subcluster first — section 5.2)."""
    peers = [n for n in cluster.active_up_subscribers(shard_id) if n != node.name]
    if not peers:
        return None
    same_subcluster = [
        p for p in peers if cluster.nodes[p].subcluster == node.subcluster
    ]
    peer = cluster.nodes[(same_subcluster or peers)[0]]
    report = warm_from_peer(
        node.cache, peer.cache, cluster.shared_data, shard_id=shard_id
    )
    if cluster.obs.enabled and report is not None:
        cluster.obs.tracer.record(
            "depot_warming",
            node=node.name,
            peer=peer.name,
            shard=shard_id,
            copied_from_peer=report.copied_from_peer,
            fetched_from_shared=report.fetched_from_shared,
            bytes_transferred=report.bytes_transferred,
        )
        cluster.obs.metrics.counter("depot.warming_bytes", node=node.name).inc(
            report.bytes_transferred
        )
    return report
