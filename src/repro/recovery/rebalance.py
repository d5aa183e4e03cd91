"""Automatic subscription rebalancing (section 6.4).

The paper describes a rebalance process that adjusts shard subscriptions
when the node set changes.  Our reproduction previously relied on
``check_viability`` raising and an operator fixing coverage by hand; the
rebalancer turns that into a periodic service:

* a shard with **no** up ACTIVE subscriber is *uncovered* — promote an
  existing up subscriber through the legal Figure-4 transitions (PASSIVE
  or REMOVING straight to ACTIVE; PENDING via PASSIVE), or subscribe a
  spare node if no promotable subscription exists;
* a shard with **fewer** up ACTIVE subscribers than the configured
  ``subscribers_per_shard`` (capped by the number of up nodes) has lost
  fault tolerance — first promote existing up subscriptions, then
  subscribe the least-loaded up nodes that do not hold one.

The rebalancer never acts on a shut-down or degraded (storage-outage)
cluster: subscription changes are commits, and commits are rejected in
both states.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Tuple

from repro.sharding.subscription import SubscriptionState, can_transition


@dataclass
class RebalanceReport:
    """What one rebalancer pass changed."""

    #: (node, shard) subscriptions promoted to ACTIVE through legal transitions.
    promoted: List[Tuple[str, int]] = field(default_factory=list)
    #: (node, shard) fresh subscriptions created on spare nodes.
    subscribed: List[Tuple[str, int]] = field(default_factory=list)
    #: True when the pass was skipped (cluster shut down or degraded).
    skipped: bool = False

    @property
    def changes(self) -> int:
        return len(self.promoted) + len(self.subscribed)


class SubscriptionRebalancer:
    """Detect uncovered / under-subscribed shards and repair them."""

    def __init__(self, cluster, warm_cache: bool = True):
        self.cluster = cluster
        self.warm_cache = warm_cache

    # -- state inspection ------------------------------------------------------

    def _sub_states(self, shard_id: int) -> Dict[str, SubscriptionState]:
        state = self.cluster.any_up_node().catalog.state
        return {
            n: SubscriptionState(st)
            for (n, s), st in state.subscriptions.items()
            if s == shard_id
        }

    def _subscription_load(self) -> Dict[str, int]:
        state = self.cluster.any_up_node().catalog.state
        load: Dict[str, int] = {name: 0 for name in self.cluster.nodes}
        for (n, _shard), _st in state.subscriptions.items():
            if n in load:
                load[n] += 1
        return load

    def desired_subscribers(self) -> int:
        up = sum(1 for n in self.cluster.nodes.values() if n.is_up)
        return min(self.cluster.subscribers_per_shard, up)

    def deficits(self) -> Dict[int, int]:
        """Shard -> missing up-ACTIVE subscriber count (only shards short)."""
        want = self.desired_subscribers()
        out: Dict[int, int] = {}
        for shard_id in self.cluster.shard_map.all_shard_ids():
            have = len(self.cluster.active_up_subscribers(shard_id))
            if have < want:
                out[shard_id] = want - have
        return out

    # -- repair actions --------------------------------------------------------

    def _promote(self, node: str, shard_id: int, current: SubscriptionState) -> None:
        cluster = self.cluster
        if current is SubscriptionState.PENDING:
            # PENDING -> ACTIVE is not legal; finish the subscription
            # process instead (metadata transfer, then PASSIVE).
            cluster._backfill_shard_metadata(cluster.nodes[node], [shard_id])
            cluster._commit_sub_state(node, shard_id, SubscriptionState.PASSIVE)
            current = SubscriptionState.PASSIVE
        if current is SubscriptionState.PASSIVE and self.warm_cache:
            cluster._warm_cache_from_peer(cluster.nodes[node], shard_id)
        cluster._commit_sub_state(node, shard_id, SubscriptionState.ACTIVE)

    def _promotable(self, shard_id: int) -> List[Tuple[str, SubscriptionState]]:
        """Up nodes holding a non-ACTIVE subscription that can legally
        reach ACTIVE, most-ready first (REMOVING already serves queries,
        PASSIVE has metadata, PENDING has neither)."""
        rank = {
            SubscriptionState.REMOVING: 0,
            SubscriptionState.PASSIVE: 1,
            SubscriptionState.PENDING: 2,
        }
        nodes = self.cluster.nodes
        out = [
            (n, st)
            for n, st in sorted(self._sub_states(shard_id).items())
            if st is not SubscriptionState.ACTIVE
            and n in nodes
            and nodes[n].is_up
            and (
                can_transition(st, SubscriptionState.ACTIVE)
                or st is SubscriptionState.PENDING
            )
        ]
        out.sort(key=lambda pair: (rank[pair[1]], pair[0]))
        return out

    def _spares(self, shard_id: int) -> List[str]:
        """Up nodes with no subscription to the shard, least-loaded first."""
        held = set(self._sub_states(shard_id))
        load = self._subscription_load()
        spares = [
            n
            for n, node in self.cluster.nodes.items()
            if node.is_up and n not in held
        ]
        spares.sort(key=lambda n: (load.get(n, 0), n))
        return spares

    # -- the service entry point -----------------------------------------------

    def run(self) -> RebalanceReport:
        report = RebalanceReport()
        cluster = self.cluster
        if cluster.shut_down or getattr(cluster, "degraded", False):
            report.skipped = True
            return report
        for shard_id, missing in sorted(self.deficits().items()):
            for node, st in self._promotable(shard_id):
                if missing <= 0:
                    break
                self._promote(node, shard_id, st)
                report.promoted.append((node, shard_id))
                missing -= 1
            for node in self._spares(shard_id):
                if missing <= 0:
                    break
                cluster.subscribe(node, shard_id, warm_cache=self.warm_cache)
                report.subscribed.append((node, shard_id))
                missing -= 1
        return report
