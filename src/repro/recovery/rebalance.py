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
from typing import Dict, List, Tuple

from repro.cluster import subscriptions
from repro.sharding.subscription import holders, shards_of


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

    # -- repair candidates ------------------------------------------------------

    def _promotable(self, shard_id: int) -> List[str]:
        """Up nodes holding a non-ACTIVE subscription, most-ready first
        (REMOVING already serves queries, PASSIVE has metadata, PENDING has
        neither); each can walk to ACTIVE."""
        subs = subscriptions.current(self.cluster)
        nodes = self.cluster.nodes
        return [
            n
            for state in (subscriptions.REMOVING, subscriptions.PASSIVE, subscriptions.PENDING)
            for n in holders(subs, shard_id, [state])
            if n in nodes and nodes[n].is_up
        ]

    def _spares(self, shard_id: int) -> List[str]:
        """Up nodes with no subscription to the shard, least-loaded first."""
        subs = subscriptions.current(self.cluster)
        held = set(holders(subs, shard_id))
        spares = [
            n
            for n, node in self.cluster.nodes.items()
            if node.is_up and n not in held
        ]
        load = {n: len(shards_of(subs, n)) for n in spares}
        spares.sort(key=lambda n: (load[n], n))
        return spares

    # -- the service entry point -----------------------------------------------

    def run(self) -> RebalanceReport:
        report = RebalanceReport()
        cluster = self.cluster
        if cluster.shut_down or getattr(cluster, "degraded", False):
            report.skipped = True
            return report
        for shard_id, missing in sorted(self.deficits().items()):
            for node in self._promotable(shard_id):
                if missing <= 0:
                    break
                subscriptions.activate(cluster, node, shard_id, self.warm_cache)
                report.promoted.append((node, shard_id))
                missing -= 1
            for node in self._spares(shard_id):
                if missing <= 0:
                    break
                cluster.subscribe(node, shard_id, warm_cache=self.warm_cache)
                report.subscribed.append((node, shard_id))
                missing -= 1
        return report
