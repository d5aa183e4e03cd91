"""Sharding: the core Eon-mode mechanism (sections 3 and 4.1).

* :class:`ShardMap` — fixed division of the 32-bit hash space into segment
  shards, plus the replica shard for replicated projections.
* :class:`SubscriptionState` — the node-to-shard subscription state machine
  of Figure 4, and the one reader of a subscription map (``shards_of``,
  ``holders``, ``uncovered``: the coverage rule).
* :func:`select_participating_subscriptions` — the max-flow session layout
  algorithm of Figure 6, with balance rounds, priority tiers, and
  edge-order variation.
"""

from repro.sharding.assignment import (
    AssignmentError,
    select_participating_subscriptions,
)
from repro.sharding.maxflow import FlowNetwork
from repro.sharding.shard import REPLICA_SHARD_ID, ShardMap
from repro.sharding.subscription import SubscriptionState

__all__ = [
    "ShardMap",
    "REPLICA_SHARD_ID",
    "SubscriptionState",
    "FlowNetwork",
    "select_participating_subscriptions",
    "AssignmentError",
]
