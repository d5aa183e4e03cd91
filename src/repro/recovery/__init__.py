"""Recovery: mid-query failover and automatic subscription rebalancing.

The paper's availability story (quorum + shard coverage, section 3.4; node
recovery, section 6.1; rebalance, section 6.4) assumes failures happen
*between* queries.  This package closes the gap for failures that land
mid-flight:

* :class:`FailoverPolicy` bounds the session-level query failover loop in
  ``EonCluster.query_statement`` — when a participant dies mid-query the
  cluster re-selects participating subscriptions over the surviving up
  ACTIVE subscribers and re-executes, charging the backoff to the cost
  model instead of burning wall-clock;
* :class:`SubscriptionRebalancer` is the periodic service that detects
  uncovered and under-subscribed shards and promotes or subscribes spare
  nodes automatically, replacing "check_viability raises and the operator
  fixes it by hand".
"""

from repro.recovery.failover import FailoverPolicy, RecoveryStats
from repro.recovery.rebalance import RebalanceReport, SubscriptionRebalancer

__all__ = [
    "FailoverPolicy",
    "RebalanceReport",
    "RecoveryStats",
    "SubscriptionRebalancer",
]
