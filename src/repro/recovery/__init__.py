"""Recovery: mid-query failover.

The paper's availability story (quorum + shard coverage, section 3.4; node
recovery, section 6.1) assumes failures happen *between* queries.
:mod:`~repro.recovery.failover` closes the gap for failures that land
mid-flight: it bounds the session-level query failover loop in
``query_path.run`` — when a
participant dies mid-query the cluster re-selects participating
subscriptions over the surviving up ACTIVE subscribers and re-executes,
charging the backoff to the cost model instead of burning wall-clock.  The
rebalance process (section 6.4) is ``cluster.subscriptions.rebalance_subscriptions``.
"""

from repro.recovery.failover import RecoveryStats

__all__ = ["RecoveryStats"]
