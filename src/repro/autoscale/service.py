"""The autoscaler facade: telemetry → policy → actuation, one tick.

This is the sixth background service (after catalog sync, cluster_info,
mergeout, reaper, rebalance): attach it to a
:class:`~repro.cluster.services.ServiceScheduler` and every tick closes
the loop from the workload manager's queue telemetry to live topology.
The tick order is deliberate — repair before deciding, so the policy
always sees a cluster the previous tick's debris has been swept from:

1. repair half-created nodes from interrupted scale-outs;
2. finish pending removals whose victims have drained;
3. sample telemetry deltas;
4. ask the policy for a decision;
5. actuate it.
"""

from __future__ import annotations

from typing import Optional

from repro.autoscale.actuator import BURST_SUBCLUSTER, TopologyActuator
from repro.autoscale.policy import (
    HIBERNATE,
    HOLD,
    REVIVE,
    SCALE_IN,
    SCALE_OUT,
    Decision,
    PolicyConfig,
    ScalerStatus,
    ThresholdPolicy,
)
from repro.autoscale.telemetry import TelemetryCollector, TelemetrySample


class Autoscaler:
    """Closed-loop elastic autoscaler over one managed subcluster."""

    def __init__(self, cluster, config: Optional[PolicyConfig] = None):
        self.cluster = cluster
        self.actuator = TopologyActuator(cluster)
        self.policy = ThresholdPolicy(config or PolicyConfig())
        self.telemetry = TelemetryCollector(cluster, subcluster=BURST_SUBCLUSTER)
        self.ticks = 0
        self.decisions = {
            SCALE_OUT: 0,
            SCALE_IN: 0,
            HIBERNATE: 0,
            REVIVE: 0,
            HOLD: 0,
        }
        self.last_sample: Optional[TelemetrySample] = None
        self.last_decision: Optional[Decision] = None
        # Registered so v_monitor.autoscale_events and cluster_metrics can
        # find the scaler without the cluster owning one.
        cluster.autoscaler = self

    @property
    def events(self):
        return self.actuator.events

    def status(self) -> ScalerStatus:
        return ScalerStatus(
            size=self.actuator.size(),
            hibernated=self.actuator.hibernated,
            hibernating=self.actuator.hibernating,
            pending_removals=len(self.actuator.pending_removals),
        )

    def run(self) -> Decision:
        """One control-loop tick; see module docstring for the order."""
        self.ticks += 1
        self.actuator.repair()
        self.actuator.complete_removals()
        sample = self.telemetry.sample()
        decision = self.policy.decide(sample, self.status())
        self._act(decision)
        self.last_sample = sample
        self.last_decision = decision
        self.decisions[decision.action] = (
            self.decisions.get(decision.action, 0) + 1
        )
        return decision

    def _act(self, decision: Decision) -> None:
        if decision.action == SCALE_OUT:
            self.actuator.scale_out(decision.count)
        elif decision.action == SCALE_IN:
            self.actuator.scale_in(decision.count)
        elif decision.action == HIBERNATE:
            self.actuator.hibernate()
        elif decision.action == REVIVE:
            self.actuator.revive(decision.count)
