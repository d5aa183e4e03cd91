"""repro.autoscale — closed-loop elastic autoscaler (ROADMAP item 1).

From telemetry to topology: a policy loop that watches the workload
manager's queue telemetry and drives the cluster's elasticity paths live
— scale out with peer depot warming, scale in by draining admission
first, hibernate idle subclusters to shared storage, revive on demand.
Grounded in the Eon paper's subcluster elasticity (sections 4.3 and 6.4)
and *Taurus Database*'s framing of compute elasticity as the frugality
lever: hold the latency SLO at minimum node-seconds.  The paper gives the
mechanisms and leaves the policy to the operator, so this package is a
client of the cluster: no runtime module imports it except the
``v_monitor.autoscale_events`` schema and the simulation's
``autoscale_tick`` action, which drives it.
"""

from repro.autoscale.actuator import (
    BURST_SUBCLUSTER,
    AutoscaleEvent,
    TopologyActuator,
)
from repro.autoscale.driver import (
    NODE_DOLLARS_PER_HOUR,
    EpochStats,
    TraceResult,
    run_trace,
)
from repro.autoscale.policy import (
    Decision,
    PolicyConfig,
    ScalerStatus,
    ThresholdPolicy,
)
from repro.autoscale.service import Autoscaler
from repro.autoscale.telemetry import TelemetryCollector, TelemetrySample
from repro.autoscale.traffic import TrafficGenerator, TrafficProfile

__all__ = [
    "Autoscaler",
    "AutoscaleEvent",
    "BURST_SUBCLUSTER",
    "Decision",
    "EpochStats",
    "NODE_DOLLARS_PER_HOUR",
    "PolicyConfig",
    "ScalerStatus",
    "TelemetryCollector",
    "TelemetrySample",
    "ThresholdPolicy",
    "TopologyActuator",
    "TraceResult",
    "TrafficGenerator",
    "TrafficProfile",
    "run_trace",
]
