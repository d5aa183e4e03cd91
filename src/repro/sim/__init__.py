"""repro.sim — deterministic simulation testing for Eon clusters.

FoundationDB-style simulation testing (see also the Jepsen lineage): a
seeded scenario generator drives a full :class:`EonCluster` — node kills
and restarts, S3 throttling bursts, subscription rebalances, crunch
queries, revive-from-shared-storage — interleaved with a COPY/query/DML
workload whose answers are diffed against a fault-free single-node
oracle.  After every step a registry of global invariants is checked;
failures reproduce from ``(seed, step)`` and shrink to minimal schedules.
"""

from repro.sim.harness import (
    CampaignConfig,
    CampaignResult,
    SimWorld,
    replay_schedule,
    run_campaign,
)
from repro.sim.generator import PROFILES, ScenarioGenerator
from repro.sim.invariants import (
    DEFAULT_INVARIANTS,
    InvariantRegistry,
    InvariantViolation,
)
from repro.sim.oracle import SimOracle, rows_key
from repro.sim.shrink import ShrinkResult, shrink_schedule
from repro.sim.trace import Trace, TraceEvent

__all__ = [
    "CampaignConfig",
    "CampaignResult",
    "DEFAULT_INVARIANTS",
    "InvariantRegistry",
    "InvariantViolation",
    "PROFILES",
    "ScenarioGenerator",
    "ShrinkResult",
    "SimOracle",
    "SimWorld",
    "Trace",
    "TraceEvent",
    "replay_schedule",
    "rows_key",
    "run_campaign",
    "shrink_schedule",
]
