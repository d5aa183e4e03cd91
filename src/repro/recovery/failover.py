"""Bounds and backoff for session-level query failover, and the ledger
that counts failovers and degraded-mode flips."""

from __future__ import annotations

from dataclasses import dataclass

from repro.obs.metrics import Ledger


@dataclass(frozen=True)
class FailoverPolicy:
    """How hard ``query_statement`` tries before surfacing a failure.

    ``max_attempts`` counts executions, not retries: the default of 3
    allows the original run plus two failovers.  Each retry charges
    exponential backoff to the query's cost-model latency (simulated
    seconds, never wall-clock sleeps) so a failed-over query is visibly
    slower than an undisturbed one — the Figure-12 dip, per query.
    """

    max_attempts: int = 3
    backoff_seconds: float = 0.1

    def __post_init__(self) -> None:
        if self.max_attempts < 1:
            raise ValueError("max_attempts must be at least 1")
        if self.backoff_seconds < 0:
            raise ValueError("backoff_seconds must be non-negative")

    def backoff_for(self, attempt: int) -> float:
        """Simulated seconds charged before retry number ``attempt`` (1-based)."""
        return self.backoff_seconds * (2 ** (attempt - 1))


@dataclass
class RecoveryStats(Ledger):
    """A cluster's availability events: queries failed over, and entries
    into and exits from degraded mode (section 3.4), whose pairing the sim
    checks.  ``cluster_metrics()["recovery"]`` is this ledger plus the live
    ``degraded`` flag and the fault injector's outage counts."""

    failovers: int = 0
    degraded_entries: int = 0
    degraded_exits: int = 0
