"""Bounds and backoff for session-level query failover, and the ledger
that counts failovers and degraded-mode flips."""

from __future__ import annotations

from dataclasses import dataclass

from repro.obs.metrics import Ledger


#: How hard ``query_statement`` tries before surfacing a failure, counted in
#: executions, not retries: the original run plus two failovers.
MAX_ATTEMPTS = 3
#: The first retry's backoff; each later one doubles it.
BACKOFF_SECONDS = 0.1


def backoff_for(attempt: int) -> float:
    """Simulated seconds charged before retry number ``attempt`` (1-based).

    The backoff is charged to the query's cost-model latency, never slept,
    so a failed-over query is visibly slower than an undisturbed one — the
    Figure-12 dip, per query."""
    return BACKOFF_SECONDS * (2 ** (attempt - 1))


@dataclass
class RecoveryStats(Ledger):
    """A cluster's availability events: queries failed over, and entries
    into and exits from degraded mode (section 3.4), whose pairing the sim
    checks.  ``cluster_metrics()["recovery"]`` is this ledger plus the live
    ``degraded`` flag and the fault injector's outage counts."""

    failovers: int = 0
    degraded_entries: int = 0
    degraded_exits: int = 0
