"""Greedy schedule shrinking (delta debugging, ddmin-style).

Given a schedule that violates an invariant, repeatedly try deleting
chunks of steps and keep any deletion after which a replay still violates
the *same* invariant.  Chunk size halves until single steps; the result is
a locally-minimal schedule — removing any one remaining step loses the
failure.  Because actions re-check preconditions (steps whose setup was
removed report ``"skipped"``), any subset of a schedule is replayable.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Optional

from repro.sim.harness import CampaignConfig, CampaignResult, replay_schedule
from repro.sim.invariants import InvariantViolation

#: Replays a shrink may spend before it returns what it has.
MAX_REPLAYS = 200


@dataclass
class ShrinkResult:
    """The minimized schedule and how we got there."""

    schedule: List
    violation: InvariantViolation
    replays: int
    original_length: int

    @property
    def removed(self) -> int:
        return self.original_length - len(self.schedule)


def _still_fails(
    seed: int,
    candidate: List,
    invariant: str,
    config: Optional[CampaignConfig],
) -> Optional[CampaignResult]:
    result = replay_schedule(seed, candidate, config)
    if result.violation is not None and result.violation.invariant == invariant:
        return result
    return None


def shrink_schedule(
    seed: int,
    schedule: List,
    violation: InvariantViolation,
    config: Optional[CampaignConfig] = None,
) -> ShrinkResult:
    """Minimize ``schedule`` while preserving ``violation.invariant``."""
    current = list(schedule)
    best = violation
    replays = 0
    chunk = max(1, len(current) // 2)
    while chunk >= 1:
        index = 0
        while index < len(current):
            if replays >= MAX_REPLAYS:
                return ShrinkResult(current, best, replays, len(schedule))
            candidate = current[:index] + current[index + chunk:]
            replays += 1
            result = _still_fails(seed, candidate, violation.invariant, config)
            if result is not None:
                current = candidate
                best = result.violation
            else:
                index += chunk
        chunk //= 2
    return ShrinkResult(current, best, replays, len(schedule))
