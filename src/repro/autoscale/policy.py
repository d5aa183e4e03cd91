"""Scaling policy: thresholds, hysteresis, cooldown.

The control loop is deliberately boring — *Taurus Database* (PAPERS.md)
frames elasticity as a frugality problem, and frugality wants a policy
whose every move is explainable after the fact.  The default
:class:`ThresholdPolicy` is a vote-counting hysteresis machine:

* a tick whose telemetry breaches the overload thresholds casts an *up*
  vote; ``up_votes`` consecutive votes trigger a scale-out;
* a quiet tick casts a *down* vote; ``down_votes`` consecutive votes
  trigger a scale-in (slower down than up — capacity mistakes in the
  shrink direction cost SLO, mistakes in the grow direction cost only
  dollars);
* a completely idle tick also casts a *hibernate* vote; a long idle
  streak puts the whole managed subcluster to sleep on shared storage;
* queued demand while hibernated triggers an immediate *revive* — the
  one decision that bypasses the cooldown, because a cooldown that
  delays wake-up turns frugality into an outage.

Any breach in the opposite direction resets a streak, and every
actuation starts a cooldown window during which the policy holds — the
classic guard against relay oscillation.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.autoscale.telemetry import TelemetrySample

#: Decision.action values.
HOLD = "hold"
SCALE_OUT = "scale_out"
SCALE_IN = "scale_in"
HIBERNATE = "hibernate"
REVIVE = "revive"

ACTIONS = (HOLD, SCALE_OUT, SCALE_IN, HIBERNATE, REVIVE)


@dataclass(frozen=True)
class PolicyConfig:
    """Thresholds and hysteresis for :class:`ThresholdPolicy`."""

    #: Mean queue wait per admission (seconds/tick) above which a tick
    #: votes to scale out.
    target_wait_seconds: float = 5.0
    #: Fraction of admissions that queued above which a tick votes up.
    scale_out_pressure: float = 0.5
    #: Pressure at or below which a tick is quiet (votes down).
    scale_in_pressure: float = 0.05
    #: Consecutive up votes required before acting (fast up).
    up_votes: int = 2
    #: Consecutive down votes required before acting (slow down).
    down_votes: int = 3
    #: Consecutive fully idle ticks before hibernating the managed
    #: subcluster; 0 disables hibernation.
    hibernate_idle_votes: int = 6
    #: Seconds after any actuation during which the policy holds.
    cooldown_seconds: float = 600.0
    #: Managed-subcluster size bounds and per-action step.
    min_nodes: int = 0
    max_nodes: int = 4
    scale_step: int = 2


@dataclass(frozen=True)
class Decision:
    """What the policy wants done this tick (and why, for the events)."""

    action: str = HOLD
    count: int = 0
    reason: str = ""


@dataclass(frozen=True)
class ScalerStatus:
    """The actuator-side state the policy needs to decide."""

    #: Current managed-subcluster size (members not yet being removed).
    size: int = 0
    hibernated: bool = False
    #: A hibernate's drain is still in flight.
    hibernating: bool = False
    pending_removals: int = 0


class ThresholdPolicy:
    """Threshold + consecutive-vote hysteresis + cooldown (see module
    docstring for the state machine)."""

    def __init__(self, config: PolicyConfig = PolicyConfig()):
        self.config = config
        self._up = 0
        self._down = 0
        self._idle = 0
        self.last_action_at = float("-inf")

    def _acted(self, now: float) -> None:
        self._up = self._down = self._idle = 0
        self.last_action_at = now

    def decide(self, sample: TelemetrySample, status: ScalerStatus) -> Decision:
        cfg = self.config
        now = sample.at
        overloaded = (
            sample.overload > 0
            or sample.avg_wait_seconds > cfg.target_wait_seconds
            or sample.pressure > cfg.scale_out_pressure
            or sample.queue_depth > 0
        )
        demand = sample.admitted > 0 or sample.queue_depth > 0
        # Wake-up outranks everything: demand against a hibernated (or
        # mid-hibernate) subcluster revives immediately, cooldown or not.
        if (status.hibernated or status.hibernating) and demand:
            self._acted(now)
            return Decision(
                REVIVE,
                count=max(cfg.min_nodes, cfg.scale_step),
                reason="demand while hibernated",
            )
        if now - self.last_action_at < cfg.cooldown_seconds:
            return Decision(HOLD, reason="cooldown")
        if overloaded:
            self._up += 1
            self._down = 0
            self._idle = 0
            if self._up < cfg.up_votes:
                return Decision(
                    HOLD, reason=f"overload vote {self._up}/{cfg.up_votes}"
                )
            room = cfg.max_nodes - status.size
            if room <= 0:
                return Decision(HOLD, reason="overloaded but at max_nodes")
            self._acted(now)
            return Decision(
                SCALE_OUT,
                count=min(cfg.scale_step, room),
                reason=(
                    f"wait {sample.avg_wait_seconds:.2f}s, "
                    f"pressure {sample.pressure:.2f}, "
                    f"overload {sample.overload}"
                ),
            )
        self._up = 0
        self._idle = self._idle + 1 if sample.idle else 0
        quiet = (
            sample.pressure <= cfg.scale_in_pressure
            and sample.overload == 0
            and sample.queue_depth == 0
        )
        self._down = self._down + 1 if quiet else 0
        shrinkable = status.size - cfg.min_nodes
        if shrinkable > 0 and self._down >= cfg.down_votes:
            self._acted(now)
            return Decision(
                SCALE_IN,
                count=min(cfg.scale_step, shrinkable),
                reason=f"quiet for {cfg.down_votes} ticks",
            )
        if (
            cfg.hibernate_idle_votes
            and status.size > 0
            and not status.hibernated
            and not status.hibernating
            and self._idle >= cfg.hibernate_idle_votes
        ):
            self._acted(now)
            return Decision(
                HIBERNATE,
                count=status.size,
                reason=f"idle for {cfg.hibernate_idle_votes} ticks",
            )
        return Decision(HOLD, reason="steady")
