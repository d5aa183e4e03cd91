"""Telemetry sampling for the autoscaler's control loop.

The workload manager's pool counters are *monotone* (admissions, queue
waits, sheds accumulate forever) and its slot gauges are *instantaneous*
(between closed-loop runs everything drains to zero — that is the
``wm-slot-accounting`` invariant).  A policy cannot act on either alone:
the monotone counters never come back down and the gauges are almost
always zero when the control tick happens to run between queries.  So
the collector keeps the last counter snapshot per pool and hands the
policy *deltas since the previous tick* — admissions granted, queue
waits accrued, overload rejections (timeouts + sheds + queue-full) —
alongside the instantaneous queue depth.  Deltas over a fixed control
interval are rates; the policy's thresholds are therefore per-tick.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict


@dataclass
class TelemetrySample:
    """Aggregate admission telemetry for one control-loop tick.

    Counter fields are deltas since the previous sample; ``queue_depth``
    is instantaneous.
    """

    at: float = 0.0
    admitted: int = 0
    queued_admissions: int = 0
    queue_wait_seconds: float = 0.0
    timeouts: int = 0
    sheds: int = 0
    queue_full: int = 0
    queue_depth: int = 0

    @property
    def overload(self) -> int:
        """Rejections that mean 'capacity was not enough': queue timeouts,
        shed arrivals, and queue overflows.  A synchronous admission
        refused as busy is not counted — it declined to wait, it did not
        saturate."""
        return self.timeouts + self.sheds + self.queue_full

    @property
    def pressure(self) -> float:
        """Fraction of granted admissions that had to queue first."""
        if self.admitted <= 0:
            return 1.0 if self.queue_depth > 0 else 0.0
        return self.queued_admissions / self.admitted

    @property
    def avg_wait_seconds(self) -> float:
        """Mean queue wait per granted admission this tick."""
        if self.admitted <= 0:
            return 0.0
        return self.queue_wait_seconds / self.admitted

    @property
    def idle(self) -> bool:
        """No demand at all this tick."""
        return (
            self.admitted == 0
            and self.queued_admissions == 0
            and self.queue_depth == 0
            and self.overload == 0
        )


#: Pool counter names snapshotted for delta computation.
_COUNTERS = (
    "admitted",
    "queued_admissions",
    "queue_wait_seconds",
    "timeouts",
    "sheds",
    "rejected_queue_full",
)


class TelemetryCollector:
    """Delta-based sampler over the admission controller's pools."""

    def __init__(self, cluster):
        self.cluster = cluster
        #: Pool name -> counter name -> its value at the previous sample.
        self._last: Dict[str, Dict[str, float]] = {}

    def sample(self) -> TelemetrySample:
        admission = self.cluster.admission
        admission.refresh()
        out = TelemetrySample(at=self.cluster.clock.now)
        for name in sorted(admission.pools):
            pool = admission.pools[name]
            last = self._last.setdefault(name, {})
            for counter in _COUNTERS:
                value = getattr(pool, counter)
                delta = value - last.get(counter, 0)
                last[counter] = value
                if counter == "queue_wait_seconds":
                    out.queue_wait_seconds += delta
                elif counter == "rejected_queue_full":
                    out.queue_full += int(delta)
                else:
                    setattr(out, counter, getattr(out, counter) + int(delta))
            out.queue_depth += pool.queued
        return out
