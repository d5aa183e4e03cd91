"""Diurnal/bursty traffic shaping for the closed-loop driver.

The 24h trace is a sequence of fixed-length epochs; each epoch gets a
client count from a deterministic diurnal curve (night trough, morning
ramp, daytime plateau, evening ramp-down) plus seeded random bursts —
the thundering-herd moments that make an autoscaler earn its keep.
Burst draws come from the generator's own ``random.Random(seed)``
stream, consumed strictly one draw per epoch in order, so a profile is a
pure function of ``(seed, epoch_index)`` history and two runs of the
same trace see identical offered load.
"""

from __future__ import annotations

import random
from dataclasses import dataclass


#: Diurnal breakpoints (hours): trough end, plateau start, plateau end,
#: trough start.
RAMP_UP_START = 6.0
PLATEAU_START = 10.0
PLATEAU_END = 18.0
RAMP_DOWN_END = 22.0


@dataclass(frozen=True)
class TrafficProfile:
    """Shape of one day of offered load."""

    #: Clients during the night trough (0 lets subclusters hibernate).
    night_clients: int = 0
    #: Clients on the daytime plateau.
    peak_clients: int = 24
    #: Probability an epoch's load spikes (drawn per epoch).
    burst_probability: float = 0.1
    #: Spike multiplier applied to the diurnal value.
    burst_multiplier: float = 2.0
    #: Simulated seconds per epoch.
    epoch_seconds: float = 900.0
    seed: int = 0

    def shape(self, hour: float) -> float:
        """Piecewise-linear diurnal intensity in [0, 1]."""
        h = hour % 24.0
        if h < RAMP_UP_START or h >= RAMP_DOWN_END:
            return 0.0
        if h < PLATEAU_START:
            return (h - RAMP_UP_START) / (PLATEAU_START - RAMP_UP_START)
        if h < PLATEAU_END:
            return 1.0
        return (RAMP_DOWN_END - h) / (RAMP_DOWN_END - PLATEAU_END)


class TrafficGenerator:
    """Yields per-epoch client counts for one simulated day (or more).

    Call :meth:`clients_for_epoch` with consecutive epoch indices (the
    trace runner does); each call consumes exactly one burst draw, which
    is what keeps the schedule reproducible.
    """

    def __init__(self, profile: TrafficProfile = TrafficProfile()):
        self.profile = profile
        self.rng = random.Random(profile.seed ^ 0xD1C0FFEE)
        self.bursts = 0

    def clients_for_epoch(self, index: int) -> int:
        profile = self.profile
        hour = index * profile.epoch_seconds / 3600.0
        base = profile.night_clients + profile.shape(hour) * (
            profile.peak_clients - profile.night_clients
        )
        clients = int(round(base))
        # One draw per epoch, burst or not: the stream position depends
        # only on how many epochs have been generated.
        draw = self.rng.random()
        if clients > 0 and draw < profile.burst_probability:
            clients = int(round(clients * profile.burst_multiplier))
            self.bursts += 1
        return clients
