"""Figure 12: throughput while killing 1 node of a 4-node, 3-shard cluster.

Paper setup: a ~6-second TPC-H-ish query stream, throughput counted per
4-minute window, one node killed mid-run.  The shape to reproduce: Eon's
"non-cliff performance scale down" — a smooth, modest drop — versus
Enterprise, whose buddy node must do double work (cliff).

Every request runs through the closed-loop driver (:mod:`repro.wm.driver`)
on the real query path; ``service_scale`` stretches the dash query's
modeled service time to the paper's ~6 s, and the kill is an event on the
cluster's clock, so requests queued or executing across it fail over as
they would in the system.
"""

from __future__ import annotations

import pytest

from repro.shell import format_table
from repro.wm.driver import ClosedLoopWorkload, run_closed_loop

from conftest import DASH_QUERY, dash_enterprise, dash_eon, emit

WINDOW = 240.0
DURATION = 4800.0
KILL_AT = 2400.0
CLIENTS = 16
#: The dash query's ~3 ms of modeled service time, stretched to ~6 s.
SERVICE_SCALE = 2000.0


def _windows(cluster, duration: float, events) -> list:
    """Completions per ``WINDOW`` of a ``duration``-second closed loop, with
    ``events`` (``(at, callback)``) scheduled on the cluster's clock."""
    for at, callback in events:
        cluster.clock.schedule(at, callback)
    result = run_closed_loop(cluster, ClosedLoopWorkload(
        statements=(DASH_QUERY,), clients=CLIENTS, duration_seconds=duration,
        service_scale=SERVICE_SCALE,
    ))
    assert result.errors == result.rejected == result.stalled == 0
    return result.per_window(WINDOW, duration)


def _kill_second(cluster) -> list:
    return [(KILL_AT, lambda: cluster.kill_node(sorted(cluster.nodes)[1]))]


def _kill_runs() -> tuple:
    """Each flavor's windows, a node killed at ``KILL_AT``: (Eon, Enterprise)."""
    eon = dash_eon(4, seed=3)
    ent = dash_enterprise(4, seed=3)
    return _windows(eon, DURATION, _kill_second(eon)), _windows(ent, DURATION, _kill_second(ent))


def _drops(eon: list, ent: list) -> tuple:
    """(Eon drop, Enterprise drop, Eon's pre-kill mean): each flavor's mean
    after the kill window against its mean before it."""
    kill_window = int(KILL_AT // WINDOW)

    def means(windows):
        return (sum(windows[:kill_window]) / kill_window,
                sum(windows[kill_window + 1:]) / (len(windows) - kill_window - 1))

    (eon_before, eon_after), (ent_before, ent_after) = means(eon), means(ent)
    return 1 - eon_after / eon_before, 1 - ent_after / ent_before, eon_before


def test_fig12_node_kill_throughput(benchmark):
    box = {}

    def run():
        box["eon"], box["ent"] = _kill_runs()
        return box

    benchmark.pedantic(run, rounds=1, iterations=1)
    eon, ent = box["eon"], box["ent"]
    kill_window = int(KILL_AT // WINDOW)
    rows = [
        [i, count, ent[i], "<- kill" if i == kill_window else ""]
        for i, count in enumerate(eon)
    ]
    emit(format_table(
        "Figure 12 — queries per 4-minute window, kill 1 of 4 nodes",
        ["window", "Eon 4n/3s", "Enterprise 4n", ""],
        rows,
    ))

    eon_drop, ent_drop, eon_before = _drops(eon, ent)
    emit(f"Eon drop: {eon_drop:.0%}   Enterprise drop: {ent_drop:.0%}")

    # Acceptance: Eon degrades smoothly, Enterprise falls off a cliff.
    assert 0.0 < eon_drop < 0.40
    # No stall either: every Eon window after the kill keeps half the
    # pre-kill rate (Enterprise's buddy is meant to fall off a cliff).
    assert min(eon[kill_window:]) >= eon_before / 2
    assert ent_drop > 0.40
    assert ent_drop > eon_drop * 1.5


def test_fig12_recovery_restores_throughput(benchmark):
    """Extension of Figure 12: the node rejoins and throughput returns."""
    box = {}

    def run():
        cluster = dash_eon(4, seed=3)
        box["windows"] = _windows(cluster, 7200.0, [
            (2400.0, lambda: cluster.kill_node("n1")),
            (4800.0, lambda: cluster.recover_node("n1")),
        ])
        return box

    benchmark.pedantic(run, rounds=1, iterations=1)
    windows = box["windows"]
    start = sum(windows[:10]) / 10
    end = sum(windows[-8:]) / 8
    emit(f"Figure 12 recovery: {start:.0f} queries per window at the start, {end:.0f} at the end")
    assert end >= start * 0.9
