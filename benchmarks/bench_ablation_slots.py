"""Ablation (section 4.2): execution slots vs shard count.

"For a database with S shards, N nodes, and E execution slots per node, a
running query requires S of the total N*E slots.  If S < E, then adding
individual nodes will result in linear scale-out performance, otherwise
batches of nodes will be required and performance improvement will look
more like a step function."

We sweep node count at fixed S=4 for E=8 (S < E: linear) and E=2 (S > E:
step function) and report throughput per node count.  Every request runs
through the closed-loop driver (:mod:`repro.wm.driver`): the slot demand
and its queue are the admission controller's.
"""

from __future__ import annotations

import pytest

from repro.wm.driver import ClosedLoopWorkload, run_closed_loop

from conftest import DASH_QUERY, dash_eon, emit, format_series

SHARDS = 4
NODE_COUNTS = [4, 5, 6, 7, 8]
#: The dash query's ~3 ms of modeled service time, stretched to ~0.2 s.
SERVICE_SCALE = 65.0


def _throughputs(slots: int):
    values = []
    for n in NODE_COUNTS:
        cluster = dash_eon(n, shards=SHARDS, execution_slots=slots)
        result = run_closed_loop(cluster, ClosedLoopWorkload(
            statements=(DASH_QUERY,), clients=60, duration_seconds=60.0,
            service_scale=SERVICE_SCALE,
        ))
        assert result.errors == result.rejected == result.stalled == 0
        values.append(result.per_minute)
    return values


def test_ablation_slots_vs_shards(benchmark):
    box = {}

    def run():
        box["many"] = _throughputs(slots=8)   # S < E
        box["few"] = _throughputs(slots=2)    # S > E
        return box

    benchmark.pedantic(run, rounds=1, iterations=1)
    emit(format_series(
        "Ablation — scale-out shape at S=4 shards (queries/minute)",
        "nodes", NODE_COUNTS,
        {"E=8 slots (S<E)": box["many"], "E=2 slots (S>E)": box["few"]},
    ))

    def gains(values):
        return [b - a for a, b in zip(values, values[1:])]

    # Each bound is a share of its series' 4-node throughput.
    many, few = box["many"], box["few"]
    # S < E: every individual node addition contributes real throughput.
    assert all(g > many[0] * 100 / 8888 for g in gains(many))
    # S > E: at least one single-node addition contributes (almost)
    # nothing while others jump — the paper's step function.
    assert min(gains(few)) < few[0] * 100 / 2222
    assert max(gains(few)) > few[0] * 300 / 2222
