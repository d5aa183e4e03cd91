"""Ablation (section 4.1): max-flow session layout vs naive assignment.

Two effects the flow formulation buys:
1. balance — max shard load per node stays minimal even with asymmetric
   subscriptions;
2. variation — different sessions use different subscribers, raising
   aggregate throughput because "the same nodes are not full serving the
   same shards for all queries".
"""

from __future__ import annotations

from collections import Counter

import pytest

from repro.shell import format_table
from repro.sharding.assignment import (
    naive_first_subscriber_assignment,
    select_participating_subscriptions,
)
from repro.wm.driver import ClosedLoopWorkload, run_closed_loop

from conftest import DASH_QUERY, dash_eon, emit

#: The dash query's ~3 ms of modeled service time, stretched to ~0.2 s.
SERVICE_SCALE = 65.0


def _subscribers():
    """Asymmetric layout: one hub node subscribes everywhere."""
    subs = {s: ["hub"] + [f"n{s}", f"n{(s + 1) % 6}"] for s in range(6)}
    return subs


def test_ablation_assignment_balance(benchmark):
    def run():
        subs = _subscribers()
        flow_loads, naive_loads = [], []
        for seed in range(50):
            flow = select_participating_subscriptions(range(6), subs, seed=seed)
            naive = naive_first_subscriber_assignment(range(6), subs)
            flow_loads.append(max(Counter(flow.values()).values()))
            naive_loads.append(max(Counter(naive.values()).values()))
        return sum(flow_loads) / 50, sum(naive_loads) / 50

    flow_avg, naive_avg = benchmark.pedantic(run, rounds=1, iterations=1)
    emit(format_table(
        "Ablation — avg max-shards-per-node over 50 sessions",
        ["strategy", "avg max load"],
        [["max-flow", flow_avg], ["naive first-subscriber", naive_avg]],
    ))
    assert naive_avg == 6.0  # everything lands on the hub
    assert flow_avg <= 2.0


def test_ablation_variation_raises_throughput(benchmark):
    """Fixed (seed-0) layout vs per-session variation, same cluster: the
    fixed arm runs every session on a subcluster of the three nodes the
    seed-0 layout picks."""
    box = {}

    def per_minute(cluster, session_options=()) -> float:
        result = run_closed_loop(cluster, ClosedLoopWorkload(
            statements=(DASH_QUERY,), clients=50, duration_seconds=60.0,
            service_scale=SERVICE_SCALE, session_options=session_options,
        ))
        assert result.errors == result.rejected == result.stalled == 0
        return result.per_minute

    def run():
        cluster = dash_eon(6)
        fixed = select_participating_subscriptions(
            cluster.shard_map.shard_ids(),
            {s: cluster.active_up_subscribers(s) for s in cluster.shard_map.shard_ids()},
            seed=0,
        )
        cluster.define_subcluster("fixed", sorted(set(fixed.values())))
        box["static"] = per_minute(cluster, (("subcluster", "fixed"),))
        box["varied"] = per_minute(cluster)
        return box

    benchmark.pedantic(run, rounds=1, iterations=1)
    emit(format_table(
        "Ablation — session-layout variation (queries/minute, 6n/3s)",
        ["strategy", "throughput"],
        [["fixed layout", box["static"]], ["per-session variation", box["varied"]]],
    ))
    # A fixed layout uses 3 of 6 nodes; variation uses all of them.
    assert box["varied"] > box["static"] * 1.5
