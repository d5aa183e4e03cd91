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

from repro import EonCluster
from repro.bench.harness import ServiceModel, run_query_throughput, run_throughput_sim
from repro.bench.reporting import format_table
from repro.sharding.assignment import (
    naive_first_subscriber_assignment,
    select_participating_subscriptions,
)

from conftest import emit

SERVICE = ServiceModel(work_seconds=0.1, coordination_base=0.003)


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
    """Fixed (seed-0) layout vs per-session variation, same cluster."""
    box = {}

    def run():
        cluster = EonCluster([f"n{i}" for i in range(6)], shard_count=3, seed=2)
        node_slots = {n: 4 for n in cluster.nodes}

        fixed = select_participating_subscriptions(
            cluster.shard_map.shard_ids(),
            {s: cluster.active_up_subscribers(s) for s in cluster.shard_map.shard_ids()},
            seed=0,
        )
        fixed_counts = dict(Counter(fixed.values()))
        static = run_throughput_sim(
            lambda seed: fixed_counts, SERVICE, 3, node_slots,
            threads=50, duration_seconds=60.0,
        )
        varied = run_query_throughput(cluster, SERVICE, threads=50,
                                      duration_seconds=60.0)
        box["static"] = static.per_minute
        box["varied"] = varied.per_minute
        return box

    benchmark.pedantic(run, rounds=1, iterations=1)
    emit(format_table(
        "Ablation — session-layout variation (queries/minute, 6n/3s)",
        ["strategy", "throughput"],
        [["fixed layout", box["static"]], ["per-session variation", box["varied"]]],
    ))
    # A fixed layout uses 3 of 6 nodes; variation uses all of them.
    assert box["varied"] > box["static"] * 1.5
