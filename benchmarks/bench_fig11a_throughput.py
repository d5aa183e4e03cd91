"""Figure 11a: elastic throughput scaling of the customer short query.

Paper setup: ~100ms multi-join dashboard query; Eon at 3/6/9 nodes with 3
shards vs Enterprise at 9 nodes; 10-70 client threads.  The shapes to
reproduce: near-linear Eon scale-out 3->6->9 at fixed shard count, and an
Enterprise 9-node curve that degrades as concurrency grows ("the
additional compute resources are not worth the overhead of assembling
them").

The closed-loop driver (:mod:`repro.wm.driver`) pushes every request
through the real query path: session creation, planning, per-node slot
demand, the admission controller's queue, and actual execution against
loaded data.  Throughput is completions over simulated time, with queue
wait charged to dispatch.
"""

from __future__ import annotations

import pytest

from repro.wm.driver import ClosedLoopWorkload, run_closed_loop

from conftest import DASH_QUERY, dash_enterprise, dash_eon, emit, format_series

THREADS = [10, 30, 50, 70]
#: Fixed work per cell: throughput = completions / (last completion - start).
REQUESTS_PER_CLIENT = 4


def _measured(cluster, threads: int, contention_per_client: float = 0.0) -> float:
    workload = ClosedLoopWorkload(
        statements=(DASH_QUERY,),
        clients=threads,
        requests_per_client=REQUESTS_PER_CLIENT,
        seed=7,
        contention_per_client=contention_per_client,
    )
    result = run_closed_loop(cluster, workload)
    assert result.errors == 0, "bench workload must not error"
    assert result.rejected == 0, "bench pool must absorb the whole backlog"
    assert result.stalled == 0
    assert result.completed == threads * REQUESTS_PER_CLIENT
    return result.per_minute


def _measured_series():
    series = {}
    for n in (3, 6, 9):
        cluster = dash_eon(n)
        series[f"Eon {n}n/3s"] = [_measured(cluster, t) for t in THREADS]
    enterprise = dash_enterprise(9)
    # Enterprise pays per-offered-session coordination: every node handles
    # every query's setup, admitted or not — the paper's "overhead of
    # assembling" additional compute.
    series["Enterprise 9n"] = [
        _measured(enterprise, t, contention_per_client=0.0015) for t in THREADS
    ]
    return series


def _check_shapes(series) -> None:
    """Acceptance criteria: shapes, not absolutes."""
    at_70 = {name: values[-1] for name, values in series.items()}
    # Near-linear Eon scale-out at high concurrency: 3 shards on 3/6/9 nodes.
    assert 1.5 < at_70["Eon 6n/3s"] / at_70["Eon 3n/3s"] < 2.6
    assert 2.2 < at_70["Eon 9n/3s"] / at_70["Eon 3n/3s"] < 3.6
    # Enterprise 9n below Eon 9n everywhere.
    for i, _t in enumerate(THREADS):
        assert series["Enterprise 9n"][i] < series["Eon 9n/3s"][i]
    # Enterprise degrades with offered load.
    ent = series["Enterprise 9n"]
    assert ent[-1] < ent[0]


def test_fig11a_elastic_throughput(benchmark):
    series_box = {}

    def run():
        series_box["measured"] = _measured_series()
        return series_box["measured"]

    benchmark.pedantic(run, rounds=1, iterations=1)
    measured = series_box["measured"]
    emit(format_series(
        "Figure 11a — short-query throughput, measured closed loop "
        "(queries/minute)",
        "threads", THREADS, measured,
    ))
    _check_shapes(measured)


def test_fig11a_eon_flat_across_threads_when_saturated(benchmark):
    """Past the slot limit, Eon throughput holds steady (no collapse) —
    measured through the real admission queue."""

    def run():
        cluster = dash_eon(3)
        return [_measured(cluster, t) for t in THREADS]

    values = benchmark.pedantic(run, rounds=1, iterations=1)
    assert max(values) < min(values) * 1.25
