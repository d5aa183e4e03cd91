"""Figure 11b: throughput of concurrent COPY statements.

Paper setup: each COPY loads 50MB; 10-50 concurrent loaders; Eon at 3/6/9
nodes with 3 shards.  The shape to reproduce: COPY throughput grows with
node count (the writer role spreads over more subscribers), sublinearly
(the paper's own 9-node point is < 3x its 3-node point).

Each loader is a client of the closed loop (:mod:`repro.wm.driver`) whose
every request is a real COPY of a small IoT batch: the request's session
picks the writers (loads "run according to the selected mapping of nodes
to shards"), the COPY takes one execution slot per shard on each writer and
holds them for the seconds the write path charged its busiest writer.
"""

from __future__ import annotations

from repro import EonCluster
from repro.wm import AdmissionController
from repro.wm.driver import ClosedLoopWorkload, CopyBatch, WorkloadResult, run_closed_loop
from repro.workloads.iot import iot_batch, setup_iot_schema

from conftest import BENCH_POOL, emit, format_series

THREADS = [10, 30, 50]
#: Every COPY really runs (about 2 ms of real time each), so a point lasts 2
#: simulated seconds and a batch is 2 000 rows, not 50 MB: the nine points
#: take about 13 s.
DURATION_SECONDS = 2.0
BATCH_ROWS = 2000
STREAMS = 4


def _copies(n: int, threads: int) -> WorkloadResult:
    """``threads`` loaders COPYing into the IoT streams of a fresh ``n``-node
    cluster for :data:`DURATION_SECONDS` simulated seconds."""
    cluster = EonCluster([f"n{i}" for i in range(n)], shard_count=3, seed=2)
    cluster.admission = AdmissionController(cluster, BENCH_POOL)
    setup_iot_schema(cluster, streams=STREAMS)
    batches = tuple(CopyBatch(*iot_batch(s, 0, rows=BATCH_ROWS)) for s in range(STREAMS))
    result = run_closed_loop(cluster, ClosedLoopWorkload(
        statements=batches, clients=threads, duration_seconds=DURATION_SECONDS,
    ), result_key=lambda report: report)
    assert result.errors == result.rejected == result.stalled == 0
    reports = [r.digest for r in result.records]
    counts = [
        cluster.query(f"select count(*) from metrics_{s}").rows.to_pylist()[0][0]
        for s in range(STREAMS)
    ]
    assert sum(counts) == sum(r.rows_loaded for r in reports) == result.completed * BATCH_ROWS
    return result


def test_fig11b_copy_throughput(benchmark):
    runs = benchmark.pedantic(
        lambda: {f"Eon {n}n/3s": [_copies(n, t) for t in THREADS] for n in (3, 6, 9)},
        rounds=1, iterations=1,
    )
    series = {name: [r.per_minute for r in results] for name, results in runs.items()}
    emit(format_series(
        "Figure 11b — COPY statements per simulated minute",
        "threads", THREADS, series,
    ))
    reports = [rec.digest for results in runs.values() for r in results for rec in r.records]
    emit(
        f"IoT COPY: {len(reports)} statements, {sum(r.rows_loaded for r in reports)} rows, "
        f"{sum(r.containers_written for r in reports)} containers, "
        f"{sum(r.peer_pushes for r in reports)} peer cache pushes"
    )
    at_50 = {name: values[-1] for name, values in series.items()}
    assert at_50["Eon 6n/3s"] > at_50["Eon 3n/3s"] * 1.4
    assert at_50["Eon 9n/3s"] > at_50["Eon 6n/3s"] * 1.1
