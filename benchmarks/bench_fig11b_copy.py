"""Figure 11b: throughput of concurrent 50MB COPY statements.

Paper setup: each COPY loads 50MB; 10-50 concurrent loaders; Eon at 3/6/9
nodes with 3 shards.  The shape to reproduce: COPY throughput grows with
node count (the writer role spreads over more subscribers), sublinearly
(the paper's own 9-node point is < 3x its 3-node point).

COPY takes no admission slots (section 4.5), so the closed-loop query
driver (:mod:`repro.wm.driver`) does not run it.  The loop here is its own
small model on the simulation clock: each loader opens a session (the real
max-flow assignment against the live cluster picks the writers: loads "run
according to the selected mapping of nodes to shards"), takes one execution
slot on every writer, holds them for the busiest writer's share of the
upload and parse plus a commit round, and repeats.
"""

from __future__ import annotations

from collections import Counter

import pytest

from repro import EonCluster
from repro.common.clock import AcquireAll, Resource, SimClock, Timeout
from repro.load.copy import copy_into
from repro.workloads.iot import iot_batch, setup_iot_schema

from conftest import emit, format_series

THREADS = [10, 30, 50]
DURATION_SECONDS = 60.0
BATCH_BYTES = 50 << 20
#: Ingest parse/encode throughput, bytes per second.
PARSE_BYTES_PER_SECOND = 200e6
#: The commit round, and its messaging per participating writer.
COMMIT_SECONDS = 0.004
COMMIT_SECONDS_PER_WRITER = 0.001


def _eon(n: int) -> EonCluster:
    return EonCluster([f"n{i}" for i in range(n)], shard_count=3, seed=2)


def _copies_per_minute(cluster, threads: int) -> float:
    """COPY statements completed per simulated minute by ``threads``
    loaders, each batch split over the shard writers."""
    shards = cluster.shard_map.count
    upload = cluster.shared_data.estimate_write_seconds(int(BATCH_BYTES / shards))
    parse_cpu = BATCH_BYTES / PARSE_BYTES_PER_SECOND
    # Each shard's writer uploads its part and parses its slice; a writer
    # serving two shards pays twice, and the busiest one bounds the COPY.
    work_seconds = (upload + parse_cpu / shards) * shards
    clock = SimClock()
    slots = {
        name: Resource(node.execution_slots, name=name)
        for name, node in cluster.nodes.items()
    }
    completed = [0]

    def loader(client: int):
        request = 0
        while clock.now < DURATION_SECONDS:
            request += 1
            session = cluster.create_session(seed=client * 10_007 + request)
            try:
                writers = Counter(session.assignment.values())
            finally:
                session.release()
            grant = AcquireAll([slots[name] for name in sorted(writers)])
            yield grant
            yield Timeout(
                work_seconds * max(writers.values()) / shards
                + COMMIT_SECONDS
                + COMMIT_SECONDS_PER_WRITER * len(writers)
            )
            grant.release()
            if clock.now <= DURATION_SECONDS:
                completed[0] += 1

    for client in range(threads):
        clock.spawn(loader(client))
    clock.run(until=DURATION_SECONDS)
    return completed[0] * 60.0 / DURATION_SECONDS


def _series() -> dict:
    series = {}
    for n in (3, 6, 9):
        cluster = _eon(n)
        series[f"Eon {n}n/3s"] = [_copies_per_minute(cluster, t) for t in THREADS]
    return series


def test_fig11b_copy_throughput(benchmark):
    box = {}

    def run():
        box["series"] = _series()
        return box["series"]

    benchmark.pedantic(run, rounds=1, iterations=1)
    series = box["series"]
    emit(format_series(
        "Figure 11b — 50MB COPY statements per minute",
        "threads", THREADS, series,
    ))
    at_50 = {name: values[-1] for name, values in series.items()}
    assert at_50["Eon 6n/3s"] > at_50["Eon 3n/3s"] * 1.4
    assert at_50["Eon 9n/3s"] > at_50["Eon 6n/3s"] * 1.1


def test_fig11b_real_copy_path_iot(benchmark, capsys):
    """Drive the *actual* COPY code with IoT batches (correctness +
    measured write amplification of the Figure 8 workflow)."""
    cluster = _eon(3)
    setup_iot_schema(cluster, streams=4)

    def run():
        reports = []
        for seq in range(3):
            for stream in range(4):
                table, rows = iot_batch(stream, seq, rows=800)
                reports.append(copy_into(cluster, table, rows))
        return reports

    reports = benchmark.pedantic(run, rounds=1, iterations=1)
    loaded = sum(r.rows_loaded for r in reports)
    assert loaded == 3 * 4 * 800
    total = cluster.query("select count(*) from metrics_0").rows.to_pylist()
    assert total == [(2400,)]
    emit(
        f"IoT COPY: {len(reports)} statements, {loaded} rows, "
        f"{sum(r.containers_written for r in reports)} containers, "
        f"{sum(r.peer_pushes for r in reports)} peer cache pushes"
    )
