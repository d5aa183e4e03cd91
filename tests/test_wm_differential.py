"""Differential audit: the concurrent admission-controlled query path
against the serial reference.

Two fresh, identically-seeded TPC-H clusters run the identical (client,
request, seed) grid — one through the closed-loop driver with 16
interleaved sessions, one strictly serially.  Concurrency must be
invisible in the results: bit-identical row digests and identical
per-node depot demand stats (hits/misses/insertions/bytes — the PR 3
order-invariance discipline; prefetch and peer fetch are disabled
because their counters legitimately depend on arrival order).

The second half is slot hygiene under mid-flight chaos: a node kill and
an S3 outage window land while 16 clients are in flight, and every pool
must still drain back to zero.
"""

from __future__ import annotations

import pytest

from repro import EonCluster
from repro.sim.oracle import rows_key
from repro.wm.driver import (
    ClosedLoopWorkload,
    run_closed_loop,
    run_serial_reference,
)
from repro.workloads.tpch import TPCH_QUERIES, load_tpch, setup_tpch_schema

TPCH_STATEMENTS = (
    TPCH_QUERIES[0].sql,  # Q1: lineitem aggregation
    TPCH_QUERIES[5].sql,  # Q6: forecast revenue
    "select count(*) from lineitem",
    "select o_orderpriority, count(*) c from orders "
    "group by o_orderpriority",
)


def build_tpch_cluster(tpch_data) -> EonCluster:
    cluster = EonCluster(["n1", "n2", "n3", "n4"], shard_count=4, seed=11)
    # The order-invariant reference arm: no peer probes, no fetch-ahead.
    cluster.io_scheduler.peer_fetch = cluster.io_scheduler.prefetch = False
    setup_tpch_schema(cluster)
    load_tpch(cluster, tpch_data)
    return cluster


def depot_demand(cluster):
    """Per-node demand-side depot counters (order-invariant under the
    serial-parity discipline; excludes prefetch/coalescing counters)."""
    return {
        name: (
            node.cache.stats.hits,
            node.cache.stats.misses,
            node.cache.stats.insertions,
            node.cache.stats.bytes_read,
            node.cache.stats.bytes_missed,
        )
        for name, node in sorted(cluster.nodes.items())
    }


class TestSerialConcurrentParity:
    def test_16_clients_match_serial_reference(self, tpch_data):
        workload = ClosedLoopWorkload(
            statements=TPCH_STATEMENTS,
            clients=16,
            requests_per_client=2,
            seed=21,
            service_scale=3.0,
        )
        concurrent_cluster = build_tpch_cluster(tpch_data)
        concurrent = run_closed_loop(
            concurrent_cluster, workload, result_key=rows_key
        )
        serial_cluster = build_tpch_cluster(tpch_data)
        serial = run_serial_reference(
            serial_cluster, workload, result_key=rows_key
        )

        assert concurrent.errors == 0 and concurrent.rejected == 0
        assert serial.errors == 0 and serial.rejected == 0
        assert concurrent.completed == serial.completed == 32
        # The whole point: 16-way interleaving was real ...
        assert concurrent.total_queue_wait_seconds > 0
        # ... and still invisible in every result row,
        assert concurrent.ok_digests() == serial.ok_digests()
        # ... and in every depot's demand profile.
        assert depot_demand(concurrent_cluster) == depot_demand(serial_cluster)
        # Both controllers drained.
        for cluster in (concurrent_cluster, serial_cluster):
            assert cluster.admission.total_in_use() == 0
            assert cluster.admission.active == {}


class TestMidFlightChaosDrains:
    def test_pools_drain_to_zero_through_kill_and_outage(self):
        cluster = EonCluster(
            ["n1", "n2", "n3", "n4"], shard_count=4, seed=11
        )
        cluster.execute("create table t (k int, g varchar, v int)")
        cluster.load(
            "t", [(k, f"g{k % 5}", (k * 7) % 101) for k in range(400)]
        )
        clock = cluster.clock

        def kill():
            cluster.kill_node("n4")

        def outage():
            if not cluster.shared.faults.outage_active:
                cluster.shared.faults.begin_outage(1.0)
                cluster.refresh_degraded()

        def clear_outage():
            cluster.refresh_degraded()

        clock.schedule(0.4, kill)
        clock.schedule(0.9, outage)
        clock.schedule(2.5, clear_outage)

        workload = ClosedLoopWorkload(
            statements=(
                "select g, count(*) c, sum(v) s from t group by g",
                "select count(*) from t where k < 200",
            ),
            clients=16,
            requests_per_client=3,
            seed=13,
            service_scale=40.0,
        )
        result = run_closed_loop(cluster, workload)

        # Conservation: every *recorded* request ended exactly one way.
        assert (
            result.completed + result.rejected + result.errors
            == len(result.records)
        )
        assert result.completed > 0  # chaos didn't starve the run outright
        # Slot hygiene on every exit path the chaos produced.
        admission = cluster.admission
        assert admission.total_in_use() == 0
        assert admission.active == {}
        assert admission.pending == 0
        for pool in admission.pools.values():
            assert pool.queued == 0
        # The cluster is still usable afterwards.
        cluster.refresh_degraded()
        assert cluster.query("select count(*) from t").rows

    def test_cancelled_waiters_drain_queue(self):
        """Admissions withdrawn while still queued leave no phantom queue
        entries or resumable effects behind."""
        cluster = EonCluster(["n1", "n2"], shard_count=2, seed=3)
        admission = cluster.admission
        hog = admission.admit({"n1": 4, "n2": 4}, "n1")
        waiters = [
            admission.enqueue({"n1": 1, "n2": 1}, "n1") for _ in range(5)
        ]
        assert admission.pending == 5
        for pending in waiters[:3]:
            pending.cancel()
        assert admission.pending == 2
        assert admission.cancel_waiting() == 2
        admission.release(hog)
        assert admission.total_in_use() == 0
        assert admission.pending == 0
        for pool in admission.pools.values():
            assert pool.queued == 0
        for resource in admission.node_slots.values():
            assert not resource._multi_waiters
