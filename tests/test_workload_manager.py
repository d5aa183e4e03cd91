"""Workload manager: pools, slot admission, queueing, exit-path hygiene.

The safety contract under test: every admission ticket is released on
every exit path (success, error, cancel mid-query, mid-query failover,
degraded rejection), queue wait is charged into query latency, and the
``v_monitor`` workload tables report live slot state.
"""

from __future__ import annotations

import pytest

from repro import ColumnType, EnterpriseCluster, EonCluster
from repro.errors import AdmissionRejected, QueryCancelled, StorageUnavailable
from repro.obs.metrics import cluster_metrics
from repro.sql.parser import parse
from repro.wm import AdmissionController, GENERAL_POOL, PoolConfig
from repro.wm.driver import (
    ClosedLoopWorkload,
    run_closed_loop,
    run_serial_reference,
)

SQL = "select g, count(*) c, sum(v) s from t group by g"


def ok_digests(result) -> list:
    """``(client, request, digest)`` of a run's successful requests."""
    return sorted((r.client, r.request, r.digest) for r in result.records if r.outcome == "ok")


def make_eon(**kwargs) -> EonCluster:
    cluster = EonCluster(
        ["n1", "n2", "n3", "n4"], shard_count=4, seed=11, **kwargs
    )
    cluster.execute("create table t (k int, g varchar, v int)")
    cluster.load("t", [(k, f"g{k % 5}", (k * 7) % 101) for k in range(400)])
    return cluster


@pytest.fixture
def eon() -> EonCluster:
    return make_eon()


def assert_drained(admission: AdmissionController) -> None:
    assert admission.total_in_use() == 0
    assert admission.active == {}
    assert admission.pending == 0
    for pool in admission.pools.values():
        assert pool.queued == 0


class TestPools:
    def test_pools_track_nodes_and_slots(self, eon):
        admission = eon.admission
        pool = admission.pools[GENERAL_POOL]
        assert pool.members == sorted(eon.nodes)
        for name, node in eon.nodes.items():
            assert admission.node_slots[name].capacity == node.execution_slots
        assert admission.pool_capacity(pool) == sum(
            n.execution_slots for n in eon.nodes.values()
        )

    def test_subcluster_gets_its_own_pool(self, eon):
        eon.define_subcluster("reporting", ["n3", "n4"])
        eon.admission.refresh()
        assert eon.admission.pools["reporting"].members == ["n3", "n4"]
        assert eon.admission.pools[GENERAL_POOL].members == ["n1", "n2"]
        assert eon.admission.pool_for("n4").name == "reporting"
        assert eon.admission.pool_for("n1").name == GENERAL_POOL

    def test_topology_changes_resize_resources(self, eon):
        eon.add_node("extra0")
        eon.admission.refresh()
        assert "extra0" in eon.admission.node_slots
        eon.remove_node("extra0")
        eon.admission.refresh()
        assert "extra0" not in eon.admission.node_slots

    def test_clamp_caps_demand_at_capacity(self, eon):
        ticket = eon.admission.admit({"n1": 99}, "n1")
        try:
            assert ticket.demand == {"n1": eon.nodes["n1"].execution_slots}
            assert (
                eon.admission.slots_in_use("n1")
                == eon.nodes["n1"].execution_slots
            )
        finally:
            eon.admission.release(ticket)
        assert_drained(eon.admission)


class TestSynchronousPath:
    def test_queries_admit_and_release_transparently(self, eon):
        for _ in range(3):
            result = eon.query(SQL)
            assert result.rows
            assert_drained(eon.admission)
        assert eon.admission.pools[GENERAL_POOL].admitted >= 3

    def test_busy_slots_reject_sync_callers(self, eon):
        admission = eon.admission
        hogs = [
            admission.admit({name: node.execution_slots}, "n1")
            for name, node in sorted(eon.nodes.items())
        ]
        with pytest.raises(AdmissionRejected) as exc_info:
            eon.query(SQL)
        assert exc_info.value.reason == "busy"
        assert admission.pools[GENERAL_POOL].rejected_busy == 1
        for hog in hogs:
            admission.release(hog)
        assert_drained(admission)
        assert eon.query(SQL).rows  # recovered

    def test_rejection_does_not_leak_partial_grants(self, eon):
        """A sync rejection must not leave slots taken on the free nodes."""
        admission = eon.admission
        hog = admission.admit(
            {"n1": eon.nodes["n1"].execution_slots}, "n1"
        )
        demand = {name: 1 for name in sorted(eon.nodes)}
        with pytest.raises(AdmissionRejected):
            admission.admit(demand, "n2")
        assert admission.total_in_use() == hog.total_slots
        admission.release(hog)
        assert_drained(admission)

    def test_enterprise_queries_admit_on_every_node(self):
        cluster = EnterpriseCluster(["e1", "e2", "e3"], seed=7)
        cluster.create_table(
            "t", [("k", ColumnType.INT), ("g", ColumnType.VARCHAR),
                  ("v", ColumnType.INT)]
        )
        cluster.load("t", [(k, f"g{k % 5}", k) for k in range(100)])
        assert cluster.query(SQL).rows
        assert_drained(cluster.admission)
        assert cluster.admission.pools[GENERAL_POOL].admitted >= 1


class TestQueuedPath:
    def test_queue_wait_lands_in_latency(self, eon):
        workload = ClosedLoopWorkload(
            statements=(SQL,), clients=12, requests_per_client=3, seed=3,
            service_scale=5.0,
        )
        result = run_closed_loop(eon, workload)
        assert result.errors == 0 and result.rejected == 0
        assert result.completed == 36
        assert sum(r.queue_wait_seconds for r in result.records) > 0
        waited = [r for r in result.records if r.queue_wait_seconds > 0]
        assert waited, "12 clients on 16 slots must queue"
        for record in waited:
            assert record.latency_seconds >= record.queue_wait_seconds
        assert_drained(eon.admission)

    def test_queue_wait_charged_to_dispatch_and_profile(self, eon):
        """The wait shows up inside the engine's own accounting, not just
        the driver's records."""
        admission = eon.admission
        hog = admission.admit({n: 4 for n in sorted(eon.nodes)}, "n1")
        holder = {}

        def release_later():
            admission.release(hog)

        def one_query():
            session = eon.create_session(seed=5)
            try:
                statement = parse(SQL)[0]
                from repro.cluster.query_path import prepare

                pending = admission.enqueue(
                    prepare(statement, session).demand, session.initiator
                )
                yield pending.effect
                ticket = pending.granted()
                try:
                    holder["result"] = eon.query_statement(
                        statement, session=session, ticket=ticket
                    )
                    holder["wait"] = ticket.queue_wait_seconds
                finally:
                    admission.release(ticket)
            finally:
                session.release()

        eon.clock.schedule(2.5, release_later)
        eon.clock.spawn(one_query())
        eon.clock.run()
        assert holder["wait"] == pytest.approx(2.5)
        stats = holder["result"].stats
        assert stats.dispatch_seconds >= 2.5
        assert stats.latency_seconds >= 2.5
        assert_drained(admission)

    def test_queue_full_rejects(self, eon):
        eon.admission = AdmissionController(
            eon, PoolConfig(max_queue_depth=2, queue_timeout_seconds=30.0)
        )
        workload = ClosedLoopWorkload(
            statements=(SQL,), clients=20, requests_per_client=1, seed=4,
            service_scale=50.0,
        )
        result = run_closed_loop(eon, workload)
        assert result.rejected > 0
        assert result.completed + result.rejected + result.errors == 20
        pool = eon.admission.pools[GENERAL_POOL]
        # The first overflow rejects with queue_full and trips the shed
        # breaker; arrivals during the cooldown are shed instead.
        assert pool.rejected_queue_full + pool.sheds == result.rejected
        assert pool.rejected_queue_full > 0
        assert any(
            r.outcome == "rejected:queue_full" for r in result.records
        )
        assert_drained(eon.admission)

    def test_queue_timeout_rejects(self, eon):
        eon.admission = AdmissionController(
            eon, PoolConfig(max_queue_depth=64, queue_timeout_seconds=0.01)
        )
        workload = ClosedLoopWorkload(
            statements=(SQL,), clients=16, requests_per_client=2, seed=5,
            service_scale=200.0,
        )
        result = run_closed_loop(eon, workload)
        assert result.completed + result.rejected == 32
        assert result.rejected > 0
        pool = eon.admission.pools[GENERAL_POOL]
        assert pool.timeouts == result.rejected
        assert any(r.outcome == "rejected:timeout" for r in result.records)
        assert_drained(eon.admission)

    def test_closed_loop_determinism(self):
        def run_once():
            cluster = make_eon()
            workload = ClosedLoopWorkload(
                statements=(SQL, "select count(*) from t where k < 200"),
                clients=8, requests_per_client=3, seed=9, service_scale=3.0,
            )
            from repro.sim.oracle import rows_key

            return run_closed_loop(cluster, workload, result_key=rows_key)

        first, second = run_once(), run_once()
        assert first.records == second.records
        assert first.duration_seconds == second.duration_seconds

    def test_concurrent_matches_serial_digests(self):
        from repro.sim.oracle import rows_key

        workload = ClosedLoopWorkload(
            statements=(SQL, "select sum(v) from t where k >= 100"),
            clients=6, requests_per_client=2, seed=6, service_scale=4.0,
        )
        concurrent = run_closed_loop(make_eon(), workload, result_key=rows_key)
        serial = run_serial_reference(make_eon(), workload, result_key=rows_key)
        assert concurrent.errors == serial.errors == 0
        assert ok_digests(concurrent) == ok_digests(serial)


class TestExitPaths:
    def test_cancel_before_execution_releases_slots(self, eon):
        session = eon.create_session(seed=1)
        session.cancel()
        with pytest.raises(QueryCancelled):
            eon.query_statement(parse(SQL)[0], session=session)
        session.release()
        assert_drained(eon.admission)

    def test_cancel_mid_scan_releases_slots(self, eon, monkeypatch):
        from repro.shared_storage.s3 import SimulatedS3

        for node in eon.nodes.values():
            node.cache.clear()
        session = eon.create_session(seed=1)
        calls = {"n": 0}
        original_read = SimulatedS3.read
        original_coalesced = SimulatedS3.read_coalesced

        def note_call():
            calls["n"] += 1
            if calls["n"] == 2:
                session.cancel()

        def cancelling_read(fs, name):
            note_call()
            return original_read(fs, name)

        def cancelling_coalesced(fs, names):
            note_call()
            return original_coalesced(fs, names)

        monkeypatch.setattr(SimulatedS3, "read", cancelling_read)
        monkeypatch.setattr(
            SimulatedS3, "read_coalesced", cancelling_coalesced
        )
        with pytest.raises(QueryCancelled):
            eon.query_statement(parse(SQL)[0], session=session)
        session.release()
        assert_drained(eon.admission)

    def test_mid_query_failover_releases_slots(self, eon):
        session = eon.create_session(seed=2)
        victim = next(
            p for p in sorted(session.participants())
            if p != session.initiator
        )
        eon.kill_node(victim)
        result = eon.query_statement(
            parse(SQL)[0], session=session, failover=True
        )
        assert result.rows
        session.release()
        assert_drained(eon.admission)
        # The failed attempt admitted and released its own ticket too.
        assert eon.admission.pools[GENERAL_POOL].admitted >= 2

    def test_degraded_rejection_releases_slots(self, eon):
        for node in eon.nodes.values():
            node.cache.clear()  # force the scan to shared storage
        eon.shared.faults.begin_outage(60.0)
        eon.refresh_degraded()
        with pytest.raises(StorageUnavailable):
            eon.query(SQL)
        assert_drained(eon.admission)


class TestMonitorTables:
    def test_slots_in_use_column_tracks_tickets(self, eon):
        ticket = eon.admission.admit({"n2": 2}, "n2")
        try:
            result = eon.query(
                "select node_name, execution_slots, slots_in_use "
                "from v_monitor.resource_usage"
            )
            by_node = {r[0]: r for r in result.rows.to_pylist()}
            assert by_node["n2"][2] == 2
            for _name, slots, in_use in result.rows.to_pylist():
                assert 0 <= in_use <= slots
        finally:
            eon.admission.release(ticket)
        result = eon.query(
            "select slots_in_use from v_monitor.resource_usage"
        )
        assert all(row[0] == 0 for row in result.rows.to_pylist())

    def test_slots_in_use_never_exceeds_execution_slots(self, eon):
        """Even a deliberately over-subscribed demand clamps to capacity,
        so the monitor column can never exceed ``execution_slots``."""
        tickets = [
            eon.admission.admit({name: 99}, name)
            for name in sorted(eon.nodes)
        ]
        try:
            result = eon.query(
                "select execution_slots, slots_in_use "
                "from v_monitor.resource_usage"
            )
            rows = result.rows.to_pylist()
            assert rows
            for slots, in_use in rows:
                assert in_use == slots  # full, but never over
        finally:
            for ticket in tickets:
                eon.admission.release(ticket)
        assert_drained(eon.admission)

    def test_resource_pools_and_queues_tables(self, eon):
        workload = ClosedLoopWorkload(
            statements=(SQL,), clients=10, requests_per_client=2, seed=8,
            service_scale=5.0,
        )
        run_closed_loop(eon, workload)
        pools = eon.query(
            "select pool_name, node_count, capacity, slots_in_use, "
            "admitted from v_monitor.resource_pools"
        )
        row = next(r for r in pools.rows.to_pylist() if r[0] == GENERAL_POOL)
        assert row[1] == len(eon.nodes)
        assert row[2] == sum(n.execution_slots for n in eon.nodes.values())
        assert row[3] == 0
        assert row[4] >= 20
        queues = eon.query(
            "select pool_name, queue_depth, peak_queue_depth, "
            "queued_admissions, queue_wait_seconds "
            "from v_monitor.resource_queues"
        )
        row = next(r for r in queues.rows.to_pylist() if r[0] == GENERAL_POOL)
        assert row[1] == 0
        assert row[2] >= 1
        assert row[3] >= 20
        assert row[4] > 0

    def test_wm_metrics_section(self, eon):
        workload = ClosedLoopWorkload(
            statements=(SQL,), clients=8, requests_per_client=2, seed=10,
            service_scale=5.0,
        )
        run_closed_loop(eon, workload)
        wm = cluster_metrics(eon)["wm"]
        assert wm["slots_in_use"] == 0
        assert wm["active_queries"] == 0
        assert wm["pending_admissions"] == 0
        pool = wm["pools"][GENERAL_POOL]
        assert pool["admitted"] >= 16
        assert pool["queued"] == 0
        assert pool["peak_queue_depth"] >= 1
        assert pool["queue_wait_seconds"] > 0
