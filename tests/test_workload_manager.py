"""Workload manager: pools, slot admission, queueing, exit-path hygiene.

The safety contract under test: every admission ticket is released on
every exit path (success, error, cancel mid-query, mid-query failover,
degraded rejection), queue wait is charged into query latency, and the
``v_monitor`` workload tables report live slot state.  The closed loop's
throughput keeps the shapes of section 4.2 and Figures 11a and 12, and its
COPY requests write through the writers their sessions assign.
"""

from __future__ import annotations

from types import SimpleNamespace

import pytest

from repro import ColumnType, EnterpriseCluster, EonCluster
from repro.cluster.query_path import parse_select
from repro.common.oid import StorageId
from repro.errors import AdmissionRejected, QueryCancelled, ReproError, StorageUnavailable
from repro.obs.metrics import cluster_metrics
from repro.sql.parser import parse
from repro.wm import AdmissionController, GENERAL_POOL, PoolConfig
from repro.wm.driver import (
    BACKOFF_SECONDS,
    FAILOVER,
    Charge,
    ClosedLoopWorkload,
    CopyBatch,
    WorkloadRecord,
    WorkloadResult,
    _hold_seconds,
    run_closed_loop,
)
from repro.workloads.iot import iot_batch, setup_iot_schema

SQL = "select g, count(*) c, sum(v) s from t group by g"


def ok_digests(result) -> list:
    """``(client, request, digest)`` of a run's successful requests."""
    return sorted((r.client, r.request, r.digest) for r in result.records if r.outcome == "ok")


def run_serial_reference(cluster, workload, result_key=None) -> WorkloadResult:
    """The closed loop's (client, request, seed) grid, one query at a time:
    the reference ``run_closed_loop`` is held to.  Sessions take the same
    per-request seeds, so each request reads the same subscriptions."""
    parsed = [(sql.strip(), parse_select(cluster, sql)) for sql in workload.statements]
    clock = cluster.clock
    start = clock.now
    result = WorkloadResult()
    for cid in range(workload.clients):
        for req in range(1, workload.requests_per_client + 1):
            sql, statement = parsed[workload.statement_index(cid, req)]
            outcome, digest, latency = "ok", None, 0.0
            try:
                session = cluster.create_session(
                    seed=workload.request_seed(cid, req), **dict(workload.session_options)
                )
                try:
                    answer = cluster.query_statement(
                        statement, session=session, request_text=sql,
                        failover=FAILOVER,
                    )
                finally:
                    session.release()
                result.completed += 1
                digest = result_key(answer) if result_key else None
                latency = answer.stats.latency_seconds
            except AdmissionRejected as exc:
                result.rejected += 1
                outcome = f"rejected:{exc.reason}"
            except ReproError as exc:
                result.errors += 1
                outcome = f"error:{type(exc).__name__}"
            result.records.append(
                WorkloadRecord(cid, req, sql, outcome, digest, latency, 0.0, clock.now)
            )
    result.duration_seconds = clock.now - start
    return result


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

    def test_queue_wait_charged_to_latency(self, eon):
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
                from repro.cluster.query_path import prepare, run

                pending = admission.enqueue(
                    prepare(statement, session).demand, session.initiator
                )
                yield pending.effect
                ticket = pending.granted()
                try:
                    holder["result"] = run(eon, statement, session, ticket=ticket)
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
        assert stats.queue_wait_seconds == holder["wait"]
        assert stats.dispatch_seconds == eon.cost_model.dispatch_seconds
        assert stats.latency_seconds >= stats.dispatch_seconds + 2.5
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


def throughput_cluster(cluster):
    """``cluster`` with the ``t`` table of :func:`make_eon` and a queue deep
    and patient enough that a closed loop is never rejected."""
    cluster.admission = AdmissionController(
        cluster, PoolConfig(max_queue_depth=512, queue_timeout_seconds=3600.0)
    )
    cluster.create_table(
        "t", [("k", ColumnType.INT), ("g", ColumnType.VARCHAR), ("v", ColumnType.INT)]
    )
    cluster.load("t", [(k, f"g{k % 5}", (k * 7) % 101) for k in range(400)])
    return cluster


def eon_nodes(count: int) -> EonCluster:
    return throughput_cluster(
        EonCluster([f"n{i}" for i in range(count)], shard_count=3, seed=11)
    )


def per_minute(cluster, clients: int, **options) -> float:
    """Throughput of ``clients`` clients, two requests each."""
    result = run_closed_loop(cluster, ClosedLoopWorkload(
        statements=(SQL,), clients=clients, requests_per_client=2, **options
    ))
    assert result.completed == 2 * clients
    return result.per_minute


def windows(cluster, seconds: float, events) -> list:
    """Completions per 30 s of an 8-client, ``seconds``-long loop of ~1 s
    queries, with ``events`` (``(at, callback)``) on the cluster's clock."""
    for at, callback in events:
        cluster.clock.schedule(at, callback)
    result = run_closed_loop(cluster, ClosedLoopWorkload(
        statements=(SQL,), clients=8, duration_seconds=seconds, service_scale=300.0,
    ))
    assert result.errors == result.rejected == result.stalled == 0
    return result.per_window(30.0, seconds)


class TestThroughputShapes:
    """Section 4.2's slot rule as the real query path runs it: a query holds
    S of the N x E slots, so throughput follows N at a fixed S and stops
    growing once the slots are full."""

    def test_eon_rises_from_three_to_six_to_nine_nodes(self):
        rates = {n: per_minute(eon_nodes(n), 40) for n in (3, 6, 9)}
        assert rates[6] > rates[3] * 1.4
        assert rates[9] > rates[6] * 1.2

    def test_throughput_flattens_past_the_slot_limit(self):
        # 3 nodes x 4 slots / 3 shards: 4 queries at once, then a queue.
        cluster = eon_nodes(3)
        low, high = per_minute(cluster, 4), per_minute(cluster, 32)
        # Equal in principle once the slots are full: the two sums may
        # differ in their last bits from summation order, no more.
        assert low * (1 - 1e-9) <= high <= low * 1.3

    def test_enterprise_falls_as_offered_load_grows(self):
        cluster = throughput_cluster(EnterpriseCluster([f"e{i}" for i in range(9)], seed=2))
        t10 = per_minute(cluster, 10, contention_per_client=0.0015)
        t70 = per_minute(cluster, 70, contention_per_client=0.0015)
        assert t70 < t10

    def test_a_kill_mid_run_degrades_without_a_cliff(self):
        cluster = eon_nodes(4)
        counts = windows(cluster, 300.0, [(150.0, lambda: cluster.kill_node("n1"))])
        before = sum(counts[:5]) / 5
        after = sum(counts[6:]) / 4
        assert before * 0.5 < after < before

    def test_a_kill_at_a_large_service_scale_stalls_no_window(self):
        # Fig 12's scale: ~3 ms queries held ~6 s each.  The queries the
        # kill catches fail over; their 0.1 s backoff is a pause, not query
        # work, so it must not be stretched into a 200 s slot hold.
        cluster = eon_nodes(4)
        cluster.clock.schedule(1200.0, lambda: cluster.kill_node("n1"))
        result = run_closed_loop(cluster, ClosedLoopWorkload(
            statements=(SQL,), clients=16, duration_seconds=2400.0,
            service_scale=2000.0,
        ))
        assert result.errors == result.rejected == result.stalled == 0
        counts = result.per_window(240.0, 2400.0)
        before = sum(counts[:5]) / 5
        assert min(counts[5:]) >= before / 2, counts

    def test_a_recover_restores_throughput(self):
        cluster = eon_nodes(4)
        counts = windows(cluster, 450.0, [
            (150.0, lambda: cluster.kill_node("n1")),
            (300.0, lambda: cluster.recover_node("n1")),
        ])
        assert sum(counts[-4:]) / 4 >= sum(counts[:5]) / 5 * 0.9


def one_client(cluster, requests: int = 3, **options) -> WorkloadResult:
    return run_closed_loop(cluster, ClosedLoopWorkload(
        statements=(SQL,), clients=1, requests_per_client=requests, **options
    ))


class TestClosedLoopInputs:
    """What each ``ClosedLoopWorkload`` input does to the loop's clock."""

    def test_hold_runs_node_busy_seconds_over_the_granted_lanes(self):
        # The busiest node's 3 s fragment bounds a query that has a lane
        # per node; on one lane the four fragments run end to end.
        def hold(lanes, backoff=0.0, **options):
            # 3 s on the busiest node, 0.5 s besides.
            charge = Charge([1.0, 3.0, 1.0, 1.0], 0.5, backoff, 3.7 + backoff)
            ticket = SimpleNamespace(total_slots=lanes)
            workload = ClosedLoopWorkload(statements=(SQL,), requests_per_client=1, **options)
            return _hold_seconds(charge, ticket, workload)

        assert hold(4) == pytest.approx(0.5 + 3.0)
        assert hold(1) == pytest.approx(0.5 + 6.0)
        assert hold(4, service_scale=2.0) == pytest.approx(2 * 3.5)
        assert hold(4, clients=5, contention_per_client=0.25) == pytest.approx(3.5 + 4 * 0.25)
        # A failover's backoff is a pause, not query work: added once, unscaled.
        assert hold(4, backoff=0.1) == pytest.approx(3.5 + 0.1)
        assert hold(4, backoff=0.1, service_scale=2000.0) == pytest.approx(2000 * 3.5 + 0.1)

    def test_service_scale_stretches_every_hold(self):
        base = one_client(make_eon())
        stretched = one_client(make_eon(), service_scale=4.0)
        assert stretched.duration_seconds == pytest.approx(4 * base.duration_seconds)
        assert [r.latency_seconds for r in stretched.records] == [
            r.latency_seconds for r in base.records
        ]

    def test_contention_charges_only_the_other_clients(self):
        assert one_client(make_eon(), contention_per_client=0.5).records == one_client(make_eon()).records
        calm = run_closed_loop(make_eon(), ClosedLoopWorkload(
            statements=(SQL,), clients=8, requests_per_client=1,
        ))
        crowded = run_closed_loop(make_eon(), ClosedLoopWorkload(
            statements=(SQL,), clients=8, requests_per_client=1, contention_per_client=0.5,
        ))
        assert crowded.duration_seconds >= calm.duration_seconds + 7 * 0.5

    def test_duration_bounds_when_a_request_may_start(self):
        result = run_closed_loop(make_eon(), ClosedLoopWorkload(
            statements=(SQL,), clients=3, duration_seconds=2.0, service_scale=10.0,
        ))
        late = [r.client for r in result.records if r.completed_at - result.started_at > 2.0]
        # Each client finishes the one request it started before the bound.
        assert sorted(late) == [0, 1, 2]
        assert result.completed > 3 * 10

    def test_session_options_reach_every_session(self, monkeypatch):
        cluster = make_eon()
        cluster.define_subcluster("pair", ["n1", "n3"])
        create = cluster.create_session
        layouts = []

        def spy(**options):
            session = create(**options)
            layouts.append({session.initiator, *session.participants()})
            return session

        monkeypatch.setattr(cluster, "create_session", spy)
        result = run_closed_loop(cluster, ClosedLoopWorkload(
            statements=(SQL,), clients=4, requests_per_client=2,
            session_options=(("subcluster", "pair"),),
        ))
        assert result.completed == len(layouts) == 8
        assert all(nodes <= {"n1", "n3"} for nodes in layouts)

    def test_a_failed_request_backs_off_and_the_loop_goes_on(self):
        cluster = make_eon()
        with pytest.raises(ReproError):
            for name in ("n1", "n2", "n3"):
                cluster.kill_node(name)
        result = one_client(cluster)
        assert result.errors == 3 and result.completed == 0
        assert [r.completed_at - result.started_at for r in result.records] == pytest.approx(
            [0.0, BACKOFF_SECONDS, 2 * BACKOFF_SECONDS]
        )

    def test_workload_takes_exactly_one_bound(self):
        with pytest.raises(ValueError):
            ClosedLoopWorkload(statements=(SQL,))
        with pytest.raises(ValueError):
            ClosedLoopWorkload(statements=(SQL,), requests_per_client=1, duration_seconds=1.0)
        with pytest.raises(ValueError):
            ClosedLoopWorkload(statements=(), requests_per_client=1)
        with pytest.raises(ValueError):
            ClosedLoopWorkload(statements=(SQL,), clients=0, requests_per_client=1)

    def test_per_window_counts_ok_completions(self):
        def at(seconds, outcome="ok"):
            return WorkloadRecord(0, 1, SQL, outcome, None, 0.0, 0.0, 100.0 + seconds)

        result = WorkloadResult(started_at=100.0, records=[
            at(1.0), at(29.0), at(31.0), at(44.0, "error:NodeDown"), at(65.0), at(95.0),
        ])
        # 0-30, 30-60, 60-90 (with 90-95 cut short); 95 s is past the end.
        assert result.per_window(30.0, 92.0) == [2, 1, 1]


def copies(cluster, clients: int = 8, requests: int = 4):
    """A closed loop of 300-row COPYs into two IoT streams; each ``ok``
    record's digest is its ``CopyReport``.  Returns the result and the rows
    the two tables hold after it."""
    batches = tuple(CopyBatch(*iot_batch(stream, 0, rows=300)) for stream in range(2))
    result = run_closed_loop(cluster, ClosedLoopWorkload(
        statements=batches, clients=clients, requests_per_client=requests,
    ), result_key=lambda report: report)
    stored = sum(
        cluster.query(f"select count(*) from metrics_{stream}").rows.to_pylist()[0][0]
        for stream in range(2)
    )
    return result, stored


class TestCopyRequests:
    """A COPY request queues for one slot per shard on each writer its
    session assigns, holds them for its busiest writer's upload seconds and
    gives them back on every exit path; what its ``ok`` records report
    loaded is what the tables hold."""

    @staticmethod
    def iot_eon(nodes: int = 3, **pool) -> EonCluster:
        cluster = EonCluster([f"n{i}" for i in range(nodes)], shard_count=3, seed=11)
        if pool:
            cluster.admission = AdmissionController(cluster, PoolConfig(**pool))
        setup_iot_schema(cluster, streams=2)
        return cluster

    @pytest.mark.parametrize("fault, pool, outcome", [
        (None, {}, "ok"),
        # n0 writes shard 0 for some sessions; the commit finds it gone.
        (lambda cluster: cluster.unsubscribe("n0", 0), {}, "error:TransactionAborted"),
        (lambda cluster: cluster.kill_node("n1"), {}, "error:NodeDown"),
        (None, {"queue_timeout_seconds": 0.01}, "rejected:timeout"),
    ], ids=["commit", "unsubscribed", "killed", "queue-timeout"])
    def test_every_exit_releases_and_ok_rows_are_stored(self, fault, pool, outcome):
        cluster = self.iot_eon(**pool)
        if fault:
            cluster.clock.schedule(0.05, lambda: fault(cluster))
        result, stored = copies(cluster)
        assert {r.outcome for r in result.records} == {"ok", outcome}
        assert_drained(cluster.admission)
        ok = [r for r in result.records if r.outcome == "ok"]
        assert sum(r.digest.rows_loaded for r in ok) == stored == result.completed * 300
        # The busiest writer's upload bounds each COPY.
        assert all(r.latency_seconds == r.queue_wait_seconds + max(r.digest.writer_seconds.values())
                   for r in ok)

    def test_each_shard_is_written_on_the_node_its_session_assigned(self, monkeypatch):
        cluster = self.iot_eon(nodes=6)
        create, commit = cluster.create_session, cluster.commit
        assigned, committed = [], []

        def session_spy(**options):
            session = create(**options)
            assigned.append(dict(session.assignment))
            return session

        def commit_spy(txn, **options):
            committed.append([op for op in txn.ops if op["op"] == "add_container"])
            return commit(txn, **options)

        monkeypatch.setattr(cluster, "create_session", session_spy)
        monkeypatch.setattr(cluster, "commit", commit_spy)
        # One client: each session's COPY is the commit that follows it (the
        # sessions after the sixth are the row counts').
        result, _ = copies(cluster, clients=1, requests=6)
        assert result.completed == len(committed) == 6
        minted_by = {node.sid_factory.instance_id: name for name, node in cluster.nodes.items()}
        for assignment, ops in zip(assigned, committed):
            assert len(ops) == 3
            for op in ops:
                sid = StorageId.parse(op["container"]["sid"])
                assert minted_by[sid.instance_id] == assignment[op["shard"]]
        # The sessions spread the writers: the round robin is not what held.
        assert len({tuple(sorted(a.items())) for a in assigned}) > 1
