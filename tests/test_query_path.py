"""The one query path (``repro.cluster.query_path``), on both cluster flavors.

Everything here runs the same statements through an Eon and an Enterprise
cluster and asks the same questions of both: what a query leaves in the
observability records, that recording never moves a row or a simulated
second, that a statement is bound once however it arrives, that a session
whose node died fails over, and that no exit leaves a slot held.
"""

from __future__ import annotations

import pytest

from repro import ColumnType, EnterpriseCluster, EonCluster
from repro.cluster import query_path
from repro.errors import (
    CatalogError,
    ExecutionError,
    NodeDown,
    QueryCancelled,
    ShardCoverageLost,
)
from repro.obs.system_tables import SYSTEM_TABLES
from repro.sim.oracle import rows_key
from repro.sql.parser import parse
from repro.wm.driver import ClosedLoopWorkload, run_closed_loop
from repro.workloads.tpch import TPCH_QUERIES, setup_tpch_schema
from tests.test_workload_manager import ok_digests, run_serial_reference

NODES = ["n1", "n2", "n3", "n4", "n5"]
ROWS = [(k, f"g{k % 5}", (k * 7) % 101) for k in range(400)]
SQL = "select g, count(*) c, sum(v) s from t group by g order by g"
SELECTS = (SQL, "select count(*) from t where k < 200", "select max(v) from t")
SLOTS_IN_USE = "select sum(slots_in_use) from v_monitor.resource_usage"


def make_eon() -> EonCluster:
    cluster = EonCluster(NODES, shard_count=5, seed=11)
    cluster.create_table("t", [("k", ColumnType.INT), ("g", ColumnType.VARCHAR),
                               ("v", ColumnType.INT)])
    cluster.load("t", ROWS)
    return cluster


def make_enterprise() -> EnterpriseCluster:
    cluster = EnterpriseCluster(NODES, seed=11)
    cluster.create_table("t", [("k", ColumnType.INT), ("g", ColumnType.VARCHAR),
                               ("v", ColumnType.INT)])
    cluster.load("t", ROWS, direct=True)
    return cluster


@pytest.fixture(params=[make_eon, make_enterprise], ids=["eon", "enterprise"])
def cluster(request):
    return request.param()


def execute_events(cluster) -> list:
    rows = cluster.query(
        "select request_id from v_monitor.dc_query_events where event = 'execute'"
    ).rows.to_pylist()
    return [request_id for (request_id,) in rows]


class TestRecording:
    def test_each_select_leaves_one_record_profile_and_execute_event(self, cluster):
        obs = cluster.enable_observability()
        for n, sql in enumerate(SELECTS, start=1):
            result = cluster.query(sql)
            assert len(obs.requests) == len(obs.profiles) == n
            record, profile = obs.requests[-1], obs.profiles[-1]
            assert record.request == profile.request == sql
            assert record.request_id == profile.request_id
            assert record.node_name in cluster.nodes
            assert record.duration_seconds == result.stats.latency_seconds
            assert record.rows_produced == result.rows.num_rows
            assert {op.operator for op in profile.operators} >= {"Scan"}
            assert execute_events(cluster) == [r.request_id for r in obs.requests]

    def test_a_monitor_query_leaves_none(self, cluster):
        obs = cluster.enable_observability()
        cluster.query(SQL)
        for table in ("dc_requests_issued", "query_profiles", "resource_pools"):
            cluster.query(f"select * from v_monitor.{table}")
        assert len(obs.requests) == len(obs.profiles) == 1
        assert len(execute_events(cluster)) == 1

    def test_a_parsed_statement_is_recorded_by_its_tables(self, cluster):
        obs = cluster.enable_observability()
        cluster.query_statement(parse(SQL)[0])
        assert obs.requests[-1].request == "SELECT FROM t"

    def test_a_source_the_flavor_lacks_reads_zero(self):
        enterprise, eon = make_enterprise(), make_eon()
        for node in eon.nodes.values():
            node.cache.clear()
        for flavor in (enterprise, eon):
            flavor.enable_observability()
            flavor.query(SQL)
        record = enterprise.obs.requests[-1]
        assert (record.depot_hits, record.depot_misses, record.s3_requests,
                record.s3_dollars, record.retries, record.storage_io_seconds) == (
            0, 0, 0, 0, 0, 0)
        cold = eon.obs.requests[-1]
        assert cold.depot_misses == cold.s3_requests > 0 < cold.storage_io_seconds

    def test_every_system_table_binds(self, cluster):
        cluster.enable_observability()
        cluster.query(SQL)
        for name in sorted(SYSTEM_TABLES):
            assert cluster.query(f"select count(*) from v_monitor.{name}").rows.num_rows == 1
        containers = cluster.query("select count(*) from v_monitor.storage_containers")
        assert containers.rows.to_pylist()[0][0] > 0

    def test_the_doctor_reads_either_flavor(self, cluster):
        from repro.obs.doctor import diagnose

        cluster.enable_observability()
        cluster.query(SQL)
        diagnosis = diagnose(cluster)
        assert diagnosis.dominant == "execution" and diagnosis.top_operators


class TestObservabilityMovesNothing:
    """PR 9's guarantee, on the flavor that had no observability."""

    @pytest.fixture(scope="class")
    def observed(self, tpch_data):
        cluster = EnterpriseCluster(["e1", "e2", "e3", "e4"], seed=1)
        cluster.enable_observability()
        setup_tpch_schema(cluster)
        for name in ("region", "nation", "supplier", "customer", "part",
                     "partsupp", "orders", "lineitem"):
            cluster.load(name, tpch_data.tables[name], direct=True)
        return cluster

    @pytest.mark.parametrize(
        "query", TPCH_QUERIES, ids=[f"q{q.number:02d}" for q in TPCH_QUERIES]
    )
    def test_enterprise_tpch_is_bit_identical_observed_or_not(
        self, query, observed, tpch_enterprise
    ):
        assert not tpch_enterprise.obs.enabled
        plain = tpch_enterprise.query(query.sql, seed=query.number)
        recorded = observed.query(query.sql, seed=query.number)
        assert recorded.rows.to_pylist() == plain.rows.to_pylist()
        assert recorded.stats.latency_seconds == plain.stats.latency_seconds
        assert observed.obs.requests[-1].duration_seconds == plain.stats.latency_seconds


class TestPlanReuseMovesNothing:
    """A plan found in the cache answers as the plan just derived did: the
    same rows, simulated seconds and request record, on the 20 TPC-H queries."""

    @pytest.fixture(scope="class", params=["eon", "enterprise"])
    def observed(self, request, tpch_data):
        from repro.workloads.tpch import load_tpch

        if request.param == "eon":
            cluster = EonCluster(["n1", "n2", "n3", "n4"], shard_count=4, seed=1)
            setup_tpch_schema(cluster)
            load_tpch(cluster, tpch_data)
        else:
            cluster = EnterpriseCluster(["e1", "e2", "e3", "e4"], seed=1)
            setup_tpch_schema(cluster)
            for name, rows in tpch_data.tables.items():
                cluster.load(name, rows, direct=True)
        cluster.enable_observability()
        return cluster

    @pytest.mark.parametrize(
        "query", TPCH_QUERIES, ids=[f"q{q.number:02d}" for q in TPCH_QUERIES]
    )
    def test_cold_then_warm(self, query, observed):
        from dataclasses import asdict

        def ask():
            result = observed.query(query.sql, seed=query.number)
            record = asdict(observed.obs.requests[-1])
            del record["request_id"]
            return result.rows.to_pylist(), result.stats.latency_seconds, record, result.plan

        ask()  # the depot holds what the query reads
        observed.plan_cache = query_path.PlanCache()
        prepared = observed.engine_stats.statements_prepared
        cold = ask()
        statement = observed.plan_cache.select(query.sql)
        shared = (repr(statement), cold[3].describe(), repr(cold[3]))
        warm = ask()
        assert observed.engine_stats.statements_prepared == prepared + 1
        assert warm[3] is cold[3]
        assert repr(warm[:3]) == repr(cold[:3])  # repr: NaN cells equal themselves
        # Executing wrote nothing into the tree or the plan the next run shares.
        assert (repr(statement), warm[3].describe(), repr(warm[3])) == shared


@pytest.fixture
def binds(monkeypatch):
    """Calls of ``bind_select`` — made from one module, so counted there."""
    return _counted(monkeypatch, "bind_select")


def _counted(monkeypatch, name: str) -> list:
    calls = []
    original = getattr(query_path, name)

    def counting(*args):
        calls.append(args[0])
        return original(*args)

    monkeypatch.setattr(query_path, name, counting)
    return calls


@pytest.fixture
def derived(monkeypatch):
    """Calls of everything a statement's plan is derived by, by name."""
    return {
        name: _counted(monkeypatch, name)
        for name in ("parse", "bind_select", "plan_query")
    }


def dashboard(make):
    """The end-to-end benchmark's dashboard schedule at a fifth of its data:
    240 serial requests, 3 ``dash_recent`` : 1 ``dim_lookup``, session seeds
    rotating, then the four statements of its closed loop."""
    import random

    from repro.workloads.dashboard import (
        dashboard_query, load_dashboard_data, setup_dashboard_schema,
    )

    cluster = make()
    setup_dashboard_schema(cluster)
    load_dashboard_data(cluster, n_events=4000, n_sites=10, seed=42)
    draw = random.Random(42)
    windows = [3960 - 10 * k for k in range(5)]
    schedule = [
        f"select site_name from sites where site_id = {draw.randrange(10)}"
        if i % 4 == 3 else dashboard_query(draw.choice(windows))
        for i in range(240)
    ]
    return cluster, schedule, tuple(dict.fromkeys(schedule))[:4]


def catalogs_asked(cluster, schedule) -> int:
    """Distinct (statement, initiator's catalog) pairs of a serial schedule."""
    pairs = set()
    for seed, sql in enumerate(schedule):
        session = cluster.create_session(seed=seed)
        pairs.add((sql, id(session.state.tables)))
        session.release()
    return len(pairs)


class TestPlanCache:
    @pytest.mark.parametrize(
        "make", [lambda: EonCluster(NODES[:4], shard_count=4, seed=42),
                 lambda: EnterpriseCluster(NODES[:4], seed=42)],
        ids=["eon", "enterprise"],
    )
    def test_a_repeat_of_the_dashboard_schedule_derives_nothing(self, make, derived):
        cluster, schedule, concurrent = dashboard(make)
        stats = cluster.engine_stats

        def one_pass() -> list:
            rows = [
                cluster.query(sql, seed=seed).rows.to_pylist()
                for seed, sql in enumerate(schedule)
            ]
            loop = run_closed_loop(cluster, ClosedLoopWorkload(
                statements=concurrent, clients=8, requests_per_client=3, seed=1,
            ), result_key=rows_key)
            assert loop.completed == 24 and loop.errors == loop.rejected == 0
            return rows + ok_digests(loop)

        first = one_pass()
        # Once per statement text; once per statement per initiator's catalog
        # (Eon's nodes each keep one, Enterprise has one).
        assert len(derived["parse"]) == len(set(schedule)) == 15
        assert len(derived["bind_select"]) == len(derived["plan_query"])
        assert len(derived["bind_select"]) == stats.statements_prepared
        assert catalogs_asked(cluster, schedule) <= stats.statements_prepared <= 15 * 4
        assert stats.statements_prepared + stats.plans_reused == 240 + 24
        for calls in derived.values():
            del calls[:]
        prepared = stats.statements_prepared
        assert one_pass() == first
        assert derived == {"parse": [], "bind_select": [], "plan_query": []}
        assert stats.statements_prepared == prepared
        assert stats.plans_reused == 2 * (240 + 24) - prepared

    def test_a_parsed_statement_is_keyed_by_the_tree_it_is(self, cluster, binds):
        statement = parse(SQL)[0]
        for _ in range(2):
            cluster.query_statement(statement, seed=1)
            cluster.query(SQL, seed=1)
        cluster.query_statement(parse(SQL)[0], seed=1)  # an equal tree, another object
        assert len(binds) == 3

    def test_a_new_projection_replans(self, binds):
        from repro.catalog.objects import Segmentation

        for make in (make_eon, make_enterprise):
            del binds[:]
            cluster = make()
            sql = "select count(*), sum(v) from u where k < 9"
            cluster.create_table("u", [("k", ColumnType.INT), ("v", ColumnType.INT)])
            assert cluster.query(sql, seed=1).rows.to_pylist() == [(0, 0)]
            cluster.create_projection("u_by_v", "u", ["k", "v"], ["v"], Segmentation.by_hash("v"))
            cluster.load("u", [(k, k * k) for k in range(20)])
            second = cluster.query(sql, seed=1)
            assert second.rows.to_pylist() == [(9, 204)]
            assert len(binds) == 2
            assert cluster.query(sql, seed=1).plan is second.plan

    def test_a_table_recreated_with_another_schema_replans(self, binds):
        cluster = make_eon()
        sql = "select count(*), max(v) from t"
        assert cluster.query(sql, seed=1).rows.to_pylist() == [(400, 100)]
        cluster.execute("drop table t")
        with pytest.raises(CatalogError):
            cluster.query(sql, seed=1)
        cluster.create_table("t", [("v", ColumnType.FLOAT), ("extra", ColumnType.INT)])
        cluster.load("t", [(0.5, 1), (2.5, 2)])
        assert cluster.query(sql, seed=1).rows.to_pylist() == [(2, 2.5)]
        assert len(binds) == 3

    def test_a_live_aggregate_replans(self, binds):
        cluster = EonCluster(NODES, shard_count=5, seed=11)
        cluster.create_table("t", [("g", ColumnType.VARCHAR), ("v", ColumnType.INT)])
        sql = "select g, sum(v) s from t group by g"
        assert cluster.query(sql, seed=1).plan.used_live_aggregate is None
        cluster.create_live_aggregate("t_by_g", "t", ["g"], [("sum", "v", "s")])
        cluster.load("t", [("a", 1), ("b", 2), ("a", 3)])
        result = cluster.query(sql, seed=1)
        assert result.plan.used_live_aggregate == "t_by_g"
        assert sorted(result.rows.to_pylist()) == [("a", 4), ("b", 2)]
        assert len(binds) == 2

    def test_copy_delete_and_mergeout_keep_the_plan(self, binds):
        from repro.tuple_mover import MergeoutCoordinatorService

        cluster = make_eon()
        sql = "select count(*), sum(v) from t"
        plan = cluster.query(sql, seed=1).plan
        for k in range(400, 406):
            cluster.load("t", [(k, "new", 1)])
        assert cluster.query(sql, seed=1).rows.to_pylist()[0][0] == 406
        cluster.execute("delete from t where k >= 403")
        assert cluster.query(sql, seed=1).rows.to_pylist()[0][0] == 403
        report = MergeoutCoordinatorService(cluster, strata_width=2, base_bytes=64).run_all()
        assert report.jobs_run > 0
        after = cluster.query(sql, seed=1)
        assert after.rows.to_pylist()[0][0] == 403 and after.plan is plan
        assert len(binds) == 1
        enterprise = make_enterprise()
        plan = enterprise.query(sql, seed=1).plan
        enterprise.load("t", [(400, "new", 1)], direct=True)
        again = enterprise.query(sql, seed=1)
        assert again.rows.to_pylist()[0][0] == 401 and again.plan is plan

    def test_two_clusters_share_nothing(self, binds):
        for make in (make_eon, make_enterprise):
            del binds[:]
            one, other = make(), make()
            results = [c.query(SQL, seed=1) for c in (one, other, one, other)]
            assert len(binds) == 2
            assert results[0].plan is results[2].plan is not results[1].plan
            assert one.plan_cache is not other.plan_cache
            assert (one.engine_stats.plans_reused, other.engine_stats.plans_reused) == (1, 1)

    def test_monitor_reads_and_failing_statements_are_never_kept(self, cluster, derived):
        from repro.errors import ReproError

        for _ in range(2):
            assert cluster.query(SLOTS_IN_USE).rows.to_pylist() == [(0,)]
        assert len(derived["bind_select"]) == len(derived["plan_query"]) == 2
        failing = ("select nothing from nowhere", "select from", "select k from t group by g")
        for sql in failing:
            errors = []
            for _ in range(2):
                with pytest.raises(ReproError) as err:
                    cluster.query(sql)
                errors.append((type(err.value), str(err.value)))
            assert errors[0] == errors[1]
        assert len(derived["parse"]) == 1 + 2 + 1 + 1  # only a text that parses is kept
        assert len(derived["bind_select"]) == 2 + 2 + 2
        stats = cluster.engine_stats
        assert stats.statements_prepared == stats.plans_reused == 0

    def test_a_failover_retry_on_a_fresh_session_reuses_the_plan(self, cluster, binds):
        statement = parse(SQL)[0]
        for seed in range(len(NODES)):  # every initiator's catalog has planned it
            expected = cluster.query_statement(statement, seed=seed).rows.to_pylist()
        planned = len(binds)
        session = cluster.create_session(seed=2)
        try:
            cluster.kill_node(served_by(session)[0])
            result = cluster.query_statement(statement, session=session, failover=True)
        finally:
            session.release()
        assert result.rows.to_pylist() == expected
        assert cluster.recovery_stats.failovers == 1
        assert len(binds) == planned

    def test_the_cache_is_bounded(self, cluster, monkeypatch):
        monkeypatch.setattr(query_path, "PLAN_CACHE_ENTRIES", 3)
        for k in range(6):
            cluster.query(f"select count(*) from t where k < {k}", seed=1)
        cache = cluster.plan_cache
        assert len(cache._statements) == len(cache._plans) == 3
        assert "select count(*) from t where k < 5" in cache._statements
        assert "select count(*) from t where k < 2" not in cache._statements


class TestBoundOnce:
    def test_concurrent_and_serial_agree(self):
        workload = ClosedLoopWorkload(
            statements=SELECTS, clients=4, requests_per_client=3, seed=5,
            service_scale=3.0,
        )
        for make in (make_eon, make_enterprise):
            concurrent = run_closed_loop(make(), workload, result_key=rows_key)
            serial = run_serial_reference(make(), workload, result_key=rows_key)
            assert concurrent.errors == serial.errors == 0
            assert ok_digests(concurrent) == ok_digests(serial)

    def test_a_monitor_read_in_the_loop_sees_the_moment_it_runs(self, cluster, binds):
        """It is bound when it executes — under its own one-slot ticket — and
        not when its client queued; asked synchronously it holds nothing."""
        assert cluster.query(SLOTS_IN_USE).rows.to_pylist() == [(0,)]
        del binds[:]
        workload = ClosedLoopWorkload(
            statements=(SLOTS_IN_USE,), clients=1, requests_per_client=3, seed=2,
        )
        result = run_closed_loop(cluster, workload, result_key=lambda r: r.rows.to_pylist())
        assert [record.digest for record in result.records] == [[(1,)]] * 3
        assert len(binds) == 3

    def test_a_prepared_monitor_read_holds_no_rows(self, cluster):
        with_session = cluster.create_session(seed=1)
        try:
            prepared = query_path.prepare(parse(SLOTS_IN_USE)[0], with_session)
            assert prepared.plan is None
            assert prepared.demand == {with_session.initiator: 1}
            ticket = cluster.admission.admit({name: 2 for name in NODES}, "n1")
            try:
                # Prepared before the slots were taken, read after.
                result = query_path.run(cluster, prepared.statement, prepared=prepared)
            finally:
                cluster.admission.release(ticket)
            assert result.rows.to_pylist() == [(10,)]
        finally:
            with_session.release()


def served_by(session) -> list:
    """Nodes a session scans on, other than its initiator."""
    nodes = session.provider().participants()
    return [name for name in sorted(nodes) if name != session.initiator]


class TestFailover:
    def test_a_node_lost_after_the_session_was_laid_out_fails_over(self, cluster):
        cluster.enable_observability()
        expected = cluster.query(SQL).rows.to_pylist()
        session = cluster.create_session(seed=2)
        try:
            cluster.kill_node(served_by(session)[0])
            with pytest.raises(NodeDown):
                cluster.query_statement(parse(SQL)[0], session=session)
            assert cluster.recovery_stats.failovers == 0
            result = cluster.query_statement(parse(SQL)[0], session=session, failover=True)
        finally:
            session.release()
        assert result.rows.to_pylist() == expected
        assert cluster.recovery_stats.failovers == 1
        record = cluster.obs.requests[-1]
        assert record.failover_backoff_seconds > 0
        assert result.stats.failover_backoff_seconds == record.failover_backoff_seconds
        assert result.stats.dispatch_seconds == cluster.cost_model.dispatch_seconds
        assert cluster.admission.total_in_use() == 0

    def test_enterprise_buddy_answers_for_a_dead_node(self):
        cluster = make_enterprise()
        expected = cluster.query(SQL).rows.to_pylist()
        session = cluster.create_session(seed=0)
        assert session.region_server[1] == "n2"
        cluster.kill_node("n2")
        try:
            result = cluster.query_statement(parse(SQL)[0], session=session, failover=True)
        finally:
            session.release()
        assert result.rows.to_pylist() == expected
        assert cluster.create_session(seed=0).region_server[1] == "n3"

    def test_enterprise_node_and_buddy_both_down_is_coverage_lost(self):
        cluster = make_enterprise()
        session = cluster.create_session(seed=3)
        cluster.nodes["n1"].go_down()
        cluster.nodes["n2"].go_down()
        assert cluster.uncovered_shards() == [0]
        try:
            # The caller's session cannot be served, and no other can be laid out.
            with pytest.raises(NodeDown):
                cluster.query_statement(parse(SQL)[0], session=session, failover=True)
            with pytest.raises(ShardCoverageLost):
                cluster.query(SQL)
            with pytest.raises(ShardCoverageLost, match="K-safety lost"):
                cluster.check_viability()
        finally:
            session.release()
        assert cluster.recovery_stats.failovers == 0 and cluster.shut_down
        assert cluster.admission.total_in_use() == 0


class TestEveryExitReleasesItsSlots:
    @pytest.fixture(autouse=True)
    def drained(self, cluster):
        yield
        admission = cluster.admission
        assert admission.total_in_use() == 0 and admission.active == {}
        assert admission.pending == 0

    def test_success(self, cluster):
        assert cluster.query(SQL).rows.num_rows == 5
        assert cluster.admission.pools["general"].admitted == 1

    def test_a_statement_that_does_not_bind(self, cluster):
        from repro.errors import ReproError

        with pytest.raises(ReproError):
            cluster.query("select nothing from nowhere")
        assert cluster.admission.pools["general"].admitted == 0

    @pytest.mark.parametrize("error", [ExecutionError, QueryCancelled])
    def test_an_error_or_a_cancel_inside_the_scan(self, cluster, monkeypatch, error):
        session = cluster.create_session(seed=1)

        def failing_scan(self, *args, **kwargs):
            raise error("raised inside the scan")

        monkeypatch.setattr(type(session.provider()), "scan", failing_scan)
        try:
            for options in ({"session": session}, {}):
                with pytest.raises(error):
                    cluster.query_statement(parse(SQL)[0], **options)
        finally:
            session.release()
        assert cluster.admission.pools["general"].admitted == 2

    def test_failover(self, cluster):
        session = cluster.create_session(seed=2)
        cluster.kill_node(served_by(session)[0])
        try:
            cluster.query_statement(parse(SQL)[0], session=session, failover=True)
        finally:
            session.release()
        # The failed attempt admitted and released its own ticket too.
        assert cluster.admission.pools["general"].admitted == 2

    def test_a_rejected_option(self, cluster):
        session = cluster.create_session(seed=1)
        try:
            with pytest.raises(ExecutionError, match="seed"):
                cluster.query_statement(parse(SQL)[0], session=session, seed=4)
            with pytest.raises(ExecutionError, match="accepted"):
                cluster.query(SQL, no_such_option=1)
        finally:
            session.release()
        assert cluster.admission.pools["general"].admitted == 0

    def test_a_callers_ticket_stays_the_callers(self, cluster):
        session = cluster.create_session(seed=1)
        prepared = query_path.prepare(parse(SQL)[0], session)
        ticket = cluster.admission.admit(prepared.demand, session.initiator)
        try:
            query_path.run(cluster, prepared.statement, ticket=ticket, prepared=prepared)
            assert cluster.admission.total_in_use() == ticket.total_slots > 0
        finally:
            cluster.admission.release(ticket)
            session.release()
