"""Pooled-vs-per-scan fetch charging differential wall.

The engine pools every scan's reads per node — fetches, selects and local
reads — and settles the pool once per query.  Pooling may move only *when* a
makespan is charged: the same query with every scan's reads charged on its
own (the reference arm: ``PerScanCharging`` installed as the cluster's
``io_scheduler`` for fetches and selects, and ``PerScanPool`` patched in as
the provider's pool for local reads) must return the same rows (digest) and
demand exactly the same of the storage hierarchy, cold and warm, across the
full TPC-H suite and a dashboard/IoT workload mix — and must never report
*more* I/O seconds on any node.  Cancellation and mid-query failover leave
the contract intact.

``seed=<query number>`` on every session: participant (shard subscriber)
selection is a per-session RNG draw, and warm-run demand depends on *which*
node's depot holds the data.  Pinning the seed makes both runs pick
identical participants.
"""

import pytest

from repro import EonCluster
from repro.cluster import session
from repro.common.clock import charge_parallel
from repro.engine.pipeline import PipelineCharges
from repro.engine.plan import ScanNode, walk
from repro.errors import QueryCancelled
from repro.io.scheduler import LANES
from repro.obs.metrics import cluster_metrics
from repro.sql.parser import parse
from repro.workloads.dashboard import (
    dashboard_query,
    load_dashboard_data,
    setup_dashboard_schema,
)
from repro.workloads.iot import iot_batch, setup_iot_schema
from repro.workloads.tpch import TPCH_QUERIES
from tests.helpers import clear_depots, demand_sig, row_digest, s3_snapshot
from tests.test_io_scheduler import PerScanCharging, PerScanPool


def cold_and_warm(cluster, sql, seed):
    """One query from cleared depots, then again from what that left:
    (digest, demand, per-node io seconds, scans in the plan) of each run."""
    clear_depots(cluster)
    runs = []
    for _ in ("cold", "warm"):
        before = s3_snapshot(cluster)
        result = cluster.query(sql, seed=seed)
        runs.append((
            row_digest(result.rows.to_pylist()),
            demand_sig(cluster, result, before),
            {name: w.io_seconds for name, w in result.stats.per_node.items()},
            sum(isinstance(n, ScanNode) for n in walk(result.plan.root)),
        ))
    return runs


def pooled_and_per_scan(cluster, sql, seed, monkeypatch):
    pooled = cold_and_warm(cluster, sql, seed)
    with monkeypatch.context() as patch:
        patch.setattr(cluster, "io_scheduler", PerScanCharging(cluster))
        patch.setattr(session, "PipelineCharges", PerScanPool)
        per_scan = cold_and_warm(cluster, sql, seed)
    return pooled, per_scan


def charging_differences(label, pooled, per_scan):
    """What differs between the two charging modes that must not; and how
    many I/O seconds pooling saved over all nodes, cold and warm."""
    problems, saved = [], {"cold": 0.0, "warm": 0.0}
    for temperature, a, b in zip(("cold", "warm"), pooled, per_scan):
        if a[0] != b[0]:
            problems.append(f"{label}: {temperature} digest diverged")
        if a[1] != b[1]:
            problems.append(f"{label}: {temperature} demand diverged")
        for node, seconds in a[2].items():
            if seconds > b[2][node] + 1e-12:
                problems.append(f"{label}: {temperature} pooled io on {node} is higher")
            saved[temperature] += b[2][node] - seconds
    return problems, saved


class TestTpchPooledCharging:
    """Full-suite parity: the acceptance wall for pooled fetch charging."""

    def test_full_suite_cold_and_warm_parity(self, tpch_cluster, monkeypatch):
        """Every TPC-H query, cold and warm depots: bit-identical row
        digests AND demand statistics, never more I/O seconds on a node,
        and strictly fewer on at least one query with several scans, cold
        and warm alike."""
        failures = []
        savings = {}
        for query in TPCH_QUERIES:
            pooled, per_scan = pooled_and_per_scan(
                tpch_cluster, query.sql, query.number, monkeypatch
            )
            problems, saved = charging_differences(f"Q{query.number}", pooled, per_scan)
            failures += problems
            if pooled[0][3] > 1:
                savings[query.number] = saved
        assert not failures, "; ".join(failures)
        for temperature in ("cold", "warm"):
            assert any(saved[temperature] > 1e-6 for saved in savings.values()), savings


class TestWorkloadMixParity:
    """The dashboard short query and IoT metrics tables — the Figure-11
    workloads."""

    @pytest.fixture(scope="class")
    def mix_cluster(self):
        cluster = EonCluster(["n1", "n2", "n3"], shard_count=3, seed=19)
        setup_dashboard_schema(cluster)
        load_dashboard_data(cluster, n_events=4000, n_devices=80, n_sites=6)
        setup_iot_schema(cluster, streams=2)
        for stream in range(2):
            for sequence in range(3):
                table, rowset = iot_batch(stream, sequence, rows=400)
                cluster.load(table, rowset)
        return cluster

    MIX_QUERIES = (
        dashboard_query(recent_after=500),
        "select m_flags, count(*) n, sum(m_value) s from metrics_0 "
        "group by m_flags order by m_flags",
        "select count(*), min(m_ts), max(m_ts) from metrics_1 "
        "where m_sensor < 5000",
        "select count(distinct m_flags) from metrics_0",
    )

    def test_mix_parity_cold_and_warm(self, mix_cluster, monkeypatch):
        for i, sql in enumerate(self.MIX_QUERIES):
            pooled, per_scan = pooled_and_per_scan(mix_cluster, sql, 100 + i, monkeypatch)
            problems, _ = charging_differences(f"mix query {i}", pooled, per_scan)
            assert not problems, "; ".join(problems)


class TestBatchBoundaryInterrupts:
    """Cancellation and failover landing *between* scans — at the boundary
    of a fetch batch, or between its fetch units: the interrupted query
    aborts cleanly, nothing it pooled is charged to anyone, and the next run
    still matches the digest."""

    SQL = "select g, sum(v) s, count(*) c from t group by g"

    def _loaded(self, **kw):
        cluster = EonCluster(
            ["n1", "n2", "n3", "n4"], shard_count=4, seed=5, **kw
        )
        cluster.execute("create table t (a int, g varchar, v int)")
        cluster.load(
            "t", [(i, f"g{i % 5}", (i * 3) % 97) for i in range(800)]
        )
        return cluster

    def test_cancel_mid_batch_then_clean_parity(self, monkeypatch):
        from repro.shared_storage.s3 import SimulatedS3

        cluster = self._loaded()
        clear_depots(cluster)
        reference = cluster.query(self.SQL, seed=1)
        expected = row_digest(reference.rows.to_pylist())
        clear_depots(cluster)
        session = cluster.create_session(seed=1)
        calls = {"n": 0}
        original_read = SimulatedS3.read
        original_coalesced = SimulatedS3.read_coalesced

        def note_call():
            calls["n"] += 1
            if calls["n"] == 2:
                session.cancel()  # arrives after the first participant's fetch

        def cancelling_read(fs, name):
            note_call()
            return original_read(fs, name)

        def cancelling_coalesced(fs, names):
            note_call()
            return original_coalesced(fs, names)

        monkeypatch.setattr(SimulatedS3, "read", cancelling_read)
        monkeypatch.setattr(SimulatedS3, "read_coalesced", cancelling_coalesced)
        with pytest.raises(QueryCancelled):
            cluster.query_statement(parse(self.SQL)[0], session=session)
        session.release()
        monkeypatch.undo()
        clear_depots(cluster)
        rerun = cluster.query(self.SQL, seed=1)
        assert row_digest(rerun.rows.to_pylist()) == expected
        # The cancelled query's pooled fetches were not left for this one.
        assert rerun.stats.latency_seconds == reference.stats.latency_seconds

    def test_failover_mid_batch_digest_identity(self):
        cluster = self._loaded()
        expected = row_digest(cluster.query(self.SQL).rows.to_pylist())
        stmt = parse(self.SQL)[0]
        session = cluster.create_session()
        with session:
            victim = self._killable(cluster, session)
            cluster.kill_node(victim)
            result = cluster.query_statement(
                stmt, session=session, failover=True,
            )
        assert row_digest(result.rows.to_pylist()) == expected
        assert cluster.recovery_stats.failovers >= 1

    @staticmethod
    def _killable(cluster, session):
        for name in session.participants():
            if name == session.initiator:
                continue
            up = cluster.up_nodes()
            if (len(up) - 1) * 2 <= len(cluster.nodes):
                continue
            if all(
                any(n != name for n in cluster.active_up_subscribers(shard))
                for shard in cluster.shard_map.all_shard_ids()
            ):
                return name
        raise AssertionError("no survivable participant to kill")


class TestEngineObservability:
    ENGINE_KEYS = {
        "queries", "io_serial_seconds", "io_pipelined_seconds",
        "io_overlap_seconds", "pushdown_scans", "bytes_scanned",
        "statements_prepared", "plans_reused",
    }

    def _traced(self):
        from repro import Observability, SimClock

        clock = SimClock()
        cluster = EonCluster(
            ["n1", "n2"], shard_count=2, seed=3, clock=clock,
            observability=Observability(clock=clock),
        )
        cluster.execute("create table t (a int, v int)")
        cluster.execute("create table u (b int, w int)")
        cluster.load("t", [(i, i * 2) for i in range(300)])
        cluster.load("u", [(i, i % 7) for i in range(300)])
        return cluster

    def test_cluster_metrics_expose_engine_section(self):
        cluster = self._traced()
        clear_depots(cluster)
        cluster.query("select sum(v), sum(w) from t join u on a = b", seed=1)
        engine = cluster_metrics(cluster)["engine"]
        assert set(engine) == self.ENGINE_KEYS
        assert engine["queries"] == engine["statements_prepared"] == 1
        assert engine["io_serial_seconds"] > engine["io_pipelined_seconds"] > 0
        assert engine["io_overlap_seconds"] == pytest.approx(
            engine["io_serial_seconds"] - engine["io_pipelined_seconds"]
        )
        # Warm: nothing is fetched, and each scan's local reads are pooled.
        warm = cluster.query("select sum(v) from t", seed=1).stats
        assert warm.total_bytes_from_shared == 0 < warm.total_bytes_from_cache
        after = cluster_metrics(cluster)["engine"]
        assert after["queries"] == 2
        assert after["io_serial_seconds"] - engine["io_serial_seconds"] == pytest.approx(
            warm.io_serial_seconds)
        assert after["io_pipelined_seconds"] - engine["io_pipelined_seconds"] == (
            pytest.approx(sum(w.io_seconds for w in warm.per_node.values())))
        assert warm.io_pipelined_seconds > 0

    def test_pipeline_span_and_counters_recorded(self):
        """A Scan row keeps its own fetch seconds; the pooled saving shows
        once, on the ``pipeline`` span; fragments reconcile with the stats."""
        cluster = self._traced()
        clear_depots(cluster)
        mark = cluster.obs.tracer.mark()
        result = cluster.query("select sum(v), sum(w) from t join u on a = b", seed=1)
        spans = cluster.obs.tracer.spans_since(mark)
        [pipeline] = [s for s in spans if s.name == "pipeline"]
        serial = pipeline.attrs["io_serial_seconds"]
        assert serial > pipeline.duration > 0
        scans = [p for p in cluster.obs.profiles[-1].operators if p.operator == "Scan"]
        assert len(scans) == 4  # two tables on two nodes
        assert all(p.sim_seconds > 0 for p in scans)
        fetch_batches = [s for s in spans if s.name == "fetch_batch"]
        assert sum(s.duration for s in fetch_batches) == pytest.approx(serial)
        assert sum(p.sim_seconds for p in scans) > serial  # fetch + decode + predicate
        io_charged = sum(w.io_seconds for w in result.stats.per_node.values())
        assert io_charged < serial  # hits and backoff are zero here: all of it is the pool
        assert io_charged == pytest.approx(pipeline.duration)
        for fragment in (s for s in spans if s.name == "fragment"):
            busy = result.stats.node(fragment.attrs["node"]).busy_seconds
            assert 0 < fragment.duration <= busy + 1e-12
        counters = cluster.obs.metrics.snapshot().counters
        assert not [n for n in counters if n.startswith(("engine.batches", "engine.sip"))]

    def test_a_warm_query_pools_its_local_reads(self, monkeypatch):
        """Warm, every read is a local one, and the ``pipeline`` span still
        carries what the scans deferred: each scan's local units one after
        another (serial), then every node's units settled over its lanes."""
        cluster = self._traced()
        cluster.query("select sum(v), sum(w) from t join u on a = b", seed=1)  # warms
        scans = []
        add = PipelineCharges.add

        def recording(pool, node, durations):
            scans.append((node, list(durations)))
            add(pool, node, durations)

        monkeypatch.setattr(PipelineCharges, "add", recording)
        mark = cluster.obs.tracer.mark()
        result = cluster.query("select sum(v), sum(w) from t join u on a = b", seed=1)
        spans = cluster.obs.tracer.spans_since(mark)
        assert result.stats.total_bytes_from_shared == 0
        assert all(s.duration == 0 for s in spans if s.name == "fetch_batch")
        assert len(scans) == 4  # two tables on two nodes, one add each
        [pipeline] = [s for s in spans if s.name == "pipeline"]
        assert pipeline.attrs["io_serial_seconds"] == pytest.approx(
            sum(sum(units) for _, units in scans))
        per_node = {}
        for node, units in scans:
            per_node.setdefault(node, []).extend(units)
        settled = {node: charge_parallel(units, LANES)[0]
                   for node, units in per_node.items()}
        assert {node: result.stats.node(node).io_seconds for node in per_node} == settled
        assert pipeline.duration == pytest.approx(sum(settled.values()))
