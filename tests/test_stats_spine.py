"""One stats spine: an event is counted once and a counter is declared once.

Declared once — each ledger dataclass's fields are the keys of its
``cluster_metrics()`` section and the columns of its ``v_monitor`` table, so
a field added to the dataclass shows up in every view with no other edit.
Counted once — a shared-storage request is booked by ``Filesystem._charge``
alone.  The numbers themselves are pinned against the commit before the
spine (``pinned_stats_views.json``: one Eon and one Enterprise scenario, and
every ``v_monitor`` column that existed then)."""

from __future__ import annotations

import ast
import dataclasses
import importlib
import json
from dataclasses import dataclass
from pathlib import Path

import pytest

from repro import ColumnType, EnterpriseCluster, EonCluster
from repro.autoscale.actuator import AutoscaleEvent
from repro.cache import disk_cache
from repro.cache.disk_cache import CacheStats
from repro.cluster.services import ServiceScheduler
from repro.engine.designer import DesignerRun
from repro.engine.pipeline import EngineStats
from repro.io.scheduler import IOStats
from repro.obs import system_tables
from repro.obs.metrics import cluster_metrics
from repro.obs.profile import OperatorProfile, RequestRecord
from repro.shared_storage.api import OP_CLASSES, Filesystem, OpStats
from repro.shared_storage.hdfs import SimulatedHDFS
from repro.shared_storage.posix import MemoryFilesystem
from repro.shell import Shell
from repro.wm.pool import PoolStats

PINNED = json.loads((Path(__file__).parent / "pinned_stats_views.json").read_text())
SRC = Path(__file__).resolve().parents[1] / "src" / "repro"

QUERIES = (
    "select g, count(*), sum(v) from fact group by g order by g",
    "select name from dim where k = 3",
    "select count(*) from fact where k < 100",
)


def eon_scenario() -> EonCluster:
    """Small depots (evictions), a shaping policy (rejections), cold reads
    (coalesced GETs, peer fetches, prefetch), a pushdown scan, two service
    ticks around a delete."""
    cluster = EonCluster(["n1", "n2", "n3"], shard_count=3, seed=5, cache_bytes=24_000)
    cluster.enable_observability()
    cluster.nodes["n1"].cache.policy.deny_tables.add("dim")
    cluster.execute("create table fact (k int, g varchar, v float)")
    cluster.execute("create table dim (k int, name varchar)")
    for b in range(6):
        cluster.load("fact", [(b * 500 + i, f"g{i % 7}", i * 0.5) for i in range(500)])
    cluster.load("dim", [(i, f"name{i}") for i in range(50)])
    services = ServiceScheduler(cluster)
    for sql in QUERIES:
        cluster.query(sql)
    for node in cluster.nodes.values():
        node.cache.clear()
    for sql in QUERIES:
        cluster.query(sql)
    cluster.query(QUERIES[2], pushdown="on", use_cache=False)
    services.tick()
    cluster.execute("delete from fact where k < 50")
    services.tick()
    cluster.query(QUERIES[0])
    return cluster


def enterprise_scenario() -> EnterpriseCluster:
    cluster = EnterpriseCluster(["e1", "e2", "e3"], seed=5)
    cluster.enable_observability()
    cluster.create_table(
        "fact", [("k", ColumnType.INT), ("g", ColumnType.VARCHAR), ("v", ColumnType.FLOAT)]
    )
    cluster.load("fact", [(i, f"g{i % 7}", i * 0.5) for i in range(900)], direct=True)
    cluster.query(QUERIES[0])
    cluster.query(QUERIES[2])
    return cluster


@pytest.fixture(scope="module")
def eon():
    return eon_scenario()


@pytest.fixture(scope="module")
def enterprise():
    return enterprise_scenario()


def declared(ledger) -> list:
    """A ledger's view names, read off the dataclass without its helper."""
    return [
        f.metadata.get("column", f.name) for f in dataclasses.fields(ledger)
    ] + list(ledger.derived)


#: ledger, its table, the named columns before and after the ledger's own.
LEDGER_TABLES = [
    (CacheStats, "depot_activity", ["node_name"],
     ["used_bytes", "capacity_bytes", "file_count"]),
    (RequestRecord, "dc_requests_issued", [], []),
    (OperatorProfile, "query_profiles", ["request_id"], []),
    (PoolStats, "resource_queues", ["pool_name"], []),
    (OpStats, "dc_storage_operations", ["operation"], []),
    (AutoscaleEvent, "autoscale_events", [], []),
    (DesignerRun, "designer_runs", [], []),
]


class TestNoNumberMoved:
    """``cluster_metrics()`` key for key and value for value as before the
    spine, but for the drift it repairs (``depot.rejected_by_policy``)."""

    def test_eon_scenario(self, eon):
        assert json.loads(json.dumps(cluster_metrics(eon))) == PINNED["eon"]

    def test_enterprise_scenario(self, enterprise):
        assert json.loads(json.dumps(cluster_metrics(enterprise))) == PINNED["enterprise"]

    def test_existing_columns_keep_name_order_and_type(self):
        for table, before in PINNED["v_monitor_columns"].items():
            schema = system_tables.SYSTEM_TABLES[table].schema
            now = [[c.name, c.ctype.name] for c in schema.columns]
            assert now[:len(before)] == before, table

    def test_what_the_benchmark_reads_stays_flat_and_numeric(self, eon):
        metrics = cluster_metrics(eon)
        for section in ("depot", "io"):
            assert all(
                isinstance(v, (int, float)) and not isinstance(v, bool)
                for v in metrics[section].values()
            ), section
        assert "select_requests" in metrics["s3"]["totals"]
        m = eon.shared.metrics
        assert m.total_requests == (
            m.get_requests + m.put_requests + m.list_requests + m.delete_requests
        )


class TestTheDriftsTheCopiesCaused:
    def test_depot_section_and_stats_report_policy_rejections(self, eon):
        rejected = sum(n.cache.stats.rejected_by_policy for n in eon.nodes.values())
        assert rejected > 0
        assert cluster_metrics(eon)["depot"]["rejected_by_policy"] == rejected
        out: list = []
        Shell(eon, out.append).run(["\\stats"])
        assert f"rejected_by_policy={rejected}" in "\n".join(out)

    @pytest.mark.parametrize("flavor", ["eon", "enterprise"])
    def test_why_was_request_n_slow_is_a_sql_query(self, flavor, request):
        cluster = request.getfixturevalue(flavor)
        result = cluster.query(
            "select request_id, duration_seconds, queue_wait_seconds, "
            "failover_backoff_seconds, retry_backoff_seconds, retries, "
            "storage_io_seconds from v_monitor.dc_requests_issued "
            "order by request_id"
        )
        rows = result.rows.to_pylist()
        assert [r[0] for r in rows] == [r.request_id for r in cluster.obs.requests]
        assert [r[6] for r in rows] == [r.storage_io_seconds for r in cluster.obs.requests]
        if flavor == "eon":
            assert any(r[6] > 0 for r in rows)  # the cold reads waited on S3
        # Appended after the ten that were there: positional readers hold.
        names = system_tables.SYSTEM_TABLES["dc_requests_issued"].schema.names
        assert names[10:] == [
            "queue_wait_seconds", "failover_backoff_seconds",
            "retry_backoff_seconds", "retries", "storage_io_seconds",
        ]


class TestDeclaredOnce:
    @pytest.mark.parametrize("ledger, table, before, after", LEDGER_TABLES)
    def test_table_columns_are_the_ledger_fields(self, ledger, table, before, after):
        schema = system_tables.SYSTEM_TABLES[table].schema
        assert schema.names == before + declared(ledger) + after
        kinds = {"int": "INT", "bool": "INT", "float": "FLOAT"}
        own = schema.columns[len(before):len(schema.columns) - len(after)]
        wanted = [kinds.get(f.type, "VARCHAR") for f in dataclasses.fields(ledger)]
        wanted += ["FLOAT"] * len(ledger.derived)
        assert [c.ctype.name for c in own] == wanted

    def test_metrics_sections_are_the_ledger_fields(self, eon):
        metrics = cluster_metrics(eon)
        assert list(metrics["depot"]) == declared(CacheStats)
        assert list(metrics["io"]) == declared(IOStats)
        assert list(metrics["engine"]) == declared(EngineStats)
        for op in OP_CLASSES:
            assert list(metrics["s3"][op]) == declared(OpStats)
        names = [f.name for f in dataclasses.fields(PoolStats)]
        for pool in metrics["wm"]["pools"].values():
            assert list(pool) == ["capacity", "slots_in_use"] + names

    def test_a_field_added_to_a_ledger_shows_in_every_view(self, monkeypatch):
        @dataclass
        class WiderCacheStats(CacheStats):
            spills: int = 0

        monkeypatch.setattr(disk_cache, "CacheStats", WiderCacheStats)
        importlib.reload(system_tables)  # its schemas are built at import
        try:
            cluster = EonCluster(["a", "b"], shard_count=2, seed=1)
            cluster.execute("create table t (k int)")
            cluster.load("t", [(i,) for i in range(10)])
            cluster.nodes["a"].cache.stats.spills = 3
            cluster.nodes["b"].cache.stats.spills = 4
            assert cluster_metrics(cluster)["depot"]["spills"] == 7
            rows = cluster.query(
                "select node_name, spills, hit_rate from v_monitor.depot_activity"
            ).rows.to_pylist()
            assert [r[:2] for r in rows] == [("a", 3), ("b", 4)]
        finally:
            monkeypatch.undo()
            importlib.reload(system_tables)
        assert "spills" not in system_tables.SYSTEM_TABLES["depot_activity"].schema.names


class TestCountedOnce:
    def test_charge_is_the_only_writer_of_the_request_ledger(self):
        """No backend method adds to ``metrics`` or a class's stats itself;
        what is left is not a request: an HDFS rename's NameNode round trip
        and the fault injector's per-class observations."""
        writes = set()
        for name in ("api.py", "s3.py", "posix.py", "hdfs.py"):
            tree = ast.parse((SRC / "shared_storage" / name).read_text())
            for func in ast.walk(tree):
                if not isinstance(func, ast.FunctionDef):
                    continue
                for node in ast.walk(func):
                    if isinstance(node, ast.AugAssign) and isinstance(node.target, ast.Attribute):
                        owner = ast.unparse(node.target.value)
                        if owner.split(".")[-1] in ("metrics", "stats") or "op_stats" in owner:
                            writes.add((name, func.name, node.target.attr))
        assert writes == {
            ("api.py", "_charge", "requests"), ("api.py", "_charge", "bytes"),
            ("api.py", "_charge", "sim_seconds"), ("api.py", "_charge", "dollars"),
            ("api.py", "retrying", "transient_failures"),
            ("api.py", "retrying", "retry_backoff_seconds"),
            ("hdfs.py", "rename", "sim_seconds"),
            ("s3.py", "_maybe_fail", "transient_faults"),
            ("s3.py", "_maybe_fail", "throttled"),
        }

    @pytest.mark.parametrize("backend", [MemoryFilesystem, SimulatedHDFS])
    def test_every_backend_has_the_per_class_ledger(self, backend):
        fs = backend()
        fs.write("a", b"12345")
        fs.read("a")
        fs.list()
        fs.delete("a")
        ops = fs.op_stats
        assert sorted(ops) == sorted(OP_CLASSES)
        assert [ops[op].requests for op in ("PUT", "GET", "LIST", "DELETE")] == [1] * 4
        assert (ops["PUT"].bytes, ops["GET"].bytes) == (5, 5)
        m = fs.metrics
        assert (m.put_requests, m.get_requests, m.bytes_written, m.bytes_read) == (1, 1, 5, 5)
        assert m.total_requests == 4 and ops["SELECT"].requests == 0

    def test_the_clock_totals_are_sums_in_order_of_arrival(self, monkeypatch):
        """The one mirror pair that was *not* equal on the parent: summed per
        class, ``sim_seconds`` and ``dollars`` differ from the running totals
        in the last digits (float addition does not regroup) on 25 of the 50
        campaign end states.  The sim clock reads the running totals, so they
        are the side kept, booked in the same ``_charge``."""
        arrived = []
        charge = Filesystem._charge

        def recording(self, op, nbytes=0, seconds=0.0, dollars=0.0):
            arrived.append((id(self.metrics), seconds, dollars))
            charge(self, op, nbytes, seconds, dollars)

        monkeypatch.setattr(Filesystem, "_charge", recording)
        cluster = eon_scenario()
        metrics = cluster.shared.metrics
        seconds = dollars = 0.0
        for owner, s, d in arrived:
            if owner == id(metrics):
                seconds += s
                dollars += d
        assert (metrics.sim_seconds, metrics.dollars) == (seconds, dollars)
        ops = cluster.shared.op_stats
        assert sum(ops[op].sim_seconds for op in ops) == pytest.approx(seconds, rel=1e-12)
        assert sum(ops[op].dollars for op in ops) == pytest.approx(dollars, rel=1e-12)
