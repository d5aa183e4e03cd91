"""The four workloads: inputs from a seed, one pass of ops at a time.

Every cluster is built with default constructor arguments (plus the depot
size that defines ``tpch_cold``), so the benchmark measures what a user
gets and keeps working when engine flags change or disappear.  A workload
is driven from one thread as a closed loop: the next op starts when the
previous one returned.  The data, the cluster's own seed and the query
parameters come from ``--seed``; the op schedule is fixed and session
placement rotates round-robin.  The program only ever sees the generated
inputs.
"""

from __future__ import annotations

import functools
import hashlib
import operator
import random
import statistics
from time import perf_counter_ns
from typing import Callable, Dict, List, Optional

import numpy as np

from repro import EonCluster
from repro.cluster.revive import revive
from repro.cluster.services import ServiceScheduler
from repro.errors import ReproError
from repro.wm import driver as wm_driver
from repro.workloads.dashboard import (
    dashboard_query,
    load_dashboard_data,
    setup_dashboard_schema,
)
from repro.workloads.iot import iot_batch, setup_iot_schema
from repro.workloads.tpch import TPCH_QUERIES, TpchData, setup_tpch_schema

from harness import Op, Pass, SpeedMeter, row_digest

NODES = ["n1", "n2", "n3", "n4"]
SHARDS = 4


def rowset_user_bytes(rows) -> int:
    """Raw size of the user's data: fixed-width values at their width,
    strings at their length."""
    total = 0
    for name in rows.schema.names:
        column = rows.column(name)
        if column.dtype.kind == "O":
            total += sum(len(v) for v in column if isinstance(v, str))
        else:
            total += column.nbytes
    return total


class Workload:
    """Common driver state: digests, op ids, failure accounting."""

    name = ""
    #: Measured passes: fixed work, sized so that a whole run (set-up, one
    #: warm-up pass, these) takes about 30 s on the reference container —
    #: the driver's 92 runs must end within 3420 s.  A multiple of three:
    #: the traced run traces every third pass.
    passes = 0

    def __init__(self, seed: int, quick: bool):
        self.seed = seed
        self.quick = quick
        self.cluster: Optional[EonCluster] = None
        self.user_bytes = 0
        #: First digest seen per key; every later pass must reproduce it.
        self.digests: Dict[str, str] = {}
        self.tracer = None
        self.meter = SpeedMeter()
        self._op_id = 0
        self._sessions = 0
        #: Failures outside any op (the durability check).
        self.check_failures: List[str] = []

    # -- to implement ----------------------------------------------------------

    def build(self) -> None:
        """Generate the data, build the cluster, load it."""
        raise NotImplementedError

    def run_pass(self, p: Pass, index: int) -> None:
        """Run one repetition of the schedule (index 0 is the warm-up)."""
        raise NotImplementedError

    def finish(self) -> Dict[str, float]:
        """Checks after the last pass; returns extra per-layer numbers."""
        return {}

    def sim_ops_per_min(self, passes: List[Pass]) -> Optional[float]:
        return None

    def loaded_user_bytes(self) -> int:
        return self.user_bytes

    # -- helpers ---------------------------------------------------------------

    def _next_op_id(self) -> int:
        """Number the op; in a traced run its spans carry the number."""
        op_id = self._op_id
        self._op_id += 1
        if self.tracer is not None:
            self.tracer.op_id = op_id
        return op_id

    def check(self, key: str, digest: str) -> bool:
        return self.digests.setdefault(key, digest) == digest

    def digest_summary(self) -> Dict[str, str]:
        """One digest per class over its keys, in key order."""
        by_class: Dict[str, List[str]] = {}
        for key in sorted(self.digests):
            by_class.setdefault(key.split(":")[0], []).append(
                f"{key}={self.digests[key]}"
            )
        return {
            cls: hashlib.sha256("\n".join(items).encode()).hexdigest()[:16]
            for cls, items in by_class.items()
        }

    def run_op(
        self,
        p: Pass,
        cls: str,
        call: Callable[[], object],
        judge: Callable[[object], tuple],
    ) -> object:
        """Time ``call``; ``judge(result)`` gives (sim seconds, ok).  A
        raised ``ReproError`` is a failed op, not a crashed benchmark."""
        op_id = self._next_op_id()
        start = perf_counter_ns()
        try:
            result = call()
        except ReproError:
            result = None
        end = perf_counter_ns()
        sim_s, ok = (0.0, False) if result is None else judge(result)
        p.ops.append(
            Op(cls, start, end, end - start, sim_s, failed=0 if ok else 1, op_id=op_id)
        )
        self.meter.pace()
        return result

    def run_query(self, p: Pass, cls: str, key: str, sql: str, extra_ok=None) -> None:
        """A serial SELECT on a fresh session; counts the scan work its
        ``QueryStats`` report.  Session seeds (initiator and subscriber
        choice) rotate 0, 1, 2, ... like a round-robin balancer: drawing
        them at random made the cold depot's hit rate a lottery."""
        session_seed = self._sessions
        self._sessions += 1

        def judge(result) -> tuple:
            rows = result.rows.to_pylist()
            ok = self.check(key, row_digest(rows))
            if extra_ok is not None:
                ok = ok and extra_ok(rows)
            stats = result.stats
            p.count("queries", 1)
            p.count("rows_returned", len(rows))
            p.count("rows_scanned", stats.total_rows_scanned)
            p.count(
                "sim_cpu_s",
                sum(w.cpu_seconds for w in stats.per_node.values())
                + stats.initiator_cpu_seconds,
            )
            for work in stats.per_node.values():
                p.count("blocks_pruned", work.blocks_pruned)
                p.count("containers_pruned", work.containers_pruned)
                p.count("containers_scanned", work.containers_scanned)
            return stats.latency_seconds, ok

        self.run_op(p, cls, lambda: self.cluster.query(sql, seed=session_seed), judge)


# -- TPC-H ------------------------------------------------------------------------

TPCH_TABLES = (
    "region", "nation", "supplier", "customer", "part",
    "partsupp", "orders", "lineitem",
)
TPCH_LOAD_SLICES = 4


class TpchWarm(Workload):
    """The analyst's workload from a depot that holds everything: hash join
    and block decode dominate, the depot never misses."""

    name = "tpch_warm"
    passes = 9
    scale = 0.02
    #: None keeps the constructor's default depot (256 MB per node).
    cache_bytes: Optional[int] = None

    def build(self) -> None:
        scale = 0.004 if self.quick else self.scale
        data = TpchData.generate(scale=scale, seed=self.seed)
        options = {} if self.cache_bytes is None else {"cache_bytes": self.cache_bytes}
        if self.quick and self.cache_bytes is not None:
            options["cache_bytes"] = int(self.cache_bytes * scale / self.scale)
        cluster = EonCluster(NODES, shard_count=SHARDS, seed=self.seed, **options)
        setup_tpch_schema(cluster)
        # Several COPY slices per table give every shard several
        # containers, the shape the I/O scheduler batches over.
        for table in TPCH_TABLES:
            rows = data.tables[table]
            if rows.num_rows <= TPCH_LOAD_SLICES:
                cluster.load(table, rows)
                continue
            for i in range(TPCH_LOAD_SLICES):
                cluster.load(
                    table, rows.take(np.arange(i, rows.num_rows, TPCH_LOAD_SLICES))
                )
                self.meter.pace()
        self.cluster, self._data = cluster, data

    def loaded_user_bytes(self) -> int:
        return sum(rowset_user_bytes(rows) for rows in self._data.tables.values())

    def run_pass(self, p: Pass, index: int) -> None:
        for query in TPCH_QUERIES:
            key = f"q{query.number:02d}"
            self.run_query(p, key, key, query.sql)


class TpchCold(TpchWarm):
    """Same data and queries with depots at about 60 % of each node's
    resident set: the fetch path (depot, I/O scheduler, S3) works on every
    pass."""

    name = "tpch_cold"
    cache_bytes = 3_750_000


# -- dashboard short queries --------------------------------------------------------

DASH_EVENTS = 20_000
DASH_SITES = 10
#: ``ev_ts`` is 0..DASH_EVENTS-1, so these windows cover the newest 1 %.
DASH_WINDOWS = tuple(DASH_EVENTS - DASH_EVENTS // 100 - 10 * k for k in range(5))
DASH_SERIAL_REQUESTS = 240
DASH_CLIENTS = 8
DASH_REQUESTS_PER_CLIENT = 30


def _dim_lookup(site: int) -> str:
    return f"select site_name from sites where site_id = {site}"


class DashShort(Workload):
    """Short dashboard queries, serial then 8 concurrent clients, obs on:
    per-query fixed cost (parse, bind, plan, session, admission, recording,
    small-container decode) dominates."""

    name = "dash_short"
    passes = 6

    def build(self) -> None:
        cluster = EonCluster(NODES, shard_count=SHARDS, seed=self.seed)
        cluster.enable_observability()
        setup_dashboard_schema(cluster)
        events = DASH_EVENTS // 5 if self.quick else DASH_EVENTS
        load_dashboard_data(
            cluster, n_events=events, n_sites=DASH_SITES, seed=self.seed
        )
        self.cluster = cluster
        self._windows = tuple(w * events // DASH_EVENTS for w in DASH_WINDOWS)
        # 3 dash_recent : 1 dim_lookup, parameters drawn once so that every
        # pass asks the same questions and must get the same answers.
        draw = random.Random(self.seed)
        requests = DASH_SERIAL_REQUESTS // 6 if self.quick else DASH_SERIAL_REQUESTS
        self._schedule = []  # (class, digest key, sql, answer check or None)
        for i in range(requests):
            if i % 4 == 3:
                site = draw.randrange(DASH_SITES)
                self._schedule.append((
                    "dim_lookup", f"dim_lookup:{site}", _dim_lookup(site),
                    functools.partial(operator.eq, [(f"site-{site}",)]),
                ))
            else:
                window = draw.choice(self._windows)
                self._schedule.append((
                    "dash_recent", f"dash_recent:{window}", dashboard_query(window),
                    None,
                ))
        # The concurrent clients keep the 3 : 1 mix: three windows, one site.
        site = draw.randrange(DASH_SITES)
        self._concurrent = {
            dashboard_query(w).strip(): f"dash_recent:{w}" for w in self._windows[:3]
        }
        self._concurrent[_dim_lookup(site)] = f"dim_lookup:{site}"
        # events: four 8-byte columns; devices: two ints and "m<k>"; sites:
        # an int and "site-<k>".
        self.user_bytes = events * 32 + 200 * 18 + DASH_SITES * 14

    def run_pass(self, p: Pass, index: int) -> None:
        for cls, key, sql, extra_ok in self._schedule:
            self.run_query(p, cls, key, sql, extra_ok)
        self._closed_loop(p, index)

    def _closed_loop(self, p: Pass, index: int) -> None:
        """8 clients x 30 requests interleaved on the sim clock, timed as a
        whole.  Digest checks and kernel samples run in the driver's
        per-request callback; their time is taken out of the reading."""
        requests = 2 if self.quick else DASH_REQUESTS_PER_CLIENT
        workload = wm_driver.ClosedLoopWorkload(
            statements=tuple(self._concurrent),
            clients=DASH_CLIENTS,
            requests_per_client=requests,
            # Request seeds (session placement) rotate with the pass, as
            # the serial sessions do.
            seed=index,
        )
        overhead_ns = 0

        def on_result(result) -> str:
            nonlocal overhead_ns
            start = perf_counter_ns()
            digest = row_digest(result.rows.to_pylist())
            self.meter.pace()
            overhead_ns += perf_counter_ns() - start
            return digest

        op_id = self._next_op_id()
        if p.traced:
            on_result = self.tracer.wrap("bench.check", on_result)
        queue_wait_before = self._queue_wait_s()
        start = perf_counter_ns()
        outcome = wm_driver.run_closed_loop(self.cluster, workload, result_key=on_result)
        end = perf_counter_ns()
        p.count("queue_wait_sim_s", self._queue_wait_s() - queue_wait_before)
        wrong = 0
        for record in outcome.records:
            if record.outcome != "ok":
                continue
            key = self._concurrent[record.sql]
            wrong += not self.check(key, record.digest)
            p.extra_sim_s.setdefault(key.split(":")[0] + "_concurrent", []).append(
                record.latency_seconds
            )
        attempted = DASH_CLIENTS * requests
        p.ops.append(
            Op(
                "closed_loop", start, end, end - start - overhead_ns,
                outcome.duration_seconds,
                failed=attempted - outcome.completed + wrong,
                requests=attempted, serial=False, op_id=op_id,
            )
        )
        p.count("closed_loop_per_minute", outcome.per_minute)
        p.count("closed_loop_requests", attempted)
        p.count("closed_loop_rejected", outcome.rejected)
        self.meter.pace()

    def _queue_wait_s(self) -> float:
        pools = self.cluster.admission.pools.values()
        return sum(pool.queue_wait_seconds for pool in pools)

    def sim_ops_per_min(self, passes: List[Pass]) -> Optional[float]:
        return statistics.median(p.counters["closed_loop_per_minute"] for p in passes)


# -- IoT ingest ---------------------------------------------------------------------

IOT_STREAMS = 4
IOT_BATCH_ROWS = 2000
IOT_WARMUP_LOADS = 80
IOT_LOADS_PER_PASS = 120
IOT_QUERY_EVERY = 8
IOT_TICK_EVERY = 40
IOT_WINDOW_BATCHES = 10


class IotIngest(Workload):
    """Small COPYs into 4 streams beside recent-window reads and service
    ticks: encode, depot write-through, commit, catalog sync and mergeout
    work; ends with a revive from shared storage alone."""

    name = "iot_ingest"
    passes = 9

    def build(self) -> None:
        cluster = EonCluster(NODES, shard_count=SHARDS, seed=self.seed)
        setup_iot_schema(cluster, streams=IOT_STREAMS)
        self.cluster = cluster
        self.services = ServiceScheduler(cluster)
        self._loads = 0
        self.user_bytes = 0

    def run_pass(self, p: Pass, index: int) -> None:
        loads = IOT_WARMUP_LOADS if index == 0 else IOT_LOADS_PER_PASS
        if self.quick:
            loads //= 2
        for _ in range(loads):
            stream = self._loads % IOT_STREAMS
            sequence = self._loads // IOT_STREAMS
            table = f"metrics_{stream}"
            # The generator's stream id only seeds the content; which table
            # a batch goes to is the benchmark's choice.
            _name, rows = iot_batch(
                self.seed * IOT_STREAMS + stream, sequence, rows=IOT_BATCH_ROWS
            )
            self._copy(p, table, rows)
            self._loads += 1
            if self._loads % IOT_QUERY_EVERY == 0:
                self._recent_query(p, table, sequence)
            if self._loads % IOT_TICK_EVERY == 0:
                self._tick(p)

    def _copy(self, p: Pass, table: str, rows) -> None:
        def judge(report) -> tuple:
            p.count("rows_loaded", report.rows_loaded)
            p.count("containers_written", report.containers_written)
            p.count("copies", 1)
            return report.io_seconds, report.rows_loaded == rows.num_rows

        self.run_op(p, "copy", lambda: self.cluster.load(table, rows), judge)
        nbytes = rowset_user_bytes(rows)
        self.user_bytes += nbytes
        p.count("user_bytes", nbytes)

    def _recent_query(self, p: Pass, table: str, sequence: int) -> None:
        first = max(0, sequence - (IOT_WINDOW_BATCHES - 1))
        expected_rows = (sequence - first + 1) * IOT_BATCH_ROWS
        sql = (
            f"select m_flags, count(*) n, avg(m_value) mean from {table} "
            f"where m_ts >= {first * IOT_BATCH_ROWS} group by m_flags"
        )
        self.run_query(
            p, "recent_query", f"recent_query:{self._loads:06d}", sql,
            extra_ok=lambda rows: sum(r[1] for r in rows) == expected_rows,
        )

    def _tick(self, p: Pass) -> None:
        metrics = self.cluster.shared.metrics
        sim_before = metrics.sim_seconds
        errors_before = self.services.stats.errors

        def judge(stats) -> tuple:
            return metrics.sim_seconds - sim_before, stats.errors == errors_before

        self.run_op(p, "service_tick", self.services.tick, judge)
        p.count("ticks", 1)

    def finish(self) -> Dict[str, float]:
        """Durability: a cluster revived from shared storage alone must
        hold the same rows as the one that wrote them."""
        cluster = self.cluster
        sim_before = cluster.shared.metrics.sim_seconds

        def durable_restart():
            cluster.sync_catalogs()
            cluster.write_cluster_info()
            return revive(cluster.shared, force=True)

        self.meter.sample()
        start = perf_counter_ns()
        try:
            revived = durable_restart()
        except ReproError as exc:
            self.check_failures.append(f"revive raised {type(exc).__name__}: {exc}")
            return {"cluster.revive_real_s": 0.0, "cluster.revive_sim_s": 0.0}
        end = perf_counter_ns()
        self.meter.sample()
        real_s = (end - start) / 1e9 * self.meter.speed(start, end)
        sim_s = cluster.shared.metrics.sim_seconds - sim_before
        for stream in range(IOT_STREAMS):
            sql = (
                f"select m_flags, count(*) n, sum(m_ts) ts, sum(m_value) v "
                f"from metrics_{stream} group by m_flags"
            )
            before = row_digest(cluster.query(sql).rows.to_pylist())
            after = row_digest(revived.query(sql).rows.to_pylist())
            self.digests[f"revive:{stream}"] = after
            if before != after:
                self.check_failures.append(
                    f"metrics_{stream}: revived cluster returned other rows"
                )
        return {"cluster.revive_real_s": real_s, "cluster.revive_sim_s": sim_s}


WORKLOADS = {w.name: w for w in (TpchWarm, TpchCold, DashShort, IotIngest)}
