"""E9: designed vs naive physical layouts (the cost-based designer's bar).

Three identically-loaded clusters — TPC-H plus a dashboard slice plus an
IoT telemetry schema — run the same interleaved mixed workload (one cold
warm-up pass, then a measured steady-state pass):

* **naive**: the super projections the loader creates (full width, stock
  sort/segmentation), with the IoT table trickle-loaded in eight COPY
  batches the way telemetry actually arrives;
* **heuristic**: designer v1's frequency heuristic
  (:class:`FrequencyDesigner`: most-common join key, most-common filter
  column — blind to selectivity and cost);
* **cost-based**: designer v2 end to end — observability on, the mix run
  once to *record*, ``ingest_recorded`` to profile, cost-based search,
  versioned apply.

Every node gets a small depot (``CACHE_BYTES``), sized so the workload's
*designed* working set — narrow projections over just the touched columns,
consolidated by the projection refresh into one container per shard —
stays depot-resident, while the naive layout's full-width, fragmented
containers do not fit and thrash: every pass over the interleaved mix —
the measured one included — re-fetches them from shared storage at
cold-GET latency.  That is the depot economics the paper's designer
exists to win.

The mix is also adversarial for the frequency heuristic on purpose: the
most *common* filter columns (``l_quantity > 0``, ``temp > -100``) prune
nothing, while the rarer range predicates (``l_shipdate``, ``ts``) are
highly selective.  Counting frequencies picks the useless sort key; only
scoring candidates through the cost model finds the pruning one.

Acceptance: cost-based beats naive by >= 1.3x simulated wall-clock on the
measured pass, issues fewer S3 GETs, beats the v1 heuristic, and every
layout returns bit-identical row digests for every query.
"""

from __future__ import annotations

import hashlib
import math
from typing import Dict, List, Tuple

import numpy as np

from repro import EonCluster
from repro.shell import format_table
from repro.engine.cost import DesignCost, QueryShape, TableLayout, estimate_workload_cost
from repro.engine.designer import (
    REPLICATION_ROW_THRESHOLD,
    DatabaseDesigner,
    _Candidate,
    _SearchResult,
)
from repro.workloads.tpch import TPCH_QUERIES, TpchData, load_tpch, setup_tpch_schema

from conftest import emit

IOT_DEVICES = 40
IOT_READINGS = 120_000
IOT_BATCHES = 8
#: Per-node depot size.  The designed working set (narrow projections,
#: one container per shard, ~1.5 MB per node) fits; the naive one (full
#: 11-column readings super across 8 trickle-load batches, ~2.7 MB per
#: node) does not, so every interleaved pass re-fetches it cold.
CACHE_BYTES = 2_500_000
ROUNDS = 8


class FrequencyDesigner(DatabaseDesigner):
    """The v1 heuristic, kept as a benchmark rival: pick the most common
    join-key set and sort by raw filter frequency (``Counter.most_common``
    instead of cost-based search).  Shares v2's qualified ingestion and
    idempotent apply, so benchmarks compare *search quality* alone."""

    def _search(self, shapes: List[QueryShape],
                candidates: Dict[str, List[_Candidate]]) -> _SearchResult:
        node_count = self._node_count()
        assignment: Dict[str, _Candidate] = {}
        for table in sorted(candidates):
            stats = self._stats_cache[table]
            schema = self.catalog.table(table).schema
            used = tuple(c for c in schema.names if stats.columns.get(c))
            if not used:
                used = (schema.names[0],)
            declared = self.row_counts.get(table)
            if declared is not None and declared <= REPLICATION_ROW_THRESHOLD:
                seg: Tuple[str, ...] = ()
            elif stats.join_sets:
                key_set, _hits = stats.join_sets.most_common(1)[0]
                seg = tuple(c for c in schema.names if c in key_set)
            else:
                seg = (used[0],)
            sort: List[str] = []
            for column, _hits in stats.filters.most_common():
                if column in used and column not in sort:
                    sort.append(column)
            for column, _hits in stats.groups.most_common():
                if column in used and column not in sort:
                    sort.append(column)
            if not sort:
                sort = [used[0]]
            layout = TableLayout(
                table=table, columns=used, sort_order=tuple(sort),
                segmentation_columns=seg,
                row_count=self._estimate_rows(table),
                bytes_per_cell=self._bytes_per_cell(table),
            )
            assignment[table] = _Candidate(
                layout=layout,
                encodings=self._encodings_for(table, used, tuple(sort)),
            )
        layouts = {t: c.layout for t, c in assignment.items()}
        estimated = estimate_workload_cost(
            shapes, layouts, node_count
        ) or DesignCost(seconds=math.inf)
        baseline = estimate_workload_cost(
            shapes,
            self._baseline_layouts(sorted(layouts), self._stats_cache),
            node_count,
        ) or DesignCost(seconds=math.inf)
        return _SearchResult(assignment, estimated, baseline, "frequency",
                             len(assignment))


DASHBOARD = (
    "select count(*) from lineitem where l_quantity > 0",
    "select sum(l_extendedprice) from lineitem "
    "where l_shipdate <= date '1992-09-01'",
    "select o_orderpriority, count(*) c from orders "
    "group by o_orderpriority",
)
IOT = (
    "select count(*) from readings where temp > -100",
    "select sum(temp) from readings where ts between 60000 and 60500",
    "select site, sum(temp) s from readings, devices "
    "where device = device_id group by site",
)


def _mixed_workload() -> List[str]:
    """TPC-H once, then ROUNDS interleaved dashboard/IoT rounds.

    Interleaving matters: the frequent queries alternate between the
    lineitem/orders and readings container sets, so a depot that cannot
    hold both working sets pays cold fetches every round, not just once.
    The no-op filters (``l_quantity``, ``temp``) repeat twice per round
    so a frequency count crowns them the top sort keys.
    """
    mix: List[str] = [q.sql for q in TPCH_QUERIES]
    d1, d2, d3 = DASHBOARD
    i1, i2, i3 = IOT
    for _ in range(ROUNDS):
        mix.extend([d1, d1, i1, i1, d2, i2, d3, i3])
    return mix


def _iot_rows() -> Tuple[list, list]:
    devices = [(d, f"site{d % 5}") for d in range(IOT_DEVICES)]
    readings = [
        (
            i % IOT_DEVICES,            # device
            i,                          # ts
            float((i * 7919) % 10007) / 100.0 - 20.0,  # temp (high-cardinality)
            50.0 + (i % 97) / 2.0,      # humidity
            3.0 + (i % 11) / 10.0,      # voltage
            -40.0 - float(i % 53),      # rssi
            float(100 - (i % 100)),     # battery
            37.0 + (i % 180) / 100.0,   # lat
            -122.0 + (i % 360) / 100.0, # lon
            float(i % 3),               # status
            float((i * 7) % 1000),      # seq
        )
        for i in range(IOT_READINGS)
    ]
    return devices, readings


def _build_cluster(data: TpchData, devices: list, readings: list) -> EonCluster:
    cluster = EonCluster(
        ["n1", "n2", "n3", "n4"], shard_count=4, seed=1,
        cache_bytes=CACHE_BYTES,
    )
    setup_tpch_schema(cluster)
    load_tpch(cluster, data)
    cluster.execute("create table devices (device_id int, site varchar)")
    cluster.execute(
        "create table readings (device int, ts int, temp float, "
        "humidity float, voltage float, rssi float, battery float, "
        "lat float, lon float, status float, seq float)"
    )
    cluster.load("devices", devices)
    # Telemetry arrives as a trickle: eight time-ordered COPY batches,
    # each leaving its own containers per shard.  The designer's refresh
    # consolidates these; the naive layout lives with the fragmentation
    # (though its ts extents still allow honest container pruning on the
    # ts-range query).
    batch = IOT_READINGS // IOT_BATCHES
    for k in range(IOT_BATCHES):
        cluster.load("readings", readings[k * batch:(k + 1) * batch])
    return cluster


def _row_counts(data: TpchData) -> Dict[str, int]:
    return {
        **data.row_counts(),
        "devices": IOT_DEVICES,
        "readings": IOT_READINGS,
    }


def canon(rows) -> list:
    return sorted(
        tuple(
            round(v, 6) if isinstance(v, float) and not np.isnan(v) else
            ("nan" if isinstance(v, float) and np.isnan(v) else v)
            for v in row
        )
        for row in rows
    )


def _digests(cluster, sqls) -> Dict[str, str]:
    return {
        sql: hashlib.sha256(
            repr(canon(cluster.query(sql).rows.to_pylist())).encode()
        ).hexdigest()
        for sql in sqls
    }


def _run_suite(cluster, mix) -> Dict[str, float]:
    """Cold-start the depots, run one warm-up pass, measure the second.

    Measuring the steady-state pass is what makes this a *layout*
    benchmark: first-touch noise (cold fetch order, one-shot pushdown
    picks on not-yet-resident containers) amortizes away for any layout
    whose working set fits the depot, while a layout that does not fit
    keeps paying cold S3 GETs on the measured pass too — the thrashing
    is the steady state."""
    for node in cluster.nodes.values():
        node.cache.clear()
    for sql in mix:
        cluster.query(sql)
    metrics = cluster.shared.metrics
    gets0, dollars0 = metrics.get_requests, metrics.dollars
    hits0 = sum(n.cache.stats.hits for n in cluster.nodes.values())
    misses0 = sum(n.cache.stats.misses for n in cluster.nodes.values())
    seconds = 0.0
    for sql in mix:
        seconds += cluster.query(sql).stats.latency_seconds
    hits = sum(n.cache.stats.hits for n in cluster.nodes.values()) - hits0
    misses = sum(n.cache.stats.misses for n in cluster.nodes.values()) - misses0
    return {
        "seconds": seconds,
        "s3_gets": metrics.get_requests - gets0,
        "s3_dollars": metrics.dollars - dollars0,
        "depot_hit_rate": hits / (hits + misses) if hits + misses else 0.0,
    }


def _e9_layouts() -> tuple:
    """E9's three clusters, each on its layout — naive, the v1 heuristic's,
    the cost-based designer's — the mix, and the designer's run."""
    data = TpchData.generate(scale=0.002, seed=42)
    devices, readings = _iot_rows()
    mix = _mixed_workload()

    naive = _build_cluster(data, devices, readings)
    heuristic = _build_cluster(data, devices, readings)
    cost = _build_cluster(data, devices, readings)

    # v1 heuristic: frequency counters straight to a layout.
    v1 = FrequencyDesigner.for_cluster(heuristic, row_counts=_row_counts(data))
    v1.add_workload(mix)
    v1.apply(heuristic)

    # v2 end to end: record the mix, ingest the profiles, search, apply.
    cost.enable_observability()
    for sql in mix:
        cost.query(sql)
    v2 = DatabaseDesigner.for_cluster(cost, row_counts=_row_counts(data))
    report = v2.ingest_recorded(cost)
    assert report.used == len(mix), report.skipped
    run = v2.apply(cost)
    assert run.created
    return {"naive": naive, "heuristic": heuristic, "cost": cost}, mix, run


def test_e9_designed_vs_naive(benchmark):
    clusters, mix, run = _e9_layouts()
    naive, heuristic, cost = clusters["naive"], clusters["heuristic"], clusters["cost"]
    distinct = list(dict.fromkeys(mix))
    results_box = {}

    def run_all():
        for name, cluster in clusters.items():
            results_box[name] = _run_suite(cluster, mix)
        return results_box["cost"]["seconds"]

    benchmark.pedantic(run_all, rounds=1, iterations=1)
    r = results_box
    speedup_naive = r["naive"]["seconds"] / r["cost"]["seconds"]
    speedup_v1 = r["heuristic"]["seconds"] / r["cost"]["seconds"]
    emit(format_table(
        "E9 — designed vs naive layouts, mixed TPC-H + dashboard + IoT "
        "(steady-state pass, simulated, 4 nodes)",
        ["layout", "wall-clock s", "S3 GETs", "S3 $", "depot hit rate"],
        [
            [name,
             f"{r[name]['seconds']:.3f}",
             r[name]["s3_gets"],
             f"{r[name]['s3_dollars']:.6f}",
             f"{r[name]['depot_hit_rate']:.1%}"]
            for name in ("naive", "heuristic", "cost")
        ],
    ))
    emit(
        f"cost-based vs naive: {speedup_naive:.2f}x wall-clock, "
        f"GETs {r['naive']['s3_gets']} -> {r['cost']['s3_gets']}; "
        f"vs v1 heuristic: {speedup_v1:.2f}x "
        f"({run.search_mode} search over {run.candidates_scored} candidates)"
    )
    # Digest identity across all three layouts, every query in the mix.
    naive_digests = _digests(naive, distinct)
    assert _digests(heuristic, distinct) == naive_digests
    assert _digests(cost, distinct) == naive_digests
    # Acceptance: the cost-based design pays for itself.
    assert speedup_naive >= 1.3, f"only {speedup_naive:.2f}x vs naive"
    assert r["cost"]["s3_gets"] < r["naive"]["s3_gets"]
    assert r["cost"]["seconds"] < r["heuristic"]["seconds"]
