"""Pushdown frontier: cold-depot TPC-H with scan-strategy selection.

The S3 compute-pushdown claim: on a cold depot, answering a selective
scan server-side (filter + projection next to the data) beats hydrating
whole containers through the 30 ms GET + narrow-bandwidth read path.
The price card says the opposite about dollars — a pushdown still pays
the hydration GETs (the depot is warmed in the background) *plus* the
SELECT request and bytes-scanned fees — so this bench reports the honest
frontier: simulated wall-clock bought with bytes-scanned dollars.

Setup: one-COPY-per-table load at a larger scale than the other benches
(containers of a few MB), so per-container transfer time, not the fixed
request fee, dominates the cold path — the regime the strategy exists
for.  Acceptance: ``pushdown=auto`` improves cold wall-clock by >= 1.5x
on at least 3 selective queries, chooses the depot everywhere warm, and
never beats the depot path on dollars (if it did, the accounting would
be wrong).
"""

from __future__ import annotations

import pytest

from repro import EonCluster
from repro.bench.reporting import format_table, write_bench_json
from repro.obs.metrics import cluster_metrics
from repro.workloads.tpch import TPCH_QUERIES, TpchData, setup_tpch_schema

from conftest import ENTERPRISE_TABLES, emit

#: Larger than the shared ``tpch_data`` scale: single-COPY loads at this
#: scale give ~MB containers, where transfer time dominates the GET fee.
FRONTIER_SCALE = 0.03


@pytest.fixture(scope="module")
def frontier_cluster():
    data = TpchData.generate(scale=FRONTIER_SCALE, seed=42)
    cluster = EonCluster(["n1", "n2", "n3", "n4"], shard_count=4, seed=1)
    setup_tpch_schema(cluster)
    for name in ENTERPRISE_TABLES:
        cluster.load(name, data.tables[name].to_pylist())
    return cluster


def _cold(cluster, sql, mode):
    """Clear every depot, run the query, return its cost triple."""
    for node in cluster.nodes.values():
        node.cache.clear()
    dollars_before = cluster.shared.metrics.dollars
    result = cluster.query(sql, pushdown=mode, seed=1)
    return (
        result.stats.latency_seconds,
        cluster.shared.metrics.dollars - dollars_before,
        result.stats.total_pushdown_scans,
    )


def test_pushdown_frontier(benchmark, frontier_cluster):
    cluster = frontier_cluster
    rows_box = {}

    def run():
        rows = []
        totals = {"off_s": 0.0, "auto_s": 0.0, "off_d": 0.0, "auto_d": 0.0}
        for query in TPCH_QUERIES:
            off_s, off_d, _ = _cold(cluster, query.sql, "off")
            auto_s, auto_d, selects = _cold(cluster, query.sql, "auto")
            totals["off_s"] += off_s
            totals["auto_s"] += auto_s
            totals["off_d"] += off_d
            totals["auto_d"] += auto_d
            rows.append([
                f"Q{query.number}", off_s * 1000, auto_s * 1000,
                off_s / auto_s if auto_s else float("inf"),
                selects, off_d * 1e6, auto_d * 1e6,
            ])
        rows_box["rows"] = rows
        rows_box["totals"] = totals
        return totals["auto_s"]

    benchmark.pedantic(run, rounds=1, iterations=1)
    rows, totals = rows_box["rows"], rows_box["totals"]
    emit(format_table(
        "Pushdown frontier — cold-depot TPC-H (simulated, 4 nodes)",
        ["query", "depot ms", "auto ms", "speedup", "selects",
         "depot $u", "auto $u"],
        rows,
    ))
    emit(
        f"suite cold wall-clock: {totals['off_s'] * 1000:.0f}ms depot ->"
        f" {totals['auto_s'] * 1000:.0f}ms auto"
        f" ({totals['off_s'] / totals['auto_s']:.2f}x);"
        f" dollars {totals['off_d'] * 1e6:.1f} -> {totals['auto_d'] * 1e6:.1f}"
        " micro-$ (latency is bought with bytes-scanned fees)"
    )
    write_bench_json(
        "pushdown_frontier",
        {
            "figure": "pushdown-frontier",
            "scale": FRONTIER_SCALE,
            "queries": {
                name: {
                    "depot_cold_ms": off_ms,
                    "auto_cold_ms": auto_ms,
                    "speedup": ratio,
                    "pushdown_scans": selects,
                    "depot_microdollars": off_ud,
                    "auto_microdollars": auto_ud,
                }
                for name, off_ms, auto_ms, ratio, selects, off_ud, auto_ud
                in rows
            },
            "suite": {
                "depot_cold_s": totals["off_s"],
                "auto_cold_s": totals["auto_s"],
                "depot_dollars": totals["off_d"],
                "auto_dollars": totals["auto_d"],
            },
        },
        metrics=cluster_metrics(cluster),
    )
    # Acceptance: >= 1.5x cold wall-clock on >= 3 queries, and only where
    # the strategy actually pushed scans down.
    big_wins = [r for r in rows if r[3] >= 1.5 and r[4] > 0]
    assert len(big_wins) >= 3, (
        f"only {len(big_wins)} queries >= 1.5x: "
        f"{[(r[0], round(r[3], 2)) for r in rows]}"
    )
    # Auto never regresses a cold query by more than jitter-free noise
    # (the break-even test is strict: pushdown only when estimated faster).
    for name, off_ms, auto_ms, *_ in rows:
        assert auto_ms <= off_ms * 1.01, f"{name}: auto slower than depot"
    # Honest dollars: pushdown pays hydration GETs plus SELECT fees, so
    # auto can only cost more than the pure depot path.
    assert totals["auto_d"] >= totals["off_d"]


def test_pushdown_auto_goes_depot_when_warm(benchmark, frontier_cluster):
    """Warm depots end the frontier: every strategy decision must come
    back 'depot' (reads are free), so auto matches off exactly."""
    cluster = frontier_cluster
    query = TPCH_QUERIES[5]  # Q6: the most pushdown-friendly query cold.

    def run():
        cluster.query(query.sql, pushdown="off", seed=1)
        return cluster.query(query.sql, pushdown="auto", seed=1)

    warm = benchmark.pedantic(run, rounds=1, iterations=1)
    assert warm.stats.total_pushdown_scans == 0
    assert warm.stats.total_bytes_from_shared == 0
    assert warm.stats.total_bytes_from_cache > 0
