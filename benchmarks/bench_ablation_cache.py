"""Ablation (section 5.2): cache policies and peer warming.

Measures (a) latency with cache vs without; (b) shaping policies keeping
dashboard data resident under batch-scan pressure; (c) node-down latency
with vs without load-time peer pushes.
"""

from __future__ import annotations

import pytest

from repro import ColumnType, EonCluster
from repro.shell import format_table
from repro.cache.disk_cache import ShapingPolicy

from conftest import emit

COLUMNS = [("k", ColumnType.INT), ("g", ColumnType.VARCHAR), ("v", ColumnType.FLOAT)]


def test_ablation_cache_vs_s3_latency(benchmark):
    box = {}

    def run():
        cluster = EonCluster(["a", "b", "c"], shard_count=3, seed=7)
        cluster.create_table("t", COLUMNS)
        cluster.load("t", [(i, f"g{i % 5}", float(i)) for i in range(8_000)])
        sql = "select g, sum(v) from t group by g"
        cluster.query(sql)  # warm
        warm = cluster.query(sql).stats.latency_seconds
        cold = cluster.query(sql, use_cache=False).stats.latency_seconds
        box["warm"], box["cold"] = warm, cold
        return warm, cold

    benchmark.pedantic(run, rounds=1, iterations=1)
    emit(format_table(
        "Ablation — cache vs direct-S3 latency",
        ["path", "simulated ms"],
        [["in-cache", box["warm"] * 1000], ["from S3", box["cold"] * 1000]],
    ))
    assert box["cold"] > box["warm"] * 3


def test_ablation_shaping_policy_protects_dashboard(benchmark):
    """'ensure large batch historical queries do not evict items important
    to serving low latency dashboard queries'."""
    box = {}

    def run():
        # Tiny caches so the batch table would evict everything.
        policy = ShapingPolicy(deny_tables={"archive"})
        protected = EonCluster(["a", "b", "c"], shard_count=3, seed=7,
                               cache_bytes=24 << 10)
        unprotected = EonCluster(["a", "b", "c"], shard_count=3, seed=7,
                                 cache_bytes=24 << 10)
        for node in protected.nodes.values():
            node.cache.policy = policy
        results = {}
        for name, cluster in (("deny-archive", protected), ("no policy", unprotected)):
            cluster.create_table("dash", COLUMNS)
            cluster.create_table("archive", COLUMNS)
            cluster.load("dash", [(i, f"g{i % 3}", 1.0) for i in range(500)])
            cluster.query("select sum(v) from dash")  # dashboard warm
            # Many cache-sized, incompressible archive batches generate
            # real eviction pressure.
            for start in range(0, 20_000, 1_000):
                cluster.load(
                    "archive",
                    [(start + i, f"x{start + i}", float(i) * 1.7)
                     for i in range(1_000)],
                )
            cluster.query("select count(*) from archive")  # batch pressure
            after = cluster.query("select sum(v) from dash").stats
            results[name] = after.total_bytes_from_shared
        box["results"] = results
        return results

    benchmark.pedantic(run, rounds=1, iterations=1)
    results = box["results"]
    emit(format_table(
        "Ablation — dashboard bytes re-fetched from S3 after batch scan",
        ["cache policy", "bytes from S3"],
        [[k, v] for k, v in results.items()],
    ))
    assert results["deny-archive"] == 0
    assert results["no policy"] > 0


def test_ablation_peer_push_warms_takeover(benchmark):
    """Load-time peer pushes mean the takeover node is warm on failure."""
    box = {}

    def run():
        results = {}
        for label, use_cache in (("with peer push", True), ("no peer push", False)):
            cluster = EonCluster(["a", "b", "c"], shard_count=3, seed=7)
            cluster.create_table("t", COLUMNS)
            cluster.load(
                "t",
                [(i, f"g{i % 5}", float(i)) for i in range(4_000)],
                use_cache=use_cache,
            )
            cluster.kill_node("b")
            after = cluster.query("select sum(v) from t").stats
            results[label] = after.total_bytes_from_shared
        box["results"] = results
        return results

    benchmark.pedantic(run, rounds=1, iterations=1)
    results = box["results"]
    emit(format_table(
        "Ablation — S3 bytes on first query after node kill",
        ["load mode", "bytes from S3"],
        [[k, v] for k, v in results.items()],
    ))
    assert results["with peer push"] == 0
    assert results["no peer push"] > 0
