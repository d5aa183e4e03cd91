"""Section 8 (text): elasticity cost is a function of cache working set.

"Elasticity in Eon mode is a function of cache size since the majority of
the time is spent moving data. ... Without cache fill, the process takes
minutes.  Performance comparisons with Enterprise are unfair as Enterprise
must redistribute the entire data set."

We measure the bytes moved to bring a new node to full speed: (a) Eon with
peer cache warming, (b) Eon without warming (instant, cold cache), and
(c) the Enterprise-equivalent full-node repair volume.
"""

from __future__ import annotations

import pytest

from repro import ColumnType, EnterpriseCluster, EonCluster
from repro.shell import format_table

from conftest import emit

COLUMNS = [("k", ColumnType.INT), ("g", ColumnType.VARCHAR), ("v", ColumnType.FLOAT)]
ROWS = [(i, f"g{i % 7}", float(i)) for i in range(6_000)]


def test_elasticity_cost_proportional_to_working_set(benchmark):
    box = {}

    def run():
        cluster = EonCluster(["a", "b", "c"], shard_count=3, seed=6)
        cluster.create_table("t", COLUMNS)
        for start in range(0, len(ROWS), 1000):
            cluster.load("t", ROWS[start:start + 1000], use_cache=False)
        # Working set: dashboards touch only the most recent slice.
        cluster.query("select sum(v) from t where k >= 5000")
        dataset_bytes = sum(
            cluster.shared_data.size(name) for name in cluster.shared_data.list()
        )

        warm_node = cluster.add_node("d", warm_cache=True)
        warm_bytes = warm_node.cache.used_bytes

        cold_cluster = EonCluster(["a", "b", "c"], shard_count=3, seed=6)
        cold_cluster.create_table("t", COLUMNS)
        for start in range(0, len(ROWS), 1000):
            cold_cluster.load("t", ROWS[start:start + 1000], use_cache=False)
        cold_node = cold_cluster.add_node("d", warm_cache=False)
        cold_bytes = cold_node.cache.used_bytes

        enterprise = EnterpriseCluster(["a", "b", "c"], seed=6)
        enterprise.create_table("t", COLUMNS)
        enterprise.load("t", ROWS, direct=True)
        add_bytes = enterprise.add_node("d")  # full redistribution
        enterprise.kill_node("b")
        repair_bytes = enterprise.recover_node("b")

        box["rows"] = [
            ["Eon add node, warm cache", warm_bytes],
            ["Eon add node, no warm", cold_bytes],
            ["Enterprise add node (redistribute)", add_bytes],
            ["Enterprise node repair", repair_bytes],
            ["(total dataset on S3)", dataset_bytes],
        ]
        box["values"] = (warm_bytes, cold_bytes, add_bytes, repair_bytes, dataset_bytes)
        return box["values"]

    benchmark.pedantic(run, rounds=1, iterations=1)
    warm, cold, add, repair, dataset = box["values"]
    emit(format_table(
        "Elasticity — bytes moved to add/restore a node",
        ["operation", "bytes moved"],
        box["rows"],
    ))
    assert cold == 0  # without cache fill, adding a node moves no data
    assert 0 < warm < dataset * 0.5  # warm moves the working set only
    assert repair > warm  # Enterprise repair moves the node's whole share
    # "Enterprise must redistribute the entire data set": the add rewrites
    # base + buddy of everything — more than the whole dataset image.
    assert add > dataset * 0.8


def test_query_correct_immediately_after_add(benchmark):
    def run():
        cluster = EonCluster(["a", "b", "c"], shard_count=3, seed=6)
        cluster.create_table("t", COLUMNS)
        cluster.load("t", ROWS)
        cluster.add_node("d", warm_cache=False)
        return cluster.query("select count(*) from t").rows.to_pylist()

    result = benchmark.pedantic(run, rounds=1, iterations=1)
    assert result == [(len(ROWS),)]
