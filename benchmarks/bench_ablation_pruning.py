"""Ablation (sections 2.1, 2.3): min/max pruning — containers and blocks.

Vertica's answer to indexes: per-container and per-block min/max metadata
plus expression analysis.  We compare a selective date-range query over
(a) chronologically loaded, sort-ordered data (prunable) and (b) the same
rows loaded in one shuffled batch (nothing to prune).
"""

from __future__ import annotations

import numpy as np
import pytest

from repro import ColumnType, EonCluster
from repro.shell import format_table

from conftest import emit

N_ROWS = 60_000
BATCHES = 12


def _cluster(chronological: bool) -> EonCluster:
    cluster = EonCluster(["a", "b", "c"], shard_count=3, seed=10)
    cluster.execute("create table ev (ts int, v float)")
    rng = np.random.default_rng(5)
    ts = np.arange(N_ROWS)
    if not chronological:
        rng.shuffle(ts)
    rows = [(int(t), float(t % 97)) for t in ts]
    step = N_ROWS // BATCHES
    for start in range(0, N_ROWS, step):
        cluster.load("ev", rows[start:start + step])
    cluster.query("select count(*) from ev")  # warm all caches
    return cluster


QUERY = "select sum(v) from ev where ts between 30000 and 31000"


def test_ablation_minmax_pruning(benchmark):
    box = {}

    def run():
        rows = []
        for label, chronological in (("chronological load", True),
                                     ("shuffled load", False)):
            cluster = _cluster(chronological)
            result = cluster.query(QUERY)
            stats = result.stats
            rows.append([
                label,
                sum(w.containers_scanned for w in stats.per_node.values()),
                sum(w.containers_pruned for w in stats.per_node.values()),
                sum(w.blocks_pruned for w in stats.per_node.values()),
                stats.total_rows_scanned,
                stats.latency_seconds * 1000,
            ])
            box[label] = (result.rows.to_pylist(), stats.total_rows_scanned)
        box["rows"] = rows
        return rows

    benchmark.pedantic(run, rounds=1, iterations=1)
    emit(format_table(
        "Ablation — min/max pruning on a 1.7%-selective range query",
        ["load order", "containers scanned", "containers pruned",
         "blocks pruned", "rows scanned", "latency ms"],
        box["rows"],
    ))
    # Same answer either way.
    assert box["chronological load"][0] == box["shuffled load"][0]
    chrono, shuffled = box["rows"]
    assert chrono[2] > 0 or chrono[3] > 0  # something pruned
    assert chrono[4] < shuffled[4] / 5  # >5x less data touched
    assert shuffled[2] == 0  # shuffled data cannot prune containers
