"""Ablation (sections 2.3, 6.2): mergeout strata vs naive compaction.

The tiered strata algorithm bounds how often each tuple is rewritten.  We
compare write amplification (bytes rewritten / bytes ingested) and final
container counts for: no mergeout, strata mergeout, and always-merge-all
(naive full compaction after every load).
"""

from __future__ import annotations

import pytest

from repro import ColumnType, EonCluster
from repro.shell import format_table
from repro.tuple_mover import MergeoutCoordinatorService

from conftest import emit

BATCHES = 16
ROWS_PER_BATCH = 120


def _fresh_cluster() -> EonCluster:
    cluster = EonCluster(["a", "b", "c"], shard_count=3, seed=9)
    cluster.execute("create table t (k int, g varchar)")
    return cluster


def _load_batch(cluster, batch: int):
    cluster.load(
        "t",
        [(batch * ROWS_PER_BATCH + i, f"g{i % 3}") for i in range(ROWS_PER_BATCH)],
    )


def _container_count(cluster) -> int:
    return len({
        sid for node in cluster.up_nodes()
        for sid in node.catalog.state.containers
    })


def test_ablation_mergeout_strategies(benchmark):
    box = {}

    def run():
        rows = []
        # 1. No mergeout: container count grows linearly.
        cluster = _fresh_cluster()
        for b in range(BATCHES):
            _load_batch(cluster, b)
        ingested = sum(
            c.size_bytes
            for node in cluster.up_nodes()
            for c in node.catalog.state.containers.values()
        )
        rows.append(["no mergeout", _container_count(cluster), 0.0])

        # 2. Strata mergeout after every load.
        cluster = _fresh_cluster()
        service = MergeoutCoordinatorService(cluster, strata_width=4, base_bytes=512)
        strata_rewritten = 0
        for b in range(BATCHES):
            _load_batch(cluster, b)
            strata_rewritten += service.run_all().bytes_written
        rows.append([
            "strata mergeout", _container_count(cluster),
            strata_rewritten / ingested,
        ])

        # 3. Naive full compaction: merge everything after every load.
        cluster = _fresh_cluster()
        service = MergeoutCoordinatorService(cluster, strata_width=2, base_bytes=1)
        naive_rewritten = 0
        for b in range(BATCHES):
            _load_batch(cluster, b)
            # Loop until each shard has one container per projection.
            while True:
                report = service.run_all()
                naive_rewritten += report.bytes_written
                if report.jobs_run == 0:
                    break
        rows.append([
            "merge-all every load", _container_count(cluster),
            naive_rewritten / ingested,
        ])
        box["rows"] = rows
        # Data must be identical in every configuration.
        assert cluster.query("select count(*) from t").rows.to_pylist() == [
            (BATCHES * ROWS_PER_BATCH,)
        ]
        return rows

    benchmark.pedantic(run, rounds=1, iterations=1)
    rows = box["rows"]
    emit(format_table(
        "Ablation — mergeout strategy after 16 loads",
        ["strategy", "containers", "write amplification"],
        rows,
    ))
    none_count, strata_count, naive_count = (r[1] for r in rows)
    _, strata_amp, naive_amp = (r[2] for r in rows)
    assert strata_count < none_count  # mergeout bounds container count
    assert naive_amp > strata_amp * 1.5  # strata bounds write amplification
