"""Ablation (section 4.4): crunch scaling — hash-filter vs container split.

"Choosing between hash filter and container split depends on the query":
container split reads each row once but loses the segmentation property
(joins must shuffle/broadcast); hash filter preserves locality but in the
worst case every sharing node reads the whole shard.  We measure both
costs on the same queries.
"""

from __future__ import annotations

import pytest

from repro import EonCluster, Segmentation
from repro.shell import format_table
from repro.sql.parser import parse

from conftest import emit

SCAN_SQL = "select g, sum(v) s from t group by g order by g"
JOIN_SQL = "select lbl, sum(v) s from t join d on g = g2 group by lbl order by lbl"


def _cluster() -> EonCluster:
    cluster = EonCluster([f"n{i}" for i in range(6)], shard_count=3, seed=4)
    cluster.execute("create table t (k int, g int, v float)")
    cluster.execute("create table d (g2 int, lbl varchar)")
    # Co-segment t and d on the join key so the baseline join is local;
    # container-split crunch then has real locality to lose.
    cluster.create_projection("t_by_g", "t", ["k", "g", "v"], ["g"],
                              Segmentation.by_hash("g"))
    cluster.create_projection("d_p", "d", ["g2", "lbl"], ["g2"],
                              Segmentation.by_hash("g2"))
    cluster.load("t", [(i, i % 9, float(i)) for i in range(6_000)])
    cluster.load("d", [(i, f"L{i}") for i in range(9)])
    for sql in (SCAN_SQL, JOIN_SQL):
        cluster.query(sql)  # warm all caches
    return cluster


def _run(cluster, sql, crunch):
    session = cluster.create_session(crunch=crunch, nodes_per_shard=2, seed=11)
    with session:
        result = cluster.query_statement(parse(sql)[0], session=session)
    bytes_read = (
        result.stats.total_bytes_from_cache + result.stats.total_bytes_from_shared
    )
    return result, bytes_read


def test_ablation_crunch_tradeoff(benchmark):
    box = {}

    def run():
        cluster = _cluster()
        rows = []
        for sql, label in ((SCAN_SQL, "scan+aggregate"), (JOIN_SQL, "co-seg join")):
            baseline = cluster.query(sql, seed=11)
            base_bytes = (
                baseline.stats.total_bytes_from_cache
                + baseline.stats.total_bytes_from_shared
            )
            hash_result, hash_bytes = _run(cluster, sql, "hash")
            cont_result, cont_bytes = _run(cluster, sql, "container")
            assert hash_result.rows.to_pylist() == baseline.rows.to_pylist()
            assert cont_result.rows.to_pylist() == baseline.rows.to_pylist()
            rows.append([
                label, base_bytes, hash_bytes, cont_bytes,
                baseline.stats.network_bytes,
                hash_result.stats.network_bytes,
                cont_result.stats.network_bytes,
            ])
        box["rows"] = rows
        return rows

    benchmark.pedantic(run, rounds=1, iterations=1)
    emit(format_table(
        "Ablation — crunch scaling costs (2 nodes per shard)",
        ["query", "bytes base", "bytes hash", "bytes cont",
         "net base", "net hash", "net cont"],
        box["rows"],
    ))
    for label_row in box["rows"]:
        _, base_b, hash_b, cont_b, _net_b, _net_h, _net_c = label_row
        # Hash filter re-reads: more bytes than the one-node-per-shard base.
        assert hash_b > base_b
        # Container split reads each container once: no read amplification.
        assert cont_b <= base_b * 1.05
    # Container split broke co-location: the join had to ship data.
    join_row = box["rows"][1]
    assert join_row[6] > join_row[5]
