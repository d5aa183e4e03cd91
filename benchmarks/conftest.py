"""Shared benchmark fixtures and helpers: clusters, datasets and the series
printer reused across benches."""

from __future__ import annotations

from typing import Dict, List, Sequence

import pytest

from repro import ColumnType, EnterpriseCluster, EonCluster
from repro.shell import format_table
from repro.wm import AdmissionController, PoolConfig
from repro.workloads.tpch import TpchData, load_tpch, setup_tpch_schema
from tests.test_io_scheduler import SerialFetch

TPCH_SCALE = 0.004
ENTERPRISE_TABLES = (
    "region", "nation", "supplier", "customer", "part",
    "partsupp", "orders", "lineitem",
)


def fig10_data() -> TpchData:
    return TpchData.generate(scale=TPCH_SCALE, seed=42)


def fig10_eon(data: TpchData) -> EonCluster:
    """Figure 10's Eon cluster: 4 nodes, 4 shards, TPC-H loaded."""
    cluster = EonCluster(["n1", "n2", "n3", "n4"], shard_count=4, seed=1)
    setup_tpch_schema(cluster)
    load_tpch(cluster, data)
    return cluster


def fig10_enterprise(data: TpchData) -> EnterpriseCluster:
    """Figure 10's Enterprise cluster: 4 nodes, TPC-H loaded direct to ROS."""
    cluster = EnterpriseCluster(["n1", "n2", "n3", "n4"], seed=1)
    setup_tpch_schema(cluster)
    for name in ENTERPRISE_TABLES:
        cluster.load(name, data.tables[name], direct=True)
    return cluster


@pytest.fixture(scope="session")
def tpch_data() -> TpchData:
    return fig10_data()


@pytest.fixture(scope="session")
def eon_tpch(tpch_data) -> EonCluster:
    return fig10_eon(tpch_data)


def load_tpch_chunked(cluster, data: TpchData, slices: int = 4) -> None:
    """Load each table in ``slices`` COPY batches so every shard holds
    several containers — the shape that gives the I/O scheduler real
    batches (dedup, coalescing, prefetch) to work with."""
    for name in ENTERPRISE_TABLES:
        rows = data.tables[name].to_pylist()
        if len(rows) <= slices:
            cluster.load(name, rows)
            continue
        for i in range(slices):
            chunk = rows[i::slices]
            if chunk:
                cluster.load(name, chunk)


@pytest.fixture(scope="session")
def eon_tpch_pair(tpch_data):
    """Two identically-seeded Eon clusters, chunk-loaded: the I/O scheduler,
    and the :class:`SerialFetch` reference arm (one ``fetch_storage`` per
    file), for the cold-depot ablation."""
    pair = []
    for scheduled in (True, False):
        cluster = EonCluster(["n1", "n2", "n3", "n4"], shard_count=4, seed=1)
        if not scheduled:
            cluster.io_scheduler = SerialFetch(cluster)
        setup_tpch_schema(cluster)
        load_tpch_chunked(cluster, tpch_data)
        pair.append(cluster)
    return pair


@pytest.fixture(scope="session")
def enterprise_tpch(tpch_data) -> EnterpriseCluster:
    return fig10_enterprise(tpch_data)


#: The short dashboard query every throughput bench drives through the
#: closed-loop driver (:mod:`repro.wm.driver`), over a 240-row table.
DASH_QUERY = "select g, count(*) c, sum(v) s from dash where k < 180 group by g"
DASH_ROWS = 240

#: 70 clients against ~4-12 concurrent slots queue deeply; the bench pool
#: must hold the whole backlog (rejections would undercount throughput).
BENCH_POOL = PoolConfig(max_queue_depth=512, queue_timeout_seconds=3600.0)


def _dash_rows():
    return [(k, f"g{k % 7}", (k * 13) % 97) for k in range(DASH_ROWS)]


def dash_eon(nodes: int, shards: int = 3, seed: int = 2, **options) -> EonCluster:
    """An Eon cluster of ``nodes`` nodes holding the dash table, its
    admission queue sized for a closed loop."""
    cluster = EonCluster(
        [f"n{i}" for i in range(nodes)], shard_count=shards, seed=seed, **options
    )
    cluster.admission = AdmissionController(cluster, BENCH_POOL)
    cluster.execute("create table dash (k int, g varchar, v int)")
    cluster.load("dash", _dash_rows())
    return cluster


def dash_enterprise(nodes: int, seed: int = 2) -> EnterpriseCluster:
    """The Enterprise baseline of :func:`dash_eon`."""
    cluster = EnterpriseCluster([f"e{i}" for i in range(nodes)], seed=seed)
    cluster.admission = AdmissionController(cluster, BENCH_POOL)
    cluster.create_table(
        "dash", [("k", ColumnType.INT), ("g", ColumnType.VARCHAR),
                 ("v", ColumnType.INT)]
    )
    cluster.load("dash", _dash_rows())
    return cluster


def emit(text: str) -> None:
    """Print a paper-style result block (visible with pytest -s)."""
    print("\n" + text)


def format_series(
    title: str,
    x_label: str,
    xs: Sequence[object],
    series: Dict[str, Sequence[float]],
) -> str:
    """One column per series, one row per x — the shape of a paper figure."""
    headers = [x_label] + list(series)
    rows: List[List[object]] = []
    for i, x in enumerate(xs):
        rows.append([x] + [series[name][i] for name in series])
    return format_table(title, headers, rows)
