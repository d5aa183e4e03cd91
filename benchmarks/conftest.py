"""Shared benchmark fixtures: clusters and datasets reused across benches."""

from __future__ import annotations

import pytest

from repro import EnterpriseCluster, EonCluster
from repro.workloads.tpch import TpchData, load_tpch, setup_tpch_schema
from tests.test_io_scheduler import SerialFetch

TPCH_SCALE = 0.004
ENTERPRISE_TABLES = (
    "region", "nation", "supplier", "customer", "part",
    "partsupp", "orders", "lineitem",
)


@pytest.fixture(scope="session")
def tpch_data() -> TpchData:
    return TpchData.generate(scale=TPCH_SCALE, seed=42)


@pytest.fixture(scope="session")
def eon_tpch(tpch_data) -> EonCluster:
    cluster = EonCluster(["n1", "n2", "n3", "n4"], shard_count=4, seed=1)
    setup_tpch_schema(cluster)
    load_tpch(cluster, tpch_data)
    return cluster


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
    cluster = EnterpriseCluster(["n1", "n2", "n3", "n4"], seed=1)
    setup_tpch_schema(cluster)
    for name in ENTERPRISE_TABLES:
        cluster.load(name, tpch_data.tables[name], direct=True)
    return cluster


def emit(text: str) -> None:
    """Print a paper-style result block (visible with pytest -s)."""
    print("\n" + text)
