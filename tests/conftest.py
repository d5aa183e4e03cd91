"""Shared fixtures: clusters, TPC-H data, schemas."""

from __future__ import annotations

import pytest

from repro import ColumnType, EonCluster, EnterpriseCluster, RowSet, Segmentation, TableSchema
from repro.workloads.tpch import TpchData, load_tpch, setup_tpch_schema
from tests.helpers import load_in_slices


@pytest.fixture
def schema_ab() -> TableSchema:
    return TableSchema.of(("a", ColumnType.INT), ("b", ColumnType.VARCHAR))


@pytest.fixture
def eon4() -> EonCluster:
    """4 nodes, 4 shards, 2 subscribers per shard."""
    return EonCluster(["n1", "n2", "n3", "n4"], shard_count=4, seed=11)


@pytest.fixture
def eon_loaded(eon4: EonCluster) -> EonCluster:
    eon4.execute("create table t (a int, b varchar, v float)")
    eon4.load("t", [(i, f"s{i % 5}", float(i)) for i in range(1000)])
    return eon4


@pytest.fixture
def enterprise3() -> EnterpriseCluster:
    return EnterpriseCluster(["e1", "e2", "e3"], seed=11)


@pytest.fixture(scope="session")
def tpch_data() -> TpchData:
    return TpchData.generate(scale=0.002, seed=42)


@pytest.fixture(scope="session")
def tpch_eon(tpch_data: TpchData) -> EonCluster:
    cluster = EonCluster(["n1", "n2", "n3", "n4"], shard_count=4, seed=1)
    setup_tpch_schema(cluster)
    load_tpch(cluster, tpch_data)
    return cluster


@pytest.fixture(scope="session")
def tpch_enterprise(tpch_data: TpchData) -> EnterpriseCluster:
    cluster = EnterpriseCluster(["e1", "e2", "e3", "e4"], seed=1)
    setup_tpch_schema(cluster)
    for name in ("region", "nation", "supplier", "customer", "part",
                 "partsupp", "orders", "lineitem"):
        cluster.load(name, tpch_data.tables[name], direct=True)
    return cluster


@pytest.fixture(scope="module")
def tpch_cluster(tpch_data: TpchData) -> EonCluster:
    """One Eon TPC-H cluster per module, loaded in slices: several
    containers per shard, the shape the charge differentials run on."""
    return load_in_slices(EonCluster(["n1", "n2", "n3"], shard_count=3, seed=11), tpch_data)
