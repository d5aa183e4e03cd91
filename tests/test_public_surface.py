"""The knobs, pinned by name: a new constructor argument or per-query option
is a visible diff here, and an option that does not exist fails typed."""

import inspect

import pytest

from repro import ColumnType, EnterpriseCluster, EonCluster
from repro.cluster.eon import QUERY_OPTIONS
from repro.engine.executor import Executor, StorageProvider
from repro.errors import ExecutionError, ReproError
from repro.sql.parser import parse


def parameters(func) -> list:
    return [name for name in inspect.signature(func).parameters if name != "self"]


class TestConstructorArguments:
    def test_eon_cluster(self):
        assert parameters(EonCluster.__init__) == [
            "node_names", "shard_count", "shared_storage", "subscribers_per_shard",
            "cache_bytes", "execution_slots", "seed", "clock", "cost_model", "racks",
            "observability", "parallel_io", "io_config", "pushdown", "_bootstrap",
        ]

    def test_enterprise_cluster(self):
        assert parameters(EnterpriseCluster.__init__) == [
            "node_names", "execution_slots", "wos_capacity_rows",
            "direct_load_threshold", "seed", "clock", "cost_model",
        ]

    def test_executor(self):
        assert parameters(Executor.__init__) == [
            "provider", "cost_model", "obs", "pushdown",
        ]

    def test_storage_provider_has_one_io_hook(self):
        hooks = [name for name in vars(StorageProvider)
                 if "pipeline" in name or name.endswith("_io")]
        assert hooks == ["settle_io"]


class TestPerQueryOptions:
    def test_eon_options_are_the_session_layout_and_pushdown(self):
        assert list(QUERY_OPTIONS) == parameters(EonCluster.create_session) + ["pushdown"]

    def test_enterprise_options(self):
        assert parameters(EnterpriseCluster.query) == [
            "sql", "seed", "session", "ticket", "pushdown", "unknown_options",
        ]

    @pytest.fixture(scope="class")
    def clusters(self):
        eon = EonCluster(["a", "b"], shard_count=2, seed=1)
        enterprise = EnterpriseCluster(["a", "b"], seed=1)
        for cluster in (eon, enterprise):
            cluster.create_table("t", [("k", ColumnType.INT)])
        eon.load("t", [(1,), (2,)])
        enterprise.load("t", [(1,), (2,)], direct=True)
        return eon, enterprise

    @pytest.mark.parametrize("option", ["batched", "batch_size", "sip", "batchedd"])
    def test_an_option_that_does_not_exist_fails_typed(self, clusters, option):
        eon, enterprise = clusters
        sql = "select count(*) from t"
        calls = (
            lambda: eon.query(sql, **{option: True}),
            lambda: eon.query_statement(parse(sql)[0], **{option: True}),
            lambda: enterprise.query(sql, **{option: True}),
        )
        for call in calls:
            with pytest.raises(ExecutionError, match=f"{option}.*accepted.*pushdown") as err:
                call()
            assert isinstance(err.value, ReproError)

    def test_the_options_that_exist_still_work(self, clusters):
        eon, enterprise = clusters
        sql = "select count(*) from t"
        assert eon.query(sql, seed=3, use_cache=False, pushdown="off").rows.to_pylist() == [(2,)]
        assert enterprise.query(sql, seed=3, pushdown="off").rows.to_pylist() == [(2,)]
