"""The knobs, pinned by name: a new constructor argument or per-query option
is a visible diff here, and an option that does not exist — or that would be
ignored — fails typed.  Three structural guards ride along: DESIGN.md's module
map names files that exist, one module owns the query path, and the registry
instruments written anywhere are listed by name."""

import ast
import inspect
import re
from pathlib import Path

import pytest

from repro import ColumnType, EnterpriseCluster, EonCluster
from repro.cluster.enterprise import QUERY_OPTIONS as ENTERPRISE_OPTIONS
from repro.cluster.eon import QUERY_OPTIONS as EON_OPTIONS
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
            "observability", "_bootstrap",
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
        assert list(EON_OPTIONS) == parameters(EonCluster.create_session) + ["pushdown"]

    def test_enterprise_options(self):
        assert list(ENTERPRISE_OPTIONS) == (
            parameters(EnterpriseCluster.create_session) + ["pushdown"]
        )

    def test_both_flavors_take_a_statement_the_same_way(self):
        assert parameters(EonCluster.query_statement)[:-1] == parameters(
            EnterpriseCluster.query_statement
        )[:-1] == ["statement", "session", "request_text", "failover", "ticket"]

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
            lambda: enterprise.query_statement(parse(sql)[0], **{option: True}),
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

    def test_a_layout_option_beside_a_session_fails_typed(self, clusters):
        """An option that lays out a session cannot apply to one that already
        exists; it used to be dropped without a word."""
        statement = parse("select count(*) from t")[0]
        for cluster, options in zip(clusters, (
            {"use_cache": False, "initiator": "zzz"}, {"seed": 3},
        )):
            session = cluster.create_session()
            try:
                with pytest.raises(ExecutionError, match=", ".join(sorted(options))) as err:
                    cluster.query_statement(statement, session=session, **options)
                assert isinstance(err.value, ReproError)
                assert cluster.admission.total_in_use() == 0
                # The engine option is not a layout option, and with failover
                # the layout options describe the retry sessions.
                for accepted in ({"pushdown": "off"}, {"failover": True, "seed": 3}):
                    rows = cluster.query_statement(statement, session=session, **accepted).rows
                    assert rows.to_pylist() == [(2,)]
            finally:
                session.release()


SRC = Path(__file__).resolve().parents[1] / "src" / "repro"


class TestStructure:
    def test_every_file_in_the_module_map_exists(self):
        design = (SRC.parents[1] / "DESIGN.md").read_text()
        start = design.index("## System inventory (module map)")
        module_map = design[start:design.index("\n## ", start + 1)]
        named = set(re.findall(r"`([a-z_]+/[a-z_]+\.py)`", module_map))
        assert len(named) > 40 and "cluster/query_path.py" in named
        assert sorted(name for name in named if not (SRC / name).is_file()) == []

    def test_one_module_binds_plans_and_builds_the_executor(self):
        """A second hand-wired copy of the query path is a failing test."""
        wired = {"bind_select", "plan_query", "Executor"}
        owners = set()
        for path in sorted((SRC / "cluster").glob("*.py")) + sorted((SRC / "wm").glob("*.py")):
            for node in ast.walk(ast.parse(path.read_text())):
                if isinstance(node, ast.Call):
                    func = node.func
                    name = func.id if isinstance(func, ast.Name) else getattr(func, "attr", "")
                    if name in wired:
                        owners.add(str(path.relative_to(SRC)))
        assert owners == {"cluster/query_path.py"}

    def test_the_registry_instruments_written_are_these(self):
        """The registry holds what no ledger field can (DESIGN.md, "One
        ledger"); a new instrument — a new mirror — is a visible diff here.
        A name must be a literal, so that this list is the whole of it."""
        written = set()
        for path in sorted(SRC.rglob("*.py")):
            for node in ast.walk(ast.parse(path.read_text())):
                if not (isinstance(node, ast.Call) and isinstance(node.func, ast.Attribute)):
                    continue
                owner = ast.unparse(node.func.value)
                if node.func.attr in ("counter", "gauge", "histogram") and (
                    owner.endswith("metrics") or owner.endswith("registry")
                ):
                    name = node.args[0]
                    assert isinstance(name, ast.Constant), (path, node.lineno)
                    written.add((node.func.attr, name.value, str(path.relative_to(SRC))))
        assert sorted(written) == [
            ("counter", "depot.warming_bytes", "cluster/eon.py"),
            ("gauge", "io.lane_occupancy", "io/scheduler.py"),
            ("histogram", "query.latency_seconds", "cluster/query_path.py"),
            ("histogram", "wm.queue_wait_seconds", "wm/admission.py"),
        ]
