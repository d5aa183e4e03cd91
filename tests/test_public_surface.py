"""The knobs, pinned by name: a new constructor argument or per-query option
is a visible diff here, and an option that does not exist — or that would be
ignored — fails typed.  ``EonCluster``'s public methods are pinned by name
too.  Structural guards ride along: DESIGN.md's module map names files that
exist, one module owns the query path, one function writes every ROS
container, the registry instruments written anywhere are listed by name, only
``catalog/`` writes catalog state, only the subscription modules read a
subscription map, no module grows past ~600 lines, four callers apply a commit
to a catalog, a node's catalog catches up in one place, and no class in
``src/`` keeps a reference-arm switch."""

import ast
import inspect
import re
from collections import Counter
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
            "cache_bytes", "execution_slots", "seed", "clock", "racks",
            "observability", "_bootstrap",
        ]

    def test_enterprise_cluster(self):
        assert parameters(EnterpriseCluster.__init__) == [
            "node_names", "execution_slots", "wos_capacity_rows",
            "direct_load_threshold", "seed", "clock",
        ]

    def test_executor(self):
        assert parameters(Executor.__init__) == [
            "provider", "cost_model", "obs", "pushdown",
        ]

    def test_eon_cluster_public_methods(self):
        assert sorted(name for name in vars(EonCluster) if not name.startswith("_")) == [
            "active_up_subscribers", "add_column", "add_node", "all_catalog_sids",
            "any_up_node", "begin", "check_viability", "commit",
            "compute_truncation_version", "create_live_aggregate",
            "create_projection", "create_session", "create_table", "create_user",
            "define_subcluster", "drop_partition", "drop_projection",
            "drop_projections", "enable_observability", "execute",
            "graceful_shutdown", "kill_node", "load", "move_partition",
            "query", "query_statement", "rebalance_subscriptions",
            "recover_node", "references", "refresh_degraded", "refresh_flattened",
            "refresh_from_shared", "remove_node", "running_instance_prefixes",
            "shared_meta_store", "subscribe", "sync_catalogs", "uncovered_shards",
            "unsubscribe", "up_nodes", "version", "write_cluster_info",
            "writer_for_shard",
        ]
        bound = {
            name: list(inspect.signature(getattr(EonCluster, name)).parameters)[1:]
            for name in ("subscribe", "unsubscribe", "rebalance_subscriptions")
        }
        assert bound == {
            "subscribe": ["node_name", "shard_id", "warm_cache"],
            "unsubscribe": ["node_name", "shard_id"],
            "rebalance_subscriptions": ["warm_cache"],
        }

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

#: The ``src/`` modules over the ~600-line rule, at their size when pinned.
#: A module may shrink or leave this list; none may grow or join it.
OVER_600 = {
    "engine/designer.py": 1139, "sim/actions.py": 1111, "engine/operators.py": 821,
    "workloads/tpch.py": 647, "storage/encoding.py": 629, "cluster/enterprise.py": 620,
    "catalog/mvcc.py": 619, "engine/expressions.py": 607,
}


def call_sites(names, paths) -> set:
    """``(module, function)`` of every call to one of ``names`` made inside a
    module-level function or a method (``Class.method``)."""
    sites = set()
    for path in paths:
        tree = ast.parse(path.read_text())
        scopes = [(f.name, f) for f in tree.body if isinstance(f, ast.FunctionDef)] + [
            (f"{c.name}.{f.name}", f) for c in tree.body if isinstance(c, ast.ClassDef)
            for f in c.body if isinstance(f, ast.FunctionDef)
        ]
        for qualname, scope in scopes:
            for node in ast.walk(scope):
                if isinstance(node, ast.Call):
                    func = node.func
                    if (func.id if isinstance(func, ast.Name) else getattr(func, "attr", "")) in names:
                        sites.add((str(path.relative_to(SRC)), qualname))
    return sites


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

    def test_one_function_writes_every_ros_container(self):
        """Both flavors' COPY, moveout, mergeout, repair and redistribution
        write through ``load/copy.py``: one shard split, one container image,
        one catalog entry.  A second hand-rolled writer is a failing test."""
        made = {"ROSContainer", "write_container", "split_rowset"}
        calls = Counter()
        for layer in ("load", "tuple_mover", "cluster"):
            for path in sorted((SRC / layer).glob("*.py")):
                for node in ast.walk(ast.parse(path.read_text())):
                    if isinstance(node, ast.Call):
                        func = node.func
                        name = func.id if isinstance(func, ast.Name) else getattr(func, "attr", "")
                        if name in made:
                            calls[name, str(path.relative_to(SRC))] += 1
        assert calls == {(name, "load/copy.py"): 1 for name in made}

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
            ("counter", "depot.warming_bytes", "cluster/subscriptions.py"),
            ("gauge", "io.lane_occupancy", "io/scheduler.py"),
            ("histogram", "query.latency_seconds", "cluster/query_path.py"),
            ("histogram", "wm.queue_wait_seconds", "wm/admission.py"),
        ]

    def test_only_the_catalog_writes_catalog_state(self):
        """A node's shard metadata changes through ``Catalog.reshard`` and
        commits, never by hand: outside ``catalog/`` no storage map is
        written by key, no catalog's state or object versions are replaced,
        and no catalog internal is touched (on another object than ``self``)."""
        internals = {"_recent", "_versions", "_groups", "_indexes"}
        found = []
        for path in sorted(SRC.rglob("*.py")):
            if path.parent.name == "catalog":
                continue
            where = str(path.relative_to(SRC))
            for node in ast.walk(ast.parse(path.read_text())):
                if isinstance(node, (ast.Assign, ast.Delete)):
                    targets = node.targets
                elif isinstance(node, (ast.AugAssign, ast.AnnAssign)):
                    targets = [node.target]
                else:
                    targets = []
                for target in targets:
                    by_key = (
                        isinstance(target, ast.Subscript)
                        and isinstance(target.value, ast.Attribute)
                        and target.value.attr in ("containers", "delete_vectors")
                    )
                    replaced = ast.unparse(target).endswith((".catalog.state", ".catalog.versions"))
                    if by_key or replaced:
                        found.append((where, node.lineno, ast.unparse(target)))
                if (isinstance(node, ast.Attribute) and node.attr in internals
                        and ast.unparse(node.value) != "self"):
                    found.append((where, node.lineno, ast.unparse(node)))
        assert found == []

    def test_only_the_subscription_modules_read_a_subscription_map(self):
        """Figure 4 in one place: outside ``catalog/`` and the two
        subscription modules a ``.subscriptions`` map is only ever handed to
        ``shards_of``, ``holders`` or ``uncovered`` — never iterated,
        indexed, ``.get``-ed or tested for membership — and nothing calls a
        subscription step as a cluster method."""
        readers = {"shards_of", "holders", "uncovered"}
        steps = {
            "_commit_sub_state", "_drop_subscription", "_backfill_shard_metadata",
            "_warm_cache_from_peer", "_current_sub_state", "_refresh_shard_filters",
        }
        owners = {"sharding/subscription.py", "cluster/subscriptions.py"}
        found = []
        for path in sorted(SRC.rglob("*.py")):
            where = str(path.relative_to(SRC))
            tree = ast.parse(path.read_text())
            handed = {
                id(arg)
                for node in ast.walk(tree)
                if isinstance(node, ast.Call)
                and getattr(node.func, "id", getattr(node.func, "attr", "")) in readers
                for arg in node.args
            }
            for node in ast.walk(tree):
                if not isinstance(node, ast.Attribute):
                    continue
                read = (
                    node.attr == "subscriptions"
                    and id(node) not in handed
                    and path.parent.name != "catalog"
                    and where not in owners
                )
                if read or node.attr in steps:
                    found.append((where, node.lineno, ast.unparse(node)))
        assert found == []

    def test_no_module_grows_past_600_lines(self):
        sizes = {str(p.relative_to(SRC)): len(p.read_text().splitlines()) for p in SRC.rglob("*.py")}
        grown = {name: n for name, n in sizes.items() if n > OVER_600.get(name, 600)}
        assert grown == {}

    def test_the_class_level_switches_are_these(self):
        """A class-level ``bool`` constant is a switch every instance shares:
        the observability on/off pairs and the shared backends' capability
        flags.  A reference arm that a differential flips (a second read
        path, a charging mode) lives in the tests, installed through a seam
        such as ``cluster.io_scheduler``; one added here is a visible diff.
        Annotated dataclass field defaults are per-instance values, not
        switches, and are not listed."""
        found = sorted(
            (str(path.relative_to(SRC)), cls.name, ast.unparse(target))
            for path in SRC.rglob("*.py")
            for cls in ast.walk(ast.parse(path.read_text()))
            if isinstance(cls, ast.ClassDef)
            for node in cls.body
            if isinstance(node, ast.Assign) and isinstance(node.value, ast.Constant)
            and isinstance(node.value.value, bool)
            for target in node.targets
        )
        assert found == [
            ("obs/datacollector.py", "DataCollector", "enabled"),
            ("obs/datacollector.py", "NullDataCollector", "enabled"),
            ("obs/metrics.py", "MetricsRegistry", "enabled"),
            ("obs/metrics.py", "NullRegistry", "enabled"),
            ("obs/tracing.py", "NullTracer", "enabled"),
            ("obs/tracing.py", "Tracer", "enabled"),
            ("shared_storage/api.py", "Filesystem", "outage_active"),
            ("shared_storage/api.py", "Filesystem", "supports_coalesced_get"),
            ("shared_storage/api.py", "Filesystem", "supports_select"),
            ("shared_storage/s3.py", "SimulatedS3", "supports_coalesced_get"),
            ("shared_storage/s3.py", "SimulatedS3", "supports_select"),
        ]

    def test_four_callers_apply_a_commit_to_a_catalog(self):
        """The commit coordinator, Enterprise's single catalog, a sharing
        cluster's catch-up from the primary's uploads, and a node's catch-up
        (recovery, a new node, formation)."""
        assert call_sites({"apply_commit"}, sorted((SRC / "cluster").glob("*.py"))) == {
            ("cluster/transactions.py", "CommitCoordinator.commit"),
            ("cluster/enterprise.py", "EnterpriseCluster._commit"),
            ("cluster/durability.py", "refresh_from_shared"),
            ("cluster/lifecycle.py", "catch_up"),
        }

    def test_a_catalog_catches_up_in_one_place(self):
        """The replay-or-rebuild decision is ``lifecycle.catch_up`` alone: it
        is the one reader of the commit history's tail and the one caller of
        the peer rebuild, and nothing reaches a lifecycle private from
        outside ``lifecycle.py``."""
        lifecycle = SRC / "cluster" / "lifecycle.py"
        private = {
            f.name for f in ast.parse(lifecycle.read_text()).body
            if isinstance(f, ast.FunctionDef) and f.name.startswith("_")
        } | {"_full_metadata_rebuild", "_balanced_shards_for_new_node"}
        reached = [
            (str(path.relative_to(SRC)), node.lineno, node.attr)
            for path in sorted(SRC.rglob("*.py")) if path != lifecycle
            for node in ast.walk(ast.parse(path.read_text()))
            if isinstance(node, ast.Attribute) and node.attr in private
        ]
        assert reached == []
        assert call_sites({"records_after", "_rebuild_from_peer"}, sorted(SRC.rglob("*.py"))) == {
            ("cluster/lifecycle.py", "catch_up"),
        }
