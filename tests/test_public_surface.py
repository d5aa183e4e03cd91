"""The knobs, pinned by name: a new constructor argument or per-query option
is a visible diff here, and an option that does not exist — or that would be
ignored — fails typed.  ``EonCluster``'s public methods are pinned by name
too.  Structural guards ride along: DESIGN.md's module map names files that
exist, one module owns the query path, one function writes every ROS
container, the registry instruments written anywhere are listed by name, only
``catalog/`` writes catalog state, only the subscription modules read a
subscription map, no module grows past ~600 lines, four callers apply a commit
to a catalog, a node's catalog catches up in one place, no class in ``src/``
keeps a reference-arm switch, every option, function and options field has a
caller, every catalog op kind has a producer, no benchmark module shadows the
standard library, the autoscaler is a leaf that two modules import, and
importing the package loads no scipy (only the designer's search does).

``python tests/test_public_surface.py`` (``make knobs``) prints the three
censuses: the defaulted parameters, the functions and the options-dataclass
fields that nothing outside the tests passes, calls or sets."""

import ast
import functools
import inspect
import os
import re
import subprocess
import sys
from collections import Counter, defaultdict
from pathlib import Path

import pytest

from repro import ColumnType, EnterpriseCluster, EonCluster
from repro.cluster.enterprise import QUERY_OPTIONS as ENTERPRISE_OPTIONS
from repro.cluster.eon import QUERY_OPTIONS as EON_OPTIONS
from repro.catalog.mvcc import _HANDLERS
from repro.cluster.services import SERVICES
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
            "node_names", "execution_slots", "seed", "clock",
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
            "rebalance_subscriptions": [],
        }

    def test_storage_provider_has_one_io_hook(self):
        hooks = [name for name in vars(StorageProvider)
                 if "pipeline" in name or name.endswith("_io")]
        assert hooks == ["settle_io"]


class TestPerQueryOptions:
    def test_eon_options_are_the_session_layout_and_pushdown(self):
        assert list(EON_OPTIONS) == parameters(EonCluster.create_session) + ["pushdown"]

    def test_enterprise_options(self):
        """Enterprise has no shared storage to push a scan down to."""
        assert list(ENTERPRISE_OPTIONS) == parameters(EnterpriseCluster.create_session)

    def test_both_flavors_take_a_statement_the_same_way(self):
        assert parameters(EonCluster.query_statement)[:-1] == parameters(
            EnterpriseCluster.query_statement
        )[:-1] == ["statement", "session", "request_text", "failover"]

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
            with pytest.raises(ExecutionError, match=f"{option}.*accepted.*seed") as err:
                call()
            assert isinstance(err.value, ReproError)

    def test_the_options_that_exist_still_work(self, clusters):
        eon, enterprise = clusters
        sql = "select count(*) from t"
        assert eon.query(sql, seed=3, use_cache=False, pushdown="off").rows.to_pylist() == [(2,)]
        assert enterprise.query(sql, seed=3).rows.to_pylist() == [(2,)]
        with pytest.raises(ExecutionError, match="pushdown.*accepted: seed"):
            enterprise.query(sql, pushdown="off")

    def test_a_layout_option_beside_a_session_fails_typed(self, clusters):
        """An option that lays out a session cannot apply to one that already
        exists; it used to be dropped without a word."""
        statement = parse("select count(*) from t")[0]
        for cluster, options, engine in zip(clusters, (
            {"use_cache": False, "initiator": "zzz"}, {"seed": 3},
        ), ([{"pushdown": "off"}], [])):
            session = cluster.create_session()
            try:
                with pytest.raises(ExecutionError, match=", ".join(sorted(options))) as err:
                    cluster.query_statement(statement, session=session, **options)
                assert isinstance(err.value, ReproError)
                assert cluster.admission.total_in_use() == 0
                # Eon's engine option is not a layout option, and with
                # failover the layout options describe the retry sessions.
                for accepted in engine + [{"failover": True, "seed": 3}]:
                    rows = cluster.query_statement(statement, session=session, **accepted).rows
                    assert rows.to_pylist() == [(2,)]
            finally:
                session.release()


SRC = Path(__file__).resolve().parents[1] / "src" / "repro"

#: The ``src/`` modules over the ~600-line rule, at their size when pinned.
#: A module may shrink or leave this list; none may grow or join it.
OVER_600 = {
    "engine/designer.py": 1091, "sim/actions.py": 1111, "engine/operators.py": 821,
    "workloads/tpch.py": 647, "storage/encoding.py": 622, "cluster/enterprise.py": 616,
    "catalog/mvcc.py": 607,
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


#: Where a call that sets an option, or names a function, may stand: the
#: program, its benchmarks and its examples.  A test's call does not count.
CALLERS = ("src", "benchmarks", "examples")


def _functions(tree):
    """``(qualname, name it is called by, def)`` of every module-level
    function and method.  ``__init__`` is called by its class's name; the
    other dunders are called by syntax, not by name, and are left out."""
    for node in tree.body:
        if isinstance(node, ast.FunctionDef):
            yield node.name, node.name, node
        elif isinstance(node, ast.ClassDef):
            for method in node.body:
                if isinstance(method, ast.FunctionDef) and (
                    method.name == "__init__" or not method.name.startswith("__")
                ):
                    called = node.name if method.name == "__init__" else method.name
                    yield f"{node.name}.{method.name}", called, method


def _defaulted(func):
    """``(parameter, position)`` of each defaulted parameter of ``func``;
    the position leaves ``self``/``cls`` out and is None for keyword-only."""
    args = func.args
    ordered = args.posonlyargs + args.args
    skip = 1 if ordered and ordered[0].arg in ("self", "cls") else 0
    return [
        (arg.arg, position - skip) for position, arg in enumerate(ordered)
        if position >= len(ordered) - len(args.defaults)
    ] + [
        (arg.arg, None) for arg, default in zip(args.kwonlyargs, args.kw_defaults)
        if default is not None
    ]


def _forwardable(func):
    """What an argument inside ``func`` can forward: its defaulted
    parameters (name -> position) and its ``**`` parameter, each only while
    the body never rebinds it, writes into it or shadows it in an inner
    scope; and the names of all its parameters."""
    args = func.args
    rebound = set()
    for node in ast.walk(func):
        if isinstance(node, ast.Name) and not isinstance(node.ctx, ast.Load):
            rebound.add(node.id)
        elif isinstance(node, ast.Subscript) and isinstance(node.ctx, ast.Store):
            rebound.add(getattr(node.value, "id", None))
        elif node is not func and isinstance(node, (ast.FunctionDef, ast.Lambda)):
            inner = node.args
            rebound |= {a.arg for a in inner.posonlyargs + inner.args + inner.kwonlyargs}
    kwargs = args.kwarg.arg if args.kwarg and args.kwarg.arg not in rebound else None
    params = {name: position for name, position in _defaulted(func) if name not in rebound}
    named = {a.arg for a in args.posonlyargs + args.args + args.kwonlyargs}
    return params, kwargs, named


def _forwarded(context, arg):
    """``(function, parameter, position)`` of the parameter ``arg`` forwards
    in ``context`` (``(function, *_forwardable(function))``), or None."""
    called, params = context[:2]
    if isinstance(arg, ast.Name) and arg.id in params:
        return called, arg.id, params[arg.id]
    return None


class CallIndex:
    """Every call and every name in ``CALLERS``, read once for the three
    censuses.  Calls are resolved by name alone: ``x.f(...)`` and ``f(...)``
    count for every function called ``f``; ``C(...)``, and ``cls(...)``
    inside ``C``, call ``C.__init__`` (the first base's when ``C`` has
    none); ``super().__init__(...)`` calls the first base's.  A module
    function bound in a class body (``add_node = lifecycle.add_node``) takes
    the receiver of an ``x.f(...)`` call as its first argument.  A ``*``
    argument passes everything, and so does a ``**`` one, unless it is the
    enclosing function's own ``**kwargs``.

    Forwarding is seen through, to a fixpoint: an argument that is the bare
    name of a defaulted parameter of the function the call stands in (a
    module-level function or a method) passes only if that parameter is
    itself passed, and a ``**kwargs`` handed on passes just the keywords
    that calls of its function put into it.

    ``named`` holds every identifier read as a value — ``f`` or ``x.f``,
    called, passed or bound — plus the names spelled as strings: a
    ``getattr(x, "name")``, the properties a ``Ledger`` lists in ``derived``
    and the ``_<service>`` methods ``ServiceScheduler.run`` reaches by
    ``getattr(self, "_" + service)``.  An import is
    not a read, so an ``__init__.py`` re-export names nothing."""

    def __init__(self):
        root = SRC.parents[1]
        self.trees = {
            path: ast.parse(path.read_text())
            for top in CALLERS for path in sorted((root / top).rglob("*.py"))
        }
        self.classes = {
            node.name: node for tree in self.trees.values()
            for node in ast.walk(tree) if isinstance(node, ast.ClassDef)
        }
        bound = {
            target.id for cls in self.classes.values() for node in cls.body
            if isinstance(node, ast.Assign) and isinstance(node.value, ast.Attribute)
            for target in node.targets
            if isinstance(target, ast.Name) and target.id == node.value.attr
        }
        self.keywords, self.positions, self.splat = defaultdict(set), defaultdict(set), set()
        self.named = {"_" + service for service in SERVICES}
        # (forwarded parameter or None, ledger, entry); (function, its
        # parameter names, callee) for each ``**kwargs`` handed on.
        passes, spreads = [], []
        for tree in self.trees.values():
            for node in ast.walk(tree):
                if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
                    self.named.add(node.id)
                elif isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load):
                    self.named.add(node.attr)
                elif isinstance(node, ast.Call) and getattr(node.func, "id", "") == "getattr" and (
                    len(node.args) > 1 and isinstance(node.args[1], ast.Constant)
                ):
                    self.named.add(node.args[1].value)
                elif isinstance(node, ast.Assign) and [
                    ast.unparse(t) for t in node.targets
                ] == ["derived"] and isinstance(node.value, ast.Tuple):
                    self.named |= {e.value for e in node.value.elts}
            enclosing = {}
            for _, called, func in _functions(tree):
                context = (called, *_forwardable(func))
                enclosing.update(
                    (id(node), context) for node in ast.walk(func) if isinstance(node, ast.Call)
                )
            scopes = [(None, tree)] + [(c.name, c) for c in ast.walk(tree) if isinstance(c, ast.ClassDef)]
            for owner, scope in scopes:
                for call in ast.walk(scope):
                    if not isinstance(call, ast.Call):
                        continue
                    func, receiver = call.func, 0
                    if isinstance(func, ast.Name):
                        name = owner if func.id == "cls" and owner else func.id
                    elif isinstance(func, ast.Attribute):
                        name = func.attr
                        if name == "__init__" and owner and ast.unparse(func.value) == "super()":
                            name = self.first_base(owner)
                        elif name in bound:
                            receiver = 1
                    else:
                        continue
                    name = self.init_owner(name)
                    context = enclosing.get(id(call), (None, {}, None, ()))
                    called, _, kwargs, named = context
                    if receiver:
                        self.positions[name].add(0)
                    for index, arg in enumerate(call.args):
                        if isinstance(arg, ast.Starred):
                            self.splat.add(name)
                        else:
                            forwarded = _forwarded(context, arg)
                            passes.append((forwarded, self.positions[name], receiver + index))
                    for keyword in call.keywords:
                        if keyword.arg is not None:
                            forwarded = _forwarded(context, keyword.value)
                            passes.append((forwarded, self.keywords[name], keyword.arg))
                        elif kwargs is not None and getattr(keyword.value, "id", None) == kwargs:
                            spreads.append((called, named, name))
                        else:
                            self.splat.add(name)
        changed = True
        while changed:
            changed = False
            for forwarded, ledger, entry in passes:
                if entry not in ledger and (forwarded is None or self.passed(*forwarded)):
                    ledger.add(entry)
                    changed = True
            for source, named, callee in spreads:
                if source in self.splat and callee not in self.splat:
                    self.splat.add(callee)
                    changed = True
                reaching = self.keywords[source] - named - self.keywords[callee]
                if reaching:
                    self.keywords[callee] |= reaching
                    changed = True

    def first_base(self, name):
        bases = self.classes[name].bases
        return getattr(bases[0], "id", getattr(bases[0], "attr", name)) if bases else name

    def init_owner(self, name, seen=()):
        if name not in self.classes or name in seen or any(
            isinstance(f, ast.FunctionDef) and f.name == "__init__" for f in self.classes[name].body
        ):
            return name
        return self.init_owner(self.first_base(name), seen + (name,))

    def passed(self, name, param, index) -> bool:
        """Whether a call of ``name`` passes ``param`` (at ``index`` when it
        can stand by position)."""
        return (
            param in self.keywords[name] or name in self.splat
            or index in self.positions[name]
        )

    def src_trees(self):
        for path, tree in self.trees.items():
            if SRC in path.parents:
                yield str(path.relative_to(SRC)), tree


@functools.lru_cache(maxsize=None)
def call_index() -> CallIndex:
    return CallIndex()


def option_census() -> list:
    """``(file, function, parameter)`` of every defaulted parameter of a
    ``src/`` function that no call in ``CALLERS`` passes, by keyword or by
    position (see :class:`CallIndex` for how a call is resolved)."""
    index = call_index()
    found = []
    for where, tree in index.src_trees():
        for qualname, name, func in _functions(tree):
            for param, position in _defaulted(func):
                if not index.passed(name, param, position):
                    found.append((where, qualname, param))
    return sorted(found)


def callable_census() -> list:
    """``(file, qualname, lines)`` of every module-level function, class and
    non-dunder method of ``src/`` whose name nothing in ``CALLERS`` reads
    (see :class:`CallIndex`): code only the tests reach, or nothing does."""
    index = call_index()
    found = []
    for where, tree in index.src_trees():
        for node in tree.body:
            defs = [(node.name, node)] if isinstance(node, (ast.FunctionDef, ast.ClassDef)) else []
            if isinstance(node, ast.ClassDef):
                defs += [
                    (f"{node.name}.{f.name}", f) for f in node.body
                    if isinstance(f, ast.FunctionDef) and not f.name.startswith("__")
                ]
            for qualname, definition in defs:
                if definition.name not in index.named:
                    first = min([definition.lineno] + [d.lineno for d in definition.decorator_list])
                    found.append((where, qualname, definition.end_lineno - first + 1))
    return sorted(found)


#: The suffixes of an options dataclass; a ``Ledger`` is a counter, not one.
OPTION_CLASSES = re.compile(r"\w+(Config|Policy|Model|Intervals|Profile|Workload)$")


def field_census() -> list:
    """``(file, class, field)`` of every init field of a ``src/`` options
    dataclass (a name matching ``OPTION_CLASSES``, not a ``Ledger``) that no
    call in ``CALLERS`` sets, by keyword or by position."""
    index = call_index()
    found = []
    for where, tree in index.src_trees():
        for cls in tree.body:
            if not (
                isinstance(cls, ast.ClassDef) and OPTION_CLASSES.fullmatch(cls.name)
                and any("dataclass" in ast.unparse(d) for d in cls.decorator_list)
                and "Ledger" not in map(ast.unparse, cls.bases)
            ):
                continue
            fields = [
                node.target.id for node in cls.body
                if isinstance(node, ast.AnnAssign) and isinstance(node.target, ast.Name)
                and "ClassVar" not in ast.unparse(node.annotation)
                and "init=False" not in ast.unparse(node.value or ast.Constant(None))
            ]
            for position, name in enumerate(fields):
                if not index.passed(cls.name, name, position):
                    found.append((where, cls.name, name))
    return sorted(found)


_WARMING = "§5.2: depot warming's byte budget and its choice of peer or shared storage"
_S3 = "PAPER.md's substitution table: the simulated S3's latency and cost models"
_SERIAL = "Node.fetch_storage as the SerialFetch reference arm calls it (tests/test_io_scheduler.py)"
_ENTERPRISE = "the Enterprise baseline is built like EonCluster: execution slots (§4.2) and a clock"
_DDL = "a DDL clause the SQL front door has no syntax for: the Python call is how it is said"
_GROWTH = "§6.4: an operator adds a node to the shards they choose"
_OPERAND = "an operand of the call, not a setting: each caller says what it asks for"

#: What the census leaves, each with why it stays settable.  The paper's
#: settings are options; every other size is a module constant a test
#: monkeypatches.  An option that only a test sets, or nothing does, is a
#: visible diff here.
SETTABLE = {
    ("cache/warming.py", "warm_from_peer", "budget_bytes"): _WARMING,
    ("cache/warming.py", "warm_from_peer", "prefer_peer"): _WARMING,
    ("catalog/catalog.py", "Catalog.__init__", "checkpoint_every"):
        "§3.5's checkpoint cadence, until ROADMAP item 13 settles it",
    ("cluster/ddl.py", "create_live_aggregate", "segmentation"): _DDL,
    ("cluster/ddl.py", "create_projection", "refresh"): _DDL,
    ("cluster/ddl.py", "create_table", "flattened"): _DDL,
    ("cluster/ddl.py", "create_user", "is_superuser"): _DDL,
    ("cluster/enterprise.py", "EnterpriseCluster.__init__", "clock"): _ENTERPRISE,
    ("cluster/enterprise.py", "EnterpriseCluster.__init__", "execution_slots"): _ENTERPRISE,
    ("cluster/lifecycle.py", "add_node", "shards"): _GROWTH,
    ("cluster/node.py", "Node.fetch_storage", "info"): _SERIAL,
    ("cluster/node.py", "Node.fetch_storage", "use_cache"): _SERIAL,
    ("engine/designer.py", "DatabaseDesigner.add_query", "weight"): _OPERAND,
    ("engine/operators.py", "sort_limit", "limit"): _OPERAND,
    ("obs/metrics.py", "MetricsRegistry.histogram", "buckets"): _OPERAND,
    ("obs/metrics.py", "NullRegistry.histogram", "buckets"): _OPERAND,
    ("shared_storage/s3.py", "SimulatedS3.__init__", "cost"): _S3,
    ("shared_storage/s3.py", "SimulatedS3.__init__", "latency"): _S3,
    ("sim/oracle.py", "SqliteOracle.check", "ordered"): _OPERAND,
    ("storage/container.py", "RowSet.sort_by", "ascending"): _OPERAND,
    ("storage/container.py", "write_container", "block_rows"):
        "the container format's block size, an argument of the pure encoder as"
        " encode_block's encoding is: the codec's property tests draw it per example",
    ("storage/encoding.py", "encode_block", "encoding"): _OPERAND,
    ("workloads/dashboard.py", "load_dashboard_data", "n_devices"): _OPERAND,
}

#: What the callable census leaves: a mechanism of the paper that nothing
#: in the program drives yet, each with its section.  Anything else that
#: only the tests call moves into the tests.
UNCALLED = {
    ("cluster/enterprise.py", "EnterpriseCluster.mergeout"):
        "§6.2: Enterprise mode's per-node mergeout, the baseline that Eon's"
        " coordinated mergeout replaces; the Enterprise write fingerprint pins it",
    ("cluster/revive.py", "form_cluster"):
        "§3.5: cluster formation after a crash mid-commit, truncating every"
        " node to the consensus version",
}

_COST = "ROADMAP item 1(c): the cost model's constants, to be fitted to a measured trajectory"

#: What the field census leaves, each with why it stays settable.  An
#: options dataclass field that nothing outside the tests sets is a module
#: constant, unless it is a setting the paper (or a fit) gives the operator.
FIELD_SETTABLE = {
    ("cache/disk_cache.py", "ShapingPolicy", "pin"):
        "§5.2: the operator's depot pinning policy, a predicate over a file's"
        " table and partition",
    **{("engine/cost.py", "CostModel", name): _COST for name in (
        "cell_cpu_seconds", "dispatch_seconds", "network_bandwidth",
        "network_latency", "row_cpu_seconds",
    )},
    **{("shared_storage/s3.py", "S3CostModel", name): _S3 for name in (
        "get_per_1k", "list_per_1k", "put_per_1k", "return_per_gb",
        "scan_per_gb", "select_per_1k", "storage_per_gb_month",
    )},
    **{("shared_storage/s3.py", "S3LatencyModel", name): _S3 for name in (
        "list_seconds", "read_bandwidth", "request_seconds", "scan_bandwidth",
        "select_request_seconds", "write_bandwidth",
    )},
}


#: The modules that spawn processes on a simulation clock, each with why.
SPAWNERS = {
    "src/repro/wm/driver.py": "the closed loop every query throughput figure runs",
    "benchmarks/bench_fig11b_copy.py":
        "Fig 11b's COPY loop: COPY takes no admission slots (section 4.5), so"
        " the query driver has no request to make for it",
}


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

    def test_the_autoscaler_is_a_leaf(self):
        """``repro.autoscale`` is a client of the cluster (the paper leaves
        the scaling policy to the operator): outside the package only the
        ``v_monitor.autoscale_events`` schema and the simulation action that
        drives it import it, and no other module names its subcluster or
        its manifest prefix."""
        owned = {"BURST_SUBCLUSTER", "HIBERNATE_PREFIX"}
        importers, named = {}, []
        for path in sorted(SRC.rglob("*.py")):
            if path.parent.name == "autoscale":
                continue
            where = str(path.relative_to(SRC))
            for node in ast.walk(ast.parse(path.read_text())):
                if isinstance(node, ast.ImportFrom) and (node.module or "").startswith("repro.autoscale"):
                    importers.setdefault(where, set()).update(a.name for a in node.names)
                elif isinstance(node, ast.Import):
                    for alias in node.names:
                        if alias.name.startswith("repro.autoscale"):
                            importers.setdefault(where, set()).add(alias.name)
                # A Name's id, an Attribute's attr, an imported alias's name.
                name = getattr(node, "id", None) or getattr(node, "attr", None) or getattr(node, "name", None)
                if name in owned:
                    named.append((where, node.lineno, name))
        assert importers == {
            "obs/system_tables.py": {"AutoscaleEvent"},
            "sim/actions.py": {"Autoscaler", "PolicyConfig"},
        }
        assert named == []

    def test_no_module_grows_past_600_lines(self):
        sizes = {str(p.relative_to(SRC)): len(p.read_text().splitlines()) for p in SRC.rglob("*.py")}
        grown = {name: n for name, n in sizes.items() if n > OVER_600.get(name, 600)}
        assert grown == {}

    def test_the_class_level_switches_are_these(self):
        """A class-level ``bool`` constant is a switch every instance shares:
        the observability on/off pairs and a store's outage default (shared
        storage is S3, so no store advertises what it can do).  A reference arm that a differential flips (a second read
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

    def test_one_closed_loop_driver(self):
        """Every throughput figure and example runs its requests through
        ``run_closed_loop``: nothing imports a second model of section 4.2's
        slots (the retired ``repro.bench``), and no module but those in
        ``SPAWNERS`` starts processes on a clock."""
        root = SRC.parents[1]
        importers, spawners = [], set()
        for top in CALLERS:
            for path in sorted((root / top).rglob("*.py")):
                where = str(path.relative_to(root))
                for node in ast.walk(ast.parse(path.read_text())):
                    if isinstance(node, ast.Import):
                        modules = [alias.name for alias in node.names]
                    elif isinstance(node, ast.ImportFrom):
                        modules = [node.module or ""] + [
                            f"{node.module}.{alias.name}" for alias in node.names
                        ]
                    else:
                        modules = []
                    if any(m == "repro.bench" or m.startswith("repro.bench.") for m in modules):
                        importers.append((where, node.lineno))
                    if isinstance(node, ast.Call) and getattr(node.func, "attr", "") == "spawn":
                        spawners.add(where)
        assert importers == []
        assert sorted(spawners) == sorted(SPAWNERS)

    def test_every_option_has_a_caller(self):
        """A defaulted parameter that nothing outside the tests passes is an
        option no operator has: it goes, or becomes a module constant the
        tests monkeypatch, or is listed in ``SETTABLE`` with its reason."""
        assert option_census() == sorted(SETTABLE)

    def test_every_function_has_a_caller(self):
        """A function, class or method that nothing outside the tests names
        goes, or moves into the tests that use it, or is listed in
        ``UNCALLED`` with its paper section."""
        assert [row[:2] for row in callable_census()] == sorted(UNCALLED)

    def test_every_option_field_has_a_setter(self):
        """An options-dataclass field that nothing outside the tests sets is
        a module constant, or is listed in ``FIELD_SETTABLE`` with its
        reason."""
        assert field_census() == sorted(FIELD_SETTABLE)

    def test_every_catalog_op_kind_has_a_producer(self):
        """Each kind ``CatalogState.apply`` handles is made by an ``op_*``
        constructor that a ``src/`` call uses: a handler for an op nothing
        emits is code no commit reaches."""
        mvcc = SRC / "catalog" / "mvcc.py"
        produces = {
            func.name: value.value
            for func in ast.parse(mvcc.read_text()).body
            if isinstance(func, ast.FunctionDef) and func.name.startswith("op_")
            for node in ast.walk(func) if isinstance(node, ast.Dict)
            for key, value in zip(node.keys, node.values)
            if isinstance(key, ast.Constant) and key.value == "op"
            and isinstance(value, ast.Constant)
        }
        called = {
            getattr(node.func, "id", getattr(node.func, "attr", None))
            for path in SRC.rglob("*.py") for node in ast.walk(ast.parse(path.read_text()))
            if isinstance(node, ast.Call)
        }
        assert sorted(produces[f] for f in produces if f in called) == sorted(_HANDLERS)

    def test_no_benchmark_module_shadows_the_standard_library(self):
        """``benchmarks/`` goes on ``sys.path`` for its scripts and the
        legacy benches; a module there named like a stdlib one (``profile``)
        breaks every import of the real one (pytest-benchmark imports
        ``cProfile``, which imports ``profile``)."""
        stems = {path.stem for path in (SRC.parents[1] / "benchmarks").glob("*.py")}
        assert sorted(stems & sys.stdlib_module_names) == []

    def test_importing_the_package_loads_no_scipy(self):
        """scipy is the designer's solver and is imported inside its search
        only: loaded at import it would add its memory and start-up time to
        every process that never designs (the shell, the sim, every e2e
        workload)."""
        probe = (
            "import sys, repro, repro.obs.system_tables, repro.shell, repro.sim.actions\n"
            "print(sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'))"
        )
        out = subprocess.run(
            [sys.executable, "-c", probe], capture_output=True, text=True, check=True,
            env={**os.environ, "PYTHONPATH": str(SRC.parent)},
        ).stdout
        assert out.strip() == "[]"


def _report(title, rows):
    print(f"# {title}")
    for row in rows:
        print(*row)
    print(f"{len(rows)} {title}")


if __name__ == "__main__":
    _report("options (file function parameter)", option_census())
    _report("callables (file name lines)", callable_census())
    _report("fields (file class field)", field_census())
