"""The Eon-mode cluster: sharded metadata on shared storage.

This class wires every mechanism in the paper together:

* bootstrap with a fixed segment-shard count and k-subscriber layout
  (section 3.1);
* DDL/DML/COPY through distributed transactions with OCC and subscription
  invariants (sections 3.2, 4.5, 6.3);
* query sessions with max-flow participating-subscription selection,
  subcluster priorities, elastic throughput scaling and crunch scaling
  (section 4);
* node failure and recovery via re-subscription and peer cache warming
  (sections 3.3, 6.1);
* elasticity — adding/removing nodes without data redistribution
  (section 6.4);
* catalog sync to shared storage, consensus truncation version,
  cluster_info and revive support (section 3.5);
* file reaping (section 6.5) and mergeout coordination (section 6.2).
"""

from __future__ import annotations

import itertools
import json
import random
from typing import Dict, List, Optional, Sequence, Set, Tuple

from repro.catalog.mvcc import (
    op_add_column,
    op_create_live_agg,
    op_create_projection,
    op_create_table,
    op_create_user,
    op_drop_projection,
    op_drop_subscription,
    op_drop_table,
    op_set_property,
    op_set_subscription,
)
from repro.catalog.objects import (
    AggregateSpec as LapAggregateSpec,
    LiveAggregateProjection,
    Projection,
    Segmentation,
    Table,
    User,
)
from repro.catalog.transaction_log import LogStore
from repro.cache.warming import WarmingReport, warm_from_peer
from repro.cluster.node import Node, NodeState
from repro.cluster import query_path
from repro.cluster.reaper import FileReaper
from repro.cluster.session import EonSession
from repro.cluster.transactions import CommitCoordinator, Transaction
from repro.common.clock import SimClock
from repro.common.types import ColumnType, SchemaColumn, TableSchema
from repro.engine.cost import CostModel
from repro.engine.executor import QueryResult, check_query_options
from repro.engine.pipeline import EngineStats
from repro.errors import (
    CatalogError,
    ClusterError,
    NodeDown,
    QuorumLost,
    ShardCoverageLost,
    StorageUnavailable,
)
from repro.io.scheduler import IOScheduler
from repro.obs import Observability
from repro.recovery import FailoverPolicy, RebalanceReport, SubscriptionRebalancer
from repro.sharding.assignment import select_participating_subscriptions
from repro.sharding.shard import REPLICA_SHARD_ID, ShardMap
from repro.sharding.subscription import SubscriptionState, validate_transition
from repro.shared_storage.api import Filesystem, PrefixView, RetryingFilesystem, retrying
from repro.shared_storage.s3 import SimulatedS3
from repro.sql.parser import parse
from repro.storage.container import RowSet
from repro.wm.admission import AdmissionController


#: What ``query``/``query_statement`` accept per query: the session layout
#: (``create_session``'s parameters) and the one engine option.
QUERY_OPTIONS = (
    "initiator", "subcluster", "crunch", "nodes_per_shard", "use_cache", "seed",
    "prefer_initiator_rack", "pushdown",
)


class EonCluster:
    """An Eon-mode database over shared storage."""

    #: False builds the cluster without the I/O scheduler — the strictly
    #: serial miss path, the reference arm a differential flips on the class
    #: (as with ``EonStorageProvider.pool_fetch_charges``); never an option.
    parallel_io = True

    def __init__(
        self,
        node_names: Sequence[str],
        shard_count: int,
        shared_storage: Optional[Filesystem] = None,
        subscribers_per_shard: int = 2,
        cache_bytes: int = 256 << 20,
        execution_slots: int = 4,
        seed: int = 0,
        clock: Optional[SimClock] = None,
        cost_model: Optional[CostModel] = None,
        racks: Optional[Dict[str, str]] = None,
        observability: Optional[Observability] = None,
        _bootstrap: bool = True,
    ):
        if not node_names:
            raise ValueError("cluster needs at least one node")
        self.rng = random.Random(seed)
        self.clock = clock or SimClock()
        self.cost_model = cost_model or CostModel()
        #: Observability is off by default — instrumented paths then cost a
        #: single attribute check (the no-op registry/tracer).
        self.obs = observability or Observability(clock=self.clock, enabled=False)
        self.shard_map = ShardMap(shard_count)
        self.shared = shared_storage or SimulatedS3()
        self.shared_data = PrefixView(self.shared, "data_")
        self.incarnation = f"{self.rng.getrandbits(128):032x}"
        self.subscribers_per_shard = min(subscribers_per_shard, len(node_names))
        self.nodes: Dict[str, Node] = {}
        racks = racks or {}
        for name in node_names:
            self.nodes[name] = Node(
                name,
                cache_bytes=cache_bytes,
                execution_slots=execution_slots,
                rack=racks.get(name),
                rng=random.Random(self.rng.getrandbits(64)),
            )
        #: Parallel depot I/O scheduler for scans; None is the strictly
        #: serial miss path (the pre-scheduler behaviour).
        self.io_scheduler = IOScheduler(self) if self.parallel_io else None
        #: Default scan-strategy policy (``auto`` | ``on`` | ``off``);
        #: the per-query ``pushdown=`` session option overrides it.
        self.pushdown = "auto"
        self.engine_stats = EngineStats()
        self.plan_cache = query_path.PlanCache()
        self.coordinator = CommitCoordinator(self)
        self.reaper = FileReaper(self)
        self.subclusters: Dict[str, Set[str]] = {}
        self.last_truncation_version = 0
        self._session_counter = itertools.count()
        self._writer_counters: Dict[int, "itertools.count[int]"] = {}
        self._cluster_info_counter = itertools.count(1)
        self.shut_down = False
        #: True for a sharing cluster attached read-only to another
        #: database's shared storage (section 10).
        self.read_only = False
        self._source_incarnation: Optional[str] = None
        #: Session-level query failover bounds (repro.recovery).
        self.failover_policy = FailoverPolicy()
        self.failovers = 0
        #: Workload manager: per-node execution-slot admission control
        #: (repro.wm).  Every SELECT holds its slot demand for the length
        #: of its execution; concurrent drivers queue on the clock.
        self.admission = AdmissionController(self)
        #: Degraded read-only mode: entered while shared storage is in a
        #: sustained outage window, exited when the window lapses.  The
        #: entry/exit counters are the pairing invariant's observables.
        self.degraded = False
        self.degraded_entries = 0
        self.degraded_exits = 0
        #: Set by ServiceScheduler.__init__ so v_monitor can reach service
        #: stats without the cluster owning a scheduler.
        self.service_scheduler = None
        #: Set by repro.autoscale.Autoscaler when one is attached, so
        #: v_monitor.autoscale_events and cluster_metrics can reach it.
        self.autoscaler = None
        #: DesignerRun records appended by DatabaseDesigner.apply(), read
        #: back through v_monitor.designer_runs.
        self.designer_runs: List = []
        # Outage windows are clock-driven; bind the cluster clock to the
        # backend's fault injector when it has one.
        faults = getattr(self.shared, "faults", None)
        if faults is not None and hasattr(faults, "bind_clock"):
            faults.bind_clock(self.clock)
        if faults is not None and hasattr(faults, "bind_recorder"):
            faults.bind_recorder(self._record_fault_event)
        for node in self.nodes.values():
            self._attach_depot_sink(node)
        if _bootstrap:
            self._bootstrap()

    def enable_observability(self) -> Observability:
        """Switch on metrics, tracing, and query profiling (idempotent)."""
        self.obs = self.obs.switched_on()
        return self.obs

    # -- Data Collector feeds --------------------------------------------------

    def _record_fault_event(self, kind: str, operation: str) -> None:
        """Fault-injector sink → ``dc_fault_injections``.  Called after the
        injection decision, so it cannot perturb RNG state; it draws no RNG
        and charges no requests itself, keeping digests bit-identical."""
        if self.obs.enabled:
            self.obs.dc.record(
                "dc_fault_injections", "", (operation, kind, "")
            )

    def _attach_depot_sink(self, node: Node) -> None:
        """Wire a node's depot to ``dc_depot_events``.  The sink closes
        over the node *name* and reads ``self.obs`` lazily, so it survives
        ``enable_observability`` swaps and cache rebuilds alike."""
        name = node.name

        def sink(event: str, obj: str, size: int) -> None:
            if self.obs.enabled:
                self.obs.dc.record(
                    "dc_depot_events", name, (event, obj, int(size))
                )

        node.cache.event_sink = sink

    # -- bootstrap -----------------------------------------------------------------

    def _bootstrap(self) -> None:
        """Initial subscription layout.

        Walk the logical ring so that (a) every shard gets at least
        ``subscribers_per_shard`` subscribers (fault tolerance), and (b)
        every node subscribes to at least one segment shard — with more
        nodes than shards this is what makes Elastic Throughput Scaling
        work: "a simple case is where there are twice as many nodes as
        segments, effectively producing two clusters" (section 4.2).  The
        replica shard is subscribed by every node.
        """
        names = list(self.nodes)
        shard_count = self.shard_map.count
        txn = Transaction()
        seen = set()
        for i in range(max(len(names), shard_count)):
            node = names[i % len(names)]
            for j in range(self.subscribers_per_shard):
                key = (node, (i + j) % shard_count)
                if key not in seen:
                    seen.add(key)
                    txn.add_op(
                        op_set_subscription(
                            key[0], key[1], SubscriptionState.ACTIVE.value
                        )
                    )
        for node in names:
            txn.add_op(
                op_set_subscription(
                    node, REPLICA_SHARD_ID, SubscriptionState.ACTIVE.value
                )
            )
        self.commit(txn)
        self._refresh_shard_filters()

    def _refresh_shard_filters(self) -> None:
        state = self.any_up_node().catalog.state
        for name, node in self.nodes.items():
            shards = {
                shard for (n, shard), _ in state.subscriptions.items() if n == name
            }
            node.catalog.subscribed_shards = shards or set()

    # -- membership ---------------------------------------------------------------

    def up_nodes(self) -> List[Node]:
        return [n for n in self.nodes.values() if n.is_up]

    def any_up_node(self) -> Node:
        for node in self.nodes.values():
            if node.is_up:
                return node
        raise QuorumLost("no nodes are up")

    @property
    def version(self) -> int:
        return self.coordinator.version

    def subscribers(self, shard_id: int) -> List[str]:
        """Nodes subscribed to a shard (any state), up or down."""
        state = self.any_up_node().catalog.state
        return sorted(
            n for (n, s), _ in state.subscriptions.items() if s == shard_id
        )

    def active_subscribers(self, shard_id: int) -> List[str]:
        state = self.any_up_node().catalog.state
        return sorted(
            n
            for (n, s), st in state.subscriptions.items()
            if s == shard_id and st == SubscriptionState.ACTIVE.value
        )

    def up_subscribers(self, shard_id: int) -> List[str]:
        return [
            n
            for n in self.subscribers(shard_id)
            if n in self.nodes and self.nodes[n].is_up
        ]

    def active_up_subscribers(self, shard_id: int) -> List[str]:
        return [
            n for n in self.active_subscribers(shard_id) if self.nodes[n].is_up
        ]

    # -- invariant accessors (simulation-test hook points) -------------------------

    def uncovered_shards(self) -> List[int]:
        """Shards with no up ACTIVE subscriber.

        The global invariant (section 3.4) is that this list is empty
        whenever the cluster is accepting work; a non-empty list is only
        legitimate once the cluster has shut itself down.
        """
        if not any(n.is_up for n in self.nodes.values()):
            return list(self.shard_map.all_shard_ids())
        return [
            shard_id
            for shard_id in self.shard_map.all_shard_ids()
            if not self.active_up_subscribers(shard_id)
        ]

    def all_catalog_sids(self, include_pinned: bool = True) -> Set[str]:
        """Every storage name referenced by any up node's catalog.

        With ``include_pinned``, states still pinned by running queries
        count too — a file is only dereferenced once *no* reachable
        catalog state mentions it.
        """
        sids: Set[str] = set()
        for node in self.up_nodes():
            sids |= node.catalog.state.storage_sids()
            if include_pinned:
                for state in node.catalog.pinned_states():
                    sids |= state.storage_sids()
        return sids

    def running_instance_prefixes(self) -> List[str]:
        """SID name prefixes of every live node instance.

        A shared-storage object carrying one of these prefixes may be an
        in-flight upload (written, not yet committed), so the reaper's
        leaked-file sweep must not touch it (section 6.5).
        """
        return [
            node.sid_factory.next_sid(local_oid=0).prefix
            for node in self.up_nodes()
        ]

    def check_viability(self) -> None:
        """Cluster invariants (section 3.4): quorum plus shard coverage.

        On violation the cluster shuts down "to avoid divergence or wrong
        answers"."""
        up = len(self.up_nodes())
        if up * 2 <= len(self.nodes):
            self.shut_down = True
            raise QuorumLost(
                f"only {up} of {len(self.nodes)} nodes up; quorum lost"
            )
        for shard_id in self.shard_map.all_shard_ids():
            if not self.active_up_subscribers(shard_id):
                self.shut_down = True
                raise ShardCoverageLost(
                    f"shard {shard_id} has no up ACTIVE subscriber"
                )

    # -- degraded mode (sustained shared-storage outage) ---------------------------

    def refresh_degraded(self) -> bool:
        """Fold the shared-storage outage flag into cluster state.

        Entry and exit are deterministic — purely a function of the sim
        clock against the declared outage window, never of RNG state or
        poll ordering — and always paired: the flag cannot flip the same
        way twice in a row, so ``degraded_entries`` and ``degraded_exits``
        differ by at most one (the pairing invariant the sim checks).

        While degraded the cluster is read-only over depot-resident data:
        commits and loads fail fast with :class:`StorageUnavailable`, and
        the maintenance services pause instead of burning error counters.
        """
        outage = bool(getattr(self.shared, "outage_active", False))
        if outage and not self.degraded:
            self.degraded = True
            self.degraded_entries += 1
            if self.obs.enabled:
                self.obs.tracer.record("degraded.enter", t=self.clock.now)
        elif not outage and self.degraded:
            self.degraded = False
            self.degraded_exits += 1
            if self.obs.enabled:
                self.obs.tracer.record("degraded.exit", t=self.clock.now)
        return self.degraded

    # -- transactions ----------------------------------------------------------------

    def begin(self) -> Transaction:
        return Transaction()

    def commit(self, txn: Transaction, epoch: Optional[int] = None) -> int:
        if self.shut_down:
            raise ClusterError("cluster is shut down")
        if self.read_only:
            raise ClusterError(
                "this is a read-only sharing cluster; writes must go "
                "through the primary"
            )
        if self.refresh_degraded():
            # Degraded read-only mode: commit durability rests on shared
            # storage (Figure 8's upload-before-commit), which is out.
            # Fail fast rather than retrying into a declared outage.
            raise StorageUnavailable(
                "cluster is in degraded read-only mode during a "
                "shared-storage outage; writes are rejected"
            )
        if epoch is None:
            epoch = int(self.clock.now)
        version = self.coordinator.commit(txn, epoch=epoch)
        self._after_commit(txn)
        return version

    def references(self, sid: str) -> bool:
        """True while some up node's current catalog state holds ``sid``."""
        for node in self.up_nodes():
            state = node.catalog.state
            if sid in state.containers or sid in state.delete_vectors:
                return True
        return False

    def _after_commit(self, txn: Transaction) -> None:
        # Reference counting (section 6.5): a storage name the commit
        # removed from some node's state, and that no up node holds now,
        # has hit refcount zero and belongs to the reaper.  The op handlers
        # report what they removed, cascades included: dropping a container
        # removes its delete vectors, dropping a table or projection removes
        # everything under it.  A same-transaction re-add (partition move)
        # is reported too but is still held, so the file stays live.
        for sid in sorted(self.coordinator.last_removed):
            if self.references(sid):
                continue
            for node in self.up_nodes():
                node.cache.drop(sid)
            self.reaper.note_drop(sid, self.version)
        if any(
            op["op"] in ("set_subscription", "drop_subscription")
            for op in txn.ops
        ):
            self._refresh_shard_filters()

    # -- DDL ----------------------------------------------------------------------------

    def create_table(
        self,
        name: str,
        columns: Sequence[Tuple[str, ColumnType]],
        partition_by: Optional[str] = None,
        create_super: bool = True,
        flattened: Sequence = (),
    ) -> int:
        schema = TableSchema([SchemaColumn(n, t) for n, t in columns])
        table = Table(
            name=name, schema=schema, partition_by=partition_by,
            flattened=tuple(flattened),
        )
        txn = self.begin()
        txn.add_op(op_create_table(table))
        if create_super:
            super_proj = Projection(
                name=f"{name}_super",
                anchor_table=name,
                columns=tuple(schema.names),
                sort_order=(schema.names[0],),
                segmentation=Segmentation.by_hash(schema.names[0]),
            )
            txn.add_op(op_create_projection(super_proj))
        return self.commit(txn)

    def create_projection(
        self,
        name: str,
        table: str,
        columns: Sequence[str],
        sort_order: Sequence[str],
        segmentation: Segmentation,
        refresh: bool = True,
    ) -> int:
        """Create a projection; if the table already has data and
        ``refresh`` is set, populate the new projection from an existing
        one (Vertica's projection refresh)."""
        needs_refresh = self._table_has_data(table)
        if needs_refresh and not refresh:
            raise CatalogError(
                f"cannot add projection to non-empty table {table!r} "
                "without refresh"
            )
        projection = Projection(
            name=name,
            anchor_table=table,
            columns=tuple(columns),
            sort_order=tuple(sort_order),
            segmentation=segmentation,
        )
        # Snapshot the table contents *before* the new (empty) projection
        # exists, so the refresh scan reads through an existing projection.
        refresh_rows = self._table_snapshot_rows(table, columns) if needs_refresh else None
        # One transaction for create + refresh: the projection and its
        # containers become visible together, so no catalog version ever
        # shows an *empty* projection of a non-empty table (which the
        # planner could pick and silently return no rows from).  Container
        # files upload before the commit under this instance's prefix, so
        # a failed commit leaks only reaper-recoverable files.
        txn = self.begin()
        txn.add_op(op_create_projection(projection))
        if refresh_rows is not None:
            from repro.load.copy import CopyReport, _load_projection

            state = self.any_up_node().catalog.state
            report = CopyReport()
            _load_projection(
                self, state.table(table), projection, refresh_rows,
                txn, report, True,
            )
        return self.commit(txn)

    def _table_snapshot_rows(self, table_name: str, columns: Sequence[str]) -> RowSet:
        column_list = ", ".join(columns)
        result = self.query(f"select {column_list} from {table_name}")
        table = self.any_up_node().catalog.state.table(table_name)
        # Re-type to the table schema (query output schema is inferred).
        schema = table.schema.subset(list(columns))
        return RowSet(schema, dict(result.rows.columns))

    def drop_projections(self, names: Sequence[str]) -> int:
        """Drop projections in one transaction (the designer drops every
        superseded ``_dbd`` version atomically once replacements exist).

        Refuses to drop a table's last projection: a table must stay
        readable.  Refcount-zero container and delete-vector files are reaped
        from what the commit reports it removed."""
        state = self.any_up_node().catalog.state
        remaining: Dict[str, int] = {}
        for name in names:
            projection = state.projection(name)  # raises CatalogError if missing
            table = projection.anchor_table
            if table not in remaining:
                remaining[table] = len(
                    [p for p in state.projections_of(table) if not p.is_buddy]
                )
            remaining[table] -= 1
            if remaining[table] < 1:
                raise CatalogError(
                    f"cannot drop {name!r}: it is the last projection of "
                    f"table {table!r}"
                )
        txn = self.begin()
        for name in names:
            txn.add_op(op_drop_projection(name))
        return self.commit(txn)

    def drop_projection(self, name: str) -> int:
        return self.drop_projections([name])

    def _table_has_data(self, table: str) -> bool:
        # Storage metadata is sharded: a single node's catalog only covers
        # its subscribed shards, so consult every up node.
        for node in self.up_nodes():
            state = node.catalog.state
            for projection in state.projections_of(table):
                if state.containers_of(projection.name):
                    return True
        return False

    def create_live_aggregate(
        self,
        name: str,
        table: str,
        group_by: Sequence[str],
        aggregates: Sequence[Tuple[str, Optional[str], str]],  # (func, arg, out)
        segmentation: Optional[Segmentation] = None,
    ) -> int:
        if self._table_has_data(table):
            raise CatalogError(
                f"cannot add live aggregate to non-empty table {table!r}"
            )
        lap = LiveAggregateProjection(
            name=name,
            anchor_table=table,
            group_by=tuple(group_by),
            aggregates=tuple(
                LapAggregateSpec(func, arg, out) for func, arg, out in aggregates
            ),
            segmentation=segmentation or Segmentation.by_hash(group_by[0]),
        )
        txn = self.begin()
        txn.add_op(op_create_live_agg(lap))
        return self.commit(txn)

    def create_user(self, name: str, is_superuser: bool = False) -> int:
        txn = self.begin()
        txn.add_op(op_create_user(User(name, is_superuser)))
        return self.commit(txn)

    def add_column(
        self, table: str, column: str, ctype: ColumnType, txn: Optional[Transaction] = None
    ) -> int:
        """ADD COLUMN under OCC (section 6.3): pass an explicit ``txn``
        begun earlier to model offline metadata preparation; commit-time
        validation aborts if the table changed in between."""
        own = txn is None
        if txn is None:
            txn = self.begin()
        txn.add_op(op_add_column(table, SchemaColumn(column, ctype)))
        if own:
            return self.commit(txn)
        return -1

    # -- SQL front door ------------------------------------------------------------------

    def execute(self, sql: str, **session_options):
        """Run one or more SQL statements; returns the last result."""
        from repro.engine.expressions import Expr
        from repro.sql.ast import (
            AddColumn,
            CreateProjection,
            CreateTable,
            Delete,
            DropTable,
            Insert,
            Select,
            Update,
        )
        from repro.load.copy import copy_into
        from repro.load.dml import delete_from, update_table

        result = None
        for statement in parse(sql):
            if isinstance(statement, Select):
                result = self.query_statement(statement, **session_options)
            elif isinstance(statement, CreateTable):
                result = self.create_table(
                    statement.name,
                    [
                        (c.name, ColumnType.from_sql(c.type_name))
                        for c in statement.columns
                    ],
                    partition_by=statement.partition_by,
                )
            elif isinstance(statement, CreateProjection):
                seg = (
                    Segmentation.by_hash(*statement.segmented_by)
                    if statement.segmented_by
                    else Segmentation.replicated()
                )
                state = self.any_up_node().catalog.state
                columns = statement.columns or list(
                    state.table(statement.table).schema.names
                )
                result = self.create_projection(
                    statement.name,
                    statement.table,
                    columns,
                    statement.order_by or [columns[0]],
                    seg,
                )
            elif isinstance(statement, Insert):
                state = self.any_up_node().catalog.state
                schema = state.table(statement.table).schema
                rows = RowSet.from_rows(schema, statement.rows)
                result = copy_into(self, statement.table, rows)
            elif isinstance(statement, Delete):
                result = delete_from(self, statement.table, statement.where)
            elif isinstance(statement, Update):
                result = update_table(
                    self, statement.table, statement.assignments, statement.where
                )
            elif isinstance(statement, AddColumn):
                result = self.add_column(
                    statement.table,
                    statement.column.name,
                    ColumnType.from_sql(statement.column.type_name),
                )
            elif isinstance(statement, DropTable):
                txn = self.begin()
                txn.add_op(op_drop_table(statement.name))
                result = self.commit(txn)
            else:
                raise CatalogError(f"unsupported statement {statement!r}")
        return result

    def load(self, table: str, rows, use_cache: bool = True):
        """Programmatic COPY: ``rows`` is a RowSet or list of tuples."""
        from repro.load.copy import copy_into

        if not isinstance(rows, RowSet):
            table_obj = self.any_up_node().catalog.state.table(table)
            schema = table_obj.schema
            rows = list(rows)
            if (
                table_obj.flattened
                and rows
                and len(rows[0]) == len(table_obj.base_columns)
            ):
                schema = schema.subset(table_obj.base_columns)
            rows = RowSet.from_rows(schema, rows)
        return copy_into(self, table, rows, use_cache=use_cache)

    def refresh_flattened(self, table: str) -> int:
        """Re-derive a flattened table's denormalised columns from the
        current dimension contents (section 2.1's refresh mechanism)."""
        from repro.load.flattened import refresh_flattened

        return refresh_flattened(self, table, epoch=int(self.clock.now))

    def drop_partition(self, table: str, partition_key: object) -> int:
        """Metadata-only partition drop (section 4.5); returns rows dropped."""
        from repro.load.partitions import drop_partition

        return drop_partition(self, table, partition_key)

    def move_partition(self, source: str, target: str, partition_key: object) -> int:
        """Metadata-only partition move between structurally matching
        tables; the data files are shared, never copied (section 5.1)."""
        from repro.load.partitions import move_partition

        return move_partition(self, source, target, partition_key)

    # -- sessions & queries ------------------------------------------------------------------

    def create_session(
        self,
        initiator: Optional[str] = None,
        subcluster: Optional[str] = None,
        crunch: Optional[str] = None,
        nodes_per_shard: int = 1,
        use_cache: bool = True,
        seed: Optional[int] = None,
        prefer_initiator_rack: bool = True,
    ) -> EonSession:
        """Select participating subscriptions for a new session.

        ``crunch`` ("hash" or "container") with ``nodes_per_shard`` > 1
        spreads each shard over several nodes (section 4.4).
        """
        if self.shut_down:
            raise ClusterError("cluster is shut down")
        if seed is None:
            seed = self.rng.getrandbits(32) ^ next(self._session_counter)
        up_active: Dict[int, List[str]] = {
            shard: self.active_up_subscribers(shard)
            for shard in self.shard_map.shard_ids()
        }
        if initiator is None:
            candidates = (
                sorted(self.subclusters.get(subcluster, set()))
                if subcluster
                else sorted(n.name for n in self.up_nodes())
            )
            candidates = [c for c in candidates if self.nodes[c].is_up]
            if not candidates:
                # The whole subcluster is down: the workload escapes to the
                # rest of the cluster (section 4.3's failure clause).
                candidates = sorted(n.name for n in self.up_nodes())
            # Steer new sessions away from draining pools (scale-in in
            # progress) when any non-draining node can take them; with
            # nothing draining this filter is the identity, so session
            # placement — and therefore every digest — is unchanged.
            draining = set(self.admission.draining_nodes())
            if draining:
                open_candidates = [c for c in candidates if c not in draining]
                if open_candidates:
                    candidates = open_candidates
            if not candidates:
                raise NodeDown("no up node available as initiator")
            initiator = candidates[seed % len(candidates)]
        priority_tiers = None
        if subcluster is not None:
            members = {
                n for n in self.subclusters.get(subcluster, set()) if self.nodes[n].is_up
            }
            if members:
                priority_tiers = [members]
        elif prefer_initiator_rack and self.nodes[initiator].rack is not None:
            # Rack-aware layout (section 4.1): "the starting graph includes
            # only nodes on the same physical rack, encouraging an
            # assignment that avoids sending network data across
            # bandwidth-constrained links."  Lower tiers join only if the
            # rack cannot cover every shard.
            rack = self.nodes[initiator].rack
            same_rack = {
                n.name for n in self.up_nodes() if n.rack == rack
            }
            if same_rack:
                priority_tiers = [same_rack]
        assignment = select_participating_subscriptions(
            self.shard_map.shard_ids(), up_active, priority_tiers, seed=seed
        )
        sharing: Dict[int, List[str]] = {}
        if crunch is not None and nodes_per_shard > 1:
            for shard, primary in assignment.items():
                extras = [
                    n for n in up_active[shard] if n != primary
                ][: nodes_per_shard - 1]
                sharing[shard] = [primary] + extras
        else:
            sharing = {shard: [node] for shard, node in assignment.items()}
        snapshots = {}
        needed = {n for nodes in sharing.values() for n in nodes} | {initiator}
        for name in needed:
            snapshots[name] = self.nodes[name].catalog.snapshot()
        return EonSession(
            cluster=self,
            initiator=initiator,
            assignment=assignment,
            sharing=sharing,
            crunch=crunch,
            snapshots=snapshots,
            use_cache=use_cache,
            seed=seed,
        )

    def query(self, sql: str, **session_options) -> QueryResult:
        return self.query_statement(
            query_path.parse_select(self, sql), request_text=sql.strip(), **session_options
        )

    def query_statement(
        self,
        statement,
        session: Optional[EonSession] = None,
        request_text: Optional[str] = None,
        failover: Optional[bool] = None,
        ticket=None,
        **session_options,
    ) -> QueryResult:
        """One SELECT through the shared query path (``query_path.run``)."""
        check_query_options(session_options, QUERY_OPTIONS)
        if session is None and session_options.get("crunch") == "auto":
            session_options["crunch"] = self._choose_crunch_mode(
                statement, **session_options
            )
        return query_path.run(
            self, statement, session, request_text, failover, ticket, session_options
        )

    def _choose_crunch_mode(self, statement, **session_options) -> str:
        """Cost-based crunch mode choice (section 4.4: "a likely candidate
        for using Vertica's cost-based optimizer").

        Container split reads each byte once but destroys the segmentation
        property; hash-filter split re-reads but preserves it.  So: if the
        plan profits from co-location (a local join with a segmented build
        side, or a one-phase aggregate), pick hash-filter; otherwise pick
        container split for its lower I/O.
        """
        from repro.engine.plan import AggregateNode, JoinNode, ScanNode, walk

        # The probe session is laid out without the options being decided.
        for name in ("crunch", "nodes_per_shard", "pushdown"):
            session_options.pop(name, None)
        with self.create_session(**session_options) as probe:
            plan = query_path.prepare(statement, probe).plan
        if plan is None:
            return "container"  # a monitor read: one node, nothing to split
        for node in walk(plan.root):
            if isinstance(node, JoinNode) and node.locality == "local":
                if not (isinstance(node.right, ScanNode) and node.right.replicated):
                    return "hash"
            if isinstance(node, AggregateNode) and node.strategy == "one_phase":
                if not plan.single_node:
                    return "hash"
        return "container"

    # -- writer selection for loads -------------------------------------------------------------

    def writer_for_shard(self, shard_id: int) -> str:
        """Round-robin over a shard's up ACTIVE subscribers.

        Each shard rotates independently so concurrent statements spread
        writers instead of piling onto one node.
        """
        candidates = self.active_up_subscribers(shard_id)
        if not candidates:
            raise ShardCoverageLost(f"no up ACTIVE subscriber for shard {shard_id}")
        counter = self._writer_counters.setdefault(shard_id, itertools.count())
        return candidates[next(counter) % len(candidates)]

    # -- subscription management -------------------------------------------------------------------

    def _current_sub_state(self, node: str, shard_id: int) -> Optional[SubscriptionState]:
        state = self.any_up_node().catalog.state
        value = state.subscriptions.get((node, shard_id))
        return SubscriptionState(value) if value is not None else None

    def _commit_sub_state(self, node: str, shard_id: int, target: SubscriptionState) -> None:
        validate_transition(self._current_sub_state(node, shard_id), target)
        txn = self.begin()
        txn.add_op(op_set_subscription(node, shard_id, target.value))
        self.commit(txn)

    def subscribe(
        self, node_name: str, shard_id: int, warm_cache: bool = True
    ) -> Optional[WarmingReport]:
        """The subscription process of section 3.3 / Figure 4."""
        node = self.nodes[node_name]
        node.ensure_up()
        self._commit_sub_state(node_name, shard_id, SubscriptionState.PENDING)
        # Metadata transfer: in-process nodes share the commit stream, so a
        # node's catalog already holds global objects; shard-filtered ops it
        # skipped must be backfilled from a peer's catalog.
        self._backfill_shard_metadata(node, shard_id)
        self._commit_sub_state(node_name, shard_id, SubscriptionState.PASSIVE)
        report = None
        if warm_cache:
            report = self._warm_cache_from_peer(node, shard_id)
        self._commit_sub_state(node_name, shard_id, SubscriptionState.ACTIVE)
        # The backfill edited catalog state without log records, so a
        # restart's log replay cannot reproduce it.  Checkpointing now pins
        # the post-backfill state as the recovery base, keeping replay's
        # shard filter consistent with the log span it covers.
        node.catalog.write_checkpoint()
        return report

    def _full_metadata_rebuild(self, node: Node) -> None:
        """Rebuild a node's whole catalog from peers (instance loss or a
        history gap): global objects from any peer, then each subscribed
        shard's storage metadata from that shard's subscribers."""
        # ``recover_node`` has already restarted ``node`` (state UP), so
        # "any up node" could be the very node whose catalog is empty.
        peer = next((n for n in self.up_nodes() if n is not node), None)
        if peer is None:
            raise QuorumLost(f"no up peer to rebuild {node.name}'s catalog from")
        rebuilt = peer.catalog.state.copy()
        shards = node.catalog.subscribed_shards or set()
        for sid, container in list(rebuilt.containers.items()):
            if container.shard_id not in shards:
                del rebuilt.containers[sid]
        for sid, dv in list(rebuilt.delete_vectors.items()):
            if dv.shard_id not in shards:
                del rebuilt.delete_vectors[sid]
        node.catalog.state = rebuilt
        node.catalog._recent = {rebuilt.version: rebuilt}
        from repro.catalog.occ import ObjectVersions

        versions = ObjectVersions()
        versions._versions = dict(peer.catalog.versions._versions)
        node.catalog.versions = versions
        for shard_id in shards:
            self._backfill_shard_metadata(node, shard_id)
        node.catalog.write_checkpoint()

    def _backfill_shard_metadata(self, node: Node, shard_id: int) -> None:
        """Copy a shard's storage metadata from an existing subscriber."""
        peers = [
            self.nodes[n]
            for n in self.up_subscribers(shard_id)
            if n != node.name and self.nodes[n].is_up
        ]
        if not peers:
            return
        source = peers[0].catalog.state
        target_state = node.catalog.state.copy()
        changed = False
        for sid, container in source.containers.items():
            if container.shard_id == shard_id and sid not in target_state.containers:
                target_state.containers[sid] = container
                changed = True
        for sid, dv in source.delete_vectors.items():
            if dv.shard_id == shard_id and sid not in target_state.delete_vectors:
                target_state.delete_vectors[sid] = dv
                changed = True
        if changed:
            node.catalog.state = target_state
            node.catalog._recent[target_state.version] = target_state

    def _warm_cache_from_peer(self, node: Node, shard_id: int) -> Optional[WarmingReport]:
        """Pick a warming peer (same subcluster first — section 5.2)."""
        peers = [
            n
            for n in self.active_up_subscribers(shard_id)
            if n != node.name
        ]
        if not peers:
            return None
        same_subcluster = [
            p for p in peers if self.nodes[p].subcluster == node.subcluster
        ]
        peer = self.nodes[(same_subcluster or peers)[0]]
        report = warm_from_peer(
            node.cache, peer.cache, self.shared_data, shard_id=shard_id
        )
        if self.obs.enabled and report is not None:
            self.obs.tracer.record(
                "depot_warming",
                node=node.name,
                peer=peer.name,
                shard=shard_id,
                copied_from_peer=report.copied_from_peer,
                fetched_from_shared=report.fetched_from_shared,
                bytes_transferred=report.bytes_transferred,
            )
            self.obs.metrics.counter("depot.warming_bytes", node=node.name).inc(
                report.bytes_transferred
            )
        return report

    def unsubscribe(self, node_name: str, shard_id: int) -> None:
        """The unsubscription process of section 3.3: REMOVING, wait for
        coverage, drop metadata + cache, drop the subscription."""
        self._commit_sub_state(node_name, shard_id, SubscriptionState.REMOVING)
        others = [
            n for n in self.active_up_subscribers(shard_id) if n != node_name
        ]
        if not others:
            # Cannot drop: the shard would lose fault tolerance.  Back out.
            self._commit_sub_state(node_name, shard_id, SubscriptionState.ACTIVE)
            raise ShardCoverageLost(
                f"cannot unsubscribe {node_name} from shard {shard_id}: "
                "no other ACTIVE subscriber"
            )
        self._drop_subscription(node_name, shard_id)

    def _drop_subscription(self, node_name: str, shard_id: int) -> None:
        """Complete a removal: drop cached files, commit the drop, trim the
        node's copy of the shard's metadata, checkpoint.  Shared by
        ``unsubscribe`` and by recovery of a node that died mid-unsubscribe
        (its REMOVING subscription is finished here, since REMOVING ->
        PENDING is not a legal Figure-4 transition)."""
        node = self.nodes[node_name]
        state = node.catalog.state
        for sid, container in list(state.containers.items()):
            if container.shard_id == shard_id:
                node.cache.drop(sid)
        txn = self.begin()
        txn.add_op(op_drop_subscription(node_name, shard_id))
        self.commit(txn)
        # Shard filter refresh in _after_commit trims future metadata; the
        # node also forgets the shard's existing storage objects.
        trimmed = node.catalog.state.copy()
        for sid, container in list(trimmed.containers.items()):
            if container.shard_id == shard_id:
                del trimmed.containers[sid]
        for sid, dv in list(trimmed.delete_vectors.items()):
            if dv.shard_id == shard_id:
                del trimmed.delete_vectors[sid]
        node.catalog.state = trimmed
        node.catalog._recent[trimmed.version] = trimmed
        # As in subscribe(): the trim is surgery the log never saw, so a
        # later restart must recover from a post-trim checkpoint.
        node.catalog.write_checkpoint()

    # -- failure & recovery -------------------------------------------------------------------------

    def kill_node(self, name: str, lose_local_disk: bool = False) -> None:
        self.nodes[name].go_down(lose_local_disk=lose_local_disk)
        self.check_viability()

    def recover_node(self, name: str, warm_cache: bool = True) -> Dict[int, Optional[WarmingReport]]:
        """Node recovery (section 6.1): restart, catch up metadata, force
        re-subscription, incremental cache warm, serve again."""
        node = self.nodes[name]
        if node.is_up:
            raise ClusterError(f"node {name} is already up")
        node.restart()
        # Metadata catch-up: replay the commits this node missed (the
        # incremental shard diff of section 6.1).  If the history no longer
        # reaches back far enough (e.g. the cluster revived into a new
        # incarnation while the node was down), rebuild from a peer.
        missed = self.coordinator.records_after(node.catalog.state.version)
        if missed and missed[0].version != node.catalog.state.version + 1:
            self._full_metadata_rebuild(node)
        elif not missed and node.catalog.state.version != self.version:
            self._full_metadata_rebuild(node)
        else:
            for record in missed:
                node.catalog.apply_commit(record)
        node.state = NodeState.UP
        # Forced re-subscription: ACTIVE -> PENDING -> PASSIVE -> (warm) -> ACTIVE.
        state = self.any_up_node().catalog.state
        sub_states = {
            shard: SubscriptionState(st)
            for (n, shard), st in state.subscriptions.items()
            if n == name
        }
        reports: Dict[int, Optional[WarmingReport]] = {}
        for shard_id in sorted(sub_states):
            current = sub_states[shard_id]
            if current is SubscriptionState.REMOVING:
                # The node died mid-unsubscribe.  REMOVING -> PENDING is
                # not a legal Figure-4 transition: when the shard is
                # covered without this node, finish what the unsubscribe
                # started; otherwise abandon the removal (REMOVING ->
                # ACTIVE) and re-subscribe normally.
                if [
                    n
                    for n in self.active_up_subscribers(shard_id)
                    if n != name
                ]:
                    self._drop_subscription(name, shard_id)
                    continue
                self._commit_sub_state(name, shard_id, SubscriptionState.ACTIVE)
                current = SubscriptionState.ACTIVE
            if current is SubscriptionState.PENDING:
                # Crashed mid-subscribe: the metadata transfer may never
                # have happened, so backfill before going PASSIVE.
                self._backfill_shard_metadata(node, shard_id)
            else:
                self._commit_sub_state(name, shard_id, SubscriptionState.PENDING)
            self._commit_sub_state(name, shard_id, SubscriptionState.PASSIVE)
            reports[shard_id] = (
                self._warm_cache_from_peer(node, shard_id) if warm_cache else None
            )
            self._commit_sub_state(name, shard_id, SubscriptionState.ACTIVE)
        return reports

    def rebalance_subscriptions(self, warm_cache: bool = True) -> RebalanceReport:
        """One pass of the subscription rebalancer (section 6.4): promote
        or subscribe spare nodes until every shard has its configured
        number of up ACTIVE subscribers.  Also run periodically by
        :class:`~repro.cluster.services.ServiceScheduler`."""
        return SubscriptionRebalancer(self, warm_cache=warm_cache).run()

    # -- elasticity -----------------------------------------------------------------------------------

    def add_node(
        self,
        name: str,
        shards: Optional[Sequence[int]] = None,
        warm_cache: bool = True,
        cache_bytes: Optional[int] = None,
        subcluster: Optional[str] = None,
    ) -> Node:
        """Add a node and subscribe it to ``shards`` (default: balanced).

        "Nodes can easily be added to the system by adjusting the mapping
        ... no expensive redistribution mechanism over all records is
        required" (section 6.4)."""
        if name in self.nodes:
            raise ClusterError(f"node {name} already exists")
        node = Node(
            name,
            cache_bytes=cache_bytes or next(iter(self.nodes.values())).cache_bytes,
            execution_slots=next(iter(self.nodes.values())).execution_slots,
            subcluster=subcluster,
            rng=random.Random(self.rng.getrandbits(64)),
        )
        # Catch the new node up on the commit stream; it subscribes to
        # nothing yet, so shard-scoped metadata is filtered out.  After a
        # revive or truncation the retained history no longer reaches back
        # to version 1, so replaying from an empty catalog is impossible —
        # seed the catalog from a peer instead (same path recovery uses
        # when a node's gap outlives the history).
        node.catalog.subscribed_shards = set()
        history = self.coordinator.log_history
        if history and history[0].version == 1:
            for record in history:
                node.catalog.apply_commit(record, persist=False)
        elif self.version:
            # Empty-but-truncated history (fresh revive) lands here too:
            # the cluster is at base_version with nothing to replay.
            self._full_metadata_rebuild(node)
        self.nodes[name] = node
        self._attach_depot_sink(node)
        if subcluster:
            self.subclusters.setdefault(subcluster, set()).add(name)
        if shards is None:
            shards = self._balanced_shards_for_new_node()
        for shard_id in shards:
            self.subscribe(name, shard_id, warm_cache=warm_cache)
        self.subscribe(name, REPLICA_SHARD_ID, warm_cache=False)
        return node

    def _balanced_shards_for_new_node(self) -> List[int]:
        """Give the new node the shards with the fewest subscribers."""
        counts = {
            shard: len(self.active_up_subscribers(shard))
            for shard in self.shard_map.shard_ids()
        }
        target = max(1, self.shard_map.count * self.subscribers_per_shard // (len(self.nodes)))
        return sorted(counts, key=lambda s: (counts[s], s))[:target]

    def remove_node(self, name: str) -> None:
        """Gracefully remove a node: unsubscribe everywhere, then drop it."""
        state = self.any_up_node().catalog.state
        shards = sorted(
            shard for (n, shard), _ in state.subscriptions.items() if n == name
        )
        for shard_id in shards:
            self.unsubscribe(name, shard_id)
        self.nodes.pop(name)
        for members in self.subclusters.values():
            members.discard(name)

    # -- subclusters ------------------------------------------------------------------------------------

    def define_subcluster(self, name: str, node_names: Sequence[str]) -> None:
        """Designate a subcluster and rebalance subscriptions so every
        shard has a subscriber inside it (section 4.3)."""
        members = set(node_names)
        unknown = members - set(self.nodes)
        if unknown:
            raise ClusterError(f"unknown nodes {sorted(unknown)}")
        self.subclusters[name] = members
        for node_name in members:
            self.nodes[node_name].subcluster = name
        for shard_id in self.shard_map.shard_ids():
            inside = set(self.active_up_subscribers(shard_id)) & members
            if inside:
                continue
            # Subscribe the member with the fewest subscriptions.
            state = self.any_up_node().catalog.state
            load = {
                m: sum(1 for (n, _s), _ in state.subscriptions.items() if n == m)
                for m in members
            }
            chosen = min(sorted(members), key=lambda m: load[m])
            self.subscribe(chosen, shard_id)

    # -- catalog sync / truncation / cluster_info (revive support) ----------------------------------------

    def shared_meta_store(self, node_name: str, incarnation: Optional[str] = None) -> LogStore:
        incarnation = incarnation or self.incarnation
        return LogStore(
            RetryingFilesystem(
                PrefixView(self.shared, f"meta_{incarnation}_{node_name}_")
            )
        )

    def sync_catalogs(self, include_checkpoint: bool = True) -> Dict[str, Tuple[int, int]]:
        """Upload each up node's logs/checkpoints; returns sync intervals."""
        intervals = {}
        for node in self.up_nodes():
            store = self.shared_meta_store(node.name)
            intervals[node.name] = node.catalog.sync_to(
                store, include_checkpoint=include_checkpoint
            )
        return intervals

    def compute_truncation_version(self) -> int:
        """Consensus truncation version (section 3.5, Figure 5): the
        highest version every shard can be revived to from some
        subscriber's uploaded metadata."""
        from repro.catalog.catalog import revivable_interval

        state = self.any_up_node().catalog.state
        intervals: Dict[str, Tuple[int, int]] = {}
        for name in self.nodes:
            intervals[name] = revivable_interval(self.shared_meta_store(name))
        candidates = sorted({high for (_low, high) in intervals.values()}, reverse=True)
        shard_subscribers: Dict[int, List[str]] = {}
        for (node, shard), st in state.subscriptions.items():
            if st == SubscriptionState.ACTIVE.value:
                shard_subscribers.setdefault(shard, []).append(node)
        for candidate in candidates:
            ok = True
            for shard_id in self.shard_map.all_shard_ids():
                subs = shard_subscribers.get(shard_id, [])
                if not any(
                    intervals[n][0] <= candidate <= intervals[n][1]
                    for n in subs
                    if n in intervals
                ):
                    ok = False
                    break
            if ok:
                self.last_truncation_version = candidate
                # Protect the reconstruction material from log pruning.
                for node in self.nodes.values():
                    node.catalog.truncation_floor = candidate
                return candidate
        return 0

    def write_cluster_info(self, lease_seconds: float = 300.0) -> str:
        """Persist cluster_info.json (sequenced names; S3 objects are
        immutable in this simulation, so each write gets a fresh name and
        readers take the newest — the commit-point semantics of section
        3.5 are preserved because the *latest* file wins)."""
        truncation = self.compute_truncation_version()
        doc = {
            "truncation_version": truncation,
            "incarnation": self.incarnation,
            "timestamp": self.clock.now,
            "lease_expiry": self.clock.now + lease_seconds,
            "nodes": sorted(self.nodes),
            "shard_count": self.shard_map.count,
            "subscribers_per_shard": self.subscribers_per_shard,
        }
        existing = retrying(
            lambda: self.shared.list("cluster_info_"), self.shared.metrics
        )
        next_seq = 1
        if existing:
            last = existing[-1][len("cluster_info_"):].split(".")[0]
            next_seq = int(last) + 1
        name = f"cluster_info_{next_seq:012d}.json"
        retrying(
            lambda: self.shared.write(name, json.dumps(doc).encode("utf-8")),
            self.shared.metrics,
        )
        return name

    def refresh_from_shared(self) -> int:
        """Sharing-cluster catch-up: apply the primary's newly uploaded
        commits from shared storage.  Returns commits applied.

        The sharing cluster lags the primary by at most the primary's
        catalog-sync interval — the same freshness bound a revive gets.
        """
        if not self.read_only or self._source_incarnation is None:
            raise ClusterError("refresh_from_shared is for read-only sharing clusters")
        applied = 0
        for name, node in self.nodes.items():
            store = self.shared_meta_store(name, incarnation=self._source_incarnation)
            for version in store.log_versions():
                if version == node.catalog.state.version + 1:
                    node.catalog.apply_commit(store.read_record(version), persist=False)
                    applied += 1
        # Keep the coordinator's version in step for session bookkeeping.
        self.coordinator.base_version = max(
            node.catalog.state.version for node in self.nodes.values()
        )
        self._refresh_shard_filters()
        return applied

    def graceful_shutdown(self) -> None:
        """Upload any remaining logs so shared storage has a complete
        record, then stop (section 3.5)."""
        self.sync_catalogs(include_checkpoint=True)
        self.write_cluster_info(lease_seconds=0.0)
        for node in self.up_nodes():
            node.state = NodeState.DOWN
        self.shut_down = True
