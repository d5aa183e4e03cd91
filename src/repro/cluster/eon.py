"""The Eon-mode cluster: sharded metadata on shared storage.

This class wires every mechanism in the paper together, and keeps the
bootstrap layout (section 3.1), viability and degraded mode (section 3.4),
the commit (sections 3.2, 6.5), session layout with max-flow selection,
subclusters, racks and crunch scaling (section 4), and COPY.  The rest is
bound from the modules that hold the cluster by reference:

* ``cluster/ddl.py`` — DDL and the SQL front door (sections 2.1, 6.3);
* ``cluster/lifecycle.py`` — node failure, recovery, adding and removing
  nodes, subclusters (sections 4.3, 6.1, 6.4);
* ``cluster/subscriptions.py`` — the Figure-4 walks (section 3.3);
* ``cluster/durability.py`` — catalog sync, truncation version,
  cluster_info (section 3.5); ``cluster/revive.py`` revives from it;
* ``cluster/query_path.py`` — every SELECT (section 4);
* ``load/flattened.py``, ``load/partitions.py`` — flattened-table refresh
  and metadata-only partition operations (sections 2.1, 4.5).
"""

from __future__ import annotations

import itertools
import random
from typing import Dict, List, Optional, Sequence, Set

from repro.catalog.mvcc import op_set_subscription
from repro.cluster import ddl, durability, lifecycle, query_path, subscriptions
from repro.cluster.node import Node, has_quorum
from repro.cluster.reaper import FileReaper
from repro.cluster.session import EonSession
from repro.cluster.transactions import CommitCoordinator, Transaction
from repro.common.clock import SimClock
from repro.engine.cost import CostModel
from repro.engine.executor import QueryResult, check_query_options
from repro.engine.pipeline import EngineStats
from repro.errors import (
    ClusterError,
    ExecutionError,
    NodeDown,
    QuorumLost,
    ShardCoverageLost,
    StorageUnavailable,
    UnsupportedSharedStorage,
)
from repro.io.scheduler import IOScheduler
from repro.load import flattened, partitions
from repro.load.copy import copy_into
from repro.obs import Observability
from repro.recovery.failover import RecoveryStats
from repro.sharding.assignment import select_participating_subscriptions
from repro.sharding.shard import REPLICA_SHARD_ID, ShardMap
from repro.sharding.subscription import SubscriptionState, holders
from repro.shared_storage.api import PrefixView
from repro.shared_storage.s3 import SimulatedS3
from repro.storage.container import RowSet
from repro.wm.admission import AdmissionController


#: What ``query``/``query_statement`` accept per query: the session layout
#: (``create_session``'s parameters) and the one engine option.
QUERY_OPTIONS = (
    "initiator", "subcluster", "crunch", "nodes_per_shard", "use_cache", "seed",
    "pushdown",
)


class EonCluster:
    """An Eon-mode database over shared storage."""

    def __init__(
        self,
        node_names: Sequence[str],
        shard_count: int,
        shared_storage: Optional[SimulatedS3] = None,
        subscribers_per_shard: int = 2,
        cache_bytes: int = 256 << 20,
        execution_slots: int = 4,
        seed: int = 0,
        clock: Optional[SimClock] = None,
        racks: Optional[Dict[str, str]] = None,
        observability: Optional[Observability] = None,
        _bootstrap: bool = True,
    ):
        if not node_names:
            raise ValueError("cluster needs at least one node")
        if shared_storage is not None and not isinstance(shared_storage, SimulatedS3):
            raise UnsupportedSharedStorage(
                f"shared storage must be a SimulatedS3, not {type(shared_storage).__name__}"
            )
        self.rng = random.Random(seed)
        self.clock = clock or SimClock()
        self.cost_model = CostModel()
        #: Observability is off by default — instrumented paths then cost a
        #: single attribute check (the no-op registry/tracer).
        self.obs = observability or Observability(clock=self.clock, enabled=False)
        self.shard_map = ShardMap(shard_count)
        self.shared = shared_storage or SimulatedS3()
        self.shared_data = PrefixView(self.shared, "data_")
        self.incarnation = f"{self.rng.getrandbits(128):032x}"
        self.subscribers_per_shard = min(subscribers_per_shard, len(node_names))
        racks = racks or {}
        self.nodes: Dict[str, Node] = {
            name: self._new_node(name, cache_bytes, execution_slots, rack=racks.get(name))
            for name in node_names
        }
        #: The depot I/O scheduler every scan fetches its files through.
        self.io_scheduler = IOScheduler(self)
        self.engine_stats = EngineStats()
        self.plan_cache = query_path.PlanCache()
        self.coordinator = CommitCoordinator(self)
        self.reaper = FileReaper(self)
        self.subclusters: Dict[str, Set[str]] = {}
        self.last_truncation_version = 0
        self._session_counter = itertools.count()
        self._writer_counters: Dict[int, "itertools.count[int]"] = {}
        self.shut_down = False
        #: True for a sharing cluster attached read-only to another
        #: database's shared storage (section 10).
        self.read_only = False
        self._source_incarnation: Optional[str] = None
        #: Failovers and degraded-mode entries/exits (the pairing
        #: invariant's observables).
        self.recovery_stats = RecoveryStats()
        #: Workload manager: per-node execution-slot admission control
        #: (repro.wm).  Every SELECT holds its slot demand for the length
        #: of its execution; concurrent drivers queue on the clock.
        self.admission = AdmissionController(self)
        #: Degraded read-only mode: entered while shared storage is in a
        #: sustained outage window, exited when the window lapses.
        self.degraded = False
        #: Set by ServiceScheduler.__init__ so v_monitor can reach service
        #: stats without the cluster owning a scheduler.
        self.service_scheduler = None
        #: DesignerRun records appended by DatabaseDesigner.apply(), read
        #: back through v_monitor.designer_runs.
        self.designer_runs: List = []
        # Outage windows are clock-driven; bind the cluster clock to the
        # store's fault injector.
        self.shared.faults.bind_clock(self.clock)
        self.shared.faults.bind_recorder(self._record_fault_event)
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
            self.obs.dc.record("dc_fault_injections", "", (operation, kind, ""))

    def _new_node(
        self, name: str, cache_bytes: int, execution_slots: int,
        rack: Optional[str] = None, subcluster: Optional[str] = None,
    ) -> Node:
        """A node seeded by one draw from the cluster's RNG, its depot wired
        to ``dc_depot_events``.  The sink closes over the node *name* and
        reads ``self.obs`` lazily, so it survives ``enable_observability``
        swaps and cache rebuilds alike."""
        node = Node(
            name, cache_bytes=cache_bytes, execution_slots=execution_slots,
            subcluster=subcluster, rack=rack, rng=random.Random(self.rng.getrandbits(64)),
        )

        def sink(event: str, obj: str, size: int) -> None:
            if self.obs.enabled:
                self.obs.dc.record("dc_depot_events", name, (event, obj, int(size)))

        node.cache.event_sink = sink
        return node

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
                    txn.add_op(op_set_subscription(*key, SubscriptionState.ACTIVE.value))
        for node in names:
            txn.add_op(op_set_subscription(node, REPLICA_SHARD_ID, SubscriptionState.ACTIVE.value))
        self.commit(txn)
        subscriptions.refresh_shard_filters(self)

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

    def active_up_subscribers(self, shard_id: int) -> List[str]:
        active = holders(subscriptions.current(self), shard_id, [SubscriptionState.ACTIVE])
        return [n for n in active if self.nodes[n].is_up]

    # -- invariant accessors (simulation-test hook points) -------------------------

    def uncovered_shards(self) -> List[int]:
        """Shards with no up ACTIVE subscriber.

        The global invariant (section 3.4) is that this list is empty
        whenever the cluster is accepting work; a non-empty list is only
        legitimate once the cluster has shut itself down.
        """
        return subscriptions.uncovered_without(self)

    def all_catalog_sids(self) -> Set[str]:
        """Every storage name referenced by any up node's catalog, states
        still pinned by running queries included — a file is only
        dereferenced once *no* reachable catalog state mentions it."""
        sids: Set[str] = set()
        for node in self.up_nodes():
            sids |= node.catalog.state.storage_sids()
            for state in node.catalog.pinned_states():
                sids |= state.storage_sids()
        return sids

    def running_instance_prefixes(self) -> List[str]:
        """SID name prefixes of every live node instance.

        A shared-storage object carrying one of these prefixes may be an
        in-flight upload (written, not yet committed), so the reaper's
        leaked-file sweep must not touch it (section 6.5).
        """
        return [node.sid_factory.next_sid(local_oid=0).prefix for node in self.up_nodes()]

    def check_viability(self) -> None:
        """Cluster invariants (section 3.4): quorum plus shard coverage.

        On violation the cluster shuts down "to avoid divergence or wrong
        answers"."""
        up = len(self.up_nodes())
        if not has_quorum(up, len(self.nodes)):
            self.shut_down = True
            raise QuorumLost(f"only {up} of {len(self.nodes)} nodes up; quorum lost")
        lost = self.uncovered_shards()
        if lost:
            self.shut_down = True
            raise ShardCoverageLost(f"shard {lost[0]} has no up ACTIVE subscriber")

    # -- degraded mode (sustained shared-storage outage) ---------------------------

    def refresh_degraded(self) -> bool:
        """Fold the shared-storage outage flag into cluster state.

        Entry and exit are deterministic — purely a function of the sim
        clock against the declared outage window, never of RNG state or
        poll ordering — and always paired: the flag cannot flip the same
        way twice in a row, so ``recovery_stats.degraded_entries`` and
        ``degraded_exits`` differ by at most one (the pairing invariant the
        sim checks).

        While degraded the cluster is read-only over depot-resident data:
        commits and loads fail fast with :class:`StorageUnavailable`, and
        the maintenance services pause instead of burning error counters.
        """
        outage = self.shared.outage_active
        if outage and not self.degraded:
            self.degraded = True
            self.recovery_stats.degraded_entries += 1
            if self.obs.enabled:
                self.obs.tracer.record("degraded.enter", t=self.clock.now)
        elif not outage and self.degraded:
            self.degraded = False
            self.recovery_stats.degraded_exits += 1
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
        if any(op["op"] in ("set_subscription", "drop_subscription") for op in txn.ops):
            subscriptions.refresh_shard_filters(self)

    # -- DDL and the SQL front door: cluster/ddl.py ----------------------------------------

    create_table = ddl.create_table
    create_projection = ddl.create_projection
    drop_projections = ddl.drop_projections
    create_live_aggregate = ddl.create_live_aggregate
    create_user = ddl.create_user
    add_column = ddl.add_column
    execute = ddl.execute

    def load(self, table: str, rows, use_cache: bool = True):
        """Programmatic COPY: ``rows`` is a RowSet or list of tuples."""
        if not isinstance(rows, RowSet):
            table_obj = self.any_up_node().catalog.state.table(table)
            schema = table_obj.schema
            rows = list(rows)
            if table_obj.flattened and rows and len(rows[0]) == len(table_obj.base_columns):
                schema = schema.subset(table_obj.base_columns)
            rows = RowSet.from_rows(schema, rows)
        return copy_into(self, table, rows, use_cache=use_cache)

    refresh_flattened = flattened.refresh_flattened
    drop_partition = partitions.drop_partition
    move_partition = partitions.move_partition

    # -- sessions & queries ------------------------------------------------------------------

    def create_session(
        self,
        initiator: Optional[str] = None,
        subcluster: Optional[str] = None,
        crunch: Optional[str] = None,
        nodes_per_shard: int = 1,
        use_cache: bool = True,
        seed: Optional[int] = None,
    ) -> EonSession:
        """Select participating subscriptions for a new session.

        ``crunch`` ("hash" or "container") with ``nodes_per_shard`` > 1
        spreads each shard over several nodes (section 4.4).
        """
        if crunch not in (None, "hash", "container"):
            raise ExecutionError(f"crunch must be hash|container, got {crunch!r}")
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
            members = {n for n in self.subclusters.get(subcluster, set()) if self.nodes[n].is_up}
            if members:
                priority_tiers = [members]
        elif self.nodes[initiator].rack is not None:
            # Rack-aware layout (section 4.1): "the starting graph includes
            # only nodes on the same physical rack, encouraging an
            # assignment that avoids sending network data across
            # bandwidth-constrained links."  Lower tiers join only if the
            # rack cannot cover every shard.
            rack = self.nodes[initiator].rack
            same_rack = {n.name for n in self.up_nodes() if n.rack == rack}
            if same_rack:
                priority_tiers = [same_rack]
        assignment = select_participating_subscriptions(
            self.shard_map.shard_ids(), up_active, priority_tiers, seed=seed
        )
        sharing: Dict[int, List[str]] = {}
        if crunch is not None and nodes_per_shard > 1:
            for shard, primary in assignment.items():
                extras = [n for n in up_active[shard] if n != primary][: nodes_per_shard - 1]
                sharing[shard] = [primary] + extras
        else:
            sharing = {shard: [node] for shard, node in assignment.items()}
        needed = {n for nodes in sharing.values() for n in nodes} | {initiator}
        snapshots = {name: self.nodes[name].catalog.snapshot() for name in needed}
        return EonSession(
            cluster=self, initiator=initiator, assignment=assignment, sharing=sharing,
            crunch=crunch, snapshots=snapshots, use_cache=use_cache, seed=seed,
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
        **session_options,
    ) -> QueryResult:
        """One SELECT through the shared query path (``query_path.run``)."""
        check_query_options(session_options, QUERY_OPTIONS)
        return query_path.run(
            self, statement, session, request_text, failover, options=session_options
        )

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

    # -- subscriptions: the Figure-4 walks live in cluster/subscriptions.py ---------------------

    subscribe = subscriptions.subscribe
    unsubscribe = subscriptions.retire
    rebalance_subscriptions = subscriptions.rebalance_subscriptions

    # -- node lifecycle: cluster/lifecycle.py --------------------------------------------------

    kill_node = lifecycle.kill_node
    recover_node = lifecycle.recover_node
    add_node = lifecycle.add_node
    remove_node = lifecycle.remove_node
    define_subcluster = lifecycle.define_subcluster

    # -- catalog durability: cluster/durability.py ---------------------------------------------

    shared_meta_store = durability.shared_meta_store
    sync_catalogs = durability.sync_catalogs
    compute_truncation_version = durability.compute_truncation_version
    write_cluster_info = durability.write_cluster_info
    refresh_from_shared = durability.refresh_from_shared
    graceful_shutdown = durability.graceful_shutdown
