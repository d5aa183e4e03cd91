"""Enterprise mode: the shared-nothing baseline (sections 2, 6.1).

Contrasts with Eon everywhere the paper does:

* data lives on node-local disks (modelled as EBS-class volumes — slower
  than instance storage — because Enterprise data must survive instance
  loss, exactly the configuration of the Figure 10 experiment);
* fault tolerance comes from *buddy projections*: each segmented
  projection has a twin whose hash regions map to the next node on the
  logical ring, so when a node is down the optimizer sources the missing
  region from its buddy;
* small loads buffer in the WOS and reach the ROS via moveout;
* a recovering node must *repair*: rebuild its containers from buddies
  with a logical data transfer proportional to its entire data set —
  versus Eon's byte-level cache warm proportional to the working set.
"""

from __future__ import annotations

import itertools
import random
from collections import Counter
from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence, Tuple

from repro.catalog.catalog import Catalog, CatalogSnapshot
from repro.catalog.mvcc import op_create_projection, op_create_table, op_drop_container, op_drop_projection
from repro.catalog.objects import Projection, Segmentation, Table
from repro.catalog.transaction_log import LogRecord
from repro.cluster import ddl, query_path
from repro.cluster.node import Node, NodeState, has_quorum, member
from repro.cluster.transactions import Transaction
from repro.common.clock import SimClock
from repro.common.types import ColumnType
from repro.engine.cost import CostModel
from repro.engine.executor import (
    QueryResult,
    ScanResult,
    StorageProvider,
    check_query_options,
)
from repro.engine.pipeline import EngineStats, PipelineCharges
from repro.engine.expressions import Expr
from repro.engine.pruning import prune_containers
from repro.errors import (
    CatalogError,
    ClusterError,
    QuorumLost,
    ShardCoverageLost,
)
from repro.load.copy import (
    LocalDiskSink, checked_input, split, streams, write_partitions, write_stream,
)
from repro.obs import Observability
from repro.recovery import RecoveryStats
from repro.sharding.shard import REPLICA_SHARD_ID, ShardMap
from repro.shared_storage.posix import MemoryFilesystem
from repro.storage.container import ROSContainer, RowSet, read_container
from repro.storage.wos import WOS
from repro.tuple_mover.mergeout import STRATA_BASE_BYTES, STRATA_WIDTH, merge_job
from repro.tuple_mover.mergeout import select_mergeout_candidates
from repro.wm.admission import AdmissionController

#: EBS-class volume throughput (bytes/simulated second) for Enterprise
#: node storage; Eon caches sit on faster instance storage.
EBS_READ_BANDWIDTH = 130e6
EBS_WRITE_BANDWIDTH = 110e6

#: Rows a node's WOS buffers before a load triggers its moveout.
WOS_CAPACITY_ROWS = 100_000
#: A COPY of at least this many rows goes DIRECT to the ROS unless the
#: caller says (``load(direct=)``); a smaller one buffers in the WOS.
DIRECT_LOAD_ROWS = 10_000


#: What ``query``/``query_statement`` accept per query: the session layout
#: (``create_session``'s parameters).  Enterprise has no shared storage to
#: push a scan down to, so it takes no engine option.
QUERY_OPTIONS = ("seed",)


@dataclass
class EnterpriseSession:
    """Region-to-node serving map for one query over one pinned state of
    the global catalog; ``state``..``release`` are ``query_path``'s seam."""

    cluster: "EnterpriseCluster"
    region_server: Dict[int, str]  # region -> node serving it
    initiator: str
    snapshot: CatalogSnapshot

    def regions_of(self, node: str) -> List[int]:
        return [r for r, n in self.region_server.items() if n == node]

    @property
    def state(self):
        return self.snapshot.state

    def provider(self) -> "EnterpriseStorageProvider":
        return EnterpriseStorageProvider(self)

    def slot_demand(self, plan) -> Dict[str, int]:
        """One slot per region served, on every up node, whatever the plan:
        every node takes part in every query, which is exactly why
        Enterprise concurrency does not scale out (the paper's penalty)."""
        demand = dict(Counter(self.region_server.values()))
        demand.setdefault(self.initiator, 1)
        return demand

    def release(self) -> None:
        self.snapshot.release()


class EnterpriseCluster:
    """Shared-nothing Vertica with buddy projections."""

    def __init__(
        self,
        node_names: Sequence[str],
        execution_slots: int = 4,
        seed: int = 0,
        clock: Optional[SimClock] = None,
    ):
        if len(node_names) < 1:
            raise ValueError("cluster needs at least one node")
        self.rng = random.Random(seed)
        self.clock = clock or SimClock()
        self.cost_model = CostModel()
        #: In Enterprise the "shard map" is the fixed node-region layout.
        self.shard_map = ShardMap(len(node_names))
        self.node_order: List[str] = []
        self.nodes: Dict[str, Node] = {}
        for name in node_names:
            self._join(name, execution_slots)
        self.catalog = Catalog(MemoryFilesystem())
        #: sid -> owning node (each file owned by exactly one node).
        self.container_owner: Dict[str, str] = {}
        self._version = itertools.count(1)
        self._session_counter = itertools.count()
        self.shut_down = False
        #: Workload manager (repro.wm): Enterprise has no subclusters, so
        #: every node lands in the shared ``general`` pool — and every
        #: query takes a slot on every node, the paper's scaling penalty.
        self.admission = AdmissionController(self)
        self.engine_stats = EngineStats()
        self.plan_cache = query_path.PlanCache()
        self.obs = Observability(clock=self.clock, enabled=False)
        self.recovery_stats = RecoveryStats()

    def enable_observability(self) -> Observability:
        """Switch on metrics, tracing, and query profiling (idempotent)."""
        self.obs = self.obs.switched_on()
        return self.obs

    # -- membership -------------------------------------------------------------

    def _join(self, name: str, execution_slots: int) -> Node:
        """A node with an EBS-class disk and a WOS, last on the ring."""
        node = Node(
            name,
            cache_bytes=0,
            execution_slots=execution_slots,
            rng=random.Random(self.rng.getrandbits(64)),
        )
        node.local_fs.read_bandwidth = EBS_READ_BANDWIDTH
        node.local_fs.write_bandwidth = EBS_WRITE_BANDWIDTH
        node.wos = WOS(WOS_CAPACITY_ROWS)
        self.nodes[name] = node
        self.node_order.append(name)
        return node

    def up_nodes(self) -> List[Node]:
        return [n for n in self.nodes.values() if n.is_up]

    def region_of_node(self, name: str) -> int:
        return self.node_order.index(name)

    def buddy_node_of_region(self, region: int) -> str:
        """The ring is rotated by one: region r's buddy copy lives on the
        next node (section 2.2)."""
        return self.node_order[(region + 1) % len(self.node_order)]

    def uncovered_shards(self) -> List[int]:
        """Regions whose node and buddy are both down (K-safety lost)."""
        return [
            region
            for region, base in enumerate(self.node_order)
            if not self.nodes[base].is_up
            and not self.nodes[self.buddy_node_of_region(region)].is_up
        ]

    def check_viability(self) -> None:
        up = len(self.up_nodes())
        if not has_quorum(up, len(self.nodes)):
            self.shut_down = True
            raise QuorumLost(f"only {up} of {len(self.nodes)} nodes up")
        uncovered = self.uncovered_shards()
        if uncovered:
            self.shut_down = True
            raise ShardCoverageLost(
                f"region {uncovered[0]}: node and buddy both down (K-safety lost)"
            )

    # -- commits (single global catalog) -------------------------------------------

    def _commit(self, ops: List[dict]) -> int:
        record = LogRecord(version=next(self._version), ops=tuple(ops))
        self.catalog.apply_commit(record, persist=False)
        return record.version

    # -- DDL -----------------------------------------------------------------------

    def create_table(
        self,
        name: str,
        columns: Sequence[Tuple[str, ColumnType]],
        partition_by: Optional[str] = None,
        create_super: bool = True,
    ) -> int:
        table = ddl.new_table(name, columns, partition_by, ())
        ops = [op_create_table(table)]
        if create_super:
            super_proj = ddl.super_projection(table)
            ops.append(op_create_projection(super_proj))
            ops.append(op_create_projection(super_proj.make_buddy()))
        return self._commit(ops)

    def create_projection(
        self,
        name: str,
        table: str,
        columns: Sequence[str],
        sort_order: Sequence[str],
        segmentation: Segmentation,
    ) -> int:
        if ddl.has_data([self.catalog.state], table):
            raise CatalogError(f"cannot add projection to non-empty table {table!r}")
        projection = ddl.new_projection(name, table, columns, sort_order, segmentation)
        ops = [op_create_projection(projection)]
        if not segmentation.is_replicated:
            ops.append(op_create_projection(projection.make_buddy()))
        return self._commit(ops)

    def drop_projections(self, names: Sequence[str]) -> int:
        """Drop projections (and their buddies) in one commit; refuses to
        drop a table's last non-buddy projection."""
        state = self.catalog.state
        ddl.check_not_last(state, names)
        to_drop: List[str] = []
        for name in names:
            to_drop.append(name)
            for buddy in state.projections_of(state.projection(name).anchor_table):
                if buddy.is_buddy and buddy.buddy_of == name:
                    to_drop.append(buddy.name)
        return self._commit([op_drop_projection(n) for n in to_drop])

    # -- load: the shared write path, Enterprise's placement ------------------------

    def load(self, table_name: str, rows, direct: Optional[bool] = None):
        """COPY: small batches buffer in the WOS, large ones go DIRECT to
        the ROS (section 2.3).  Returns (io seconds, catalog version)."""
        state = self.catalog.state
        table = state.table(table_name)
        if not isinstance(rows, RowSet):
            rows = RowSet.from_rows(table.schema, rows)
        rows = checked_input(self, table, rows)
        if direct is None:
            direct = rows.num_rows >= DIRECT_LOAD_ROWS
        sink, txn = LocalDiskSink(self), Transaction()
        for projection, region, part in streams(self.shard_map, state, table, rows):
            self._place(table, projection, region, part, direct, sink, txn)
        version = self._commit(txn.ops) if txn.ops else state.version
        # Run moveout opportunistically when the WOS fills up.
        for node in self.up_nodes():
            if node.wos.over_capacity:
                self.moveout(node.name)
        return sink.io_seconds, version

    def _place(self, table: Table, projection: Projection, region: int, rows: RowSet,
               direct: bool, sink: LocalDiskSink, txn: Transaction) -> None:
        """Where Enterprise puts one stream: a replicated projection's on
        every node's ROS; a region's on its node and then on its buddy's
        (the next node on the ring), as ROS containers or into their WOS."""
        if region == REPLICA_SHARD_ID:
            for name in self.node_order:
                self.nodes[name].ensure_up()
                write_partitions(table, projection, region, rows, self.nodes[name], sink, txn)
            return
        base = self.nodes[self.node_order[region]]
        buddy = self.nodes[self.buddy_node_of_region(region)]
        buddy_name = projection.name + "_b1"
        base.ensure_up()
        if not direct:
            base.wos.insert(projection.name, rows)
            buddy.wos.insert(buddy_name, rows)
            return
        write_partitions(table, projection, region, rows, base, sink, txn)
        buddy.ensure_up()
        buddy_projection = self.catalog.state.projection(buddy_name)
        write_partitions(table, buddy_projection, region, rows, buddy, sink, txn)

    def _held_by(self, state, node_name: str) -> Dict[Tuple[str, int, object], List[ROSContainer]]:
        """The node's containers by (projection, region, partition key), in
        catalog order: what it merges, or loses when it goes down."""
        held: Dict[Tuple[str, int, object], List[ROSContainer]] = {}
        for c in state.containers.values():
            if self.container_owner.get(str(c.sid)) == node_name:
                held.setdefault((c.projection, c.shard_id, c.partition_key), []).append(c)
        return held

    def _rows_of(self, container: ROSContainer) -> RowSet:
        owner = self.nodes[self.container_owner[str(container.sid)]]
        return read_container(owner.local_fs.read(container.location)).read_rowset()

    # -- tuple mover: moveout ------------------------------------------------------------

    def moveout(self, node_name: str) -> int:
        """Convert this node's WOS contents into sorted ROS containers."""
        node = self.nodes[node_name]
        node.ensure_up()
        state = self.catalog.state
        moved = 0
        sink, txn = LocalDiskSink(self), Transaction()
        for projection_name in list(node.wos.projections()):
            rows = node.wos.drain(projection_name)
            if rows is None or rows.num_rows == 0:
                continue
            projection = state.projection(projection_name)
            table = state.table(projection.anchor_table)
            for region, part in split(self.shard_map, projection, rows):
                write_partitions(table, projection, region, part, node, sink, txn)
            moved += rows.num_rows
        if txn.ops:
            self._commit(txn.ops)
        return moved

    # -- tuple mover: mergeout (per node, independently — section 6.2) ------------------

    def mergeout(self, node_name: str) -> int:
        """Compact this node's containers in the strata of Eon's mergeout.

        "In Enterprise mode, each node runs mergeout independently and
        replicated data will be redundantly merged by multiple nodes" —
        no coordinator, and base/buddy copies are merged separately.  One
        commit for all of the node's jobs.  Returns the number of jobs run.
        """
        node = self.nodes[node_name]
        node.ensure_up()
        state = self.catalog.state
        jobs_run = 0
        sink, txn = LocalDiskSink(self), Transaction()
        for (projection_name, region, _key), containers in sorted(
            self._held_by(state, node_name).items(),
            key=lambda kv: (kv[0][0], kv[0][1], str(kv[0][2])),
        ):
            projection = state.projection(projection_name)
            for job in select_mergeout_candidates(
                containers, strata_width=STRATA_WIDTH, base_bytes=STRATA_BASE_BYTES
            ):
                merged = merge_job(state, projection, region, job, node, sink)
                for op in merged.ops:
                    txn.add_op(op)
                for container in job:
                    self._drop_local(container)
                merged.record(self.obs, node.local_fs)
                jobs_run += 1
        if txn.ops:
            self._commit(txn.ops)
        return jobs_run

    # -- queries ----------------------------------------------------------------------------

    def create_session(self, seed: Optional[int] = None) -> EnterpriseSession:
        if self.shut_down:
            raise ClusterError("cluster is shut down")
        if seed is None:
            seed = next(self._session_counter)
        uncovered = self.uncovered_shards()
        if uncovered:
            raise ShardCoverageLost(
                f"region {uncovered[0]}: node and buddy both down"
            )
        region_server = {
            region: base if self.nodes[base].is_up
            else self.buddy_node_of_region(region)
            for region, base in enumerate(self.node_order)
        }
        up = sorted(n.name for n in self.up_nodes())  # not empty: all covered
        return EnterpriseSession(
            self, region_server, up[seed % len(up)], self.catalog.snapshot()
        )

    def query(self, sql: str, **options) -> QueryResult:
        return self.query_statement(
            query_path.parse_select(self, sql), request_text=sql.strip(), **options
        )

    def query_statement(
        self,
        statement,
        session: Optional[EnterpriseSession] = None,
        request_text: Optional[str] = None,
        failover: Optional[bool] = None,
        **options,
    ) -> QueryResult:
        """One SELECT through the shared query path (``query_path.run``)."""
        check_query_options(options, QUERY_OPTIONS)
        return query_path.run(
            self, statement, session, request_text, failover, options=options
        )

    # -- elasticity: full redistribution (the paper's anti-pattern) -----------------

    def add_node(self, name: str) -> int:
        """Add a node the Enterprise way: re-segment *everything*.

        "A fixed layout can place related records on the same node ... but
        is inelastic because adjusting the node set requires expensive
        reshuffling of all the stored data" (section 9; also section 8:
        "Enterprise must redistribute the entire data set").  Every
        segmented projection's rows are re-hashed over the new N+1-region
        map and rewritten, base and buddy; the new node gets a copy of every
        replicated projection.  Refused while a node is down: its region's
        base rows could not be read.  Returns bytes rewritten.
        """
        if name in self.nodes:
            raise ClusterError(f"node {name} already exists")
        down = [n for n in self.node_order if not self.nodes[n].is_up]
        if down:
            raise ClusterError(f"cannot redistribute onto {name} while {down[0]} is down")
        # WOS rows are segmented under the old map; flush them first.
        for existing in self.node_order:
            if self.nodes[existing].wos.total_rows:
                self.moveout(existing)
        state = self.catalog.state
        # Snapshot every segmented projection's full contents first.
        contents: Dict[Projection, RowSet] = {}
        for projection in state.projections.values():
            if projection.is_buddy or projection.segmentation.is_replicated:
                continue
            parts = [self._rows_of(c) for c in state.containers_of(projection.name)]
            if parts:
                contents[projection] = RowSet.concat(parts)

        first = self.nodes[self.node_order[0]]
        node = self._join(name, first.execution_slots)
        self.shard_map = ShardMap(len(self.node_order))

        # Drop all old segmented containers and rewrite under the new map.
        sink, txn = LocalDiskSink(self), Transaction()
        for projection, rows in contents.items():
            for container in (state.containers_of(projection.name)
                              + state.containers_of(projection.name + "_b1")):
                self._drop_local(container)
                txn.add_op(op_drop_container(str(container.sid), container.shard_id))
            table = state.table(projection.anchor_table)
            for region, part in split(self.shard_map, projection, rows):
                self._place(table, projection, region, part, True, sink, txn)
        # Replicated projections: the new node copies one holder's containers.
        for projection in list(state.projections.values()):
            if projection.segmentation.is_replicated:
                for container in self._one_copy(state, projection.name, REPLICA_SHARD_ID):
                    txn.add_op(write_stream(
                        self._rows_of(container), projection, REPLICA_SHARD_ID,
                        container.partition_key, node, sink,
                    ))
        if txn.ops:
            self._commit(txn.ops)
        return sink.bytes_written

    def _drop_local(self, container: ROSContainer) -> None:
        owner = self.container_owner.pop(str(container.sid), None)
        if owner is not None and owner in self.nodes:
            self.nodes[owner].local_fs.delete(container.location)

    # -- failure & recovery -------------------------------------------------------------------

    def kill_node(self, name: str) -> None:
        member(self.nodes, name).go_down()
        self.check_viability()

    def recover_node(self, name: str) -> int:
        """Repair-style recovery: rebuild all the node's containers from
        buddies — a logical transfer proportional to the node's entire
        data set (section 6.1).  Each (projection, region, partition) the
        node held is rewritten from every container of the surviving copy:
        after per-node mergeout, base and buddy containers no longer pair
        up one to one.  Every group's sources are found before anything
        changes, so a lost copy leaves the node down and the cluster as it
        was.  Returns bytes transferred."""
        node = member(self.nodes, name)
        if node.is_up:
            raise ClusterError(f"node {name} already up")
        state = self.catalog.state
        held = self._held_by(state, name)
        sources = {group: self._surviving_copy(state, group, name) for group in held}
        node.state = NodeState.UP
        sink, txn = LocalDiskSink(self), Transaction()
        for (projection_name, region, key), containers in held.items():
            projection = state.projection(projection_name)
            for container in containers:
                txn.add_op(op_drop_container(str(container.sid), region))
                self._drop_local(container)
            for source in sources[projection_name, region, key]:
                rows = self._rows_of(source)
                txn.add_op(write_stream(rows, projection, region, key, node, sink))
        if txn.ops:
            self._commit(txn.ops)
        return sink.bytes_written

    def _surviving_copy(self, state, group: tuple, name: str) -> List[ROSContainer]:
        """Every container of one (projection, region, partition key) group
        in the copy an up node other than ``name`` holds: the buddy's for a
        segmented projection, another node's for a replicated one."""
        projection_name, region, key = group
        projection = state.projection(projection_name)
        partner = projection_name
        if not projection.segmentation.is_replicated:
            partner = projection.buddy_of if projection.is_buddy else projection_name + "_b1"
        sources = [c for c in self._one_copy(state, partner, region, exclude=name)
                   if c.partition_key == key]
        if not sources:
            raise ShardCoverageLost(f"no surviving copy of {projection_name} region {region}")
        return sources

    def _one_copy(self, state, projection: str, region: int,
                  exclude: Optional[str] = None) -> List[ROSContainer]:
        """The containers of ``projection`` in ``region`` that one up node
        (the first holder in catalog order, not ``exclude``) owns."""
        containers = state.containers_of(projection, region)
        owners = [self.container_owner[str(c.sid)] for c in containers]
        up = [o for o in owners if o != exclude and self.nodes[o].is_up]
        return [c for c, owner in zip(containers, owners) if up and owner == up[0]]


class EnterpriseStorageProvider(StorageProvider):
    """Scans node-local containers; a buddy serves a down node's region."""

    def __init__(self, session: EnterpriseSession):
        self.session = session
        self.cluster = session.cluster
        self.state = session.state
        #: Every scan's local-disk reads, lane units as an Eon scan's are.
        self._pool = PipelineCharges()

    def participants(self) -> List[str]:
        return sorted({n for n in self.session.region_server.values()})

    def initiator(self) -> str:
        return self.session.initiator

    def scan(
        self,
        node_name: str,
        projection: str,
        columns: Sequence[str],
        predicate: Optional[Expr],
        replicated: bool,
    ) -> ScanResult:
        cluster = self.cluster
        node = cluster.nodes[node_name]
        node.ensure_up()
        state = self.state
        schema = self._schema(projection, columns)
        result = ScanResult(rows=RowSet.empty(schema))
        parts: List[RowSet] = []
        units: List[float] = []

        if replicated:
            containers = state.containers_of(projection, REPLICA_SHARD_ID)
            self._scan_containers(node, containers, columns, predicate, parts, units, result)
            wos_rows = node.wos.read(projection)
            if wos_rows is not None:
                parts.append(wos_rows.select(list(columns)))
        else:
            proj_obj = state.projections.get(projection)
            buddy_name = projection + "_b1"
            for region in self.session.regions_of(node_name):
                own_region = cluster.region_of_node(node_name) == region
                use_projection = projection if own_region else buddy_name
                containers = state.containers_of(use_projection, region)
                self._scan_containers(node, containers, columns, predicate, parts, units, result)
                wos_rows = node.wos.read(use_projection)
                if wos_rows is not None:
                    seg_cols = list(proj_obj.segmentation.columns)
                    mask = cluster.shard_map.shards_of_rowset(wos_rows, seg_cols) == region
                    parts.append(wos_rows.filter(mask).select(list(columns)))
        if units:  # one lane unit per container, as an Eon scan's are
            self._pool.add(node_name, units)
            result.io_pooled_seconds += sum(units)
        if parts:
            result.rows = RowSet.concat([p for p in parts if p.num_rows] or parts[:1])
        return result

    def _scan_containers(self, node, containers, columns, predicate, parts, units, result):
        """Read the ``containers`` this node owns that survive pruning: their
        rows into ``parts``, and one local-disk read each into ``units``."""
        owner = self.cluster.container_owner
        mine = [c for c in containers if owner.get(str(c.sid)) == node.name]
        kept, pruned = prune_containers(sorted(mine, key=lambda c: str(c.sid)), predicate)
        result.containers_pruned += pruned
        for container in kept:
            reader = read_container(node.local_fs.read(container.location))
            parts.append(reader.read_rowset(list(columns)))
            # Local disk, charged as an Eon depot hit: the blocks it decoded.
            units.append(node.local_fs.estimate_read_seconds(reader.decoded_bytes))
            result.bytes_from_cache += reader.decoded_bytes
            result.containers_scanned += 1

    def _schema(self, projection_name: str, columns: Sequence[str]):
        projection = self.state.projections.get(projection_name)
        table = self.state.table(projection.anchor_table)
        return table.schema.subset(list(columns))
