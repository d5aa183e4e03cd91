"""Query sessions and the Eon storage provider.

A session (section 4.1) selects, via max flow, a *participating
subscription* per shard: which node serves which shard for this session's
queries.  Sessions also carry the crunch-scaling configuration (section
4.4) when a query should use more nodes than there are shards, and the
subcluster priority (section 4.3) when workload isolation applies.

:class:`EonStorageProvider` adapts a session to the executor's
:class:`StorageProvider` interface: scans fetch this node's shards'
containers through its cache, apply delete vectors, and prune containers
from min/max statistics.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence, Set, Tuple

import numpy as np

from repro.cache.disk_cache import ObjectInfo
from repro.catalog.catalog import CatalogSnapshot
from repro.common.hashing import hash_columns
from repro.engine.cost import (
    choose_scan_strategy,
    estimate_pushdown_bytes,
    estimate_selectivity,
)
from repro.engine.executor import ScanResult, StorageProvider
from repro.engine.expressions import Expr, extract_column_bounds
from repro.engine.pipeline import PipelineCharges
from repro.engine.pruning import prune_containers
from repro.errors import ExecutionError, QueryCancelled
from repro.io.scheduler import LANES, FetchRequest
from repro.sharding.shard import REPLICA_SHARD_ID
from repro.storage.container import ROSContainer, RowSet, read_container
from repro.storage.delete_vector import (
    combine_positions,
    mask_from_positions,
    read_delete_vector,
)
from repro.storage.encoding import CodedStrings, join_blocks


@dataclass
class EonSession:
    """One client session's layout over the cluster; ``state``..``release``
    are what ``cluster/query_path.py`` asks of a session."""

    cluster: object
    initiator: str
    #: shard -> node chosen by the max-flow selection (ETS subset).
    assignment: Dict[int, str]
    #: shard -> ordered nodes sharing the shard (crunch scaling); length 1
    #: lists are the common, non-crunch case.
    sharing: Dict[int, List[str]]
    crunch: Optional[str]  # None | "hash" | "container"
    snapshots: Dict[str, CatalogSnapshot]
    use_cache: bool = True
    seed: int = 0
    cancelled: bool = False

    def cancel(self) -> None:
        """Request cancellation; scans abort at the next file boundary
        ("users expect their queries to be cancelable, so Vertica cannot
        hang waiting for S3 to respond" — section 5.3)."""
        self.cancelled = True

    def participants(self) -> List[str]:
        seen: List[str] = []
        for nodes in self.sharing.values():
            for node in nodes:
                if node not in seen:
                    seen.append(node)
        if self.initiator not in seen:
            seen.append(self.initiator)
        return seen

    def shards_of(self, node: str) -> List[Tuple[int, int, int]]:
        """(shard, sub_index, share_count) triples this node serves."""
        out = []
        for shard, nodes in self.sharing.items():
            for index, name in enumerate(nodes):
                if name == node:
                    out.append((shard, index, len(nodes)))
        return out

    @property
    def state(self):
        """The initiator's pinned catalog state: what a statement binds to."""
        return self.snapshots[self.initiator].state

    def provider(self) -> "EonStorageProvider":
        return EonStorageProvider(self)

    def slot_demand(self, plan) -> Dict[str, int]:
        """A query holds exactly ``S`` of the cluster's ``N * E`` slots (the
        throughput model of section 4.2): one per shard share a node serves,
        so crunch sharing demands more.  On distributed plans the initiator's
        merge stage rides on coordination, not a slot — Figure 11a's elastic
        scaling depends on the footprint staying ``S`` as nodes are added; a
        single-node plan (a constant query) takes one slot on the initiator.
        """
        if plan.single_node or not self.sharing:
            return {self.initiator: 1}
        shares: Dict[str, int] = {}
        for nodes in self.sharing.values():
            for node_name in nodes:
                shares[node_name] = shares.get(node_name, 0) + 1
        return dict(sorted(shares.items()))

    def release(self) -> None:
        for snapshot in self.snapshots.values():
            snapshot.release()

    def __enter__(self) -> "EonSession":
        return self

    def __exit__(self, *exc) -> None:
        self.release()


class EonStorageProvider(StorageProvider):
    """Executor-facing scan interface over an Eon session."""

    #: Pool every scan's fetch makespan per node and charge it once per
    #: query (``settle_io``).  False charges scan by scan: the reference the
    #: differential wall compares demand and seconds against.
    pool_fetch_charges = True

    def __init__(self, session: EonSession):
        self.session = session
        self.cluster = session.cluster
        cost = getattr(self.cluster.shared, "cost", None)
        #: Dollars per GET on the shared backend (0 for cost-free backends).
        self._get_dollars = cost.get_cost() if cost is not None else 0.0
        scheduler = getattr(self.cluster, "io_scheduler", None)
        #: The query's deferred lane charges; None without a scheduler.
        self._pool = (
            PipelineCharges(self.cluster.clock, LANES)
            if scheduler is not None and self.pool_fetch_charges
            else None
        )
        #: Pushdown mode (off | auto | on), set by the executor from the
        #: session option; and the planner's per-scan eligibility hint.
        self._pushdown = "off"
        self._scan_eligible = False
        #: id(predicate) -> its column bounds: a plan's predicate is scanned
        #: once per participant.
        self._bounds: Dict[int, dict] = {}

    def set_pushdown(self, mode: str) -> None:
        self._pushdown = mode

    def note_scan_eligibility(self, eligible: bool) -> None:
        self._scan_eligible = bool(eligible)

    def participants(self) -> List[str]:
        return self.session.participants()

    def initiator(self) -> str:
        return self.session.initiator

    def settle_io(self) -> Dict[str, float]:
        return self._pool.settle() if self._pool is not None else {}

    @property
    def preserves_segmentation(self) -> bool:
        # Hash-filter crunch re-segments by the same columns, preserving
        # co-location; container split does not (section 4.4).
        if self.session.crunch == "container":
            return False
        return True

    def scan(
        self,
        node_name: str,
        projection: str,
        columns: Sequence[str],
        predicate: Optional[Expr],
        replicated: bool,
    ) -> ScanResult:
        session = self.session
        snapshot = session.snapshots[node_name]
        state = snapshot.state
        node = self.cluster.nodes[node_name]
        node.ensure_up()

        schema, anchor, delete_vectors, in_name_order = state.derived(
            ("tables", "projections", "live_aggs", "containers", "delete_vectors"),
            (projection, *columns), lambda: _scan_start(state, projection, columns),
        )
        # Every contributing container appends its decoded blocks here; one
        # concatenate per column at the end makes ``result.rows``.
        out: Dict[str, List[np.ndarray]] = {name: [] for name in columns}
        result = ScanResult(rows=None)
        predicate_bounds = self._bounds.get(id(predicate))
        if predicate_bounds is None:
            predicate_bounds = self._bounds[id(predicate)] = extract_column_bounds(predicate)

        if replicated:
            assignments: List[Tuple[Optional[int], int, int]] = [(REPLICA_SHARD_ID, 0, 1)]
        else:
            assignments = session.shards_of(node_name)

        # Pass 1: resolve each assignment's post-pruning container list and
        # collect the full storage-file set the scan will read.  Handing
        # the whole batch to the I/O scheduler up front is what lets it
        # dedupe, coalesce, and overlap the fetches (see repro.io).  Each
        # container also gets its scan strategy here; pushdown-chosen
        # containers STAY in the fetch batch (as background hydration) so
        # the depot's demand ledger — misses, puts, LRU order, GET
        # requests, fault draws — is bit-identical to a pushdown-off run.
        scheduler = getattr(self.cluster, "io_scheduler", None)
        scan_units: List[tuple] = []
        fetch_requests: List[FetchRequest] = []
        pushdown_keys: Set[str] = set()
        pushdown_items: List[tuple] = []
        ordinal = 0
        for shard_id, sub_index, share_count in assignments:
            containers = in_name_order.get(shard_id)
            if containers is None:
                containers = in_name_order[shard_id] = sorted(
                    state.containers_of(projection, shard_id), key=lambda c: str(c.sid)
                )
            kept, pruned = prune_containers(containers, predicate)
            result.containers_pruned += pruned
            if session.crunch == "container" and share_count > 1:
                kept = [c for i, c in enumerate(kept) if i % share_count == sub_index]
            hash_crunch = session.crunch == "hash" and share_count > 1
            read_columns = list(columns)
            seg_cols: Tuple[str, ...] = ()
            if hash_crunch:
                # The secondary hash predicate needs the segmentation
                # columns even when the query does not read them.
                seg_cols = self._segmentation_columns(state, projection)
                read_columns += [c for c in seg_cols if c not in read_columns]
            # The hash-crunch share this node keeps of each container.
            share = (seg_cols, share_count, sub_index) if hash_crunch else None
            unit: List[tuple] = []
            scan_units.append((unit, read_columns, share))
            for container in kept:
                info = ObjectInfo(
                    table=anchor, projection=projection,
                    partition_key=container.partition_key, shard_id=container.shard_id,
                )
                location = container.location
                dvs = delete_vectors.get(location, ())
                unit.append((container, info, dvs))
                strategy = self._container_strategy(
                    node, state, projection, container, read_columns,
                    predicate, predicate_bounds, bool(dvs), scheduler,
                    hash_crunch,
                )
                if strategy == "pushdown":
                    pushdown_keys.add(location)
                    pushdown_items.append((location, list(read_columns), predicate))
                fetch_requests.append(
                    FetchRequest(location, container.size_bytes, ordinal, info)
                )
                for dv in dvs:
                    fetch_requests.append(
                        FetchRequest(dv.location, dv.size_bytes, ordinal, info)
                    )
                ordinal += 1

        batch = None
        if scheduler is not None and fetch_requests:
            batch = scheduler.fetch_batch(
                node, fetch_requests, session.use_cache, result,
                cancelled=lambda: session.cancelled,
                pool=self._pool,
                background_keys=pushdown_keys or None,
            )
        # Selects run after the batch so the GET request (and fault-draw)
        # sequence is the off-run's sequence, with SELECTs appended.
        selects: Dict[str, object] = {}
        if scheduler is not None and pushdown_items:
            selects = scheduler.pushdown_batch(
                node, pushdown_items, result,
                cancelled=lambda: session.cancelled,
                pool=self._pool,
            )

        # Pass 2: scan the containers (bytes come out of the batch; any
        # file the batch does not cover takes the serial fetch path).
        # Pushdown containers take their rows from the select results —
        # already filtered and projected server-side; the executor's
        # post-scan predicate re-application is a no-op on them — but
        # still consume their hydration bytes for prefetch-credit parity.
        for unit, read_columns, share in scan_units:
            for container, info, dvs in unit:
                if session.cancelled:
                    raise QueryCancelled(
                        f"session cancelled while scanning {projection!r}"
                    )
                select = selects.get(container.location)
                if select is not None:
                    scheduler.consume(batch, node, container.location, result)
                    rows = select.rows
                    # Parity counters: what the depot path would have booked
                    # for this container (same pruning logic server-side).
                    result.blocks_pruned += select.blocks_pruned
                    result.pushdown_rows_filtered += (
                        select.rows_examined - rows.num_rows
                    )
                    if rows.num_rows:
                        for name, parts in out.items():
                            parts.append(rows.held(name))
                else:
                    self._read_container(
                        node, container, info, dvs, read_columns, share, out,
                        result, predicate_bounds, batch,
                    )
                result.containers_scanned += 1
        result.rows = RowSet.from_blocks(schema, out)
        if not session.use_cache:
            result.scan_strategy = "get"
        elif selects:
            result.scan_strategy = "pushdown"
        else:
            result.scan_strategy = "depot"
        return result

    def _container_strategy(
        self,
        node,
        state,
        projection: str,
        container: ROSContainer,
        read_columns: Sequence[str],
        predicate: Optional[Expr],
        predicate_bounds: Optional[dict],
        has_delete_vectors: bool,
        scheduler,
        hash_crunch: bool = False,
    ) -> str:
        """Pick depot / get / pushdown for one container (see
        :func:`repro.engine.cost.choose_scan_strategy` for the table).

        Estimates are only computed on the ``auto`` break-even path:
        scanned bytes from the touched-column fraction of the container,
        returned bytes from interval-overlap selectivity against the
        container's min/max stats.  Serial scans (no I/O scheduler) never
        push down — pushdown rides the scheduler's own lane — and neither
        do hash-crunch shares (the secondary hash split would hide the
        raw row count the parity accounting needs).
        """
        session = self.session
        shared = self.cluster.shared_data
        supports = bool(getattr(shared, "supports_select", False))
        eligible = (
            self._scan_eligible
            and predicate is not None
            and scheduler is not None
            and not hash_crunch
        )
        resident = session.use_cache and node.cache.contains(container.location)
        fetch_seconds = pushdown_seconds = 0.0
        if (
            self._pushdown == "auto"
            and eligible
            and supports
            and not resident
            and session.use_cache
            and not has_delete_vectors
        ):
            proj = state.projections.get(projection)
            if proj is None or not proj.columns:
                # Live-aggregate containers: no base-table column map to
                # estimate against, and their scans carry no predicate.
                return "depot"
            touched = list(dict.fromkeys(read_columns))
            scanned_est = int(
                container.size_bytes * len(touched) / max(1, len(proj.columns))
            )
            selectivity = estimate_selectivity(predicate_bounds or {}, container)
            returned_est = estimate_pushdown_bytes(scanned_est, selectivity)
            pushdown_seconds = shared.estimate_select_seconds(
                scanned_est, returned_est
            )
            fetch_seconds = shared.estimate_read_seconds(container.size_bytes)
        return choose_scan_strategy(
            self._pushdown,
            resident=resident,
            use_cache=session.use_cache,
            has_delete_vectors=has_delete_vectors,
            eligible=eligible,
            supports_select=supports,
            fetch_seconds=fetch_seconds,
            pushdown_seconds=pushdown_seconds,
        )

    # -- internals ---------------------------------------------------------------

    def _segmentation_columns(self, state, projection_name: str) -> Tuple[str, ...]:
        projection = state.projections.get(projection_name)
        if projection is not None:
            return tuple(projection.segmentation.columns)
        lap = state.live_aggs.get(projection_name)
        if lap is not None:
            return tuple(lap.segmentation.columns)
        raise ExecutionError(f"unknown projection {projection_name!r}")

    def _fetch_through_depot(
        self, node, location: str, info, result: ScanResult, batch=None
    ) -> bytes:
        """One file fetch: depot hit/miss and S3 accounting, plus an
        ``s3_get`` span (duration = that request's IO seconds) when the
        cluster's observability is enabled.

        When the scan pre-fetched a batch (``batch`` is set), bytes come
        straight out of it — the scheduler already did all hit/miss/S3
        accounting at fetch time; consuming only books prefetch credit.
        """
        if batch is not None:
            data = self.cluster.io_scheduler.consume(batch, node, location, result)
            if data is not None:
                return data
        obs = self.cluster.obs
        evictions_before = node.cache.stats.evictions if obs.enabled else 0
        data, from_cache, io_seconds = node.fetch_storage(
            location,
            self.cluster.shared_data,
            info=info,
            use_cache=self.session.use_cache,
        )
        result.io_seconds += io_seconds
        if from_cache:
            result.bytes_from_cache += len(data)
            result.depot_hits += 1
        else:
            result.bytes_from_shared += len(data)
            result.depot_misses += 1
            result.s3_requests += 1
            result.s3_dollars += self._get_dollars
            if obs.enabled:
                obs.tracer.record(
                    "s3_get",
                    duration=io_seconds,
                    node=node.name,
                    object=location,
                    nbytes=len(data),
                    evictions=node.cache.stats.evictions - evictions_before,
                )
        return data

    def _read_container(
        self,
        node,
        container: ROSContainer,
        info: ObjectInfo,
        dvs: list,
        columns: Sequence[str],
        share: Optional[tuple],
        out: Dict[str, List[np.ndarray]],
        result: ScanResult,
        predicate_bounds: Optional[dict] = None,
        batch=None,
    ) -> None:
        """Append one container's live rows, column by column, to ``out``
        (the scan's columns; ``columns`` adds what a hash-crunch ``share``
        needs beside them)."""
        data = self._fetch_through_depot(
            node, container.location, info, result, batch
        )
        # A session that reads through the depot reads a container's footers
        # once per residency: the depot keeps what the first reader parsed.
        depot = node.cache if self.session.use_cache else None
        layout = depot.layout_of(container.location) if depot is not None else None
        reader = read_container(data, layout)
        if depot is not None and layout is None:
            depot.keep_layout(container.location, reader.layout)

        # Block-level pruning: decode only blocks whose footer min/max
        # could satisfy the predicate (section 2.3's position index).
        # Delete-vector positions are container-absolute, so pruning is
        # only applied to containers without tombstones.
        block_indices = None
        if predicate_bounds and not dvs:
            matching = reader.matching_blocks(predicate_bounds)
            total_blocks = reader.block_count()
            if len(matching) < total_blocks:
                result.blocks_pruned += total_blocks - len(matching)
                block_indices = matching
        if not dvs and share is None:
            reader.append_blocks(out, block_indices)
            return

        # A container that drops rows filters its own slice before the
        # scan's concatenate: every column indexed by a mask, so fresh arrays.
        own: Dict[str, List[np.ndarray]] = {name: [] for name in columns}
        reader.append_blocks(own, block_indices)
        live = None
        if dvs:
            position_sets = []
            for dv in dvs:
                dv_data = self._fetch_through_depot(
                    node, dv.location, info, result, batch
                )
                position_sets.append(read_delete_vector(dv_data))
            live = mask_from_positions(
                combine_positions(position_sets), container.row_count
            )
        if not all(own.values()):
            return  # an empty container, or no block survived pruning
        # Joined as the scan joins them, so string blocks stay codes under
        # the masks; only a segmentation column that is hashed becomes text.
        arrays = {name: join_blocks(parts) for name, parts in own.items()}
        if live is not None:
            arrays = {name: values[live] for name, values in arrays.items()}
        if share is not None:
            seg_cols, share_count, sub_index = share
            hashes = hash_columns([
                values.text() if isinstance(values, CodedStrings) else values
                for values in map(arrays.__getitem__, seg_cols)
            ])
            mine = hashes % np.uint64(share_count) == np.uint64(sub_index)
            arrays = {name: values[mine] for name, values in arrays.items()}
        for name, parts in out.items():
            if len(arrays[name]):
                parts.append(arrays[name])


def _scan_start(state, projection: str, columns: Sequence[str]) -> tuple:
    """What every scan of these columns of a projection starts from on one
    catalog state: the sub-schema, the anchor table (for the depot's
    ``ObjectInfo``), delete vectors by container and — filled shard by shard
    as scans ask — each shard's containers in storage-name order, the order
    files are fetched and the depot's LRU touched in."""
    owner = state.projections.get(projection) or state.live_aggs.get(projection)
    return (
        _projection_schema(state, projection, columns),
        owner.anchor_table, state.delete_vectors_by_target(), {},
    )


def _projection_schema(state, projection_name: str, columns: Sequence[str]):
    projection = state.projections.get(projection_name)
    if projection is not None:
        table = state.table(projection.anchor_table)
        return table.schema.subset([c for c in columns])
    lap = state.live_aggs.get(projection_name)
    if lap is not None:
        table = state.table(lap.anchor_table)
        return lap.output_schema(table.schema).subset(list(columns))
    raise ExecutionError(f"unknown projection {projection_name!r}")
