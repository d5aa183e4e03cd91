"""Query sessions and the Eon storage provider.

A session (section 4.1) selects, via max flow, a *participating
subscription* per shard: which node serves which shard for this session's
queries.  Sessions also carry the crunch-scaling configuration (section
4.4) when a query should use more nodes than there are shards, and the
subcluster priority (section 4.3) when workload isolation applies.

:class:`EonStorageProvider` adapts a session to the executor's
:class:`StorageProvider` interface: scans fetch this node's shards'
containers through its cache, apply delete vectors, and prune containers
from min/max statistics.  Every scan reads its files one way: the whole
post-pruning file set goes to the cluster's :class:`~repro.io.scheduler.
IOScheduler` as one batch, and the scan takes each file's bytes out of it.
"""

from __future__ import annotations

from dataclasses import dataclass
from operator import attrgetter
from typing import Dict, List, NamedTuple, Optional, Sequence, Set, Tuple

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
from repro.engine.pruning import prune_group
from repro.errors import ExecutionError, QueryCancelled
from repro.io.scheduler import FetchBatch, FetchRequest
from repro.sharding.shard import REPLICA_SHARD_ID
from repro.storage.column import ColumnReader
from repro.storage.container import (
    ROSContainer, RowSet, interval_key, read_container, read_through,
)
from repro.storage.delete_vector import combine_positions, mask_from_positions
from repro.storage.encoding import CodedStrings, join_blocks


class ScanRule(NamedTuple):
    """What every container of one scan is read by, worked out once: the
    predicate's bounds, the row-interval key (:func:`interval_key`) and the
    two as one hashable value, which keys a replica's shared decode."""

    bounds: dict
    key: Optional[tuple]
    token: tuple


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

    def __init__(self, session: EonSession):
        self.session = session
        self.cluster = session.cluster
        #: The query's deferred lane charges: every scan's fetch units and
        #: local reads, pooled per node and charged once per query
        #: (``settle_io``).
        self._pool = PipelineCharges()
        #: Pushdown mode (off | auto | on), set by the executor from the
        #: session option; and the planner's per-scan eligibility hint.
        self._pushdown = "off"
        self._scan_eligible = False
        #: id(predicate) -> its :class:`ScanRule`: a plan's predicate is
        #: scanned once per participant.
        self._rules: Dict[int, ScanRule] = {}
        #: (id(image), columns, bounds and key) -> (image, its decoded rows
        #: per column, the bytes they were decoded from, the rows trimmed,
        #: the blocks pruned) for replica-shard containers: every node holds
        #: the same image, and the first node to read it decodes it for all.
        #: The image is kept so that its id stays its own for the query.
        self._decoded: Dict[tuple, tuple] = {}
        #: node -> what its last replicated scan read (``replica_reads``).
        self._replica_reads: Dict[str, Optional[tuple]] = {}

    def set_pushdown(self, mode: str) -> None:
        self._pushdown = mode

    def note_scan_eligibility(self, eligible: bool) -> None:
        self._scan_eligible = bool(eligible)

    def participants(self) -> List[str]:
        return self.session.participants()

    def initiator(self) -> str:
        return self.session.initiator

    def replica_reads(self, node_name: str) -> Optional[tuple]:
        return self._replica_reads.get(node_name)

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

        schema, anchor, delete_vectors, in_name_order, infos = state.derived(
            ("tables", "projections", "live_aggs", "containers", "delete_vectors"),
            (projection, *columns), lambda: _scan_start(state, projection, columns),
        )
        # Every contributing container appends its decoded blocks here; one
        # concatenate per column at the end makes ``result.rows``.
        out: Dict[str, List[np.ndarray]] = {name: [] for name in columns}
        result = ScanResult(rows=None)
        rule = self._rules.get(id(predicate))
        if rule is None:
            bounds = extract_column_bounds(predicate)
            owner = state.projections.get(projection) or state.live_aggs.get(projection)
            key = interval_key(owner.sort_order, bounds, schema) if bounds else None
            token = (tuple(bounds.items()), key)
            rule = self._rules[id(predicate)] = ScanRule(bounds, key, token)
        predicate_bounds = rule.bounds

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
        scheduler = self.cluster.io_scheduler
        # Whether any container of this scan could be pushed down; if not,
        # every one is read through the depot and none is asked.
        may_push = (
            self._pushdown != "off"
            and self._scan_eligible
            and predicate is not None
            and session.use_cache
        )
        scan_units: List[tuple] = []
        fetch_requests: List[FetchRequest] = []
        pushdown_keys: Set[str] = set()
        pushdown_items: List[tuple] = []
        ordinal = 0
        for shard_id, sub_index, share_count in assignments:
            kept, pruned = prune_group(
                state, projection, shard_id, predicate, predicate_bounds, in_name_order
            )
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
                location = container.location
                info = infos.get(location)
                if info is None:
                    info = infos[location] = ObjectInfo(
                        table=anchor, projection=projection,
                        partition_key=container.partition_key, shard_id=container.shard_id,
                    )
                dvs = delete_vectors.get(location, ())
                unit.append((container, dvs))
                if may_push and self._container_strategy(
                    node, state, projection, container, read_columns,
                    predicate_bounds, bool(dvs), hash_crunch,
                ) == "pushdown":
                    pushdown_keys.add(location)
                    pushdown_items.append((location, list(read_columns), predicate, rule.key))
                fetch_requests.append(
                    FetchRequest(location, container.size_bytes, ordinal, info)
                )
                for dv in dvs:
                    fetch_requests.append(
                        FetchRequest(dv.location, dv.size_bytes, ordinal, info)
                    )
                ordinal += 1

        batch = FetchBatch()
        if fetch_requests:
            batch = scheduler.fetch_batch(
                node, fetch_requests, session.use_cache, result, self._pool,
                cancelled=lambda: session.cancelled,
                background_keys=pushdown_keys or None,
            )
        # Selects run after the batch so the GET request (and fault-draw)
        # sequence is the off-run's sequence, with SELECTs appended.
        selects: Dict[str, object] = {}
        if pushdown_items:
            selects = scheduler.pushdown_batch(
                node, pushdown_items, result, self._pool,
                cancelled=lambda: session.cancelled,
            )

        # Pass 2: scan the containers, their bytes out of the batch.
        # Pushdown containers take their rows from the select results —
        # already filtered and projected server-side; the executor's
        # post-scan predicate re-application is a no-op on them — but
        # still consume their hydration bytes for prefetch-credit parity.
        # A replicated scan also notes what it read, for ``replica_reads``.
        reads: Optional[list] = [tuple(schema.columns)] if replicated else None
        local_units: List[float] = []
        for unit, read_columns, share in scan_units:
            for container, dvs in unit:
                if session.cancelled:
                    raise QueryCancelled(
                        f"session cancelled while scanning {projection!r}"
                    )
                select = selects.get(container.location)
                if select is not None:
                    reads = None
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
                    read = self._read_container(
                        node, container, dvs, read_columns, share, out,
                        result, rule, batch, local_units,
                    )
                    if reads is not None:
                        reads = None if read is None else reads + [read]
                result.containers_scanned += 1
        if local_units:
            self._pool.add(node_name, local_units)
            result.io_pooled_seconds += sum(local_units)
        if replicated:
            self._replica_reads[node_name] = None if reads is None else tuple(reads)
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
        predicate_bounds: Optional[dict],
        has_delete_vectors: bool,
        hash_crunch: bool,
    ) -> str:
        """Pick depot or pushdown for one container of a scan that may push
        down (``may_push`` in :meth:`scan`: the mode is not off, the plan
        marked the scan eligible, it has a predicate and the session reads
        through the depot) — see
        :func:`repro.engine.cost.choose_scan_strategy` for the table.

        Estimates are only computed on the ``auto`` break-even path:
        scanned bytes from the touched-column fraction of the container,
        returned bytes from interval-overlap selectivity against the
        container's min/max stats.  Hash-crunch shares never push down (the
        secondary hash split would hide the raw row count the parity
        accounting needs).
        """
        shared = self.cluster.shared_data
        resident = node.cache.contains(container.location)
        fetch_seconds = pushdown_seconds = 0.0
        if (
            self._pushdown == "auto"
            and not hash_crunch
            and not resident
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
            use_cache=True,
            has_delete_vectors=has_delete_vectors,
            eligible=not hash_crunch,
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

    def _read_container(
        self,
        node,
        container: ROSContainer,
        dvs: list,
        columns: Sequence[str],
        share: Optional[tuple],
        out: Dict[str, List[np.ndarray]],
        result: ScanResult,
        rule: ScanRule,
        batch: FetchBatch,
        local_units: List[float],
    ) -> Optional[tuple]:
        """Append one container's live rows, column by column, to ``out``
        (the scan's columns; ``columns`` adds what a hash-crunch ``share``
        needs beside them); its bytes and its delete vectors' come out of
        ``batch``.  Returns the key of the decoded rows a
        replica-shard container without delete vectors shares with the
        query's other nodes, None for any other container.

        A container without delete vectors is read by the one rule,
        :meth:`~repro.storage.container.ContainerReader.append_kept`: only
        the blocks the scan's ``rule`` (its bounds, its row-interval key)
        could match, and of those only the rows in the key's interval.
        Delete-vector positions are container-absolute, so a container with
        tombstones is read whole.

        What the depot held is read from this node's local disk: one request
        of the bytes handed to ``decode_block`` — the blocks of the columns
        read that survive block pruning, and a delete vector's blocks — is
        appended to ``local_units`` (the scan pools them with its fetches)
        and counted in ``result.bytes_from_cache``.  A file fetched for this
        batch is in memory already (its fetch is the charge)."""
        data = self.cluster.io_scheduler.consume(batch, node, container.location, result)
        # A session that reads through the depot parses no footer the depot
        # has a layout for: the writer's, or what the first reader parsed.
        if self.session.use_cache:
            reader = read_through(node.cache, container.location, data)
        else:
            reader = read_container(data)

        key, local = None, 0
        if dvs or share is not None:
            local = self._append_live(
                node, container, reader, rule, dvs, columns, share, out, result, batch,
            )
        elif container.shard_id == REPLICA_SHARD_ID:
            key = self._append_replica(reader, data, rule, out, result)
        else:
            result.blocks_pruned += reader.append_kept(out, rule.bounds, rule.key)
        result.rows_trimmed += reader.rows_trimmed
        if container.location in batch.hits:
            local += reader.decoded_bytes
        if local:
            local_units.append(node.local_fs.estimate_read_seconds(local))
            result.bytes_from_cache += local
        return key

    def _append_live(
        self, node, container: ROSContainer, reader, rule: ScanRule,
        dvs: list, columns: Sequence[str], share: Optional[tuple],
        out: Dict[str, List[np.ndarray]], result: ScanResult, batch: FetchBatch,
    ) -> int:
        """The rest of :meth:`_read_container` for a container that drops
        rows — deleted ones, or those another node's hash-crunch share
        keeps: it filters its own slice before the scan's concatenate,
        every column indexed by a mask, so fresh arrays.  A share is cut to
        the scan's interval before it is hashed.  Returns the bytes
        decoded from the delete vectors the depot held."""
        own: Dict[str, List[np.ndarray]] = {name: [] for name in columns}
        if dvs:
            reader.append_kept(own)
        else:
            result.blocks_pruned += reader.append_kept(own, rule.bounds, rule.key)
        local = 0
        live = None
        if dvs:
            position_sets = []
            for dv in dvs:
                dv_reader = ColumnReader(
                    self.cluster.io_scheduler.consume(batch, node, dv.location, result)
                )
                position_sets.append(dv_reader.read_all())
                if dv.location in batch.hits:
                    local += sum(map(_LENGTH, dv_reader.blocks))
            live = mask_from_positions(
                combine_positions(position_sets), container.row_count
            )
        if not all(own.values()):
            return local  # an empty container, or no block survived pruning
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
        return local

    def _append_replica(
        self, reader, data: bytes, rule: ScanRule,
        out: Dict[str, List[np.ndarray]], result: ScanResult,
    ) -> tuple:
        """``reader.append_kept(out, ...)`` for a replica-shard container,
        decoding once per query what every node holds: the depot copies of
        one container written to every node are one bytes object, so a
        node reading the same object and columns under the same bounds and
        key takes what the first decoded.  A copy that is another object —
        a damaged one included — is decoded on its own.  What the scan
        takes is never the kept block itself (:func:`_handed`).  Only the
        decoding is shared: each node reads its own copy of the blocks'
        bytes, so ``reader``'s ``decoded_bytes`` and ``rows_trimmed`` count
        them whoever decoded them."""
        key = (id(data), tuple(out), rule.token)
        kept = self._decoded.get(key)
        if kept is None:
            decoded: Dict[str, List[np.ndarray]] = {name: [] for name in out}
            pruned = reader.append_kept(decoded, rule.bounds, rule.key)
            kept = self._decoded[key] = (
                data, decoded, reader.decoded_bytes, reader.rows_trimmed, pruned,
            )
        else:
            reader.decoded_bytes += kept[2]
            reader.rows_trimmed += kept[3]
        result.blocks_pruned += kept[4]
        for name, parts in out.items():
            parts.extend(map(_handed, kept[1][name]))
        return key


#: A block's stored length (:class:`~repro.storage.column.BlockInfo`).
_LENGTH = attrgetter("length")


def _handed(block):
    """A kept decoded block as one node's scan takes it: an array as a view,
    which :func:`~repro.storage.column.concat_blocks` copies where it is a
    column's only block (several are concatenated anyway), and codes copied
    over the shared dictionary — no node's rows alias another's."""
    if isinstance(block, CodedStrings):
        return CodedStrings(block.codes.copy(), block.dictionary)
    return block.view()


def _scan_start(state, projection: str, columns: Sequence[str]) -> tuple:
    """What every scan of these columns of a projection starts from on one
    catalog state: the sub-schema, the anchor table (for the depot's
    ``ObjectInfo``), delete vectors by container, and two maps filled as
    scans ask: each shard's containers in storage-name order (the order
    files are fetched and the depot's LRU touched in) for the scans that
    test a whole group (:func:`prune_group`), and each container's
    ``ObjectInfo`` by name."""
    owner = state.projections.get(projection) or state.live_aggs.get(projection)
    return (
        _projection_schema(state, projection, columns),
        owner.anchor_table, state.delete_vectors_by_target(), {}, {},
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
