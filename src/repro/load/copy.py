"""Bulk load and the one write path: the data load workflow of Figure 8
(section 4.5).

1. Ingest data on the participating writer nodes.
2. Split by shard ("an executor which is responsible for multiple shards
   will locally split the output data into separate streams for each
   shard, resulting in storage containers that contain data for exactly
   one shard"), sort each stream by the projection sort order, and write
   container files into the writer's cache.
3. Upload the files to shared storage and push them to the caches of the
   other subscribers of each shard.
4. Commit: "the commit point for the statement occurs when upload to the
   shared storage completes" — metadata for the new files is distributed
   to subscribers in the commit.

Intra-node partitioning: when the table declares ``PARTITION BY``, each
shard stream is further split by partition key so any container holds a
single key, enabling partition pruning (section 2.1).

Live aggregate projections are maintained at load time: each batch's
partial aggregates are computed, segmented, and written as LAP containers.

Every ROS container of either cluster flavor — COPY, DML re-inserts,
projection refresh, mergeout, and Enterprise's moveout, repair and
redistribution — is made by :func:`write_stream`.  The flavors differ only
in the *sink* the bytes go to: Eon's :class:`DepotSink` (depot, shared
storage, the shard's peers) or Enterprise's :class:`LocalDiskSink` (the
node's own disk).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterator, List, Optional, Sequence, Tuple

import numpy as np

from repro.cache.disk_cache import ObjectInfo
from repro.catalog.mvcc import Op, op_add_container
from repro.catalog.objects import LiveAggregateProjection, Table
from repro.cluster.transactions import Transaction
from repro.engine.expressions import ColumnRef
from repro.engine.operators import AggregateSpec, aggregate
from repro.errors import CatalogError
from repro.sharding.shard import REPLICA_SHARD_ID, ShardMap
from repro.storage.container import (
    ContainerLayout,
    ContainerReader,
    ROSContainer,
    RowSet,
    container_stats,
    read_container,
    read_through,
    write_container,
)


@dataclass
class CopyReport:
    """Outcome of one COPY statement."""

    rows_loaded: int = 0
    containers_written: int = 0
    bytes_written: int = 0
    io_seconds: float = 0.0
    version: int = 0
    peer_pushes: int = 0


class DepotSink:
    """Eon's sink: the writer's depot (write-through) and shared storage —
    :meth:`Node.write_storage` — then the depots of the shard's other up
    subscribers, so a node taking over is warm.  Every depot the file goes
    to also keeps the container's layout the writer hands over, so no
    reader of it there parses a footer.  Counts what it wrote in
    ``report``.  With ``defer_push`` the peers wait for
    :meth:`push_deferred` (mergeout pushes after its commit has dropped the
    inputs from the depots)."""

    def __init__(self, cluster, use_cache: bool = True, defer_push: bool = False):
        self.cluster = cluster
        self.use_cache = use_cache
        self.report = CopyReport()
        self.deferred: Optional[list] = [] if defer_push else None

    def __call__(
        self, node, name: str, data: bytes, info: ObjectInfo,
        layout: Optional[ContainerLayout] = None,
    ) -> None:
        report = self.report
        report.io_seconds += node.write_storage(
            name, data, self.cluster.shared_data, info=info, use_cache=self.use_cache,
            layout=layout,
        )
        report.bytes_written += len(data)
        report.containers_written += 1
        if self.deferred is None:
            self._push(node.name, name, data, info, layout)
        else:
            self.deferred.append((node.name, name, data, info, layout))

    def push_deferred(self) -> None:
        for args in self.deferred:
            self._push(*args)
        self.deferred.clear()

    def _push(
        self, writer: str, name: str, data: bytes, info: ObjectInfo,
        layout: Optional[ContainerLayout],
    ) -> None:
        if not self.use_cache:
            return
        cluster = self.cluster
        for peer in cluster.active_up_subscribers(info.shard_id):
            if peer != writer and cluster.nodes[peer].cache.put(
                name, data, info=info, layout=layout
            ):
                self.report.peer_pushes += 1

    def read(self, node, name: str) -> bytes:
        """A file back through the reader's depot (mergeout's inputs)."""
        return node.fetch_storage(name, self.cluster.shared_data)[0]

    def open(self, node, name: str, data: bytes) -> ContainerReader:
        """A reader over container ``name`` as :meth:`read` gave it, on the
        layout the reader's depot keeps for it (keeping what this parses)."""
        return read_through(node.cache, name, data) if self.use_cache else read_container(data)


class LocalDiskSink:
    """Enterprise's sink: the writing node's own disk, which then owns the
    file (``cluster.container_owner``).  Sums the bytes and simulated write
    time of what it wrote."""

    def __init__(self, cluster):
        self.cluster = cluster
        self.bytes_written = 0
        self.io_seconds = 0.0

    def __call__(
        self, node, name: str, data: bytes, info: ObjectInfo,
        layout: Optional[ContainerLayout] = None,
    ) -> None:
        node.local_fs.write(name, data)
        self.cluster.container_owner[name] = node.name
        self.bytes_written += len(data)
        self.io_seconds += node.local_fs.estimate_write_seconds(len(data))

    def read(self, node, name: str) -> bytes:
        return node.local_fs.read(name)

    def open(self, node, name: str, data: bytes) -> ContainerReader:
        return read_container(data)


def copy_into(
    cluster,
    table_name: str,
    rows: RowSet,
    use_cache: bool = True,
    epoch: int = 0,
) -> CopyReport:
    """Load ``rows`` into every projection of ``table_name`` and commit."""
    coordinator_node = cluster.any_up_node()
    table = coordinator_node.catalog.state.table(table_name)
    rows = checked_input(cluster, table, rows)
    txn = Transaction()
    txn.write_set.record(("table", table_name), coordinator_node.catalog.versions.version_of(("table", table_name)))
    report = write_rows(cluster, table, rows, txn, use_cache)
    report.rows_loaded = rows.num_rows
    report.version = cluster.commit(txn, epoch=epoch)
    return report


def checked_input(cluster, table: Table, rows: RowSet) -> RowSet:
    """COPY's input in table column order; a flattened table's base
    columns get their derived ones.  Any other column set is refused."""
    provided = set(rows.schema.names)
    if table.flattened and provided == set(table.base_columns):
        # Flattened table: derive the denormalised columns by joining
        # against their dimension tables at load time (section 2.1).
        from repro.load.flattened import apply_flattening

        rows = apply_flattening(cluster, table, rows.select(table.base_columns))
    elif provided != set(table.schema.names):
        raise CatalogError(
            f"COPY input columns {rows.schema.names} do not match table "
            f"schema {table.schema.names}"
        )
    return rows.select(table.schema.names)


def write_rows(
    cluster,
    table: Table,
    rows: RowSet,
    txn: Transaction,
    use_cache: bool = True,
    targets: Optional[Sequence] = None,
) -> CopyReport:
    """Eon's write of ``rows`` into ``table``: each shard stream by one of
    the shard's writers, through a :class:`DepotSink`, into ``txn``."""
    sink = DepotSink(cluster, use_cache)
    state = cluster.any_up_node().catalog.state
    for projection, shard_id, part in streams(cluster.shard_map, state, table, rows, targets):
        # "Replicated projections use just a single participating node as
        # the writer."
        writer = cluster.writer_for_shard(shard_id)
        if shard_id != REPLICA_SHARD_ID:
            txn.expect_subscription(shard_id, writer)
        write_partitions(table, projection, shard_id, part, cluster.nodes[writer], sink, txn)
    return sink.report


def streams(
    shard_map: ShardMap, state, table: Table, rows: RowSet,
    targets: Optional[Sequence] = None,
) -> Iterator[Tuple[object, int, RowSet]]:
    """``(projection, shard, rows)`` for every stream a write of ``rows``
    makes: one per shard of each non-buddy projection and live aggregate of
    ``table`` (or of ``targets`` only).  A LAP's stream is the batch's
    partial aggregates — sum/count/min/max are their own partial state."""
    if targets is None:
        targets = [p for p in state.projections_of(table.name) if not p.is_buddy]
        targets += state.live_aggs_of(table.name)
    for target in targets:
        if isinstance(target, LiveAggregateProjection):
            specs = [
                AggregateSpec(a.func, ColumnRef(a.argument) if a.argument else None, a.output_name)
                for a in target.aggregates
            ]
            stream = aggregate(rows, list(target.group_by), specs, mode="complete")
        else:
            stream = rows.select(list(target.columns))
        for shard_id, part in split(shard_map, target, stream):
            yield target, shard_id, part


def split(shard_map: ShardMap, projection, rows: RowSet) -> List[Tuple[int, RowSet]]:
    """Figure 8's split: one stream per shard the rows hash to, in shard
    order; a replicated projection's one stream is on the replica shard."""
    if projection.segmentation.is_replicated:
        return [(REPLICA_SHARD_ID, rows)]
    by_shard = shard_map.split_rowset(rows, list(projection.segmentation.columns))
    return sorted(by_shard.items())


def write_partitions(
    table: Table, projection, shard_id: int, rows: RowSet, node, sink, txn: Transaction
) -> None:
    """One shard stream, one container per partition key, into ``txn``."""
    for partition_key, part in _partitions(table, rows):
        txn.add_op(write_stream(part, projection, shard_id, partition_key, node, sink))


def write_stream(rows: RowSet, projection, shard_id: int, partition_key, node, sink) -> Op:
    """Make one ROS container: sort ``rows`` by the projection's order,
    write the image, mint its SID on the writing ``node`` and hand the
    bytes and their layout to ``sink(node, name, data, info, layout)``.
    Returns the catalog op that adds the container."""
    rows = rows.sort_by(list(projection.sort_order))
    data, layout = write_container(rows)
    sid = node.sid_factory.next_sid()
    sink(node, str(sid), data, ObjectInfo(
        table=projection.anchor_table,
        projection=projection.name,
        partition_key=partition_key,
        shard_id=shard_id,
    ), layout)
    mins, maxs = container_stats(rows)
    return op_add_container(ROSContainer(
        sid=sid,
        projection=projection.name,
        shard_id=shard_id,
        row_count=rows.num_rows,
        size_bytes=len(data),
        min_values=mins,
        max_values=maxs,
        partition_key=partition_key,
    ))


def _partitions(table: Table, rows: RowSet) -> List[Tuple[object, RowSet]]:
    """``rows`` by partition key (one ``None`` piece if the table, or this
    projection's columns, has none); nothing for no rows."""
    if rows.num_rows == 0:
        return []
    if table.partition_by is None or table.partition_by not in rows.schema:
        return [(None, rows)]
    column = rows.column(table.partition_by)
    out: List[Tuple[object, RowSet]] = []
    if column.dtype.kind == "O":
        for key in sorted({v for v in column}, key=lambda v: (v is None, v)):
            mask = np.fromiter((v == key for v in column), dtype=bool, count=len(column))
            out.append((key, rows.filter(mask)))
        return out
    for key in np.unique(column):
        out.append((key.item(), rows.filter(column == key)))
    return out
