"""DELETE and UPDATE via delete vectors (sections 2.3, 4.5).

"Vertica never modifies existing files, instead creating new files for
data or for delete marks."  A DELETE scans each projection's containers,
evaluates the predicate against live rows, and writes a delete vector per
affected container; an UPDATE is modelled as a delete followed by an
insert of the modified tuples, committed atomically.

Delete predicates must be computable on every projection of the table
(i.e. every projection contains the predicate's columns); this mirrors
Vertica's requirement that all projections stay consistent.
"""

from __future__ import annotations

from typing import List, Optional, Tuple

import numpy as np

from repro.cache.disk_cache import ObjectInfo
from repro.catalog.mvcc import op_add_delete_vector
from repro.cluster.transactions import Transaction
from repro.load.copy import DepotSink, write_rows
from repro.engine.expressions import Expr
from repro.errors import CatalogError, ExecutionError
from repro.sharding.shard import REPLICA_SHARD_ID
from repro.storage.container import RowSet, read_through
from repro.storage.delete_vector import (
    DeleteVector,
    combine_positions,
    read_delete_vector,
    write_delete_vector,
)


def delete_from(
    cluster,
    table_name: str,
    predicate: Optional[Expr],
    epoch: int = 0,
    _txn: Optional[Transaction] = None,
    _collect_deleted: Optional[List[RowSet]] = None,
) -> int:
    """Delete matching rows from every projection; returns rows deleted.

    ``_txn`` lets UPDATE share one atomic transaction; ``_collect_deleted``
    receives the deleted tuples (from the first full-column projection) so
    UPDATE can re-insert modified copies.
    """
    node = cluster.any_up_node()
    state = node.catalog.state
    table = state.table(table_name)
    txn = _txn if _txn is not None else Transaction()

    deleted_count = 0
    collected = False
    sink = DepotSink(cluster)
    for projection in state.projections_of(table_name):
        if projection.is_buddy:
            continue
        if predicate is not None:
            missing = predicate.columns_used() - set(projection.columns)
            if missing:
                raise ExecutionError(
                    f"DELETE predicate uses {sorted(missing)} not present in "
                    f"projection {projection.name!r}"
                )
        shard_ids = (
            [REPLICA_SHARD_ID]
            if projection.segmentation.is_replicated
            else cluster.shard_map.shard_ids()
        )
        proj_deleted = 0
        wants_rows = (
            _collect_deleted is not None
            and not collected
            and set(projection.columns) == set(table.schema.names)
        )
        for shard_id in shard_ids:
            writer_name = cluster.writer_for_shard(shard_id)
            writer = cluster.nodes[writer_name]
            if shard_id != REPLICA_SHARD_ID:
                txn.expect_subscription(shard_id, writer_name)
            # Storage metadata for a shard lives only on its subscribers;
            # read the shard's containers from the writer's own catalog.
            shard_state = writer.catalog.state
            for container in sorted(
                shard_state.containers_of(projection.name, shard_id),
                key=lambda c: str(c.sid),
            ):
                data, _, _ = writer.fetch_storage(
                    container.location, cluster.shared_data
                )
                reader = read_through(writer.cache, container.location, data)
                rows = reader.read_rowset(list(projection.columns))
                existing = [
                    read_delete_vector(
                        writer.fetch_storage(dv.location, cluster.shared_data)[0]
                    )
                    for dv in shard_state.delete_vectors_for(str(container.sid))
                ]
                already = combine_positions(existing) if existing else np.array([], dtype=np.int64)
                live = np.ones(container.row_count, dtype=bool)
                if len(already):
                    live[already] = False
                if predicate is None:
                    match = live.copy()
                else:
                    match = predicate.evaluate(rows).astype(bool) & live
                positions = np.flatnonzero(match)
                if len(positions) == 0:
                    continue
                if wants_rows:
                    _collect_deleted.append(rows.take(positions))
                proj_deleted += len(positions)
                dv_data = write_delete_vector(positions)
                sid = writer.sid_factory.next_sid()
                info = ObjectInfo(
                    table=table.name, projection=projection.name, shard_id=shard_id
                )
                sink(writer, str(sid), dv_data, info)
                txn.add_op(
                    op_add_delete_vector(
                        DeleteVector(
                            sid=sid,
                            target_sid=container.sid,
                            projection=projection.name,
                            shard_id=shard_id,
                            deleted_count=len(positions),
                            size_bytes=len(dv_data),
                        )
                    )
                )
        if wants_rows:
            collected = True
        deleted_count = max(deleted_count, proj_deleted)

    if _txn is None and not txn.read_only:
        cluster.commit(txn, epoch=epoch)
    return deleted_count


def update_table(
    cluster,
    table_name: str,
    assignments: List[Tuple[str, Expr]],
    predicate: Optional[Expr],
) -> int:
    """UPDATE = DELETE + INSERT of modified tuples, one transaction."""
    node = cluster.any_up_node()
    state = node.catalog.state
    table = state.table(table_name)
    for column, _ in assignments:
        if column not in table.schema:
            raise CatalogError(f"no column {column!r} in table {table_name!r}")

    txn = Transaction()
    deleted: List[RowSet] = []
    count = delete_from(
        cluster, table_name, predicate, 0, _txn=txn, _collect_deleted=deleted
    )
    if count == 0:
        return 0
    old_rows = RowSet.concat(deleted).select(table.schema.names)
    new_columns = dict(old_rows.columns)
    for column, expr in assignments:
        new_columns[column] = expr.evaluate(old_rows)
    new_rows = RowSet(old_rows.schema, new_columns)
    write_rows(cluster, table, new_rows, txn)
    cluster.commit(txn, epoch=0)
    return count
