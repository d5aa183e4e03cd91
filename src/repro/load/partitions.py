"""Partition management operations (sections 2.1 and 4.5).

Vertica supports metadata-only partition operations — "partition
management operations such as copy, move partitions will run according to
the selected mapping of nodes to shards" — and "supports operations like
copy_table and swap_partition which can reference the same storage in
multiple tables, so storage is not tied to a specific table".

Because containers are immutable and live in a flat shared-storage
namespace, moving a partition between tables never touches data: the
container *metadata* is dropped from the source projection and added to
the destination projection under a fresh SID that points at the same
storage location... except SIDs *are* locations in this design, so a move
re-attaches the same container object to the destination projection.
Dropping a partition is likewise a metadata-only operation; the file
reaper deletes the bytes later, once no catalog references them and the
durability conditions hold (section 6.5).
"""

from __future__ import annotations

from dataclasses import replace
from typing import Dict, List, Optional, Tuple

from repro.catalog.mvcc import op_add_container, op_drop_container
from repro.cluster.transactions import Transaction
from repro.errors import CatalogError
from repro.sharding.shard import REPLICA_SHARD_ID
from repro.storage.container import ROSContainer


def _partition_containers(cluster, table_name: str, partition_key: object):
    """Collect (container, shard) pairs of a partition across all shards.

    Storage metadata is sharded, so each shard's containers come from one
    of its subscribers' catalogs.
    """
    coordinator = cluster.any_up_node()
    table = coordinator.catalog.state.table(table_name)
    if table.partition_by is None:
        raise CatalogError(f"table {table_name!r} is not partitioned")
    found: List[ROSContainer] = []
    seen = set()
    for projection in coordinator.catalog.state.projections_of(table_name):
        if projection.is_buddy:
            continue
        shard_ids = (
            [REPLICA_SHARD_ID]
            if projection.segmentation.is_replicated
            else cluster.shard_map.shard_ids()
        )
        for shard_id in shard_ids:
            holder_name = cluster.writer_for_shard(shard_id)
            state = cluster.nodes[holder_name].catalog.state
            for container in state.containers_of(projection.name, shard_id):
                if container.partition_key == partition_key and str(container.sid) not in seen:
                    seen.add(str(container.sid))
                    found.append(container)
    return table, found


def drop_partition(cluster, table: str, partition_key: object) -> int:
    """Drop every container of one partition; returns rows dropped.

    Metadata-only: "partitioning the data allows for quick file pruning"
    and equally quick retirement — no delete vectors, no rewrites.
    """
    _table, containers = _partition_containers(cluster, table, partition_key)
    if not containers:
        return 0
    txn = Transaction()
    rows = 0
    for container in containers:
        txn.add_op(op_drop_container(str(container.sid), container.shard_id))
        if not _is_buddy_projection(cluster, container.projection):
            rows += container.row_count
    cluster.commit(txn)
    # Rows counted once per logical copy: divide by projection count.
    projections = [
        p for p in cluster.any_up_node().catalog.state.projections_of(table)
        if not p.is_buddy
    ]
    return rows // max(len(projections), 1)


def move_partition(cluster, source: str, target: str, partition_key: object) -> int:
    """Re-attach a partition's containers to another table's projections.

    The two tables must have structurally matching non-buddy projections
    (same column sets, sort orders, and segmentation) — the condition
    under which the same physical file is valid in both. Data files are
    not read, copied, or rewritten; only catalog metadata commits.
    Returns the number of containers moved.
    """
    coordinator = cluster.any_up_node()
    state = coordinator.catalog.state
    if state.table(target).partition_by is None:
        raise CatalogError(f"table {target!r} is not partitioned")
    mapping = _match_projections(cluster, source, target)

    _src_table, containers = _partition_containers(cluster, source, partition_key)
    if not containers:
        return 0
    # Refuse if the target already holds this partition (swap ambiguity).
    for projection_name in mapping.values():
        for shard_id in list(cluster.shard_map.shard_ids()) + [REPLICA_SHARD_ID]:
            holder = cluster.nodes[cluster.writer_for_shard(shard_id)]
            for container in holder.catalog.state.containers_of(projection_name, shard_id):
                if container.partition_key == partition_key:
                    raise CatalogError(
                        f"target {target!r} already holds partition "
                        f"{partition_key!r}"
                    )

    txn = Transaction()
    for container in containers:
        target_projection = mapping[container.projection]
        txn.add_op(op_drop_container(str(container.sid), container.shard_id))
        txn.add_op(
            op_add_container(replace(container, projection=target_projection))
        )
        if container.shard_id != REPLICA_SHARD_ID:
            # The move must not race with subscription changes.
            writers = cluster.active_up_subscribers(container.shard_id)
            if writers:
                txn.expect_subscription(container.shard_id, writers[0])
    cluster.commit(txn)
    return len(containers)


def _match_projections(cluster, source_table: str, target_table: str) -> Dict[str, str]:
    """Map each source projection to its structural twin on the target."""
    state = cluster.any_up_node().catalog.state
    sources = [p for p in state.projections_of(source_table) if not p.is_buddy]
    targets = [p for p in state.projections_of(target_table) if not p.is_buddy]
    mapping: Dict[str, str] = {}
    for src in sources:
        twin = None
        for dst in targets:
            if (
                src.columns == dst.columns
                and src.sort_order == dst.sort_order
                and src.segmentation == dst.segmentation
            ):
                twin = dst
                break
        if twin is None:
            raise CatalogError(
                f"no projection of {target_table!r} matches {src.name!r} "
                "(columns, sort order, and segmentation must be identical)"
            )
        mapping[src.name] = twin.name
    return mapping


def _is_buddy_projection(cluster, projection_name: str) -> bool:
    projection = cluster.any_up_node().catalog.state.projections.get(projection_name)
    return bool(projection and projection.is_buddy)
