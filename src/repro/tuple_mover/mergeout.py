"""Mergeout: ROS container compaction (sections 2.3 and 6.2).

Strata selection: containers are bucketed by size into exponential tiers
(tier k holds containers of ~``base * width**k`` bytes).  When a tier
accumulates ``strata_width`` containers they merge into one container a
tier up — so any tuple participates in at most ``log_width(total)``
merges, the "exponentially tiered strata algorithm" that bounds write
amplification.

Deleted rows are purged during mergeout ("deleted data is purged during
mergeout and the number of deleted records on a storage is a factor in its
selection").

Eon coordination: exactly one subscriber per shard is the mergeout
coordinator (stored as a committed cluster property).  If the coordinator
fails, the cluster commits a transaction selecting a new one, keeping the
load balanced across subscribers.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

from repro.cache.disk_cache import ObjectInfo
from repro.catalog.mvcc import op_add_container, op_drop_container, op_set_property
from repro.cluster.transactions import Transaction
from repro.errors import ClusterError
from repro.sharding.shard import REPLICA_SHARD_ID
from repro.storage.container import (
    ROSContainer,
    RowSet,
    container_stats,
    read_container,
    write_container,
)
from repro.storage.delete_vector import (
    combine_positions,
    mask_from_positions,
    read_delete_vector,
)

#: Default strata geometry.
STRATA_BASE_BYTES = 4096
STRATA_WIDTH = 4


def _stratum_of(size_bytes: int, base: int = STRATA_BASE_BYTES, width: int = STRATA_WIDTH) -> int:
    stratum = 0
    bound = base
    while size_bytes > bound:
        stratum += 1
        bound *= width
    return stratum


def select_mergeout_candidates(
    containers: Sequence[ROSContainer],
    deleted_counts: Optional[Dict[str, int]] = None,
    strata_width: int = STRATA_WIDTH,
    base_bytes: int = STRATA_BASE_BYTES,
) -> List[List[ROSContainer]]:
    """Pick groups of containers to merge.

    A stratum holding ``strata_width`` or more containers yields one merge
    job (its smallest members first — classic tiered compaction).
    Containers with many deleted rows get a stratum discount so they merge
    sooner and their tombstones are purged.
    """
    deleted_counts = deleted_counts or {}
    strata: Dict[int, List[ROSContainer]] = {}
    for container in containers:
        stratum = _stratum_of(container.size_bytes, base_bytes, strata_width)
        deleted = deleted_counts.get(str(container.sid), 0)
        if container.row_count and deleted / container.row_count >= 0.2:
            stratum = max(0, stratum - 1)  # favour purging heavy deleters
        strata.setdefault(stratum, []).append(container)
    jobs: List[List[ROSContainer]] = []
    for stratum in sorted(strata):
        members = sorted(strata[stratum], key=lambda c: (c.size_bytes, str(c.sid)))
        while len(members) >= strata_width:
            jobs.append(members[:strata_width])
            members = members[strata_width:]
    return jobs


@dataclass
class MergeoutReport:
    jobs_run: int = 0
    containers_merged: int = 0
    containers_written: int = 0
    rows_purged: int = 0
    bytes_read: int = 0
    bytes_written: int = 0


class MergeoutCoordinatorService:
    """Per-shard mergeout coordination for an Eon cluster."""

    def __init__(self, cluster, strata_width: int = STRATA_WIDTH,
                 base_bytes: int = STRATA_BASE_BYTES):
        self.cluster = cluster
        self.strata_width = strata_width
        self.base_bytes = base_bytes

    # -- coordinator election -------------------------------------------------------

    @staticmethod
    def _property_key(shard_id: int) -> str:
        return f"mergeout_coordinator_{shard_id}"

    def coordinator_of(self, shard_id: int) -> Optional[str]:
        state = self.cluster.any_up_node().catalog.state
        name = state.properties.get(self._property_key(shard_id))
        return name if isinstance(name, str) else None

    def ensure_coordinators(self) -> Dict[int, str]:
        """Elect (or re-elect after failure) one coordinator per shard,
        balancing the count of shards each node coordinates."""
        cluster = self.cluster
        assignments: Dict[int, str] = {}
        load: Dict[str, int] = {n.name: 0 for n in cluster.up_nodes()}
        txn = Transaction()
        changed = False
        for shard_id in cluster.shard_map.all_shard_ids():
            current = self.coordinator_of(shard_id)
            subscribers = cluster.active_up_subscribers(shard_id)
            if current is not None and current in subscribers:
                assignments[shard_id] = current
                load[current] = load.get(current, 0) + 1
                continue
            if not subscribers:
                raise ClusterError(f"no up subscriber for shard {shard_id}")
            chosen = min(subscribers, key=lambda n: (load.get(n, 0), n))
            load[chosen] = load.get(chosen, 0) + 1
            assignments[shard_id] = chosen
            txn.add_op(op_set_property(self._property_key(shard_id), chosen))
            changed = True
        if changed:
            cluster.commit(txn)
        return assignments

    # -- running mergeout -----------------------------------------------------------------

    def run_shard(self, shard_id: int, max_jobs: Optional[int] = None) -> MergeoutReport:
        """Run pending mergeout jobs for a shard on its coordinator."""
        cluster = self.cluster
        coordinators = self.ensure_coordinators()
        coordinator_name = coordinators[shard_id]
        node = cluster.nodes[coordinator_name]
        state = node.catalog.state
        report = MergeoutReport()

        # Group per (projection, partition): Vertica never merges across
        # partitions, so partition pruning keeps working after mergeout.
        by_projection: Dict[Tuple[str, object], List[ROSContainer]] = {}
        for container in state.containers.values():
            if container.shard_id == shard_id:
                key = (container.projection, container.partition_key)
                by_projection.setdefault(key, []).append(container)

        deleted_counts = {
            str(dv.target_sid): dv.deleted_count
            for dv in state.delete_vectors.values()
        }

        for projection_name, partition_key in sorted(
            by_projection, key=lambda k: (k[0], str(k[1]))
        ):
            jobs = select_mergeout_candidates(
                by_projection[(projection_name, partition_key)],
                deleted_counts,
                self.strata_width,
                self.base_bytes,
            )
            if max_jobs is not None:
                jobs = jobs[: max(0, max_jobs - report.jobs_run)]
            for job in jobs:
                self._run_job(node, state, projection_name, shard_id, job, report)
        return report

    def run_all(self, max_jobs_per_shard: Optional[int] = None) -> MergeoutReport:
        total = MergeoutReport()
        for shard_id in self.cluster.shard_map.all_shard_ids():
            r = self.run_shard(shard_id, max_jobs_per_shard)
            total.jobs_run += r.jobs_run
            total.containers_merged += r.containers_merged
            total.containers_written += r.containers_written
            total.rows_purged += r.rows_purged
            total.bytes_read += r.bytes_read
            total.bytes_written += r.bytes_written
        return total

    def _run_job(
        self,
        node,
        state,
        projection_name: str,
        shard_id: int,
        job: List[ROSContainer],
        report: MergeoutReport,
    ) -> None:
        cluster = self.cluster
        sort_order: Tuple[str, ...] = ()
        projection = state.projections.get(projection_name)
        if projection is not None:
            sort_order = tuple(projection.sort_order)
        else:
            lap = state.live_aggs.get(projection_name)
            if lap is not None:
                sort_order = tuple(lap.group_by)

        parts: List[RowSet] = []
        purged = 0
        bytes_before = report.bytes_read
        for container in job:
            data, _, _ = node.fetch_storage(container.location, cluster.shared_data)
            report.bytes_read += len(data)
            rows = read_container(data).read_rowset()
            dvs = state.delete_vectors_for(str(container.sid))
            if dvs:
                positions = combine_positions(
                    [
                        read_delete_vector(
                            node.fetch_storage(dv.location, cluster.shared_data)[0]
                        )
                        for dv in dvs
                    ]
                )
                purged += len(positions)
                rows = rows.filter(mask_from_positions(positions, container.row_count))
            parts.append(rows)
        bytes_in = report.bytes_read - bytes_before
        merged = RowSet.concat(parts).sort_by(list(sort_order))
        data = write_container(merged)
        sid = node.sid_factory.next_sid()
        info = ObjectInfo(projection=projection_name, shard_id=shard_id)
        # "The file compaction mechanism (mergeout) puts its output files
        # into the cache and also uploads them to the shared storage."
        node.write_storage(str(sid), data, cluster.shared_data, info=info)
        mins, maxs = container_stats(merged)
        txn = Transaction()
        if shard_id != REPLICA_SHARD_ID:
            txn.expect_subscription(shard_id, node.name)
        txn.add_op(
            op_add_container(
                ROSContainer(
                    sid=sid,
                    projection=projection_name,
                    shard_id=shard_id,
                    row_count=merged.num_rows,
                    size_bytes=len(data),
                    min_values=mins,
                    max_values=maxs,
                    partition_key=job[0].partition_key,
                )
            )
        )
        for container in job:
            txn.add_op(op_drop_container(str(container.sid), shard_id))
        # "The input containers are dropped at the end of the mergeout
        # transaction" — the commit informs the other subscribers.
        cluster.commit(txn)
        report.jobs_run += 1
        report.containers_merged += len(job)
        report.containers_written += 1
        report.rows_purged += purged
        report.bytes_written += len(data)
        # Peer caches get the merged file too.
        for peer_name in cluster.active_up_subscribers(shard_id):
            if peer_name != node.name:
                cluster.nodes[peer_name].cache.put(str(sid), data, info=info)
        obs = getattr(cluster, "obs", None)  # enterprise clusters have none
        if obs is not None and obs.enabled:
            shared = cluster.shared_data
            obs.tracer.record(
                "mergeout_job",
                duration=shared.estimate_read_seconds(bytes_in)
                + shared.estimate_write_seconds(len(data)),
                node=node.name,
                projection=projection_name,
                shard=shard_id,
                containers_in=len(job),
                bytes_read=bytes_in,
                bytes_written=len(data),
                rows_purged=purged,
            )
