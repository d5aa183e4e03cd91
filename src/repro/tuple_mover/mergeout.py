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

from bisect import bisect_left, bisect_right
from dataclasses import dataclass
from itertools import repeat
from operator import attrgetter
from typing import Dict, List, Optional, Sequence, Tuple

from repro.catalog.mvcc import Op, op_drop_container, op_set_property
from repro.cluster.transactions import Transaction
from repro.errors import ClusterError
from repro.load.copy import DepotSink, write_stream
from repro.sharding.shard import REPLICA_SHARD_ID
from repro.storage.container import ROSContainer, RowSet, read_container
from repro.storage.delete_vector import (
    combine_positions,
    mask_from_positions,
    read_delete_vector,
)

#: Default strata geometry.
STRATA_BASE_BYTES = 4096
STRATA_WIDTH = 4


def _stratum_bounds(base: int, width: int) -> Tuple[int, ...]:
    """The strata's upper bounds: stratum k holds sizes in (bound k-1, bound k],
    so a size's stratum is its ``bisect_left`` in them."""
    bounds = [base]
    while bounds[-1] < 2**63:
        bounds.append(bounds[-1] * width)
    return tuple(bounds)


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
    sizes = list(map(attrgetter("size_bytes"), containers))
    names = list(map(attrgetter("location"), containers))
    strata = list(map(bisect_left, repeat(_stratum_bounds(base_bytes, strata_width)), sizes))
    if deleted_counts:
        position = dict(zip(names, range(len(names))))
        for name in deleted_counts.keys() & position.keys():
            i = position[name]
            rows = containers[i].row_count
            if rows and deleted_counts[name] / rows >= 0.2:
                strata[i] = max(0, strata[i] - 1)  # favour purging heavy deleters
    # Members by stratum, then size, then name.
    order = sorted(range(len(sizes)), key=list(zip(strata, sizes, names)).__getitem__)
    ordered = list(map(containers.__getitem__, order))
    ordered_strata = list(map(strata.__getitem__, order))
    jobs: List[List[ROSContainer]] = []
    for stratum in sorted(set(strata)):
        start = bisect_left(ordered_strata, stratum)
        full = bisect_right(ordered_strata, stratum) - start
        for i in range(start, start + full - full % strata_width, strata_width):
            jobs.append(ordered[i:i + strata_width])
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

        # The newest delete vector of a container gives its count.
        deleted_counts = {
            target: dvs[-1].deleted_count
            for target, dvs in state.delete_vectors_by_target().items()
        }
        for projection_name in sorted(state.projections.keys() | state.live_aggs.keys()):
            # Group per partition: Vertica never merges across partitions, so
            # partition pruning keeps working after mergeout.
            by_partition: Dict[object, List[ROSContainer]] = {}
            for container in state.containers_of(projection_name, shard_id):
                by_partition.setdefault(container.partition_key, []).append(container)
            for partition_key in sorted(by_partition, key=str):
                jobs = select_mergeout_candidates(
                    by_partition[partition_key],
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
        projection = state.projections.get(projection_name) or state.live_aggs[projection_name]
        # "The file compaction mechanism (mergeout) puts its output files
        # into the cache and also uploads them to the shared storage."
        sink = DepotSink(cluster, defer_push=True)
        merged = merge_job(state, projection, shard_id, job, node, sink)
        txn = Transaction()
        if shard_id != REPLICA_SHARD_ID:
            txn.expect_subscription(shard_id, node.name)
        for op in merged.ops:
            txn.add_op(op)
        # "The input containers are dropped at the end of the mergeout
        # transaction" — the commit informs the other subscribers, and
        # only then do the peer depots get the merged file.
        cluster.commit(txn)
        sink.push_deferred()
        report.jobs_run += 1
        report.containers_merged += len(job)
        report.containers_written += 1
        report.rows_purged += merged.rows_purged
        report.bytes_read += merged.bytes_read
        report.bytes_written += merged.bytes_written
        merged.record(cluster.obs, cluster.shared_data)


@dataclass
class MergedJob:
    """One mergeout job's output: the catalog ops (add the merged container,
    drop the inputs) and what the job read, wrote and purged."""

    node: str
    projection: str
    shard_id: int
    containers_in: int
    ops: List[Op]
    bytes_written: int
    bytes_read: int
    rows_purged: int

    def record(self, obs, storage) -> None:
        """The ``mergeout_job`` span, its I/O priced by ``storage``."""
        if obs.enabled:
            obs.tracer.record(
                "mergeout_job",
                duration=storage.estimate_read_seconds(self.bytes_read)
                + storage.estimate_write_seconds(self.bytes_written),
                node=self.node,
                projection=self.projection,
                shard=self.shard_id,
                containers_in=self.containers_in,
                bytes_read=self.bytes_read,
                bytes_written=self.bytes_written,
                rows_purged=self.rows_purged,
            )


def merge_job(state, projection, shard_id: int, job: List[ROSContainer], node, sink) -> MergedJob:
    """Read ``job``'s containers through ``sink``, purge their deleted rows
    and write the merge as one container of the job's partition on
    ``node`` — the job body both flavors run."""
    parts: List[RowSet] = []
    purged = bytes_read = 0
    for container in job:
        data = sink.read(node, container.location)
        bytes_read += len(data)
        rows = read_container(data).read_rowset()
        dvs = state.delete_vectors_for(str(container.sid))
        if dvs:
            positions = combine_positions(
                [read_delete_vector(sink.read(node, dv.location)) for dv in dvs]
            )
            purged += len(positions)
            rows = rows.filter(mask_from_positions(positions, container.row_count))
        parts.append(rows)
    op = write_stream(
        RowSet.concat(parts), projection, shard_id, job[0].partition_key, node, sink
    )
    drops = [op_drop_container(str(c.sid), shard_id) for c in job]
    return MergedJob(
        node.name, projection.name, shard_id, len(job), [op] + drops,
        op["container"]["size_bytes"], bytes_read, purged,
    )
