"""File deletion and leaked-file cleanup (section 6.5).

Files on shared storage are never modified, so the only hard problem is
when to *delete* them.  A file whose catalog reference count reached zero
(the drop of its container, projection or table committed) may still be
needed because

1. a query on some node still reads a snapshot that references it — nodes
   gossip the minimum catalog version of their running queries, and the
   file is safe to delete only once the cluster-wide minimum passes the
   drop version; and
2. the commit that dropped it may not have been persisted to shared
   storage yet — a total local-disk loss could revive to a version where
   the file is live again, so deletion also waits for the truncation
   version to pass the drop version.

Leaked files (created by a node that crashed before telling anyone) are
collected by the explicit :meth:`cleanup_leaked_files` sweep: enumerate
shared storage, keep everything any node references or that carries a
running node's instance-id prefix, delete the rest.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Set, Tuple

from repro.obs.metrics import Ledger


@dataclass
class ReapStats(Ledger):
    """What the reaper did: one poll's, or (``FileReaper.stats``) every
    poll's folded in.  Summed over polls, the two ``retained_*`` fields
    count retain decisions: a file held back for three polls counts three."""

    deleted: int = 0
    retained_for_queries: int = 0
    retained_for_durability: int = 0
    leaked_deleted: int = 0


class FileReaper:
    def __init__(self, cluster) -> None:
        self._cluster = cluster
        #: (sid, version at which its reference count hit zero)
        self._pending: List[Tuple[str, int]] = []
        self.stats = ReapStats()

    def note_drop(self, sid: str, drop_version: int) -> None:
        self._pending.append((sid, drop_version))

    def pending_sids(self) -> Set[str]:
        """Dropped-but-not-yet-deleted storage names (invariant accessor)."""
        return {sid for sid, _v in self._pending}

    def cluster_min_query_version(self) -> int:
        """The gossiped minimum catalog version of running queries.

        Each node reports the oldest version its pinned snapshots
        reference (monotonically increasing per node); the cluster minimum
        bounds which dropped files queries could still touch.
        """
        cluster = self._cluster
        versions = [
            node.catalog.min_pinned_version() for node in cluster.up_nodes()
        ]
        return min(versions) if versions else cluster.version

    def poll(self) -> ReapStats:
        """Delete every pending file that is safe to delete now."""
        cluster = self._cluster
        min_query = self.cluster_min_query_version()
        truncation = cluster.last_truncation_version
        stats = ReapStats()
        remaining: List[Tuple[str, int]] = []
        for sid, drop_version in self._pending:
            # Storage can be re-referenced after a drop (partition moves,
            # table copies); a currently-referenced file is never deleted.
            if cluster.references(sid):
                continue  # re-referenced: no longer pending at all
            # Snapshots strictly older than the drop version still
            # reference the file; one at the drop version does not.
            if drop_version > min_query:
                stats.retained_for_queries += 1
                remaining.append((sid, drop_version))
                continue
            if drop_version > truncation:
                stats.retained_for_durability += 1
                remaining.append((sid, drop_version))
                continue
            cluster.shared_data.delete(sid)
            stats.deleted += 1
        self._pending = remaining
        self.stats.add(stats)
        obs = getattr(cluster, "obs", None)
        if obs is not None and obs.enabled:
            obs.tracer.record(
                "reaper_sweep",
                deleted=stats.deleted,
                retained_for_queries=stats.retained_for_queries,
                retained_for_durability=stats.retained_for_durability,
                pending=len(remaining),
            )
        return stats

    def cleanup_leaked_files(self) -> int:
        """The global enumeration fallback.  Expensive; run manually after
        crashes."""
        cluster = self._cluster
        referenced: Set[str] = set()
        for node in cluster.up_nodes():
            referenced |= node.catalog.state.storage_sids()
        referenced |= {sid for sid, _v in self._pending}
        running_prefixes = cluster.running_instance_prefixes()
        deleted = 0
        for name in cluster.shared_data.list():
            if name in referenced:
                continue
            if any(name.startswith(p) for p in running_prefixes):
                continue  # possibly mid-write by a live node
            cluster.shared_data.delete(name)
            deleted += 1
        self.stats.leaked_deleted += deleted
        return deleted
