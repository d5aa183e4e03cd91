"""Peer-to-peer cache warming (sections 5.2 and 6.1).

"When a node subscribes to a shard, it warms up its cache to resemble the
cache of its peer.  The node attempts to select a peer from the same
subcluster, if any ... The subscriber supplies the peer with a capacity
target and the peer supplies a list of most-recently-used files that fit
within the budget.  The subscriber can then either fetch the files from
shared storage or from the peer itself."

Warming is a *byte-based file copy*, not an executed query plan — the key
operational difference from Enterprise recovery (section 6.1).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import List, Optional

from repro.cache.disk_cache import FileCache
from repro.errors import ObjectNotFound
from repro.shared_storage.api import Filesystem, retrying


@dataclass
class WarmingReport:
    """Outcome of one warming pass."""

    requested: int = 0
    copied_from_peer: int = 0
    fetched_from_shared: int = 0
    already_present: int = 0
    missing: int = 0
    bytes_transferred: int = 0
    files: List[str] = field(default_factory=list)


def warm_from_peer(
    subscriber: FileCache,
    peer: FileCache,
    shared: Filesystem,
    budget_bytes: Optional[int] = None,
    prefer_peer: bool = True,
    shard_id: Optional[int] = None,
) -> WarmingReport:
    """Warm ``subscriber`` to resemble ``peer``'s cache.

    Incremental by construction: files the subscriber already holds are
    skipped, so re-subscription after a short outage ("a lukewarm cache")
    transfers only what is missing.  When ``shard_id`` is given, only the
    peer's files for that shard are considered (subscribing to one shard
    must not pull another shard's working set).
    """
    if budget_bytes is None:
        budget_bytes = subscriber.capacity_bytes
    report = WarmingReport()
    for name in peer.warm_list(budget_bytes):
        if shard_id is not None:
            info_shard = peer.info_of(name).shard_id
            if info_shard is not None and info_shard != shard_id:
                continue
        report.requested += 1
        if subscriber.contains(name):
            report.already_present += 1
            continue
        data: Optional[bytes] = None
        if prefer_peer:
            # Out-of-band read: warming must not inflate the peer's demand
            # hit counts or reorder its LRU (its eviction decisions should
            # reflect its own workload, and ``byte_hit_rate`` denominators
            # must reconcile with depot_activity — see the stats audit).
            data = peer.peek(name)
            if data is not None:
                report.copied_from_peer += 1
        if data is None:
            try:
                data = retrying(lambda n=name: shared.read(n), shared.metrics)
                report.fetched_from_shared += 1
            except ObjectNotFound:
                report.missing += 1
                continue
        # The file's layout travels with its bytes, as a writer's does: the
        # subscriber's first read of a warmed file parses no footer.
        if subscriber.put(name, data, info=peer.info_of(name), layout=peer.layout_of(name)):
            report.bytes_transferred += len(data)
            report.files.append(name)
    return report
