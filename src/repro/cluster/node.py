"""A database node: local disk, catalog, cache, and storage access.

Nodes are in-process objects; their "local disk" is a
:class:`MemoryFilesystem`.  Each node carries:

* a :class:`Catalog` filtered to its subscribed shards,
* a :class:`FileCache` (Eon) over its local disk,
* a :class:`SidFactory` whose 120-bit instance id is regenerated whenever
  the node process (re)starts — the property SID uniqueness rests on,
* execution-slot and rack/subcluster attributes used by session layout and
  the throughput simulations.
"""

from __future__ import annotations

import enum
import random
from typing import Dict, Optional, Tuple

from repro.cache.disk_cache import FileCache, ObjectInfo, ShapingPolicy
from repro.catalog.catalog import Catalog
from repro.common.oid import SidFactory
from repro.errors import ClusterError, NodeDown, ObjectNotFound
from repro.shared_storage.api import Filesystem, retrying
from repro.shared_storage.posix import MemoryFilesystem


class NodeState(enum.Enum):
    UP = "UP"
    DOWN = "DOWN"


def has_quorum(up: int, total: int) -> bool:
    """The quorum rule (section 3.4): more than half of ``total`` nodes are
    up.  A kill asks with one fewer up, a removal with the removed gone
    from both counts."""
    return total > 0 and up * 2 > total


def member(nodes: Dict[str, "Node"], name: str) -> "Node":
    """The node called ``name``; an unknown name is a :class:`ClusterError`."""
    if name not in nodes:
        raise ClusterError(f"no node {name!r} in the cluster")
    return nodes[name]


class Node:
    """One Vertica process."""

    def __init__(
        self,
        name: str,
        rng: random.Random,
        cache_bytes: int = 256 << 20,
        execution_slots: int = 4,
        subcluster: Optional[str] = None,
        rack: Optional[str] = None,
    ):
        self.name = name
        self.local_fs = MemoryFilesystem()
        self.catalog = Catalog(self.local_fs)
        self.cache = FileCache(self.local_fs, cache_bytes)
        self.cache_bytes = cache_bytes
        self._rng = rng
        self.sid_factory = SidFactory(self._rng)
        self.state = NodeState.UP
        self.execution_slots = execution_slots
        self.subcluster = subcluster
        self.rack = rack
        #: Count of storage fetches served from cache / shared storage.
        self.cache_reads = 0
        self.shared_reads = 0

    # -- lifecycle -------------------------------------------------------------

    @property
    def is_up(self) -> bool:
        return self.state == NodeState.UP

    def ensure_up(self) -> None:
        if not self.is_up:
            raise NodeDown(f"node {self.name} is down")

    def go_down(self, lose_local_disk: bool = False) -> None:
        """Crash the node.  ``lose_local_disk`` models instance loss (the
        EC2 machine is gone) versus process death (disk survives)."""
        self.state = NodeState.DOWN
        if lose_local_disk:
            self.local_fs = MemoryFilesystem()
            floor = self.catalog.truncation_floor
            self.catalog = Catalog(
                self.local_fs, subscribed_shards=self.catalog.subscribed_shards
            )
            # The advertised truncation version is the cluster's, not the
            # lost disk's: its uploads stay protected from pruning.
            self.catalog.truncation_floor = floor
            # A fresh policy *instance*, not the dead incarnation's object:
            # any per-entry state the policy carries (recency, frequency,
            # pin counts) describes files that no longer exist on the
            # replacement disk.  The event sink belongs to the node's slot
            # in the cluster, not the dead incarnation, so it carries over.
            sink = self.cache.event_sink
            self.cache = FileCache(
                self.local_fs, self.cache_bytes, type(self.cache.policy)()
            )
            self.cache.event_sink = sink

    def restart(self) -> None:
        """Bring the process back up: new instance id, catalog recovered
        from local disk (section 3.5: "Process termination results in
        reading the local transaction logs and no loss of transactions")."""
        self.state = NodeState.UP
        self.sid_factory = SidFactory(self._rng)
        self.catalog.recover()

    # -- storage access ----------------------------------------------------------

    def fetch_storage(
        self,
        name: str,
        shared: Filesystem,
        info: Optional[ObjectInfo] = None,
        use_cache: bool = True,
    ) -> Tuple[bytes, bool, float]:
        """Read a storage file through the cache.

        Returns ``(data, from_cache, io_seconds)``.  Misses fetch from
        shared storage (with the mandatory retry loop) and populate the
        cache write-through.  A hit costs no seconds here: what reads the
        file charges the blocks it decodes (a scan charges one local-disk
        request of them).
        """
        self.ensure_up()
        data = self.cache.get(name, use_cache=use_cache)
        if data is not None:
            self.cache_reads += 1
            return data, True, 0.0
        backoff_before = shared.metrics.retry_backoff_seconds
        data = retrying(lambda: shared.read(name), shared.metrics)
        self.shared_reads += 1
        self.cache.note_miss_bytes(len(data))
        # Retry backoff is query time, not just a metrics line: fold it
        # into this fetch's I/O seconds so a throttled scan reports higher
        # latency than an unthrottled one.
        io_seconds = shared.estimate_read_seconds(len(data)) + (
            shared.metrics.retry_backoff_seconds - backoff_before
        )
        if use_cache:
            self.cache.put(name, data, info=info)
        return data, False, io_seconds

    def write_storage(
        self,
        name: str,
        data: bytes,
        shared: Filesystem,
        info: Optional[ObjectInfo] = None,
        use_cache: bool = True,
        layout: Optional[object] = None,
    ) -> float:
        """Write a new storage file: cache write-through (with the writer's
        ``layout`` of it), then upload to shared storage *before commit*
        (Figure 8).  Returns io seconds."""
        self.ensure_up()
        if use_cache:
            self.cache.put(name, data, info=info, layout=layout)
        backoff_before = shared.metrics.retry_backoff_seconds
        retrying(lambda: shared.write(name, data), shared.metrics)
        # As in fetch_storage: throttled uploads cost simulated time.
        return shared.estimate_write_seconds(len(data)) + (
            shared.metrics.retry_backoff_seconds - backoff_before
        )

    def __repr__(self) -> str:
        return f"Node({self.name}, {self.state.value})"
