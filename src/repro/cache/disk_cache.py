"""The per-node disk cache of shared-storage files (section 5.2).

Semantics from the paper:

* caches *entire data files*; files are immutable so there is no
  invalidation path, only add and drop;
* eviction is LRU, except for entries pinned by a shaping policy;
* shaping policies express "don't use the cache for this query" (per-call
  ``use_cache=False``), "never cache table T2" (deny list), and "cache
  recent partitions of table T" (pin predicate);
* the cache is write-through on load and mergeout output;
* the whole cache can be cleared.

The cache stores bytes in a UDFS backend (a node's local disk).  Object
metadata (which table/projection/partition a file belongs to) is supplied
by the caller on ``put`` so policies can match on it.
"""

from __future__ import annotations

from collections import OrderedDict
from dataclasses import dataclass, field
from typing import Callable, Dict, Optional, Set

from repro.cache.lru import LruIndex
from repro.errors import ObjectNotFound
from repro.obs.metrics import Ledger
from repro.shared_storage.api import Filesystem

#: Layouts of evicted files a depot keeps for their next reader, least
#: recently evicted dropped first (see :meth:`FileCache.keep_layout`).
EVICTED_LAYOUTS = 256

#: Prefix of a cached file's name on the node's local disk.
FILE_PREFIX = "cache_"


@dataclass(frozen=True)
class ObjectInfo:
    """What the cache knows about a file, for shaping-policy matching and
    shard-targeted cache warming."""

    table: Optional[str] = None
    projection: Optional[str] = None
    partition_key: Optional[object] = None
    shard_id: Optional[int] = None


@dataclass
class ShapingPolicy:
    """Operator-configured cache shaping (section 5.2).

    ``deny_tables`` are never cached.  ``pin`` is a predicate over
    :class:`ObjectInfo`; matching files are exempt from LRU eviction (e.g.
    "cache recent partitions of table T" becomes a predicate on
    ``partition_key``).  Pinned files can still be dropped explicitly.
    """

    deny_tables: Set[str] = field(default_factory=set)
    pin: Optional[Callable[[ObjectInfo], bool]] = None

    def allows(self, info: ObjectInfo) -> bool:
        return info.table not in self.deny_tables

    def pins(self, info: ObjectInfo) -> bool:
        return self.pin is not None and self.pin(info)


@dataclass
class CacheStats(Ledger):
    """One depot's ledger (``v_monitor.depot_activity``; summed over the
    nodes, the ``depot`` section of ``cluster_metrics``)."""

    derived = ("hit_rate", "byte_hit_rate")

    hits: int = 0
    misses: int = 0
    insertions: int = 0
    evictions: int = 0
    rejected_by_policy: int = 0
    #: Byte-level accounting: event counts alone cannot answer the paper's
    #: depot-sizing question ("what fraction of *bytes* came from the
    #: depot?"), so track bytes served on hits, bytes inserted, bytes
    #: reclaimed by LRU eviction, and bytes fetched from shared storage
    #: after a miss (reported by the caller, which knows the fetch size).
    bytes_read: int = 0
    bytes_written: int = 0
    bytes_evicted: int = 0
    bytes_missed: int = 0
    #: Prefetch consumption is accounted separately from demand traffic: a
    #: scan that reads a file the I/O scheduler fetched speculatively was
    #: *not* a demand hit (the file was charged as a miss when fetched), so
    #: folding it into ``hits``/``bytes_read`` would double-count the bytes
    #: and push ``byte_hit_rate`` above what the depot actually absorbed.
    prefetch_hits: int = 0
    prefetch_bytes_read: int = 0

    @property
    def hit_rate(self) -> float:
        total = self.hits + self.misses
        return self.hits / total if total else 0.0

    @property
    def byte_hit_rate(self) -> float:
        total = self.bytes_read + self.bytes_missed
        return self.bytes_read / total if total else 0.0


class FileCache:
    """Size-bounded write-through file cache over a local filesystem."""

    def __init__(
        self,
        local_fs: Filesystem,
        capacity_bytes: int,
        policy: Optional[ShapingPolicy] = None,
    ):
        if capacity_bytes < 0:
            raise ValueError("capacity must be >= 0")
        self._fs = local_fs
        self.capacity_bytes = capacity_bytes
        self.policy = policy or ShapingPolicy()
        self._index = LruIndex()
        self._info: Dict[str, ObjectInfo] = {}
        self._pinned: Set[str] = set()
        #: Per cached file, what its reader learnt by opening it (see
        #: :meth:`keep_layout`); per evicted file the same, in eviction order.
        self._layouts: Dict[str, object] = {}
        self._evicted_layouts: "OrderedDict[str, object]" = OrderedDict()
        self.stats = CacheStats()
        #: Optional ``sink(event, name, size)`` called on depot events the
        #: Data Collector records (currently evictions).  Must be free of
        #: side effects on the cache itself.
        self.event_sink = None

    # -- core operations -------------------------------------------------------

    def put(
        self,
        name: str,
        data: bytes,
        info: Optional[ObjectInfo] = None,
        layout: Optional[object] = None,
    ) -> bool:
        """Insert a file; returns True if cached.

        Respects the shaping policy; the per-call escape hatch ("while
        loading archive data, write-through the cache can be turned off") is
        the caller's ``use_cache``, which skips ``put`` altogether.  Oversized
        files are not cached.  ``layout`` is the
        file's layout from its writer, kept as :meth:`keep_layout` keeps a
        reader's; without one, a layout kept from before an eviction returns.
        """
        info = info or ObjectInfo()
        if not self.policy.allows(info):
            self.stats.rejected_by_policy += 1
            return False
        if len(data) > self.capacity_bytes:
            return False
        if name in self._index:
            # Drop the old entry before making room: sizing eviction by the
            # delta is wrong when the eviction loop picks the entry being
            # replaced (its bytes would be reclaimed twice on paper, once
            # in reality, leaving the cache over capacity).
            self._forget(name)
        self._evict_for(len(data))
        self._fs.write(self._key(name), data)
        self._index.add(name, len(data))
        self._info[name] = info
        kept = self._evicted_layouts.pop(name, None)
        if layout is None:
            layout = kept
        if layout is not None:
            self._layouts[name] = layout
        if self.policy.pins(info):
            self._pinned.add(name)
        self.stats.insertions += 1
        self.stats.bytes_written += len(data)
        return True

    def get(self, name: str, use_cache: bool = True) -> Optional[bytes]:
        """Fetch a file; None on miss.  ``use_cache=False`` always misses
        (and does not disturb recency) — the "don't use the cache for this
        query" shaping policy."""
        if not use_cache or name not in self._index:
            self.stats.misses += 1
            return None
        try:
            data = self._fs.read(self._key(name))
        except ObjectNotFound:
            # Local disk lost the file (e.g. instance storage wiped);
            # self-heal the index and report a miss.
            self._forget(name)
            self.stats.misses += 1
            return None
        self._index.touch(name)
        self.stats.hits += 1
        self.stats.bytes_read += len(data)
        return data

    def peek(self, name: str) -> Optional[bytes]:
        """Read a cached file without touching stats or recency.

        Peer-depot fetches and other out-of-band readers use this: a
        remote node borrowing a file must not inflate this node's demand
        hit counts or reorder its LRU (the owner's eviction decisions
        should reflect only its own workload).
        """
        if name not in self._index:
            return None
        try:
            return self._fs.read(self._key(name))
        except ObjectNotFound:
            self._forget(name)  # self-heal, as in ``get``
            return None

    def note_prefetch_hit(self, name: str, nbytes: int) -> None:
        """Record that a scan consumed a prefetch-filled entry.

        Touches recency (the file *was* used) but books the bytes under
        the prefetch counters instead of ``hits``/``bytes_read`` — see
        :class:`CacheStats` for why.
        """
        if name in self._index:
            self._index.touch(name)
        self.stats.prefetch_hits += 1
        self.stats.prefetch_bytes_read += nbytes

    def contains(self, name: str) -> bool:
        return name in self._index

    def keep_layout(self, name: str, layout: object) -> None:
        """Keep what a reader parsed out of the cached file ``name`` for the
        next reader of it; ignored when the file is not cached.

        Files are immutable and a SID is never reused, so bytes fetched
        again under a name are the bytes the layout was parsed from: an
        evicted entry leaves its layout behind (at most
        :data:`EVICTED_LAYOUTS` of them) for the refetch to find.  It goes
        only when the name is dropped, overwritten by ``put`` while
        resident, self-healed or cleared.
        """
        if name in self._index:
            self._layouts[name] = layout

    def layout_of(self, name: str) -> Optional[object]:
        """The layout kept for ``name``, or None.  Out of band like
        :meth:`peek`: no stats, no recency."""
        layout = self._layouts.get(name)
        return layout if layout is not None else self._evicted_layouts.get(name)

    def drop(self, name: str) -> None:
        """Remove a file (e.g. its storage was dropped and dereferenced)."""
        self._evicted_layouts.pop(name, None)
        if name in self._index:
            self._fs.delete(self._key(name))
            self._forget(name)

    def clear(self) -> None:
        """Empty the cache completely (section 5.2: "If needed the cache
        can be cleared completely")."""
        for name in self._index.names():
            self._fs.delete(self._key(name))
        self._index = LruIndex()
        self._info.clear()
        self._pinned.clear()
        self._layouts.clear()
        self._evicted_layouts.clear()

    # -- warming support ----------------------------------------------------------

    def warm_list(self, budget_bytes: int) -> list:
        """Most-recently-used names fitting ``budget_bytes`` — what this
        node supplies when a new subscriber asks it to act as warming peer."""
        return self._index.most_recent_within(budget_bytes)

    def info_of(self, name: str) -> ObjectInfo:
        return self._info.get(name, ObjectInfo())

    def note_miss_bytes(self, nbytes: int) -> None:
        """Record how large a miss turned out to be.  ``get`` cannot know
        (the data lives on shared storage); the caller reports it after
        the shared fetch so :attr:`CacheStats.byte_hit_rate` is computable."""
        self.stats.bytes_missed += nbytes

    # -- internals -------------------------------------------------------------------

    def _key(self, name: str) -> str:
        return FILE_PREFIX + name

    def _forget(self, name: str) -> Optional[object]:
        """Forget the entry; its layout, if one was kept, is returned."""
        self._index.remove(name)
        self._info.pop(name, None)
        self._pinned.discard(name)
        return self._layouts.pop(name, None)

    def _evict_for(self, incoming: int) -> None:
        if incoming <= 0:
            return
        target = self.capacity_bytes - incoming
        if self._index.total_bytes <= target:
            return
        for name, size in self._index.least_recent():
            if self._index.total_bytes <= target:
                break
            if name in self._pinned:
                continue
            self._fs.delete(self._key(name))
            layout = self._forget(name)
            if layout is not None:
                self._evicted_layouts[name] = layout
                if len(self._evicted_layouts) > EVICTED_LAYOUTS:
                    self._evicted_layouts.popitem(last=False)
            self.stats.evictions += 1
            self.stats.bytes_evicted += size
            if self.event_sink is not None:
                self.event_sink("evict", name, size)

    # -- introspection ------------------------------------------------------------------

    @property
    def used_bytes(self) -> int:
        return self._index.total_bytes

    @property
    def pinned_bytes(self) -> int:
        return sum(self._index.size_of(n) or 0 for n in self._pinned)

    @property
    def file_count(self) -> int:
        return len(self._index)

    def capacity_violation(self) -> Optional[str]:
        """Invariant accessor: None when cached bytes respect capacity.

        Pinned entries are exempt from eviction, so a cache whose overflow
        is entirely attributable to pins is within contract; any other
        overflow is a bug (eviction failed to make room).
        """
        used = self._index.total_bytes
        if used <= self.capacity_bytes:
            return None
        if used - self.pinned_bytes <= self.capacity_bytes:
            return None  # overflow forced by shaping-policy pins
        return (
            f"cache holds {used} bytes > capacity {self.capacity_bytes} "
            f"(pinned {self.pinned_bytes})"
        )
