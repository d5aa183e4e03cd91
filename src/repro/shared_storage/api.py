"""The user-defined filesystem (UDFS) API — section 5.3, Figure 9.

All engine file access goes through :class:`Filesystem` so the same scan,
load, and catalog code runs against a node's local disk and the simulated
S3, the one shared backend (section 5.1).  The operations are S3's: an object is written
once and read, listed, sized or deleted whole — there is no rename and no
append.  The interface deliberately omits ``exists``-via-HEAD: the
paper notes that a HEAD probe downgrades S3's read-after-write consistency
for new objects, so Vertica checks existence with the *list* API.  We bake
that into the interface: existence checks are spelled ``fs.contains(name)``
and backends implement it with their listing primitive.

Shared-storage operations can (and will) fail transiently; :func:`retrying`
is the "properly balanced retry loop" the paper requires, with exponential
backoff charged to the metrics object rather than wall-clock sleeps.
"""

from __future__ import annotations

import abc
from bisect import bisect_left
from dataclasses import dataclass, field
from typing import Callable, Dict, List, Tuple, TypeVar

from repro.errors import TransientStorageError
from repro.obs.metrics import Ledger


#: The request classes every backend accounts for.  SELECT is server-side
#: compute (S3-Select-style); backends without it leave the class at zero.
OP_CLASSES: Tuple[str, ...] = ("DELETE", "GET", "LIST", "PUT", "SELECT")


@dataclass
class OpStats(Ledger):
    """The ledger of one request class of one backend.

    ``bytes`` is payload read (GET), written (PUT) or scanned server-side
    (SELECT).  ``transient_faults`` counts injected failures observed by
    this class; ``throttled`` is the subset raised while a fault burst was
    active — the distinction the paper's throttling discussion turns on.
    """

    requests: int = 0
    bytes: int = 0
    sim_seconds: float = 0.0
    dollars: float = 0.0
    transient_faults: int = 0
    throttled: int = 0


def _of_class(op: str, name: str) -> property:
    return property(lambda self: getattr(self.ops[op], name))


@dataclass
class StorageMetrics:
    """One backend's request totals: a read-only view over its per-class
    ledgers (``ops``), beside the two things no class holds.

    ``sim_seconds`` and ``dollars`` are the order-of-arrival sums the sim
    clock is read from; float addition does not regroup, so the per-class
    sums cannot reproduce them to the last digit and
    :meth:`Filesystem._charge` — the one place a request is booked — adds
    each request's seconds and dollars to its class and to these.
    ``transient_failures`` / ``retry_backoff_seconds`` belong to the retry
    loop (:func:`retrying`), not to a request class.
    """

    ops: Dict[str, OpStats] = field(
        default_factory=lambda: {op: OpStats() for op in OP_CLASSES}
    )
    sim_seconds: float = 0.0
    dollars: float = 0.0
    transient_failures: int = 0
    retry_backoff_seconds: float = 0.0

    get_requests = _of_class("GET", "requests")
    put_requests = _of_class("PUT", "requests")
    list_requests = _of_class("LIST", "requests")
    delete_requests = _of_class("DELETE", "requests")
    bytes_read = _of_class("GET", "bytes")
    bytes_written = _of_class("PUT", "bytes")

    @property
    def total_requests(self) -> int:
        """Requests of the four object classes; SELECT rides on top."""
        return sum(
            self.ops[op].requests for op in OP_CLASSES if op != "SELECT"
        )


class NameIndex:
    """The sorted names of a dict-backed store's objects, kept in step with
    the dict, so a prefix listing is a bisect range, not a scan and a sort."""

    def __init__(self) -> None:
        self._names: List[str] = []

    def add(self, name: str) -> None:
        i = bisect_left(self._names, name)
        if i == len(self._names) or self._names[i] != name:
            self._names.insert(i, name)

    def discard(self, name: str) -> None:
        i = bisect_left(self._names, name)
        if i < len(self._names) and self._names[i] == name:
            del self._names[i]

    def with_prefix(self, prefix: str) -> List[str]:
        names = self._names
        lo = bisect_left(names, prefix)
        # Names with the prefix sort contiguously from ``lo``, below the
        # prefix with its last character (that has a successor) incremented.
        stem = prefix.rstrip("\U0010ffff")
        if not stem:
            return names[lo:]
        return names[lo:bisect_left(names, stem[:-1] + chr(ord(stem[-1]) + 1), lo)]


class Filesystem(abc.ABC):
    """Abstract UDFS backend."""

    def __init__(self) -> None:
        self.metrics = StorageMetrics()

    @property
    def op_stats(self) -> Dict[str, OpStats]:
        """Per-request-class ledgers (shared with whatever shares
        ``metrics``: a :class:`PrefixView`, a :class:`RetryingFilesystem`)."""
        return self.metrics.ops

    def _charge(
        self, op: str, nbytes: int = 0, seconds: float = 0.0, dollars: float = 0.0
    ) -> None:
        """Book one served request of class ``op`` — the only writer of the
        request ledger."""
        metrics = self.metrics
        stats = metrics.ops[op]
        stats.requests += 1
        stats.bytes += nbytes
        stats.sim_seconds += seconds
        stats.dollars += dollars
        metrics.sim_seconds += seconds
        metrics.dollars += dollars

    # -- required operations --------------------------------------------------

    @abc.abstractmethod
    def write(self, name: str, data: bytes) -> None:
        """Create object ``name`` with ``data``.

        Library code never overwrites: storage names are globally unique
        SIDs and files are immutable once written (section 5.1).  Backends
        may reject overwrites of existing objects.
        """

    @abc.abstractmethod
    def read(self, name: str) -> bytes:
        """Return the full contents of ``name``; ObjectNotFound if absent."""

    @abc.abstractmethod
    def list(self, prefix: str = "") -> List[str]:
        """All object names starting with ``prefix``, sorted."""

    @abc.abstractmethod
    def delete(self, name: str) -> None:
        """Remove ``name``; deleting a missing object is not an error
        (delete must be idempotent for crash-retry safety)."""

    @abc.abstractmethod
    def size(self, name: str) -> int:
        """Byte size of ``name``; ObjectNotFound if absent."""

    # -- derived operations ----------------------------------------------------

    def contains(self, name: str) -> bool:
        """Existence check via the list API (never HEAD — see module doc)."""
        return name in self.list(prefix=name)

    # -- cost estimation (used by the engine's cost model) ---------------------

    def estimate_read_seconds(self, nbytes: int) -> float:
        return 0.0

    def estimate_write_seconds(self, nbytes: int) -> float:
        return 0.0


T = TypeVar("T")

#: The retry schedule: attempts and the base backoff (simulated seconds).
MAX_ATTEMPTS = 5
BASE_BACKOFF = 0.05


def retrying(operation: Callable[[], T], metrics: StorageMetrics | None = None) -> T:
    """Run ``operation`` with exponential backoff on transient failures.

    Non-transient :class:`StorageError` propagates immediately (queries must
    stay cancellable; only throttling/internal errors are retried).
    """
    attempt = 0
    while True:
        try:
            return operation()
        except TransientStorageError:
            attempt += 1
            if metrics is not None:
                metrics.transient_failures += 1
            if attempt >= MAX_ATTEMPTS:
                raise
            if metrics is not None:
                metrics.retry_backoff_seconds += BASE_BACKOFF * (2 ** (attempt - 1))


class RetryingFilesystem(Filesystem):
    """Decorator applying the retry loop to the UDFS operations of a backend.

    Catalog sync, cluster_info writes, and revive downloads run through
    this wrapper so transient S3 failures cannot break the durability
    pipeline (section 5.3's "properly balanced retry loop").  It wraps a
    node's metadata area only, so it offers none of S3's data-path calls.
    """

    def __init__(self, base: Filesystem):
        super().__init__()
        self._base = base
        self.metrics = base.metrics

    def _retry(self, operation):
        return retrying(operation, self.metrics)

    def write(self, name: str, data: bytes) -> None:
        self._retry(lambda: self._base.write(name, data))

    def read(self, name: str) -> bytes:
        return self._retry(lambda: self._base.read(name))

    def list(self, prefix: str = "") -> List[str]:
        return self._retry(lambda: self._base.list(prefix))

    def delete(self, name: str) -> None:
        self._retry(lambda: self._base.delete(name))

    def size(self, name: str) -> int:
        return self._retry(lambda: self._base.size(name))



class PrefixView(Filesystem):
    """A namespaced view over another filesystem.

    Used to give each database (and each incarnation) its own region of the
    shared-storage namespace without copying data.  The data area is one,
    so it passes S3's coalesced GET and server-side select through.
    """

    def __init__(self, base: Filesystem, prefix: str):
        super().__init__()
        self._base = base
        self._prefix = prefix
        self.metrics = base.metrics  # share accounting with the base store

    def _full(self, name: str) -> str:
        return self._prefix + name

    def write(self, name: str, data: bytes) -> None:
        self._base.write(self._full(name), data)

    def read(self, name: str) -> bytes:
        return self._base.read(self._full(name))

    def list(self, prefix: str = "") -> List[str]:
        plen = len(self._prefix)
        return [n[plen:] for n in self._base.list(self._full(prefix))]

    def delete(self, name: str) -> None:
        self._base.delete(self._full(name))

    def size(self, name: str) -> int:
        return self._base.size(self._full(name))

    def read_coalesced(self, names: List[str]) -> Dict[str, bytes]:
        plen = len(self._prefix)
        raw = self._base.read_coalesced([self._full(n) for n in names])
        return {full[plen:]: data for full, data in raw.items()}

    def select_scan(self, name: str, columns=None, predicate=None):
        return self._base.select_scan(self._full(name), columns, predicate)

    def estimate_read_seconds(self, nbytes: int) -> float:
        return self._base.estimate_read_seconds(nbytes)

    def estimate_write_seconds(self, nbytes: int) -> float:
        return self._base.estimate_write_seconds(nbytes)

    def estimate_select_seconds(self, scanned_bytes: int, returned_bytes: int) -> float:
        return self._base.estimate_select_seconds(scanned_bytes, returned_bytes)
