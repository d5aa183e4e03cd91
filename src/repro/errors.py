"""Exception hierarchy for the Eon-mode reproduction.

Every error raised by the library derives from :class:`ReproError` so callers
can catch library failures with a single ``except`` clause while still being
able to discriminate on the specific condition.
"""

from __future__ import annotations


class ReproError(Exception):
    """Base class for all errors raised by this library."""


class CatalogError(ReproError):
    """A catalog operation failed (missing object, duplicate name, ...)."""


class TransactionAborted(ReproError):
    """A transaction was rolled back.

    Raised both for explicit rollbacks and for commit-time validation
    failures (OCC write-set conflicts, subscription-change invariant
    violations per paper section 3.2/4.5).
    """


class OCCConflict(TransactionAborted):
    """Optimistic concurrency control validation failed at commit time."""


class StorageError(ReproError):
    """A storage-layer (local or shared) operation failed."""


class ObjectNotFound(StorageError):
    """The requested object does not exist in the filesystem/object store."""


class CorruptBlock(StorageError):
    """An encoded column block is truncated or damaged.

    Raised by :func:`repro.storage.encoding.decode_block` when the bytes it
    is given are not a whole valid block: header too short, unknown
    encoding or dtype code, payload ending before the header's row count
    is reached, a dictionary code outside the dictionary, or run lengths
    that do not add up to the row count.
    """


class TransientStorageError(StorageError):
    """A retryable shared-storage failure (throttling, internal error).

    The simulated S3 backend raises this to exercise the retry loop that
    section 5.3 of the paper calls out as mandatory for production S3 use.
    """


class UnsupportedSharedStorage(StorageError):
    """A cluster was handed shared storage that is not the simulated S3.

    Eon's shared storage is S3 (section 5.1): the scan path's coalesced GETs
    and server-side selects, the fault injector and the price list are S3's,
    so any other backend is refused before the cluster builds anything.
    """


class StorageUnavailable(StorageError):
    """Shared storage is in a sustained outage window.

    Unlike :class:`TransientStorageError`, this is *not* retried: during a
    declared outage every request would fail, so the retry loop fails fast
    and the cluster drops into degraded read-only mode instead (serving
    depot-resident data, rejecting writes with this error).
    """


class ClusterError(ReproError):
    """Cluster-level failure (quorum loss, shard coverage loss, ...)."""


class QuorumLost(ClusterError):
    """Fewer than a quorum of nodes are up; the cluster shuts down."""


class ShardCoverageLost(ClusterError):
    """Some shard has no ACTIVE subscriber; the cluster is not viable."""


class NodeDown(ClusterError):
    """An operation was routed to a node that is not up."""


class ReviveError(ClusterError):
    """Revive from shared storage could not complete (e.g. live lease)."""


class AdmissionRejected(ReproError):
    """The workload manager refused to admit a query.

    Raised when a resource pool's queue is full, when a queued admission
    waited past the pool's queue timeout, when a synchronous caller
    (no event loop running) asks for slots that are currently busy, when
    the pool's overload breaker is shedding arrivals, or when the pool is
    draining for scale-in.  The statement never started executing;
    retrying after backoff is safe.
    """

    def __init__(self, message: str, pool: str = "", reason: str = "rejected"):
        super().__init__(message)
        self.pool = pool
        #: ``queue_full`` | ``timeout`` | ``busy`` | ``shed`` | ``draining``
        self.reason = reason


class PlanningError(ReproError):
    """The query planner could not produce a plan."""


class SqlError(ReproError):
    """SQL lexing/parsing/binding failed."""


class ExecutionError(ReproError):
    """Runtime failure while executing a query plan."""


class QueryCancelled(ExecutionError):
    """The query was cancelled by the user or by node failure handling."""
