"""Shared-storage layer: the UDFS API and its backends (section 5).

The execution engine accesses all filesystems through the UDFS abstraction
(Figure 9), and the abstraction offers what S3 offers: write an immutable
object, read it (alone or coalesced), list a prefix, delete, and a size.
There is no rename and no append, so no caller can lean on either.

* :class:`SimulatedS3` — shared storage: immutable objects, list-prefix
  instead of HEAD, injected transient faults, latency and per-request
  dollar-cost accounting, server-side select.
* :class:`MemoryFilesystem` — in-process store at local-disk cost: a
  node's local disk and Enterprise's catalog store.
"""

from repro.shared_storage.api import Filesystem, StorageMetrics, retrying
from repro.shared_storage.posix import MemoryFilesystem
from repro.shared_storage.s3 import S3CostModel, S3LatencyModel, SimulatedS3

__all__ = [
    "Filesystem",
    "StorageMetrics",
    "retrying",
    "MemoryFilesystem",
    "SimulatedS3",
    "S3CostModel",
    "S3LatencyModel",
]
