"""Query profiles: per-operator execution accounting.

The shape follows Vertica's ``EXECUTION_ENGINE_PROFILES`` /
``DC_REQUESTS_ISSUED``: one :class:`RequestRecord` per query with its
request-level totals (latency, rows, depot hits/misses, S3 requests and
dollars), and one :class:`OperatorProfile` per plan operator instance
(Scan on node X, Join on node Y, the initiator-side final Aggregate, ...)
with rows, bytes, and sim-seconds attributed to that operator.

Dollar and depot attribution comes from the scan layer
(:class:`~repro.engine.executor.ScanResult` carries the per-scan counts),
so profile totals reconcile with :class:`SimulatedS3` accounting — a
property the system-table tests assert.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Tuple

from repro.obs.metrics import Ledger


@dataclass
class OperatorProfile(Ledger):
    """One operator instance's share of a query's work: a row of
    ``v_monitor.query_profiles`` after its request id.  A Scan's depot and
    S3 fields are its ``ScanResult`` folded in by ``add``."""

    node: str = field(metadata={"column": "node_name"})
    operator: str
    path_id: int
    rows: int = field(default=0, metadata={"column": "rows_produced"})
    sim_seconds: float = 0.0
    bytes_from_cache: int = 0
    bytes_from_shared: int = 0
    depot_hits: int = 0
    depot_misses: int = 0
    s3_requests: int = 0
    s3_dollars: float = 0.0
    detail: str = ""
    #: Scan operators only: how the scan reached storage
    #: ("depot" | "get" | "pushdown"); empty for non-scan operators.
    scan_strategy: str = ""


@dataclass
class QueryProfile:
    """All operator profiles of one profiled query."""

    request_id: int
    request: str
    initiator: str
    start_seconds: float
    latency_seconds: float
    operators: Tuple[OperatorProfile, ...] = ()


@dataclass
class RequestRecord(Ledger):
    """Request-level accounting: one row of ``dc_requests_issued``.  Its
    depot and S3 fields are the sums of its operators' (``query_path``)."""

    request_id: int
    node_name: str
    request: str
    start_seconds: float
    duration_seconds: float
    rows_produced: int = 0
    depot_hits: int = 0
    depot_misses: int = 0
    s3_requests: int = 0
    s3_dollars: float = 0.0
    #: Latency components the doctor attributes blame from.
    queue_wait_seconds: float = 0.0
    failover_backoff_seconds: float = 0.0
    retry_backoff_seconds: float = 0.0
    retries: int = 0
    storage_io_seconds: float = 0.0
