"""Simulated S3: object-store semantics, latency, faults, and dollar cost.

The paper's Eon deployments back onto Amazon S3 (section 5.3).  We cannot
reach S3 from this environment, so this backend reproduces the *semantics
and failure surface* the Eon code must handle:

* objects are immutable — no rename, no append; overwriting an existing
  object is rejected because library code never overwrites (SIDs are
  globally unique) and accidental overwrite indicates a bug;
* existence is checked via the list API (HEAD-then-write downgrades the
  consistency guarantee, so the base class's ``contains`` is list-based);
* any request can fail transiently (throttling, internal errors) — the
  fault injector raises :class:`TransientStorageError` from a seeded RNG so
  tests exercise the mandatory retry loop deterministically;
* requests have latency dominated by a per-request component, so large
  requests amortise better than small ones — the regime that drives the
  paper's "larger request sizes than local disk" tuning advice;
* requests cost dollars, accounted per the published S3 price card.
"""

from __future__ import annotations

import hashlib
import random
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

from repro.errors import (
    ObjectNotFound,
    StorageError,
    StorageUnavailable,
    TransientStorageError,
)
from repro.shared_storage.api import Filesystem, NameIndex

__all__ = [
    "FaultInjector",
    "S3CostModel",
    "S3LatencyModel",
    "SelectScanResult",
    "SimulatedS3",
    "wire_bytes",
]


@dataclass
class S3LatencyModel:
    """Seconds charged per operation: base per-request plus per-byte."""

    request_seconds: float = 0.030  # first-byte latency
    read_bandwidth: float = 90e6  # bytes / second per request stream
    write_bandwidth: float = 60e6
    list_seconds: float = 0.040
    #: Server-side scan (S3-Select-style): same first-byte latency as a GET
    #: (the request replaces the GET round trip), but the scanned bytes move
    #: at the storage server's internal scan rate rather than the network,
    #: and only the *returned* (filtered + projected) bytes cross the wire.
    select_request_seconds: float = 0.030
    scan_bandwidth: float = 600e6  # server-side bytes scanned / second

    def read_seconds(self, nbytes: int) -> float:
        return self.request_seconds + nbytes / self.read_bandwidth

    def write_seconds(self, nbytes: int) -> float:
        return self.request_seconds + nbytes / self.write_bandwidth

    def select_seconds(self, scanned_bytes: int, returned_bytes: int) -> float:
        return (
            self.select_request_seconds
            + scanned_bytes / self.scan_bandwidth
            + returned_bytes / self.read_bandwidth
        )


@dataclass
class S3CostModel:
    """Dollar cost per operation (S3 standard pricing, us-east-1, 2018)."""

    put_per_1k: float = 0.005
    get_per_1k: float = 0.0004
    list_per_1k: float = 0.005
    storage_per_gb_month: float = 0.023  # informational; not accrued per op
    #: S3-Select-style pricing: a per-request fee plus per-GB charges for
    #: bytes the server scans and bytes it returns (decimal GB, as on the
    #: published price card).
    select_per_1k: float = 0.0004
    scan_per_gb: float = 0.002
    return_per_gb: float = 0.0007

    def put_cost(self) -> float:
        return self.put_per_1k / 1000.0

    def get_cost(self) -> float:
        return self.get_per_1k / 1000.0

    def list_cost(self) -> float:
        return self.list_per_1k / 1000.0

    def select_cost(self, scanned_bytes: int, returned_bytes: int) -> float:
        return (
            self.select_per_1k / 1000.0
            + scanned_bytes / 1e9 * self.scan_per_gb
            + returned_bytes / 1e9 * self.return_per_gb
        )


@dataclass
class FaultInjector:
    """Deterministic transient-fault source for S3 requests.

    Every probability draw goes through the injector's own seeded RNG —
    never the module-level ``random`` state — so two injectors built with
    the same seed and hit with the same request sequence make bit-identical
    decisions.  :meth:`decision_digest` folds each decision into a running
    SHA-256 so a test (or the simulation harness) can assert two runs were
    byte-for-byte reproducible.

    :meth:`begin_burst` models an S3 throttling burst or transient-fault
    storm: the failure rate jumps to ``rate`` for the next ``ops``
    requests, then falls back to the base ``failure_rate``.

    :meth:`begin_outage` models a *sustained* S3 outage (the region is
    down, not throttled): for ``seconds`` of simulated time every request
    fails fast with :class:`~repro.errors.StorageUnavailable` — before the
    fault RNG is consulted, so an outage window does not consume draws and
    cannot shift later burst decisions.  The window is driven by the sim
    clock bound via :meth:`bind_clock`; without a clock, ``begin_outage``
    is rejected (there would be no deterministic way to end it).
    """

    failure_rate: float = 0.0
    seed: int = 0

    def __post_init__(self) -> None:
        self._rng = random.Random(self.seed)
        self._burst_rate: Optional[float] = None
        self._burst_ops_left = 0
        self.draws = 0
        self.injected = 0
        self._digest = hashlib.sha256()
        self._clock = None
        self._outage_until: Optional[float] = None
        self.outages_begun = 0
        self.outage_rejections = 0
        self._recorder = None

    # -- outage control --------------------------------------------------------

    def bind_clock(self, clock) -> None:
        """Attach the sim clock that defines outage windows."""
        self._clock = clock

    def bind_recorder(self, recorder) -> None:
        """Attach an injection-event sink: ``recorder(kind, operation)``
        with kind in {"transient", "throttled", "outage_rejection"}.
        Recording happens *after* the decision is made, so the recorder
        cannot perturb the RNG stream or the decision digest."""
        self._recorder = recorder

    def _record(self, kind: str, operation: str) -> None:
        if self._recorder is not None:
            self._recorder(kind, operation)

    def begin_outage(self, seconds: float) -> float:
        """Declare a sustained outage for the next ``seconds`` of sim time.

        Returns the sim time at which the outage ends.  Overlapping calls
        extend the window to the later end point rather than stacking.
        """
        if self._clock is None:
            raise ValueError("begin_outage requires a bound sim clock")
        if seconds <= 0:
            raise ValueError("outage duration must be positive")
        until = self._clock.now + seconds
        if self._outage_until is None or until > self._outage_until:
            self._outage_until = until
        self.outages_begun += 1
        return self._outage_until

    @property
    def outage_active(self) -> bool:
        if self._outage_until is None or self._clock is None:
            return False
        if self._clock.now >= self._outage_until:
            self._outage_until = None
            return False
        return True

    @property
    def outage_until(self) -> Optional[float]:
        return self._outage_until if self.outage_active else None

    def check_outage(self, operation: str) -> None:
        """Fail fast during an outage window — *before* any RNG draw, so an
        outage never consumes fault draws and cannot shift later burst
        decisions."""
        if self.outage_active:
            self.outage_rejections += 1
            self._record("outage_rejection", operation)
            raise StorageUnavailable(
                f"S3 outage in progress during {operation} "
                f"(until t={self._outage_until:.3f})"
            )

    # -- burst control ---------------------------------------------------------

    def begin_burst(self, rate: float, ops: int) -> None:
        """Raise the failure rate to ``rate`` for the next ``ops`` requests."""
        if not 0.0 <= rate <= 1.0:
            raise ValueError("burst rate must be in [0, 1]")
        self._burst_rate = rate
        self._burst_ops_left = max(0, ops)

    @property
    def burst_active(self) -> bool:
        return self._burst_ops_left > 0

    @property
    def effective_rate(self) -> float:
        if self._burst_ops_left > 0 and self._burst_rate is not None:
            return self._burst_rate
        return self.failure_rate

    # -- the injection point ---------------------------------------------------

    def maybe_fail(self, operation: str) -> None:
        rate = self.effective_rate
        throttling = self._burst_ops_left > 0
        if self._burst_ops_left > 0:
            self._burst_ops_left -= 1
        if rate <= 0:
            return
        self.draws += 1
        failed = self._rng.random() < rate
        self._digest.update(
            f"{operation}:{'F' if failed else 'ok'};".encode("ascii")
        )
        if failed:
            self.injected += 1
            self._record("throttled" if throttling else "transient", operation)
            raise TransientStorageError(
                f"S3 transient failure during {operation} (injected)"
            )

    def decision_digest(self) -> str:
        """SHA-256 over the sequence of (operation, decision) pairs so far."""
        return self._digest.hexdigest()


def wire_bytes(rows) -> int:
    """Approximate wire size of a :class:`~repro.storage.container.RowSet`.

    Mirrors the engine's ``rowset_bytes`` network accounting (4 bytes of
    framing per variable-width value plus its string payload; fixed-width
    values at their dtype's itemsize) so the bytes a select *returns* are
    priced with the same yardstick as bytes the engine ships between nodes.
    Kept here rather than imported so shared_storage stays below the engine
    in the layer graph.
    """
    total = 0
    for name in rows.schema.names:
        column = rows.column(name)
        if column.dtype.kind == "O":
            total += sum(4 + (len(v) if isinstance(v, str) else 0) for v in column)
        else:
            total += column.dtype.itemsize * len(column)
    return total


#: Wire framing charged per partial-aggregate value in a select response.
AGGREGATE_WIRE_BYTES = 16


@dataclass
class SelectScanResult:
    """What one :meth:`SimulatedS3.select_scan` call produced and cost."""

    rows: object  # RowSet: filtered + projected rows, container order kept
    aggregates: Dict[Tuple[str, Optional[str]], object] = field(default_factory=dict)
    bytes_scanned: int = 0
    bytes_returned: int = 0
    sim_seconds: float = 0.0
    dollars: float = 0.0
    #: Parity counters: rows decoded before the predicate mask and block
    #: footers pruned, computed with the *client's* pruning logic so a
    #: depot-path scan of the same container books identical
    #: ``rows_scanned`` / ``blocks_pruned`` stats.
    rows_examined: int = 0
    blocks_pruned: int = 0


def _partial_aggregate(func: str, column: Optional[str], rows) -> object:
    """One server-side partial aggregate over the post-filter rows.

    Deterministic numpy semantics (NaN propagates through ``sum``); the
    initiator combines partials exactly as it combines per-node partials,
    so the property wall can recompute these client-side bit-for-bit.
    """
    if func == "count":
        return int(rows.num_rows)
    if column is None:
        raise StorageError(f"aggregate {func!r} requires a column")
    values = rows.column(column)
    if func == "sum":
        return values.sum().item() if len(values) else 0
    if func == "min":
        return values.min().item() if len(values) else None
    if func == "max":
        return values.max().item() if len(values) else None
    raise StorageError(f"unsupported server-side aggregate {func!r}")


class SimulatedS3(Filesystem):
    """In-process S3 stand-in with the real thing's sharp edges."""

    def __init__(
        self,
        latency: Optional[S3LatencyModel] = None,
        cost: Optional[S3CostModel] = None,
        faults: Optional[FaultInjector] = None,
    ):
        super().__init__()
        self.latency = latency or S3LatencyModel()
        self.cost = cost or S3CostModel()
        self.faults = faults or FaultInjector()
        self._objects: Dict[str, bytes] = {}
        self._names = NameIndex()

    # -- core operations -------------------------------------------------------

    def _maybe_fail(self, operation: str) -> None:
        """Route the fault draw through per-class accounting.  Burst state
        is sampled *before* the draw because ``maybe_fail`` decrements the
        burst window whether or not it injects.  The outage check comes
        first of all: during a declared outage the request fails fast with
        :class:`StorageUnavailable` and no fault draw is consumed."""
        self.faults.check_outage(operation)
        throttling = self.faults.burst_active
        try:
            self.faults.maybe_fail(operation)
        except TransientStorageError:
            stats = self.op_stats[operation]
            stats.transient_faults += 1
            if throttling:
                stats.throttled += 1
            raise

    def write(self, name: str, data: bytes) -> None:
        self._maybe_fail("PUT")
        if name in self._objects:
            raise StorageError(
                f"refusing to overwrite immutable object {name!r}"
            )
        self._objects[name] = bytes(data)
        self._names.add(name)
        self._charge(
            "PUT", len(data), self.latency.write_seconds(len(data)),
            self.cost.put_cost(),
        )

    def read(self, name: str) -> bytes:
        self._maybe_fail("GET")
        try:
            data = self._objects[name]
        except KeyError:
            raise ObjectNotFound(name) from None
        self._charge(
            "GET", len(data), self.latency.read_seconds(len(data)),
            self.cost.get_cost(),
        )
        return data

    #: Coalesced GETs are backend-amortised here: the group pays one
    #: request's worth of first-byte latency and one GET dollar — the S3
    #: byte-range/multi-part trick behind the paper's "larger request
    #: sizes" guidance.
    supports_coalesced_get = True

    def read_coalesced(self, names: List[str]) -> Dict[str, bytes]:
        if not names:
            return {}
        self._maybe_fail("GET")
        out: Dict[str, bytes] = {}
        for name in names:
            try:
                out[name] = self._objects[name]
            except KeyError:
                raise ObjectNotFound(name) from None
        total = sum(len(v) for v in out.values())
        self._charge(
            "GET", total, self.latency.read_seconds(total), self.cost.get_cost()
        )
        return out

    #: Server-side compute (S3-Select-style filter/project/partial-aggregate)
    #: is available on this backend; generic filesystems advertise False and
    #: the scan layer falls back to whole-object GETs.
    supports_select = True

    def select_scan(
        self,
        name: str,
        columns: Optional[Sequence[str]] = None,
        predicate=None,
        aggregates: Optional[Sequence[Tuple[str, Optional[str]]]] = None,
    ) -> SelectScanResult:
        """Server-side scan of one stored container image.

        Filters rows with ``predicate`` (an engine expression; evaluated
        exactly as the client would evaluate it), projects ``columns``
        (container order preserved), and computes optional partial
        ``aggregates`` — ``(func, column)`` pairs over the post-filter rows.

        Accounting: the request is charged ``select_seconds``/``select_cost``
        into the aggregate metrics and the ``SELECT`` op class, where the
        byte count is *bytes scanned* — the stored size of every column file
        the scan touched (projection ∪ predicate ∪ aggregate columns, and
        the caller must list predicate columns in ``columns``).  GET
        counters (``get_requests``/``bytes_read``) are never touched, so a
        differential run can hold the GET ledger bit-identical while selects
        ride on top.  ``bytes_scanned`` always charges the full stored size
        of the touched columns (the server streams whole column files);
        block pruning below only shapes the parity counters.
        """
        from repro.engine.expressions import extract_column_bounds
        from repro.storage.container import read_container

        self._maybe_fail("SELECT")
        try:
            data = self._objects[name]
        except KeyError:
            raise ObjectNotFound(name) from None
        reader = read_container(data)
        projection = list(columns) if columns is not None else list(reader.column_order)
        agg_specs = [(func, col) for func, col in (aggregates or [])]
        touched = list(
            dict.fromkeys(projection + [c for _, c in agg_specs if c is not None])
        )
        missing = [c for c in touched if c not in reader._directory]
        if missing:
            raise StorageError(
                f"select_scan on {name!r}: no such columns {missing}"
            )
        scanned = reader.stored_bytes(touched)
        # Decode through the same block-pruning path a depot scan takes
        # (same bounds extraction, same footer match), so ``rows_examined``
        # and ``blocks_pruned`` are bit-identical to the client's counts.
        bounds = extract_column_bounds(predicate) if predicate is not None else {}
        blocks_pruned = 0
        if bounds:
            block_indices = reader.matching_blocks(bounds)
            total_blocks = reader.block_count()
            if len(block_indices) < total_blocks:
                blocks_pruned = total_blocks - len(block_indices)
                rows = reader.read_rowset_blocks(touched, list(block_indices))
            else:
                rows = reader.read_rowset(touched)
        else:
            rows = reader.read_rowset(touched)
        rows_examined = rows.num_rows
        if predicate is not None:
            mask = np.asarray(predicate.evaluate(rows), dtype=bool)
            rows = rows.filter(mask)
        aggs = {
            (func, col): _partial_aggregate(func, col, rows)
            for func, col in agg_specs
        }
        out_rows = rows.select(projection)
        returned = wire_bytes(out_rows) + AGGREGATE_WIRE_BYTES * len(agg_specs)
        seconds = self.latency.select_seconds(scanned, returned)
        dollars = self.cost.select_cost(scanned, returned)
        self._charge("SELECT", scanned, seconds, dollars)
        return SelectScanResult(
            rows=out_rows,
            aggregates=aggs,
            bytes_scanned=scanned,
            bytes_returned=returned,
            sim_seconds=seconds,
            dollars=dollars,
            rows_examined=rows_examined,
            blocks_pruned=blocks_pruned,
        )

    def list(self, prefix: str = "") -> List[str]:
        self._maybe_fail("LIST")
        self._charge("LIST", 0, self.latency.list_seconds, self.cost.list_cost())
        return self._names.with_prefix(prefix)

    def delete(self, name: str) -> None:
        self._maybe_fail("DELETE")
        self._charge("DELETE")
        self._objects.pop(name, None)  # idempotent, as on real S3
        self._names.discard(name)

    def size(self, name: str) -> int:
        # Size comes from list metadata in real deployments; free here.
        try:
            return len(self._objects[name])
        except KeyError:
            raise ObjectNotFound(name) from None

    # -- cost estimation --------------------------------------------------------

    def estimate_read_seconds(self, nbytes: int) -> float:
        return self.latency.read_seconds(nbytes)

    def estimate_write_seconds(self, nbytes: int) -> float:
        return self.latency.write_seconds(nbytes)

    def estimate_select_seconds(self, scanned_bytes: int, returned_bytes: int) -> float:
        return self.latency.select_seconds(scanned_bytes, returned_bytes)

    # -- introspection ------------------------------------------------------------

    def peek(self, prefix: str = "") -> List[str]:
        """Out-of-band object listing for tests and invariant checkers.

        Unlike :meth:`list`, this charges no request, no latency, no
        dollars, and never fails — checking an invariant must not perturb
        the simulation it is checking (extra requests would consume fault
        RNG draws and change the schedule).
        """
        return self._names.with_prefix(prefix)

    @property
    def outage_active(self) -> bool:
        return self.faults.outage_active

    @property
    def object_count(self) -> int:
        return len(self._objects)

    @property
    def total_bytes(self) -> int:
        return sum(len(v) for v in self._objects.values())
