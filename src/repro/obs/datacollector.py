"""The Data Collector: per-node bounded ring buffers of telemetry history.

Vertica's Data Collector keeps a rotating on-disk log per component and
node, queryable through ``dc_*`` system tables — the layer §6 of the
paper leans on to explain depot and subscription behaviour after the
fact.  ``v_monitor`` (PR 2) snapshots *current* state only; this module
adds the history: every query event, admission decision, service run,
fault injection, and depot eviction lands in a bounded, sim-clock-stamped
ring buffer, and :mod:`repro.obs.system_tables` exposes the buffers as
partitioned ``v_monitor.dc_*`` tables whose producers prune on ``time``
and ``node`` predicates *before* materializing rows (vDBAHelper's
predicate-pushdown shape).

Determinism contract: recording draws no RNG, charges no storage
requests, and advances no clocks — a campaign digest is bit-identical
with the collector on or off.  Entries carry a global sequence number so
merged multi-node readings have one deterministic order, and each ring's
timestamps are non-decreasing (the sim clock never goes backward), which
is what lets :meth:`DataCollector.rows` binary-search a time range
instead of scanning the whole buffer.

:data:`NULL_DATA_COLLECTOR` is the zero-overhead-when-disabled
implementation, mirroring ``NULL_REGISTRY`` / ``NULL_TRACER``.
"""

from __future__ import annotations

import itertools
from typing import Dict, List, Optional, Tuple

#: Event tables and their column layout.  ``time`` is always first;
#: node-partitioned tables (``DC_NODE_PARTITIONED``) put ``node`` second.
#: These tuples are the single source of truth for the ``v_monitor``
#: schemas in :mod:`repro.obs.system_tables`.
DC_TABLES: Dict[str, Tuple[str, ...]] = {
    "dc_query_events": (
        "time", "node", "request_id", "event", "detail", "value",
    ),
    "dc_admission_decisions": (
        "time", "node", "pool", "decision", "reason", "slots",
        "wait_seconds",
    ),
    "dc_service_runs": ("time", "service", "outcome", "detail"),
    "dc_fault_injections": ("time", "operation", "kind", "detail"),
    "dc_depot_events": ("time", "node", "event", "object", "bytes"),
}

#: Entries each ring keeps (per table, per node); the oldest goes first.
CAPACITY = 2048

#: Tables keeping one ring per node (prunable on ``node`` predicates).
DC_NODE_PARTITIONED = frozenset(
    ("dc_query_events", "dc_admission_decisions", "dc_depot_events")
)


class RingBuffer:
    """Bounded append-only buffer: O(1) amortized append, indexed reads.

    Implemented as a list plus a start offset (compacted when the dead
    prefix reaches capacity) rather than a ``deque`` so binary search
    over the retained window is cheap — ``deque`` indexing is O(n).
    Evictions are counted in :attr:`dropped`, never silent.
    """

    __slots__ = ("capacity", "dropped", "_items", "_start")

    def __init__(self, capacity: int):
        if capacity < 1:
            raise ValueError("ring capacity must be positive")
        self.capacity = capacity
        self.dropped = 0
        self._items: List[tuple] = []
        self._start = 0

    def append(self, item: tuple) -> None:
        self._items.append(item)
        if len(self._items) - self._start > self.capacity:
            self._start += 1
            self.dropped += 1
            if self._start >= self.capacity:
                del self._items[: self._start]
                self._start = 0

    def __len__(self) -> int:
        return len(self._items) - self._start

    def __getitem__(self, index: int) -> tuple:
        if index < 0 or index >= len(self):
            raise IndexError(index)
        return self._items[self._start + index]

    def snapshot(self) -> List[tuple]:
        return self._items[self._start:]

    def time_slice(self, lo, hi, key_index: int) -> Tuple[int, int]:
        """Index range ``[i0, i1)`` of entries with ``lo <= t <= hi``.

        Entries are appended in non-decreasing ``key_index`` order, so the
        range is found by binary search.  ``None`` bounds are open; bounds
        that cannot be compared to the stored values (a type-mismatched
        literal) fall back to the full window — pruning is an optimization,
        the executor re-applies the real predicate.
        """
        n = len(self)
        i0, i1 = 0, n
        try:
            if lo is not None:
                a, b = 0, n
                while a < b:
                    mid = (a + b) // 2
                    if self[mid][key_index] < lo:
                        a = mid + 1
                    else:
                        b = mid
                i0 = a
            if hi is not None:
                a, b = i0, n
                while a < b:
                    mid = (a + b) // 2
                    if self[mid][key_index] <= hi:
                        a = mid + 1
                    else:
                        b = mid
                i1 = a
        except TypeError:
            return 0, n
        return i0, i1


class DataCollector:
    """Per-(table, node) ring buffers with predicate-pruned reads."""

    enabled = True

    def __init__(self, clock=None):
        self._clock = clock
        self._rings: Dict[str, Dict[str, RingBuffer]] = {
            table: {} for table in DC_TABLES
        }
        #: Global append sequence: the deterministic total order used when
        #: merging per-node rings back into one row stream.
        self._seq = itertools.count(1)
        #: Ring entries materialized by :meth:`rows` since construction —
        #: the observable the pruning tests assert on (a pruned scan must
        #: touch only the pruned row range).
        self.rows_examined = 0

    def _now(self) -> float:
        return self._clock.now if self._clock is not None else 0.0

    # -- recording --------------------------------------------------------------

    def record(self, table: str, node: str, values: tuple) -> None:
        """Append one event.  ``values`` are the columns after ``time``
        (and after ``node`` for node-partitioned tables); the timestamp is
        stamped from the sim clock, the sequence number internally."""
        rings = self._rings[table]
        ring = rings.get(node)
        if ring is None:
            ring = rings[node] = RingBuffer(CAPACITY)
        ring.append((next(self._seq), self._now()) + tuple(values))

    # -- reading ----------------------------------------------------------------

    def rows(
        self,
        table: str,
        bounds: Optional[Dict[str, Tuple[object, object]]] = None,
    ) -> List[tuple]:
        """Materialize ``table`` rows, pruned by ``bounds``.

        ``bounds`` maps partition-column name to an inclusive ``(lo, hi)``
        pair (either end may be ``None``), as produced by
        :func:`repro.engine.expressions.extract_column_bounds`.  Pruning
        is conservative — bounds come from AND-conjuncts, so rows outside
        them cannot match and everything inside still passes through the
        executor's full predicate.  Node pruning skips whole rings; time
        pruning binary-searches within each ring.  Every entry actually
        materialized increments :attr:`rows_examined`.
        """
        bounds = bounds or {}
        node_partitioned = table in DC_NODE_PARTITIONED
        time_lo, time_hi = bounds.get("time", (None, None))
        node_lo, node_hi = (
            bounds.get("node", (None, None)) if node_partitioned else (None, None)
        )
        merged: List[tuple] = []
        rings = self._rings[table]
        for node in sorted(rings):
            if node_lo is not None or node_hi is not None:
                try:
                    if node_lo is not None and node < node_lo:
                        continue
                    if node_hi is not None and node > node_hi:
                        continue
                except TypeError:
                    pass  # incomparable bound: read the ring, executor filters
            ring = rings[node]
            i0, i1 = ring.time_slice(time_lo, time_hi, key_index=1)
            for i in range(i0, i1):
                entry = ring[i]
                self.rows_examined += 1
                if node_partitioned:
                    merged.append((entry[0], entry[1], node) + entry[2:])
                else:
                    merged.append(entry)
        merged.sort(key=lambda entry: entry[0])
        return [entry[1:] for entry in merged]


class NullDataCollector:
    """Disabled collector: records nothing, reads empty."""

    enabled = False
    rows_examined = 0

    def record(self, table: str, node: str, values: tuple) -> None:
        pass

    def rows(self, table: str, bounds=None) -> List[tuple]:
        return []


NULL_DATA_COLLECTOR = NullDataCollector()
