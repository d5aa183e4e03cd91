"""The stats spine: ledgers, and the registry for what no ledger carries.

A *ledger* is an always-on stats dataclass owned by the component whose
events it counts (``CacheStats``, ``IOStats``, ``OpStats``, ``EngineStats``,
``PoolStats``, ``RequestRecord``, ...).  :class:`Ledger` is the one helper
they share: its annotated fields are the only declaration of a counter, and
``as_dict()`` / ``columns()`` / ``row()`` / ``add()`` generate every view of
it — the shell's ``\\stats``, :func:`cluster_metrics` (BENCH JSON) and the
``v_monitor`` tables.  An event is booked in its ledger and nowhere else
(DESIGN.md, "One ledger").

The :class:`MetricsRegistry` (counters, gauges, histograms stamped by the sim
clock, Prometheus-style names plus sorted labels) holds only distributions
and readings no ledger field can carry — ``query.latency_seconds``,
``wm.queue_wait_seconds``, ``io.lane_occupancy``, ``depot.warming_bytes``;
``tests/test_public_surface.py`` pins the names written.
:data:`NULL_REGISTRY` is the zero-overhead-when-disabled implementation:
every instrument lookup returns one shared no-op object, so instrumented
code paths cost an attribute check and a method call that does nothing.
"""

from __future__ import annotations

from dataclasses import fields
from functools import lru_cache
from typing import ClassVar, Dict, List, Tuple

#: Default histogram bucket upper bounds (seconds-oriented, exponential).
DEFAULT_BUCKETS: Tuple[float, ...] = (
    0.0001, 0.001, 0.01, 0.1, 1.0, 10.0, 100.0,
)

LabelItems = Tuple[Tuple[str, str], ...]

#: Annotation (as written under ``from __future__ import annotations``) ->
#: the Python type of the column; anything else renders as text.
_NUMERIC = {"int": int, "bool": int, "float": float}


@lru_cache(maxsize=None)
def _adder(into: type, other: type):
    """``add(a, b)`` over the numeric fields the two dataclasses share by
    name, written out as ``a.x += b.x`` statements (as ``dataclasses`` writes
    ``__init__``): a scan folds its result twice, and a loop of
    ``getattr``/``setattr`` costs five times the statements."""
    theirs = {f.name for f in fields(other) if f.type in _NUMERIC}
    names = [f.name for f in fields(into) if f.type in _NUMERIC and f.name in theirs]
    scope: Dict[str, object] = {}
    body = "".join(f"    a.{n} += b.{n}\n" for n in names) or "    pass\n"
    exec("def add(a, b):\n" + body, scope)
    return scope["add"]


class Ledger:
    """Mixin for a stats dataclass: views generated from its declaration.

    ``derived`` names the properties reported after the fields (rates); a
    field's ``metadata["column"]`` is its ``v_monitor`` column name where
    that differs from the attribute.
    """

    derived: ClassVar[Tuple[str, ...]] = ()

    def as_dict(self) -> Dict[str, object]:
        names = [f.name for f in fields(self)] + list(self.derived)
        return {name: getattr(self, name) for name in names}

    @classmethod
    def columns(cls) -> List[Tuple[str, type]]:
        """``(column name, int | float | str)`` in :meth:`row` order."""
        typed = [
            (f.metadata.get("column", f.name), _NUMERIC.get(f.type, str))
            for f in fields(cls)
        ]
        return typed + [(name, float) for name in cls.derived]

    def row(self) -> tuple:
        """One table row: bools as 0/1, tuples comma-joined."""
        return tuple(
            ",".join(v) if isinstance(v, tuple) else int(v) if isinstance(v, bool) else v
            for v in self.as_dict().values()
        )

    def add(self, other) -> None:
        """Fold ``other`` in: every numeric field the two ledgers share by
        name (a ``ScanResult`` into its ``NodeWork``, a node's ``CacheStats``
        into the cluster total)."""
        _adder(type(self), type(other))(self, other)


def _label_key(name: str, labels: Dict[str, object]) -> Tuple[str, LabelItems]:
    return name, tuple(sorted((k, str(v)) for k, v in labels.items()))


def _render_key(name: str, labels: LabelItems) -> str:
    if not labels:
        return name
    inner = ",".join(f"{k}={v}" for k, v in labels)
    return f"{name}{{{inner}}}"


class _Instrument:
    __slots__ = ("name", "labels", "last_updated", "_clock")

    def __init__(self, name: str, labels: LabelItems, clock=None):
        self.name = name
        self.labels = labels
        self.last_updated = 0.0
        self._clock = clock

    def _stamp(self) -> None:
        if self._clock is not None:
            self.last_updated = self._clock.now


class Counter(_Instrument):
    """Monotonically increasing value."""

    __slots__ = ("value",)

    def __init__(self, name: str, labels: LabelItems, clock=None):
        super().__init__(name, labels, clock)
        self.value = 0.0

    def inc(self, amount: float = 1.0) -> None:
        if amount < 0:
            raise ValueError("counters only go up")
        self.value += amount
        self._stamp()


class Gauge(_Instrument):
    """Point-in-time value (cache bytes, pending files, ...)."""

    __slots__ = ("value",)

    def __init__(self, name: str, labels: LabelItems, clock=None):
        super().__init__(name, labels, clock)
        self.value = 0.0

    def set(self, value: float) -> None:
        self.value = float(value)
        self._stamp()

    def inc(self, amount: float = 1.0) -> None:
        self.value += amount
        self._stamp()


class Histogram(_Instrument):
    """Cumulative-bucket histogram (Prometheus style)."""

    __slots__ = ("bounds", "bucket_counts", "count", "sum")

    def __init__(
        self,
        name: str,
        labels: LabelItems,
        clock=None,
        buckets: Tuple[float, ...] = DEFAULT_BUCKETS,
    ):
        super().__init__(name, labels, clock)
        self.bounds = tuple(buckets)
        self.bucket_counts = [0] * (len(self.bounds) + 1)  # +inf bucket
        self.count = 0
        self.sum = 0.0

    def observe(self, value: float) -> None:
        self.count += 1
        self.sum += value
        for i, bound in enumerate(self.bounds):
            if value <= bound:
                self.bucket_counts[i] += 1
                break
        else:
            self.bucket_counts[-1] += 1
        self._stamp()


class MetricsSnapshot:
    """An immutable copy of a registry's state at one sim-clock instant."""

    def __init__(
        self,
        at: float,
        counters: Dict[str, float],
        gauges: Dict[str, float],
        histograms: Dict[str, dict],
    ):
        self.at = at
        self.counters = dict(counters)
        self.gauges = dict(gauges)
        self.histograms = {k: dict(v) for k, v in histograms.items()}

    def as_dict(self) -> dict:
        return {
            "at": self.at,
            "counters": dict(sorted(self.counters.items())),
            "gauges": dict(sorted(self.gauges.items())),
            "histograms": {
                k: {
                    "count": v["count"],
                    "sum": v["sum"],
                    "buckets": list(v["buckets"]),
                }
                for k, v in sorted(self.histograms.items())
            },
        }


class MetricsRegistry:
    """Instrument factory and holder; one per :class:`Observability`."""

    enabled = True

    def __init__(self, clock=None):
        self._clock = clock
        self._counters: Dict[Tuple[str, LabelItems], Counter] = {}
        self._gauges: Dict[Tuple[str, LabelItems], Gauge] = {}
        self._histograms: Dict[Tuple[str, LabelItems], Histogram] = {}

    def counter(self, name: str, **labels) -> Counter:
        key = _label_key(name, labels)
        inst = self._counters.get(key)
        if inst is None:
            inst = self._counters[key] = Counter(name, key[1], self._clock)
        return inst

    def gauge(self, name: str, **labels) -> Gauge:
        key = _label_key(name, labels)
        inst = self._gauges.get(key)
        if inst is None:
            inst = self._gauges[key] = Gauge(name, key[1], self._clock)
        return inst

    def histogram(
        self,
        name: str,
        buckets: Tuple[float, ...] = DEFAULT_BUCKETS,
        **labels,
    ) -> Histogram:
        key = _label_key(name, labels)
        inst = self._histograms.get(key)
        if inst is None:
            inst = self._histograms[key] = Histogram(
                name, key[1], self._clock, buckets
            )
        return inst

    def snapshot(self) -> MetricsSnapshot:
        at = self._clock.now if self._clock is not None else 0.0
        return MetricsSnapshot(
            at,
            {
                _render_key(*key): inst.value
                for key, inst in self._counters.items()
            },
            {
                _render_key(*key): inst.value
                for key, inst in self._gauges.items()
            },
            {
                _render_key(*key): {
                    "count": inst.count,
                    "sum": inst.sum,
                    "buckets": list(inst.bucket_counts),
                }
                for key, inst in self._histograms.items()
            },
        )

    def as_dict(self) -> dict:
        return self.snapshot().as_dict()


class _NullInstrument:
    """Shared do-nothing instrument: the zero-overhead-disabled path."""

    __slots__ = ()
    value = 0.0
    count = 0
    sum = 0.0
    last_updated = 0.0

    def inc(self, amount: float = 1.0) -> None:
        pass

    def set(self, value: float) -> None:
        pass

    def observe(self, value: float) -> None:
        pass


_NULL_INSTRUMENT = _NullInstrument()


class NullRegistry:
    """Disabled registry: every lookup returns the shared no-op instrument."""

    enabled = False

    def counter(self, name: str, **labels) -> _NullInstrument:
        return _NULL_INSTRUMENT

    def gauge(self, name: str, **labels) -> _NullInstrument:
        return _NULL_INSTRUMENT

    def histogram(self, name: str, buckets=DEFAULT_BUCKETS, **labels) -> _NullInstrument:
        return _NULL_INSTRUMENT

    def snapshot(self) -> MetricsSnapshot:
        return MetricsSnapshot(0.0, {}, {}, {})

    def as_dict(self) -> dict:
        return self.snapshot().as_dict()


NULL_REGISTRY = NullRegistry()


def cluster_metrics(cluster) -> dict:
    """Cluster-wide summary of every always-on ledger, JSON-able.

    Each section is its owner's ledger rendered by :meth:`Ledger.as_dict`
    (plus the live readings named here), so it works whether or not the
    observability subsystem is enabled and a new ledger field appears with
    no edit to this function.  This is what BENCH JSON ``metrics`` sections
    and the shell's ``\\stats`` report.
    """
    from repro.cache.disk_cache import CacheStats  # it imports Ledger from here

    total = CacheStats()
    for name in sorted(getattr(cluster, "nodes", {})):
        cache = getattr(cluster.nodes[name], "cache", None)
        if cache is not None:
            total.add(cache.stats)
    # The rates are those of the summed ledger.  Prefetch consumption is
    # outside both (see CacheStats): those bytes were misses at fetch time.
    depot = total.as_dict()

    scheduler = getattr(cluster, "io_scheduler", None)
    io = scheduler.stats.as_dict() if scheduler is not None else {}

    s3: Dict[str, object] = {}
    shared = getattr(cluster, "shared", None)
    if shared is not None:
        ops, m = shared.op_stats, shared.metrics
        s3 = {op: ops[op].as_dict() for op in sorted(ops)}
        # Server-side compute (S3 Select analogue): SELECT-class bytes are
        # *scanned* stored bytes, kept out of the GET ledger and of
        # ``requests``.
        s3["totals"] = {
            "requests": m.total_requests,
            "get_requests": m.get_requests,
            "put_requests": m.put_requests,
            "dollars": m.dollars,
            "retries": m.transient_failures,
            "retry_backoff_seconds": m.retry_backoff_seconds,
            "select_requests": ops["SELECT"].requests,
            "bytes_scanned": ops["SELECT"].bytes,
        }

    recovery = cluster.recovery_stats.as_dict()
    recovery["degraded"] = bool(getattr(cluster, "degraded", False))
    faults = getattr(shared, "faults", None)
    if faults is not None:
        recovery["outages_begun"] = faults.outages_begun
        recovery["outage_rejections"] = faults.outage_rejections

    wm: Dict[str, object] = {}
    admission = getattr(cluster, "admission", None)
    if admission is not None:
        pools = [admission.pools[name] for name in sorted(admission.pools)]
        wm = {
            "slots_in_use": admission.total_in_use(),
            "active_queries": len(admission.active),
            "pending_admissions": admission.pending,
            "pools": {
                pool.name: {
                    "capacity": admission.pool_capacity(pool),
                    "slots_in_use": admission.pool_in_use(pool),
                    **pool.as_dict(),
                }
                for pool in pools
            },
            "sheds": sum(pool.sheds for pool in pools),
        }

    scaler = getattr(cluster, "autoscaler", None)
    autoscale = scaler.metrics() if scaler is not None else {}

    engine_stats = getattr(cluster, "engine_stats", None)
    engine = engine_stats.as_dict() if engine_stats is not None else {}
    return {
        "depot": depot, "io": io, "s3": s3, "recovery": recovery, "wm": wm,
        "autoscale": autoscale, "engine": engine,
    }
