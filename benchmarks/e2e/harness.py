"""Measurement core: the real clock, passes, digests and the metric maths.

Two clocks are kept apart everywhere.  *Sim* numbers come from the
program's cost model (``QueryStats.latency_seconds``, ``CopyReport
.io_seconds``, ``StorageMetrics.sim_seconds``) and repeat exactly for a
seed.  *Real* numbers are ``perf_counter_ns`` readings of this process,
reported at **reference speed**: on this sandbox the same TPC-H pass takes
between 1.7 and 3.9 s within one run, so a fixed kernel is timed between
the ops (``SpeedMeter``) and each reading is multiplied by ``CAL_REF_NS /
median(kernel ns around the op)``.  The plain readings are reported beside
them (``process.raw_*``, ``process.calibration_ms``).
"""

from __future__ import annotations

import bisect
import hashlib
import math
import statistics
from dataclasses import dataclass, field
from time import perf_counter_ns
from typing import Dict, List, Optional, Sequence

import numpy as np

# -- correctness --------------------------------------------------------------


def row_digest(rows: Sequence[tuple]) -> str:
    """Order-insensitive digest of result rows; floats keep ten significant
    digits so a different summation order across nodes does not flip it."""

    def canon(value: object) -> object:
        if isinstance(value, float):
            return "nan" if math.isnan(value) else f"{value:.10g}"
        return value

    body = sorted(repr(tuple(canon(v) for v in row)) for row in rows)
    return hashlib.sha256("\n".join(body).encode()).hexdigest()[:16]


# -- passes -------------------------------------------------------------------


@dataclass
class Op:
    """One measured operation."""

    cls: str
    #: ``perf_counter_ns`` when the op started and ended, and its reading:
    #: end - start less the benchmark's own work in between.
    start_ns: int
    end_ns: int
    raw_ns: int
    sim_s: float
    #: Requests that raised, were rejected or answered wrongly.
    failed: int = 0
    #: Only serial ops enter the latency statistics; a concurrent batch
    #: (timed as a whole) counts its requests in throughput only.
    requests: int = 1
    serial: bool = True
    #: The id its spans carry in a traced pass.
    op_id: int = -1
    #: Multiplier that takes the op's readings to reference speed; set by
    #: ``SpeedMeter.rate`` once the samples after the op exist.
    speed: float = 1.0

    @property
    def real_ns(self) -> float:
        """The op's reading at reference speed."""
        return self.raw_ns * self.speed


@dataclass
class Pass:
    """One repetition of a workload's schedule."""

    traced: bool = False
    ops: List[Op] = field(default_factory=list)
    #: Work counters the ops reported (rows scanned, rows loaded, ...).
    counters: Dict[str, float] = field(default_factory=dict)
    #: Sim latencies that did not come from a serial op (closed-loop records).
    extra_sim_s: Dict[str, List[float]] = field(default_factory=dict)
    cpu_ns: int = 0
    first_span: int = 0
    last_span: int = 0

    def count(self, name: str, amount: float) -> None:
        self.counters[name] = self.counters.get(name, 0) + amount

    @property
    def requests(self) -> int:
        return sum(op.requests for op in self.ops)

    @property
    def failed(self) -> int:
        return sum(op.failed for op in self.ops)

    @property
    def real_seconds(self) -> float:
        """The pass's op time at reference speed (the benchmark's own work
        between ops excluded)."""
        return sum(op.real_ns for op in self.ops) / 1e9


# -- the real clock at reference speed ------------------------------------------

#: Kernel time that defines reference speed; ``real_*`` metrics are what the
#: ops would have taken on a machine that runs the kernel in exactly this.
CAL_REF_NS = 4_000_000
#: Real nanoseconds of work between two kernel samples.
PACE_NS = 60_000_000
#: An op is scaled by the samples taken from this long before it started
#: to this long after it ended.
WINDOW_NS = 250_000_000

_CAL_ARRAY = (np.arange(40_000, dtype=np.int64) * 2654435761) % 1_000_003


def calibrate() -> int:
    """Time the fixed kernel: interpreter loop, dict stores and numpy
    sort/gather/scan — the mix the engine and decoders are made of.  It
    allocates nothing that survives, so it does not move the GC."""
    start = perf_counter_ns()
    table: Dict[int, int] = {}
    total = 0
    for i in range(30_000):
        total += i * i
        table[i & 511] = total
    _CAL_ARRAY.take(np.argsort(_CAL_ARRAY, kind="stable")).cumsum()
    return perf_counter_ns() - start


class SpeedMeter:
    """Timeline of kernel samples: how fast the machine was, and when."""

    def __init__(self) -> None:
        self.at_ns: List[int] = []
        self.kernel_ns: List[int] = []
        #: Total time the samples took, for a caller that times a stretch
        #: with samples inside it.
        self.spent_ns = 0

    def sample(self) -> None:
        self.kernel_ns.append(calibrate())
        self.spent_ns += self.kernel_ns[-1]
        self.at_ns.append(perf_counter_ns())

    def pace(self) -> None:
        """Sample if ``PACE_NS`` went by since the last sample.  Called
        after every op, so an op always has a sample close before it."""
        if not self.at_ns or perf_counter_ns() - self.at_ns[-1] >= PACE_NS:
            self.sample()

    def speed(self, start_ns: int, end_ns: int) -> float:
        """Multiplier that takes a reading made between the two instants
        to reference speed."""
        first = bisect.bisect_left(self.at_ns, start_ns - WINDOW_NS)
        last = bisect.bisect_right(self.at_ns, end_ns + WINDOW_NS)
        return CAL_REF_NS / statistics.median(self.kernel_ns[first:last])

    def rate(self, passes: Sequence[Pass]) -> None:
        """Set every op's ``speed`` from the samples around it."""
        for p in passes:
            for op in p.ops:
                op.speed = self.speed(op.start_ns, op.end_ns)


# -- metric maths ---------------------------------------------------------------


def nearest_rank(values: Sequence[float], share: float) -> float:
    ordered = sorted(values)
    return ordered[max(0, math.ceil(share * len(ordered)) - 1)]


def geomean(values: Sequence[float]) -> float:
    return math.exp(sum(math.log(v) for v in values) / len(values))


def real_ops_per_s(passes: Sequence[Pass]) -> float:
    return sum(p.requests for p in passes) / sum(p.real_seconds for p in passes)


def class_medians_ms(passes: Sequence[Pass], raw: bool = False) -> Dict[str, float]:
    """Median real latency per class over the run, in ms (``raw``: as read,
    not at reference speed)."""
    by_class: Dict[str, List[float]] = {}
    for p in passes:
        for op in p.ops:
            if op.serial:
                ns = op.raw_ns if raw else op.real_ns
                by_class.setdefault(op.cls, []).append(ns / 1e6)
    return {cls: statistics.median(v) for cls, v in by_class.items()}


def sim_latencies_ms(passes: Sequence[Pass]) -> Dict[str, List[float]]:
    by_class: Dict[str, List[float]] = {}
    for p in passes:
        for op in p.ops:
            if op.serial:
                by_class.setdefault(op.cls, []).append(op.sim_s * 1e3)
        for cls, values in p.extra_sim_s.items():
            by_class.setdefault(cls, []).extend(v * 1e3 for v in values)
    return by_class


def end_to_end_metrics(
    passes: Sequence[Pass],
    setup_s: float,
    sim_ops_per_min: Optional[float],
    stored_bytes: int,
    user_bytes: int,
    peak_rss_mb: float,
) -> Dict[str, float]:
    """The end-to-end metrics of BENCHMARK.json from the untraced passes.

    Real-clock statistics are medians (over a class's ops, over passes):
    what is left of the machine's noise after speed compensation has a
    long upper tail.  Sim-clock statistics are means: they repeat exactly
    for a seed, and a cold query's latency is bimodal (hit or miss), so
    its median flips with the seed where its mean moves smoothly.

    ``sim_ops_per_min`` is given by a workload that measured it on the sim
    clock itself (the closed loop); otherwise it is requests over the sum
    of the serial ops' sim latencies — one client, so no overlap."""
    sim = sim_latencies_ms(passes)
    pooled_sim = sorted(x for v in sim.values() for x in v)
    if sim_ops_per_min is None:
        sim_minutes = sum(op.sim_s for p in passes for op in p.ops) / 60.0
        sim_ops_per_min = sum(p.requests for p in passes) / sim_minutes
    return {
        "setup_s": setup_s,
        "real_ops_per_s": real_ops_per_s(passes),
        "real_ms_geomean": geomean(list(class_medians_ms(passes).values())),
        "real_ms_p90": statistics.median(
            nearest_rank([op.real_ns for op in p.ops if op.serial], 0.90) / 1e6
            for p in passes
        ),
        "sim_ms_geomean": geomean([statistics.fmean(v) for v in sim.values()]),
        "sim_ms_slowest5pct": statistics.fmean(
            pooled_sim[-max(1, len(pooled_sim) // 20):]
        ),
        "sim_ops_per_min": sim_ops_per_min,
        "stored_bytes_per_user_byte": stored_bytes / user_bytes,
        "peak_rss_mb": peak_rss_mb,
    }
