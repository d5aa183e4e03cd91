"""Deterministic discrete-event simulation clock.

All performance experiments in this reproduction run on simulated time: the
paper's numbers come from EC2 wall-clock, which we cannot reproduce, but the
*shapes* (scale-out slopes, saturation points, degradation under failure) are
determined by queueing structure, which a discrete-event simulation captures
exactly and deterministically.

The model is a minimal generator-based process framework in the style of
simpy:

* :class:`SimClock` — the event loop; schedules callbacks at absolute times.
* processes — Python generators spawned with :meth:`SimClock.spawn` that
  ``yield`` *effects*: :class:`Timeout` or an :class:`AcquireAll` request.
* :func:`charge_parallel` — the makespan of durations run over lanes.
* :class:`Resource` — a counted resource that :class:`AcquireAll` requests
  wait on in FIFO order (per-node execution slots).

Everything is deterministic: ties in event time are broken by insertion
order.
"""

from __future__ import annotations

import heapq
import itertools
from dataclasses import dataclass
from typing import Callable, Generator, List, Optional, Sequence, Tuple


class SimClock:
    """Event loop driving simulated time forward."""

    def __init__(self) -> None:
        self.now: float = 0.0
        #: High-water mark of ``now``; an invariant checker can assert
        #: ``now == max_now`` to prove simulated time never ran backwards.
        self.max_now: float = 0.0
        self._heap: List[tuple] = []
        self._seq = itertools.count()

    # -- low-level scheduling ------------------------------------------------

    def schedule(self, delay: float, callback: Callable[[], None]) -> None:
        """Run ``callback`` ``delay`` simulated seconds from now."""
        if delay < 0:
            raise ValueError(f"cannot schedule in the past (delay={delay})")
        heapq.heappush(self._heap, (self.now + delay, next(self._seq), callback))

    def advance(self, dt: float) -> None:
        """Jump the clock forward without running events (bookkeeping only)."""
        if dt < 0:
            raise ValueError("cannot move time backwards")
        self.now += dt
        self.max_now = max(self.max_now, self.now)

    # -- event loop ----------------------------------------------------------

    def run(self, until: Optional[float] = None) -> None:
        """Process events until the queue drains or ``until`` is reached."""
        while self._heap:
            t, _, callback = self._heap[0]
            if until is not None and t > until:
                # ``until`` in the past must not rewind the clock.
                self.now = max(self.now, until)
                self.max_now = max(self.max_now, self.now)
                return
            heapq.heappop(self._heap)
            self.now = t
            self.max_now = max(self.max_now, self.now)
            callback()
        if until is not None and until > self.now:
            self.now = until
            self.max_now = max(self.max_now, self.now)

    # -- process framework ---------------------------------------------------

    def spawn(self, generator: Generator) -> "Process":
        """Start a process; it begins executing at the current time."""
        process = Process(self, generator)
        self.schedule(0.0, process._step)
        return process


def charge_parallel(durations: Sequence[float], lanes: int) -> Tuple[float, List[float]]:
    """Cost of running ``durations`` over ``lanes`` concurrent lanes.

    Greedy in-order assignment: each duration goes to the lane that
    frees up earliest (lowest index on ties), matching a fetch
    scheduler that issues requests in plan order onto a bounded pool
    of connections.  Returns ``(makespan, lane_totals)`` where
    ``makespan`` is the max over lanes — the wall-clock the batch
    occupies — and ``lane_totals`` the per-lane busy seconds (their
    sum is what a serial execution would have charged).

    Pure accounting, and the one lane rule: the I/O scheduler and the
    query's read pool call it with measured durations, the designer with
    estimated ones.  Like query latency generally, it moves no clock.
    Deterministic for a given input (no RNG, no tie ambiguity).
    """
    if lanes < 1:
        raise ValueError("lanes must be >= 1")
    if durations and min(durations) < 0:
        raise ValueError("durations must be >= 0")
    lane_free = [0.0] * min(lanes, max(len(durations), 1))
    for duration in durations:
        # ``index`` finds the first lane holding the minimum: the lowest
        # index on ties, without a Python call per lane.
        lane_free[lane_free.index(min(lane_free))] += duration
    return (max(lane_free) if durations else 0.0), lane_free


@dataclass
class Timeout:
    """Yield from a process to sleep for ``delay`` simulated seconds."""

    delay: float


class Process:
    """A running simulation process wrapping a generator.

    An exception the generator raises propagates out of
    :meth:`SimClock.run`."""

    def __init__(self, clock: SimClock, generator: Generator):
        self._clock = clock
        self._gen = generator

    def _step(self) -> None:
        try:
            effect = next(self._gen)
        except StopIteration:
            return
        if isinstance(effect, Timeout):
            self._clock.schedule(effect.delay, self._step)
        elif isinstance(effect, AcquireAll):
            effect._register(self)
        else:
            raise TypeError(f"process yielded unsupported effect: {effect!r}")


class AcquireAll:
    """Atomically acquire one unit from each resource.

    Yield an instance from a process; it resumes only when *every*
    resource has a free unit, and takes them all at once — avoiding the
    convoy effect of holding one resource while queueing on another
    (exactly what a database's admission controller does with execution
    slots).  Waiters are served FIFO per arrival.
    """

    _seq_counter = itertools.count()

    def __init__(self, resources: Sequence["Resource"]):
        self.resources = list(resources)
        self._process: Optional[Process] = None
        self._seq = next(AcquireAll._seq_counter)

    def _register(self, process: Process) -> None:
        self._process = process
        for resource in self.resources:
            resource._multi_waiters.append(self)
        if self.resources:
            self.resources[0]._try_multi()
        else:
            process._clock.schedule(0.0, process._step)

    def _ready(self) -> bool:
        # Count duplicates: acquiring the same resource twice needs 2 units.
        needed: dict = {}
        for resource in self.resources:
            needed[id(resource)] = needed.get(id(resource), 0) + 1
        return all(
            resource.available >= needed[id(resource)]
            for resource in self.resources
        )

    def _grant(self) -> None:
        for resource in self.resources:
            resource.in_use += 1
            if self in resource._multi_waiters:
                resource._multi_waiters.remove(self)
        process = self._process
        if process is not None:
            process._clock.schedule(0.0, process._step)


class Resource:
    """Counted resource with FIFO waiting, e.g. per-node execution slots."""

    def __init__(self, capacity: int, name: str = ""):
        if capacity < 0:
            raise ValueError("capacity must be >= 0")
        self.capacity = capacity
        self.name = name
        self.in_use = 0
        self._multi_waiters: List["AcquireAll"] = []

    def release(self, amount: int = 1) -> None:
        if amount > self.in_use:
            raise ValueError("releasing more than is held")
        self.in_use -= amount
        self._try_multi()

    def set_capacity(self, capacity: int) -> None:
        """Resize the resource (elasticity); waiters are re-examined."""
        if capacity < 0:
            raise ValueError("capacity must be >= 0")
        self.capacity = capacity
        self._try_multi()

    @property
    def available(self) -> int:
        return max(0, self.capacity - self.in_use)

    def _try_multi(self) -> None:
        """Grant waiting AcquireAll requests (globally FIFO by seq)."""
        progressed = True
        while progressed:
            progressed = False
            for waiter in sorted(self._multi_waiters, key=lambda w: w._seq):
                if waiter._ready():
                    waiter._grant()
                    progressed = True
                    break
