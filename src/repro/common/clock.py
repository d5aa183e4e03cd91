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
  ``yield`` *effects*: :class:`Timeout`, an :meth:`Resource.acquire` request,
  or another :class:`Process` (join).
* :class:`Resource` — a counted resource with a FIFO wait queue (used to
  model per-node execution slots, disk/S3 service channels, ...).

Everything is deterministic: ties in event time are broken by insertion
order.
"""

from __future__ import annotations

import heapq
import itertools
from dataclasses import dataclass, field
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

    def charge_parallel(
        self, durations: Sequence[float], lanes: int
    ) -> Tuple[float, List[float]]:
        """Cost of running ``durations`` over ``lanes`` concurrent lanes.

        Greedy in-order assignment: each duration goes to the lane that
        frees up earliest (lowest index on ties), matching a fetch
        scheduler that issues requests in plan order onto a bounded pool
        of connections.  Returns ``(makespan, lane_totals)`` where
        ``makespan`` is the max over lanes — the wall-clock the batch
        occupies — and ``lane_totals`` the per-lane busy seconds (their
        sum is what a serial execution would have charged).

        Pure accounting: like query latency generally, this does not move
        ``now`` — callers fold the makespan into cost-model latency.
        Deterministic for a given input (no RNG, no tie ambiguity).
        """
        if lanes < 1:
            raise ValueError("lanes must be >= 1")
        if any(d < 0 for d in durations):
            raise ValueError("durations must be >= 0")
        lane_free = [0.0] * min(lanes, max(len(durations), 1))
        for duration in durations:
            index = min(range(len(lane_free)), key=lambda i: (lane_free[i], i))
            lane_free[index] += duration
        return (max(lane_free) if durations else 0.0), lane_free

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
        self.schedule(0.0, process._step_none)
        return process


@dataclass
class Timeout:
    """Yield from a process to sleep for ``delay`` simulated seconds."""

    delay: float


class Process:
    """A running simulation process wrapping a generator.

    Other processes may ``yield`` a Process to wait for its completion; the
    waiting process receives the finished process's return value.
    """

    def __init__(self, clock: SimClock, generator: Generator):
        self._clock = clock
        self._gen = generator
        self.finished = False
        self.value: object = None
        self.error: Optional[BaseException] = None
        self._waiters: List[Callable[[], None]] = []

    def _step_none(self) -> None:
        self._step(None)

    def _step(self, send_value: object) -> None:
        try:
            effect = self._gen.send(send_value)
        except StopIteration as stop:
            self._finish(stop.value)
            return
        except BaseException as exc:  # propagate to joiners
            self.error = exc
            self._finish(None)
            return
        self._dispatch(effect)

    def _dispatch(self, effect: object) -> None:
        if isinstance(effect, Timeout):
            self._clock.schedule(effect.delay, lambda: self._step(None))
        elif isinstance(effect, _AcquireRequest):
            effect.resource._enqueue(effect, self)
        elif isinstance(effect, AcquireAll):
            effect._register(self)
        elif isinstance(effect, Process):
            if effect.finished:
                self._clock.schedule(0.0, lambda: self._resume_join(effect))
            else:
                effect._waiters.append(lambda: self._resume_join(effect))
        else:
            raise TypeError(f"process yielded unsupported effect: {effect!r}")

    def _resume_join(self, joined: "Process") -> None:
        if joined.error is not None:
            try:
                self._gen.throw(joined.error)
            except StopIteration as stop:
                self._finish(stop.value)
                return
            except BaseException as exc:
                self.error = exc
                self._finish(None)
                return
            # generator swallowed the error and yielded a new effect — we
            # cannot recover the effect from throw() result here, so forbid.
            raise RuntimeError("process must not yield from except block via throw")
        self._step(joined.value)

    def _finish(self, value: object) -> None:
        self.finished = True
        self.value = value
        waiters, self._waiters = self._waiters, []
        for waiter in waiters:
            self._clock.schedule(0.0, waiter)
        if self.error is not None and not waiters:
            raise self.error


class _AcquireRequest:
    def __init__(self, resource: "Resource", amount: int):
        self.resource = resource
        self.amount = amount


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
            process._clock.schedule(0.0, lambda: process._step(None))

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
            process._clock.schedule(0.0, lambda: process._step(None))

    def release(self) -> None:
        for resource in self.resources:
            resource.release()


class Resource:
    """Counted resource with FIFO waiting, e.g. per-node execution slots."""

    def __init__(self, clock: SimClock, capacity: int, name: str = ""):
        if capacity < 0:
            raise ValueError("capacity must be >= 0")
        self._clock = clock
        self.capacity = capacity
        self.name = name
        self.in_use = 0
        self._queue: List[tuple] = []  # (request, process)
        self._multi_waiters: List["AcquireAll"] = []

    def acquire(self, amount: int = 1) -> _AcquireRequest:
        """Yield the returned request from a process to take ``amount`` units."""
        if amount < 1:
            raise ValueError("amount must be >= 1")
        return _AcquireRequest(self, amount)

    def release(self, amount: int = 1) -> None:
        if amount > self.in_use:
            raise ValueError("releasing more than is held")
        self.in_use -= amount
        self._drain()

    def set_capacity(self, capacity: int) -> None:
        """Resize the resource (elasticity); waiters are re-examined."""
        if capacity < 0:
            raise ValueError("capacity must be >= 0")
        self.capacity = capacity
        self._drain()

    @property
    def available(self) -> int:
        return max(0, self.capacity - self.in_use)

    def _enqueue(self, request: _AcquireRequest, process: Process) -> None:
        self._queue.append((request, process))
        self._drain()

    def _drain(self) -> None:
        # FIFO: only the head of the queue may proceed, preventing small
        # requests from starving large ones.
        while self._queue:
            request, process = self._queue[0]
            if self.capacity > 0 and request.amount > self.capacity:
                # Can never be satisfied at this size; zero-capacity
                # resources instead make requests wait (the resource may be
                # resized later, e.g. a node coming back up).
                raise ValueError(
                    f"request of {request.amount} exceeds capacity "
                    f"{self.capacity} of resource {self.name!r}"
                )
            if self.in_use + request.amount > self.capacity:
                break
            self._queue.pop(0)
            self.in_use += request.amount
            self._clock.schedule(0.0, lambda p=process: p._step(None))
        self._try_multi()

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
