"""Concurrent closed-loop query driver on the simulation clock.

This is the measurement half of the workload manager: N client
processes, each looping *issue → queue for slots → execute → hold slots
for the modeled service time → repeat*, interleaved deterministically on
the cluster's :class:`~repro.common.clock.SimClock`.  Execution itself
is the real query path — parse, bind, plan, admission, executor, depot,
failover — not a service-time abstraction; only the *duration* a query
occupies its slots comes from the cost model (queries do not advance the
sim clock while executing), folded through
:meth:`~repro.common.clock.SimClock.charge_parallel` over the per-node
busy seconds so a query's slot-holding time reflects its critical path
across the lanes it was granted.

Determinism: client seeds follow the bench harness's per-request formula
(``seed*1_000_003 + client*10_007 + request``), sessions are created
with explicit seeds (no cluster-RNG draws), and all scheduling ties
break by FIFO arrival — the same workload against the same cluster state
produces bit-identical records.

:func:`run_serial_reference` executes the identical (client, request,
seed) grid one query at a time; the differential test asserts the
concurrent run produces bit-identical row digests and depot demand
stats (the PR 3 serial-parity discipline).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, List, Optional, Tuple

from repro.cluster import query_path
from repro.common.clock import SimClock, Timeout
from repro.errors import AdmissionRejected, ReproError
from repro.wm.admission import AdmissionTicket

#: Floor on slot-holding time so a zero-cost query still advances time.
_MIN_HOLD_SECONDS = 1e-6


@dataclass(frozen=True)
class ClosedLoopWorkload:
    """One closed-loop experiment: who asks what, how often, how long."""

    statements: Tuple[str, ...]
    clients: int = 8
    #: Exactly one of these two bounds the run.
    requests_per_client: Optional[int] = None
    duration_seconds: Optional[float] = None
    seed: int = 0
    failover: bool = True
    #: Extra ``create_session`` options of the cluster's flavor, as sorted
    #: pairs so the workload stays hashable/frozen.
    session_options: Tuple[Tuple[str, object], ...] = ()
    #: Adds ``k * (inflight - 1)`` seconds of slot-holding time per query
    #: — contention among queries actually executing together.
    contention_per_inflight: float = 0.0
    #: Adds ``k * (clients - 1)`` seconds of slot-holding time per query —
    #: the Enterprise-mode coordination overhead that grows with *offered*
    #: concurrency, whether or not those sessions were admitted yet
    #: (Fig 11a's falling curve).
    contention_per_client: float = 0.0
    #: Multiplies the modeled service time, letting a bench trade real
    #: executed queries for simulated seconds of slot occupancy.
    service_scale: float = 1.0
    #: Client back-off after a rejection or error.
    backoff_seconds: float = 0.05

    def __post_init__(self):
        if not self.statements:
            raise ValueError("workload needs at least one statement")
        if self.clients < 1:
            raise ValueError("workload needs at least one client")
        if (self.requests_per_client is None) == (self.duration_seconds is None):
            raise ValueError(
                "set exactly one of requests_per_client / duration_seconds"
            )

    def request_seed(self, client: int, request: int) -> int:
        return self.seed * 1_000_003 + client * 10_007 + request

    def statement_index(self, client: int, request: int) -> int:
        return (client + request - 1) % len(self.statements)


@dataclass(frozen=True)
class WorkloadRecord:
    """One request's outcome (``ok`` | ``rejected:<reason>`` | ``error:<type>``)."""

    client: int
    request: int
    sql: str
    outcome: str
    digest: object
    latency_seconds: float
    queue_wait_seconds: float
    completed_at: float


@dataclass
class WorkloadResult:
    """Everything a bench or test needs from one closed-loop run."""

    records: List[WorkloadRecord] = field(default_factory=list)
    completed: int = 0
    rejected: int = 0
    errors: int = 0
    #: Clients still queued when the event loop drained (starvation);
    #: their pending admissions were withdrawn.
    stalled: int = 0
    duration_seconds: float = 0.0

    @property
    def per_minute(self) -> float:
        if self.duration_seconds <= 0:
            return 0.0
        return self.completed / self.duration_seconds * 60.0

    @property
    def total_queue_wait_seconds(self) -> float:
        return sum(r.queue_wait_seconds for r in self.records)

    def ok_digests(self) -> List[tuple]:
        return sorted(
            (r.client, r.request, r.digest)
            for r in self.records
            if r.outcome == "ok"
        )


def _hold_seconds(
    clock: SimClock,
    result,
    ticket: AdmissionTicket,
    workload: ClosedLoopWorkload,
    inflight: int,
) -> float:
    """Simulated seconds the query occupies its slots.

    Start from the cost model's latency (minus the queue wait already
    charged into ``dispatch_seconds``), but re-derive the parallel
    portion with :meth:`SimClock.charge_parallel`: the per-node busy
    seconds run over exactly the lanes (slots) this ticket was granted.
    """
    stats = result.stats
    busy = sorted((w.busy_seconds for w in stats.per_node.values()), reverse=True)
    makespan, _ = clock.charge_parallel(busy, max(1, ticket.total_slots))
    service = (
        stats.latency_seconds
        - ticket.queue_wait_seconds
        - (busy[0] if busy else 0.0)
        + makespan
    )
    hold = max(service, _MIN_HOLD_SECONDS) * workload.service_scale
    hold += workload.contention_per_inflight * max(0, inflight - 1)
    hold += workload.contention_per_client * max(0, workload.clients - 1)
    return hold


def run_closed_loop(
    cluster,
    workload: ClosedLoopWorkload,
    result_key: Optional[Callable[[object], object]] = None,
) -> WorkloadResult:
    """Drive ``workload`` against ``cluster`` (Eon or Enterprise).

    Requires the cluster's clock to be free of free-running service
    loops (the default: clusters start none), because the run drains the
    event loop to completion.
    """
    admission = cluster.admission
    clock: SimClock = cluster.clock
    parsed = [(sql.strip(), query_path.parse_select(cluster, sql)) for sql in workload.statements]
    session_options = dict(workload.session_options)
    start = clock.now
    result = WorkloadResult()
    inflight = [0]

    def one_request(cid: int, req: int):
        sql, statement = parsed[workload.statement_index(cid, req)]
        seed = workload.request_seed(cid, req)
        session = None
        ticket = None
        pending = None

        def record(outcome, digest=None, latency=0.0, wait=0.0):
            result.records.append(
                WorkloadRecord(
                    client=cid,
                    request=req,
                    sql=sql,
                    outcome=outcome,
                    digest=digest,
                    latency_seconds=latency,
                    queue_wait_seconds=wait,
                    completed_at=clock.now,
                )
            )

        try:
            session = cluster.create_session(seed=seed, **session_options)
            # Bound and planned once: the demand queues for slots, the plan
            # runs under the ticket they grant.
            prepared = query_path.prepare(statement, session)
            pending = admission.enqueue(prepared.demand, session.initiator)
            yield pending.effect
            settled, pending = pending, None
            ticket = settled.granted()
            inflight[0] += 1
            try:
                query_result = query_path.run(
                    cluster,
                    statement,
                    request_text=sql,
                    failover=workload.failover,
                    ticket=ticket,
                    prepared=prepared,
                )
                hold = _hold_seconds(
                    clock, query_result, ticket, workload, inflight[0]
                )
            finally:
                inflight[0] -= 1
            # Hold the slots for the modeled service time: this is what
            # makes later arrivals queue, i.e. the whole experiment.
            yield Timeout(hold)
            result.completed += 1
            record(
                "ok",
                digest=result_key(query_result) if result_key else None,
                latency=query_result.stats.latency_seconds,
                wait=ticket.queue_wait_seconds,
            )
        except AdmissionRejected as exc:
            result.rejected += 1
            record(f"rejected:{exc.reason}")
            yield Timeout(workload.backoff_seconds)
        except ReproError as exc:
            result.errors += 1
            record(f"error:{type(exc).__name__}")
            yield Timeout(workload.backoff_seconds)
        finally:
            if pending is not None:
                pending.cancel()
            if ticket is not None:
                admission.release(ticket)
            if session is not None:
                session.release()

    def client(cid: int):
        if workload.requests_per_client is not None:
            for req in range(1, workload.requests_per_client + 1):
                yield from one_request(cid, req)
        else:
            req = 0
            while clock.now - start < workload.duration_seconds:
                req += 1
                yield from one_request(cid, req)

    processes = [clock.spawn(client(cid)) for cid in range(workload.clients)]
    clock.run()
    # A drained loop with waiters left means starvation (e.g. capacity
    # collapsed to zero mid-wait): withdraw them so their effects cannot
    # haunt a later run on the same clock.
    result.stalled = admission.cancel_waiting()
    del processes
    end = max((r.completed_at for r in result.records), default=clock.now)
    result.duration_seconds = max(end - start, _MIN_HOLD_SECONDS)
    return result


def run_serial_reference(
    cluster,
    workload: ClosedLoopWorkload,
    result_key: Optional[Callable[[object], object]] = None,
) -> WorkloadResult:
    """The same (client, request, seed) grid, one query at a time.

    Sessions use the identical per-request seeds, so each request selects
    the identical participating subscriptions — the basis for the
    serial-vs-concurrent parity audit.
    """
    if workload.requests_per_client is None:
        raise ValueError("serial reference needs requests_per_client")
    parsed = [(sql.strip(), query_path.parse_select(cluster, sql)) for sql in workload.statements]
    session_options = dict(workload.session_options)
    clock: SimClock = cluster.clock
    start = clock.now
    result = WorkloadResult()
    for cid in range(workload.clients):
        for req in range(1, workload.requests_per_client + 1):
            sql, statement = parsed[workload.statement_index(cid, req)]
            seed = workload.request_seed(cid, req)
            try:
                session = cluster.create_session(seed=seed, **session_options)
                try:
                    query_result = cluster.query_statement(
                        statement,
                        session=session,
                        request_text=sql,
                        failover=workload.failover,
                    )
                finally:
                    session.release()
            except AdmissionRejected as exc:
                result.rejected += 1
                result.records.append(
                    WorkloadRecord(
                        cid, req, sql, f"rejected:{exc.reason}", None,
                        0.0, 0.0, clock.now,
                    )
                )
                continue
            except ReproError as exc:
                result.errors += 1
                result.records.append(
                    WorkloadRecord(
                        cid, req, sql, f"error:{type(exc).__name__}", None,
                        0.0, 0.0, clock.now,
                    )
                )
                continue
            result.completed += 1
            result.records.append(
                WorkloadRecord(
                    cid,
                    req,
                    sql,
                    "ok",
                    result_key(query_result) if result_key else None,
                    query_result.stats.latency_seconds,
                    0.0,
                    clock.now,
                )
            )
    result.duration_seconds = max(clock.now - start, _MIN_HOLD_SECONDS)
    return result
