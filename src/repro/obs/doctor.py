"""``\\doctor``: turn recorded telemetry into a "why was this slow" verdict.

A recorded query's latency decomposes into the components the Data
Collector and request records already track separately:

* **queue wait** — admission queue time (``dispatch_seconds`` share from
  the workload manager; the noisy-neighbor signature);
* **failover backoff** — session-level retry penalties after a
  participant died mid-query (the slow-node-straggler signature);
* **throttling** — retry backoff accrued inside the storage layer's
  mandatory retry loop while S3 injected transient faults (the
  skewed-shard-hotspot / throttling-burst signature);
* **depot misses** — simulated seconds spent on shared-storage requests,
  which a warm depot would have served locally (the thundering-herd
  depot-stampede signature);
* **execution** — whatever latency remains: compute, exchange, the query
  itself.

:func:`diagnose` picks a request (the slowest recorded one by default),
computes the breakdown from its :class:`~repro.obs.profile.RequestRecord`,
and names the dominant component.  :meth:`Diagnosis.render` is the
one-screen shell report; its final line — ``dominant cause: <name> — …``
— is the machine-parsable verdict the scenario tests assert on.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Optional, Tuple

from repro.errors import ReproError

#: Attribution order: names, and the deterministic tie-break priority when
#: two components are exactly equal (earlier wins).
COMPONENTS: Tuple[str, ...] = (
    "queue wait",
    "depot misses",
    "failover backoff",
    "throttling",
    "execution",
)

_HINTS = {
    "queue wait": (
        "the query sat in the admission queue; the pool was saturated "
        "by concurrent work (noisy neighbor) — add capacity, raise "
        "execution_slots, or isolate the tenant in its own subcluster"
    ),
    "depot misses": (
        "most of the latency was shared-storage reads a warm depot "
        "would have served locally — the depot was cold or evicting "
        "(thundering herd); grow the depot or warm it before querying"
    ),
    "failover backoff": (
        "a participant failed mid-query and the session retried with "
        "backoff — check node health; the query itself was fine once "
        "it found surviving subscribers"
    ),
    "throttling": (
        "shared storage injected transient faults and the retry loop's "
        "backoff dominated — S3 throttling burst; spread the request "
        "load or let the burst pass"
    ),
    "execution": (
        "the latency is genuine execution work (scan/join/aggregate "
        "compute and data movement) — tune the query or its projections"
    ),
}


@dataclass
class Diagnosis:
    """One diagnosed request: the breakdown and its verdict."""

    request_id: int
    request: str
    initiator: str
    start_seconds: float
    latency_seconds: float
    #: ``(component, seconds)`` in :data:`COMPONENTS` order.
    components: Tuple[Tuple[str, float], ...]
    dominant: str
    rows_produced: int = 0
    depot_hits: int = 0
    depot_misses: int = 0
    s3_requests: int = 0
    s3_dollars: float = 0.0
    retries: int = 0
    #: Top operators by sim-seconds, ``(operator, node, sim_seconds)``.
    top_operators: Tuple[Tuple[str, str, float], ...] = ()

    @property
    def hint(self) -> str:
        return _HINTS[self.dominant]

    def render(self) -> str:
        latency = self.latency_seconds
        lines = [
            f"-- doctor: request {self.request_id} --",
            f"  sql:       {self.request}",
            f"  initiator: {self.initiator}   started t={self.start_seconds:.3f}"
            f"   latency {latency * 1000:.3f} ms",
            f"  rows {self.rows_produced}   depot {self.depot_hits} hits"
            f" / {self.depot_misses} misses   s3 {self.s3_requests} reqs"
            f" (${self.s3_dollars:.6f})   retries {self.retries}",
            "  breakdown:",
        ]
        for name, seconds in self.components:
            share = seconds / latency * 100.0 if latency > 0 else 0.0
            lines.append(
                f"    {name:<18} {seconds * 1000:10.3f} ms  {share:5.1f}%"
            )
        if self.top_operators:
            lines.append("  top operators:")
            for operator, node, seconds in self.top_operators:
                lines.append(
                    f"    {operator:<12} on {node:<6} {seconds * 1000:10.3f} ms"
                )
        lines.append(f"  dominant cause: {self.dominant} — {self.hint}")
        return "\n".join(lines)


def _breakdown(record) -> Tuple[Tuple[str, float], ...]:
    """Latency components of one RequestRecord, in COMPONENTS order.

    ``storage_io_seconds`` is the shared backend's sim-seconds consumed
    during execution — time a fully warm depot would not have spent.
    ``execution`` is the floor-at-zero remainder, so the shares always
    sum to at most the recorded latency.
    """
    queue = record.queue_wait_seconds
    failover = record.failover_backoff_seconds
    throttle = record.retry_backoff_seconds
    storage = record.storage_io_seconds
    execution = max(
        0.0, record.duration_seconds - queue - failover - throttle - storage
    )
    return (
        ("queue wait", queue),
        ("depot misses", storage),
        ("failover backoff", failover),
        ("throttling", throttle),
        ("execution", execution),
    )


def diagnose(cluster, request_id: Optional[int] = None) -> Diagnosis:
    """Diagnose one recorded request (default: the slowest on record).

    Raises :class:`ReproError` when observability is off, nothing has
    been recorded yet, or ``request_id`` is unknown (the request ring is
    bounded, so old ids age out).
    """
    obs = cluster.obs
    if not obs.enabled:
        raise ReproError(
            "doctor needs observability: call cluster.enable_observability() "
            "(or shell \\profile) and re-run the workload"
        )
    records: List = list(obs.requests)
    if not records:
        raise ReproError("doctor: no recorded requests yet")
    if request_id is None:
        record = max(records, key=lambda r: (r.duration_seconds, r.request_id))
    else:
        matches = [r for r in records if r.request_id == request_id]
        if not matches:
            known = ", ".join(str(r.request_id) for r in records[-8:])
            raise ReproError(
                f"doctor: no record of request {request_id} "
                f"(recent ids: {known})"
            )
        record = matches[-1]
    components = _breakdown(record)
    if all(seconds == 0.0 for _, seconds in components):
        dominant = "execution"  # a 0-latency query has nothing to blame
    else:
        # max() keeps the first maximum, so exact ties resolve in
        # COMPONENTS priority order.
        dominant = max(components, key=lambda item: item[1])[0]
    top_operators: Tuple[Tuple[str, str, float], ...] = ()
    for profile in obs.profiles:
        if profile.request_id == record.request_id:
            ranked = sorted(
                profile.operators, key=lambda op: -op.sim_seconds
            )[:3]
            top_operators = tuple(
                (op.operator, op.node, op.sim_seconds) for op in ranked
            )
    return Diagnosis(
        request_id=record.request_id,
        request=record.request,
        initiator=record.node_name,
        start_seconds=record.start_seconds,
        latency_seconds=record.duration_seconds,
        components=components,
        dominant=dominant,
        rows_produced=record.rows_produced,
        depot_hits=record.depot_hits,
        depot_misses=record.depot_misses,
        s3_requests=record.s3_requests,
        s3_dollars=record.s3_dollars,
        retries=record.retries,
        top_operators=top_operators,
    )
