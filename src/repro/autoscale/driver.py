"""The 24h-trace runner: diurnal load, epoch-by-epoch, on the SimClock.

A trace is a sequence of epochs.  Each epoch: advance the clock to the
epoch boundary, give the autoscaler one control-loop tick, then run that
epoch's offered load through the closed-loop driver (the real query
path, real admission queueing).  Node-seconds are integrated piecewise —
topology only changes at tick boundaries, so the integral is exact —
and every completed request's row digest is recorded under its
``(epoch, client, request)`` coordinate, which is what makes the
autoscaled run byte-comparable to a static-topology serial reference (the
tests' serial driver in place of ``run_closed_loop``): row content is
topology-independent, so elasticity must not change a single digest.

The scaler is ticked *between* epochs rather than as a free-running
clock process because :func:`~repro.wm.driver.run_closed_loop` drains
the event loop (a service loop on the same clock would spin forever).
Like every driver of the autoscaler, the runner calls
:meth:`~repro.autoscale.Autoscaler.run` itself; the cluster's service
scheduler knows nothing of it.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Dict, List, Optional, Tuple

from repro.autoscale.service import Autoscaler
from repro.autoscale.traffic import TrafficGenerator
from repro.wm.driver import ClosedLoopWorkload, run_closed_loop

#: On-demand price per node-hour (r4.4xlarge-class, the paper's EC2 era).
NODE_DOLLARS_PER_HOUR = 1.064


@dataclass
class EpochStats:
    """One epoch's outcome."""

    index: int
    start_seconds: float
    clients: int
    nodes: int
    completed: int = 0
    rejected: int = 0
    errors: int = 0
    p99_seconds: float = 0.0


@dataclass
class TraceResult:
    """Everything the bench compares between autoscaled and static runs."""

    epochs: List[EpochStats] = field(default_factory=list)
    node_seconds: float = 0.0
    completed: int = 0
    rejected: int = 0
    errors: int = 0
    stalled: int = 0
    latencies: List[float] = field(default_factory=list)
    #: (epoch, client, request) -> row digest for every ok request.
    digests: Dict[Tuple[int, int, int], object] = field(default_factory=dict)

    @property
    def p99_seconds(self) -> float:
        return _p99(self.latencies)

    def slo_attainment(self, slo_seconds: float) -> float:
        if not self.latencies:
            return 1.0
        within = sum(1 for lat in self.latencies if lat <= slo_seconds)
        return within / len(self.latencies)

    @property
    def node_dollars(self) -> float:
        return self.node_seconds / 3600.0 * NODE_DOLLARS_PER_HOUR


def _p99(values: List[float]) -> float:
    if not values:
        return 0.0
    ordered = sorted(values)
    return ordered[min(len(ordered) - 1, int(0.99 * (len(ordered) - 1) + 0.5))]


def run_trace(
    cluster,
    traffic: TrafficGenerator,
    statements: Tuple[str, ...],
    epochs: int,
    scaler: Optional[Autoscaler] = None,
    requests_per_client: int = 1,
    service_scale: float = 1.0,
    seed: int = 0,
    result_key: Optional[Callable[[object], object]] = None,
) -> TraceResult:
    """Run ``epochs`` epochs of ``traffic`` against ``cluster``.

    ``scaler=None`` is the static baseline (topology never changes).
    """
    clock = cluster.clock
    epoch_seconds = traffic.profile.epoch_seconds
    start = clock.now
    result = TraceResult()
    last_mark = clock.now

    def up_nodes() -> int:
        return sum(1 for n in cluster.nodes.values() if n.is_up)

    def accrue() -> None:
        nonlocal last_mark
        result.node_seconds += up_nodes() * (clock.now - last_mark)
        last_mark = clock.now

    for index in range(epochs):
        target = start + index * epoch_seconds
        if target > clock.now:
            accrue()  # close the segment at the old node count
            clock.run(until=target)
            accrue()
        if scaler is not None:
            accrue()
            scaler.run()
            accrue()  # topology may have changed; restart the segment
        clients = traffic.clients_for_epoch(index)
        epoch = EpochStats(
            index=index,
            start_seconds=clock.now,
            clients=clients,
            nodes=up_nodes(),
        )
        if clients > 0:
            workload = ClosedLoopWorkload(
                statements=statements,
                clients=clients,
                requests_per_client=requests_per_client,
                seed=seed * 1_000_003 + index,
                service_scale=service_scale,
            )
            run = run_closed_loop(cluster, workload, result_key=result_key)
            accrue()
            epoch.completed = run.completed
            epoch.rejected = run.rejected
            epoch.errors = run.errors
            result.completed += run.completed
            result.rejected += run.rejected
            result.errors += run.errors
            result.stalled += run.stalled
            ok_latencies = []
            for record in run.records:
                if record.outcome != "ok":
                    continue
                ok_latencies.append(record.latency_seconds)
                result.digests[(index, record.client, record.request)] = (
                    record.digest
                )
            epoch.p99_seconds = _p99(ok_latencies)
            result.latencies.extend(ok_latencies)
        result.epochs.append(epoch)
    # Close the trailing segment to the nominal end of the trace.
    end = start + epochs * epoch_seconds
    if end > clock.now:
        accrue()
        clock.run(until=end)
    accrue()
    return result
