"""Discrete-event throughput simulation over live cluster objects.

Since the workload manager landed (:mod:`repro.wm`), Figure 11a is
measured through the real admission-controlled query path; this
side-model is retained as the *shape oracle* the measured run is diffed
against (see ``benchmarks/bench_fig11a_throughput.py``), and still
drives the COPY-throughput and event-sweep benches.

The model follows section 4.2 exactly: "For a database with S shards, N
nodes, and E execution slots per node, a running query requires S of the
total N * E slots."  Each simulated client loops: open a session (the
*real* max-flow selection against the live cluster — so node kills and
subscription changes reroute queries mid-simulation), take one execution
slot on every participating node, hold them for the query's service time,
release, repeat.

Service time is calibrated from one real execution
(:func:`profile_query`) and decomposed into

* ``work_seconds`` — total fragment work for the query (split across the
  nodes sharing it; a node serving two shards does two shards' work);
* ``coordination_base`` — dispatch + initiator merge work;
* ``coordination_per_node`` — per-participant messaging;
* ``contention_per_inflight`` — optional per-concurrent-query overhead
  (used for the Enterprise all-nodes-participate baseline, where every
  node handles every query's setup — the "overhead of assembling"
  additional compute the paper blames for Enterprise's degradation).
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass, field
from typing import Callable, Dict, List, Optional, Sequence, Tuple

from repro.common.clock import AcquireAll, Resource, SimClock, Timeout
from repro.errors import ClusterError, ReproError


@dataclass
class ServiceModel:
    """Calibrated per-query cost decomposition."""

    work_seconds: float
    coordination_base: float = 0.002
    coordination_per_node: float = 0.0005
    contention_per_inflight: float = 0.0

    def service_time(self, share_counts: Dict[str, int], total_shares: int,
                     inflight: int) -> float:
        """Seconds the query holds its slots.

        ``share_counts`` maps each participating node to the number of
        shards/regions it serves for this query; the busiest node bounds
        the parallel fragment time.
        """
        if not share_counts or total_shares == 0:
            return self.coordination_base
        busiest = max(share_counts.values())
        fragment = self.work_seconds * busiest / total_shares
        return (
            fragment
            + self.coordination_base
            + self.coordination_per_node * len(share_counts)
            + self.contention_per_inflight * inflight
        )


@dataclass
class ThroughputResult:
    """Outcome of one throughput simulation."""

    completed: int
    duration_seconds: float
    threads: int
    window_seconds: Optional[float] = None
    window_counts: List[int] = field(default_factory=list)
    window_starts: List[float] = field(default_factory=list)
    errors: int = 0

    @property
    def per_minute(self) -> float:
        if self.duration_seconds == 0:
            return 0.0
        return self.completed * 60.0 / self.duration_seconds


#: Picks the nodes a request runs on: returns (node -> share count).
Picker = Callable[[int], Dict[str, int]]


def eon_query_picker(cluster, **session_options) -> Picker:
    """Session-layout picker using the real max-flow selection."""

    def pick(seed: int) -> Dict[str, int]:
        session = cluster.create_session(seed=seed, **session_options)
        try:
            return dict(Counter(session.assignment.values()))
        finally:
            session.release()

    return pick


def enterprise_query_picker(cluster) -> Picker:
    """All up nodes participate; a buddy covers a down node's region."""

    def pick(seed: int) -> Dict[str, int]:
        session = cluster.create_session(seed=seed)
        try:
            return dict(Counter(session.region_server.values()))
        finally:
            session.release()

    return pick


def eon_copy_picker(cluster) -> Picker:
    """Writers for one COPY: loads "run according to the selected mapping
    of nodes to shards" (section 4.5), i.e. the session's max-flow
    assignment — balanced across subscribers and varied per session."""

    def pick(seed: int) -> Dict[str, int]:
        session = cluster.create_session(seed=seed)
        try:
            return dict(Counter(session.assignment.values()))
        finally:
            session.release()

    return pick


def profile_query(cluster, sql: str, **query_options) -> ServiceModel:
    """Calibrate a ServiceModel from one real execution."""
    result = cluster.query(sql, **query_options)
    stats = result.stats
    total_busy = sum(w.busy_seconds for w in stats.per_node.values())
    return ServiceModel(
        work_seconds=total_busy,
        coordination_base=stats.dispatch_seconds + stats.initiator_cpu_seconds,
        coordination_per_node=max(
            stats.network_seconds / max(len(stats.per_node), 1), 0.0005
        ),
    )


def run_throughput_sim(
    picker: Picker,
    service: ServiceModel,
    total_shares: int,
    node_slots: Dict[str, int],
    threads: int,
    duration_seconds: float,
    window_seconds: Optional[float] = None,
    events: Sequence[Tuple[float, Callable[[], None]]] = (),
    clock: Optional[SimClock] = None,
    seed: int = 0,
) -> ThroughputResult:
    """Run the slots simulation; returns throughput counts.

    ``events`` schedules cluster mutations mid-run (e.g. a node kill at
    t=600); because the picker consults the live cluster, routing adapts
    from the next query onward.
    """
    clock = clock or SimClock()
    slots = {
        name: Resource(clock, capacity, name=name)
        for name, capacity in node_slots.items()
    }
    result = ThroughputResult(
        completed=0, duration_seconds=duration_seconds, threads=threads,
        window_seconds=window_seconds,
    )
    completions: List[float] = []
    inflight = [0]

    def client(client_id: int):
        request = 0
        while clock.now < duration_seconds:
            request += 1
            try:
                shares = picker(seed * 1_000_003 + client_id * 10_007 + request)
            except (ClusterError, ReproError):
                result.errors += 1
                yield Timeout(0.05)  # back off and retry
                continue
            # Contention (setup messaging) scales with offered load, which
            # includes queries waiting for slots — they have already been
            # dispatched to the participating nodes.
            inflight[0] += 1
            resources = [
                slots[name]
                for name in sorted(shares)
                if name in slots and slots[name].capacity > 0
            ]
            grant = AcquireAll(resources)
            yield grant
            hold = service.service_time(shares, total_shares, inflight[0])
            yield Timeout(hold)
            inflight[0] -= 1
            grant.release()
            if clock.now <= duration_seconds:
                completions.append(clock.now)
                result.completed += 1

    for at, callback in events:
        clock.schedule(at, callback)
    for i in range(threads):
        clock.spawn(client(i))
    clock.run(until=duration_seconds)

    if window_seconds:
        n_windows = int(duration_seconds // window_seconds)
        result.window_counts = [0] * n_windows
        result.window_starts = [w * window_seconds for w in range(n_windows)]
        for t in completions:
            index = min(int(t // window_seconds), n_windows - 1)
            result.window_counts[index] += 1
    return result


def run_query_throughput(
    cluster,
    service: ServiceModel,
    threads: int,
    duration_seconds: float = 60.0,
    mode: str = "eon",
    window_seconds: Optional[float] = None,
    events: Sequence[Tuple[float, Callable[[], None]]] = (),
    seed: int = 0,
    **session_options,
) -> ThroughputResult:
    """Convenience wrapper wiring a cluster into the slots simulation."""
    if mode == "eon":
        picker = eon_query_picker(cluster, **session_options)
        total = cluster.shard_map.count
    elif mode == "enterprise":
        picker = enterprise_query_picker(cluster)
        total = len(cluster.node_order)
    else:
        raise ValueError(f"unknown mode {mode!r}")
    node_slots = {
        name: node.execution_slots for name, node in cluster.nodes.items()
    }
    return run_throughput_sim(
        picker, service, total, node_slots, threads, duration_seconds,
        window_seconds=window_seconds, events=events, seed=seed,
    )


def run_copy_throughput(
    cluster,
    batch_bytes: int = 50 << 20,
    threads: int = 10,
    duration_seconds: float = 60.0,
    seed: int = 0,
) -> ThroughputResult:
    """Figure-11b style COPY throughput: each load splits its batch over
    the shard writers and pays the S3 upload time."""
    shard_count = cluster.shard_map.count
    per_writer_bytes = batch_bytes / shard_count
    upload = cluster.shared_data.estimate_write_seconds(int(per_writer_bytes))
    parse_cpu = batch_bytes / 200e6  # ingest parse/encode throughput
    service = ServiceModel(
        # The full per-writer cost (upload + its slice of parsing) is paid
        # by the busiest writer; coordination covers the commit round.
        work_seconds=(upload + parse_cpu / shard_count) * shard_count,
        coordination_base=0.004,
        coordination_per_node=0.001,
    )
    picker = eon_copy_picker(cluster)
    node_slots = {
        name: node.execution_slots for name, node in cluster.nodes.items()
    }
    return run_throughput_sim(
        picker, service, shard_count, node_slots, threads, duration_seconds,
        seed=seed,
    )
