"""Background services: the periodic maintenance loops of a live cluster.

The paper describes several services that "wake up" on intervals: the
catalog sync ("each node ... independently uploads them to shared storage
on a regular, configurable interval", §3.5), the truncation-version /
cluster_info writer (§3.5), mergeout (§6.2), and file reaping (§6.5).
PR 4 adds the rebalance process (§6.4) as a fifth service: it detects
uncovered and under-subscribed shards and promotes or subscribes spare
nodes automatically.

:class:`ServiceScheduler` drives them from the simulated clock, so long
DES runs (like the Figure-12 timeline) execute maintenance at realistic
cadence, and tests can single-step with :meth:`~ServiceScheduler.tick`.
The services are named once, as the fields of :class:`ServiceIntervals`
(:data:`SERVICES`), and every run of every service goes through
:meth:`~ServiceScheduler.run`.

Failure handling: a failing service must not kill its loop, but it must
not be invisible either.  Every swallowed :class:`ReproError` is counted in
the service's :class:`ServiceRuns` ledger (``errors``, ``last_error``) and
recorded as a ``dc_service_runs`` row; ``v_monitor.services`` is one
ledger row per service.  During a shared-storage outage the services
*pause* (``skipped_outage``) instead of burning error counters — a
declared outage is a cluster state, not a service failure.
"""

from __future__ import annotations

from dataclasses import dataclass, fields
from typing import Dict, Optional

from repro.common.clock import Timeout
from repro.errors import ReproError
from repro.obs.metrics import Ledger
from repro.obs.tracing import NULL_TRACER
from repro.tuple_mover import MergeoutCoordinatorService


@dataclass
class ServiceIntervals:
    """Seconds between runs of each service (None disables it); the fields
    are the services, in the order a tick runs them."""

    catalog_sync: Optional[float] = 60.0
    cluster_info: Optional[float] = 300.0
    mergeout: Optional[float] = 120.0
    reaper: Optional[float] = 300.0
    rebalance: Optional[float] = 60.0


#: Every service, in tick order.
SERVICES = tuple(f.name for f in fields(ServiceIntervals))


@dataclass
class ServiceRuns(Ledger):
    """One service's runs: its row of ``v_monitor.services`` after its name."""

    runs: int = 0
    errors: int = 0
    last_error: str = ""
    skipped_outage: int = 0


@dataclass
class ServiceStats(Ledger):
    """What the services did over the scheduler's life: each service's
    domain counts, and (``services``) each service's :class:`ServiceRuns`,
    which the scheduler-wide ``errors`` and ``skipped_outage`` sum."""

    sync_runs: int = 0
    cluster_info_writes: int = 0
    mergeout_jobs: int = 0
    files_reaped: int = 0
    rebalance_runs: int = 0
    rebalance_promotions: int = 0
    rebalance_subscriptions: int = 0

    derived = ("errors", "skipped_outage")

    def __post_init__(self) -> None:
        #: Service name -> its ledger, from the service's first run or pause.
        self.services: Dict[str, ServiceRuns] = {}

    @property
    def errors(self) -> int:
        """Errors swallowed, every service's."""
        return sum(runs.errors for runs in self.services.values())

    @property
    def skipped_outage(self) -> int:
        """Runs skipped because the cluster was degraded (S3 outage)."""
        return sum(runs.skipped_outage for runs in self.services.values())


class ServiceScheduler:
    """Periodic maintenance driver for an Eon cluster."""

    def __init__(self, cluster, intervals: Optional[ServiceIntervals] = None):
        self.cluster = cluster
        self.intervals = intervals or ServiceIntervals()
        self.mergeout_service = MergeoutCoordinatorService(cluster)
        self.stats = ServiceStats()
        self._running = False
        # Registered so v_monitor.services can find the ledgers.
        cluster.service_scheduler = self

    # -- single-step (tests and synchronous callers) -----------------------------

    def tick(self) -> ServiceStats:
        """Run every enabled service once, immediately."""
        for service in SERVICES:
            self.run(service)
        return self.stats

    def run(self, service: str) -> None:
        """One run of ``service`` (a name in :data:`SERVICES`).

        While the cluster is degraded the service pauses rather than fails
        (its S3 requests would all be rejected anyway).  Otherwise the run is
        counted, then its work runs under a ``service.<name>`` span; a
        :class:`ReproError` it raises is counted against it and swallowed.
        """
        cluster = self.cluster
        ledger = self.stats.services.get(service)
        if ledger is None:
            ledger = self.stats.services[service] = ServiceRuns()
        obs = getattr(cluster, "obs", None)
        dc = obs.dc if obs is not None and obs.enabled else None
        refresh = getattr(cluster, "refresh_degraded", None)
        if refresh is not None and refresh():
            ledger.skipped_outage += 1
            if dc is not None:
                dc.record("dc_service_runs", "", (service, "skipped_outage", ""))
            return
        ledger.runs += 1
        if dc is not None:
            dc.record("dc_service_runs", "", (service, "run", ""))
        tracer = obs.tracer if obs is not None else NULL_TRACER
        try:
            with tracer.span("service." + service) as span:
                getattr(self, "_" + service)(span)
        except ReproError as exc:
            error = f"{type(exc).__name__}: {exc}"
            ledger.errors += 1
            ledger.last_error = error
            if dc is not None:
                dc.record("dc_service_runs", "", (service, "error", error))

    # -- each service's work and its counts (run under its span) ----------------

    def _catalog_sync(self, span) -> None:
        # The checkpoints uploaded are the ones the catalogs wrote every
        # ``checkpoint_every`` commits (section 2.4); none is made here.
        self.cluster.sync_catalogs(include_checkpoint=False)
        self.stats.sync_runs += 1

    def _cluster_info(self, span) -> None:
        self.cluster.write_cluster_info()
        self.stats.cluster_info_writes += 1

    def _mergeout(self, span) -> None:
        jobs = self.mergeout_service.run_all(max_jobs_per_shard=4).jobs_run
        span.annotate(jobs=jobs)
        self.stats.mergeout_jobs += jobs

    def _reaper(self, span) -> None:
        deleted = self.cluster.reaper.poll().deleted
        span.annotate(deleted=deleted)
        self.stats.files_reaped += deleted

    def _rebalance(self, span) -> None:
        """The rebalance process (§6.4) as a periodic service: restore
        shard coverage and fault tolerance after node failures without
        waiting for an operator."""
        report = self.cluster.rebalance_subscriptions()
        promoted, subscribed = len(report.promoted), len(report.subscribed)
        span.annotate(promoted=promoted, subscribed=subscribed)
        self.stats.rebalance_runs += 1
        self.stats.rebalance_promotions += promoted
        self.stats.rebalance_subscriptions += subscribed

    # -- clock-driven operation --------------------------------------------------

    def start(self, duration: Optional[float] = None) -> None:
        """Spawn one clock process per enabled service.

        Each service sleeps its interval then runs; a service that raises
        counts an error and keeps going (a failed sync must not kill the
        sync loop).  With ``duration``, services stop scheduling after
        that point; the caller still owns ``clock.run()``.
        """
        clock = self.cluster.clock
        self._running = True

        def loop(interval: float, service: str) -> object:
            while self._running:
                yield Timeout(interval)
                if duration is not None and clock.now > duration:
                    return None
                if not self._running:
                    return None
                self.run(service)
            return None

        for service in SERVICES:
            interval = getattr(self.intervals, service)
            if interval is not None:
                clock.spawn(loop(interval, service))

    def stop(self) -> None:
        self._running = False
