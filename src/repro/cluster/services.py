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
cadence, and tests can single-step with :meth:`tick`.

Failure handling: a failing service must not kill its loop, but it must
not be invisible either.  Every swallowed :class:`ReproError` is recorded
per service (``error_counts`` / ``last_errors``), emitted as a
``services.errors{service=...}`` counter, and surfaced through the
``v_monitor.services`` system table.  During a shared-storage outage the
services *pause* (``skipped_outage``) instead of burning error counters —
a declared outage is a cluster state, not a service failure.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional

from repro.common.clock import Timeout
from repro.errors import ReproError
from repro.obs.tracing import NULL_TRACER
from repro.recovery import SubscriptionRebalancer
from repro.tuple_mover import MergeoutCoordinatorService


@dataclass
class ServiceIntervals:
    """Seconds between runs of each service (None disables it)."""

    catalog_sync: Optional[float] = 60.0
    cluster_info: Optional[float] = 300.0
    mergeout: Optional[float] = 120.0
    reaper: Optional[float] = 300.0
    rebalance: Optional[float] = 60.0
    #: The elastic autoscaler (repro.autoscale).  Disabled by default —
    #: it only runs when an Autoscaler has been attached via
    #: :meth:`ServiceScheduler.attach_autoscaler`.
    autoscale: Optional[float] = None


@dataclass
class ServiceStats:
    sync_runs: int = 0
    cluster_info_writes: int = 0
    mergeout_jobs: int = 0
    files_reaped: int = 0
    rebalance_runs: int = 0
    rebalance_promotions: int = 0
    rebalance_subscriptions: int = 0
    autoscale_ticks: int = 0
    autoscale_actions: int = 0
    errors: int = 0
    #: Service runs skipped because the cluster was degraded (S3 outage).
    skipped_outage: int = 0


class ServiceScheduler:
    """Periodic maintenance driver for an Eon cluster."""

    def __init__(self, cluster, intervals: Optional[ServiceIntervals] = None):
        self.cluster = cluster
        self.intervals = intervals or ServiceIntervals()
        self.mergeout_service = MergeoutCoordinatorService(cluster)
        self.rebalancer = SubscriptionRebalancer(cluster)
        #: Attached via :meth:`attach_autoscaler`; None means disabled.
        self.autoscaler = None
        self.stats = ServiceStats()
        #: Per-service visibility for permanently failing services: total
        #: runs, swallowed-error counts, and the text of the last error.
        self.run_counts: Dict[str, int] = {}
        self.error_counts: Dict[str, int] = {}
        self.last_errors: Dict[str, str] = {}
        self._running = False
        # Registered so v_monitor.services can find the stats.
        cluster.service_scheduler = self

    # -- single-step (tests and synchronous callers) -----------------------------

    def tick(self) -> ServiceStats:
        """Run every enabled service once, immediately."""
        self.run_catalog_sync()
        self.run_cluster_info()
        self.run_mergeout()
        self.run_reaper()
        self.run_rebalancer()
        self.run_autoscale()
        return self.stats

    def attach_autoscaler(self, autoscaler, interval: Optional[float] = None) -> None:
        """Register an :class:`repro.autoscale.Autoscaler` as the sixth
        service.  ``interval`` (seconds) enables its clock loop; omit it
        to drive the scaler only via :meth:`tick` / :meth:`run_autoscale`."""
        self.autoscaler = autoscaler
        if interval is not None:
            self.intervals.autoscale = interval

    def _tracer(self):
        obs = getattr(self.cluster, "obs", None)
        return obs.tracer if obs is not None else NULL_TRACER

    def _paused(self, service: str) -> bool:
        """True while the cluster is degraded: services pause rather than
        fail (their S3 requests would all be rejected anyway)."""
        refresh = getattr(self.cluster, "refresh_degraded", None)
        if refresh is None or not refresh():
            return False
        self.stats.skipped_outage += 1
        self._dc_record(service, "skipped_outage")
        return True

    def _dc_record(self, service: str, outcome: str, detail: str = "") -> None:
        """One row into ``dc_service_runs`` (no-op when obs is disabled)."""
        obs = getattr(self.cluster, "obs", None)
        if obs is not None and obs.enabled:
            obs.dc.record("dc_service_runs", "", (service, outcome, detail))

    def _note_error(self, service: str, error: ReproError) -> None:
        self.stats.errors += 1
        self.error_counts[service] = self.error_counts.get(service, 0) + 1
        self.last_errors[service] = f"{type(error).__name__}: {error}"
        self._dc_record(service, "error", f"{type(error).__name__}: {error}")

    def _note_run(self, service: str) -> None:
        self.run_counts[service] = self.run_counts.get(service, 0) + 1
        self._dc_record(service, "run")

    def run_catalog_sync(self) -> None:
        if self._paused("catalog_sync"):
            return
        self._note_run("catalog_sync")
        try:
            # The checkpoints uploaded are the ones the catalogs wrote every
            # ``checkpoint_every`` commits (section 2.4); none is made here.
            with self._tracer().span("service.catalog_sync"):
                self.cluster.sync_catalogs(include_checkpoint=False)
            self.stats.sync_runs += 1
        except ReproError as exc:
            self._note_error("catalog_sync", exc)

    def run_cluster_info(self) -> None:
        if self._paused("cluster_info"):
            return
        self._note_run("cluster_info")
        try:
            with self._tracer().span("service.cluster_info"):
                self.cluster.write_cluster_info()
            self.stats.cluster_info_writes += 1
        except ReproError as exc:
            self._note_error("cluster_info", exc)

    def run_mergeout(self) -> None:
        if self._paused("mergeout"):
            return
        self._note_run("mergeout")
        try:
            with self._tracer().span("service.mergeout") as span:
                report = self.mergeout_service.run_all(max_jobs_per_shard=4)
                span.annotate(jobs=report.jobs_run)
            self.stats.mergeout_jobs += report.jobs_run
        except ReproError as exc:
            self._note_error("mergeout", exc)

    def run_reaper(self) -> None:
        if self._paused("reaper"):
            return
        self._note_run("reaper")
        try:
            with self._tracer().span("service.reaper") as span:
                reaped = self.cluster.reaper.poll()
                span.annotate(deleted=reaped.deleted)
            self.stats.files_reaped += reaped.deleted
        except ReproError as exc:
            self._note_error("reaper", exc)

    def run_rebalancer(self) -> None:
        """The rebalance process (§6.4) as a periodic service: restore
        shard coverage and fault tolerance after node failures without
        waiting for an operator."""
        if self._paused("rebalance"):
            return
        self._note_run("rebalance")
        try:
            with self._tracer().span("service.rebalance") as span:
                report = self.rebalancer.run()
                span.annotate(
                    promoted=len(report.promoted),
                    subscribed=len(report.subscribed),
                )
            self.stats.rebalance_runs += 1
            self.stats.rebalance_promotions += len(report.promoted)
            self.stats.rebalance_subscriptions += len(report.subscribed)
        except ReproError as exc:
            self._note_error("rebalance", exc)

    def run_autoscale(self) -> None:
        """One autoscaler control-loop pass: repair interrupted
        transitions, sample telemetry, decide, actuate.  A no-op until an
        autoscaler is attached."""
        if self.autoscaler is None:
            return
        if self._paused("autoscale"):
            return
        self._note_run("autoscale")
        try:
            with self._tracer().span("service.autoscale") as span:
                decision = self.autoscaler.run()
                span.annotate(action=decision.action, reason=decision.reason)
            self.stats.autoscale_ticks += 1
            if decision.action != "hold":
                self.stats.autoscale_actions += 1
        except ReproError as exc:
            self._note_error("autoscale", exc)

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

        def loop(interval: float, action) -> object:
            while self._running:
                yield Timeout(interval)
                if duration is not None and clock.now > duration:
                    return None
                if not self._running:
                    return None
                action()
            return None

        pairs = [
            (self.intervals.catalog_sync, self.run_catalog_sync),
            (self.intervals.cluster_info, self.run_cluster_info),
            (self.intervals.mergeout, self.run_mergeout),
            (self.intervals.reaper, self.run_reaper),
            (self.intervals.rebalance, self.run_rebalancer),
            (self.intervals.autoscale, self.run_autoscale),
        ]
        for interval, action in pairs:
            if interval is not None:
                clock.spawn(loop(interval, action))

    def stop(self) -> None:
        self._running = False
