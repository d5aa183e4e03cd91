"""Autoscale campaigns and the diurnal trace (``campaign``-marked; run
alone via ``make sim-smoke K=autoscale``).

Three walls:

* 5-seed chaos campaigns with the ``autoscale`` generator profile — the
  autoscaler scaling live topology while nodes die and S3 flaps, with
  the ``autoscale-safety`` invariant checked after every step;
* the hibernate -> revive digest round-trip against a static-topology
  serial reference (elasticity must not change a single row digest);
* the scaled-down diurnal trace: the autoscaler must hold the p99 SLO
  with >= 30% fewer node-seconds than a peak-provisioned static
  baseline, on identical row digests.
"""

from __future__ import annotations

import pytest

from repro.autoscale import (
    Autoscaler,
    PolicyConfig,
    TrafficGenerator,
    TrafficProfile,
    run_trace,
)
from repro.cluster.eon import EonCluster
from repro.common.clock import SimClock
from repro.shared_storage.s3 import SimulatedS3
from repro.sim import CampaignConfig, ScenarioGenerator, run_campaign
from repro.sim.oracle import rows_key
from repro.wm.admission import AdmissionController
from repro.wm.driver import ClosedLoopWorkload, run_closed_loop, run_serial_reference
from repro.wm.pool import PoolConfig

SEEDS = (3, 7, 13, 23, 37)

STATEMENTS = (
    "select g, sum(v) s from t group by g",
    "select count(*) c from t",
    "select g, count(*) c, sum(v) s from t group by g",
)


def build_cluster(nodes, seed=11):
    """A cluster with a patient admission config: the trace compares row
    digests across topologies, so nothing may be rejected or shed."""
    clock = SimClock()
    cluster = EonCluster(
        [f"n{i}" for i in range(nodes)],
        shard_count=4,
        shared_storage=SimulatedS3(),
        subscribers_per_shard=2,
        seed=seed,
        clock=clock,
    )
    cluster.admission = AdmissionController(
        cluster,
        PoolConfig(
            max_queue_depth=512,
            queue_timeout_seconds=36000.0,
            shed_cooldown_seconds=0.0,
        ),
    )
    cluster.execute("create table t (k int, g varchar, v int)")
    cluster.load("t", [(k, f"g{k % 7}", (k * 5) % 23) for k in range(300)])
    return cluster


def trace_policy():
    """The diurnal-trace policy: wait-driven thresholds (pressure gates
    disabled — closed-loop arrivals always queue, so the fraction-queued
    signal carries no information), fast up, fast down, hibernate after
    two idle epochs, keep >= 2 burst nodes while awake."""
    return PolicyConfig(
        target_wait_seconds=0.25,
        scale_out_pressure=10.0,
        scale_in_pressure=10.0,
        up_votes=1,
        down_votes=1,
        hibernate_idle_votes=2,
        cooldown_seconds=0.0,
        min_nodes=2,
        max_nodes=4,
        scale_step=2,
    )


@pytest.mark.campaign
class TestAutoscaleCampaigns:
    def test_five_seed_campaign_clean(self):
        total_ticks = 0
        actions = set()
        for seed in SEEDS:
            result = run_campaign(
                seed,
                CampaignConfig(steps=50),
                generator=ScenarioGenerator(seed, profile="autoscale"),
            )
            assert result.ok, result.report()
            slot = result.registry.counters["autoscale-safety"]
            assert slot["checks"] == len(result.trace)
            assert slot["violations"] == 0
            for event in result.trace.events:
                if event.action == "autoscale_tick":
                    total_ticks += 1
                    actions.add(event.outcome)
        assert total_ticks > 0
        # Across the seeds the scaler actually moved topology at least
        # once (not every tick is a hold).
        assert actions - {"ok", "paused_outage"}

    def test_campaign_determinism(self):
        for seed in (3, 23):
            first = run_campaign(
                seed,
                CampaignConfig(steps=40),
                generator=ScenarioGenerator(seed, profile="autoscale"),
            )
            second = run_campaign(
                seed,
                CampaignConfig(steps=40),
                generator=ScenarioGenerator(seed, profile="autoscale"),
            )
            assert first.ok and second.ok
            assert first.digest() == second.digest()


@pytest.mark.campaign
class TestHibernateReviveRoundTrip:
    def test_digests_match_static_serial_reference(self):
        # Elastic run: storm -> hibernate -> revive -> storm, with the
        # scaler driving topology between phases.
        elastic = build_cluster(4, seed=11)
        scaler = Autoscaler(
            elastic,
            config=PolicyConfig(
                target_wait_seconds=0.05,
                scale_out_pressure=10.0,
                scale_in_pressure=10.0,
                up_votes=1,
                down_votes=99,
                hibernate_idle_votes=2,
                cooldown_seconds=0.0,
                min_nodes=2,
                max_nodes=4,
                scale_step=2,
            ),
        )
        workloads = [
            ClosedLoopWorkload(
                statements=STATEMENTS, clients=12, requests_per_client=2,
                seed=100 + phase, service_scale=50.0,
            )
            for phase in range(2)
        ]
        elastic_digests = {}
        run = run_closed_loop(elastic, workloads[0], result_key=rows_key)
        assert run.rejected == 0 and run.errors == 0
        elastic_digests[0] = run.ok_digests()
        assert scaler.run().action == "scale_out"
        # Two idle ticks: the burst subcluster hibernates to S3.
        scaler.run()
        assert scaler.run().action == "hibernate"
        assert scaler.actuator.hibernated
        assert scaler.actuator.read_manifest()["node_count"] == 2
        # Demand returns: next tick revives, then the second storm runs.
        run = run_closed_loop(elastic, workloads[1], result_key=rows_key)
        assert run.rejected == 0 and run.errors == 0
        elastic_digests[1] = run.ok_digests()
        assert scaler.run().action == "revive"
        assert not scaler.actuator.hibernated
        assert len(scaler.actuator.members()) == 2

        # Static-topology serial reference: same workload seeds, no
        # scaler, one request at a time.
        static = build_cluster(4, seed=11)
        for phase in range(2):
            reference = run_serial_reference(
                static, workloads[phase], result_key=rows_key
            )
            assert reference.errors == 0
            assert elastic_digests[phase] == reference.ok_digests()

    def test_round_trip_under_chaos_five_seeds(self):
        # Satellite 4's chaos half: campaigns whose schedules include
        # autoscale transitions stay invariant-clean on every seed (the
        # autoscale-safety invariant covers stranded shards, ghost
        # members, drain bookkeeping, and manifest presence).
        for seed in SEEDS:
            result = run_campaign(
                seed,
                CampaignConfig(steps=60),
                generator=ScenarioGenerator(seed, profile="autoscale"),
            )
            assert result.ok, result.report()


@pytest.mark.campaign
class TestDiurnalTrace:
    """Scaled-down version of benchmarks/bench_autoscale_trace.py: one
    simulated day (plus the next morning, so revive is exercised) at one
    epoch per hour."""

    EPOCHS = 34
    SLO_SECONDS = 2.0

    def run_all(self):
        profile = TrafficProfile(
            night_clients=0, peak_clients=16, burst_probability=0.15,
            burst_multiplier=2.0, epoch_seconds=3600.0, seed=5,
        )
        elastic = build_cluster(2)
        scaler = Autoscaler(elastic, config=trace_policy())
        auto = run_trace(
            elastic, TrafficGenerator(profile), STATEMENTS, self.EPOCHS,
            scaler=scaler, requests_per_client=2, service_scale=50.0,
            seed=9, result_key=rows_key,
        )
        static_cluster = build_cluster(6)
        static = run_trace(
            static_cluster, TrafficGenerator(profile), STATEMENTS,
            self.EPOCHS, requests_per_client=2, service_scale=50.0,
            seed=9, result_key=rows_key,
        )
        serial_cluster = build_cluster(6)
        serial = run_trace(
            serial_cluster, TrafficGenerator(profile), STATEMENTS,
            self.EPOCHS, serial=True, requests_per_client=2,
            service_scale=50.0, seed=9, result_key=rows_key,
        )
        return auto, static, serial, scaler

    def test_slo_cost_and_digest_parity(self):
        auto, static, serial, scaler = self.run_all()
        # Nothing rejected anywhere: parity compares complete runs.
        for result in (auto, static, serial):
            assert result.rejected == 0
            assert result.errors == 0
            assert result.completed == auto.completed
        # SLO: the elastic run holds p99 under the target, same as the
        # peak-provisioned baseline.
        assert auto.p99_seconds <= self.SLO_SECONDS
        assert static.p99_seconds <= self.SLO_SECONDS
        assert auto.slo_attainment(self.SLO_SECONDS) >= 0.99
        # Cost: >= 30% fewer node-seconds than static peak provisioning.
        savings = 1.0 - auto.node_seconds / static.node_seconds
        assert savings >= 0.30, f"only {savings:.1%} node-seconds saved"
        # Correctness: every row digest identical to the static
        # closed-loop run AND the static serial reference.
        assert auto.digests == static.digests
        assert auto.digests == serial.digests
        # The full lifecycle ran: out, in, hibernate, revive.
        for action in ("scale_out", "scale_in", "hibernate", "revive"):
            assert scaler.decisions[action] >= 1, scaler.decisions
