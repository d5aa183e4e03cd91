"""The ``\\doctor`` latency attributor and its overload scenario pack.

Controlled tests build one overload signature at a time — noisy-neighbor
queueing, a cold-depot stampede, an S3 throttling burst, a mid-query
straggler — and assert the doctor names the right dominant cause, parsed
from the same rendered report the shell prints.

The ``campaign``-marked wall (``make sim-smoke K=doctor``) runs the four
overload generator profiles under the full chaos menu: every probe the pack logs
is replayed through :func:`diagnose` and must yield the probe's expected
verdict, and a 5-seed bit-identity check shows Data Collector recording
does not perturb the campaign digest or its end-state metrics.
"""

from __future__ import annotations

import pytest

from repro import EonCluster
from repro.errors import ReproError
from repro.obs.datacollector import NULL_DATA_COLLECTOR
from repro.obs.doctor import COMPONENTS, diagnose
from repro.shared_storage.s3 import FaultInjector, SimulatedS3
from repro.sim import CampaignConfig, run_campaign
from repro.sim.generator import ScenarioGenerator
from repro.sim.harness import SimWorld, _execute_step
from repro.sim.invariants import InvariantRegistry
from repro.sim.trace import Trace
from repro.wm.driver import ClosedLoopWorkload, run_closed_loop


def quiet_cluster(nodes=3, seed=21, **kwargs):
    """A cluster with zero base fault rate: each controlled scenario
    injects exactly one overload signature and nothing else."""
    cluster = EonCluster(
        [f"n{i + 1}" for i in range(nodes)],
        shard_count=nodes,
        seed=seed,
        shared_storage=SimulatedS3(
            faults=FaultInjector(failure_rate=0.0, seed=seed)
        ),
        **kwargs,
    )
    cluster.execute("create table t (k int, g varchar, v int)")
    cluster.load(
        "t", [(k, f"g{k % 5}", (k * 7) % 101) for k in range(300)]
    )
    cluster.enable_observability()
    return cluster


def dominant_of(cluster, request_id=None):
    """Diagnose and parse the verdict from the rendered report — the same
    line the shell prints and the scenario tests assert on."""
    diagnosis = diagnose(cluster, request_id)
    report = diagnosis.render()
    [verdict_line] = [
        line for line in report.splitlines() if "dominant cause:" in line
    ]
    parsed = verdict_line.split("dominant cause:")[1].split("—")[0].strip()
    assert parsed == diagnosis.dominant  # render and verdict agree
    return parsed, report


class TestControlledAttribution:
    """One overload signature at a time; the doctor must name it."""

    def test_plain_query_blames_execution(self):
        cluster = quiet_cluster()
        cluster.query("select sum(v) from t")
        dominant, report = dominant_of(cluster)
        assert dominant == "execution"
        assert "breakdown:" in report

    def test_noisy_neighbor_blames_queue_wait(self):
        cluster = quiet_cluster()
        workload = ClosedLoopWorkload(
            statements=(
                "select count(*) from t",
                "select sum(v) from t",
            ),
            clients=10,
            requests_per_client=2,
            seed=77,
        )
        result = run_closed_loop(cluster, workload)
        waits = [r.queue_wait_seconds for r in result.records]
        assert max(waits) > 0  # the pool actually saturated
        slowest = max(
            cluster.obs.requests,
            key=lambda r: (r.queue_wait_seconds, r.request_id),
        )
        dominant, report = dominant_of(cluster, slowest.request_id)
        assert dominant == "queue wait"
        assert "noisy neighbor" in report

    def test_depot_stampede_blames_depot_misses(self):
        cluster = quiet_cluster()
        for node in cluster.nodes.values():
            node.cache.clear()
        cluster.query("select count(*) from t")
        record = cluster.obs.requests[-1]
        assert record.depot_misses > 0
        dominant, report = dominant_of(cluster, record.request_id)
        assert dominant == "depot misses"
        assert "thundering herd" in report

    def test_throttling_burst_blames_throttling(self):
        cluster = quiet_cluster()
        for node in cluster.nodes.values():
            node.cache.clear()
        cluster.shared.faults.begin_burst(0.5, 20)
        cluster.query("select sum(v) from t")
        record = cluster.obs.requests[-1]
        assert record.retries > 0
        dominant, report = dominant_of(cluster, record.request_id)
        assert dominant == "throttling"
        assert "throttling burst" in report

    def test_straggler_failover_blames_failover_backoff(self):
        cluster = quiet_cluster()
        cluster.query("select count(*) from t")  # warm every depot
        session = cluster.create_session()
        try:
            victims = [
                p for p in sorted(session.participants())
                if p != session.initiator
            ]
            cluster.kill_node(victims[0])
            from repro.sql.parser import parse

            cluster.query_statement(
                parse("select count(*) from t")[0],
                session=session,
                request_text="select count(*) from t",
                failover=True,
            )
        finally:
            session.release()
        record = cluster.obs.requests[-1]
        assert record.failover_backoff_seconds > 0
        dominant, report = dominant_of(cluster, record.request_id)
        assert dominant == "failover backoff"
        assert "failed mid-query" in report


class TestDiagnoseApi:
    def test_requires_observability(self):
        cluster = EonCluster(["n1", "n2"], shard_count=2, seed=1)
        with pytest.raises(ReproError, match="observability"):
            diagnose(cluster)

    def test_requires_recorded_requests(self):
        cluster = EonCluster(["n1", "n2"], shard_count=2, seed=1)
        cluster.enable_observability()
        with pytest.raises(ReproError, match="no recorded requests"):
            diagnose(cluster)

    def test_unknown_request_id_lists_recent(self):
        cluster = quiet_cluster(nodes=2)
        cluster.query("select count(*) from t")
        known = cluster.obs.requests[-1].request_id
        with pytest.raises(ReproError, match=f"recent ids: .*{known}"):
            diagnose(cluster, known + 999)

    def test_default_picks_slowest_request(self):
        cluster = quiet_cluster(nodes=2)
        cluster.query("select k from t where k < 3")
        for node in cluster.nodes.values():
            node.cache.clear()
        cluster.query("select sum(v) from t")  # cold: slower
        slowest = max(
            cluster.obs.requests,
            key=lambda r: (r.duration_seconds, r.request_id),
        )
        assert diagnose(cluster).request_id == slowest.request_id

    def test_components_cover_latency(self):
        cluster = quiet_cluster(nodes=2)
        cluster.query("select g, sum(v) s from t group by g")
        diagnosis = diagnose(cluster)
        assert tuple(name for name, _ in diagnosis.components) == COMPONENTS
        assert sum(s for _, s in diagnosis.components) == pytest.approx(
            diagnosis.latency_seconds
        )

    def test_top_operators_from_profile(self):
        cluster = quiet_cluster(nodes=2)
        cluster.query("select count(*) from t")
        diagnosis = diagnose(cluster)
        assert diagnosis.top_operators
        assert all(len(op) == 3 for op in diagnosis.top_operators)


DOCTOR_SEEDS = (3, 11, 19, 29, 41)

SCENARIO_GENERATORS = (
    ("noisy_neighbor", "noisy_neighbor", "queue wait"),
    ("depot_stampede", "depot_stampede", "depot misses"),
    ("hot_shard", "hot_shard_throttle", "throttling"),
    ("straggler", "straggler_failover", "failover backoff"),
)


@pytest.mark.campaign
class TestDoctorCampaigns:
    """Acceptance: chaos campaigns with the overload pack stay clean, and
    every probe whose request survived to campaign end diagnoses to the
    probe's expected cause."""

    @pytest.mark.parametrize(
        "profile,action_name,expected_cause",
        SCENARIO_GENERATORS,
        ids=[g[1] for g in SCENARIO_GENERATORS],
    )
    def test_scenario_campaigns_clean_and_probes_attribute(
        self, profile, action_name, expected_cause
    ):
        probes_checked = 0
        scheduled = 0
        for seed in DOCTOR_SEEDS:
            result = run_campaign(
                seed,
                CampaignConfig(steps=40),
                generator=ScenarioGenerator(seed, profile=profile),
            )
            assert result.violation is None, result.report()
            scheduled += sum(
                1 for e in result.trace.events if e.action == action_name
            )
            world = result.world
            for _, request_id, cause in world.doctor_probes:
                assert cause == expected_cause
                try:
                    diagnosis = diagnose(world.cluster, request_id)
                except ReproError:
                    # The request aged out of the bounded ring (the one
                    # recorder lives through revives, so nothing else
                    # loses it).
                    continue
                assert diagnosis.dominant == expected_cause
                probes_checked += 1
        assert scheduled > 0, "boosted generator never drew its probe"
        assert probes_checked > 0, "no probe survived to be diagnosed"

    @pytest.mark.parametrize("seed", DOCTOR_SEEDS)
    def test_recording_is_digest_invariant(self, seed):
        """The determinism acceptance bar: a campaign with the Data
        Collector nulled out produces a bit-identical trace digest and
        end-state metrics to the stock run that recorded everything."""
        recorded = run_campaign(seed, CampaignConfig(steps=30))

        config = CampaignConfig(steps=30)
        registry = InvariantRegistry(halt=config.halt)
        world = SimWorld(seed, config)
        world.cluster.obs.dc = NULL_DATA_COLLECTOR
        generator = ScenarioGenerator(seed)
        trace = Trace()
        violation = None
        for step in range(config.steps):
            action = generator.next_action(world)
            violation = _execute_step(world, registry, trace, step, action)
            if violation is not None:
                break
        world.release_all_pins()

        assert violation is None
        assert recorded.violation is None
        assert trace.digest() == recorded.trace.digest()
        from repro.obs.metrics import cluster_metrics

        assert cluster_metrics(world.cluster) == recorded.metrics
