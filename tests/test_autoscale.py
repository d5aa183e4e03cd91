"""Unit and integration tests for ``repro.autoscale``: the shed breaker
and drain primitives in the workload manager, telemetry sampling, the
threshold policy's hysteresis, the topology actuator's safety rules
(including depot warming from peers and hibernate/revive), and the
observability surface (``autoscale.*`` metrics, ``v_monitor``
system tables), and the simulation tick's pause under an outage."""

from __future__ import annotations

import pytest

from repro.autoscale import (
    Autoscaler,
    PolicyConfig,
    ScalerStatus,
    TelemetryCollector,
    ThresholdPolicy,
    TopologyActuator,
    TrafficGenerator,
    TrafficProfile,
)
from repro.autoscale import actuator as actuator_module
from repro.autoscale.policy import HIBERNATE, HOLD, REVIVE, SCALE_IN, SCALE_OUT
from repro.autoscale.telemetry import TelemetrySample
from repro.cluster.eon import EonCluster
from repro.common.clock import SimClock
from repro.errors import AdmissionRejected
from repro.obs import Observability
from repro.obs.metrics import cluster_metrics
from repro.shared_storage.s3 import SimulatedS3
from repro.sim import CampaignConfig, SimWorld
from repro.sim import actions as act
from repro.sim.oracle import rows_key
from repro.wm.admission import AdmissionController
from repro.wm.driver import ClosedLoopWorkload, run_closed_loop
from repro.wm.pool import GENERAL_POOL, PoolConfig

SQL = "select g, sum(v) s from t group by g"


def make_cluster(nodes=4, shards=4, seed=7, obs=False, clock=None):
    clock = clock or SimClock()
    cluster = EonCluster(
        [f"n{i}" for i in range(nodes)],
        shard_count=shards,
        shared_storage=SimulatedS3(),
        subscribers_per_shard=2,
        seed=seed,
        clock=clock,
        observability=Observability(clock=clock) if obs else None,
    )
    if obs:
        cluster.enable_observability()
    cluster.execute("create table t (k int, g varchar, v int)")
    cluster.load("t", [(k, f"g{k % 5}", (k * 3) % 17) for k in range(200)])
    return cluster


def assert_drained(admission):
    assert admission.total_in_use() == 0
    assert admission.active_demand() == 0
    assert admission.pending == 0


# ---------------------------------------------------------------------------
# Satellite 1: shed breaker (fast typed rejection under sustained overload)
# ---------------------------------------------------------------------------


class TestShedBreaker:
    def _saturated(self, cooldown=5.0):
        clock = SimClock()
        cluster = EonCluster(
            ["a0", "a1"], shard_count=2, shared_storage=SimulatedS3(),
            subscribers_per_shard=2, seed=1, clock=clock,
        )
        adm = AdmissionController(
            cluster,
            PoolConfig(
                max_queue_depth=1,
                queue_timeout_seconds=10.0,
                shed_cooldown_seconds=cooldown,
            ),
        )
        slots = cluster.nodes["a0"].execution_slots
        held = adm.admit({"a0": slots}, "a0")
        return clock, adm, held

    def test_overflow_trips_breaker_then_sheds(self):
        clock, adm, held = self._saturated()
        pool = adm.pool_for("a0")
        queued = adm.enqueue({"a0": 1}, "a0")  # fills the depth-1 queue
        with pytest.raises(AdmissionRejected) as exc:
            adm.enqueue({"a0": 1}, "a0")
        assert exc.value.reason == "queue_full"
        assert pool.breaker_trips == 1
        assert pool.shed_until == pytest.approx(clock.now + 5.0)
        # While the breaker is open every arrival sheds in O(1): no
        # queue entry, no timeout wait, a distinct typed reason.
        for n in range(3):
            with pytest.raises(AdmissionRejected) as exc:
                adm.enqueue({"a0": 1}, "a0")
            assert exc.value.reason == "shed"
        assert pool.sheds == 3
        assert pool.rejected_queue_full == 1
        # Shedding is arrival-side only: the waiter already queued kept
        # its place.
        assert pool.queued == 1
        queued.cancel()
        adm.release(held)
        assert_drained(adm)

    def test_breaker_closes_after_cooldown(self):
        clock, adm, held = self._saturated(cooldown=5.0)
        pool = adm.pool_for("a0")
        first = adm.enqueue({"a0": 1}, "a0")
        with pytest.raises(AdmissionRejected):
            adm.enqueue({"a0": 1}, "a0")  # trips
        clock.run(until=clock.now + 5.5)
        first.cancel()
        # Past shed_until the pool queues again.
        second = adm.enqueue({"a0": 1}, "a0")
        assert pool.sheds == 0
        second.cancel()
        adm.release(held)
        assert_drained(adm)

    def test_breaker_disabled_when_cooldown_zero(self):
        clock, adm, held = self._saturated(cooldown=0.0)
        pool = adm.pool_for("a0")
        queued = adm.enqueue({"a0": 1}, "a0")
        for _ in range(3):
            with pytest.raises(AdmissionRejected) as exc:
                adm.enqueue({"a0": 1}, "a0")
            assert exc.value.reason == "queue_full"
        assert pool.sheds == 0
        assert pool.breaker_trips == 0
        queued.cancel()
        adm.release(held)

    def test_sheds_surface_through_closed_loop_and_metrics(self):
        cluster = make_cluster(nodes=2, shards=2, obs=True)
        cluster.admission = AdmissionController(
            cluster,
            PoolConfig(
                max_queue_depth=1,
                queue_timeout_seconds=30.0,
                shed_cooldown_seconds=60.0,
            ),
        )
        workload = ClosedLoopWorkload(
            statements=(SQL,), clients=24, requests_per_client=1, seed=4,
            service_scale=50.0,
        )
        result = run_closed_loop(cluster, workload)
        pool = cluster.admission.pools[GENERAL_POOL]
        assert pool.sheds > 0
        assert any(r.outcome == "rejected:shed" for r in result.records)
        wm = cluster_metrics(cluster)["wm"]
        assert wm["sheds"] == pool.sheds
        assert wm["pools"][GENERAL_POOL]["sheds"] == pool.sheds
        assert wm["pools"][GENERAL_POOL]["breaker_trips"] == pool.breaker_trips
        assert_drained(cluster.admission)


# ---------------------------------------------------------------------------
# Satellite 2: graceful drain primitive
# ---------------------------------------------------------------------------


class TestDrain:
    def test_draining_pool_refuses_both_paths(self):
        clock = SimClock()
        cluster = EonCluster(
            ["a0", "a1"], shard_count=2, shared_storage=SimulatedS3(),
            subscribers_per_shard=2, seed=1, clock=clock,
        )
        adm = AdmissionController(cluster, PoolConfig())
        adm.set_draining(GENERAL_POOL, True)
        pool = adm.pools[GENERAL_POOL]
        with pytest.raises(AdmissionRejected) as exc:
            adm.admit({"a0": 1}, "a0")
        assert exc.value.reason == "draining"
        with pytest.raises(AdmissionRejected) as exc:
            adm.enqueue({"a0": 1}, "a0")
        assert exc.value.reason == "draining"
        assert pool.rejected_draining == 2

    def test_release_path_unaffected_while_draining(self):
        # Regression: tickets granted before the drain must release
        # normally — the drain gate sits on admission only.
        clock = SimClock()
        cluster = EonCluster(
            ["a0", "a1"], shard_count=2, shared_storage=SimulatedS3(),
            subscribers_per_shard=2, seed=1, clock=clock,
        )
        adm = AdmissionController(cluster, PoolConfig())
        ticket = adm.admit({"a0": 2, "a1": 1}, "a0")
        adm.set_draining(GENERAL_POOL, True)
        assert adm.total_in_use() == 3
        adm.release(ticket)
        adm.release(ticket)  # idempotent
        assert_drained(adm)
        # Reopening restores normal admission.
        adm.set_draining(GENERAL_POOL, False)
        ticket = adm.admit({"a0": 1}, "a0")
        adm.release(ticket)

    def test_drain_can_be_staged_on_unknown_pool(self):
        clock = SimClock()
        cluster = EonCluster(
            ["a0"], shard_count=1, shared_storage=SimulatedS3(),
            subscribers_per_shard=1, seed=1, clock=clock,
        )
        adm = AdmissionController(cluster, PoolConfig())
        adm.set_draining("burst", True)
        assert adm.pools["burst"].draining

    def test_create_session_steers_away_from_draining_pool(self):
        cluster = make_cluster(nodes=4, shards=4)
        cluster.define_subcluster("hot", ["n0", "n1"])
        cluster.admission.refresh()
        cluster.admission.set_draining("hot", True)
        for seed in range(8):
            session = cluster.create_session(seed=seed)
            try:
                assert session.initiator not in ("n0", "n1")
            finally:
                session.release()
        # Fast path: with nothing draining, no steering happens.
        cluster.admission.set_draining("hot", False)
        assert cluster.admission.draining_nodes() == []


# ---------------------------------------------------------------------------
# Telemetry
# ---------------------------------------------------------------------------


class TestTelemetry:
    def test_samples_are_deltas(self):
        cluster = make_cluster(nodes=2, shards=2)
        collector = TelemetryCollector(cluster)
        workload = ClosedLoopWorkload(
            statements=(SQL,), clients=6, requests_per_client=2, seed=2,
            service_scale=50.0,
        )
        run_closed_loop(cluster, workload, result_key=rows_key)
        first = collector.sample()
        assert first.admitted == 12
        # A second sample with no traffic in between sees zero deltas,
        # not the cumulative totals.
        second = collector.sample()
        assert second.admitted == 0
        assert second.queued_admissions == 0
        assert second.queue_depth == 0
        assert second.idle

    def test_derived_properties(self):
        sample = TelemetrySample(
            at=0.0, admitted=10, queued_admissions=5, queue_wait_seconds=2.0,
            timeouts=1, sheds=2, queue_full=0, queue_depth=3,
        )
        assert sample.overload == 3
        assert sample.pressure == pytest.approx(0.5)
        assert sample.avg_wait_seconds == pytest.approx(0.2)  # per grant
        assert not sample.idle
        starved = TelemetrySample(
            at=0.0, admitted=0, queued_admissions=0, queue_wait_seconds=0.0,
            timeouts=0, sheds=0, queue_full=0, queue_depth=2,
        )
        assert starved.pressure == 1.0


# ---------------------------------------------------------------------------
# Policy hysteresis
# ---------------------------------------------------------------------------


def _sample(now=0.0, admitted=0, wait=0.0, queued=0, depth=0, sheds=0):
    return TelemetrySample(
        at=now, admitted=admitted, queued_admissions=queued,
        queue_wait_seconds=wait, timeouts=0, sheds=sheds, queue_full=0,
        queue_depth=depth,
    )


def _status(size=0, hibernated=False, hibernating=False, pending=0):
    return ScalerStatus(
        size=size, hibernated=hibernated, hibernating=hibernating,
        pending_removals=pending,
    )


class TestThresholdPolicy:
    def config(self, **kw):
        base = dict(
            target_wait_seconds=1.0, scale_out_pressure=0.5,
            scale_in_pressure=0.05, up_votes=2, down_votes=3,
            hibernate_idle_votes=4, cooldown_seconds=100.0, min_nodes=0,
            max_nodes=4, scale_step=2,
        )
        base.update(kw)
        return PolicyConfig(**base)

    def test_up_votes_hysteresis(self):
        policy = ThresholdPolicy(self.config())
        hot = _sample(admitted=4, queued=4, wait=20.0, depth=2)
        assert policy.decide(hot, _status(size=0)).action == HOLD
        decision = policy.decide(hot, _status(size=0))
        assert decision.action == SCALE_OUT
        assert decision.count == 2

    def test_one_quiet_tick_resets_up_streak(self):
        policy = ThresholdPolicy(self.config())
        hot = _sample(admitted=4, queued=4, wait=20.0, depth=2)
        assert policy.decide(hot, _status()).action == HOLD
        policy.decide(_sample(admitted=4), _status())  # calm tick
        assert policy.decide(hot, _status()).action == HOLD  # streak restarted

    def test_cooldown_blocks_consecutive_actions(self):
        policy = ThresholdPolicy(self.config(up_votes=1))
        hot = _sample(admitted=4, queued=4, wait=20.0, depth=2)
        assert policy.decide(hot, _status(size=0)).action == SCALE_OUT
        held = policy.decide(_sample(now=10.0, admitted=4, queued=4,
                                     wait=20.0, depth=2), _status(size=2))
        assert held.action == HOLD
        assert "cooldown" in held.reason
        later = policy.decide(_sample(now=200.0, admitted=4, queued=4,
                                      wait=20.0, depth=2), _status(size=2))
        assert later.action == SCALE_OUT

    def test_scale_out_clamped_by_max_nodes(self):
        policy = ThresholdPolicy(self.config(up_votes=1, max_nodes=2))
        hot = _sample(admitted=4, queued=4, wait=20.0, depth=2)
        assert policy.decide(hot, _status(size=2)).action == HOLD

    def test_down_votes_scale_in(self):
        policy = ThresholdPolicy(self.config(cooldown_seconds=0.0))
        quiet = _sample(admitted=10)
        assert policy.decide(quiet, _status(size=2)).action == HOLD
        assert policy.decide(quiet, _status(size=2)).action == HOLD
        decision = policy.decide(quiet, _status(size=2))
        assert decision.action == SCALE_IN
        assert decision.count == 2

    def test_min_nodes_floor(self):
        policy = ThresholdPolicy(
            self.config(cooldown_seconds=0.0, min_nodes=2)
        )
        quiet = _sample(admitted=10)
        for _ in range(6):
            decision = policy.decide(quiet, _status(size=2))
        assert decision.action != SCALE_IN

    def test_hibernate_after_idle_streak(self):
        policy = ThresholdPolicy(
            self.config(cooldown_seconds=0.0, down_votes=99,
                        hibernate_idle_votes=3)
        )
        idle = _sample()  # nothing admitted, nothing queued
        assert policy.decide(idle, _status(size=2)).action == HOLD
        assert policy.decide(idle, _status(size=2)).action == HOLD
        assert policy.decide(idle, _status(size=2)).action == HIBERNATE

    def test_revive_bypasses_cooldown(self):
        policy = ThresholdPolicy(self.config(up_votes=1))
        hot = _sample(admitted=4, queued=4, wait=20.0, depth=2)
        assert policy.decide(hot, _status(size=0)).action == SCALE_OUT
        # Seconds later (inside the cooldown) demand hits a hibernated
        # subcluster: revive must not wait the cooldown out.
        woken = policy.decide(
            _sample(now=1.0, admitted=2), _status(size=0, hibernated=True)
        )
        assert woken.action == REVIVE
        assert woken.count >= 1


# ---------------------------------------------------------------------------
# Actuator safety
# ---------------------------------------------------------------------------


class TestActuator:
    def test_audit_names_what_is_inconsistent(self):
        """The ``autoscale-safety`` invariant's checks, called directly."""
        cluster = make_cluster()
        actuator = TopologyActuator(cluster)
        assert actuator.audit() is None
        cluster.admission.set_draining(GENERAL_POOL, True)
        assert actuator.audit() == (
            f"pool {GENERAL_POOL!r} is draining with no removal or hibernate in flight"
        )
        cluster.admission.set_draining(GENERAL_POOL, False)
        actuator.pending_removals.append("ghost")
        assert actuator.audit() == "pending removal 'ghost' refers to a removed node"
        actuator.pending_removals.clear()
        actuator.hibernated = True
        assert actuator.audit() == "hibernated subcluster has no manifest on shared storage"

    def test_scale_out_names_are_never_reused(self):
        cluster = make_cluster()
        actuator = TopologyActuator(cluster)
        assert actuator.scale_out(2) == ["burst0", "burst1"]
        actuator.scale_in(2)
        actuator.complete_removals()
        assert actuator.members() == []
        assert actuator.scale_out(1) == ["burst2"]

    def test_a_restarted_actuator_skips_names_the_cluster_already_has(self):
        # A revive brings a previous scaler's burst nodes back as ordinary
        # nodes; the fresh actuator must neither reuse such a name nor
        # queue the healthy node for "repair" (which would force-remove it).
        cluster = make_cluster()
        assert TopologyActuator(cluster).scale_out(1) == ["burst0"]
        restarted = TopologyActuator(cluster)
        assert restarted.scale_out(1) == ["burst1"]
        assert restarted.incomplete == []
        restarted.repair()
        assert {"burst0", "burst1"} <= set(cluster.nodes)

    def test_scale_out_warms_from_peers_not_s3(self):
        # Satellite 3: depot warming on scale-out rides the peer-depot
        # peek path; the new node's depot fills without S3 GETs.
        cluster = make_cluster()
        cluster.query(SQL)  # warm primary depots
        gets_before = cluster.shared.metrics.get_requests
        actuator = TopologyActuator(cluster)
        (name,) = actuator.scale_out(1)
        node = cluster.nodes[name]
        assert node.cache.file_count > 0
        assert cluster.shared.metrics.get_requests == gets_before
        # The warmed cluster serves reads: a query initiated on the new
        # node touches S3 for nothing (every read lands in a depot).
        cluster.query(SQL, initiator=name)
        assert cluster.shared.metrics.get_requests == gets_before

    def test_removal_safe_refuses_quorum_and_coverage_loss(self):
        cluster = make_cluster(nodes=2, shards=2)
        actuator = TopologyActuator(cluster)
        actuator.scale_out(2)
        # Removing both base nodes would break quorum (2 up of 4 total
        # is not a majority) — scale-in only ever condemns burst nodes,
        # so check the predicate directly.
        assert not actuator._removal_safe(["n0", "n1", "burst0", "burst1"])
        assert actuator._removal_safe(["burst0"])

    def test_scale_in_drains_then_removes(self):
        cluster = make_cluster()
        actuator = TopologyActuator(cluster)
        actuator.scale_out(2)
        actuator.scale_in(1)
        assert "burst1" not in cluster.nodes  # idle node: removed at once
        assert "burst0" in cluster.nodes
        assert not cluster.admission.pools["burst"].draining
        # Every shard still has an ACTIVE up subscriber.
        for shard_id in cluster.shard_map.shard_ids():
            assert cluster.active_up_subscribers(shard_id)

    def test_scale_in_waits_for_busy_victim(self):
        cluster = make_cluster()
        actuator = TopologyActuator(cluster)
        actuator.scale_out(2)
        adm = cluster.admission
        adm.refresh()
        ticket = adm.admit({"burst1": 1}, "burst1")
        actuator.scale_in(1)
        # burst1 holds a slot: condemned and draining, but not removed.
        assert "burst1" in cluster.nodes
        assert actuator.pending_removals == ["burst1"]
        assert adm.pools["burst"].draining
        adm.release(ticket)
        actuator.complete_removals()
        assert "burst1" not in cluster.nodes
        assert not adm.pools["burst"].draining

    def test_repair_rolls_back_interrupted_scale_out(self):
        cluster = make_cluster()
        actuator = TopologyActuator(cluster)
        cluster.shared.faults.bind_clock(cluster.clock)
        cluster.shared.faults.begin_outage(30.0)
        added = actuator.scale_out(1)
        assert added == []  # S3 down: add_node failed partway
        cluster.clock.run(until=cluster.clock.now + 31.0)
        cluster.refresh_degraded()
        if actuator.incomplete:
            actuator.repair()
        assert actuator.incomplete == []
        # No ghost members: anything left in the subcluster is a real,
        # fully-subscribed node.
        for name in actuator.members():
            assert name in cluster.nodes
        for shard_id in cluster.shard_map.shard_ids():
            assert cluster.active_up_subscribers(shard_id)

    def test_hibernate_writes_manifest_then_revive_restores(self):
        cluster = make_cluster()
        actuator = TopologyActuator(cluster)
        actuator.scale_out(2)
        actuator.hibernate()
        assert actuator.hibernated
        assert actuator.members() == []
        manifest = actuator.read_manifest()
        assert manifest["node_count"] == 2
        assert manifest["subcluster"] == "burst"
        actuator.revive()
        assert not actuator.hibernated
        assert len(actuator.members()) == 2

    def test_revive_aborts_in_flight_hibernate(self):
        cluster = make_cluster()
        actuator = TopologyActuator(cluster)
        actuator.scale_out(1)
        adm = cluster.admission
        adm.refresh()
        ticket = adm.admit({"burst0": 1}, "burst0")
        actuator.hibernate()  # busy node: hibernate stays in flight
        assert actuator.hibernating
        assert not actuator.hibernated
        actuator.revive()
        # Nothing was unsubscribed yet, so revive just cancels: the
        # node is kept, the pool reopens.
        assert actuator.members() == ["burst0"]
        assert not actuator.hibernating
        assert not adm.pools["burst"].draining
        adm.release(ticket)

    def test_event_log_is_bounded(self, monkeypatch):
        monkeypatch.setattr(actuator_module, "MAX_EVENTS", 8)
        cluster = make_cluster(nodes=2, shards=2)
        actuator = TopologyActuator(cluster)
        for _ in range(6):
            actuator.scale_out(1)
            actuator.scale_in(1)
        assert len(actuator.events) <= 8
        assert actuator.events[-1].event_id > 8  # ids keep counting


# ---------------------------------------------------------------------------
# The service: scheduler slot, metrics, system tables
# ---------------------------------------------------------------------------


class TestAutoscalerService:
    def hair_trigger(self):
        return PolicyConfig(
            target_wait_seconds=0.05, scale_out_pressure=0.1,
            scale_in_pressure=0.05, up_votes=1, down_votes=2,
            hibernate_idle_votes=0, cooldown_seconds=0.0, min_nodes=0,
            max_nodes=4, scale_step=2,
        )

    def test_run_scales_out_under_load_and_back_in(self):
        cluster = make_cluster()
        scaler = Autoscaler(cluster, config=self.hair_trigger())
        workload = ClosedLoopWorkload(
            statements=(SQL,), clients=16, requests_per_client=2, seed=3,
            service_scale=50.0,
        )
        run_closed_loop(cluster, workload, result_key=rows_key)
        assert scaler.run().action == SCALE_OUT
        assert len(scaler.actuator.members()) == 2
        assert scaler.run().action == HOLD
        assert scaler.run().action == SCALE_IN
        assert scaler.actuator.members() == []
        assert scaler.decisions[SCALE_OUT] == 1
        assert scaler.decisions[SCALE_IN] == 1

    def test_metrics_section_and_system_tables(self):
        cluster = make_cluster(obs=True)
        scaler = Autoscaler(cluster, config=self.hair_trigger())
        workload = ClosedLoopWorkload(
            statements=(SQL,), clients=16, requests_per_client=2, seed=3,
            service_scale=50.0,
        )
        run_closed_loop(cluster, workload, result_key=rows_key)
        scaler.run()
        section = cluster_metrics(cluster)["autoscale"]
        assert section["ticks"] == 1
        assert section["decisions"][SCALE_OUT] == 1
        assert section["managed_subcluster"] == "burst"
        assert section["managed_nodes"] == 2
        assert section["events"] == len(scaler.events)
        rows = [
            tuple(r)
            for r in cluster.query(
                "select action, node, outcome from v_monitor.autoscale_events"
            ).rows.to_pylist()
        ]
        assert ("scale_out", "burst0", "ok") in rows
        queue_rows = [
            tuple(r)
            for r in cluster.query(
                "select pool_name, sheds, draining"
                " from v_monitor.resource_queues"
            ).rows.to_pylist()
        ]
        assert any(pool == "burst" for pool, _, _ in queue_rows)
        assert all(draining == 0 for _, _, draining in queue_rows)

    def test_a_declared_outage_pauses_the_sim_tick(self):
        """Under a declared S3 outage the campaign's tick pauses, as the
        cluster's services do: no control-loop pass, no topology change."""
        world = SimWorld(1, CampaignConfig(base_failure_rate=0.0))
        assert act.S3Outage(50.0).apply(world) == "ok"
        assert act.AutoscaleTick().apply(world) == "paused_outage"
        assert world.autoscaler is None  # paused before one was built
        world = SimWorld(1, CampaignConfig(base_failure_rate=0.0))
        assert act.AutoscaleTick().apply(world) == "ok"
        scaler = world.autoscaler
        ticks, nodes = scaler.ticks, set(world.cluster.nodes)
        assert act.S3Outage(50.0).apply(world) == "ok"
        assert act.AutoscaleTick().apply(world) == "paused_outage"
        assert scaler.ticks == ticks
        assert set(world.cluster.nodes) == nodes


# ---------------------------------------------------------------------------
# Traffic generation
# ---------------------------------------------------------------------------


class TestTrafficGenerator:
    def test_diurnal_shape(self):
        profile = TrafficProfile(night_clients=0, peak_clients=24, seed=5)
        assert profile.shape(3.0) == 0.0
        assert profile.shape(14.0) == 1.0
        assert 0.0 < profile.shape(8.0) < 1.0
        assert 0.0 < profile.shape(20.0) < 1.0

    def test_deterministic_and_bursty(self):
        a = TrafficGenerator(TrafficProfile(seed=5, burst_probability=0.3))
        b = TrafficGenerator(TrafficProfile(seed=5, burst_probability=0.3))
        day_a = [a.clients_for_epoch(i) for i in range(96)]
        day_b = [b.clients_for_epoch(i) for i in range(96)]
        assert day_a == day_b
        assert a.bursts > 0
        peak = max(day_a)
        assert peak > 24  # at least one burst exceeded the plateau

    def test_rng_stream_position_is_epoch_count(self):
        # One draw per epoch regardless of burst outcome: generating the
        # same epochs in two chunks equals one pass.
        one_pass = TrafficGenerator(TrafficProfile(seed=9))
        whole = [one_pass.clients_for_epoch(i) for i in range(96)]
        chunked = TrafficGenerator(TrafficProfile(seed=9))
        first = [chunked.clients_for_epoch(i) for i in range(48)]
        second = [chunked.clients_for_epoch(i) for i in range(48, 96)]
        assert first + second == whole
