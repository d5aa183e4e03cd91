"""Chaos-hardened query path: the PR-4 regression suite.

Covers the three recovery mechanisms — session-level mid-query failover,
sustained S3 outage windows with degraded read-only mode, and the
subscription rebalancer (§6.4) — plus the satellite bugfixes that rode
along: the ``recover_node`` REMOVING/PENDING crash, retry backoff not
charged to query latency, the dead incarnation's cache-policy object
surviving ``lose_local_disk``, and services swallowing errors invisibly.
"""

import pytest

from repro import EonCluster, Observability, SimClock
from repro.cluster.services import ServiceIntervals, ServiceScheduler
from repro.errors import NodeDown, ReproError, StorageUnavailable
from repro.recovery import FailoverPolicy
from repro.shared_storage.s3 import FaultInjector, SimulatedS3
from repro.sharding.subscription import SubscriptionState
from repro.sim import CampaignConfig, ScenarioGenerator, run_campaign
from repro.sim.oracle import rows_key
from repro.sql.parser import parse
from repro.workloads.tpch import load_tpch, setup_tpch_schema


def chaos_cluster(seed=5, clock=None, failure_rate=0.0, obs=False, **kw):
    """4 nodes / 4 shards / 2 subscribers: one node is always killable."""
    clock = clock or SimClock()
    s3 = SimulatedS3(faults=FaultInjector(failure_rate=failure_rate, seed=seed))
    return EonCluster(
        ["n1", "n2", "n3", "n4"], shard_count=4, seed=seed,
        shared_storage=s3, clock=clock,
        observability=Observability(clock=clock) if obs else None,
        **kw,
    )


def loaded_cluster(**kw):
    cluster = chaos_cluster(**kw)
    cluster.execute("create table t (a int, g varchar, v int)")
    cluster.load("t", [(i, f"g{i % 5}", (i * 3) % 97) for i in range(800)])
    return cluster


def killable_participant(cluster, session):
    """A session participant (not the initiator) whose death the cluster
    survives: quorum holds and every shard keeps an up ACTIVE subscriber."""
    for name in session.participants():
        if name == session.initiator:
            continue
        up = cluster.up_nodes()
        if (len(up) - 1) * 2 <= len(cluster.nodes):
            continue
        if all(
            any(n != name for n in cluster.active_up_subscribers(shard))
            for shard in cluster.shard_map.all_shard_ids()
        ):
            return name
    raise AssertionError("no survivable participant to kill")


class TestMidQueryFailover:
    def test_participant_death_is_transparent(self):
        cluster = loaded_cluster()
        expected = rows_key(cluster.query("select g, sum(v) s from t group by g"))
        stmt = parse("select g, sum(v) s from t group by g")[0]
        session = cluster.create_session()
        with session:
            victim = killable_participant(cluster, session)
            cluster.kill_node(victim)
            result = cluster.query_statement(stmt, session=session, failover=True)
        assert rows_key(result) == expected
        assert cluster.failovers >= 1

    def test_tpch_digest_identity_across_failover(self, tpch_data):
        """Acceptance: a TPC-H query whose participant dies mid-flight
        returns bit-identical row digests via failover."""
        sql = (
            "select l_returnflag, count(*) c, sum(l_quantity) q "
            "from lineitem group by l_returnflag"
        )
        undisturbed = EonCluster(["n1", "n2", "n3", "n4"], shard_count=4, seed=1)
        setup_tpch_schema(undisturbed)
        load_tpch(undisturbed, tpch_data)
        expected = rows_key(undisturbed.query(sql))

        disturbed = EonCluster(["n1", "n2", "n3", "n4"], shard_count=4, seed=1)
        setup_tpch_schema(disturbed)
        load_tpch(disturbed, tpch_data)
        stmt = parse(sql)[0]
        session = disturbed.create_session()
        with session:
            disturbed.kill_node(killable_participant(disturbed, session))
            result = disturbed.query_statement(stmt, session=session, failover=True)
        assert rows_key(result) == expected
        assert disturbed.failovers >= 1

    def test_failover_off_propagates_node_down(self):
        cluster = loaded_cluster()
        stmt = parse("select count(*) from t")[0]
        session = cluster.create_session()
        with session:
            cluster.kill_node(killable_participant(cluster, session))
            with pytest.raises(NodeDown):
                cluster.query_statement(stmt, session=session, failover=False)

    def test_backoff_penalty_charged_to_latency(self):
        cluster = loaded_cluster()
        stmt = parse("select count(*) from t")[0]
        session = cluster.create_session()
        with session:
            cluster.kill_node(killable_participant(cluster, session))
            result = cluster.query_statement(stmt, session=session, failover=True)
        assert result.stats.dispatch_seconds >= cluster.failover_policy.backoff_for(1)
        assert result.stats.latency_seconds >= result.stats.dispatch_seconds

    def test_failover_counter_and_span_recorded(self):
        cluster = loaded_cluster(obs=True)
        stmt = parse("select count(*) from t")[0]
        session = cluster.create_session()
        with session:
            cluster.kill_node(killable_participant(cluster, session))
            cluster.query_statement(stmt, session=session, failover=True)
        assert cluster.failovers >= 1
        assert any(s.name == "query.failover" for s in cluster.obs.tracer.spans)

    def test_attempts_are_bounded(self):
        policy = FailoverPolicy(max_attempts=3)
        assert policy.backoff_for(2) == pytest.approx(policy.backoff_seconds * 2)
        with pytest.raises(ValueError):
            FailoverPolicy(max_attempts=0)


class TestOutageWindows:
    def test_degraded_serves_depot_reads_rejects_writes(self):
        clock = SimClock()
        cluster = loaded_cluster(clock=clock)
        expected = rows_key(cluster.query("select g, count(*) c from t group by g"))
        cluster.shared.faults.begin_outage(100.0)
        assert cluster.refresh_degraded()
        # Writes fail fast — no retry loop, no backoff burned.
        backoff_before = cluster.shared.metrics.retry_backoff_seconds
        with pytest.raises(StorageUnavailable):
            cluster.load("t", [(9000, "x", 1)])
        assert cluster.shared.metrics.retry_backoff_seconds == backoff_before
        # Depot-resident data still serves.
        result = cluster.query("select g, count(*) c from t group by g")
        assert rows_key(result) == expected

    def test_depot_miss_during_outage_fails_fast(self):
        clock = SimClock()
        cluster = loaded_cluster(clock=clock)
        cluster.shared.faults.begin_outage(100.0)
        with pytest.raises(StorageUnavailable):
            cluster.query("select count(*) from t", use_cache=False)

    def test_entry_exit_paired_and_clock_driven(self):
        clock = SimClock()
        cluster = loaded_cluster(clock=clock, obs=True)
        until = cluster.shared.faults.begin_outage(60.0)
        assert cluster.refresh_degraded()
        assert cluster.degraded_entries == 1 and cluster.degraded_exits == 0
        # Still inside the window: no spurious exit.
        clock.advance(30.0)
        assert cluster.refresh_degraded()
        assert cluster.degraded_entries == 1
        # Past the declared end the next poll exits deterministically.
        clock.advance(until)
        assert not cluster.refresh_degraded()
        assert cluster.degraded_entries == 1 and cluster.degraded_exits == 1
        # Recovered: writes work again.
        cluster.load("t", [(9000, "x", 1)])

    def test_outage_requires_positive_window_and_clock(self):
        faults = FaultInjector(failure_rate=0.0, seed=1)
        with pytest.raises(ValueError):
            faults.begin_outage(10.0)  # no clock bound
        faults.bind_clock(SimClock())
        with pytest.raises(ValueError):
            faults.begin_outage(0.0)


class TestRebalancer:
    def test_restores_fault_tolerance_after_kill(self):
        cluster = loaded_cluster()
        cluster.kill_node("n2")
        under = [
            s for s in cluster.shard_map.all_shard_ids()
            if len(cluster.active_up_subscribers(s)) < 2
        ]
        assert under  # the kill actually left shards under-subscribed
        report = cluster.rebalance_subscriptions()
        assert report.changes > 0 and not report.skipped
        for shard in cluster.shard_map.all_shard_ids():
            assert len(cluster.active_up_subscribers(shard)) >= 2
        # Data still correct after the re-subscriptions.
        assert cluster.query("select count(*) from t").rows.to_pylist() == [(800,)]

    def test_noop_on_healthy_cluster(self):
        cluster = loaded_cluster()
        report = cluster.rebalance_subscriptions()
        assert report.changes == 0 and not report.skipped

    def test_skips_while_degraded(self):
        cluster = loaded_cluster()
        cluster.kill_node("n2")
        cluster.shared.faults.begin_outage(100.0)
        cluster.refresh_degraded()
        assert cluster.rebalance_subscriptions().skipped

    def test_service_restores_coverage_within_one_interval(self):
        cluster = loaded_cluster()
        scheduler = ServiceScheduler(cluster, ServiceIntervals(
            catalog_sync=None, cluster_info=None, mergeout=None, reaper=None,
            rebalance=60.0,
        ))
        cluster.kill_node("n3")
        scheduler.start(duration=70.0)
        cluster.clock.run(until=70.0)
        scheduler.stop()
        assert scheduler.stats.rebalance_runs >= 1
        assert scheduler.stats.rebalance_promotions + \
            scheduler.stats.rebalance_subscriptions > 0
        for shard in cluster.shard_map.all_shard_ids():
            assert len(cluster.active_up_subscribers(shard)) >= 2


class TestRecoverNodeRegression:
    def _active_shard_of(self, cluster, name):
        state = cluster.any_up_node().catalog.state
        for (node, shard), st in sorted(state.subscriptions.items()):
            if node == name and SubscriptionState(st) is SubscriptionState.ACTIVE:
                if any(
                    n != name for n in cluster.active_up_subscribers(shard)
                ):
                    return shard
        raise AssertionError(f"no droppable ACTIVE shard on {name}")

    def test_recover_mid_removal_does_not_crash(self):
        """Regression: a node that died mid-unsubscribe (REMOVING on the
        books) used to crash recovery with an illegal REMOVING->PENDING
        transition.  Recovery now drops or completes the removal."""
        cluster = loaded_cluster()
        shard = self._active_shard_of(cluster, "n2")
        cluster._commit_sub_state("n2", shard, SubscriptionState.REMOVING)
        cluster.kill_node("n2")
        cluster.recover_node("n2")  # must not raise ValueError
        state = cluster.any_up_node().catalog.state
        st = state.subscriptions.get(("n2", shard))
        assert st is None or SubscriptionState(st) is SubscriptionState.ACTIVE
        assert cluster.query("select count(*) from t").rows.to_pylist() == [(800,)]

    def test_recover_mid_subscribe_completes_it(self):
        """A node that died between PENDING and PASSIVE finishes the
        subscription on recovery instead of crashing on PENDING->PENDING."""
        cluster = loaded_cluster()
        state = cluster.any_up_node().catalog.state
        shard = next(
            s for s in cluster.shard_map.all_shard_ids()
            if ("n2", s) not in state.subscriptions
        )
        cluster._commit_sub_state("n2", shard, SubscriptionState.PENDING)
        cluster.kill_node("n2")
        cluster.recover_node("n2")
        state = cluster.any_up_node().catalog.state
        assert SubscriptionState(
            state.subscriptions[("n2", shard)]
        ) is SubscriptionState.ACTIVE


class TestBackoffCharged:
    def test_retry_backoff_lands_in_query_latency_and_profile(self):
        """Regression: the retrying() filesystem burned sim-time into
        ``metrics.retry_backoff_seconds`` that never reached the query's
        latency.  On one node the critical path is that node, so the full
        backoff delta must show up in the reported latency."""
        clock = SimClock()
        cluster = EonCluster(
            ["n1"], shard_count=1, subscribers_per_shard=1, seed=30,
            shared_storage=SimulatedS3(
                faults=FaultInjector(failure_rate=0.30, seed=30)
            ),
            clock=clock, observability=Observability(clock=clock),
        )
        cluster.execute("create table t (a int)")
        cluster.load("t", [(i,) for i in range(500)])
        before = cluster.shared.metrics.retry_backoff_seconds
        result = cluster.query("select count(*) from t", use_cache=False)
        delta = cluster.shared.metrics.retry_backoff_seconds - before
        assert delta > 0  # retries actually happened
        assert result.stats.latency_seconds >= delta
        profile = cluster.obs.profiles[-1]
        assert profile.latency_seconds == result.stats.latency_seconds


class TestFreshCacheOnDiskLoss:
    def test_policy_object_not_reused_across_incarnations(self):
        """Regression: losing the local disk kept the dead incarnation's
        eviction-policy object, whose per-entry state described files that
        no longer exist."""
        cluster = loaded_cluster()
        cluster.query("select count(*) from t")  # populate depots
        node = cluster.nodes["n2"]
        old_policy = node.cache.policy
        assert node.cache.used_bytes > 0
        cluster.kill_node("n2", lose_local_disk=True)
        assert node.cache.policy is not old_policy
        assert type(node.cache.policy) is type(old_policy)
        assert node.cache.used_bytes == 0 and node.cache.file_count == 0
        cluster.recover_node("n2")
        assert cluster.query("select count(*) from t").rows.to_pylist() == [(800,)]


class TestServiceErrorVisibility:
    def test_errors_recorded_and_surfaced(self, monkeypatch):
        """Regression: run_* swallowed ReproError with no trace.  Now the
        error is counted per service, metered, and visible in v_monitor."""
        cluster = loaded_cluster(obs=True)
        scheduler = ServiceScheduler(cluster)

        def broken():
            raise ReproError("rebalance exploded")

        monkeypatch.setattr(scheduler.rebalancer, "run", broken)
        scheduler.run_rebalancer()
        scheduler.run_catalog_sync()  # healthy service: no error entry
        assert scheduler.error_counts["rebalance"] == 1
        assert "rebalance exploded" in scheduler.last_errors["rebalance"]
        assert "catalog_sync" not in scheduler.last_errors
        assert scheduler.stats.errors == 1
        rows = cluster.query(
            "select service, runs, errors, last_error from v_monitor.services"
        ).rows.to_pylist()
        by_service = {r[0]: r for r in rows}
        assert by_service["rebalance"][2] == 1
        assert "rebalance exploded" in by_service["rebalance"][3]
        assert by_service["catalog_sync"][1] == 1
        assert by_service["catalog_sync"][2] == 0

    def test_services_pause_during_outage(self):
        clock = SimClock()
        cluster = loaded_cluster(clock=clock)
        scheduler = ServiceScheduler(cluster)
        cluster.shared.faults.begin_outage(100.0)
        errors_before = scheduler.stats.errors
        scheduler.tick()
        assert scheduler.stats.skipped_outage == 5  # all five services paused
        assert scheduler.stats.errors == errors_before  # paused, not failed
        assert scheduler.stats.sync_runs == 0


CHAOS_SEEDS = (3, 11, 17, 29, 41)


@pytest.mark.campaign
class TestChaosCampaigns:
    """Acceptance: seeded campaigns with kill_mid_query and s3_outage in
    the schedule complete with zero invariant violations."""

    @pytest.mark.parametrize("seed", CHAOS_SEEDS)
    def test_chaos_campaign_clean(self, seed):
        result = run_campaign(
            seed, CampaignConfig(steps=40),
            generator=ScenarioGenerator(seed, profile="chaos"),
        )
        assert result.ok, result.report()
        for name, slot in result.registry.counters.items():
            assert slot["violations"] == 0, name

    def test_recovery_actions_actually_exercised(self):
        seen = set()
        failovers = 0
        entries = 0
        for seed in CHAOS_SEEDS:
            result = run_campaign(
                seed, CampaignConfig(steps=40),
                generator=ScenarioGenerator(seed, profile="chaos"),
            )
            assert result.ok, result.report()
            for event in result.trace.events:
                seen.add(event.action)
            failovers += result.metrics["recovery"]["failovers"]
            entries += result.metrics["recovery"]["degraded_entries"]
        assert {"kill_mid_query", "s3_outage"} <= seen
        assert failovers > 0  # mid-query kills actually took the failover path
        assert entries > 0  # outages actually flipped degraded mode

    def test_chaos_generator_deterministic(self):
        a = run_campaign(
            9, CampaignConfig(steps=30), generator=ScenarioGenerator(9, profile="chaos")
        )
        b = run_campaign(
            9, CampaignConfig(steps=30), generator=ScenarioGenerator(9, profile="chaos")
        )
        assert a.digest() == b.digest()
