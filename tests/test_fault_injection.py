"""End-to-end operation under injected S3 transient faults (section 5.3).

"Vertica observes broader failures with S3 than with local filesystems.
Any filesystem access can (and will) fail. ... A properly balanced retry
loop is required when errors happen or the S3 system throttles access."

Every load, query, compaction, and revive below runs against an S3 whose
requests fail ~5-10% of the time; the retry loops must absorb all of it
without data loss or wrong answers.
"""

import pytest

from repro import EonCluster, SimClock
from repro.errors import TransientStorageError
from repro.shared_storage.s3 import FaultInjector, SimulatedS3
from repro.tuple_mover import MergeoutCoordinatorService


def decisions(injector) -> list:
    """The ``(operation, failed)`` log of every decision ``injector`` makes
    from now on."""
    log = []
    decide = injector.maybe_fail

    def maybe_fail(operation):
        try:
            decide(operation)
        except TransientStorageError:
            log.append((operation, True))
            raise
        log.append((operation, False))

    injector.maybe_fail = maybe_fail
    return log


def flaky_cluster(failure_rate=0.05, seed=30, clock=None):
    s3 = SimulatedS3(faults=FaultInjector(failure_rate=failure_rate, seed=seed))
    return EonCluster(
        ["n1", "n2", "n3"], shard_count=3, seed=seed,
        shared_storage=s3, clock=clock,
    )


class TestFlakyS3:
    def test_loads_and_queries_survive(self):
        cluster = flaky_cluster()
        cluster.execute("create table t (a int, b varchar)")
        for batch in range(5):
            cluster.load("t", [(batch * 80 + i, f"g{i % 3}") for i in range(80)])
        out = cluster.query("select b, count(*) n from t group by b order by b")
        # 80 rows per batch: i % 3 gives 27/27/26, times 5 batches.
        assert [r[1] for r in out.rows.to_pylist()] == [135, 135, 130]

    def test_retries_actually_happened(self):
        cluster = flaky_cluster(failure_rate=0.10)
        cluster.execute("create table t (a int)")
        cluster.load("t", [(i,) for i in range(300)])
        cluster.query("select count(*) from t", use_cache=False)
        assert cluster.shared.metrics.retry_backoff_seconds > 0

    def test_dml_survives(self):
        cluster = flaky_cluster()
        cluster.execute("create table t (a int, b varchar)")
        cluster.load("t", [(i, "x") for i in range(200)])
        cluster.execute("delete from t where a < 50")
        cluster.execute("update t set b = 'y' where a < 100")
        assert cluster.query("select count(*) from t").rows.to_pylist() == [(150,)]
        assert cluster.query(
            "select count(*) from t where b = 'y'"
        ).rows.to_pylist() == [(50,)]

    def test_mergeout_survives(self):
        cluster = flaky_cluster()
        cluster.execute("create table t (a int, b varchar)")
        for batch in range(6):
            cluster.load("t", [(batch * 40 + i, "x") for i in range(40)])
        checksum = cluster.query("select count(*), sum(a) from t").rows.to_pylist()
        MergeoutCoordinatorService(cluster, strata_width=3, base_bytes=256).run_all()
        assert cluster.query("select count(*), sum(a) from t").rows.to_pylist() == checksum

    def test_revive_survives(self):
        clock = SimClock()
        cluster = flaky_cluster(clock=clock)
        cluster.execute("create table t (a int, b varchar)")
        cluster.load("t", [(i, "x") for i in range(300)])
        cluster.graceful_shutdown()
        from repro.cluster.revive import revive

        revived = revive(cluster.shared, clock=clock)
        assert revived.query("select count(*) from t").rows.to_pylist() == [(300,)]

    def test_node_failure_plus_flaky_s3(self):
        cluster = flaky_cluster()
        cluster.execute("create table t (a int, b varchar)")
        cluster.load("t", [(i, "x") for i in range(300)], use_cache=False)
        cluster.kill_node("n2")
        # Cold caches + flaky S3 + node down: still the right answer.
        out = cluster.query("select count(*) from t", use_cache=False)
        assert out.rows.to_pylist() == [(300,)]

    def test_persistent_failure_eventually_surfaces(self):
        cluster = flaky_cluster(failure_rate=1.0)  # S3 is down-down
        with pytest.raises(TransientStorageError):
            cluster.execute("create table t (a int)")
            cluster.load("t", [(1,)])


class TestInjectorDeterminism:
    """Every fault decision flows through the injector's own seeded RNG —
    never module-level ``random`` — so equal seeds plus equal request
    sequences give bit-identical decisions.  The simulation harness's
    replay-from-seed guarantee rests on this."""

    def test_same_seed_same_decisions(self):
        def drive(injector):
            log = decisions(injector)
            for i in range(500):
                try:
                    injector.maybe_fail(f"read op{i % 7}")
                except Exception:
                    pass
            return log

        a = FaultInjector(failure_rate=0.10, seed=99)
        b = FaultInjector(failure_rate=0.10, seed=99)
        assert drive(a) == drive(b)
        assert a.draws == b.draws and a.injected == b.injected
        assert a.injected > 0  # the log covered real failures

    def test_different_seed_different_decisions(self):
        def drive(injector):
            log = decisions(injector)
            for i in range(500):
                try:
                    injector.maybe_fail("read")
                except Exception:
                    pass
            return log

        assert drive(FaultInjector(failure_rate=0.10, seed=1)) != \
            drive(FaultInjector(failure_rate=0.10, seed=2))

    def test_workload_trace_reproducible_end_to_end(self):
        """Two whole cluster workloads on equal seeds touch S3 identically:
        the injectors log equal decisions after equal draw counts."""
        def run(seed):
            cluster = flaky_cluster(failure_rate=0.08, seed=seed)
            log = decisions(cluster.shared.faults)
            cluster.execute("create table t (a int, b varchar)")
            for batch in range(3):
                cluster.load("t", [(batch * 50 + i, "x") for i in range(50)])
            cluster.execute("delete from t where a < 20")
            cluster.query("select count(*) from t", use_cache=False)
            faults = cluster.shared.faults
            return log, faults.draws, faults.injected

        assert run(seed=44) == run(seed=44)

    def test_burst_raises_rate_then_decays(self):
        injector = FaultInjector(failure_rate=0.02, seed=5)
        assert injector.effective_rate == 0.02
        injector.begin_burst(rate=0.9, ops=10)
        assert injector.burst_active
        assert injector.effective_rate == 0.9
        for _ in range(10):
            try:
                injector.maybe_fail("write")
            except Exception:
                pass
        assert not injector.burst_active
        assert injector.effective_rate == 0.02

    def test_burst_rate_validated(self):
        injector = FaultInjector(failure_rate=0.02, seed=5)
        with pytest.raises(ValueError):
            injector.begin_burst(rate=1.5, ops=10)
