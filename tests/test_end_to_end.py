"""End-to-end lifecycle scenarios chaining many mechanisms.

These are the "does the whole machine hold together" tests: long
sequences of loads, queries, DML, compaction, failures, elasticity,
shutdown, and revive, with invariant checks after every phase.
"""

import pytest

from repro import ColumnType, EonCluster, Segmentation, SimClock
from repro.cluster.revive import revive
from repro.tuple_mover import MergeoutCoordinatorService
from repro.workloads.dashboard import dashboard_query, setup_dashboard_schema
from tests.helpers import answered, dashboard_mirror


def checksum(cluster, table="t"):
    return cluster.query(
        f"select count(*), sum(k), sum(v) from {table}"
    ).rows.to_pylist()[0]


class TestFullLifecycle:
    def test_the_long_haul(self):
        """Load -> query -> delete -> mergeout -> kill -> load -> recover ->
        add node -> reap -> shutdown -> revive -> verify."""
        clock = SimClock()
        cluster = EonCluster(["n1", "n2", "n3", "n4"], shard_count=4,
                             seed=99, clock=clock)
        cluster.execute("create table t (k int, g varchar, v float)")
        cluster.create_projection(
            "t_by_g", "t", ["k", "g", "v"], ["g"], Segmentation.by_hash("g")
        )

        # Phase 1: incremental loads.
        for batch in range(8):
            cluster.load(
                "t", [(batch * 100 + i, f"g{i % 5}", float(i)) for i in range(100)]
            )
        n0, sk0, sv0 = checksum(cluster)
        assert n0 == 800

        # Phase 2: DML.
        deleted = cluster.execute("delete from t where k < 100")
        assert deleted == 100
        cluster.execute("update t set v = v + 1.0 where k >= 700")
        n1, _, sv1 = checksum(cluster)
        assert n1 == 700
        assert sv1 == pytest.approx(sv0 - sum(float(i) for i in range(100)) + 100)

        # Phase 3: compaction purges tombstones, preserves answers.
        before = checksum(cluster)
        MergeoutCoordinatorService(cluster, strata_width=3, base_bytes=512).run_all()
        assert checksum(cluster) == before

        # Phase 4: failure during writes.
        cluster.kill_node("n2")
        cluster.load("t", [(10_000 + i, "late", 0.0) for i in range(50)])
        assert checksum(cluster)[0] == 750
        cluster.recover_node("n2")
        assert checksum(cluster)[0] == 750

        # Phase 5: elasticity.
        cluster.add_node("n5")
        assert checksum(cluster)[0] == 750

        # Phase 6: background services + reaping.
        cluster.sync_catalogs()
        cluster.compute_truncation_version()
        cluster.reaper.poll()
        cluster.reaper.cleanup_leaked_files()
        final = checksum(cluster)
        assert final[0] == 750

        # Phase 7: full shutdown + revive.
        cluster.graceful_shutdown()
        clock.advance(1_000.0)
        revived = revive(cluster.shared, clock=clock)
        assert checksum(revived) == final

        # Phase 8: the revived cluster keeps working.
        revived.load("t", [(20_000, "post", 2.0)])
        assert checksum(revived)[0] == 751

    def test_query_answers_stable_across_every_disruption(self):
        """The same query returns SQLite's answer through failure,
        recovery, mergeout, crunch, and subcluster routing."""
        cluster = EonCluster([f"n{i}" for i in range(6)], shard_count=3, seed=77)
        setup_dashboard_schema(cluster)
        tables, oracle = dashboard_mirror(n_events=5_000)
        for table, rows in tables.items():
            cluster.load(table, rows)
        sql = dashboard_query()

        def held(**options):
            return oracle.check(answered(cluster.query(sql, **options)), sql, ordered=True)

        assert oracle.check(cluster, sql, ordered=True) is None

        cluster.kill_node("n1")
        assert oracle.check(cluster, sql, ordered=True) is None

        cluster.recover_node("n1")
        assert oracle.check(cluster, sql, ordered=True) is None

        MergeoutCoordinatorService(cluster, strata_width=2, base_bytes=256).run_all()
        assert oracle.check(cluster, sql, ordered=True) is None

        assert held(crunch="hash", nodes_per_shard=2) is None
        assert held(crunch="container", nodes_per_shard=2) is None

        cluster.define_subcluster("iso", ["n4", "n5"])
        assert held(subcluster="iso") is None

    def test_cache_hit_rate_climbs_over_workload(self):
        cluster = EonCluster(["a", "b", "c"], shard_count=3, seed=55)
        cluster.execute("create table t (k int, g varchar, v float)")
        cluster.load(
            "t", [(i, f"g{i % 4}", float(i)) for i in range(2_000)],
            use_cache=False,  # cold start: nothing cached
        )
        first = cluster.query("select g, sum(v) from t group by g").stats
        assert first.total_bytes_from_shared > 0
        for _ in range(6):
            again = cluster.query("select g, sum(v) from t group by g").stats
        assert again.total_bytes_from_shared == 0
        hits = sum(n.cache.stats.hits for n in cluster.up_nodes())
        misses = sum(n.cache.stats.misses for n in cluster.up_nodes())
        assert hits / (hits + misses) > 0.5  # cluster-wide hit rate climbs

    def test_s3_cost_accounting_over_lifecycle(self):
        cluster = EonCluster(["a", "b"], shard_count=2, seed=44)
        cluster.execute("create table t (k int, g varchar, v float)")
        cluster.load("t", [(i, "x", 1.0) for i in range(500)])
        cluster.query("select count(*) from t", use_cache=False)
        metrics = cluster.shared.metrics
        assert metrics.put_requests > 0
        assert metrics.get_requests > 0
        assert metrics.dollars > 0
        assert metrics.sim_seconds > 0
