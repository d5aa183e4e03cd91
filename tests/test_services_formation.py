"""Background services scheduler and mid-commit cluster formation."""

import pytest

from repro import EonCluster, SimClock
from repro.catalog.transaction_log import LogRecord
from repro.cluster.revive import form_cluster, revive
from repro.cluster.services import ServiceIntervals, ServiceScheduler
from repro.errors import ReviveError


@pytest.fixture
def cluster():
    clock = SimClock()
    c = EonCluster(["n1", "n2", "n3"], shard_count=3, seed=29, clock=clock)
    c.execute("create table t (a int, b varchar)")
    for batch in range(5):
        c.load("t", [(batch * 60 + i, f"g{i % 3}") for i in range(60)])
    return c


class TestServiceScheduler:
    def test_tick_runs_everything(self, cluster):
        scheduler = ServiceScheduler(cluster)
        stats = scheduler.tick()
        assert stats.sync_runs == 1
        assert stats.cluster_info_writes == 1
        assert stats.errors == 0
        # Sync happened, so revive material exists.
        assert cluster.compute_truncation_version() > 0

    def test_mergeout_runs_via_scheduler(self, cluster):
        count_before = len({
            sid for n in cluster.up_nodes() for sid in n.catalog.state.containers
        })
        scheduler = ServiceScheduler(cluster)
        scheduler.mergeout_service.strata_width = 3
        scheduler.mergeout_service.base_bytes = 256
        stats = scheduler.tick()
        assert stats.mergeout_jobs > 0
        assert len({
            sid for n in cluster.up_nodes() for sid in n.catalog.state.containers
        }) < count_before

    def test_reaper_deletes_after_sync(self, cluster):
        scheduler = ServiceScheduler(cluster)
        scheduler.mergeout_service.strata_width = 3
        scheduler.mergeout_service.base_bytes = 256
        scheduler.tick()   # mergeout drops containers, sync + truncation run
        scheduler.tick()   # second pass reaps them
        assert scheduler.stats.files_reaped > 0

    def test_clock_driven_services(self, cluster):
        scheduler = ServiceScheduler(
            cluster,
            ServiceIntervals(catalog_sync=10.0, cluster_info=30.0,
                             mergeout=None, reaper=None),
        )
        scheduler.start()
        cluster.clock.run(until=65.0)
        scheduler.stop()
        assert scheduler.stats.sync_runs == 6
        assert scheduler.stats.cluster_info_writes == 2

    def test_services_survive_node_failure(self, cluster):
        scheduler = ServiceScheduler(
            cluster, ServiceIntervals(catalog_sync=10.0, cluster_info=None,
                                      mergeout=None, reaper=None),
        )
        scheduler.start()
        cluster.clock.schedule(25.0, lambda: cluster.kill_node("n2"))
        cluster.clock.run(until=60.0)
        scheduler.stop()
        assert scheduler.stats.sync_runs >= 5
        assert cluster.query("select count(*) from t").rows.to_pylist() == [(300,)]


class TestClusterFormation:
    def _diverge(self, cluster, nodes):
        """Apply a fake commit to a subset of nodes (mid-commit crash)."""
        record = LogRecord(
            version=cluster.version + 1,
            ops=({"op": "set_property", "key": "orphan", "value": 1},),
        )
        for name in nodes:
            cluster.nodes[name].catalog.apply_commit(record)

    def test_formation_truncates_divergent_tail(self, cluster):
        agreed_before = cluster.version
        self._diverge(cluster, ["n1", "n2"])  # n3 never saw the commit
        best = form_cluster(cluster)
        # All shards are covered at the lower version too (k=2 ring), so
        # the cluster may agree on the higher version only if coverage
        # holds among {n1, n2}; either way all nodes converge.
        versions = {n.catalog.state.version for n in cluster.up_nodes()}
        assert versions == {best}
        assert best in (agreed_before, agreed_before + 1)

    def test_cluster_operational_after_formation(self, cluster):
        self._diverge(cluster, ["n1"])
        form_cluster(cluster)
        cluster.load("t", [(999, "post")])
        assert cluster.query("select count(*) from t").rows.to_pylist() == [(301,)]

    def test_new_incarnation_after_formation(self, cluster):
        old = cluster.incarnation
        self._diverge(cluster, ["n1"])
        form_cluster(cluster)
        assert cluster.incarnation != old

    def test_formation_requires_quorum(self, cluster):
        cluster.nodes["n2"].state = cluster.nodes["n2"].state.__class__("DOWN")
        cluster.nodes["n3"].state = cluster.nodes["n3"].state.__class__("DOWN")
        with pytest.raises(ReviveError):
            form_cluster(cluster)

    def test_formation_noop_when_consistent(self, cluster):
        version = cluster.version
        best = form_cluster(cluster)
        assert best == version
        assert cluster.query("select count(*) from t").rows.to_pylist() == [(300,)]

    def test_revive_after_formation_reaches_the_reused_versions(self, cluster):
        """A node that uploaded the discarded version must upload the
        versions formation reuses into the new incarnation: truncation
        lowers its upload mark.  Without that its revivable interval stays
        at the formation version and revive cannot reach the truncation
        version."""
        self._diverge(cluster, ["n1"])
        cluster.sync_catalogs()
        form_cluster(cluster)
        for batch in range(3):
            cluster.sync_catalogs(include_checkpoint=False)
            cluster.load("t", [(1000 + batch * 10 + i, "f") for i in range(10)])
        cluster.sync_catalogs(include_checkpoint=False)
        cluster.write_cluster_info(lease_seconds=0)
        revived = revive(cluster.shared, force=True)
        sql = "select count(*) from t"
        assert revived.query(sql).rows.to_pylist() == cluster.query(sql).rows.to_pylist()
