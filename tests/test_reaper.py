"""File deletion and leak cleanup (section 6.5)."""

import pytest

from repro import EonCluster
from repro.tuple_mover import MergeoutCoordinatorService


@pytest.fixture
def cluster():
    c = EonCluster(["n1", "n2", "n3"], shard_count=3, seed=8)
    c.execute("create table t (a int, b varchar)")
    for batch in range(6):
        c.load("t", [(batch * 40 + i, f"g{i % 3}") for i in range(40)])
    return c


def drop_some_containers(cluster):
    """Run mergeout so input containers get dropped (ref count -> 0)."""
    service = MergeoutCoordinatorService(cluster, strata_width=3, base_bytes=256)
    report = service.run_all()
    assert report.containers_merged > 0
    return report


class TestDeferredDeletion:
    def test_files_retained_until_truncation_passes(self, cluster):
        drop_some_containers(cluster)
        pending = len(cluster.reaper._pending)
        assert pending > 0
        stats = cluster.reaper.poll()
        # Metadata not yet uploaded: drop versions exceed truncation.
        assert stats.deleted == 0
        assert stats.retained_for_durability == pending

    def test_files_deleted_after_sync(self, cluster):
        drop_some_containers(cluster)
        cluster.sync_catalogs()
        cluster.compute_truncation_version()
        stats = cluster.reaper.poll()
        assert stats.deleted > 0
        assert len(cluster.reaper._pending) == 0

    def test_files_retained_while_query_snapshot_pinned(self, cluster):
        session = cluster.create_session(seed=1)  # pins current version
        drop_some_containers(cluster)
        cluster.sync_catalogs()
        cluster.compute_truncation_version()
        stats = cluster.reaper.poll()
        assert stats.retained_for_queries > 0
        # The pinned session can still read everything it references.
        from repro.sql.parser import parse
        result = cluster.query_statement(
            parse("select count(*) from t")[0], session=session
        )
        assert result.rows.to_pylist() == [(240,)]
        session.release()
        cluster.sync_catalogs()
        cluster.compute_truncation_version()
        stats2 = cluster.reaper.poll()
        assert stats2.deleted > 0

    def test_the_lifetime_stats_fold_every_poll(self, cluster):
        """Regression: only ``deleted`` reached ``reaper.stats``, so its two
        ``retained_*`` counts stayed 0 whatever the polls held back."""
        session = cluster.create_session(seed=1)  # pins current version
        drop_some_containers(cluster)
        polls = [cluster.reaper.poll()]  # pinned
        session.release()
        polls.append(cluster.reaper.poll())  # not yet durable
        cluster.sync_catalogs()
        cluster.compute_truncation_version()
        polls.append(cluster.reaper.poll())  # deletable
        assert polls[0].retained_for_queries > 0
        assert polls[1].retained_for_durability > 0
        assert polls[2].deleted > 0
        assert cluster.reaper.stats.as_dict() == {
            name: sum(getattr(poll, name) for poll in polls)
            for name in cluster.reaper.stats.as_dict()
        }

    def test_deleted_files_gone_from_shared_storage(self, cluster):
        drop_some_containers(cluster)
        pending_sids = [sid for sid, _ in cluster.reaper._pending]
        cluster.sync_catalogs()
        cluster.compute_truncation_version()
        cluster.reaper.poll()
        for sid in pending_sids:
            assert not cluster.shared_data.contains(sid)

    def test_dropped_files_leave_caches_immediately(self, cluster):
        """Local reference count hits zero -> drop from cache at once."""
        cluster.query("select count(*) from t")
        drop_some_containers(cluster)
        pending_sids = {sid for sid, _ in cluster.reaper._pending}
        for node in cluster.up_nodes():
            for sid in pending_sids:
                assert not node.cache.contains(sid)


class TestMinQueryVersionGossip:
    def test_min_version_without_queries_is_current(self, cluster):
        assert cluster.reaper.cluster_min_query_version() == cluster.version

    def test_min_version_with_pinned_snapshot(self, cluster):
        session = cluster.create_session(seed=1)
        pinned = cluster.version
        cluster.load("t", [(999, "x")])
        assert cluster.reaper.cluster_min_query_version() == pinned
        session.release()
        assert cluster.reaper.cluster_min_query_version() == cluster.version


class TestLeakCleanup:
    def test_leaked_file_removed(self, cluster):
        cluster.shared_data.write("00" * 24, b"orphan bytes")
        removed = cluster.reaper.cleanup_leaked_files()
        assert removed == 1
        assert not cluster.shared_data.contains("00" * 24)

    def test_referenced_files_survive(self, cluster):
        before = set(cluster.shared_data.list())
        cluster.reaper.cleanup_leaked_files()
        live = set()
        for node in cluster.up_nodes():
            live |= node.catalog.state.storage_sids()
        assert live <= set(cluster.shared_data.list())
        assert cluster.query("select count(*) from t").rows.to_pylist() == [(240,)]

    def test_running_instance_prefixes_skipped(self, cluster):
        """A file named with a live node's instance prefix may be mid-write
        and must survive the sweep."""
        node = cluster.nodes["n1"]
        sid = node.sid_factory.next_sid()
        cluster.shared_data.write(str(sid), b"in-flight upload")
        cluster.reaper.cleanup_leaked_files()
        assert cluster.shared_data.contains(str(sid))

    def test_pending_deletes_not_treated_as_leaks(self, cluster):
        drop_some_containers(cluster)
        pending = {sid for sid, _ in cluster.reaper._pending}
        cluster.reaper.cleanup_leaked_files()
        for sid in pending:
            assert cluster.shared_data.contains(sid)
