"""Partition management: metadata-only drop and move (sections 2.1, 4.5)."""

import pytest

from repro import EonCluster, Segmentation
from repro.errors import CatalogError


@pytest.fixture
def cluster():
    c = EonCluster(["n1", "n2", "n3"], shard_count=3, seed=14)
    c.execute("create table events (day int, v float) partition by day")
    c.execute("create table archive (day int, v float) partition by day")
    # Structural twins: same columns, sort order, and segmentation.
    for name in ("events", "archive"):
        # drop the auto superprojections? They were created with identical
        # structure (sorted+segmented by `day`), so they already match.
        pass
    c.load("events", [(day, float(i)) for day in (1, 2, 3) for i in range(100)])
    return c


class TestDropPartition:
    def test_drop_removes_only_that_partition(self, cluster):
        dropped = cluster.drop_partition("events", 2)
        assert dropped == 100
        out = cluster.query("select day, count(*) n from events group by day order by day")
        assert out.rows.to_pylist() == [(1, 100), (3, 100)]

    def test_drop_is_metadata_only(self, cluster):
        puts_before = cluster.shared.metrics.put_requests
        gets_before = cluster.shared.metrics.get_requests
        cluster.drop_partition("events", 1)
        assert cluster.shared.metrics.put_requests <= puts_before + 1
        assert cluster.shared.metrics.get_requests == gets_before

    def test_drop_missing_partition_is_noop(self, cluster):
        assert cluster.drop_partition("events", 99) == 0

    def test_drop_on_unpartitioned_table_rejected(self, cluster):
        cluster.execute("create table plain (x int)")
        cluster.load("plain", [(1,)])
        with pytest.raises(CatalogError):
            cluster.drop_partition("plain", 1)

    def test_dropped_files_eventually_reaped(self, cluster):
        cluster.drop_partition("events", 1)
        cluster.sync_catalogs()
        cluster.compute_truncation_version()
        stats = cluster.reaper.poll()
        assert stats.deleted > 0


class TestMovePartition:
    def test_move_transfers_rows_without_io(self, cluster):
        reads_before = cluster.shared.metrics.get_requests
        moved = cluster.move_partition("events", "archive", 3)
        assert moved > 0
        assert cluster.shared.metrics.get_requests == reads_before  # no data read
        assert cluster.query(
            "select count(*) from archive"
        ).rows.to_pylist() == [(100,)]
        assert cluster.query(
            "select count(*) from events"
        ).rows.to_pylist() == [(200,)]

    def test_moved_data_queryable_with_correct_values(self, cluster):
        expected = cluster.query(
            "select sum(v) from events where day = 3"
        ).rows.to_pylist()
        cluster.move_partition("events", "archive", 3)
        assert cluster.query("select sum(v) from archive").rows.to_pylist() == expected

    def test_move_shares_storage_files(self, cluster):
        files_before = set(cluster.shared_data.list())
        cluster.move_partition("events", "archive", 3)
        assert set(cluster.shared_data.list()) == files_before

    def test_moved_files_not_reaped(self, cluster):
        """The drop+add in one transaction must not enqueue deletions."""
        cluster.move_partition("events", "archive", 3)
        cluster.sync_catalogs()
        cluster.compute_truncation_version()
        cluster.reaper.poll()
        assert cluster.query("select count(*) from archive").rows.to_pylist() == [(100,)]

    def test_move_to_occupied_partition_rejected(self, cluster):
        cluster.load("archive", [(3, 0.5)])
        with pytest.raises(CatalogError):
            cluster.move_partition("events", "archive", 3)

    def test_move_requires_structural_twin(self, cluster):
        cluster.execute("create table shaped (day int, v float) partition by day")
        cluster.create_projection(
            "shaped_by_v", "shaped", ["day", "v"], ["v"], Segmentation.by_hash("v")
        )
        # `shaped` now has an extra projection with no twin on events.
        with pytest.raises(CatalogError):
            cluster.move_partition("shaped", "events", 1)

    def test_move_empty_partition(self, cluster):
        assert cluster.move_partition("events", "archive", 42) == 0

    def test_move_then_drop_source_keeps_target(self, cluster):
        cluster.move_partition("events", "archive", 3)
        cluster.execute("drop table events")
        cluster.sync_catalogs()
        cluster.compute_truncation_version()
        cluster.reaper.poll()
        assert cluster.query("select count(*) from archive").rows.to_pylist() == [(100,)]

