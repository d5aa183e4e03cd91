"""Catalog: MVCC snapshots, redo log, checkpoints, truncation, sync."""

import random

import pytest

from repro.catalog.catalog import Catalog
from repro.catalog.mvcc import (
    CatalogState,
    op_add_container,
    op_create_projection,
    op_create_table,
    op_drop_container,
    op_set_subscription,
)
from repro.catalog.objects import Projection, Segmentation, Table
from repro.catalog.transaction_log import Checkpoint, LogRecord, LogStore, segment_name
from repro.common.oid import SidFactory
from repro.common.types import ColumnType, TableSchema
from repro.errors import CatalogError
from repro.shared_storage.posix import MemoryFilesystem
from repro.storage.container import ROSContainer

SCHEMA = TableSchema.of(("a", ColumnType.INT), ("b", ColumnType.VARCHAR))


def table_op(name="t"):
    return op_create_table(Table(name, SCHEMA))


def container_op(sids: SidFactory, projection="t_p", shard=0):
    return op_add_container(
        ROSContainer(
            sid=sids.next_sid(),
            projection=projection,
            shard_id=shard,
            row_count=10,
            size_bytes=100,
            min_values=(("a", 0),),
            max_values=(("a", 9),),
        )
    )


def make_catalog(**kwargs) -> Catalog:
    return Catalog(MemoryFilesystem(), **kwargs)


class TestCommitApplication:
    def test_apply_in_order(self):
        catalog = make_catalog()
        catalog.apply_commit(LogRecord(1, (table_op(),)))
        assert catalog.state.version == 1
        assert "t" in catalog.state.tables

    def test_version_gap_rejected(self):
        catalog = make_catalog()
        with pytest.raises(CatalogError):
            catalog.apply_commit(LogRecord(5, (table_op(),)))

    def test_copy_on_write_snapshots(self):
        catalog = make_catalog()
        catalog.apply_commit(LogRecord(1, (table_op("t1"),)))
        snap = catalog.snapshot()
        catalog.apply_commit(LogRecord(2, (table_op("t2"),)))
        assert "t2" not in snap.state.tables
        assert "t2" in catalog.state.tables
        snap.release()

    def test_min_pinned_version_tracks_queries(self):
        catalog = make_catalog()
        catalog.apply_commit(LogRecord(1, (table_op("t1"),)))
        snap = catalog.snapshot()
        catalog.apply_commit(LogRecord(2, (table_op("t2"),)))
        assert catalog.min_pinned_version() == 1
        snap.release()
        assert catalog.min_pinned_version() == 2

    def test_shard_filter_skips_foreign_storage(self):
        sids = SidFactory(random.Random(1))
        catalog = make_catalog(subscribed_shards={0})
        catalog.apply_commit(LogRecord(1, (
            table_op(),
            op_create_projection(Projection(
                "t_p", "t", ("a", "b"), ("a",), Segmentation.by_hash("a"))),
        )))
        catalog.apply_commit(
            LogRecord(2, (container_op(sids, shard=0), container_op(sids, shard=1)))
        )
        shards = {c.shard_id for c in catalog.state.containers.values()}
        assert shards == {0}


class TestRecovery:
    def test_recover_from_log(self):
        catalog = make_catalog(checkpoint_every=100)
        for i in range(5):
            catalog.apply_commit(LogRecord(i + 1, (table_op(f"t{i}"),)))
        fresh = Catalog(MemoryFilesystem())
        fresh.log_store = catalog.log_store
        replayed = fresh.recover()
        assert replayed == 5
        assert fresh.state.version == 5
        assert "t4" in fresh.state.tables

    def test_recover_uses_checkpoint(self):
        catalog = make_catalog(checkpoint_every=3)
        for i in range(7):
            catalog.apply_commit(LogRecord(i + 1, (table_op(f"t{i}"),)))
        # Checkpoints at versions 3 and 6 exist, old logs pruned.
        fresh = Catalog(MemoryFilesystem())
        fresh.log_store = catalog.log_store
        fresh.recover()
        assert fresh.state.version == 7
        assert set(fresh.state.tables) == {f"t{i}" for i in range(7)}

    def test_recover_stops_at_log_gap(self):
        catalog = make_catalog(checkpoint_every=100)
        for i in range(4):
            catalog.apply_commit(LogRecord(i + 1, (table_op(f"t{i}"),)))
        catalog.log_store.fs.delete(segment_name(3, 3))
        fresh = Catalog(MemoryFilesystem())
        fresh.log_store = catalog.log_store
        fresh.recover()
        assert fresh.state.version == 2  # stops before the gap

    def test_retains_two_checkpoints(self):
        catalog = make_catalog(checkpoint_every=2)
        for i in range(9):
            catalog.apply_commit(LogRecord(i + 1, (table_op(f"t{i}"),)))
        assert len(catalog.log_store.listing().checkpoints) <= 2


class TestTruncation:
    def test_truncate_discards_tail(self):
        catalog = make_catalog(checkpoint_every=100)
        for i in range(6):
            catalog.apply_commit(LogRecord(i + 1, (table_op(f"t{i}"),)))
        catalog.truncate_to(3)
        assert catalog.state.version == 3
        assert set(catalog.state.tables) == {"t0", "t1", "t2"}
        # Discarded log records are gone.
        assert max((last for _, last in catalog.log_store.listing().segments), default=0) <= 3

    def test_truncate_to_current_is_checkpoint_only(self):
        catalog = make_catalog(checkpoint_every=100)
        catalog.apply_commit(LogRecord(1, (table_op(),)))
        catalog.truncate_to(1)
        assert catalog.state.version == 1
        assert catalog.log_store.listing().checkpoints == [1]

    def test_truncate_forward_rejected(self):
        catalog = make_catalog()
        with pytest.raises(CatalogError):
            catalog.truncate_to(9)

    def test_truncate_past_newest_checkpoint(self):
        catalog = make_catalog(checkpoint_every=2)
        # The truncation floor protects the material needed to rebuild
        # version 5 from pruning ("deleting checkpoints and transaction
        # logs after the truncation version is not allowed").
        catalog.truncation_floor = 5
        for i in range(8):
            catalog.apply_commit(LogRecord(i + 1, (table_op(f"t{i}"),)))
        catalog.truncate_to(5)
        assert catalog.state.version == 5
        assert set(catalog.state.tables) == {f"t{i}" for i in range(5)}

    def test_truncate_without_floor_protection_fails(self):
        catalog = make_catalog(checkpoint_every=2)
        for i in range(8):
            catalog.apply_commit(LogRecord(i + 1, (table_op(f"t{i}"),)))
        # Pruning legitimately removed the material below the newest
        # checkpoints, so an unprotected truncation target is unreachable.
        with pytest.raises(CatalogError):
            catalog.truncate_to(5)


class TestSync:
    def test_sync_uploads_logs_and_checkpoint(self):
        catalog = make_catalog(checkpoint_every=100)
        shared = LogStore(MemoryFilesystem())
        for i in range(3):
            catalog.apply_commit(LogRecord(i + 1, (table_op(f"t{i}"),)))
        low, high = catalog.sync_to(shared, include_checkpoint=True)
        assert high == 3
        assert shared.listing().segments == [(1, 3)]  # one segment per sync

    def test_sync_interval_grows_with_uploads(self):
        catalog = make_catalog(checkpoint_every=100)
        shared = LogStore(MemoryFilesystem())
        catalog.apply_commit(LogRecord(1, (table_op("t0"),)))
        _, high1 = catalog.sync_to(shared, include_checkpoint=True)
        catalog.apply_commit(LogRecord(2, (table_op("t1"),)))
        _, high2 = catalog.sync_to(shared)
        assert (high1, high2) == (1, 2)

    def test_revivable_interval_requires_contiguous_logs(self):
        store = LogStore(MemoryFilesystem())
        state = CatalogState()
        state.version = 2
        store.write_checkpoint(Checkpoint.of_state(state))
        store.append(LogRecord(3, ()))
        store.append(LogRecord(5, ()))  # gap at 4
        assert store.listing().interval() == (2, 3)

    def test_revivable_interval_empty_store(self):
        assert LogStore(MemoryFilesystem()).listing().interval() == (0, 0)


class TestLogStorePrune:
    def test_prune_respects_truncation_floor(self):
        catalog = make_catalog(checkpoint_every=100)
        for i in range(6):
            catalog.apply_commit(LogRecord(i + 1, (table_op(f"t{i}"),)))
        catalog.write_checkpoint()
        catalog.apply_commit(LogRecord(7, (table_op("t7"),)))
        catalog.truncation_floor = 1
        catalog.write_checkpoint()
        # Logs at/after the floor must survive pruning.
        assert (1, 1) in catalog.log_store.listing().segments
        assert catalog.log_store.listing().checkpoints
