"""OCC write sets and the Write Optimized Store."""

import random

import pytest

from repro.catalog.mvcc import op_add_column, op_add_container, op_create_table
from repro.catalog.objects import Table
from repro.catalog.occ import ObjectVersions, WriteSet, keys_touched
from repro.common.oid import SidFactory
from repro.common.types import ColumnType, SchemaColumn, TableSchema
from repro.errors import OCCConflict
from repro.storage.container import ROSContainer, RowSet
from repro.storage.wos import WOS

SCHEMA = TableSchema.of(("a", ColumnType.INT), ("b", ColumnType.VARCHAR))


class TestKeysTouched:
    def test_table_ops(self):
        assert keys_touched(op_create_table(Table("t", SCHEMA))) == [("table", "t")]
        assert keys_touched(op_add_column("t", SchemaColumn("c", ColumnType.INT))) == [
            ("table", "t")
        ]

    def test_container_op_touches_projection(self):
        sids = SidFactory(random.Random(1))
        op = op_add_container(ROSContainer(
            sid=sids.next_sid(), projection="p", shard_id=0,
            row_count=1, size_bytes=1, min_values=(), max_values=(),
        ))
        assert keys_touched(op) == [("projection", "p")]


class TestWriteSetValidation:
    def test_first_observation_wins(self):
        ws = WriteSet()
        ws.record(("table", "t"), 3)
        ws.record(("table", "t"), 7)  # later observation ignored
        assert ws.observed[("table", "t")] == 3

    def test_conflict_detected(self):
        index = ObjectVersions()
        ws = WriteSet()
        ws.record(("table", "t"), index.version_of(("table", "t")))
        index.note_commit(5, [op_create_table(Table("t", SCHEMA))])
        with pytest.raises(OCCConflict):
            ws.validate(index)

    def test_no_conflict_when_untouched(self):
        index = ObjectVersions()
        ws = WriteSet()
        ws.record(("table", "t"), 0)
        index.note_commit(5, [op_create_table(Table("other", SCHEMA))])
        ws.validate(index)  # no raise

    def test_note_commit_tracks_latest(self):
        index = ObjectVersions()
        index.note_commit(1, [op_create_table(Table("t", SCHEMA))])
        index.note_commit(9, [op_add_column("t", SchemaColumn("c", ColumnType.INT))])
        assert index.version_of(("table", "t")) == 9


def rows(n, start=0):
    return RowSet.from_rows(SCHEMA, [(start + i, "x") for i in range(n)])


class TestWOS:
    def test_insert_and_read(self):
        wos = WOS()
        wos.insert("p", rows(3))
        wos.insert("p", rows(2, start=3))
        snapshot = wos.read("p")
        assert snapshot.num_rows == 5
        assert wos.rows_buffered("p") == 5

    def test_drain_removes(self):
        wos = WOS()
        wos.insert("p", rows(3))
        drained = wos.drain("p")
        assert drained.num_rows == 3
        assert wos.read("p") is None
        assert wos.drain("p") is None

    def test_capacity_flag(self):
        wos = WOS(capacity_rows=4)
        wos.insert("p", rows(3))
        assert not wos.over_capacity
        wos.insert("q", rows(3))
        assert wos.over_capacity

    def test_schema_mismatch_rejected(self):
        wos = WOS()
        wos.insert("p", rows(1))
        other = RowSet.from_rows(TableSchema.of(("z", ColumnType.INT)), [(1,)])
        with pytest.raises(ValueError):
            wos.insert("p", other)

    def test_projections_listing(self):
        wos = WOS()
        wos.insert("p", rows(1))
        wos.insert("q", rows(1))
        assert sorted(wos.projections()) == ["p", "q"]
        wos.clear()
        assert wos.total_rows == 0

    def test_invalid_capacity(self):
        with pytest.raises(ValueError):
            WOS(capacity_rows=0)
