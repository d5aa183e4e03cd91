"""Catalog op application: every op type, error cases, shard filtering."""

import random

import pytest

from repro.catalog.mvcc import (
    CatalogState,
    op_add_column,
    op_add_container,
    op_add_delete_vector,
    op_create_live_agg,
    op_create_projection,
    op_create_table,
    op_create_user,
    op_drop_container,
    op_drop_delete_vector,
    op_drop_projection,
    op_drop_subscription,
    op_drop_table,
    op_set_property,
    op_set_subscription,
    op_shard_of,
)
from repro.catalog.objects import (
    AggregateSpec,
    LiveAggregateProjection,
    Projection,
    Segmentation,
    Table,
    User,
)
from repro.common.oid import SidFactory
from repro.common.types import ColumnType, SchemaColumn, TableSchema
from repro.errors import CatalogError
from repro.storage.container import ROSContainer
from repro.storage.delete_vector import DeleteVector

SCHEMA = TableSchema.of(("a", ColumnType.INT), ("b", ColumnType.VARCHAR))


@pytest.fixture
def sids():
    return SidFactory(random.Random(42))


@pytest.fixture
def state(sids):
    s = CatalogState()
    s.apply(op_create_table(Table("t", SCHEMA)))
    s.apply(op_create_projection(Projection(
        "t_p", "t", ("a", "b"), ("a",), Segmentation.by_hash("a"))))
    return s


def container(sids, projection="t_p", shard=0):
    return ROSContainer(
        sid=sids.next_sid(), projection=projection, shard_id=shard,
        row_count=5, size_bytes=50, min_values=(("a", 0),), max_values=(("a", 4),),
    )


class TestTableOps:
    def test_create_duplicate_rejected(self, state):
        with pytest.raises(CatalogError):
            state.apply(op_create_table(Table("t", SCHEMA)))

    def test_drop_cascades_projections_and_storage(self, state, sids):
        state.apply(op_add_container(container(sids)))
        state.apply(op_drop_table("t"))
        assert not state.tables and not state.projections and not state.containers

    def test_drop_missing_rejected(self, state):
        with pytest.raises(CatalogError):
            state.apply(op_drop_table("ghost"))

    def test_add_column(self, state):
        state.apply(op_add_column("t", SchemaColumn("c", ColumnType.FLOAT)))
        assert "c" in state.table("t").schema

    def test_add_duplicate_column_rejected(self, state):
        with pytest.raises(CatalogError):
            state.apply(op_add_column("t", SchemaColumn("a", ColumnType.INT)))


class TestProjectionOps:
    def test_projection_registered_on_table(self, state):
        assert "t_p" in state.table("t").projections

    def test_drop_projection_removes_storage(self, state, sids):
        state.apply(op_add_container(container(sids)))
        state.apply(op_drop_projection("t_p"))
        assert not state.containers
        assert "t_p" not in state.table("t").projections

    def test_projection_requires_table(self):
        s = CatalogState()
        with pytest.raises(CatalogError):
            s.apply(op_create_projection(Projection(
                "p", "ghost", ("a",), ("a",), Segmentation.by_hash("a"))))

    def test_live_agg_requires_table(self):
        s = CatalogState()
        lap = LiveAggregateProjection(
            "lap", "ghost", ("g",), (AggregateSpec("sum", "v", "s"),),
            Segmentation.by_hash("g"))
        with pytest.raises(CatalogError):
            s.apply(op_create_live_agg(lap))


class TestStorageOps:
    def test_duplicate_container_rejected(self, state, sids):
        c = container(sids)
        state.apply(op_add_container(c))
        with pytest.raises(CatalogError):
            state.apply(op_add_container(c))

    def test_drop_container_cascades_delete_vectors(self, state, sids):
        c = container(sids)
        state.apply(op_add_container(c))
        dv = DeleteVector(
            sid=sids.next_sid(), target_sid=c.sid, projection="t_p",
            shard_id=0, deleted_count=1, size_bytes=10,
        )
        state.apply(op_add_delete_vector(dv))
        state.apply(op_drop_container(str(c.sid), 0))
        assert not state.delete_vectors

    def test_drop_missing_container_rejected(self, state):
        with pytest.raises(CatalogError):
            state.apply(op_drop_container("nope", 0))

    def test_drop_missing_dv_rejected(self, state):
        with pytest.raises(CatalogError):
            state.apply(op_drop_delete_vector("nope", 0))

    def test_containers_of_filters(self, state, sids):
        state.apply(op_add_container(container(sids, shard=0)))
        state.apply(op_add_container(container(sids, shard=1)))
        assert len(state.containers_of("t_p")) == 2
        assert len(state.containers_of("t_p", shard_id=1)) == 1


class TestMiscOps:
    def test_user(self, state):
        state.apply(op_create_user(User("bob")))
        assert "bob" in state.users
        with pytest.raises(CatalogError):
            state.apply(op_create_user(User("bob")))

    def test_properties(self, state):
        state.apply(op_set_property("coordinator_0", "n1"))
        assert state.properties["coordinator_0"] == "n1"

    def test_subscriptions(self, state):
        state.apply(op_set_subscription("n1", 0, "ACTIVE"))
        assert state.subscriptions[("n1", 0)] == "ACTIVE"
        state.apply(op_drop_subscription("n1", 0))
        assert ("n1", 0) not in state.subscriptions

    def test_unknown_op_rejected(self, state):
        with pytest.raises(CatalogError):
            state.apply({"op": "explode"})

    def test_op_shard_tagging(self, sids):
        assert op_shard_of(op_add_container(container(sids, shard=3))) == 3
        assert op_shard_of(op_create_table(Table("x", SCHEMA))) is None


class TestShardFilteredApplication:
    def test_apply_all_with_filter(self, state, sids):
        ops = [
            op_add_container(container(sids, shard=0)),
            op_add_container(container(sids, shard=1)),
            op_set_property("global", 1),
        ]
        state.apply_all(ops, shard_filter={0})
        assert {c.shard_id for c in state.containers.values()} == {0}
        assert state.properties["global"] == 1  # global ops always apply

    def test_copy_isolation(self, state, sids):
        snapshot = state.copy()
        state.apply(op_add_container(container(sids)))
        assert not snapshot.containers and state.containers
