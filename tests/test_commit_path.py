"""The catalog commit path does work proportional to the transaction.

Four shortcuts replaced whole-catalog work on every commit, checkpoint and
sync (DESIGN.md "Catalog commit path").  Each is checked here against the
code it replaced, which lives on in this file only, as a reference:

* reaping by the delta the op handlers report  vs  the union diff
  ``before - after`` over every container of every up node
  (:func:`reference_referenced_sids`, once ``EonCluster._referenced_sids``);
* checkpoints joined from memoised per-object JSON text  vs  one
  ``json.dumps`` of the whole document (:func:`reference_checkpoint_doc`,
  once the body of ``Checkpoint.of_state``);
* log bytes produced once and uploaded verbatim  vs  parse and re-encode;
* a state copy that shares the maps a record does not write  vs  a copy of
  all eight.
"""

from __future__ import annotations

import json
import random
import statistics
import time
from dataclasses import replace
from typing import Dict, List, Set, Tuple

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

import repro.catalog.mvcc as mvcc
import repro.catalog.transaction_log as transaction_log
from repro import ColumnType, EonCluster
from repro.catalog.catalog import Catalog
from repro.catalog.mvcc import (
    CatalogState,
    container_to_json,
    dv_to_json,
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
)
from repro.catalog.objects import (
    AggregateSpec,
    FlattenedColumn,
    LiveAggregateProjection,
    Projection,
    Segmentation,
    Table,
    User,
)
from repro.catalog.transaction_log import Checkpoint, LogRecord, LogStore, log_name
from repro.common.oid import SidFactory, StorageId
from repro.common.types import SchemaColumn, TableSchema
from repro.errors import CatalogError, ReproError
from repro.shared_storage.posix import MemoryFilesystem
from repro.storage.container import ROSContainer
from repro.storage.delete_vector import DeleteVector
from repro.tuple_mover import MergeoutCoordinatorService

NODES = ["n1", "n2", "n3", "n4"]


# ---------------------------------------------------------------------------
# references: the code the commit path used to run


def reference_referenced_sids(cluster) -> Set[str]:
    """Every storage name any up node's current state holds (a scan)."""
    sids: Set[str] = set()
    for node in cluster.up_nodes():
        sids |= node.catalog.state.storage_sids()
    return sids


def reference_checkpoint_doc(state: CatalogState) -> dict:
    return {
        "version": state.version,
        "tables": [t.to_json() for t in state.tables.values()],
        "projections": [p.to_json() for p in state.projections.values()],
        "live_aggs": [l.to_json() for l in state.live_aggs.values()],
        "users": [u.to_json() for u in state.users.values()],
        "containers": [container_to_json(c) for c in state.containers.values()],
        "delete_vectors": [dv_to_json(d) for d in state.delete_vectors.values()],
        "properties": state.properties,
        "subscriptions": [
            {"node": n, "shard_id": s, "state": st}
            for (n, s), st in state.subscriptions.items()
        ],
    }


def reference_checkpoint_payload(state: CatalogState) -> bytes:
    return json.dumps(reference_checkpoint_doc(state)).encode("utf-8")


def reference_poll(cluster) -> Tuple[List[str], List[Tuple[str, int]]]:
    """What ``FileReaper.poll`` must delete and keep, by the union scan."""
    min_query = cluster.reaper.cluster_min_query_version()
    truncation = cluster.last_truncation_version
    referenced = reference_referenced_sids(cluster)
    deleted, remaining = [], []
    for sid, drop_version in cluster.reaper._pending:
        if sid in referenced:
            continue
        if drop_version > min_query or drop_version > truncation:
            remaining.append((sid, drop_version))
        else:
            deleted.append(sid)
    return deleted, remaining


# ---------------------------------------------------------------------------
# a cluster whose every commit is checked against the union diff


SCHEMA = [("a", ColumnType.INT), ("b", ColumnType.VARCHAR)]
TABLES = ("t0", "t1")


def fake_container(sid: StorageId, projection: str, shard: int, salt: int = 0) -> ROSContainer:
    return ROSContainer(
        sid=sid, projection=projection, shard_id=shard, row_count=5 + salt % 7,
        size_bytes=50 + salt % 11, min_values=(("a", salt % 5),),
        max_values=(("a", 5 + salt % 5),), partition_key=salt % 3 or None,
    )


class CheckedCluster:
    """An EonCluster whose ``commit`` compares the reaped list with
    ``sorted(before - after)`` of the reference union, for every commit made
    through it — the test's own and the ones subscription changes, recovery
    and unsubscription make internally."""

    def __init__(self, seed: int = 3):
        self.cluster = cluster = EonCluster(NODES, shard_count=4, seed=seed)
        self.sids = SidFactory()
        self.commits_checked = 0
        self.drops_checked = 0
        self.pinned: List[Tuple[object, CatalogState, bytes]] = []
        self._noted: List[Tuple[str, int]] = []
        original_note = cluster.reaper.note_drop
        original_commit = cluster.commit

        def note_drop(sid, version):
            self._noted.append((sid, version))
            original_note(sid, version)

        def commit(txn, epoch=None):
            before = reference_referenced_sids(cluster)
            self._noted.clear()
            version = original_commit(txn, epoch)
            after = reference_referenced_sids(cluster)
            # The parent ran the diff only for transactions with a drop op.
            dropping = any(op["op"].startswith("drop_") for op in txn.ops)
            expected = sorted(before - after) if dropping else []
            assert [sid for sid, _v in self._noted] == expected
            assert all(v == version for _sid, v in self._noted)
            self.commits_checked += 1
            self.drops_checked += len(expected)
            return version

        cluster.reaper.note_drop = note_drop
        cluster.commit = commit
        for name in TABLES:
            self.create_table(name)

    # -- what the catalog holds --------------------------------------------

    def live(self, attr: str) -> List:
        merged: Dict[str, object] = {}
        for node in self.cluster.up_nodes():
            merged.update(getattr(node.catalog.state, attr))
        return [merged[sid] for sid in sorted(merged)]

    def projections(self) -> List[str]:
        return sorted(self.cluster.any_up_node().catalog.state.projections)

    def create_table(self, name: str) -> None:
        self.cluster.create_table(name, SCHEMA)
        self.cluster.create_projection(
            f"{name}_p2", name, ["a", "b"], ["b"], Segmentation.by_hash("a")
        )

    # -- actions -----------------------------------------------------------

    def act(self, kind: str, salt: int) -> None:
        cluster = self.cluster
        containers = self.live("containers")
        dvs = self.live("delete_vectors")
        projections = self.projections()
        tables = sorted(cluster.any_up_node().catalog.state.tables)
        down = [n for n in NODES if not cluster.nodes[n].is_up]
        txn = cluster.begin()
        if kind == "add" and projections:
            for i in range(1 + salt % 3):
                txn.add_op(op_add_container(fake_container(
                    self.sids.next_sid(), projections[(salt + i) % len(projections)],
                    (salt + i) % 4, salt)))
        elif kind == "add_dv" and containers:
            target = containers[salt % len(containers)]
            txn.add_op(op_add_delete_vector(DeleteVector(
                sid=self.sids.next_sid(), target_sid=target.sid,
                projection=target.projection, shard_id=target.shard_id,
                deleted_count=1 + salt % 4, size_bytes=16)))
        elif kind == "drop_container" and containers:
            for target in {containers[(salt + i) % len(containers)] for i in range(1 + salt % 2)}:
                txn.add_op(op_drop_container(str(target.sid), target.shard_id))
        elif kind == "drop_dv" and dvs:
            target = dvs[salt % len(dvs)]
            txn.add_op(op_drop_delete_vector(str(target.sid), target.shard_id))
        elif kind == "drop_table" and tables:
            txn.add_op(op_drop_table(tables[salt % len(tables)]))
        elif kind == "create_table" and len(tables) < len(TABLES):
            self.create_table(next(t for t in TABLES if t not in tables))
        elif kind == "drop_projection" and projections:
            txn.add_op(op_drop_projection(projections[salt % len(projections)]))
        elif kind == "move" and containers and projections:
            # A partition move: the same file, dropped and re-added under
            # another projection in one transaction, stays referenced.
            target = containers[salt % len(containers)]
            txn.add_op(op_drop_container(str(target.sid), target.shard_id))
            txn.add_op(op_add_container(
                replace(target, projection=projections[salt % len(projections)])))
        elif kind == "move_dv" and dvs:
            target = dvs[salt % len(dvs)]
            txn.add_op(op_drop_delete_vector(str(target.sid), target.shard_id))
            txn.add_op(op_add_delete_vector(replace(target, deleted_count=salt % 9)))
        elif kind == "resurrect" and cluster.reaper._pending:
            # A later transaction references a dropped file again (a table
            # copy): the reaper must forget it, not delete it.
            pending = sorted(cluster.reaper.pending_sids())
            sid = StorageId.parse(pending[salt % len(pending)])
            if salt % 2 and projections:
                txn.add_op(op_add_container(fake_container(
                    sid, projections[salt % len(projections)], salt % 4, salt)))
            elif containers:
                target = containers[salt % len(containers)]
                txn.add_op(op_add_delete_vector(DeleteVector(
                    sid=sid, target_sid=target.sid, projection=target.projection,
                    shard_id=target.shard_id, deleted_count=1, size_bytes=16)))
        elif kind == "kill" and not down:
            cluster.kill_node(NODES[salt % 4])
        elif kind == "recover" and down:
            cluster.recover_node(down[0], warm_cache=False)
        elif kind in ("unsubscribe", "subscribe"):
            node, shard = NODES[salt % 4], (salt // 4) % 4
            subscribed = (node, shard) in cluster.any_up_node().catalog.state.subscriptions
            if kind == "unsubscribe" and subscribed and not down:
                cluster.unsubscribe(node, shard)
            elif kind == "subscribe" and not subscribed and not down:
                cluster.subscribe(node, shard, warm_cache=False)
        elif kind == "pin":
            node = cluster.up_nodes()[salt % len(cluster.up_nodes())]
            snapshot = node.catalog.snapshot()
            self.pinned.append(
                (snapshot, snapshot.state, reference_checkpoint_payload(snapshot.state)))
        elif kind == "unpin" and self.pinned:
            self.pinned.pop(salt % len(self.pinned))[0].release()
        elif kind == "poll":
            cluster.sync_catalogs()
            cluster.compute_truncation_version()
            deleted, remaining = reference_poll(cluster)
            stats = cluster.reaper.poll()
            assert stats.deleted == len(deleted)
            assert cluster.reaper._pending == remaining
        if txn.ops:
            cluster.commit(txn)

    def check_states(self) -> None:
        """Checkpoint bytes of every reachable state, and no pinned state
        moved under the commits made since it was pinned."""
        for node in self.cluster.up_nodes():
            state = node.catalog.state
            assert Checkpoint.of_state(state).payload == reference_checkpoint_payload(state)
        for _snapshot, state, payload_then in self.pinned:
            assert reference_checkpoint_payload(state) == payload_then
            assert Checkpoint.of_state(state).payload == payload_then


KINDS = [
    "add", "add", "add_dv", "add_dv", "drop_container", "drop_dv", "drop_table",
    "create_table", "drop_projection", "move", "move_dv", "resurrect", "kill",
    "recover", "unsubscribe", "subscribe", "pin", "unpin", "poll",
]
actions = st.lists(
    st.tuples(st.sampled_from(KINDS), st.integers(0, 2 ** 16)), min_size=8, max_size=60
)


class TestReapByDelta:
    @settings(max_examples=100, deadline=None,
              suppress_health_check=[HealthCheck.too_slow, HealthCheck.data_too_large])
    @given(actions)
    def test_delta_equals_union_diff_at_every_commit(self, schedule):
        self.run_schedule(schedule)

    def test_long_seeded_schedules(self):
        commits = drops = 0
        for seed in range(20):
            rng = random.Random(seed)
            checked = self.run_schedule(
                [(rng.choice(KINDS), rng.randrange(2 ** 16)) for _ in range(80)])
            commits += checked.commits_checked
            drops += checked.drops_checked
        # Some schedules end early (a kill that loses shard coverage shuts
        # the cluster down); across twenty the cascades are well covered.
        assert commits > 500 and drops > 100

    @staticmethod
    def run_schedule(schedule) -> CheckedCluster:
        checked = CheckedCluster()
        for kind, salt in schedule:
            try:
                checked.act(kind, salt)
            except ReproError:
                pass  # a refused action; the commits it did make were checked
            checked.check_states()
        assert checked.commits_checked >= 4  # the two tables' DDL at least
        return checked

    def test_every_cascade_in_one_run(self):
        """A fixed schedule through each kind, so a run of the suite cannot
        pass by Hypothesis happening not to draw one."""
        checked = CheckedCluster()
        schedule = [
            ("add", 5), ("add", 9), ("add", 14), ("add_dv", 0), ("add_dv", 1),
            ("add_dv", 1), ("pin", 0), ("move", 1), ("move_dv", 1), ("drop_container", 1),
            ("drop_dv", 0), ("resurrect", 0), ("resurrect", 1), ("poll", 0), ("kill", 2), ("add", 3), ("drop_container", 0),
            ("recover", 0), ("unsubscribe", 1), ("add", 6), ("add_dv", 2),
            ("subscribe", 1), ("pin", 1), ("drop_projection", 1), ("poll", 0),
            ("drop_table", 0), ("create_table", 0), ("add", 2), ("poll", 0),
            ("unpin", 0), ("poll", 0),
        ]
        for kind, salt in schedule:
            checked.act(kind, salt)
            checked.check_states()
        assert checked.commits_checked > 30
        assert checked.drops_checked >= 8
        assert checked.cluster.reaper.stats.deleted > 0

    def test_drop_projection_reaps_its_delete_vectors(self):
        """Regression: ``drop_projection`` removed the projection's
        containers but left its delete vectors in the catalog, so their
        files never reached refcount zero."""
        cluster = EonCluster(NODES, shard_count=4, seed=5)
        cluster.execute("create table t (a int, b varchar)")
        cluster.create_projection("t_p2", "t", ["a", "b"], ["b"], Segmentation.by_hash("a"))
        cluster.load("t", [(i, f"g{i % 3}") for i in range(200)])
        cluster.execute("delete from t where a < 50")
        dvs = {
            sid
            for node in cluster.up_nodes()
            for sid, dv in node.catalog.state.delete_vectors.items()
            if dv.projection == "t_p2"
        }
        assert dvs
        noted: List[str] = []
        original = cluster.reaper.note_drop
        cluster.reaper.note_drop = lambda sid, v: (noted.append(sid), original(sid, v))
        cluster.drop_projection("t_p2")
        assert dvs <= set(noted)
        for node in cluster.up_nodes():
            assert not dvs & set(node.catalog.state.delete_vectors)
        assert cluster.query("select count(*) from t").rows.to_pylist() == [(150,)]

    def test_nodes_share_one_object_per_record(self):
        cluster = EonCluster(NODES, shard_count=4, seed=5)
        cluster.execute("create table t (a int, b varchar)")
        cluster.load("t", [(i, "x") for i in range(100)])
        holders: Dict[str, List[ROSContainer]] = {}
        for node in cluster.up_nodes():
            for sid, container in node.catalog.state.containers.items():
                holders.setdefault(sid, []).append(container)
        assert any(len(copies) > 1 for copies in holders.values())
        for copies in holders.values():
            assert all(c is copies[0] for c in copies)


# ---------------------------------------------------------------------------
# checkpoints from fragments


names = st.text(min_size=1, max_size=6)
json_scalars = st.one_of(
    st.none(), st.booleans(), st.integers(-2 ** 70, 2 ** 70),
    st.floats(allow_nan=False), st.text(max_size=8),
)
json_values = st.recursive(
    json_scalars,
    lambda inner: st.one_of(st.lists(inner, max_size=3),
                            st.dictionaries(st.text(max_size=4), inner, max_size=3)),
    max_leaves=6,
)
sid_values = st.builds(
    StorageId, st.integers(0, 2 ** 120 - 1), st.integers(0, 2 ** 64 - 1)
)
min_max = st.lists(st.tuples(names, json_scalars), max_size=3).map(tuple)
containers_st = st.builds(
    ROSContainer, sid=sid_values, projection=names, shard_id=st.none() | st.integers(-1, 9),
    row_count=st.integers(0, 10 ** 9), size_bytes=st.integers(0, 10 ** 12),
    min_values=min_max, max_values=min_max, partition_key=json_scalars,
    creation_version=st.integers(0, 10 ** 6),
)
dvs_st = st.builds(
    DeleteVector, sid=sid_values, target_sid=sid_values, projection=names,
    shard_id=st.none() | st.integers(-1, 9), deleted_count=st.integers(0, 10 ** 6),
    size_bytes=st.integers(0, 10 ** 9), creation_version=st.integers(0, 10 ** 6),
)


@st.composite
def tables_st(draw):
    columns = draw(st.lists(names, min_size=1, max_size=4, unique=True))
    schema = TableSchema([
        SchemaColumn(c, draw(st.sampled_from(list(ColumnType))), draw(st.booleans()))
        for c in columns
    ])
    flattened = ()
    if draw(st.booleans()):
        flattened = (FlattenedColumn(columns[0], draw(names), draw(names), columns[-1], draw(names)),)
    return Table(
        name=draw(names), schema=schema,
        partition_by=draw(st.none() | st.sampled_from(columns)),
        projections=tuple(draw(st.lists(names, max_size=3))), flattened=flattened,
    )


@st.composite
def projections_st(draw):
    columns = draw(st.lists(names, min_size=1, max_size=4, unique=True))
    segmentation = (
        Segmentation.replicated() if draw(st.booleans())
        else Segmentation.by_hash(columns[0])
    )
    return Projection(
        name=draw(names), anchor_table=draw(names), columns=tuple(columns),
        sort_order=tuple(columns[:draw(st.integers(0, len(columns)))]),
        segmentation=segmentation, is_buddy=draw(st.booleans()),
        buddy_of=draw(st.none() | names),
    )


live_aggs_st = st.builds(
    LiveAggregateProjection, name=names, anchor_table=names,
    group_by=st.lists(names, min_size=1, max_size=2).map(tuple),
    aggregates=st.lists(
        st.builds(AggregateSpec, st.sampled_from(["sum", "count", "min", "max"]),
                  st.none() | names, names),
        min_size=1, max_size=2).map(tuple),
    segmentation=st.just(Segmentation.replicated()),
)


@st.composite
def states_st(draw):
    state = CatalogState()
    state.version = draw(st.integers(0, 10 ** 9))
    for table in draw(st.lists(tables_st(), max_size=3)):
        state.tables[table.name] = table
    for projection in draw(st.lists(projections_st(), max_size=3)):
        state.projections[projection.name] = projection
    for lap in draw(st.lists(live_aggs_st, max_size=2)):
        state.live_aggs[lap.name] = lap
    for user in draw(st.lists(st.builds(User, names, st.booleans()), max_size=2)):
        state.users[user.name] = user
    for container in draw(st.lists(containers_st, max_size=4)):
        state.containers[str(container.sid)] = container
    for dv in draw(st.lists(dvs_st, max_size=3)):
        state.delete_vectors[str(dv.sid)] = dv
    state.properties = draw(st.dictionaries(st.text(max_size=5), json_values, max_size=3))
    for node, shard, sub in draw(st.lists(
            st.tuples(names, st.integers(-1, 9), st.sampled_from(["ACTIVE", "PENDING"])),
            max_size=3)):
        state.subscriptions[(node, shard)] = sub
    return state


class TestCheckpointFragments:
    @settings(max_examples=200, deadline=None, suppress_health_check=[HealthCheck.too_slow])
    @given(states_st())
    def test_payload_is_json_dumps_of_the_document(self, state):
        expected = reference_checkpoint_payload(state)
        assert Checkpoint.of_state(state).payload == expected
        # A second call joins memoised text; a successor shares the objects.
        assert Checkpoint.of_state(state).payload == expected
        assert Checkpoint.of_state(state.copy([])).payload == expected

    @settings(max_examples=100, deadline=None, suppress_health_check=[HealthCheck.too_slow])
    @given(states_st())
    def test_restore_round_trip(self, state):
        restored = Checkpoint.of_state(state).restore()
        assert reference_checkpoint_doc(restored) == json.loads(
            reference_checkpoint_payload(state))

    def test_empty_state_and_non_ascii(self):
        empty = CatalogState()
        assert Checkpoint.of_state(empty).payload == reference_checkpoint_payload(empty)
        state = CatalogState()
        state.properties = {"région": "zürich ☃ \U0001f600", "q\"uote\\": ["\n", {"k": None}]}
        state.users["ñ"] = User("ñ", True)
        payload = Checkpoint.of_state(state).payload
        assert payload == reference_checkpoint_payload(state)
        assert payload.isascii()

    def test_text_is_encoded_once_per_object(self, monkeypatch):
        state = CatalogState()
        sids = SidFactory()
        for i in range(20):
            c = fake_container(sids.next_sid(), "p", i % 4, i)
            state.containers[str(c.sid)] = c
        calls = []
        original = transaction_log.container_to_json
        monkeypatch.setattr(transaction_log, "container_to_json",
                            lambda c: (calls.append(c), original(c))[1])
        Checkpoint.of_state(state)
        assert len(calls) == 20
        successor = state.copy([])
        extra = fake_container(sids.next_sid(), "p", 0)
        successor.containers[str(extra.sid)] = extra
        Checkpoint.of_state(successor)
        Checkpoint.of_state(state)
        assert len(calls) == 21


# ---------------------------------------------------------------------------
# serialise once


class TestSerialiseOnce:
    def test_local_and_shared_log_objects_are_byte_equal(self):
        cluster = EonCluster(NODES, shard_count=4, seed=5)
        cluster.execute("create table t (a int, b varchar)")
        for batch in range(5):
            cluster.load("t", [(batch * 10 + i, f"é{i}") for i in range(10)])
        cluster.execute("delete from t where a < 5")
        cluster.sync_catalogs()
        by_version: Dict[int, Set[bytes]] = {}
        for node in cluster.up_nodes():
            local = node.catalog.log_store
            shared = cluster.shared_meta_store(node.name)
            versions = local.log_versions()
            assert versions and shared.log_versions() == versions
            for version in versions:
                data = local.fs.read(log_name(version))
                assert shared.fs.read(log_name(version)) == data
                # What parse and re-encode would have uploaded.
                assert LogRecord.from_bytes(data).to_bytes() == data
                by_version.setdefault(version, set()).add(data)
        assert all(len(copies) == 1 for copies in by_version.values())
        for record in cluster.coordinator.log_history:
            assert by_version[record.version] == {record.to_bytes()}

    def test_record_is_encoded_once(self, monkeypatch):
        record = LogRecord(version=1, ops=(op_set_property("k", "v"),), epoch=3)
        first = record.to_bytes()
        monkeypatch.setattr(json, "dumps", lambda *a, **k: pytest.fail("encoded twice"))
        assert record.to_bytes() is first
        assert first == b'{"version": 1, "ops": [{"op": "set_property", "key": "k", "value": "v"}], "epoch": 3}'

    def test_memo_does_not_change_record_equality(self):
        ops = (op_set_property("k", "v"),)
        a, b = LogRecord(1, ops), LogRecord(1, ops)
        a.to_bytes()
        a.payloads[0] = object()
        assert a == b


# ---------------------------------------------------------------------------
# narrower copy


def rich_state() -> Tuple[CatalogState, SidFactory]:
    sids = SidFactory()
    state = CatalogState()
    schema = TableSchema.of(("a", ColumnType.INT), ("b", ColumnType.VARCHAR))
    for op in [
        op_create_table(Table("t", schema)),
        op_create_projection(Projection("t_p", "t", ("a", "b"), ("a",), Segmentation.by_hash("a"))),
        op_create_projection(Projection("t_q", "t", ("a", "b"), ("b",), Segmentation.by_hash("a"))),
        op_create_live_agg(LiveAggregateProjection(
            "t_l", "t", ("b",), (AggregateSpec("count", None, "n"),), Segmentation.by_hash("b"))),
        op_create_user(User("u")),
        op_set_property("k", "v"),
        op_set_subscription("n1", 0, "ACTIVE"),
    ]:
        state.apply(op)
    for projection in ("t_p", "t_q"):
        c = fake_container(sids.next_sid(), projection, 0)
        state.apply(op_add_container(c))
        state.apply(op_add_delete_vector(DeleteVector(
            sid=sids.next_sid(), target_sid=c.sid, projection=projection,
            shard_id=0, deleted_count=1, size_bytes=8)))
    return state, sids


def one_op_of_each_kind(state: CatalogState, sids: SidFactory) -> Dict[str, dict]:
    container = next(iter(state.containers.values()))
    # Not the dropped container's own delete vector: that one cascades.
    dv = next(d for d in state.delete_vectors.values() if d.target_sid != container.sid)
    schema = TableSchema.of(("x", ColumnType.INT))
    return {
        "create_table": op_create_table(Table("u", schema)),
        "drop_table": op_drop_table("t"),
        "add_column": op_add_column("t", SchemaColumn("c", ColumnType.FLOAT)),
        "create_projection": op_create_projection(
            Projection("t_r", "t", ("a",), ("a",), Segmentation.by_hash("a"))),
        "drop_projection": op_drop_projection("t_p"),
        "create_live_agg": op_create_live_agg(LiveAggregateProjection(
            "t_m", "t", ("a",), (AggregateSpec("count", None, "n"),), Segmentation.by_hash("a"))),
        "create_user": op_create_user(User("w")),
        "add_container": op_add_container(fake_container(sids.next_sid(), "t_p", 1)),
        "drop_container": op_drop_container(str(container.sid), 0),
        "add_delete_vector": op_add_delete_vector(DeleteVector(
            sid=sids.next_sid(), target_sid=container.sid, projection="t_p",
            shard_id=0, deleted_count=2, size_bytes=8)),
        "drop_delete_vector": op_drop_delete_vector(str(dv.sid), 0),
        "set_property": op_set_property("k2", "é"),
        "set_subscription": op_set_subscription("n2", 1, "PENDING"),
        "drop_subscription": op_drop_subscription("n1", 0),
    }


class TestNarrowerCopy:
    def test_every_op_kind_is_covered(self):
        state, sids = rich_state()
        assert set(one_op_of_each_kind(state, sids)) == set(mvcc._HANDLERS)

    @pytest.mark.parametrize("kind", sorted(mvcc._HANDLERS))
    def test_predecessor_is_untouched_and_unwritten_maps_are_shared(self, kind):
        state, sids = rich_state()
        op = one_op_of_each_kind(state, sids)[kind]
        before = reference_checkpoint_payload(state)
        successor = state.copy([op])
        successor.apply(op)
        assert reference_checkpoint_payload(state) == before
        assert reference_checkpoint_payload(successor) != before
        written = set(mvcc._HANDLERS[kind][1])
        for name in mvcc._MAPS:
            shared = getattr(successor, name) is getattr(state, name)
            assert shared == (name not in written), name
        full = state.copy()
        full.apply(op)
        assert reference_checkpoint_payload(full) == reference_checkpoint_payload(successor)

    def test_a_copy_commit_copies_only_containers(self):
        state, sids = rich_state()
        ops = [op_add_container(fake_container(sids.next_sid(), "t_p", s)) for s in range(4)]
        successor = state.copy(ops)
        assert [n for n in mvcc._MAPS if getattr(successor, n) is not getattr(state, n)] == [
            "containers"]

    def test_unknown_op_is_a_catalog_error_before_anything_is_copied(self):
        state, _ = rich_state()
        with pytest.raises(CatalogError):
            state.copy([{"op": "no_such_op"}])
        with pytest.raises(CatalogError):
            state.apply({"op": "no_such_op"})

    def test_pinned_snapshot_survives_commits_on_a_live_catalog(self):
        catalog = Catalog(MemoryFilesystem())
        state, sids = rich_state()
        version = 0
        for op in json.loads(json.dumps(list(_ops_building(state)))):
            version += 1
            catalog.apply_commit(LogRecord(version, (op,)))
        snapshot = catalog.snapshot()
        pinned = reference_checkpoint_payload(snapshot.state)
        for kind, op in one_op_of_each_kind(catalog.state, sids).items():
            if kind in ("drop_table", "drop_projection"):
                continue  # applied last, they remove what the others touch
            version += 1
            catalog.apply_commit(LogRecord(version, (op,)))
            assert reference_checkpoint_payload(snapshot.state) == pinned
        for kind in ("drop_projection", "drop_table"):
            version += 1
            op = one_op_of_each_kind(snapshot.state, sids)[kind]
            catalog.apply_commit(LogRecord(version, (op,)))
            assert reference_checkpoint_payload(snapshot.state) == pinned
        assert catalog.pinned_states() == [snapshot.state]
        snapshot.release()


def _ops_building(state: CatalogState):
    """An op stream that rebuilds ``state`` from empty."""
    for table in state.tables.values():
        yield op_create_table(replace(table, projections=()))
    for projection in state.projections.values():
        yield op_create_projection(projection)
    for lap in state.live_aggs.values():
        yield op_create_live_agg(lap)
    for user in state.users.values():
        yield op_create_user(user)
    for container in state.containers.values():
        yield op_add_container(container)
    for dv in state.delete_vectors.values():
        yield op_add_delete_vector(dv)
    for key, value in state.properties.items():
        yield op_set_property(key, value)
    for (node, shard), sub in state.subscriptions.items():
        yield op_set_subscription(node, shard, sub)


# ---------------------------------------------------------------------------
# cascade reporting, op by op


class TestRemovedNames:
    def test_each_handler_reports_what_it_removed(self):
        state, sids = rich_state()
        containers = {c.projection: sid for sid, c in state.containers.items()}
        dvs = {d.projection: sid for sid, d in state.delete_vectors.items()}
        s = state.copy()
        assert s.apply(op_drop_delete_vector(dvs["t_p"], 0)) == [dvs["t_p"]]
        s = state.copy()
        assert s.apply(op_drop_container(containers["t_p"], 0)) == [containers["t_p"], dvs["t_p"]]
        s = state.copy()
        assert sorted(s.apply(op_drop_projection("t_q"))) == sorted([containers["t_q"], dvs["t_q"]])
        assert set(s.delete_vectors) == {dvs["t_p"]}
        s = state.copy()
        assert sorted(s.apply(op_drop_table("t"))) == sorted(
            list(containers.values()) + list(dvs.values()))
        assert not s.containers and not s.delete_vectors and not s.live_aggs
        s = state.copy()
        for kind, op in one_op_of_each_kind(state, sids).items():
            if not kind.startswith("drop_") or kind == "drop_subscription":
                assert s.apply(op) == [], kind

    def test_apply_all_skips_filtered_shards_and_reports_the_rest(self):
        state, sids = rich_state()
        other = fake_container(sids.next_sid(), "t_p", 3)
        state.apply(op_add_container(other))
        mine = next(sid for sid, c in state.containers.items() if c.shard_id == 0)
        removed = state.copy().apply_all(
            [op_drop_container(str(other.sid), 3), op_drop_delete_vector(
                next(iter(state.delete_vectors)), 0)], shard_filter={0})
        assert removed == [next(iter(state.delete_vectors))]
        assert mine in state.containers

    def test_re_add_is_reported_but_still_held(self):
        state, _ = rich_state()
        sid, container = next(iter(state.containers.items()))
        successor = state.copy()
        removed = successor.apply_all([
            op_drop_container(sid, 0),
            op_add_container(replace(container, projection="t_q")),
        ])
        assert sid in removed and sid in successor.containers


# ---------------------------------------------------------------------------
# typed failure


def sample_record_bytes() -> bytes:
    state, sids = rich_state()
    return LogRecord(7, tuple(one_op_of_each_kind(state, sids).values()), epoch=11).to_bytes()


class TestTypedFailure:
    def test_every_prefix_of_a_record_parses_or_raises_catalog_error(self):
        data = sample_record_bytes()
        assert LogRecord.from_bytes(data).to_bytes() == data
        for cut in range(len(data)):
            with pytest.raises(CatalogError):
                LogRecord.from_bytes(data[:cut])

    def test_every_prefix_of_a_checkpoint_restores_or_raises_catalog_error(self):
        state, _ = rich_state()
        payload = Checkpoint.of_state(state).payload
        restored = Checkpoint(state.version, payload).restore()
        assert reference_checkpoint_payload(restored) == payload
        for cut in range(len(payload)):
            with pytest.raises(CatalogError):
                Checkpoint(state.version, payload[:cut]).restore()

    @settings(max_examples=300, deadline=None)
    @given(st.data())
    def test_damaged_bytes_never_leak_another_error(self, data):
        state, _ = rich_state()
        for original, parse in (
            (sample_record_bytes(), LogRecord.from_bytes),
            (Checkpoint.of_state(state).payload, lambda b: Checkpoint(1, b).restore()),
        ):
            damaged = bytearray(original)
            for _ in range(data.draw(st.integers(1, 4))):
                damaged[data.draw(st.integers(0, len(damaged) - 1))] = data.draw(
                    st.integers(0, 255))
            try:
                parse(bytes(damaged))
            except CatalogError:
                pass

    @pytest.mark.parametrize("payload", [
        b"", b"null", b"[]", b"7", b'"text"', b"\xff\xfe", b'{"version": 1}',
        b'{"version": "1", "ops": []}', b'{"version": 1, "ops": "abc"}',
        b'{"version": 1, "ops": [1, 2]}', b'{"ops": []}', b'{"version": 1, "ops": 5}',
    ])
    def test_wrong_shapes_are_catalog_errors(self, payload):
        with pytest.raises(CatalogError):
            LogRecord.from_bytes(payload)
        with pytest.raises(CatalogError):
            Checkpoint(1, payload).restore()

    def test_damaged_add_op_is_a_catalog_error_on_apply(self):
        record = LogRecord.from_bytes(
            b'{"version": 1, "ops": [{"op": "add_container", "shard": 0, "container": {"sid": "zz"}}]}')
        with pytest.raises(CatalogError):
            CatalogState().apply_all(record.ops)

    def test_load_latest_skips_a_truncated_checkpoint(self):
        fs = MemoryFilesystem()
        store = LogStore(fs)
        state, _ = rich_state()
        state.version = 3
        store.write_checkpoint(Checkpoint.of_state(state))
        newer = state.copy()
        newer.version = 5
        payload = Checkpoint.of_state(newer).payload
        store.write_checkpoint(Checkpoint(5, payload[: len(payload) // 2]))
        base, _records = store.load_latest()
        assert base is not None and base.version == 3


# ---------------------------------------------------------------------------
# scaling: a commit costs what it changes


class Counters:
    """Calls of the three functions whole-catalog work went through,
    counted only while a commit is running."""

    def __init__(self, monkeypatch, cluster):
        self.counts = {"container_to_json": 0, "StorageId.__str__": 0, "json.dumps": 0}
        self.per_commit: List[Tuple[Tuple[str, ...], Dict[str, int]]] = []
        self._on = False

        def counted(name, fn):
            def wrapper(*args, **kwargs):
                if self._on:
                    self.counts[name] += 1
                return fn(*args, **kwargs)
            return wrapper

        to_json = counted("container_to_json", mvcc.container_to_json)
        monkeypatch.setattr(mvcc, "container_to_json", to_json)
        monkeypatch.setattr(transaction_log, "container_to_json", to_json)
        monkeypatch.setattr(StorageId, "__str__", counted("StorageId.__str__", StorageId.__str__))
        monkeypatch.setattr(json, "dumps", counted("json.dumps", json.dumps))
        original_commit = cluster.commit

        def commit(txn, epoch=None):
            kinds = tuple(op["op"] for op in txn.ops)
            start = dict(self.counts)
            self._on = True
            try:
                return original_commit(txn, epoch)
            finally:
                self._on = False
                self.per_commit.append(
                    (kinds, {k: self.counts[k] - start[k] for k in self.counts}))

        cluster.commit = commit


def cluster_with_live_containers(count: int) -> Tuple[EonCluster, MergeoutCoordinatorService]:
    """A cluster holding ``count`` catalog-only containers beside a small
    real table, after the same number of commits whatever ``count`` is, with
    every node's checkpoint text warm."""
    cluster = EonCluster(NODES, shard_count=4, seed=21)
    cluster.create_table("a", SCHEMA)
    cluster.create_table("zbulk", SCHEMA)
    sids = SidFactory()
    for chunk in range(4):
        txn = cluster.begin()
        for i in range(count // 4):
            txn.add_op(op_add_container(fake_container(
                sids.next_sid(), "zbulk_super", i % 4, chunk * count + i)))
        cluster.commit(txn)
    for batch in range(6):
        cluster.load("a", [(batch * 40 + i, f"g{i % 3}") for i in range(40)])
    service = MergeoutCoordinatorService(cluster, strata_width=3, base_bytes=256)
    service.ensure_coordinators()
    cluster.sync_catalogs()
    return cluster, service


def live_container_count(cluster) -> int:
    return len({sid for n in cluster.up_nodes() for sid in n.catalog.state.containers})


class TestCommitScaling:
    def measure(self, monkeypatch, count):
        cluster, service = cluster_with_live_containers(count)
        assert live_container_count(cluster) >= count
        counters = Counters(monkeypatch, cluster)
        cluster.load("a", [(1000 + i, "x") for i in range(40)])
        # "a_super" sorts before "zbulk_super", so the one job is the real
        # table's; the catalog-only containers have no files to merge.
        report = service.run_shard(0, max_jobs=1)
        assert report.jobs_run == 1
        monkeypatch.undo()
        (copy_kinds, copy_counts), (merge_kinds, merge_counts) = counters.per_commit
        assert copy_kinds == ("add_container",) * 4
        assert merge_kinds[0] == "add_container" and set(merge_kinds[1:]) == {"drop_container"}
        return copy_counts, merge_counts

    def test_call_counts_do_not_grow_with_the_catalog(self, monkeypatch):
        small = self.measure(monkeypatch, 200)
        large = self.measure(monkeypatch, 2000)
        assert small == large
        copy_counts, merge_counts = small
        # One encode per record and nothing per live container.
        assert copy_counts["json.dumps"] == 1 and merge_counts["json.dumps"] == 1
        assert copy_counts["container_to_json"] == merge_counts["container_to_json"] == 0
        # A name per added container per subscriber (its key in the map).
        assert copy_counts["StorageId.__str__"] <= 4 * len(NODES)
        assert merge_counts["StorageId.__str__"] <= len(NODES)

    @pytest.mark.slow
    def test_commit_real_time_is_flat_across_10x_containers(self):
        """Real-clock companion: a COPY commit followed by the mergeout
        commit that retires its containers, at 200 and at 2 000 live
        containers.  Each round times five such cycles on one cluster, then
        on the other, so machine-speed drift hits both; the verdict is the
        median over rounds of the ratio of the round's medians, so neither
        a slow round nor the one checkpoint in 64 commits decides it.

        Measured here: mergeout commit 1.2-1.4x (parent 6.3-7.2x), the cycle
        1.45-1.65x (parent 5.2-6.1x).  The COPY commit alone is 1.65-1.85x,
        as at the parent (1.65-2.0x): ``dict(containers)`` of a map that
        mergeout left deleted slots in is the one O(catalog) term left in a
        commit, and 70 us of it on a 100 us commit is too close to 2x to
        assert on by itself."""
        clusters = {n: cluster_with_live_containers(n)[0] for n in (200, 2000)}
        sids = SidFactory()

        def cycle(cluster) -> Dict[str, float]:
            added = [fake_container(sids.next_sid(), "a_super", s) for s in range(4)]
            copy, merge = cluster.begin(), cluster.begin()
            for c in added:
                copy.add_op(op_add_container(c))
                merge.add_op(op_drop_container(str(c.sid), c.shard_id))
            merge.add_op(op_add_container(fake_container(sids.next_sid(), "a_super", 0)))
            elapsed = {}
            for kind, txn in (("copy", copy), ("mergeout", merge)):
                start = time.perf_counter()
                cluster.commit(txn)
                elapsed[kind] = time.perf_counter() - start
            elapsed["cycle"] = elapsed["copy"] + elapsed["mergeout"]
            return elapsed

        ratios: Dict[str, List[float]] = {"mergeout": [], "cycle": []}
        for _round in range(15):
            medians = {}
            for count, cluster in clusters.items():
                samples = [cycle(cluster) for _ in range(5)]
                medians[count] = {
                    kind: statistics.median(s[kind] for s in samples) for kind in ratios
                }
            for kind in ratios:
                ratios[kind].append(medians[2000][kind] / medians[200][kind])
        for kind, per_round in ratios.items():
            assert statistics.median(per_round) <= 2.0, (kind, sorted(per_round))
