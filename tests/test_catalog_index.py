"""What a catalog version fixes: the per-state container groups, their
sort-key indexes and the delete-vector index, and their lifetime.

One shard's containers of a projection are a group the op handlers keep and
successor states carry, copying only the groups they touch; a group's
sort-key index goes with it.  The rest (all shards' containers, delete
vectors by target) is derived once per state (``CatalogState.derived``),
tied to the identity of the map it describes.  Every test here asks one
version, changes the catalog, and asks both versions again: the answers must
be what a walk of each version's own map gives.
"""

import random
from collections import Counter
from operator import attrgetter

from hypothesis import settings, strategies as st
from hypothesis.stateful import RuleBasedStateMachine, invariant, precondition, rule

from repro import ColumnType, EonCluster
from repro.catalog.catalog import Catalog
from repro.catalog.mvcc import (
    CatalogState,
    op_add_container,
    op_add_delete_vector,
    op_create_projection,
    op_create_table,
    op_drop_container,
    op_drop_projection,
    op_drop_table,
    op_set_property,
)
from repro.catalog.objects import Projection, Segmentation, Table
from repro.catalog.transaction_log import Checkpoint, LogRecord
from repro.cluster.revive import revive
from repro.common.oid import SidFactory
from repro.common.types import TableSchema
from repro.shared_storage.posix import MemoryFilesystem
from repro.storage.container import ROSContainer
from repro.storage.delete_vector import DeleteVector

SCHEMA = TableSchema.of(("a", ColumnType.INT), ("b", ColumnType.VARCHAR))
SHARDS = (0, 1, None)


def container(sids: SidFactory, projection="t_p", shard=0) -> ROSContainer:
    return ROSContainer(
        sid=sids.next_sid(), projection=projection, shard_id=shard, row_count=10,
        size_bytes=100, min_values=(("a", 0),), max_values=(("a", 9),),
    )


def delete_vector(sids: SidFactory, target: ROSContainer) -> DeleteVector:
    return DeleteVector(
        sid=sids.next_sid(), target_sid=target.sid, projection=target.projection,
        shard_id=target.shard_id, deleted_count=1, size_bytes=8,
    )


def projection(table: str) -> Projection:
    return Projection(table + "_p", table, ("a", "b"), ("a",), Segmentation.by_hash("a"))


def walked(state: CatalogState) -> dict:
    """Every answer the indexes give, from a walk of the state's own maps."""
    answers = {}
    for projection in ("t_p", "u_p"):
        for shard in SHARDS:
            answers[projection, shard] = [
                c for c in state.containers.values()
                if c.projection == projection and (shard is None or c.shard_id == shard)
            ]
        for shard in SHARDS[:2]:
            answers["a", projection, shard] = sorted(
                answers[projection, shard], key=attrgetter("location")
            )
    for sid in state.containers:
        answers[sid] = [
            d for d in state.delete_vectors.values() if str(d.target_sid) == sid
        ]
    return answers


def indexed(state: CatalogState) -> dict:
    answers = {
        (projection, shard): state.containers_of(projection, shard)
        for projection in ("t_p", "u_p") for shard in SHARDS
    }
    for projection in ("t_p", "u_p"):
        for shard in SHARDS[:2]:
            index = state.sort_key_index(projection, shard, "a")
            found = index.overlapping(None, None) if index is not None else []
            answers["a", projection, shard] = sorted(found, key=attrgetter("location"))
    for sid in state.containers:
        answers[sid] = state.delete_vectors_for(sid)
    return answers


class Versions:
    """A catalog with two tables, a few containers and one delete vector,
    committing one record per ``commit`` and checking every retained state."""

    def __init__(self) -> None:
        self.sids = SidFactory(random.Random(7))
        self.catalog = Catalog(MemoryFilesystem())
        self.seen = []  # (state, what its indexes must answer, for good)
        self.commit(op_create_table(Table("t", SCHEMA)), op_create_table(Table("u", SCHEMA)))
        for table in ("t", "u"):
            self.commit(op_create_projection(projection(table)))
        self.containers = [
            container(self.sids, projection, shard)
            for projection in ("t_p", "u_p") for shard in (0, 1, 0)
        ]
        self.commit(*map(op_add_container, self.containers))
        self.commit(op_add_delete_vector(delete_vector(self.sids, self.containers[0])))

    def commit(self, *ops) -> CatalogState:
        self.check()  # builds the indexes on the version about to be superseded
        self.catalog.apply_commit(LogRecord(self.catalog.state.version + 1, tuple(ops)))
        self.check()
        return self.catalog.state

    def check(self) -> None:
        state = self.catalog.state
        self.seen.append((state, walked(state)))
        for old, expected in self.seen:
            assert indexed(old) == expected == walked(old)


class TestIndexLifetime:
    def test_add_and_drop_container(self):
        v = Versions()
        before = v.catalog.state
        after = v.commit(op_add_container(container(v.sids, "t_p", 1)))
        assert len(after.containers_of("t_p", 1)) == len(before.containers_of("t_p", 1)) + 1
        gone = v.containers[0]
        after = v.commit(op_drop_container(str(gone.sid), gone.shard_id))
        assert gone not in after.containers_of("t_p") and gone in before.containers_of("t_p")
        assert after.delete_vectors_for(str(gone.sid)) == []  # cascaded
        assert len(before.delete_vectors_for(str(gone.sid))) == 1

    def test_add_delete_vector(self):
        v = Versions()
        target = v.containers[1]
        before = v.catalog.state
        assert before.delete_vectors_for(str(target.sid)) == []
        after = v.commit(op_add_delete_vector(delete_vector(v.sids, target)))
        assert len(after.delete_vectors_for(str(target.sid))) == 1
        assert before.delete_vectors_for(str(target.sid)) == []

    def test_drop_table(self):
        v = Versions()
        before = v.catalog.state
        after = v.commit(op_drop_table("t"))
        assert after.containers_of("t_p") == [] and len(before.containers_of("t_p")) == 3
        assert len(after.containers_of("u_p")) == 3

    def test_a_multi_op_commit_mutates_its_own_new_map_in_place(self):
        v = Versions()
        gone, kept = v.containers[0], v.containers[2]
        v.commit(
            op_add_container(container(v.sids, "t_p", 0)),
            op_drop_container(str(gone.sid), gone.shard_id),
            op_add_delete_vector(delete_vector(v.sids, kept)),
            op_add_container(container(v.sids, "u_p", 1)),
        )

    def test_a_commit_that_writes_neither_map_shares_the_index(self):
        v = Versions()
        before = v.catalog.state
        built = before.derived(("containers",), "t_p", dict)
        after = v.commit(op_set_property("k", 1))
        assert after.containers is before.containers
        assert after.derived(("containers",), "t_p", dict) is built
        # ... and a commit that writes the map does not inherit it.
        after = v.commit(op_add_container(container(v.sids, "t_p", 0)))
        assert after.derived(("containers",), "t_p", dict) is not built

    def test_a_state_applied_to_in_place_forgets_what_it_derived(self):
        sids = SidFactory(random.Random(7))
        state = CatalogState()
        first, second = container(sids), container(sids)
        state.apply_all([op_add_container(first)])
        assert state.containers_of("t_p", 0) == [first]
        state.apply_all([op_add_container(second)])
        assert state.containers_of("t_p", 0) == [first, second]
        assert state.delete_vectors_for(str(first.sid)) == []
        state.apply_all([op_add_delete_vector(delete_vector(sids, first)),
                         op_drop_container(str(second.sid), 0)])
        assert len(state.delete_vectors_for(str(first.sid))) == 1
        assert state.containers_of("t_p") == [first]

    def test_a_metadata_transfer_copies_the_groups_it_adds_to(self):
        """A subscription's commits land from its PENDING step on, so its
        metadata transfer adds to groups the state before it shares."""
        v = Versions()
        node = Catalog(MemoryFilesystem(), subscribed_shards={0})
        node.reshard(base=v.catalog)  # a rebuild from a peer: shard 0 only
        assert node.state.containers_of("t_p", 1) == []
        node.subscribed_shards = {0, 1}
        record = LogRecord(v.catalog.state.version + 1, (
            op_add_container(container(v.sids, "t_p", 1)),
        ))
        v.catalog.apply_commit(record)
        node.apply_commit(record)
        before = node.state
        v.seen.append((before, walked(before)))
        assert len(before.containers_of("t_p", 1)) == 1
        node.reshard({1: v.catalog.state})
        assert len(node.state.containers_of("t_p", 1)) == 2
        assert set(node.state.containers) == set(v.catalog.state.containers)
        node.reshard({1: v.catalog.state})  # nothing missing: nothing changes
        v.seen.append((node.state, walked(node.state)))
        v.check()
        assert len(before.containers_of("t_p", 1)) == 1

    def test_truncate_to_repeats_version_numbers_with_other_contents(self):
        v = Versions()
        version = v.catalog.state.version
        v.commit(op_add_container(container(v.sids, "t_p", 0)))
        truncated_away = v.catalog.state
        assert len(truncated_away.containers_of("t_p", 0)) == 3
        v.catalog.truncate_to(version)
        v.seen.clear()  # pins are gone with the truncated tail
        assert len(v.catalog.state.containers_of("t_p", 0)) == 2
        again = v.commit(op_add_container(container(v.sids, "t_p", 1)))
        assert again.version == truncated_away.version
        assert len(again.containers_of("t_p", 0)) == 2 and len(again.containers_of("t_p", 1)) == 2
        assert len(truncated_away.containers_of("t_p", 0)) == 3

    def test_restart_replay(self):
        v = Versions()
        v.commit(op_add_container(container(v.sids, "t_p", 1)))
        v.catalog.write_checkpoint()
        extra = container(v.sids, "u_p", 1)
        v.commit(op_add_container(extra))
        v.commit(op_add_delete_vector(delete_vector(v.sids, extra)))
        restarted = Catalog(v.catalog.log_store.fs)
        assert restarted.recover() == 2  # replayed in place onto the checkpoint
        assert restarted.state.version == v.catalog.state.version
        # Objects are parsed afresh, so compare names.
        assert names(indexed(restarted.state)) == names(walked(v.catalog.state))

    def test_revive(self):
        cluster = EonCluster(["n1", "n2", "n3"], shard_count=3, seed=3)
        cluster.execute("create table t (a int, b varchar)")
        for batch in range(3):
            cluster.load("t", [(batch * 100 + i, f"g{i % 4}") for i in range(100)])
        assert cluster.query("select count(*) from t").rows.to_pylist() == [(300,)]
        cluster.sync_catalogs()
        cluster.write_cluster_info(lease_seconds=0)
        cluster.load("t", [(7_777, "lost")])  # never reaches shared storage
        assert cluster.query("select count(*) from t").rows.to_pylist() == [(301,)]
        revived = revive(cluster.shared, clock=cluster.clock)
        assert revived.query("select count(*) from t").rows.to_pylist() == [(300,)]
        revived.load("t", [(8_888, "after")])  # a version number the old cluster used
        assert revived.query("select count(*) from t").rows.to_pylist() == [(301,)]
        for node in revived.nodes.values():
            assert indexed_names(node.catalog.state) == walked_names(node.catalog.state)


def indexed_names(state: CatalogState) -> Counter:
    projections = {c.projection for c in state.containers.values()}
    return Counter(
        str(c.sid) for p in projections for c in state.containers_of(p)
    )


def walked_names(state: CatalogState) -> Counter:
    return Counter(list(state.containers))


class WalkCounting(dict):
    """A ``containers`` map that counts how often it is walked; a commit's
    copy of it counts too."""

    walks = 0

    def values(self):
        self.walks += 1
        return super().values()

    def items(self):
        self.walks += 1
        return super().items()

    def __iter__(self):
        self.walks += 1
        return super().__iter__()

    def copy(self):
        return WalkCounting(self)


def walks_of_shard_scans(cluster, sql: str, expected: list) -> list:
    """Each node's walks of ``containers`` while queries laid out from
    every seed scan their shards (each map replaced by a counting copy)."""
    for node in cluster.nodes.values():
        node.catalog.state.containers = WalkCounting(node.catalog.state.containers)
    for seed in range(6):
        assert cluster.query(sql, seed=seed).rows.to_pylist() == expected
    return [node.catalog.state.containers.walks for node in cluster.nodes.values()]


class TestOneWalkPerStateAndProjection:
    def test_a_scan_beside_2000_containers_of_another_projection(self):
        cluster = EonCluster(["n1", "n2"], shard_count=2, seed=5)
        for table in ("mine", "other"):
            cluster.create_table(table, [("k", ColumnType.INT), ("v", ColumnType.INT)])
        for batch in range(3):
            cluster.load("mine", [(batch * 10 + i, i) for i in range(10)])
        other = cluster.any_up_node().catalog.state.projections_of("other")[0].name
        sids = SidFactory(random.Random(99))
        txn = cluster.begin()
        for i in range(2000):
            txn.add_op(op_add_container(container(sids, other, i % 2)))
        cluster.commit(txn)
        for node in cluster.nodes.values():
            state = node.catalog.state
            state.containers = WalkCounting(state.containers)
            assert len(state.containers) > 2000
        # A state built by commits carries its predecessor's groups: its
        # shard scans walk nothing, however many containers it holds.
        cluster.load("mine", [(30 + i, i) for i in range(10)])
        txn = cluster.begin()
        for i in range(10):
            txn.add_op(op_add_container(container(sids, other, i % 2)))
        cluster.commit(txn)
        states = [node.catalog.state for node in cluster.nodes.values()]
        assert all(type(s.containers) is WalkCounting and s.containers.walks == 0 for s in states)
        for seed in range(4):
            result = cluster.query("select count(*), sum(v) from mine where k >= 0", seed=seed)
            assert result.rows.to_pylist() == [(40, 180)]
        state = cluster.nodes["n1"].catalog.state
        assert len(state.containers_of(other, 0)) + len(state.containers_of(other, 1)) == 2010
        assert [s.containers.walks for s in states] == [0, 0]
        # All shards' containers are one walk per state and projection.
        assert len(state.containers_of(other)) == len(state.containers_of(other)) == 2010
        assert state.containers.walks == 1

    def test_after_a_revive_and_an_unsubscribe_shard_scans_walk_nothing(self):
        """A revived node's catalog (restored, truncated, trimmed to its
        subscriptions) and an unsubscribed one's keep their groups."""
        cluster = EonCluster(["n1", "n2", "n3"], shard_count=3, seed=3)
        cluster.create_table("t", [("k", ColumnType.INT), ("v", ColumnType.INT)])
        for batch in range(3):
            cluster.load("t", [(batch * 100 + i, i) for i in range(100)])
        cluster.graceful_shutdown()
        revived = revive(cluster.shared, clock=cluster.clock)
        sql, expected = "select count(*), sum(v) from t", [(300, 14850)]
        assert walks_of_shard_scans(revived, sql, expected) == [0, 0, 0]
        shard = next(s for (n, s) in revived.nodes["n1"].catalog.state.subscriptions
                     if n == "n1" and s >= 0)
        assert revived.nodes["n1"].catalog.state.shard_containers(shard)
        revived.unsubscribe("n1", shard)
        assert revived.nodes["n1"].catalog.state.shard_containers(shard) == []
        assert walks_of_shard_scans(revived, sql, expected) == [0, 0, 0]


# ---------------------------------------------------------------------------
# the groups against a walk, over generated histories


class GroupsEqualAWalk(RuleBasedStateMachine):
    """Commits (single- and multi-op), pins, replay, checkpoint restore,
    truncation and ``Catalog.reshard``: the trim of an unsubscription or a
    revive, a subscription's metadata transfer from a peer catalog that
    holds every shard, and a rebuild from that peer.  After every step every
    state seen so far, the peer's included, answers as a walk of its own
    maps and as it did when first seen, and every sort-key index is its
    group's."""

    def __init__(self):
        super().__init__()
        self.sids = SidFactory(random.Random(11))
        self.catalog = Catalog(MemoryFilesystem(), subscribed_shards={0, 1}, checkpoint_every=6)
        self.peer = Catalog(MemoryFilesystem())
        self.peer_states = {0: self.peer.state}  # version -> the peer's state
        self.seen = []  # (state, what it must answer, for good)
        self.pins = []
        self.commit(op_create_table(Table("t", SCHEMA)), op_create_table(Table("u", SCHEMA)))
        self.commit(op_create_projection(projection("t")), op_create_projection(projection("u")))

    @property
    def state(self) -> CatalogState:
        return self.catalog.state

    def commit(self, *ops) -> None:
        record = LogRecord(self.state.version + 1, tuple(ops))
        self.catalog.apply_commit(record)
        self.peer.apply_commit(record, persist=False)
        self.peer_states[record.version] = self.peer.state

    def new_containers(self, data, most: int) -> list:
        live = sorted(self.state.projections)
        if not live:
            return []
        places = st.tuples(st.sampled_from(live), st.sampled_from((0, 1)))
        chosen = data.draw(st.lists(places, min_size=1, max_size=most))
        return [container(self.sids, p, shard) for p, shard in chosen]

    def pick(self, data, objects: dict):
        return objects[data.draw(st.sampled_from(sorted(objects)))]

    def held(self, kind: str) -> dict:
        """The storage objects of ``kind`` both the node and the peer hold:
        what a commit may name.  A node misses what a subscription without
        a transfer did not bring, and keeps what a truncation restored of a
        shard it no longer subscribes to, whose drops it filters out."""
        peer = getattr(self.peer.state, kind)
        return {sid: o for sid, o in getattr(self.state, kind).items() if sid in peer}

    def reshard(self, shards, sources=None, base=None) -> None:
        """As subscription, recovery and revive do: the node's shards
        change, the catalog takes them, and a checkpoint pins the result."""
        self.catalog.subscribed_shards = shards
        self.catalog.reshard(sources, base)
        self.catalog.write_checkpoint()

    # -- commits ------------------------------------------------------------------

    @rule(data=st.data())
    def add_containers(self, data):
        added = self.new_containers(data, 3)
        if added:
            self.commit(*map(op_add_container, added))

    @precondition(lambda self: self.held("containers"))
    @rule(data=st.data())
    def drop_container(self, data):
        gone = self.pick(data, self.held("containers"))
        self.commit(op_drop_container(gone.location, gone.shard_id))

    @precondition(lambda self: self.held("containers"))
    @rule(data=st.data())
    def add_delete_vector(self, data):
        target = self.pick(data, self.held("containers"))
        self.commit(op_add_delete_vector(delete_vector(self.sids, target)))

    @precondition(lambda self: self.held("containers"))
    @rule(data=st.data())
    def multi_op_record(self, data):
        """Add, drop and mark in one record: later ops see earlier ones."""
        added = self.new_containers(data, 2)
        gone = self.pick(data, self.held("containers"))
        ops = [*map(op_add_container, added), op_drop_container(gone.location, gone.shard_id)]
        ops += [op_add_delete_vector(delete_vector(self.sids, c)) for c in added[:1]]
        self.commit(*ops, op_set_property("k", len(ops)))

    @precondition(lambda self: self.state.projections)
    @rule(data=st.data(), whole_table=st.booleans())
    def drop_projection_or_table(self, data, whole_table):
        dropped = self.pick(data, self.state.projections)
        if whole_table:
            self.commit(op_drop_table(dropped.anchor_table))
        else:
            self.commit(op_drop_projection(dropped.name))

    @precondition(lambda self: len(self.state.projections) < 2)
    @rule()
    def recreate(self):
        ops = []
        for table in ("t", "u"):
            if table not in self.state.tables:
                ops.append(op_create_table(Table(table, SCHEMA)))
            if table + "_p" not in self.state.projections:
                ops.append(op_create_projection(projection(table)))
        self.commit(*ops)

    # -- pins, replay, restore, truncation -------------------------------------------

    @rule()
    def pin(self):
        self.pins.append(self.catalog.snapshot())

    @precondition(lambda self: self.pins)
    @rule(data=st.data())
    def unpin(self, data):
        self.pins.pop(data.draw(st.integers(0, len(self.pins) - 1))).release()

    @rule()
    def replay_in_place(self):
        """A restart: the newest checkpoint, then the logs applied in place."""
        restarted = Catalog(
            self.catalog.log_store.fs, self.catalog.subscribed_shards, checkpoint_every=6
        )
        restarted.recover()
        assert names(walked(restarted.state)) == names(walked(self.state))
        self.catalog, self.pins = restarted, []

    @rule()
    def restore_checkpoint(self):
        restored = Checkpoint.of_state(self.state).restore()
        self.catalog.state = restored
        self.catalog._recent[restored.version] = restored

    @rule(data=st.data())
    def truncate(self, data):
        oldest = self.catalog.log_store.listing().checkpoints[:1] or [0]
        version = data.draw(st.integers(oldest[0], self.state.version))
        self.catalog.truncate_to(version)
        self.peer.state = self.peer_states[version]
        self.pins = []

    # -- what subscription, recovery and revive do -------------------------------------

    @rule(shard=st.sampled_from((0, 1)))
    def unsubscribe(self, shard):
        self.reshard(self.catalog.subscribed_shards - {shard})

    @rule(shard=st.sampled_from((0, 1)), transfer=st.booleans())
    def subscribe(self, shard, transfer):
        """A subscription's PENDING step, with or without its metadata
        transfer: the shard's commits land from here on, and a transfer
        later adds what they did not bring to the groups they made."""
        sources = {shard: self.peer.state} if transfer else None
        self.reshard(self.catalog.subscribed_shards | {shard}, sources)

    @rule(data=st.data())
    def rebuild_from_the_peer(self, data):
        shards = data.draw(st.sets(st.sampled_from((0, 1))))
        self.reshard(shards, base=self.peer)

    # -- the check --------------------------------------------------------------------

    @invariant()
    def every_state_answers_as_a_walk(self):
        for state in (self.state, self.peer.state, *self.catalog.pinned_states()):
            self.seen.append((state, walked(state)))
        for state, expected in self.seen:
            assert indexed(state) == expected == walked(state)
            assert all(index.group is state._groups.get(key)
                       for key, index in state._indexes.items())


def names(answers: dict) -> dict:
    return {k: [str(o.sid) for o in objs] for k, objs in answers.items()}


GroupsEqualAWalk.TestCase.settings = settings(
    max_examples=60, stateful_step_count=25, deadline=None
)
TestGroupsEqualAWalk = GroupsEqualAWalk.TestCase
