"""What a catalog version fixes, derived once: the per-state container and
delete-vector indexes (``CatalogState.derived``) and their lifetime.

An index is tied to the identity of the map it was built from.  Every test
here builds it on one version, changes the catalog, and asks both versions
again: the answers must be what a walk of each version's own map gives.
"""

import random
from collections import Counter

from repro import ColumnType, EonCluster
from repro.catalog.catalog import Catalog
from repro.catalog.mvcc import (
    CatalogState,
    op_add_container,
    op_add_delete_vector,
    op_create_projection,
    op_create_table,
    op_drop_container,
    op_drop_table,
    op_set_property,
)
from repro.catalog.objects import Projection, Segmentation, Table
from repro.catalog.transaction_log import LogRecord
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


def walked(state: CatalogState) -> dict:
    """Every answer the indexes give, from a walk of the state's own maps."""
    answers = {}
    for projection in ("t_p", "u_p"):
        for shard in SHARDS:
            answers[projection, shard] = [
                c for c in state.containers.values()
                if c.projection == projection and (shard is None or c.shard_id == shard)
            ]
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
            self.commit(op_create_projection(Projection(
                table + "_p", table, ("a", "b"), ("a",), Segmentation.by_hash("a"),
            )))
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
        state.apply(op_add_container(first))
        assert state.containers_of("t_p", 0) == [first]
        state.apply(op_add_container(second))
        assert state.containers_of("t_p", 0) == [first, second]
        assert state.delete_vectors_for(str(first.sid)) == []
        state.apply_all([op_add_delete_vector(delete_vector(sids, first)),
                         op_drop_container(str(second.sid), 0)])
        assert len(state.delete_vectors_for(str(first.sid))) == 1
        assert state.containers_of("t_p") == [first]

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
        names = lambda answers: {k: [str(o.sid) for o in objs] for k, objs in answers.items()}
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
    """A ``containers`` map that counts how often it is walked."""

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
        maps = []
        for node in cluster.nodes.values():
            state = node.catalog.state
            state.containers = WalkCounting(state.containers)
            assert len(state.containers) > 2000
            maps.append(state.containers)
        for seed in range(4):
            result = cluster.query("select count(*), sum(v) from mine where k >= 0", seed=seed)
            assert result.rows.to_pylist() == [(30, 135)]
        assert [m.walks for m in maps] == [1, 1]
        # The other projection is one more walk, whatever the shard asked for.
        state = cluster.nodes["n1"].catalog.state
        assert len(state.containers_of(other, 0)) + len(state.containers_of(other, 1)) == 2000
        assert len(state.containers_of(other)) == 2000
        assert state.containers.walks == 2
