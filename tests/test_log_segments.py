"""The transaction log as segments: format, reader, pruning and revive.

A segment ``txn_<first>_<last>`` holds the stored bytes of the records of
versions ``first..last``, one per line.  The local store holds one-record
segments and the shared store one segment per sync; one reader serves both.
A Hypothesis schedule of commits, syncs, local checkpoints, advertised
truncation versions and truncations checks that a revive from what the
pruned shared store holds equals the live state at the truncation version,
compared as checkpoint payloads.  The ``truncation-revivable`` simulation
invariant is mutation-checked: deleting one segment below the advertised
version trips it.
"""

import pytest
from hypothesis import HealthCheck, settings
from hypothesis import strategies as st
from hypothesis.stateful import RuleBasedStateMachine, invariant, rule

from repro import EonCluster
from repro.catalog.catalog import Catalog
from repro.catalog.mvcc import op_create_table
from repro.catalog.objects import Table
from repro.catalog.transaction_log import (
    Checkpoint,
    Listing,
    LogRecord,
    LogStore,
    checkpoint_name,
    parse_segment,
    segment_name,
)
from repro.cluster.revive import revive
from repro.common.types import ColumnType, TableSchema
from repro.errors import CatalogError, ClusterError
from repro.shared_storage.posix import MemoryFilesystem
from repro.sim.harness import CampaignConfig, SimWorld
from repro.sim.invariants import truncation_revivable

SCHEMA = TableSchema.of(("a", ColumnType.INT))


def record(version: int) -> LogRecord:
    return LogRecord(version, (op_create_table(Table(f"t{version}", SCHEMA)),), epoch=version)


def segment(first: int, last: int) -> bytes:
    return b"\n".join(record(v).to_bytes() for v in range(first, last + 1))


class TestFormat:
    def test_round_trip(self):
        data = segment(4, 7)
        assert [r.to_bytes() for r in parse_segment(4, 7, data)] == data.split(b"\n")
        store = LogStore(MemoryFilesystem())
        store.fs.write(segment_name(4, 7), data)
        assert store.listing().segments == [(4, 7)]
        assert [r.version for r in store.records(store.listing(), 5)] == [6, 7]
        assert store.segment_bytes([(4, 7)], after=5) == segment(6, 7)
        assert store.segment_bytes([(4, 7)], upto=5) == segment(4, 5)

    def test_a_local_commit_is_a_one_record_segment(self):
        store = LogStore(MemoryFilesystem())
        store.append(record(3))
        assert store.fs.list() == [segment_name(3, 3)] == ["txn_000000000003_000000000003"]

    def test_every_prefix_of_a_segment_is_a_catalog_error(self):
        data = segment(1, 3)
        for cut in range(len(data)):
            with pytest.raises(CatalogError):
                parse_segment(1, 3, data[:cut])

    def test_lines_out_of_order_are_a_catalog_error(self):
        lines = segment(1, 3).split(b"\n")
        with pytest.raises(CatalogError, match="version 2 holds 3"):
            parse_segment(1, 3, b"\n".join([lines[0], lines[2], lines[1]]))
        with pytest.raises(CatalogError, match="4 line"):
            parse_segment(1, 3, segment(1, 4))

    def test_overlapping_segments_are_a_catalog_error(self):
        for other in ((5, 9), (2, 2), (1, 3), (0, 1)):
            with pytest.raises(CatalogError, match="overlap"):
                Listing([segment_name(1, 5), segment_name(*other)])
        assert Listing([segment_name(1, 5), segment_name(6, 9)]).segments == [(1, 5), (6, 9)]

    def test_a_gap_before_the_newest_checkpoint_is_harmless(self):
        store = LogStore(MemoryFilesystem())
        state = Catalog(MemoryFilesystem())
        for version in range(1, 10):
            state.apply_commit(record(version), persist=False)
            if version in (2, 6):
                store.write_checkpoint(Checkpoint.of_state(state.state))
        store.fs.write(segment_name(1, 2), segment(1, 2))
        store.fs.write(segment_name(7, 9), segment(7, 9))  # 3..6 are gone
        listing = store.listing()
        assert listing.interval() == (2, 9)
        assert listing.holds(9) and listing.holds(6) and not listing.holds(4)
        recovered = Catalog(store.fs)
        assert recovered.recover() == 3
        assert recovered.state.version == 9
        payload = Checkpoint.of_state(state.state).payload
        assert Checkpoint.of_state(recovered.state).payload == payload

    def test_prune_keeps_what_the_floor_needs(self):
        names = [checkpoint_name(v) for v in (4, 8, 12, 16)] + [
            segment_name(1, 4), segment_name(5, 9), segment_name(10, 13), segment_name(14, 17)]
        assert Listing(names).prunable() == [
            checkpoint_name(4), checkpoint_name(8), segment_name(1, 4), segment_name(5, 9)]
        # The newest checkpoint at or below the floor stays, and so does
        # every segment after it.
        assert Listing(names).prunable(floor_version=10) == [
            checkpoint_name(4), segment_name(1, 4)]


def three_nodes(seed: int = 5) -> EonCluster:
    cluster = EonCluster(["n1", "n2", "n3"], shard_count=3, seed=seed)
    cluster.execute("create table t (a int, b varchar)")
    return cluster


def load(cluster: EonCluster, batch: int) -> None:
    cluster.load("t", [(batch * 100 + i, f"g{i % 3}") for i in range(20)])


class TestRevive:
    def test_revive_to_a_version_inside_a_segment(self):
        cluster = three_nodes()
        cluster.sync_catalogs(include_checkpoint=False)
        for batch in range(3):
            load(cluster, batch)
        for name in ("n2", "n3"):
            cluster.nodes[name].catalog.sync_to(cluster.shared_meta_store(name))
        held_by_all = cluster.version
        rows = cluster.query("select count(*) from t").rows.to_pylist()
        for batch in range(3, 6):
            load(cluster, batch)
        n1 = cluster.nodes["n1"]
        n1.catalog.sync_to(cluster.shared_meta_store("n1"))
        [(first, last)] = cluster.shared_meta_store("n1").listing().segments[-1:]
        # Only n1 uploaded past it, so not every shard is covered at n1's
        # version: the truncation version is the one n2 and n3 hold, inside
        # n1's last segment.
        cluster.write_cluster_info(lease_seconds=0)
        assert first < cluster.last_truncation_version == held_by_all < last
        revived = revive(cluster.shared, force=True)
        assert revived.version == held_by_all
        assert revived.query("select count(*) from t").rows.to_pylist() == rows
        # n1's local copy of that segment was cut at the truncation version.
        assert revived.nodes["n1"].catalog.log_store.listing().segments[-1] == (first, held_by_all)

    def test_revive_downloads_only_what_it_replays(self):
        cluster = three_nodes()
        for batch in range(12):
            load(cluster, batch)
            cluster.sync_catalogs(include_checkpoint=batch % 3 == 0)
        cluster.write_cluster_info(lease_seconds=0)
        truncation = cluster.last_truncation_version
        reads = cluster.shared.op_stats["GET"].requests
        revive(cluster.shared, force=True)
        wanted = [
            cluster.shared_meta_store(name).listing().revive_set(truncation)
            for name in cluster.nodes
        ]
        assert all(len(names) < 4 for names in wanted)  # a checkpoint and a few segments
        # The newest cluster_info, then each node's set.
        assert cluster.shared.op_stats["GET"].requests - reads == 1 + sum(map(len, wanted))

    def test_a_node_that_lost_its_disk_sends_no_version_twice(self):
        cluster = three_nodes()
        for batch in range(3):
            load(cluster, batch)
        cluster.sync_catalogs(include_checkpoint=False)
        cluster.kill_node("n1", lose_local_disk=True)
        load(cluster, 3)
        cluster.recover_node("n1")  # replays every commit into a new local log
        load(cluster, 4)
        intervals = cluster.sync_catalogs(include_checkpoint=False)
        assert intervals["n1"][1] == cluster.version
        assert len(cluster.shared_meta_store("n1").listing().segments) == 2

    def test_a_reader_below_the_pruned_range_is_refused(self):
        primary = three_nodes()
        for batch in range(2):
            load(primary, batch)
        primary.sync_catalogs()
        primary.write_cluster_info(lease_seconds=10_000)
        reader = revive(primary.shared, clock=primary.clock, read_only=True, seed=7)
        for batch in range(2, 6):
            load(primary, batch)
            primary.sync_catalogs()  # a checkpoint every time
            primary.write_cluster_info(lease_seconds=10_000)
        with pytest.raises(ClusterError, match="pruned past this reader"):
            reader.refresh_from_shared()


class TestTruncationRevivableInvariant:
    def test_deleting_one_segment_below_the_truncation_version_trips_it(self):
        world = SimWorld(3, CampaignConfig(base_failure_rate=0.0))
        cluster = world.cluster
        cluster.sync_catalogs(include_checkpoint=False)
        cluster.load(world.table, [(1000 + i, "g", i) for i in range(10)])
        cluster.sync_catalogs(include_checkpoint=False)
        cluster.write_cluster_info()
        assert truncation_revivable(world) is None
        truncation = cluster.last_truncation_version
        store = cluster.shared_meta_store("n1")
        [(first, last)] = store.listing().covering(store.listing().base_for(truncation))
        assert first <= truncation <= last
        assert truncation_revivable(world) is None
        store.fs.delete(segment_name(first, last))
        assert "no longer reach" in truncation_revivable(world)


class SegmentSchedule(RuleBasedStateMachine):
    """One node's catalog and the shared area it uploads to."""

    def __init__(self):
        super().__init__()
        self.catalog = Catalog(MemoryFilesystem(), checkpoint_every=4)
        self.shared = LogStore(MemoryFilesystem())
        self.payloads = {0: Checkpoint.of_state(self.catalog.state).payload}
        self.advertised = None

    @rule(count=st.integers(1, 6))
    def commit(self, count):
        for _ in range(count):
            version = self.catalog.state.version + 1
            self.catalog.apply_commit(record(version))
            self.payloads[version] = Checkpoint.of_state(self.catalog.state).payload

    @rule(include_checkpoint=st.booleans())
    def sync(self, include_checkpoint):
        puts = self.shared.fs.metrics.ops["PUT"].requests
        _, high = self.catalog.sync_to(self.shared, include_checkpoint)
        assert high == self.catalog.state.version
        assert self.shared.fs.metrics.ops["PUT"].requests - puts <= 2
        # Pruned by the local store's rule, from the sync's own listing.
        assert self.shared.listing().prunable(2, self.catalog.truncation_floor) == []

    @rule(data=st.data())
    def advertise(self, data):
        """What ``write_cluster_info`` does for one node; with other nodes
        behind, the version may fall inside one of its segments."""
        listing = self.shared.listing()
        low, high = listing.interval()
        held = [v for v in range(low, high + 1) if listing.holds(v)]
        if high:
            self.advertised = self.catalog.truncation_floor = data.draw(st.sampled_from(held))

    @rule()
    def checkpoint(self):
        self.catalog.write_checkpoint()

    @rule(data=st.data())
    def truncate(self, data):
        """Formation or revive: truncate, then a new incarnation's area."""
        oldest = (self.catalog.log_store.listing().checkpoints or [0])[0]
        version = data.draw(st.integers(oldest, self.catalog.state.version))
        self.catalog.truncate_to(version)
        assert Checkpoint.of_state(self.catalog.state).payload == self.payloads[version]
        self.payloads = {v: p for v, p in self.payloads.items() if v <= version}
        self.shared = LogStore(MemoryFilesystem())
        self.advertised = None

    @invariant()
    def revive_equals_the_live_state_at_the_truncation_version(self):
        if self.advertised is None:
            return
        listing = self.shared.listing()
        assert listing.holds(self.advertised)
        revived = Catalog(MemoryFilesystem())
        for name in listing.revive_set(self.advertised):
            revived.log_store.fs.write(name, self.shared.fs.read(name))
        revived.recover()
        revived.truncate_to(self.advertised)
        assert Checkpoint.of_state(revived.state).payload == self.payloads[self.advertised]


TestSegmentSchedule = SegmentSchedule.TestCase
TestSegmentSchedule.settings = settings(
    max_examples=60, stateful_step_count=30, deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)
