"""The Data Collector: bounded ring buffers and predicate-pruned reads.

Property wall (hypothesis): a ring buffer never exceeds its capacity,
counts every eviction, and its binary-searched time slices agree with a
naive filter; the collector's pruned reads return exactly what a full
scan plus predicate would, while materializing only the pruned range
(observable through ``rows_examined``).
"""

from unittest import mock

from hypothesis import given, settings, strategies as st

from repro import EonCluster, SimClock
from repro.obs import datacollector
from repro.obs.datacollector import (
    DC_NODE_PARTITIONED,
    DC_TABLES,
    DataCollector,
    NULL_DATA_COLLECTOR,
    RingBuffer,
)


class TestRingBuffer:
    def test_append_and_read_back(self):
        ring = RingBuffer(4)
        for i in range(3):
            ring.append((i, float(i)))
        assert len(ring) == 3
        assert ring.snapshot() == [(0, 0.0), (1, 1.0), (2, 2.0)]
        assert ring.dropped == 0

    def test_eviction_keeps_newest_and_counts(self):
        ring = RingBuffer(3)
        for i in range(10):
            ring.append((i,))
        assert len(ring) == 3
        assert ring.snapshot() == [(7,), (8,), (9,)]
        assert ring.dropped == 7

    @given(
        capacity=st.integers(min_value=1, max_value=16),
        n=st.integers(min_value=0, max_value=200),
    )
    @settings(max_examples=60, deadline=None)
    def test_bound_and_drop_accounting_hold_always(self, capacity, n):
        ring = RingBuffer(capacity)
        for i in range(n):
            ring.append((i,))
            assert len(ring) <= capacity
        assert len(ring) == min(n, capacity)
        assert ring.dropped == max(0, n - capacity)
        # The retained window is exactly the newest `len` entries.
        assert ring.snapshot() == [(i,) for i in range(max(0, n - capacity), n)]

    @given(
        times=st.lists(
            st.integers(min_value=0, max_value=30), min_size=0, max_size=60
        ),
        lo=st.one_of(st.none(), st.integers(min_value=-5, max_value=35)),
        hi=st.one_of(st.none(), st.integers(min_value=-5, max_value=35)),
        capacity=st.integers(min_value=1, max_value=40),
    )
    @settings(max_examples=120, deadline=None)
    def test_time_slice_matches_naive_filter(self, times, lo, hi, capacity):
        ring = RingBuffer(capacity)
        for seq, t in enumerate(sorted(times)):
            ring.append((seq, t))
        i0, i1 = ring.time_slice(lo, hi, key_index=1)
        sliced = [ring[i] for i in range(i0, i1)]
        expected = [
            entry
            for entry in ring.snapshot()
            if (lo is None or entry[1] >= lo) and (hi is None or entry[1] <= hi)
        ]
        assert sliced == expected

    def test_incomparable_bound_falls_back_to_full_window(self):
        ring = RingBuffer(8)
        for i in range(5):
            ring.append((i, float(i)))
        assert ring.time_slice("not-a-time", None, key_index=1) == (0, 5)


class TestDataCollector:
    def test_rows_are_clock_stamped_and_ordered(self):
        clock = SimClock()
        dc = DataCollector(clock)
        dc.record("dc_query_events", "n1", (1, "admit", "", 0.0))
        clock.advance(2.0)
        dc.record("dc_query_events", "n2", (2, "execute", "sql", 0.5))
        rows = dc.rows("dc_query_events")
        assert rows == [
            (0.0, "n1", 1, "admit", "", 0.0),
            (2.0, "n2", 2, "execute", "sql", 0.5),
        ]

    def test_cross_ring_merge_preserves_append_order(self):
        # Same timestamp everywhere: only the global sequence can order
        # the merged stream, and it must match append order.
        dc = DataCollector()
        for i, node in enumerate(("n2", "n1", "n3", "n1", "n2")):
            dc.record("dc_depot_events", node, (f"evict{i}", f"obj{i}", i))
        rows = dc.rows("dc_depot_events")
        assert [r[2] for r in rows] == [f"evict{i}" for i in range(5)]

    def test_node_pruning_skips_rings_and_counts_examined(self):
        dc = DataCollector()
        for node in ("n1", "n2", "n3"):
            for i in range(4):
                dc.record("dc_depot_events", node, ("evict", f"o{i}", i))
        before = dc.rows_examined
        rows = dc.rows("dc_depot_events", bounds={"node": ("n2", "n2")})
        assert {r[1] for r in rows} == {"n2"}
        assert len(rows) == 4
        # Only n2's ring was touched: 4 entries, not 12.
        assert dc.rows_examined - before == 4

    def test_time_pruning_materializes_only_the_range(self):
        clock = SimClock()
        dc = DataCollector(clock)
        for i in range(10):
            dc.record("dc_service_runs", "", (f"svc{i}", "run", ""))
            clock.advance(1.0)
        before = dc.rows_examined
        rows = dc.rows("dc_service_runs", bounds={"time": (3.0, 5.0)})
        assert [r[0] for r in rows] == [3.0, 4.0, 5.0]
        assert dc.rows_examined - before == 3

    @given(
        events=st.lists(
            st.tuples(
                st.sampled_from(["n1", "n2", "n3"]),
                st.integers(min_value=0, max_value=6),  # clock increments
            ),
            min_size=0,
            max_size=80,
        ),
        time_lo=st.one_of(st.none(), st.floats(min_value=0, max_value=50)),
        time_hi=st.one_of(st.none(), st.floats(min_value=0, max_value=50)),
        node_bound=st.one_of(st.none(), st.sampled_from(["n1", "n2", "n3"])),
        capacity=st.integers(min_value=1, max_value=30),
    )
    @settings(max_examples=80, deadline=None)
    def test_pruned_read_equals_filtered_full_scan(
        self, events, time_lo, time_hi, node_bound, capacity
    ):
        clock = SimClock()
        dc = DataCollector(clock)
        with mock.patch.object(datacollector, "CAPACITY", capacity):
            for i, (node, dt) in enumerate(events):
                clock.advance(float(dt))
                dc.record("dc_query_events", node, (i, "execute", "", 0.0))
        bounds = {}
        if time_lo is not None or time_hi is not None:
            bounds["time"] = (time_lo, time_hi)
        if node_bound is not None:
            bounds["node"] = (node_bound, node_bound)
        full = dc.rows("dc_query_events")
        expected = [
            row
            for row in full
            if (time_lo is None or row[0] >= time_lo)
            and (time_hi is None or row[0] <= time_hi)
            and (node_bound is None or row[1] == node_bound)
        ]
        assert dc.rows("dc_query_events", bounds) == expected

    def test_per_table_drop_accounting(self, monkeypatch):
        monkeypatch.setattr(datacollector, "CAPACITY", 2)
        dc = DataCollector()
        for i in range(5):
            dc.record("dc_service_runs", "", (f"s{i}", "run", ""))
        dc.record("dc_fault_injections", "", ("GET", "transient", ""))
        def dropped(table):
            return sum(ring.dropped for ring in dc._rings[table].values())

        assert dropped("dc_service_runs") == 3
        assert dropped("dc_fault_injections") == 0

    def test_schema_constants_are_consistent(self):
        for table, columns in DC_TABLES.items():
            assert columns[0] == "time"
            if table in DC_NODE_PARTITIONED:
                assert columns[1] == "node"

    def test_null_collector_is_inert(self):
        NULL_DATA_COLLECTOR.record("dc_query_events", "n1", (1, "x", "", 0.0))
        assert NULL_DATA_COLLECTOR.rows("dc_query_events") == []
        assert not NULL_DATA_COLLECTOR.enabled


class TestClusterIntegration:
    def _cluster(self):
        cluster = EonCluster(["n1", "n2", "n3"], shard_count=3, seed=13)
        cluster.execute("create table t (k int, v int)")
        cluster.load("t", [(i, i * 2) for i in range(60)])
        cluster.enable_observability()
        return cluster

    def test_query_events_recorded_per_query(self):
        cluster = self._cluster()
        cluster.query("select count(*) from t")
        events = cluster.obs.dc.rows("dc_query_events")
        kinds = [e[3] for e in events]
        assert "admit" in kinds
        assert "execute" in kinds

    def test_sql_scan_with_node_predicate_prunes(self):
        cluster = self._cluster()
        cluster.query("select count(*) from t")
        cluster.query("select sum(v) from t")
        dc = cluster.obs.dc
        all_rows = [
            tuple(r)
            for r in cluster.query(
                "select node, event from v_monitor.dc_query_events"
            ).rows.to_pylist()
        ]
        initiators = sorted({r[0] for r in all_rows})
        target = initiators[0]
        per_node = sum(1 for r in all_rows if r[0] == target)
        before = dc.rows_examined
        pruned = [
            tuple(r)
            for r in cluster.query(
                "select node, event from v_monitor.dc_query_events"
                f" where node = '{target}'"
            ).rows.to_pylist()
        ]
        assert {r[0] for r in pruned} == {target}
        assert len(pruned) == per_node
        # The producer materialized only the target node's ring — the
        # acceptance bar for partition pruning.
        assert dc.rows_examined - before == per_node

    def test_sql_scan_with_time_predicate_prunes(self):
        cluster = self._cluster()
        cluster.query("select count(*) from t")
        later = cluster.clock.now + 1.0
        cluster.clock.advance(5.0)
        cluster.query("select sum(v) from t")
        dc = cluster.obs.dc
        total = len(dc.rows("dc_query_events"))
        before = dc.rows_examined
        rows = [
            tuple(r)
            for r in cluster.query(
                "select time, event from v_monitor.dc_query_events"
                f" where time >= {later}"
            ).rows.to_pylist()
        ]
        examined = dc.rows_examined - before
        assert rows  # the second query's events qualify
        assert all(r[0] >= later for r in rows)
        assert examined == len(rows) < total

    def test_depot_evictions_land_in_dc_depot_events(self):
        # A depot holding only a few containers forces evictions as the
        # write-through loads stream more of them in.
        cluster = EonCluster(
            ["n1", "n2", "n3"], shard_count=3, seed=13, cache_bytes=8192
        )
        cluster.enable_observability()
        cluster.execute("create table big (k int, v int)")
        for base in range(0, 2000, 100):
            cluster.load("big", [(i, i) for i in range(base, base + 100)])
        events = cluster.obs.dc.rows("dc_depot_events")
        assert any(e[2] == "evict" for e in events)
        evicted = [e for e in events if e[2] == "evict"]
        assert all(e[4] > 0 for e in evicted)  # bytes recorded

    def test_fault_injections_recorded_without_digest_impact(self):
        shared_kwargs = dict(shard_count=2, seed=3)
        from repro.shared_storage.s3 import FaultInjector, SimulatedS3

        cluster = EonCluster(
            ["n1", "n2"],
            shared_storage=SimulatedS3(
                faults=FaultInjector(failure_rate=0.0, seed=9)
            ),
            **shared_kwargs,
        )
        cluster.execute("create table t (k int)")
        cluster.load("t", [(i,) for i in range(30)])
        cluster.enable_observability()
        for node in cluster.nodes.values():
            node.cache.clear()
        cluster.shared.faults.begin_burst(1.0, 2)
        cluster.query("select count(*) from t")
        rows = cluster.obs.dc.rows("dc_fault_injections")
        assert rows
        assert all(r[2] in ("transient", "throttled", "outage_rejection")
                   for r in rows)
        assert any(r[2] == "throttled" for r in rows)
