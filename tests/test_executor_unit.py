"""Executor unit tests against a synthetic storage provider.

Isolates executor behaviours that cluster tests only exercise indirectly:
downgrades under broken segmentation, broadcast caching, gather/network
accounting, and single-node plans.
"""

from typing import Dict, List, Optional, Sequence

import pytest
from hypothesis import given, settings, strategies as st

from repro.common.types import ColumnType, TableSchema
from repro.engine.executor import Executor, ScanResult, StorageProvider
from repro.engine.expressions import ColumnRef, Expr, col
from repro.engine.operators import AggregateSpec
from repro.engine.plan import AggregateNode, JoinNode, ProjectNode, ScanNode
from repro.engine.planner import PhysicalPlan
from repro.storage.container import RowSet, rowset_bytes

FACT = TableSchema.of(("k", ColumnType.INT), ("v", ColumnType.FLOAT))
DIM = TableSchema.of(("k2", ColumnType.INT), ("lbl", ColumnType.VARCHAR))


class FakeProvider(StorageProvider):
    """Serves pre-partitioned rows per (node, projection)."""

    def __init__(self, data: Dict[str, Dict[str, RowSet]],
                 replicated: Dict[str, RowSet] = None,
                 preserves: bool = True):
        self._data = data
        self._replicated = replicated or {}
        self._preserves = preserves
        self.scan_calls: List[tuple] = []

    def participants(self) -> List[str]:
        return sorted(self._data)

    def initiator(self) -> str:
        return sorted(self._data)[0]

    @property
    def preserves_segmentation(self) -> bool:
        return self._preserves

    def scan(self, node, projection, columns, predicate, replicated) -> ScanResult:
        self.scan_calls.append((node, projection, replicated))
        if replicated:
            rows = self._replicated[projection]
        else:
            rows = self._data[node].get(projection)
            if rows is None:
                schema = FACT if projection == "fact" else DIM
                rows = RowSet.empty(schema)
        return ScanResult(
            rows=rows.select(list(columns)),
            io_seconds=0.001,
            bytes_from_cache=rowset_bytes(rows),
        )


def fact_rows(pairs):
    return RowSet.from_rows(FACT, pairs)


def dim_rows(pairs):
    return RowSet.from_rows(DIM, pairs)


def split_by_node(rows_by_node):
    return {node: {"fact": fact_rows(pairs)} for node, pairs in rows_by_node.items()}


def agg_plan(strategy, single_node=False):
    scan = ScanNode("t", "fact", ("k", "v"))
    agg = AggregateNode(scan, ("k",), (AggregateSpec("sum", col("v"), "s"),),
                        strategy=strategy)
    return PhysicalPlan(root=agg, projections_used={"t": "fact"},
                        alignment=("k",), single_node=single_node)


DATA = split_by_node({
    "a": [(1, 1.0), (1, 2.0)],
    "b": [(2, 10.0)],
})


class TestAggregationStrategies:
    @pytest.mark.parametrize("strategy", ["one_phase", "two_phase", "gather_complete"])
    def test_all_strategies_same_answer(self, strategy):
        provider = FakeProvider(DATA)
        result = Executor(provider).execute(agg_plan(strategy))
        assert sorted(result.rows.to_pylist()) == [(1, 3.0), (2, 10.0)]

    def test_one_phase_downgraded_when_segmentation_broken(self):
        # Rows for group k=1 appear on BOTH nodes: one_phase would be wrong
        # unless the executor downgrades it to two_phase.
        data = split_by_node({"a": [(1, 1.0)], "b": [(1, 2.0)]})
        provider = FakeProvider(data, preserves=False)
        result = Executor(provider).execute(agg_plan("one_phase"))
        assert result.rows.to_pylist() == [(1, 3.0)]

    def test_single_participant_always_complete(self):
        data = split_by_node({"only": [(1, 1.0), (2, 2.0)]})
        provider = FakeProvider(data)
        result = Executor(provider).execute(agg_plan("two_phase"))
        assert sorted(result.rows.to_pylist()) == [(1, 1.0), (2, 2.0)]

    def test_single_node_plan_uses_initiator_only(self):
        provider = FakeProvider(DATA)
        result = Executor(provider).execute(agg_plan("one_phase", single_node=True))
        nodes_scanned = {call[0] for call in provider.scan_calls}
        assert nodes_scanned == {"a"}  # initiator


class TestJoins:
    def _join_plan(self, locality):
        left = ScanNode("t", "fact", ("k", "v"))
        right = ScanNode("d", "dim", ("k2", "lbl"))
        join = JoinNode(left, right, ("k",), ("k2",), locality=locality)
        project = ProjectNode(join, (("lbl", ColumnRef("lbl")), ("v", ColumnRef("v"))))
        return PhysicalPlan(root=project, projections_used={},
                            alignment=("k",), single_node=False)

    def test_broadcast_side_evaluated_once(self):
        data = {
            "a": {"fact": fact_rows([(1, 1.0)]), "dim": dim_rows([(1, "x")])},
            "b": {"fact": fact_rows([(2, 2.0)]), "dim": dim_rows([(2, "y")])},
        }
        provider = FakeProvider(data)
        result = Executor(provider).execute(self._join_plan("broadcast"))
        dim_scans = [c for c in provider.scan_calls if c[1] == "dim"]
        # Build side gathered once: one scan per participant, not per probe.
        assert len(dim_scans) == 2
        assert sorted(result.rows.to_pylist()) == [("x", 1.0), ("y", 2.0)]

    def _broadcast_run(self, dims):
        """A broadcast join whose build side is ``dims`` (one list of dim
        rows per participant, the first the initiator's); only the
        initiator probes, so the result gather ships nothing."""
        names = [chr(ord("a") + i) for i in range(len(dims))]
        data = {name: {"dim": dim_rows(rows)} for name, rows in zip(names, dims)}
        data["a"]["fact"] = fact_rows([(0, 1.0)])
        executor = Executor(FakeProvider(data))
        executor.execute(self._join_plan("broadcast"))
        return executor, [rowset_bytes(data[name]["dim"]) for name in names]

    def test_broadcast_charges_network(self):
        data = {
            "a": {"fact": fact_rows([(1, 1.0)]), "dim": dim_rows([(1, "x")])},
            "b": {"fact": fact_rows([(2, 2.0)]), "dim": dim_rows([(2, "y")])},
        }
        provider = FakeProvider(data)
        executor = Executor(provider)
        executor.execute(self._join_plan("broadcast"))
        assert executor.stats.network_bytes > 0
        # One all-to-all exchange: every fragment goes to every peer, and
        # the charge is one round trip plus the busiest link's bytes: a
        # node's uplink (its fragment, once per peer) or its downlink
        # (every other fragment).  Uneven fragments: node i holds i + 1
        # rows, the last a long label.
        for remotes in (1, 2, 3):
            dims = [[(j, "n" * (1 + 40 * (i == remotes))) for j in range(i + 1)]
                    for i in range(remotes + 1)]
            executor, sizes = self._broadcast_run(dims)
            total = sum(sizes)
            busiest = max(max(size * remotes, total - size) for size in sizes)
            cost = executor.cost
            assert executor.stats.network_bytes == total * remotes
            assert executor.stats.network_seconds == pytest.approx(
                cost.network_latency + busiest / cost.network_bandwidth
            )
            # The last node's uplink is the busiest link, below one sender
            # pushing the whole build side to every peer.
            assert busiest == sizes[-1] * remotes
            if remotes > 1:
                assert busiest < total * remotes
        # Even fragments: every downlink carries the other three.
        executor, sizes = self._broadcast_run([[(i, "abc")] for i in range(4)])
        assert len(set(sizes)) == 1
        assert executor.stats.network_seconds == pytest.approx(
            cost.network_latency + 3 * sizes[0] / cost.network_bandwidth
        )

    @pytest.mark.parametrize("dims", [[[(0, "x"), (1, "y")]], [[], [], []]],
                             ids=["one participant", "empty build side"])
    def test_broadcast_with_nothing_to_send_ships_nothing(self, dims):
        executor, _ = self._broadcast_run(dims)
        assert executor.stats.network_bytes == 0
        assert executor.stats.network_seconds == 0

    @settings(max_examples=60, deadline=None)
    @given(st.lists(st.lists(st.integers(0, 30), max_size=6), min_size=1, max_size=9))
    def test_broadcast_charge_is_the_busiest_link(self, label_lengths):
        """Random fragments over 1-9 participants: the charge is the
        formula, never above one sender shipping ``N × peers`` bytes, and
        the bytes counted are that sender's."""
        dims = [[(j, "s" * n) for j, n in enumerate(lengths)] for lengths in label_lengths]
        executor, sizes = self._broadcast_run(dims)
        peers, total = len(sizes) - 1, sum(sizes)
        cost, stats = executor.cost, executor.stats
        full = RowSet.concat([dim_rows(rows) for rows in dims])
        if not peers or not full.num_rows:
            assert (stats.network_bytes, stats.network_seconds) == (0, 0)
            return
        assert stats.network_bytes == rowset_bytes(full) * peers == total * peers
        busiest = max(max(size * peers, total - size) for size in sizes)
        assert stats.network_seconds == pytest.approx(cost.network_seconds(busiest))
        assert stats.network_seconds <= cost.network_seconds(total * peers)

    def test_local_join_downgraded_when_split(self):
        # Matching rows on different nodes: local join would miss them.
        data = {
            "a": {"fact": fact_rows([(1, 1.0)]), "dim": dim_rows([])},
            "b": {"fact": fact_rows([]), "dim": dim_rows([(1, "x")])},
        }
        provider = FakeProvider(data, preserves=False)
        result = Executor(provider).execute(self._join_plan("local"))
        assert result.rows.to_pylist() == [("x", 1.0)]

    def test_replicated_build_stays_local_even_when_split(self):
        data = {
            "a": {"fact": fact_rows([(1, 1.0)])},
            "b": {"fact": fact_rows([(2, 2.0)])},
        }
        replicated = {"dim": dim_rows([(1, "x"), (2, "y")])}
        provider = FakeProvider(data, replicated=replicated, preserves=False)
        left = ScanNode("t", "fact", ("k", "v"))
        right = ScanNode("d", "dim", ("k2", "lbl"), replicated=True)
        join = JoinNode(left, right, ("k",), ("k2",), locality="local")
        plan = PhysicalPlan(root=ProjectNode(join, (("lbl", ColumnRef("lbl")),)),
                            projections_used={}, alignment=("k",))
        result = Executor(provider).execute(plan)
        assert sorted(r[0] for r in result.rows.to_pylist()) == ["x", "y"]


class TestAccounting:
    def test_gather_charges_network_for_remote_parts_only(self):
        provider = FakeProvider(DATA)
        executor = Executor(provider)
        plan = PhysicalPlan(
            root=ScanNode("t", "fact", ("k", "v")),
            projections_used={}, alignment=("k",),
        )
        result = executor.execute(plan)
        assert result.rows.num_rows == 3
        # Only node b's fragment crossed the network to initiator a.
        assert executor.stats.network_bytes == rowset_bytes(
            DATA["b"]["fact"]
        )
        # The remote parts arrive at once: one round trip, their summed
        # bytes over the initiator's link.
        for remotes in (1, 2, 3):
            names = [chr(ord("a") + i) for i in range(remotes + 1)]
            data = split_by_node({name: [(i, float(i))] * (i + 1)
                                  for i, name in enumerate(names)})
            executor = Executor(FakeProvider(data))
            executor.execute(plan)
            shipped = sum(rowset_bytes(data[n]["fact"]) for n in names[1:])
            cost = executor.cost
            assert executor.stats.network_bytes == shipped
            assert executor.stats.network_seconds == pytest.approx(
                cost.network_latency + shipped / cost.network_bandwidth
            )

    def test_rowset_bytes_counts_strings(self):
        small = dim_rows([(1, "x")])
        large = dim_rows([(1, "x" * 1000)])
        assert rowset_bytes(large) > rowset_bytes(small) + 900

    def test_per_node_io_recorded(self):
        provider = FakeProvider(DATA)
        executor = Executor(provider)
        executor.execute(agg_plan("two_phase"))
        assert all(w.io_seconds > 0 for w in executor.stats.per_node.values())
