"""Executor unit tests against a synthetic storage provider.

Isolates executor behaviours that cluster tests only exercise indirectly:
downgrades under broken segmentation, broadcast caching, gather/network
accounting, and single-node plans.
"""

from typing import Dict, List, Optional, Sequence

import pytest

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

    def test_broadcast_charges_network(self):
        data = {
            "a": {"fact": fact_rows([(1, 1.0)]), "dim": dim_rows([(1, "x")])},
            "b": {"fact": fact_rows([(2, 2.0)]), "dim": dim_rows([(2, "y")])},
        }
        provider = FakeProvider(data)
        executor = Executor(provider)
        executor.execute(self._join_plan("broadcast"))
        assert executor.stats.network_bytes > 0
        # One exchange, however many nodes the build side goes to: only the
        # initiator probes, so the result gather ships nothing.
        for remotes in (1, 2, 3):
            names = [chr(ord("a") + i) for i in range(remotes + 1)]
            data = {name: {"dim": dim_rows([(i, name)])} for i, name in enumerate(names)}
            data["a"]["fact"] = fact_rows([(0, 1.0)])
            executor = Executor(FakeProvider(data))
            executor.execute(self._join_plan("broadcast"))
            shipped = rowset_bytes(RowSet.concat([data[n]["dim"] for n in names])) * remotes
            cost = executor.cost
            assert executor.stats.network_bytes == shipped
            assert executor.stats.network_seconds == pytest.approx(
                cost.network_latency + shipped / cost.network_bandwidth
            )

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
