"""Cost model and query-stats arithmetic."""

import pytest

from repro.engine.cost import (
    DESIGN_CONTAINER_BYTES,
    CostModel,
    DesignJoin,
    NodeWork,
    QueryShape,
    QueryStats,
    TableLayout,
    choose_scan_strategy,
    estimate_broadcast_seconds,
    estimate_first_table_seconds,
    estimate_pushdown_bytes,
    estimate_scan_cost,
    estimate_selectivity,
)
from repro.io.scheduler import LANES
from repro.shared_storage.posix import MemoryFilesystem
from repro.shared_storage.s3 import S3CostModel, S3LatencyModel


class TestCostModel:
    def test_network_seconds(self):
        model = CostModel(network_bandwidth=1e9, network_latency=0.001)
        assert model.network_seconds(0) == pytest.approx(0.001)
        assert model.network_seconds(1e9) == pytest.approx(1.001)


def _latency_share(estimate, node_count: int) -> float:
    """What ``estimate(node_count, model)`` pays for latency: the
    difference it makes to raise ``network_latency`` from 0 to 1 ms."""
    slow = CostModel(network_latency=0.001)
    free = CostModel(network_latency=0.0)
    return estimate(node_count, slow) - estimate(node_count, free)


class TestOneExchangeOneRoundTrip:
    """The designer's network terms are the executor's charge: a gather or
    a broadcast reaches every node at once, whatever the cluster's size."""

    FACT = TableLayout(table="f", columns=("k", "g", "v"), sort_order=("k",),
                       segmentation_columns=("k",), row_count=100_000,
                       bytes_per_cell={"k": 8.0, "g": 8.0, "v": 8.0})
    DIM = TableLayout(table="d", columns=("k", "name"), sort_order=("name",),
                      segmentation_columns=("name",), row_count=5_000,
                      bytes_per_cell={"k": 8.0, "name": 12.0})

    @pytest.mark.parametrize("node_count", [2, 4, 9])
    def test_gather_of_partial_aggregates_carries_one_latency(self, node_count):
        # Grouped on a column the stream is not segmented on: two-phase.
        shape = QueryShape(tables=("f",), columns={"f": ("g", "v")}, filters={},
                           group_columns=(("f", "g"),), is_aggregate=True)

        def estimate(nodes, model):
            return estimate_first_table_seconds(shape, self.FACT, {"f": 100_000},
                                                nodes, model)

        assert _latency_share(estimate, node_count) == pytest.approx(0.001)

    @pytest.mark.parametrize("node_count", [2, 4, 9])
    def test_result_ship_carries_one_latency(self, node_count):
        shape = QueryShape(tables=("f",), columns={"f": ("v",)}, filters={})

        def estimate(nodes, model):
            return estimate_first_table_seconds(shape, self.FACT, {"f": 100_000},
                                                nodes, model)

        assert _latency_share(estimate, node_count) == pytest.approx(0.001)

    @pytest.mark.parametrize("node_count", [1, 2, 4, 9])
    def test_a_gather_ships_only_the_remote_parts(self, node_count):
        """As ``Executor._collect`` charges it: the initiator's own part, a
        ``1 / n`` share of the result rows or one node's partials, stays
        put, and on one node no exchange is made at all."""
        free = CostModel(network_latency=0.0, row_cpu_seconds=0.0)
        ship = QueryShape(tables=("f",), columns={"f": ("v",)}, filters={})
        partial = QueryShape(tables=("f",), columns={"f": ("g", "v")}, filters={},
                             group_columns=(("f", "g"),), is_aggregate=True)
        shipped = {}
        for name, shape in (("rows", ship), ("partials", partial)):
            shipped[name] = estimate_first_table_seconds(
                shape, self.FACT, {"f": 100_000}, node_count, free
            ) * free.network_bandwidth
            assert _latency_share(
                lambda nodes, model: estimate_first_table_seconds(
                    shape, self.FACT, {"f": 100_000}, nodes, model),
                node_count,
            ) == pytest.approx(0.001 if node_count > 1 else 0.0)
        remote = node_count - 1
        assert shipped["rows"] == pytest.approx(int(100_000 * remote / node_count * 16))
        assert shipped["partials"] == pytest.approx(4096 * remote * 16)

    @pytest.mark.parametrize("node_count", [1, 2, 4, 9])
    def test_broadcast_carries_one_latency(self, node_count):
        """As ``Executor._broadcast`` charges it: one all-to-all exchange
        whose busiest link, the build side spread evenly over the nodes,
        carries ``(n - 1) / n`` of its bytes; on one node, no exchange."""
        join = DesignJoin("d", (("f", "k"),), ("k",))
        shape = QueryShape(tables=("f", "d"), columns={"f": ("k",), "d": ("k", "name")},
                           filters={}, joins=(join,))

        def estimate(nodes, model):
            return estimate_broadcast_seconds(shape, join, self.FACT, self.DIM,
                                              nodes, model)

        assert _latency_share(estimate, node_count) == pytest.approx(
            0.001 if node_count > 1 else 0.0)
        build_bytes = self.DIM.row_count * self.DIM.row_bytes(("k", "name"))
        assert estimate(node_count, CostModel(network_latency=0.0)) == pytest.approx(
            int(build_bytes * (node_count - 1) / node_count) / CostModel().network_bandwidth
        )


class TestScanReadsOverLanes:
    """The designer's scan term runs its reads as the executor does: one
    unit per container over the I/O scheduler's lanes, a GET when cold and
    a local-disk read of the decoded bytes when warm."""

    #: CPU priced at zero, so the estimate is its read term alone.
    NO_CPU = CostModel(row_cpu_seconds=0.0, cell_cpu_seconds=0.0)

    @staticmethod
    def layout(containers: int) -> TableLayout:
        """A replicated (one-reader) layout of ``containers`` design-sized
        containers, 16 bytes a row."""
        return TableLayout(table="f", columns=("k", "v"), sort_order=(),
                           segmentation_columns=(),
                           row_count=containers * DESIGN_CONTAINER_BYTES // 16,
                           bytes_per_cell={"k": 8.0, "v": 8.0})

    def estimate(self, layout: TableLayout, cold_fraction: float) -> float:
        shape = QueryShape(tables=("f",), columns={"f": ("v",)}, filters={},
                           cold_fraction=cold_fraction)
        return estimate_scan_cost(shape, "f", layout, 3, self.NO_CPU).seconds

    @pytest.mark.parametrize("containers", [1, 2, 4, 5, 9])
    def test_cold_gets_pay_their_latency_in_rounds(self, containers):
        layout, s3 = self.layout(containers), S3LatencyModel()
        rounds = -(-containers // LANES)
        assert self.estimate(layout, 1.0) == pytest.approx(
            rounds * s3.request_seconds + layout.total_bytes() / s3.read_bandwidth)

    @pytest.mark.parametrize("containers", [1, 2, 4, 5, 9])
    def test_warm_reads_are_one_local_unit_per_container(self, containers):
        layout = self.layout(containers)
        rounds = -(-containers // LANES)
        decoded = layout.row_count * layout.row_bytes(("v",))
        assert self.estimate(layout, 0.0) == pytest.approx(
            rounds * MemoryFilesystem.seek_seconds
            + decoded / MemoryFilesystem.read_bandwidth)

    def test_a_tiny_scan_pays_one_request(self):
        tiny = TableLayout(table="f", columns=("k", "v"), sort_order=(),
                           segmentation_columns=(), row_count=1,
                           bytes_per_cell={"k": 8.0, "v": 8.0})
        assert self.estimate(tiny, 1.0) == pytest.approx(
            S3LatencyModel().request_seconds + 16 / S3LatencyModel().read_bandwidth)
        assert self.estimate(tiny, 0.0) == pytest.approx(
            MemoryFilesystem.seek_seconds + 8 / MemoryFilesystem.read_bandwidth)


class TestQueryStats:
    def test_latency_is_critical_path(self):
        stats = QueryStats(dispatch_seconds=0.01)
        stats.node("fast").io_seconds = 0.1
        stats.node("slow").io_seconds = 0.5
        stats.node("slow").cpu_seconds = 0.2
        stats.network_seconds = 0.05
        stats.initiator_cpu_seconds = 0.02
        # slowest node (0.7) + dispatch + network + initiator.
        assert stats.latency_seconds == pytest.approx(0.01 + 0.7 + 0.05 + 0.02)

    def test_latency_with_no_participants(self):
        stats = QueryStats(dispatch_seconds=0.01)
        assert stats.latency_seconds == pytest.approx(0.01)

    def test_totals_aggregate_across_nodes(self):
        stats = QueryStats()
        stats.node("a").bytes_from_cache = 100
        stats.node("a").bytes_from_shared = 10
        stats.node("a").rows_scanned = 5
        stats.node("b").bytes_from_cache = 200
        stats.node("b").rows_scanned = 7
        assert stats.total_bytes_from_cache == 300
        assert stats.total_bytes_from_shared == 10
        assert stats.total_rows_scanned == 12

    def test_node_accessor_creates_once(self):
        stats = QueryStats()
        work = stats.node("x")
        work.cpu_seconds = 1.0
        assert stats.node("x").cpu_seconds == 1.0
        assert len(stats.per_node) == 1

    def test_busy_seconds(self):
        work = NodeWork(io_seconds=0.2, cpu_seconds=0.3)
        assert work.busy_seconds == pytest.approx(0.5)

    def test_pushdown_totals_aggregate_across_nodes(self):
        stats = QueryStats()
        stats.node("a").pushdown_scans = 2
        stats.node("a").bytes_scanned = 1000
        stats.node("b").bytes_scanned = 500
        assert stats.total_pushdown_scans == 2
        assert stats.total_bytes_scanned == 1500


class TestSelectPricing:
    """The per-byte-scanned pricing and latency terms."""

    def test_select_cost_terms(self):
        cost = S3CostModel(
            select_per_1k=0.4, scan_per_gb=2.0, return_per_gb=0.7
        )
        # request fee + scanned GB * scan rate + returned GB * return rate.
        assert cost.select_cost(0, 0) == pytest.approx(0.4 / 1000)
        assert cost.select_cost(10**9, 0) == pytest.approx(0.4 / 1000 + 2.0)
        assert cost.select_cost(10**9, 5 * 10**8) == pytest.approx(
            0.4 / 1000 + 2.0 + 0.35
        )

    def test_default_price_card_relationships(self):
        """The defaults mirror the published S3 Select card: the request
        fee matches a GET's, returned bytes are priced below scanned
        bytes, and selectivity only discounts the return term."""
        cost = S3CostModel()
        assert cost.select_per_1k == cost.get_per_1k
        assert cost.return_per_gb < cost.scan_per_gb
        container = 2 * 10**6
        full = cost.select_cost(container, container)
        selective = cost.select_cost(container, container // 100)
        assert selective < full
        # The scan term is incompressible: even a zero-return select pays it.
        assert cost.select_cost(container, 0) == pytest.approx(
            cost.select_per_1k / 1000 + container / 1e9 * cost.scan_per_gb
        )

    def test_select_seconds_terms(self):
        latency = S3LatencyModel()
        scanned, returned = 6 * 10**8, 9 * 10**7
        assert latency.select_seconds(scanned, returned) == pytest.approx(
            latency.select_request_seconds
            + scanned / latency.scan_bandwidth
            + returned / latency.read_bandwidth
        )
        # Scanning moves at the server's internal rate — much faster than
        # shipping the same bytes over the wire.
        assert latency.select_seconds(scanned, 0) < latency.read_seconds(scanned)


class _FakeContainer:
    def __init__(self, stats):
        self.bounds = stats


class TestEstimateSelectivity:
    def test_interval_overlap(self):
        c = _FakeContainer({"k": (0, 100)})
        assert estimate_selectivity({"k": (None, 25)}, c) == pytest.approx(0.25)
        assert estimate_selectivity({"k": (50, None)}, c) == pytest.approx(0.5)
        assert estimate_selectivity({"k": (25, 75)}, c) == pytest.approx(0.5)

    def test_bounds_outside_stats_give_zero(self):
        c = _FakeContainer({"k": (0, 100)})
        assert estimate_selectivity({"k": (200, None)}, c) == 0.0
        assert estimate_selectivity({"k": (None, -1)}, c) == 0.0

    def test_columns_multiply_independently(self):
        c = _FakeContainer({"k": (0, 100), "v": (0.0, 10.0)})
        sel = estimate_selectivity({"k": (None, 50), "v": (None, 1.0)}, c)
        assert sel == pytest.approx(0.05)

    def test_non_numeric_and_degenerate_stats_are_neutral(self):
        c = _FakeContainer({"g": ("a", "z"), "k": (7, 7)})
        assert estimate_selectivity({"g": (None, "m")}, c) == 1.0
        assert estimate_selectivity({"k": (0, 10)}, c) == 1.0
        assert estimate_selectivity({"missing": (0, 1)}, c) == 1.0

    def test_pushdown_bytes_clamped(self):
        assert estimate_pushdown_bytes(1000, 0.25) == 250
        assert estimate_pushdown_bytes(1000, 2.0) == 1000
        assert estimate_pushdown_bytes(1000, -1.0) == 0


class TestChooseScanStrategy:
    """The three-way decision table and its auto-mode break-even."""

    BASE = dict(
        resident=False,
        use_cache=True,
        has_delete_vectors=False,
        eligible=True,
        fetch_seconds=1.0,
        pushdown_seconds=0.5,
    )

    def _choose(self, mode, **overrides):
        return choose_scan_strategy(mode, **{**self.BASE, **overrides})

    def test_no_depot_session_is_raw_get(self):
        for mode in ("off", "auto", "on"):
            assert self._choose(mode, use_cache=False) == "get"

    def test_resident_always_depot(self):
        for mode in ("off", "auto", "on"):
            assert self._choose(mode, resident=True) == "depot"

    def test_hard_disqualifiers_fall_back_to_depot(self):
        assert self._choose("off") == "depot"
        assert self._choose("on", has_delete_vectors=True) == "depot"
        assert self._choose("on", eligible=False) == "depot"

    def test_on_overrides_the_estimate(self):
        assert self._choose("on", pushdown_seconds=99.0) == "pushdown"

    def test_auto_break_even(self):
        # Strictly faster: pushdown; tie or slower: depot.
        assert self._choose("auto", pushdown_seconds=0.999) == "pushdown"
        assert self._choose("auto", pushdown_seconds=1.0) == "depot"
        assert self._choose("auto", pushdown_seconds=1.001) == "depot"

    def test_auto_break_even_tracks_the_latency_model(self):
        """Sweep selectivity with the real latency model: highly selective
        scans push down, unselective full-projection scans do not, and the
        flip happens exactly where select_seconds crosses read_seconds."""
        latency = S3LatencyModel()
        size = 2 * 10**6
        fetch = latency.read_seconds(size)
        decisions = {}
        for selectivity in (0.01, 0.2, 0.5, 0.9, 1.0):
            returned = estimate_pushdown_bytes(size, selectivity)
            pushdown = latency.select_seconds(size, returned)
            decisions[selectivity] = self._choose(
                "auto", fetch_seconds=fetch, pushdown_seconds=pushdown
            )
        assert decisions[0.01] == "pushdown"
        assert decisions[1.0] == "depot"
        # Monotone: once depot wins, higher selectivity never flips back.
        ordered = [decisions[s] for s in sorted(decisions)]
        assert ordered == sorted(ordered, key=lambda d: d == "depot")
