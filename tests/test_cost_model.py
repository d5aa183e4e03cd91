"""Cost model and query-stats arithmetic, and the differential that holds
the designer's terms to the executor's charge rules."""

import math
from dataclasses import replace

import pytest

from repro import EonCluster
from repro.cluster.session import EonStorageProvider
from repro.common.clock import charge_parallel
from repro.engine import cost as cost_module, pipeline
from repro.engine.cost import (
    CostModel,
    NodeWork,
    QueryStats,
    choose_scan_strategy,
    estimate_broadcast_seconds,
    estimate_first_table_seconds,
    estimate_pushdown_bytes,
    estimate_query_cost,
    estimate_scan_cost,
    estimate_selectivity,
)
from repro.engine.designer import DatabaseDesigner
from repro.engine.pipeline import PipelineCharges
from repro.engine.plan import ScanNode, walk
from repro.shared_storage.s3 import FaultInjector, S3CostModel, S3LatencyModel, SimulatedS3
from repro.workloads.dashboard import (
    dashboard_query,
    load_dashboard_data,
    setup_dashboard_schema,
)
from repro.workloads.tpch import TPCH_QUERIES, load_tpch, setup_tpch_schema


class TestCostModel:
    def test_network_seconds(self):
        model = CostModel(network_bandwidth=1e9, network_latency=0.001)
        assert model.network_seconds(0) == pytest.approx(0.001)
        assert model.network_seconds(1e9) == pytest.approx(1.001)


class TestExchangeRules:
    def test_a_gather_is_one_exchange_over_the_summed_parts(self):
        model = CostModel(network_bandwidth=1e9, network_latency=0.001)
        assert model.gather_seconds([3e8, 2e8]) == model.network_seconds(5e8)

    def test_a_broadcast_is_bounded_by_its_busiest_link(self):
        model = CostModel(network_bandwidth=1e9, network_latency=0.001)
        # One big fragment: its sender's uplink carries it to both peers.
        assert model.broadcast_seconds([6, 1, 1]) == model.network_seconds(12)
        # Even fragments: a downlink's n - 1 fragments tie the uplink's.
        assert model.broadcast_seconds([4, 4, 4, 4]) == model.network_seconds(12)
        # One small fragment: its owner's downlink takes every other one.
        assert model.broadcast_seconds([5, 5, 1]) == model.network_seconds(10)


# -- one charge rule, two callers ----------------------------------------------
#
# The executor charges exchanges and reads through three rules
# (``CostModel.gather_seconds``, ``CostModel.broadcast_seconds`` and the lane
# rule ``charge_parallel``); the designer prices its terms by calling the same
# rules with estimated sizes.  The executor half: wrapped from outside, the
# rules' outputs add up to what ``QueryStats`` books, to the last bit.  The
# designer half: a rule shifted by a sentinel moves every term that calls it
# by exactly that much, so a term that restates the arithmetic instead fails.

#: The differential's workload, ``label -> (session seed, sql)``: the 20
#: TPC-H queries and the dashboard query.
RULE_QUERIES = {f"Q{q.number}": (q.number, q.sql) for q in TPCH_QUERIES}
RULE_QUERIES["dash"] = (0, dashboard_query(recent_after=500))
LABELS = list(RULE_QUERIES)
TEMPERATURES = ("cold", "warm", "faulted")

#: Seconds a shifted rule adds: far above any real term.
SENTINEL = 1000.0


class RuleTape:
    """What the executor's charge rules returned during one query, and the
    pool and scans that fed them."""

    def __init__(self):
        self.exchanges = []  # (rule name, seconds), in call order
        self.settled = []  # (durations, makespan) of the pool's lane rule
        self.pooled = {}  # node -> the durations list its pool settled
        self.backoff = {}  # node -> each scan's unpooled io seconds, in order


@pytest.fixture(scope="module")
def rule_runs(tpch_data):
    """Each workload query on a 4-node Eon cluster from cleared depots,
    then warm, then from cleared depots again with shared storage failing
    one request in twenty (so scans back off): the cluster, and
    ``{(label, temperature): (result, tape)}``."""
    faults = FaultInjector(seed=7)
    cluster = EonCluster(["n1", "n2", "n3", "n4"], shard_count=4, seed=3,
                         shared_storage=SimulatedS3(faults=faults))
    setup_tpch_schema(cluster)
    load_tpch(cluster, tpch_data)
    setup_dashboard_schema(cluster)
    load_dashboard_data(cluster, n_events=4000, n_devices=80, n_sites=6)
    tapes = []

    def exchange(name):
        rule = getattr(CostModel, name)

        def wrapped(model, sizes):
            seconds = rule(model, sizes)
            tapes[-1].exchanges.append((name, seconds))
            return seconds
        return wrapped

    def lanes(durations, count):
        out = charge_parallel(durations, count)
        tapes[-1].settled.append((durations, out[0]))
        return out

    def settle(pool, original=PipelineCharges.settle):
        tapes[-1].pooled.update(pool.per_node)
        return original(pool)

    def scan(provider, node, *args, original=EonStorageProvider.scan):
        result = original(provider, node, *args)
        tapes[-1].backoff.setdefault(node, []).append(result.io_seconds)
        return result

    runs = {}
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(CostModel, "gather_seconds", exchange("gather_seconds"))
        patch.setattr(CostModel, "broadcast_seconds", exchange("broadcast_seconds"))
        patch.setattr(pipeline, "charge_parallel", lanes)
        patch.setattr(PipelineCharges, "settle", settle)
        patch.setattr(EonStorageProvider, "scan", scan)
        for label, (seed, sql) in RULE_QUERIES.items():
            for temperature in TEMPERATURES:
                if temperature != "warm":
                    for node in cluster.nodes.values():
                        node.cache.clear()
                faults.failure_rate = 0.05 if temperature == "faulted" else 0.0
                tapes.append(RuleTape())
                runs[label, temperature] = cluster.query(sql, seed=seed), tapes[-1]
    return cluster, runs


@pytest.mark.parametrize("label", LABELS)
def test_the_exchange_rules_add_up_to_network_seconds(rule_runs, label):
    _, runs = rule_runs
    for temperature in TEMPERATURES:
        result, tape = runs[label, temperature]
        charged = 0.0
        for _, seconds in tape.exchanges:
            charged += seconds
        assert charged == result.stats.network_seconds, temperature


@pytest.mark.parametrize("label", LABELS)
def test_the_lane_rule_adds_up_to_each_nodes_io_seconds(rule_runs, label):
    """A node's ``io_seconds`` is its scans' retry backoff, which no lane
    holds, then the makespan of its pooled reads."""
    _, runs = rule_runs
    for temperature in TEMPERATURES:
        result, tape = runs[label, temperature]
        makespans = {}
        for node, durations in tape.pooled.items():
            [makespans[node]] = [m for d, m in tape.settled if d is durations]
        assert set(makespans) <= set(result.stats.per_node), temperature
        for node, work in result.stats.per_node.items():
            charged = 0.0
            for seconds in tape.backoff.get(node, ()):
                charged += seconds
            if node in makespans:
                charged += makespans[node]
            assert work.io_seconds == charged, (temperature, node)


def designer_view(cluster, runs, label):
    """The designer's shape of the query, its node count, and the layouts
    of the projections the executor's plan scanned."""
    designer = DatabaseDesigner.for_cluster(cluster)
    designer.add_query(RULE_QUERIES[label][1])
    [shape], _ = designer._build()
    layouts = {
        scan.table: designer._layout_of(scan.table, designer.catalog.projection(scan.projection))
        for scan in walk(runs[label, "cold"][0].plan.root) if isinstance(scan, ScanNode)
    }
    return shape, designer._node_count(), layouts


def exchange_terms(cluster, runs, label):
    """The query's designer terms that may charge an exchange, each with
    the rule it calls: ``(rule name, term(model) -> seconds)``."""
    shape, nodes, layouts = designer_view(cluster, runs, label)
    first = layouts[shape.tables[0]]
    rows = {t: layouts[t].row_count for t in shape.tables}
    yield "gather_seconds", lambda model: estimate_first_table_seconds(
        shape, first, rows, nodes, model)
    for join in shape.joins:
        yield "broadcast_seconds", lambda model, join=join: estimate_broadcast_seconds(
            shape, join, first, layouts[join.table], nodes, model)


def moved(term, owner, name, shift):
    """How far ``term()`` moves when ``owner.name`` returns ``shift(out)``."""
    base = term()
    with pytest.MonkeyPatch.context() as patch:
        rule = getattr(owner, name)
        patch.setattr(owner, name, lambda *args: shift(rule(*args)))
        return term() - base


def network_dependent(term) -> bool:
    """Whether ``term(model)`` charges an exchange: it moves with latency."""
    return term(CostModel(network_latency=1.0)) != term(CostModel(network_latency=0.0))


@pytest.mark.parametrize("label", LABELS)
def test_every_designer_term_calls_the_executors_rule(rule_runs, label):
    """A scan moves by the sentinel over its parallelism (a whole number of
    nodes, one when replicated), cold and warm; a first-table or broadcast
    term by the sentinel exactly when it charges an exchange, else not."""
    cluster, runs = rule_runs
    shape, nodes, layouts = designer_view(cluster, runs, label)
    for cold in (0.0, 1.0):
        scanned = replace(shape, cold_fraction=cold)
        for table in shape.tables:
            shift = moved(
                lambda: estimate_scan_cost(scanned, table, layouts[table], nodes).seconds,
                cost_module, "charge_parallel", lambda out: (out[0] + SENTINEL, out[1]),
            )
            assert shift > 0, (cold, table)
            share = SENTINEL / shift
            assert share == pytest.approx(round(share), rel=1e-6), (cold, table)
            assert 1 <= round(share) <= (1 if layouts[table].is_replicated else nodes)
    for rule, term in exchange_terms(cluster, runs, label):
        shift = moved(lambda: term(CostModel()), CostModel, rule,
                      lambda seconds: seconds + SENTINEL)
        assert shift == pytest.approx(SENTINEL if network_dependent(term) else 0.0), rule


def test_the_differential_reaches_every_rule(rule_runs):
    """Not vacuous: the executor gathered and broadcast, some faulted scan
    backed off, and some designer term of each kind charged an exchange."""
    cluster, runs = rule_runs
    assert {name for _, tape in runs.values() for name, _ in tape.exchanges} == {
        "gather_seconds", "broadcast_seconds"}
    assert any(sum(sum(b) for b in tape.backoff.values()) > 0 for _, tape in runs.values())
    assert {
        rule for label in LABELS for rule, term in exchange_terms(cluster, runs, label)
        if network_dependent(term)
    } == {"gather_seconds", "broadcast_seconds"}


def test_the_designers_estimate_against_the_executor(rule_runs):
    """Per TPC-H query, the designer's estimate from its own estimated
    sizes against the executor's sim seconds, cold and warm (print with
    ``-s``).  Both sides charge through the same rules, so what separates
    them is the sizes the designer guesses and the work it leaves out."""
    cluster, runs = rule_runs
    print(f"\n{'query':<6}" + f"{'est ms':>9}{'sim ms':>9}{'ratio':>7}  " * 2 + "(cold, warm)")
    for label in LABELS[:-1]:
        shape, nodes, layouts = designer_view(cluster, runs, label)
        line = f"{label:<6}"
        for temperature, cold in (("cold", 1.0), ("warm", 0.0)):
            estimate = estimate_query_cost(replace(shape, cold_fraction=cold), layouts,
                                           nodes).seconds
            sim = runs[label, temperature][0].stats.latency_seconds
            assert 0 < estimate < math.inf and 0 < sim < math.inf, (label, temperature)
            line += f"{estimate * 1e3:>9.3f}{sim * 1e3:>9.3f}{estimate / sim:>7.2f}  "
        print(line)


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
