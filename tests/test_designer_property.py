"""Property wall for the cost-based designer (Designer v2).

Hypothesis drives the designer across random multi-table schemas —
*including* tables that share column names, the exact shape whose stats
the v1 profiler misattributed — and random workloads of scans, filters,
group-bys, and joins.  Three walls:

* **Containment**: every proposal stays inside the schema — projection
  columns ⊆ the anchor table's columns, sort and segmentation columns ⊆
  the projection's columns, versioned ``_dbd_v<n>`` names, and the
  emitted DDL parses back to exactly one statement that round-trips the
  proposal's layout.
* **Accounting**: ``add_workload`` loses nothing silently — every input
  statement is either used or reported skipped with a reason.
* **Executability**: on a cluster with real data, executing each
  proposal's emitted SQL through the ordinary DDL path succeeds, and
  every workload query returns bit-identical rows before and after the
  redesign.
* **Exactness**: on random candidate sets with joins, the search's
  design costs exactly the minimum a brute-force enumeration of every
  assignment finds, and among the optima it is the one whose candidates
  rank earliest in total.
"""

import functools
import itertools
import math
from typing import List, Tuple

import pytest
from hypothesis import HealthCheck, example, given, settings, strategies as st

from repro import ColumnType, EonCluster
from repro.engine.cost import (
    DesignCost, DesignJoin, QueryShape, TableLayout, estimate_maintenance_cost,
    estimate_query_cost,
)
from repro.engine.designer import (
    DatabaseDesigner, _Candidate, _TableStats, dbd_version,
)
from repro.errors import PlanningError
from repro.sql.ast import CreateProjection
from repro.sql.parser import parse

pytestmark = pytest.mark.differential

#: Column-name pool deliberately shared across tables so generated
#: schemas collide on bare names (the v1 misattribution shape).
NAME_POOL = ("a", "b", "c", "day", "k")
TYPES = (ColumnType.INT, ColumnType.FLOAT, ColumnType.VARCHAR)

SETTINGS = settings(
    max_examples=25,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)


@st.composite
def schemas(draw) -> List[Tuple[str, List[Tuple[str, ColumnType]]]]:
    """1-3 tables; each gets a unique int id column plus 1-4 columns
    drawn from the shared name pool (duplicate names across tables)."""
    tables = []
    for t in range(draw(st.integers(min_value=1, max_value=3))):
        names = draw(st.permutations(NAME_POOL))
        columns = [(f"id{t}", ColumnType.INT)] + [
            (name, draw(st.sampled_from(TYPES)))
            for name in names[: draw(st.integers(min_value=1, max_value=4))]
        ]
        tables.append((f"t{t}", columns))
    return tables


@st.composite
def workloads(draw, schema) -> List[str]:
    """Single-table scans with filters/group-bys over any column
    (ambiguously-named ones included — those must be *reported*, not
    silently dropped, when two tables of a join share them), plus id-key
    joins when two tables exist."""
    owners = {}
    for table, columns in schema:
        for name, _ in columns:
            owners.setdefault(name, []).append(table)
    queries = []
    for table, columns in schema:
        for _ in range(draw(st.integers(min_value=1, max_value=2))):
            numeric = [
                n for n, t in columns
                if t in (ColumnType.INT, ColumnType.FLOAT)
            ]
            agg_col = draw(st.sampled_from(numeric))
            agg = f"sum({agg_col})" if draw(st.booleans()) else "count(*)"
            sql = f"select {agg} from {table}"
            if draw(st.booleans()):
                ints = [n for n, t in columns if t is ColumnType.INT]
                lo = draw(st.integers(min_value=-5, max_value=5))
                sql += f" where {draw(st.sampled_from(ints))} > {lo}"
            if draw(st.booleans()):
                group = draw(st.sampled_from([n for n, _ in columns]))
                sql = (
                    f"select {group}, count(*) cnt from {table}"
                    + sql[len(f"select {agg} from {table}"):]
                    + f" group by {group}"
                )
            queries.append(sql)
    if len(schema) >= 2 and draw(st.booleans()):
        (ta, _), (tb, _) = schema[0], schema[1]
        queries.append(
            f"select count(*) from {ta}, {tb} where id0 = id1"
        )
    return queries


def build_cluster(schema) -> EonCluster:
    cluster = EonCluster(["n1", "n2"], shard_count=2, seed=11)
    for table, columns in schema:
        ddl_cols = ", ".join(
            f"{name} {ctype.value}" for name, ctype in columns
        )
        cluster.execute(f"create table {table} ({ddl_cols})")
    return cluster


def row_for(columns, i: int):
    out = []
    for name, ctype in columns:
        if ctype is ColumnType.INT:
            out.append((i * 3 + len(name)) % 17 - 5)
        elif ctype is ColumnType.FLOAT:
            out.append(float(i % 7) / 2.0)
        else:
            out.append(f"s{i % 4}")
    return tuple(out)


@SETTINGS
@given(data=st.data())
def test_proposals_stay_inside_the_schema(data):
    schema = data.draw(schemas())
    cluster = build_cluster(schema)
    designer = DatabaseDesigner(cluster.any_up_node().catalog.state)
    workload = data.draw(workloads(schema))
    report = designer.add_workload(workload)
    # Accounting: nothing silently dropped.
    assert report.used + len(report.skipped) == len(workload)
    for sql, reason in report.skipped:
        assert sql in workload and reason
    proposals = designer.propose()
    table_columns = {t: {n for n, _ in cols} for t, cols in schema}
    names = [p.name for p in proposals]
    assert len(names) == len(set(names))
    for p in proposals:
        assert p.table in table_columns
        assert set(p.columns) <= table_columns[p.table]
        assert set(p.sort_order) <= set(p.columns)
        if not p.segmentation.is_replicated:
            assert set(p.segmentation.columns) <= set(p.columns)
        assert p.already_applied or (dbd_version(p.table, p.name) or 0) >= 1
        (statement,) = parse(p.to_sql())
        assert isinstance(statement, CreateProjection)
        assert statement.table == p.table
        assert tuple(statement.columns) == p.columns
        assert tuple(statement.order_by) == p.sort_order
        if p.segmentation.is_replicated:
            assert statement.segmented_by is None
        else:
            assert tuple(statement.segmented_by) == p.segmentation.columns
    # Determinism: a second pass over the same stats proposes the same.
    again = designer.propose()
    assert [
        (p.table, p.columns, p.sort_order, p.segmentation) for p in proposals
    ] == [(p.table, p.columns, p.sort_order, p.segmentation) for p in again]


@SETTINGS
@given(data=st.data())
def test_emitted_ddl_executes_and_preserves_answers(data):
    schema = data.draw(schemas())
    cluster = build_cluster(schema)
    n_rows = data.draw(st.integers(min_value=1, max_value=40))
    for table, columns in schema:
        cluster.load(table, [row_for(columns, i) for i in range(n_rows)])
    designer = DatabaseDesigner.for_cluster(cluster)
    workload = data.draw(workloads(schema))
    report = designer.add_workload(workload)
    skipped = {sql for sql, _ in report.skipped}
    usable = [sql for sql in workload if sql not in skipped]
    before = {
        sql: sorted(cluster.query(sql).rows.to_pylist()) for sql in usable
    }
    for p in designer.propose():
        if not p.already_applied:
            cluster.execute(p.to_sql())
    state = cluster.any_up_node().catalog.state
    for p in designer.propose():
        assert p.name in state.projections or p.already_applied
    for sql in usable:
        assert sorted(cluster.query(sql).rows.to_pylist()) == before[sql], sql


# -- exactness: the search against brute-force enumeration -------------------

EXACT_TABLES = ("t0", "t1", "t2", "t3")
EXACT_COLUMNS = ("k", "a", "b", "c")


@functools.lru_cache(maxsize=None)
def exact_catalog():
    cluster = EonCluster(["n1", "n2", "n3"], shard_count=3, seed=5)
    for table in EXACT_TABLES:
        cluster.execute(f"create table {table} (k int, a int, b varchar, c float)")
    return cluster.any_up_node().catalog.state


def candidate(table, rows, columns, sort, segmentation) -> _Candidate:
    return _Candidate(layout=TableLayout(
        table=table, columns=tuple(columns), sort_order=tuple(sort),
        segmentation_columns=tuple(segmentation), row_count=rows,
        bytes_per_cell={"k": 8.0, "a": 8.0, "b": 16.0, "c": 8.0},
    ))


@st.composite
def candidate_sets(draw):
    """<= 4 tables x <= 4 candidate layouts (the first covers every column,
    later ones may be narrower and so infeasible for some query), and
    <= 4 queries whose tables join on ``k``, so broadcast cells exist."""
    tables = EXACT_TABLES[: draw(st.integers(1, 4))]
    rows = {t: draw(st.sampled_from((1, 40, 3_000, 200_000, 5_000_000)))
            for t in tables}
    subsets = st.lists(st.sampled_from(EXACT_COLUMNS), unique=True)
    candidates = {}
    for table in tables:
        candidates[table] = []
        for index in range(draw(st.integers(1, 4))):
            columns = (
                EXACT_COLUMNS if index == 0
                else tuple(c for c in EXACT_COLUMNS
                           if c == "k" or c in draw(subsets))
            )
            sort = draw(st.permutations(columns))[: draw(st.integers(1, 3))]
            seg = draw(st.sampled_from(((), ("k",), ("a",), ("k", "a"))))
            candidates[table].append(candidate(
                table, rows[table], columns, sort, [c for c in seg if c in columns]
            ))
    shapes = []
    for _ in range(draw(st.integers(1, 4))):
        order = draw(st.permutations(tables))[: draw(st.integers(1, len(tables)))]
        joins = tuple(
            DesignJoin(table=build,
                       left_keys=((draw(st.sampled_from(order[:i])), "k"),),
                       right_keys=("k",))
            for i, build in enumerate(order) if i
        )
        shapes.append(QueryShape(
            tables=tuple(order),
            columns={t: tuple(draw(subsets)) for t in order},
            filters={t: {c: draw(st.floats(0.001, 1.0)) for c in draw(subsets)}
                     for t in order},
            joins=joins,
            group_columns=tuple(
                (t, c) for t in order for c in draw(subsets)
            ),
            is_aggregate=draw(st.booleans()),
            weight=draw(st.sampled_from((0.5, 1.0, 3.0))),
            cold_fraction=draw(st.sampled_from((0.0, 0.3, 1.0))),
        ))
    return rows, candidates, shapes


#: One-row tables whose layouts differ by a few bytes: the designs are
#: ~1e-7 s apart, which a solve stated in seconds cannot tell apart.
TINY = (
    {"t0": 1, "t1": 1},
    {"t0": [candidate("t0", 1, EXACT_COLUMNS, "k", ""),
            candidate("t0", 1, "k", "k", ""),
            candidate("t0", 1, "ka", "k", "k"),
            candidate("t0", 1, "k", "k", "k")],
     "t1": [candidate("t1", 1, EXACT_COLUMNS, "k", ""),
            candidate("t1", 1, "k", "k", ""),
            candidate("t1", 1, "k", "k", ""),
            candidate("t1", 1, "ka", "k", "")]},
    [QueryShape(tables=("t0",), columns={"t0": ()}, filters={},
                weight=0.5, cold_fraction=0.0)] * 2,
)

#: Three identical layouts: an exact tie the rank rule must settle on the
#: first of them.
TIED = (
    {"t0": 1},
    {"t0": [candidate("t0", 1, EXACT_COLUMNS, "k", "")]
     + [candidate("t0", 1, "k", "k", "") for _ in range(3)]},
    [QueryShape(tables=("t0",), columns={"t0": ()}, filters={},
                weight=0.5, cold_fraction=0.0)],
)

#: t0 is segmented on ``a``, so a join on ``k`` broadcasts t1 unless t1 is
#: replicated: replication scans slower but saves the broadcast, which only
#: the pair term sees.
BROADCAST = (
    {"t0": 200_000, "t1": 200_000},
    {"t0": [candidate("t0", 200_000, EXACT_COLUMNS, "k", "a")],
     "t1": [candidate("t1", 200_000, EXACT_COLUMNS, "k", "k"),
            candidate("t1", 200_000, EXACT_COLUMNS, "k", "")]},
    [QueryShape(tables=("t0", "t1"), columns={"t0": ("k",), "t1": ("k", "b")},
                filters={}, cold_fraction=0.0,
                joins=(DesignJoin("t1", (("t0", "k"),), ("k",)),))],
)


def full_cost(shapes, assignment, node_count) -> float:
    """The workload's cost under one complete assignment, query by query;
    inf when a layout cannot serve a query's scan."""
    total = DesignCost()
    for shape in shapes:
        layouts = {t: assignment[t].layout for t in shape.tables}
        query = estimate_query_cost(shape, layouts, node_count)
        if query is None:
            return math.inf
        total.add(query, weight=shape.weight)
    for table in sorted(assignment):
        total.add(estimate_maintenance_cost(assignment[table].layout))
    return total.seconds


@settings(max_examples=60, deadline=None,
          suppress_health_check=[HealthCheck.too_slow])
@given(drawn=candidate_sets())
@example(drawn=TINY)
@example(drawn=TIED)
@example(drawn=BROADCAST)
def test_search_is_the_brute_force_optimum(drawn):
    rows, candidates, shapes = drawn
    designer = DatabaseDesigner(exact_catalog(), row_counts=rows)
    # No projection competes with the candidates in the planner, so every
    # query scans exactly the layout its table is assigned.
    designer._rival_layouts = lambda table: []
    designer._stats_cache = {table: _TableStats() for table in candidates}
    node_count = designer._node_count()
    tables = sorted(candidates)
    everything = list(itertools.product(*(candidates[t] for t in tables)))
    costs = [full_cost(shapes, dict(zip(tables, pick)), node_count)
             for pick in everything]
    result = designer._search(shapes, dict(candidates))
    best = min(costs)
    assert result.mode == "milp"
    assert result.estimated.seconds == pytest.approx(best, rel=1e-9, abs=0)
    # The tie rule: of the optima, the smallest summed rank, where rank is
    # the search's own candidate order (cheapest separable cost first).
    ranks = {
        t: {id(c): i for i, c in enumerate(
            sorted((c for c in candidates[t] if c.sep_seconds < math.inf),
                   key=lambda c: (c.sep_seconds, c.fallback_weight)))}
        for t in tables
    }
    optima = [
        sum(ranks[t][id(c)] for t, c in zip(tables, pick))
        for pick, cost in zip(everything, costs)
        if cost <= best * (1 + 1e-9)
    ]
    chosen = sum(ranks[t][id(result.assignment[t])] for t in tables)
    assert chosen == min(optima)


def test_a_table_with_no_feasible_candidate_fails_the_solve():
    # Every candidate of t1 is too narrow for the query's scan: scoring
    # drops them all, t1's pick-one row cannot hold, and the solve fails.
    designer = DatabaseDesigner(exact_catalog(), row_counts={"t0": 40, "t1": 40})
    designer._rival_layouts = lambda table: []
    designer._stats_cache = {"t0": _TableStats(), "t1": _TableStats()}
    shapes = [QueryShape(tables=("t0", "t1"), columns={"t0": ("k",), "t1": ("k", "a")},
                         filters={}, joins=(DesignJoin("t1", (("t0", "k"),), ("k",)),))]
    candidates = {"t0": [candidate("t0", 40, EXACT_COLUMNS, "k", "k")],
                  "t1": [candidate("t1", 40, "k", "k", "k")]}
    with pytest.raises(PlanningError, match="designer search"):
        designer._search(shapes, candidates)
