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
"""

from typing import List, Tuple

import pytest
from hypothesis import HealthCheck, given, settings, strategies as st

from repro import ColumnType, EonCluster
from repro.engine.designer import DatabaseDesigner, dbd_version
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
