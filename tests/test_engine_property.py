"""Property tests for the engine's operator corners, against SQLite.

Hypothesis drives aggregates, GROUP BY ... HAVING, COUNT(DISTINCT), SELECT
DISTINCT and ORDER BY ... LIMIT/OFFSET windows, ascending and descending,
over a table built to be awkward: runs of NULL group keys, group keys
interleaved across containers and nodes, and a float column, with NULLs of
its own, whose partial sums are order-sensitive.  The oracle is an
engine that shares no code with ours (``repro.sim.oracle``); every
query here is totally ordered or a single row, so rows are compared in
order.
"""

import pytest
from hypothesis import HealthCheck, given, settings, strategies as st

from repro import ColumnType, EonCluster
from repro.sim.oracle import SqliteOracle

COLUMNS = [("k", ColumnType.INT), ("g", ColumnType.VARCHAR), ("v", ColumnType.FLOAT)]

#: 90 rows, 3-row NULL runs in ``g``, group keys interleaved, and a float
#: column (NULL in every seventeenth row) whose partial sums are
#: order-sensitive.
ROWS = [
    (
        i,
        None if (i // 3) % 4 == 0 else f"g{i % 5}",
        None if i % 17 == 5 else float(i % 13) * 0.375 - 1.5,
    )
    for i in range(90)
]


@pytest.fixture(scope="module")
def sides():
    cluster = EonCluster(["n1", "n2", "n3"], shard_count=3, seed=29)
    cluster.create_table("t", COLUMNS)
    cluster.load("t", ROWS)
    return cluster, SqliteOracle("t", COLUMNS, ROWS)


@st.composite
def queries(draw) -> str:
    """A query whose output is deterministic (totally ordered or a single
    aggregate row), so exact equality is well-defined."""
    kind = draw(st.sampled_from(
        ["agg", "group", "distinct", "window", "count_distinct"]
    ))
    where = draw(st.sampled_from([
        "", " where g is null", " where g is not null",
        " where k < 47", " where v > 0 and k >= 11",
    ]))
    if kind == "agg":
        return f"select count(*), sum(v), min(k), max(v) from t{where}"
    if kind == "group":
        having = draw(st.sampled_from([
            "", " having count(*) > 4", " having sum(v) > 0", " having max(v) is null",
        ]))
        order = draw(st.sampled_from(["g", "g desc", "s desc, g", "c desc, g desc"]))
        return (
            f"select g, count(*) c, sum(v) s from t{where} "
            f"group by g{having} order by {order}"
        )
    if kind == "count_distinct":
        return f"select count(distinct g), count(distinct k) from t{where}"
    limit = draw(st.integers(min_value=0, max_value=95))
    offset = draw(st.integers(min_value=0, max_value=95))
    if kind == "distinct":
        return (
            f"select distinct g from t{where} order by g{draw(st.sampled_from(['', ' desc']))} "
            f"limit {limit} offset {offset}"
        )
    keys = draw(st.sampled_from(["k", "k desc", "v desc, k", "g desc, k", "g desc, v desc, k"]))
    return (
        f"select k, g, v from t{where} order by {keys} "
        f"limit {limit} offset {offset}"
    )


class TestOperatorCorners:
    @given(sql=queries())
    @settings(
        max_examples=120,
        deadline=None,
        suppress_health_check=[HealthCheck.function_scoped_fixture],
    )
    def test_engine_equals_sqlite(self, sides, sql):
        cluster, oracle = sides
        assert oracle.check(cluster, sql, ordered=True) is None
