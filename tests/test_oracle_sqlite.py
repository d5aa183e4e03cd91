"""WHERE expressions, single-table GROUP BY ... HAVING and ORDER BY in both
directions against SQLite (DISTINCT and windows over NULL runs:
``tests/test_engine_property.py``), and the scan path under them: a second,
larger table whose containers hold several blocks and some delete vectors,
asked range/point/IN questions that prune — and string questions, which that
scan answers on dictionary codes: predicates on a DICT column and on an RLE
column that follows the sort key, GROUP BY and ORDER BY on them.  Last, a
LEFT join whose ON clause holds more than the key equality.

This wall compares the system with an engine that shares none of its code
past the parser (``repro.sim.oracle``), as ``tests/test_tpch.py`` does for
the Figure-10 queries.  One generated table — NULLs in the string and float
columns, dense and sparse integer keys, dates on both sides of the epoch —
is loaded into an ``EonCluster`` and mirrored into SQLite; Hypothesis writes
the queries.  Row multisets must be equal.
"""

import random

import pytest
from hypothesis import HealthCheck, given, settings, strategies as st

from repro import ColumnType, EnterpriseCluster, EonCluster
from repro.common.dates import date_to_days
from repro.sim.oracle import SqliteOracle, to_sqlite
from tests.test_types_dates import days_to_date

COLUMNS = [
    ("k", ColumnType.INT), ("g", ColumnType.INT), ("h", ColumnType.INT),
    ("s", ColumnType.VARCHAR), ("f", ColumnType.FLOAT), ("d", ColumnType.DATE),
]
STRINGS = [None, "", "a", "ab", "abc", "b", "ba", "Ab", "a\nb", "a_b", "a%", "é"]
FLOATS = [None, -2.5, -1.0, 0.0, 0.5, 1.0, 5.0, 7.25]
DATES = ["1899-12-31", "1900-02-28", "1969-12-31", "1970-01-01", "1992-02-29",
         "1995-03-15", "1995-12-31", "1996-01-01", "1998-08-02", "2000-02-29",
         "2100-03-01"]


def _table(n: int = 240):
    draw = random.Random(17)
    return [
        (k, draw.randrange(5), draw.randrange(7) * 1_000_003 - 2_000_006,
         draw.choice(STRINGS), draw.choice(FLOATS),
         date_to_days(draw.choice(DATES)) + draw.randrange(3))
        for k in range(n)
    ]


@pytest.fixture(scope="module")
def sides():
    rows = _table()
    cluster = EonCluster(["a", "b", "c"], shard_count=3, seed=29)
    cluster.create_table("t", COLUMNS)
    # Two loads: every shard holds more than one container.
    cluster.load("t", rows[: len(rows) // 2])
    cluster.load("t", rows[len(rows) // 2:])
    return cluster, SqliteOracle("t", COLUMNS, rows)


# -- the query grammar (our dialect) ------------------------------------------------

OPS = st.sampled_from(["=", "<>", "<", "<=", ">", ">="])
_string = st.sampled_from([s for s in STRINGS if s is not None] + ["c", "B"])
_pattern = st.text(alphabet=["a", "b", "%", "_", "A"], min_size=1, max_size=4)
_number = st.sampled_from([-3, -1, 0, 1, 2, 5, 0.5, -2.5, 7.25, 100])
_day = st.sampled_from(DATES + ["1995-03-16", "1971-06-01"])
_year = st.sampled_from([1899, 1900, 1969, 1970, 1992, 1995, 1996, 2000, 2100])


def _quoted(text: str) -> str:
    return "'" + text + "'"


def _in_list(items) -> str:
    return "(" + ", ".join(items) + ")"


@st.composite
def leaves(draw) -> str:
    kind = draw(st.sampled_from([
        "int", "int_flipped", "sparse", "float", "str", "date", "in_str", "in_num",
        "like", "is_null", "year", "month", "length",
    ]))
    op, negated = draw(OPS), draw(st.sampled_from(["", "not "]))
    if kind == "int":
        return f"{draw(st.sampled_from(['k', 'g']))} {op} {draw(st.integers(-1, 240))}"
    if kind == "int_flipped":
        return f"{draw(st.integers(-1, 6))} {op} g"
    if kind == "sparse":
        return f"h {op} {draw(st.integers(-2, 4)) * 1_000_003}"
    if kind == "float":
        return f"f {op} {draw(_number)}"
    if kind == "str":
        return f"s {op} {_quoted(draw(_string))}"
    if kind == "date":
        return f"d {op} date {_quoted(draw(_day))}"
    if kind == "in_str":
        items = [_quoted(s) for s in draw(st.lists(_string, min_size=1, max_size=3))]
        items += draw(st.sampled_from([[], ["null"]]))
        return f"s {negated}in {_in_list(items)}"
    if kind == "in_num":
        column = draw(st.sampled_from(["g", "f", "k"]))
        items = [str(v) for v in draw(st.lists(_number, min_size=1, max_size=3))]
        return f"{column} {negated}in {_in_list(items)}"
    if kind == "like":
        return f"s {negated}like {_quoted(draw(_pattern))}"
    if kind == "is_null":
        return f"{draw(st.sampled_from(['s', 'f', 'k']))} is {negated}null"
    if kind == "year":
        return f"year(d) {op} {draw(_year)}"
    if kind == "month":
        return f"month(d) {op} {draw(st.integers(1, 12))}"
    return f"length(s) {op} {draw(st.integers(0, 3))}"


predicates = st.recursive(
    leaves(),
    lambda inner: st.one_of(
        st.tuples(inner, inner).map(lambda p: f"({p[0]}) and ({p[1]})"),
        st.tuples(inner, inner).map(lambda p: f"({p[0]}) or ({p[1]})"),
        inner.map(lambda p: f"not ({p})"),
    ),
    max_leaves=4,
)

GROUP_KEYS = st.lists(
    st.sampled_from(["g", "h", "s", "f", "year(d)", "month(d)"]),
    min_size=1, max_size=3, unique=True,
)
AGGREGATES = st.lists(
    st.sampled_from([
        "count(*)", "count(f)", "count(s)", "sum(f)", "sum(k)", "sum(h)", "min(f)",
        "max(f)", "min(k)", "max(h)", "min(s)", "max(s)", "avg(f)", "avg(k)",
        "count(distinct g)", "sum(f * 2 + g)",
    ]),
    min_size=1, max_size=4, unique=True,
)
#: min/max of an int column over *no rows* is 0 here (documented deviation),
#: so the aggregates without GROUP BY leave those two out.
GLOBAL_AGGREGATES = st.lists(
    st.sampled_from(["count(*)", "count(f)", "sum(f)", "sum(k)", "min(f)", "max(f)",
                     "min(s)", "avg(f)", "avg(k)"]),
    min_size=1, max_size=4, unique=True,
)
MAYBE_WHERE = st.one_of(st.just(""), predicates.map(lambda p: f" where {p}"))
#: Over aggregates the SELECT list may or may not hold.
MAYBE_HAVING = st.sampled_from([
    "", " having count(*) > 8", " having sum(f) > 0", " having min(s) < 'b'",
    " having max(f) is null or count(f) < 3", " having not (min(k) = max(k) - 1)",
])
#: Keys of a total order (``k`` is unique and last), descending on the float
#: and string columns that hold NULLs, and on a date.
ORDER_KEYS = st.sampled_from([
    "f desc, k", "s desc, k", "s desc, f desc, k", "f desc, s, k", "f, s desc, k",
    "d desc, s desc, k", "k desc",
])
_SETTINGS = dict(deadline=None, suppress_health_check=[HealthCheck.function_scoped_fixture])


class TestAgainstSqlite:
    @settings(max_examples=300, **_SETTINGS)
    @given(predicates)
    def test_where(self, sides, predicate):
        cluster, oracle = sides
        assert oracle.check(cluster, f"select k, s, f from t where {predicate}") is None

    @settings(max_examples=200, **_SETTINGS)
    @given(GROUP_KEYS, AGGREGATES, MAYBE_WHERE, MAYBE_HAVING)
    def test_group_by(self, sides, keys, aggregates, where, having):
        cluster, oracle = sides
        listed = ", ".join(keys)
        sql = f"select {listed}, {', '.join(aggregates)} from t{where} group by {listed}{having}"
        assert oracle.check(cluster, sql) is None

    @settings(max_examples=100, **_SETTINGS)
    @given(ORDER_KEYS, MAYBE_WHERE, st.integers(1, 60), st.integers(0, 40))
    def test_order_by_desc_then_limit(self, sides, keys, where, limit, offset):
        """NULL last, except a string key descending, whose NULL comes first."""
        cluster, oracle = sides
        sql = f"select k, s, f, d from t{where} order by {keys} limit {limit} offset {offset}"
        assert oracle.check(cluster, sql, ordered=True) is None

    @settings(max_examples=100, **_SETTINGS)
    @given(GLOBAL_AGGREGATES, MAYBE_WHERE)
    def test_aggregates_without_group_by(self, sides, aggregates, where):
        cluster, oracle = sides
        assert oracle.check(cluster, f"select {', '.join(aggregates)} from t{where}") is None

    @pytest.mark.parametrize("sql", [
        "select k from t where f <> 5",                      # NaN is NULL in <>
        "select k from t where not (f <> 5)",                # ... and two-valued above it
        "select k from t where f is null or s is null",
        "select k from t where s in ('a', null)",
        "select k from t where s not in ('a', null)",
        "select k from t where s like 'a_b'",                # _ matches the newline
        "select k from t where s like '%b' and s not like 'a%'",
        "select k, year(d), month(d) from t",
        "select s, count(*), count(f), sum(f), min(f), max(f), avg(f) from t group by s",
        "select f, g, count(*), min(s), max(s) from t group by f, g",
        "select h, sum(k), avg(k) from t where k >= 120 group by h",
        "select year(d), month(d), count(*) from t group by year(d), month(d)",
        "select g, sum(case when f > 0 then 1 else 0 end) from t group by g",
        "select count(*), sum(f), avg(f) from t where k < 0",  # no rows at all
    ])
    def test_named_cases(self, sides, sql):
        cluster, oracle = sides
        assert oracle.check(cluster, sql) is None


# -- the scan path: containers of several blocks, delete vectors, pruning -----------

BIG_COLUMNS = [("k", ColumnType.INT), ("v", ColumnType.INT), ("s", ColumnType.VARCHAR),
               ("f", ColumnType.FLOAT), ("r", ColumnType.VARCHAR)]
BIG_ROWS = 54_000
#: ``r`` follows ``k`` in runs of this many rows (NULL in every seventh run):
#: stored RLE, and its block and container min/max prune like ``k``'s.
BIG_RUN = 1_500
#: Hits the first and the last COPY slice and leaves the middle one alone.
BIG_DELETE = "k between 5000 and 5999 or (k >= 40000 and v < 20)"


def _run_name(k: int) -> object:
    run = k // BIG_RUN
    return None if run % 7 == 3 else f"r{run:02d}"


@pytest.fixture(scope="module")
def big_sides():
    """A table sorted (and segmented) on ``k``, loaded as three COPY slices of
    disjoint key ranges — container and block min/max of ``k`` both prune —
    into containers of three blocks each, then a DELETE that leaves delete
    vectors on some containers only.  ``s`` is stored DICT and ``r`` RLE."""
    draw = random.Random(23)
    rows = [(k, draw.randrange(200), draw.choice(STRINGS), draw.choice(FLOATS), _run_name(k))
            for k in range(BIG_ROWS)]
    cluster = EonCluster(["a", "b"], shard_count=2, seed=31)
    cluster.create_table("big", BIG_COLUMNS)
    for start in range(0, BIG_ROWS, BIG_ROWS // 3):
        cluster.load("big", rows[start:start + BIG_ROWS // 3])
    oracle = SqliteOracle("big", BIG_COLUMNS, rows)
    cluster.execute(f"delete from big where {BIG_DELETE}")
    oracle.db.execute(f"delete from big where {BIG_DELETE}")
    oracle.db.commit()
    return cluster, oracle


_key = st.one_of(st.integers(-5, BIG_ROWS + 5),
                 st.sampled_from([0, 4095, 4096, 5000, 5999, 6000, 17_999, 18_000, 40_000,
                                  BIG_ROWS - 1]))
_width = st.sampled_from([0, 1, 40, 700, 5_000])
_second = st.integers(-1, 200)


@st.composite
def big_leaves(draw) -> str:
    kind = draw(st.sampled_from(["range", "range", "point", "in", "open", "v_point",
                                 "v_range", "v_in"]))
    if kind == "range":
        low = draw(_key)
        return f"k between {low} and {low + draw(_width)}"
    if kind == "point":
        return f"k = {draw(_key)}"
    if kind == "in":
        return f"k in {_in_list([str(draw(_key)) for _ in range(draw(st.integers(1, 4)))])}"
    if kind == "open":
        # Near an end of the key range, so the answer stays small.
        return draw(st.sampled_from([f"k < {draw(st.integers(-5, 3_000))}",
                                     f"k >= {BIG_ROWS - draw(st.integers(-5, 3_000))}"]))
    if kind == "v_point":
        return f"v = {draw(_second)}"
    if kind == "v_range":
        low = draw(_second)
        return f"v between {low} and {low + draw(st.integers(0, 3))}"
    return f"v in {_in_list([str(draw(_second)) for _ in range(draw(st.integers(1, 3)))])}"


big_predicates = st.one_of(
    big_leaves(),
    st.tuples(big_leaves(), big_leaves()).map(lambda p: f"{p[0]} and {p[1]}"),
    st.tuples(big_leaves(), big_leaves()).map(lambda p: f"({p[0]}) or ({p[1]})"),
)

_run = st.integers(-1, BIG_ROWS // BIG_RUN).map("r{:02d}".format)


@st.composite
def string_leaves(draw) -> str:
    """Predicates on ``s`` (DICT: twelve values, NULL among them, in no
    order) and on ``r`` (RLE: runs that follow ``k``, so min/max prunes)."""
    kind = draw(st.sampled_from([
        "compare", "in", "like", "is_null", "length", "substr", "r_compare", "r_in",
        "r_like", "r_is_null",
    ]))
    op, negated = draw(OPS), draw(st.sampled_from(["", "not "]))
    if kind == "compare":
        return f"s {op} {_quoted(draw(_string))}"
    if kind == "in":
        items = [_quoted(v) for v in draw(st.lists(_string, min_size=1, max_size=3))]
        return f"s {negated}in {_in_list(items + draw(st.sampled_from([[], ['null']])))}"
    if kind == "like":
        return f"s {negated}like {_quoted(draw(_pattern))}"
    if kind == "is_null":
        return f"s is {negated}null"
    if kind == "length":
        return f"length(s) {op} {draw(st.integers(0, 3))}"
    if kind == "substr":
        start, size = draw(st.integers(1, 3)), draw(st.sampled_from(["", ", 1", ", 2"]))
        return f"substr(s, {start}{size}) {op} {_quoted(draw(_string))}"
    if kind == "r_compare":
        return f"r {op} {_quoted(draw(_run))}"
    if kind == "r_in":
        return f"r {negated}in {_in_list([_quoted(draw(_run)) for _ in range(draw(st.integers(1, 3)))])}"
    if kind == "r_like":
        return f"r {negated}like {_quoted(draw(st.sampled_from(['r0%', 'r1_', '%5', 'r%', 'r2'])))}"
    return f"r is {negated}null"


#: Alone, and AND/OR-ed with the ``k``/``v`` leaves above.  A window on ``k``
#: goes around the ones that would return most of the table.
string_predicates = st.one_of(
    string_leaves(),
    st.tuples(string_leaves(), big_leaves()).map(lambda p: f"{p[0]} and {p[1]}"),
    st.tuples(big_leaves(), string_leaves()).map(lambda p: f"({p[0]}) or ({p[1]})"),
    st.tuples(string_leaves(), string_leaves()).map(lambda p: f"({p[0]}) and not ({p[1]})"),
    st.tuples(string_leaves(), string_leaves(), big_leaves()).map(
        lambda p: f"(({p[0]}) or ({p[1]})) and {p[2]}"),
).flatmap(lambda p: st.sampled_from([
    f"({p}) and k between 3000 and 9000", f"({p}) and k >= 38000 and k < 43000", p,
]))


class TestTheScanPathAgainstSqlite:
    """Every query runs twice: the second run reads on the layouts the depot
    kept from the first (``tests/test_scan_path.py`` walls that they are)."""

    def test_the_table_is_what_the_docstring_says(self, big_sides):
        cluster, _ = big_sides
        state = cluster.any_up_node().catalog.state
        containers = state.containers_of("big_super")
        assert len(containers) == 6 and min(c.row_count for c in containers) > 2 * 4096
        tombstoned = {str(d.target_sid) for d in state.delete_vectors.values()}
        assert 0 < len(tombstoned) < len(containers)
        point = cluster.query("select v from big where k = 20000")
        work = point.stats.per_node.values()
        assert sum(w.containers_pruned for w in work) == 4
        assert sum(w.blocks_pruned for w in work) == 4  # two of three blocks, per shard

    @settings(max_examples=120, **_SETTINGS)
    @given(big_predicates)
    def test_where_on_the_sort_column_and_a_second_column(self, big_sides, predicate):
        cluster, oracle = big_sides
        sql = f"select k, v, s, f from big where {predicate}"
        assert oracle.check(cluster, sql) is None
        assert oracle.check(cluster, sql) is None

    @settings(max_examples=40, **_SETTINGS)
    @given(big_predicates)
    def test_aggregates_over_the_pruned_scan(self, big_sides, predicate):
        cluster, oracle = big_sides
        sql = f"select count(*), sum(v), min(k), max(k), count(s) from big where {predicate}"
        if oracle.query(f"select count(*) from big where {predicate}") == [(0,)]:
            sql = f"select count(*), sum(v), count(s) from big where {predicate}"
        assert oracle.check(cluster, sql) is None
        assert oracle.check(cluster, sql) is None

    @settings(max_examples=150, **_SETTINGS)
    @given(string_predicates)
    def test_where_on_the_string_columns(self, big_sides, predicate):
        cluster, oracle = big_sides
        sql = f"select k, s, r from big where {predicate}"
        assert oracle.check(cluster, sql) is None
        assert oracle.check(cluster, sql) is None

    @settings(max_examples=60, **_SETTINGS)
    @given(
        st.sampled_from(["s", "s, v", "r", "r, s", "v, s", "substr(s, 1, 1)"]),
        st.lists(st.sampled_from([
            "count(*)", "count(s)", "count(r)", "sum(v)", "sum(f)", "min(s)", "max(s)",
            "min(r)", "max(r)", "min(k)", "max(f)", "count(distinct s)", "count(distinct r)",
            "avg(v)",
        ]), min_size=1, max_size=4, unique=True),
        st.one_of(st.just(""), string_predicates.map(lambda p: f" where {p}"),
                  big_predicates.map(lambda p: f" where {p}")),
    )
    def test_group_by_strings(self, big_sides, keys, aggregates, where):
        cluster, oracle = big_sides
        if sum("distinct" in a for a in aggregates) and len(aggregates) > 1:
            aggregates = [a for a in aggregates if "distinct" not in a] or aggregates[:1]
        sql = f"select {keys}, {', '.join(aggregates)} from big{where} group by {keys}"
        assert oracle.check(cluster, sql) is None
        assert oracle.check(cluster, sql) is None

    @settings(max_examples=40, **_SETTINGS)
    @given(
        st.sampled_from(["s, k", "r, s, k", "s, r, k", "r, k", "s, v, k", "s desc, k",
                         "r desc, s desc, k", "f desc, k"]),
        st.integers(1, 50), st.integers(0, 30),
        st.one_of(string_predicates, big_predicates),
    )
    def test_order_by_strings_then_limit(self, big_sides, keys, limit, offset, predicate):
        """NULL strings last, first descending; ``k`` is unique, so the order
        is total."""
        cluster, oracle = big_sides
        sql = (f"select k, s, r, v, f from big where {predicate} "
               f"order by {keys} limit {limit} offset {offset}")
        assert oracle.check(cluster, sql, ordered=True) is None
        assert oracle.check(cluster, sql, ordered=True) is None

    def test_a_string_that_follows_the_sort_key_prunes(self, big_sides):
        """``r`` is stored in runs: its container and block min/max cut the
        scan like ``k``'s (in the middle slice, which has no delete vector) —
        and what is left still equals SQLite's answer."""
        cluster, oracle = big_sides
        for predicate in ("r = 'r20'", "r in ('r13', 'r14')"):
            sql = f"select k, r from big where {predicate}"
            work = cluster.query(sql).stats.per_node.values()
            assert sum(w.containers_pruned for w in work) == 4
            assert sum(w.blocks_pruned for w in work) == 4  # two of three, per shard
            assert oracle.check(cluster, sql) is None

    @pytest.mark.parametrize("sql", [
        "select s, count(*), min(r), max(r) from big group by s",
        "select r, count(*), count(s), min(s), max(s), sum(v) from big group by r",
        "select s, v, count(*), sum(f) from big where k < 9000 group by s, v",
        "select count(*) from big where s is null and r is null",
        "select count(distinct s), count(distinct r) from big where k between 4000 and 7000",
        "select k, s from big where s like 'a%' and s <> 'ab' and k between 5500 and 6500",
        "select k, r from big where r in ('r03', 'r04', 'zz') or r is null and k < 6200",
        "select k, upper(s), lower(s), length(r) from big where k between 5990 and 6010",
        "select k from big where (case when s < 'b' then r else s end) = 'r00'",
    ])
    def test_named_string_cases(self, big_sides, sql):
        cluster, oracle = big_sides
        assert oracle.check(cluster, sql) is None
        assert oracle.check(cluster, sql) is None

    @pytest.mark.parametrize("sql", [
        "select count(*), sum(k), count(s), count(f) from big",
        "select k from big where k between 4990 and 6010",          # across the deleted range
        "select k, v from big where k >= 39990 and k < 40100",      # half-deleted by v
        "select count(*) from big where k between 17000 and 19000",  # across two slices
        "select v, count(*) from big where k between 4000 and 4200 group by v",
        "select k, s from big where k in (0, 4095, 4096, 8191, 8192, 53999)",
    ])
    def test_named_cases(self, big_sides, sql):
        cluster, oracle = big_sides
        assert oracle.check(cluster, sql) is None
        assert oracle.check(cluster, sql) is None


# -- a LEFT join whose ON clause holds more than the key equality -------------------

LEFT_T = [("k", ColumnType.INT), ("x", ColumnType.INT), ("ts", ColumnType.VARCHAR)]
LEFT_U = [("uk", ColumnType.INT), ("y", ColumnType.INT), ("us", ColumnType.VARCHAR),
          ("uf", ColumnType.FLOAT)]


@pytest.fixture(scope="module", params=["eon", "enterprise"])
def join_sides(request):
    draw = random.Random(41)
    t = [(k, draw.randrange(10), draw.choice(STRINGS[:5])) for k in range(60)]
    # Keys 0..39 twice over (two candidates per preserved row), none above.
    u = [(k % 40, draw.randrange(10), draw.choice(STRINGS[:5]), draw.choice(FLOATS))
         for k in range(80)]
    if request.param == "eon":
        cluster = EonCluster(["a", "b", "c"], shard_count=3, seed=43)
        load = cluster.load
    else:
        cluster = EnterpriseCluster(["a", "b", "c"], seed=43)
        load = lambda table, rows: cluster.load(table, rows, direct=True)  # noqa: E731
    cluster.create_table("t", LEFT_T)
    cluster.create_table("u", LEFT_U)
    load("t", t)
    load("u", u)
    oracle = SqliteOracle("t", LEFT_T, t)
    oracle.add_table("u", LEFT_U, u)
    return cluster, oracle


_on_extra = st.sampled_from([
    "x > y", "x <= y", "x + y = 9", "ts < us", "ts >= us", "x > y and ts <> us", "ts = us",
    "x > 4", "y > 4", "us like 'a%'", "x > y or us is null", "uf > 0", "x > 4 and y < 5",
])


class TestLeftJoinAgainstSqlite:
    def test_the_row_that_was_dropped(self):
        """ROADMAP item 1's wrong answer, as reported: the pair (2, 5)-(2, 9)
        fails ``x > y``, so k = 2 has no match and is padded — not dropped."""
        for cluster, load in (
            (EonCluster(["a", "b"], shard_count=2, seed=3), None),
            (EnterpriseCluster(["a", "b"], seed=3), "direct"),
        ):
            cluster.create_table("t", LEFT_T[:2])
            cluster.create_table("u", LEFT_U[:2])
            for table, rows in (("t", [(1, 5), (2, 5), (3, 5)]), ("u", [(1, 1), (2, 9)])):
                cluster.load(table, rows, **({"direct": True} if load else {}))
            sql = "select k, x, uk, y from t left join u on k = uk and x > y"
            assert sorted(cluster.query(sql).rows.to_pylist()) == [
                (1, 5, 1, 1), (2, 5, 0, 0), (3, 5, 0, 0)]
            oracle = SqliteOracle("t", LEFT_T[:2], [(1, 5), (2, 5), (3, 5)])
            oracle.add_table("u", LEFT_U[:2], [(1, 1), (2, 9)])
            assert oracle.check(cluster, sql) is None

    @settings(max_examples=60, **_SETTINGS)
    @given(_on_extra, st.sampled_from(["", " where x < 7", " where uf is null", " where us is not null"]))
    def test_on_conjuncts_beside_the_key(self, join_sides, extra, where):
        cluster, oracle = join_sides
        sql = f"select k, x, ts, uk, y, us, uf from t left join u on k = uk and ({extra}){where}"
        assert oracle.check(cluster, sql) is None

    def test_every_preserved_row_survives_any_on_clause(self, join_sides):
        cluster, _ = join_sides
        for extra in ("x > y", "x > 100", "ts < us and x > y"):
            keys = cluster.query(
                f"select k from t left join u on k = uk and {extra}").rows.column("k")
            assert set(keys.tolist()) == set(range(60))


class TestTheOracleItself:
    def test_rendering_makes_the_deviations_explicit(self):
        assert to_sqlite("select k from t where not (s = 'a''b')") == (
            "select k from t where (not coalesce((s = 'a''b'), 0))")
        assert to_sqlite("select year(d), k / 2 from t") == (
            "select cast(strftime('%Y', d * 86400, 'unixepoch') as integer), "
            "(k * 1.0 / 2) from t")
        assert to_sqlite("select g, sum(f) from t group by g") == (
            "select g, coalesce(sum(f), 0) from t group by g")
        assert to_sqlite("select distinct g from t order by g limit 3 offset 2") == (
            "select distinct g from t order by g is null, g limit 3 offset 2")
        assert to_sqlite("select g, count(*) c from t group by g order by 2, g offset 1") == (
            "select g, count(*) as c from t group by g "
            "order by count(*) is null, count(*), g is null, g limit -1 offset 1")
        assert to_sqlite("select k, uk, us from t left join u on k = uk and x > y",
                         {"u": {"uk": ColumnType.INT, "y": ColumnType.INT}}) == (
            "select k, coalesce(uk, 0), us from t "
            "left join u on (coalesce((k = uk), 0) and coalesce((x > y), 0))")
        types = {"t": dict(COLUMNS), "u": {"uk": ColumnType.INT, "us": ColumnType.VARCHAR}}
        assert to_sqlite("select k, us from t, u join w on k = wk where k = uk "
                         "order by f desc, s desc, k", types) == (
            "select k, us from t, u join w on coalesce((k = wk), 0) "
            "where coalesce((k = uk), 0) "
            "order by f is null, f desc, s is not null, s desc, k is null, k")
        assert to_sqlite("select s x, min(k), max(d), min(f) from t group by s "
                         "having count(*) > 1 order by x desc", types) == (
            "select s as x, coalesce(min(k), 0), coalesce(max(d), 0), min(f) from t "
            "group by s having coalesce((count(*) > 1), 0) order by x is not null, x desc")
        with pytest.raises(NotImplementedError):
            to_sqlite("delete from t where k = 1")

    @pytest.mark.parametrize("ours, theirs, same", [
        ([(1, float("nan"), True)], [(1, None, 1)], True),
        ([(0, 0.1 + 0.2, False)], [(0, 0.3, 0)], True),
        ([(1, 1.0, True), (1, 1.0, True)], [(1, 1.0, 1)], False),
        # q01's sum_base_price and sum_charge near 7e7, ours / SQLite's.
        ([(1, 70_758_488.71500003, True), (2, 73_563_259.36085, True)],
         [(1, 70_758_488.7149999, 1), (2, 73_563_259.36084984, 1)], True),
        # q08's 1995 share: item 1(a)'s wrong answer, 4e-7 apart.
        ([(1, 0.152600566, True)], [(1, 0.152600627, 1)], False),
    ], ids=["nan-is-null", "summed-in-another-order", "multiplicity", "q01-near-7e7", "q08-share"])
    def test_multiset_normalises_null_and_rounding(self, ours, theirs, same):
        """NaN is NULL, a bool is an int, floats agree to a relative 1e-9
        and no further, and a row's multiplicity counts."""
        columns = [("k", ColumnType.INT), ("x", ColumnType.FLOAT), ("b", ColumnType.BOOL)]
        cluster = EonCluster(["a"], shard_count=1, seed=1)
        cluster.create_table("p", columns)
        cluster.load("p", ours)
        oracle = SqliteOracle("p", columns, theirs)
        assert (oracle.check(cluster, "select k, x, b from p") is None) == same

    def test_a_wrong_answer_is_reported(self, sides):
        cluster, oracle = sides
        oracle.db.execute("update t set f = 6.0 where k = 3")
        try:
            message = oracle.check(cluster, "select k, f from t where k < 5")
        finally:
            oracle.db.rollback()
        assert message is not None and "only SQLite" in message

    def test_strftime_agrees_with_the_calendar_on_the_generated_dates(self, sides):
        _, oracle = sides
        for k, year, month in oracle.query("select k, year(d), month(d) from t"):
            (days,) = oracle.db.execute("select d from t where k = ?", (k,)).fetchone()
            assert days_to_date(days).startswith(f"{year:04d}-{month:02d}-")
