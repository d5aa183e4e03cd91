"""Random queries on both cluster flavors, each held to SQLite.

Hypothesis generates simple analytic queries; each runs on the Eon cluster
and on the Enterprise cluster, and each answer must equal SQLite's
(``repro.sim.oracle``) — a broad net over the scan/filter/aggregate/
segmentation pipeline that hand-written cases cannot match.  Then a TPC-H
subset runs from cold and warm depots with the I/O scheduler on and off:
all four runs of every query must return SQLite's answer.
"""

import functools

import pytest
from hypothesis import HealthCheck, given, settings, strategies as st

from repro import ColumnType, EnterpriseCluster, EonCluster
from repro.sim.oracle import SqliteOracle
from tests.helpers import answered, clear_depots, lineitem_slices, load_in_slices, sqlite_mirror

ROWS = [(i, i % 7, f"g{i % 5}", float(i % 11) * 0.5) for i in range(600)]
COLUMNS = [
    ("k", ColumnType.INT), ("m", ColumnType.INT),
    ("g", ColumnType.VARCHAR), ("v", ColumnType.FLOAT),
]


@pytest.fixture(scope="module")
def clusters():
    eon = EonCluster(["a", "b", "c"], shard_count=3, seed=23)
    eon.create_table("t", COLUMNS)
    eon.load("t", ROWS)
    ent = EnterpriseCluster(["a", "b", "c"], seed=23)
    ent.create_table("t", COLUMNS)
    ent.load("t", ROWS, direct=True)
    return eon, ent, SqliteOracle("t", COLUMNS, ROWS)


# -- query generator ---------------------------------------------------------

comparisons = st.sampled_from(["<", "<=", ">", ">=", "=", "<>"])


@st.composite
def predicates(draw) -> str:
    kind = draw(st.sampled_from(["int_cmp", "str_eq", "between", "in", "and", "or"]))
    if kind == "int_cmp":
        return f"k {draw(comparisons)} {draw(st.integers(min_value=-10, max_value=610))}"
    if kind == "str_eq":
        return f"g = '{draw(st.sampled_from([f'g{i}' for i in range(6)]))}'"
    if kind == "between":
        lo = draw(st.integers(min_value=0, max_value=500))
        return f"k between {lo} and {lo + draw(st.integers(min_value=0, max_value=200))}"
    if kind == "in":
        values = draw(st.lists(st.integers(0, 6), min_size=1, max_size=3))
        return f"m in ({', '.join(map(str, values))})"
    return f"({draw(predicates())}) {kind} ({draw(predicates())})"


@st.composite
def queries(draw) -> str:
    group = draw(st.sampled_from([None, "g", "m"]))
    where = draw(st.one_of(st.none(), predicates()))
    aggs = draw(st.lists(
        st.sampled_from(["count(*)", "sum(k)", "sum(v)", "min(k)", "max(k)",
                         "avg(v)", "count(distinct m)"]),
        min_size=1, max_size=3, unique=True,
    ))
    select = ", ".join(([group] if group else []) + aggs)
    sql = f"select {select} from t"
    if where is not None:
        sql += f" where {where}"
    if group:
        sql += f" group by {group} order by {group}"
    return sql


class TestDifferential:
    @given(queries())
    @settings(
        max_examples=120,
        deadline=None,
        suppress_health_check=[HealthCheck.function_scoped_fixture],
    )
    def test_eon_enterprise_oracle_agree(self, clusters, sql):
        eon, ent, oracle = clusters
        assert oracle.check(eon, sql, ordered=True) is None
        assert oracle.check(ent, sql, ordered=True) is None


# -- TPC-H subset: depot temperature x I/O scheduler must not matter ----------


@pytest.fixture(scope="module")
def tpch_pair(tpch_data):
    """Two identically-seeded Eon TPC-H clusters loaded in slices (several
    containers per shard: the shape that exercises dedup, coalescing, and
    prefetch) — the scheduler, and the :class:`SerialFetch` reference arm —
    and SQLite's mirror of what they hold."""
    from tests.test_io_scheduler import SerialFetch

    pair = []
    for scheduled in (True, False):
        cluster = EonCluster(["n1", "n2", "n3"], shard_count=3, seed=11)
        if not scheduled:
            cluster.io_scheduler = SerialFetch(cluster)
        pair.append(load_in_slices(cluster, tpch_data))
    oracle = sqlite_mirror(tpch_data.tables)
    for chunk in lineitem_slices(tpch_data):
        oracle.load("lineitem", chunk)
    oracle.query = functools.lru_cache(maxsize=None)(oracle.query)
    return pair + [oracle]


@pytest.mark.slow
class TestTpchSchedulerDifferential:
    """Cold vs warm depots, scheduler on vs off: each of the four runs of
    every query must return SQLite's rows."""

    QUERIES = (1, 3, 5, 6, 10, 12)

    def _subset(self):
        from repro.workloads.tpch import TPCH_QUERIES

        return [q for q in TPCH_QUERIES if q.number in self.QUERIES]

    def test_four_way_agreement(self, tpch_pair):
        on, off, oracle = tpch_pair
        for query in self._subset():
            for label, cluster in (("on", on), ("off", off)):
                clear_depots(cluster)
                for temperature in ("cold", "warm"):
                    result = cluster.query(query.sql)
                    assert oracle.check(answered(result), query.sql, ordered=True) is None, (
                        f"Q{query.number}: scheduler {label}, {temperature} depot")

    def test_warm_runs_stay_off_shared_storage(self, tpch_pair):
        """From cleared depots, one run warms the depots of its layout, and
        every later run on that layout reads nothing from shared storage.
        The layout is pinned by ``seed=``: an unpinned run draws its
        subscribers afresh and may serve a shard from a depot the warm-up
        never filled."""
        on = clear_depots(tpch_pair[0])
        query = self._subset()[0]
        on.query(query.sql, seed=7)
        for _ in range(4):
            stats = on.query(query.sql, seed=7).stats
            assert stats.total_bytes_from_shared == 0
            assert stats.total_prefetch_hits == 0  # nothing left to prefetch

    def test_scheduler_spends_fewer_gets_cold(self, tpch_pair):
        on, off, _ = tpch_pair
        query = self._subset()[0]
        deltas = []
        for cluster in (on, off):
            clear_depots(cluster)
            before = cluster.shared.metrics.get_requests
            cluster.query(query.sql)
            deltas.append(cluster.shared.metrics.get_requests - before)
        assert deltas[0] < deltas[1], (
            f"scheduler-on used {deltas[0]} GETs, off used {deltas[1]}"
        )
