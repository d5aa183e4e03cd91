"""Differential testing: random queries vs an independent numpy oracle.

Hypothesis generates simple analytic queries; each runs on the Eon
cluster, the Enterprise cluster, and a from-scratch numpy evaluator.  All
three must agree — a broad net over the scan/filter/aggregate/segmentation
pipeline that hand-written cases cannot match.
"""

import hashlib
from typing import Dict, List, Optional, Tuple

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings, strategies as st

from repro import ColumnType, EnterpriseCluster, EonCluster

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
    return eon, ent


# -- query generator ---------------------------------------------------------

comparisons = st.sampled_from(["<", "<=", ">", ">=", "=", "<>"])


@st.composite
def predicates(draw) -> Tuple[str, "callable"]:
    """Returns (sql_fragment, row_mask_fn over the raw tuples)."""
    kind = draw(st.sampled_from(["int_cmp", "str_eq", "between", "in", "and", "or"]))
    if kind == "int_cmp":
        op = draw(comparisons)
        value = draw(st.integers(min_value=-10, max_value=610))
        py = {"<": "__lt__", "<=": "__le__", ">": "__gt__", ">=": "__ge__",
              "=": "__eq__", "<>": "__ne__"}[op]
        return f"k {op} {value}", lambda r, v=value, p=py: getattr(r[0], p)(v)
    if kind == "str_eq":
        value = draw(st.sampled_from([f"g{i}" for i in range(6)]))
        return f"g = '{value}'", lambda r, v=value: r[2] == v
    if kind == "between":
        lo = draw(st.integers(min_value=0, max_value=500))
        hi = lo + draw(st.integers(min_value=0, max_value=200))
        return (
            f"k between {lo} and {hi}",
            lambda r, a=lo, b=hi: a <= r[0] <= b,
        )
    if kind == "in":
        values = draw(st.lists(st.integers(0, 6), min_size=1, max_size=3))
        sql = f"m in ({', '.join(map(str, values))})"
        return sql, lambda r, vs=set(values): r[1] in vs
    left_sql, left_fn = draw(predicates())
    right_sql, right_fn = draw(predicates())
    if kind == "and":
        return (
            f"({left_sql}) and ({right_sql})",
            lambda r: left_fn(r) and right_fn(r),
        )
    return (
        f"({left_sql}) or ({right_sql})",
        lambda r: left_fn(r) or right_fn(r),
    )


@st.composite
def queries(draw):
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
        sql += f" where {where[0]}"
    if group:
        sql += f" group by {group} order by {group}"
    return sql, group, where, aggs


def oracle(group: Optional[str], where, aggs: List[str]) -> List[tuple]:
    rows = [r for r in ROWS if where is None or where[1](r)]
    index = {"k": 0, "m": 1, "g": 2, "v": 3}

    def compute(agg: str, members: List[tuple]):
        if agg == "count(*)":
            return len(members)
        if agg == "count(distinct m)":
            return len({r[1] for r in members})
        column = agg[agg.index("(") + 1]
        values = [r[index[column]] for r in members]
        if agg.startswith("sum"):
            return sum(values) if values else (0 if column != "v" else 0.0)
        if agg.startswith("min"):
            return min(values) if values else 0
        if agg.startswith("max"):
            return max(values) if values else 0
        if agg.startswith("avg"):
            return sum(values) / len(values) if values else float("nan")
        raise AssertionError(agg)

    if group is None:
        return [tuple(compute(a, rows) for a in aggs)]
    keys = sorted({r[index[group]] for r in rows})
    out = []
    for key in keys:
        members = [r for r in rows if r[index[group]] == key]
        out.append((key,) + tuple(compute(a, members) for a in aggs))
    return out


def canon(rows: List[tuple]) -> List[tuple]:
    out = []
    for row in rows:
        out.append(tuple(
            round(v, 6) if isinstance(v, float) and not np.isnan(v) else
            ("nan" if isinstance(v, float) and np.isnan(v) else v)
            for v in row
        ))
    return out


class TestDifferential:
    @given(queries())
    @settings(
        max_examples=120,
        deadline=None,
        suppress_health_check=[HealthCheck.function_scoped_fixture],
    )
    def test_eon_enterprise_oracle_agree(self, clusters, query):
        sql, group, where, aggs = query
        eon, ent = clusters
        expected = canon(oracle(group, where, aggs))
        got_eon = canon(eon.query(sql).rows.to_pylist())
        assert got_eon == expected, f"Eon diverged on: {sql}"
        got_ent = canon(ent.query(sql).rows.to_pylist())
        assert got_ent == expected, f"Enterprise diverged on: {sql}"


# -- TPC-H subset: depot temperature x I/O scheduler must not matter ----------


def row_digest(rows: List[tuple]) -> str:
    """Order-insensitive row-level digest of a canonicalized result."""
    return hashlib.sha256(
        repr(sorted(canon(rows), key=repr)).encode()
    ).hexdigest()


@pytest.fixture(scope="module")
def tpch_pair():
    """Two identically-seeded Eon TPC-H clusters: the scheduler, and the
    :class:`SerialFetch` reference arm.

    Tables are loaded in slices so each shard holds several containers —
    the shape that exercises dedup, coalescing, and prefetch."""
    from repro.workloads.tpch import TpchData, load_tpch, setup_tpch_schema
    from tests.test_io_scheduler import SerialFetch

    data = TpchData.generate(scale=0.002, seed=42)
    pair = []
    for scheduled in (True, False):
        cluster = EonCluster(["n1", "n2", "n3"], shard_count=3, seed=11)
        if not scheduled:
            cluster.io_scheduler = SerialFetch(cluster)
        setup_tpch_schema(cluster)
        load_tpch(cluster, data)
        rows = data.tables["lineitem"].to_pylist()
        for slice_no in range(3):  # extra slices => more containers
            chunk = rows[slice_no::7][:40]
            if chunk:
                cluster.load("lineitem", chunk)
        pair.append(cluster)
    return pair


@pytest.mark.slow
class TestTpchSchedulerDifferential:
    """Cold vs warm depots, scheduler on vs off: all four runs of every
    query must return identical rows and row digests."""

    QUERIES = (1, 3, 5, 6, 10, 12)

    def _subset(self):
        from repro.workloads.tpch import TPCH_QUERIES

        return [q for q in TPCH_QUERIES if q.number in self.QUERIES]

    def test_four_way_agreement(self, tpch_pair):
        on, off = tpch_pair
        for query in self._subset():
            digests = {}
            for label, cluster in (("on", on), ("off", off)):
                for node in cluster.nodes.values():
                    node.cache.clear()
                cold = cluster.query(query.sql).rows.to_pylist()
                warm = cluster.query(query.sql).rows.to_pylist()
                digests[f"{label}-cold"] = row_digest(cold)
                digests[f"{label}-warm"] = row_digest(warm)
                assert canon(cold) == canon(warm), (
                    f"Q{query.number}: depot temperature changed rows "
                    f"(scheduler {label})"
                )
            assert len(set(digests.values())) == 1, (
                f"Q{query.number}: digests diverged: {digests}"
            )

    def test_warm_runs_stay_off_shared_storage(self, tpch_pair):
        on, _ = tpch_pair
        query = self._subset()[0]
        on.query(query.sql)  # ensure warm
        stats = on.query(query.sql).stats
        assert stats.total_bytes_from_shared == 0
        assert stats.total_prefetch_hits == 0  # nothing left to prefetch

    def test_scheduler_spends_fewer_gets_cold(self, tpch_pair):
        on, off = tpch_pair
        query = self._subset()[0]
        deltas = []
        for cluster in (on, off):
            for node in cluster.nodes.values():
                node.cache.clear()
            before = cluster.shared.metrics.get_requests
            cluster.query(query.sql)
            deltas.append(cluster.shared.metrics.get_requests - before)
        assert deltas[0] < deltas[1], (
            f"scheduler-on used {deltas[0]} GETs, off used {deltas[1]}"
        )
