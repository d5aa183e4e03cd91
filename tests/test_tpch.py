"""TPC-H workload: generator invariants and full query cross-checks.

Every one of the 20 Figure-10 queries, and the Figure-11a dashboard query,
runs on both the Eon cluster and the Enterprise baseline, and each answer
must equal SQLite's (``repro.sim.oracle``: an engine that shares none of
our code past the parser) — the strongest end-to-end correctness check in
the suite, exercising sharded scans, delete-vector-free reads,
co-segmented and broadcast joins, all three aggregation strategies,
pruning, HAVING, ORDER BY in both directions, and LIMIT.
"""

import functools

import numpy as np
import pytest

from repro import EnterpriseCluster, EonCluster
from repro.workloads.dashboard import dashboard_query, setup_dashboard_schema
from repro.workloads.tpch import TPCH_QUERIES, TPCH_SCHEMAS, TpchData
from tests.helpers import dashboard_mirror, sqlite_mirror
from tests.test_types_dates import days_to_date


class TestGenerator:
    def test_cardinality_ratios(self, tpch_data):
        counts = tpch_data.row_counts()
        assert counts["region"] == 5
        assert counts["nation"] == 25
        assert counts["orders"] == counts["customer"] * 10
        assert counts["partsupp"] == counts["part"] * 4
        # ~4 lineitems per order.
        assert 2 <= counts["lineitem"] / counts["orders"] <= 6

    def test_deterministic(self):
        a = TpchData.generate(scale=0.001, seed=7)
        b = TpchData.generate(scale=0.001, seed=7)
        assert a.tables["lineitem"] == b.tables["lineitem"]

    def test_seed_changes_data(self):
        a = TpchData.generate(scale=0.001, seed=7)
        b = TpchData.generate(scale=0.001, seed=8)
        assert a.tables["lineitem"] != b.tables["lineitem"]

    def test_schemas_match(self, tpch_data):
        for name, rowset in tpch_data.tables.items():
            assert rowset.schema.names == TPCH_SCHEMAS[name].names

    def test_foreign_keys_valid(self, tpch_data):
        li = tpch_data.tables["lineitem"]
        orders = tpch_data.tables["orders"]
        assert set(np.unique(li.column("l_orderkey"))) <= set(
            orders.column("o_orderkey")
        )
        n_part = tpch_data.tables["part"].num_rows
        assert li.column("l_partkey").max() <= n_part
        customers = tpch_data.tables["customer"].num_rows
        assert orders.column("o_custkey").max() <= customers

    @pytest.mark.xfail(strict=True, reason=(
        "l_suppkey = (partkey + linenumber) % S + 1 is not one of the part's four "
        "partsupp suppliers (p + i*(S//4 + 1)) % S + 1 unless S//4 + 1 <= 7: "
        "845 of 11 920 lines at scale 0.002, none at 0.004 or 0.02, so q09 "
        "joins nothing at the benchmark's scales; fixing it re-pins q09"))
    @pytest.mark.parametrize("scale", [0.002, 0.004])
    def test_every_lineitem_part_supplier_is_a_partsupp_pair(self, scale):
        """TPC-H's rule: a lineitem's (partkey, suppkey) is a partsupp row."""
        data = TpchData.generate(scale=scale, seed=42)
        li, ps = data.tables["lineitem"], data.tables["partsupp"]
        offered = set(zip(ps.column("ps_partkey").tolist(), ps.column("ps_suppkey").tolist()))
        sold = set(zip(li.column("l_partkey").tolist(), li.column("l_suppkey").tolist()))
        assert sold <= offered

    def test_dates_in_tpch_range(self, tpch_data):
        shipdates = tpch_data.tables["lineitem"].column("l_shipdate")
        assert days_to_date(int(shipdates.min())) >= "1992-01-01"
        assert days_to_date(int(shipdates.max())) <= "1998-12-31"

    def test_lineitem_date_ordering(self, tpch_data):
        li = tpch_data.tables["lineitem"]
        assert (li.column("l_receiptdate") > li.column("l_shipdate")).all()


#: q08 and q14 divide a CASE sum whose float THEN branch meets an int ELSE.
_CASE_ELSE = pytest.mark.xfail(strict=True, reason="item 1(a): CaseWhen int ELSE truncates")


@pytest.fixture(scope="module")
def tpch_sqlite(tpch_data):
    """SQLite's mirror of the TPC-H tables.  They never change, so each
    answer is computed once and kept for the other flavor."""
    oracle = sqlite_mirror(tpch_data.tables)
    oracle.query = functools.lru_cache(maxsize=None)(oracle.query)
    return oracle


@pytest.fixture(scope="module", params=["eon", "enterprise"])
def dashboard_sides(request):
    """The dashboard star schema on one flavor, and SQLite's mirror."""
    tables, oracle = dashboard_mirror(n_events=5_000)
    if request.param == "eon":
        cluster, options = EonCluster(["n1", "n2", "n3"], shard_count=3, seed=5), {}
    else:
        cluster, options = EnterpriseCluster(["e1", "e2", "e3"], seed=5), {"direct": True}
    setup_dashboard_schema(cluster)
    for table, rows in tables.items():
        cluster.load(table, rows, **options)
    return cluster, oracle


class TestQueriesCrossCheck:
    @pytest.mark.parametrize("flavor", ["eon", "enterprise"])
    @pytest.mark.parametrize("query", [
        pytest.param(q, id=f"q{q.number:02d}", marks=[_CASE_ELSE] if q.number in (8, 14) else [])
        for q in TPCH_QUERIES
    ])
    def test_answers_equal_sqlite(self, query, flavor, request, tpch_sqlite):
        """Every Figure-10 query returns SQLite's rows, in SQLite's order."""
        cluster = request.getfixturevalue(f"tpch_{flavor}")
        assert tpch_sqlite.check(cluster, query.sql, ordered=True) is None

    def test_dashboard_answer_equals_sqlite(self, dashboard_sides):
        cluster, oracle = dashboard_sides
        assert oracle.check(cluster, dashboard_query(), ordered=True) is None

    def test_shipdate_predicate_prunes_containers(self, tpch_eon):
        """lineitem is sorted by shipdate; old-date queries prune."""
        result = tpch_eon.query(
            "select count(*) from lineitem where l_shipdate < date '1992-01-01'"
        )
        assert result.rows.to_pylist() == [(0,)]
        pruned = sum(
            w.containers_pruned for w in result.stats.per_node.values()
        )
        assert pruned > 0

