"""TPC-H workload: generator invariants and full query cross-checks.

Every one of the 20 Figure-10 queries runs on both the Eon cluster and the
Enterprise baseline; results must agree exactly — the strongest end-to-end
correctness check in the suite, exercising sharded scans, delete-vector-
free reads, co-segmented and broadcast joins, all three aggregation
strategies, pruning, HAVING, ORDER BY, and LIMIT.
"""

import numpy as np
import pytest

from repro.workloads.tpch import TPCH_QUERIES, TPCH_SCHEMAS, TpchData
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


class TestQueriesCrossCheck:
    @pytest.mark.parametrize(
        "query", TPCH_QUERIES, ids=[f"q{q.number:02d}" for q in TPCH_QUERIES]
    )
    def test_eon_matches_enterprise(self, query, tpch_eon, tpch_enterprise):
        eon = tpch_eon.query(query.sql)
        ent = tpch_enterprise.query(query.sql)
        assert _canon(eon.rows) == _canon(ent.rows), f"Q{query.number} diverged"

    def test_q1_reference_answer(self, tpch_eon, tpch_data):
        """Check Q1 against an independent numpy computation."""
        result = tpch_eon.query(TPCH_QUERIES[0].sql)
        li = tpch_data.tables["lineitem"]
        from repro.common.dates import date_to_days

        mask = li.column("l_shipdate") <= date_to_days("1998-09-01")
        flags = li.column("l_returnflag")[mask]
        status = li.column("l_linestatus")[mask]
        qty = li.column("l_quantity")[mask]
        expected = {}
        for f, s in {(f, s) for f, s in zip(flags, status)}:
            sel = np.array([a == f and b == s for a, b in zip(flags, status)])
            expected[(f, s)] = (round(float(qty[sel].sum()), 4), int(sel.sum()))
        for row in result.rows.to_pylist():
            key = (row[0], row[1])
            assert round(row[2], 4) == expected[key][0]
            assert row[-1] == expected[key][1]

    def test_q6_reference_answer(self, tpch_eon, tpch_data):
        result = tpch_eon.query(TPCH_QUERIES[5].sql)
        li = tpch_data.tables["lineitem"]
        from repro.common.dates import date_to_days

        mask = (
            (li.column("l_shipdate") >= date_to_days("1994-01-01"))
            & (li.column("l_shipdate") < date_to_days("1995-01-01"))
            & (li.column("l_discount") >= 0.05)
            & (li.column("l_discount") <= 0.07)
            & (li.column("l_quantity") < 24)
        )
        expected = float(
            (li.column("l_extendedprice")[mask] * li.column("l_discount")[mask]).sum()
        )
        assert result.rows.to_pylist()[0][0] == pytest.approx(expected)

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


def _canon(rows):
    out = []
    for row in rows.to_pylist():
        canon_row = tuple(
            round(v, 4) if isinstance(v, float) else v for v in row
        )
        out.append(canon_row)
    return out
