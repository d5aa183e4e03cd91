"""TPC-H-style data generator and the Figure-10 query set.

The generator is deterministic (seeded numpy RNG) and follows TPC-H's
schema, cardinality ratios, and value distributions closely enough that
the paper-relevant effects appear: selective date predicates (pruning),
joins on co-segmented keys, low-cardinality group-bys, and skewless
uniform keys.  Scale factor 1 would be 6M lineitems; tests and benches use
small fractions.

Queries: Figure 10 plots 20 TPC-H queries.  Our SQL subset has no
subqueries or table aliases, so queries that need them (Q2, Q4, Q7, Q8,
Q11, Q13, Q15, Q17, Q18, Q20) run *adapted variants* that keep the same
tables, join graph, predicates, and aggregate shapes while dropping the
nested block.  Each entry records whether it is exact or adapted.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Tuple

import numpy as np

from repro.catalog.objects import Segmentation
from repro.common.dates import make_date
from repro.common.types import ColumnType, SchemaColumn, TableSchema
from repro.storage.container import RowSet

# ---------------------------------------------------------------------------
# schema

_REGIONS = ["AFRICA", "AMERICA", "ASIA", "EUROPE", "MIDDLE EAST"]
_NATIONS = [
    ("ALGERIA", 0), ("ARGENTINA", 1), ("BRAZIL", 1), ("CANADA", 1),
    ("EGYPT", 4), ("ETHIOPIA", 0), ("FRANCE", 3), ("GERMANY", 3),
    ("INDIA", 2), ("INDONESIA", 2), ("IRAN", 4), ("IRAQ", 4),
    ("JAPAN", 2), ("JORDAN", 4), ("KENYA", 0), ("MOROCCO", 0),
    ("MOZAMBIQUE", 0), ("PERU", 1), ("CHINA", 2), ("ROMANIA", 3),
    ("SAUDI ARABIA", 4), ("VIETNAM", 2), ("RUSSIA", 3),
    ("UNITED KINGDOM", 3), ("UNITED STATES", 1),
]
_SEGMENTS = ["AUTOMOBILE", "BUILDING", "FURNITURE", "MACHINERY", "HOUSEHOLD"]
_PRIORITIES = ["1-URGENT", "2-HIGH", "3-MEDIUM", "4-NOT SPECIFIED", "5-LOW"]
_SHIPMODES = ["REG AIR", "AIR", "RAIL", "SHIP", "TRUCK", "MAIL", "FOB"]
_SHIPINSTRUCT = ["DELIVER IN PERSON", "COLLECT COD", "NONE", "TAKE BACK RETURN"]
_TYPES = [
    f"{a} {b} {c}"
    for a in ("STANDARD", "SMALL", "MEDIUM", "LARGE", "ECONOMY", "PROMO")
    for b in ("ANODIZED", "BURNISHED", "PLATED", "POLISHED", "BRUSHED")
    for c in ("TIN", "NICKEL", "BRASS", "STEEL", "COPPER")
]
_CONTAINERS = [
    f"{a} {b}"
    for a in ("SM", "LG", "MED", "JUMBO", "WRAP")
    for b in ("CASE", "BOX", "BAG", "JAR", "PKG", "PACK", "CAN", "DRUM")
]
_PART_WORDS = [
    "almond", "antique", "aquamarine", "azure", "beige", "bisque", "black",
    "blanched", "blue", "blush", "brown", "burlywood", "burnished", "chartreuse",
    "chiffon", "chocolate", "coral", "cornflower", "cornsilk", "cream", "cyan",
    "dark", "deep", "dim", "dodger", "drab", "firebrick", "floral", "forest",
    "frosted", "gainsboro", "ghost", "goldenrod", "green", "grey", "honeydew",
]

TPCH_SCHEMAS: Dict[str, TableSchema] = {
    "region": TableSchema.of(
        ("r_regionkey", ColumnType.INT),
        ("r_name", ColumnType.VARCHAR),
        ("r_comment", ColumnType.VARCHAR),
    ),
    "nation": TableSchema.of(
        ("n_nationkey", ColumnType.INT),
        ("n_name", ColumnType.VARCHAR),
        ("n_regionkey", ColumnType.INT),
        ("n_comment", ColumnType.VARCHAR),
    ),
    "supplier": TableSchema.of(
        ("s_suppkey", ColumnType.INT),
        ("s_name", ColumnType.VARCHAR),
        ("s_address", ColumnType.VARCHAR),
        ("s_nationkey", ColumnType.INT),
        ("s_phone", ColumnType.VARCHAR),
        ("s_acctbal", ColumnType.FLOAT),
        ("s_comment", ColumnType.VARCHAR),
    ),
    "customer": TableSchema.of(
        ("c_custkey", ColumnType.INT),
        ("c_name", ColumnType.VARCHAR),
        ("c_address", ColumnType.VARCHAR),
        ("c_nationkey", ColumnType.INT),
        ("c_phone", ColumnType.VARCHAR),
        ("c_acctbal", ColumnType.FLOAT),
        ("c_mktsegment", ColumnType.VARCHAR),
        ("c_comment", ColumnType.VARCHAR),
    ),
    "part": TableSchema.of(
        ("p_partkey", ColumnType.INT),
        ("p_name", ColumnType.VARCHAR),
        ("p_mfgr", ColumnType.VARCHAR),
        ("p_brand", ColumnType.VARCHAR),
        ("p_type", ColumnType.VARCHAR),
        ("p_size", ColumnType.INT),
        ("p_container", ColumnType.VARCHAR),
        ("p_retailprice", ColumnType.FLOAT),
        ("p_comment", ColumnType.VARCHAR),
    ),
    "partsupp": TableSchema.of(
        ("ps_partkey", ColumnType.INT),
        ("ps_suppkey", ColumnType.INT),
        ("ps_availqty", ColumnType.INT),
        ("ps_supplycost", ColumnType.FLOAT),
        ("ps_comment", ColumnType.VARCHAR),
    ),
    "orders": TableSchema.of(
        ("o_orderkey", ColumnType.INT),
        ("o_custkey", ColumnType.INT),
        ("o_orderstatus", ColumnType.VARCHAR),
        ("o_totalprice", ColumnType.FLOAT),
        ("o_orderdate", ColumnType.DATE),
        ("o_orderpriority", ColumnType.VARCHAR),
        ("o_clerk", ColumnType.VARCHAR),
        ("o_shippriority", ColumnType.INT),
        ("o_comment", ColumnType.VARCHAR),
    ),
    "lineitem": TableSchema.of(
        ("l_orderkey", ColumnType.INT),
        ("l_partkey", ColumnType.INT),
        ("l_suppkey", ColumnType.INT),
        ("l_linenumber", ColumnType.INT),
        ("l_quantity", ColumnType.FLOAT),
        ("l_extendedprice", ColumnType.FLOAT),
        ("l_discount", ColumnType.FLOAT),
        ("l_tax", ColumnType.FLOAT),
        ("l_returnflag", ColumnType.VARCHAR),
        ("l_linestatus", ColumnType.VARCHAR),
        ("l_shipdate", ColumnType.DATE),
        ("l_commitdate", ColumnType.DATE),
        ("l_receiptdate", ColumnType.DATE),
        ("l_shipinstruct", ColumnType.VARCHAR),
        ("l_shipmode", ColumnType.VARCHAR),
        ("l_comment", ColumnType.VARCHAR),
    ),
}


@dataclass
class TpchData:
    """Generated TPC-H tables as RowSets, keyed by table name."""

    scale: float
    tables: Dict[str, RowSet] = field(default_factory=dict)

    @classmethod
    def generate(cls, scale: float = 0.005, seed: int = 42) -> "TpchData":
        rng = np.random.default_rng(seed)
        data = cls(scale=scale)
        n_customer = max(10, int(150_000 * scale))
        n_orders = n_customer * 10
        n_supplier = max(5, int(10_000 * scale))
        n_part = max(20, int(200_000 * scale))

        data.tables["region"] = _gen_region()
        data.tables["nation"] = _gen_nation()
        data.tables["supplier"] = _gen_supplier(rng, n_supplier)
        data.tables["customer"] = _gen_customer(rng, n_customer)
        data.tables["part"] = _gen_part(rng, n_part)
        data.tables["partsupp"] = _gen_partsupp(rng, n_part, n_supplier)
        orders, lineitem = _gen_orders_lineitem(
            rng, n_orders, n_customer, n_part, n_supplier
        )
        data.tables["orders"] = orders
        data.tables["lineitem"] = lineitem
        return data

    def row_counts(self) -> Dict[str, int]:
        return {name: rs.num_rows for name, rs in self.tables.items()}


def _strings(prefix: str, keys: np.ndarray) -> np.ndarray:
    return np.array([f"{prefix}#{int(k):09d}" for k in keys], dtype=object)


def _gen_region() -> RowSet:
    schema = TPCH_SCHEMAS["region"]
    return RowSet(
        schema,
        {
            "r_regionkey": np.arange(len(_REGIONS), dtype=np.int64),
            "r_name": np.array(_REGIONS, dtype=object),
            "r_comment": np.array(["" for _ in _REGIONS], dtype=object),
        },
    )


def _gen_nation() -> RowSet:
    schema = TPCH_SCHEMAS["nation"]
    return RowSet(
        schema,
        {
            "n_nationkey": np.arange(len(_NATIONS), dtype=np.int64),
            "n_name": np.array([n for n, _ in _NATIONS], dtype=object),
            "n_regionkey": np.array([r for _, r in _NATIONS], dtype=np.int64),
            "n_comment": np.array(["" for _ in _NATIONS], dtype=object),
        },
    )


def _gen_supplier(rng, n: int) -> RowSet:
    keys = np.arange(1, n + 1, dtype=np.int64)
    schema = TPCH_SCHEMAS["supplier"]
    return RowSet(
        schema,
        {
            "s_suppkey": keys,
            "s_name": _strings("Supplier", keys),
            "s_address": _strings("Addr", keys),
            "s_nationkey": rng.integers(0, len(_NATIONS), n).astype(np.int64),
            "s_phone": _strings("ph", keys),
            "s_acctbal": np.round(rng.uniform(-999.99, 9999.99, n), 2),
            "s_comment": np.array([""] * n, dtype=object),
        },
    )


def _gen_customer(rng, n: int) -> RowSet:
    keys = np.arange(1, n + 1, dtype=np.int64)
    schema = TPCH_SCHEMAS["customer"]
    return RowSet(
        schema,
        {
            "c_custkey": keys,
            "c_name": _strings("Customer", keys),
            "c_address": _strings("Addr", keys),
            "c_nationkey": rng.integers(0, len(_NATIONS), n).astype(np.int64),
            "c_phone": _strings("ph", keys),
            "c_acctbal": np.round(rng.uniform(-999.99, 9999.99, n), 2),
            "c_mktsegment": np.array(
                [_SEGMENTS[i] for i in rng.integers(0, len(_SEGMENTS), n)],
                dtype=object,
            ),
            "c_comment": np.array([""] * n, dtype=object),
        },
    )


def _gen_part(rng, n: int) -> RowSet:
    keys = np.arange(1, n + 1, dtype=np.int64)
    schema = TPCH_SCHEMAS["part"]
    names = np.array(
        [
            " ".join(
                _PART_WORDS[w]
                for w in rng.integers(0, len(_PART_WORDS), 3)
            )
            for _ in range(n)
        ],
        dtype=object,
    )
    mfgr = rng.integers(1, 6, n)
    brand = mfgr * 10 + rng.integers(1, 6, n)
    return RowSet(
        schema,
        {
            "p_partkey": keys,
            "p_name": names,
            "p_mfgr": np.array([f"Manufacturer#{m}" for m in mfgr], dtype=object),
            "p_brand": np.array([f"Brand#{b}" for b in brand], dtype=object),
            "p_type": np.array(
                [_TYPES[i] for i in rng.integers(0, len(_TYPES), n)], dtype=object
            ),
            "p_size": rng.integers(1, 51, n).astype(np.int64),
            "p_container": np.array(
                [_CONTAINERS[i] for i in rng.integers(0, len(_CONTAINERS), n)],
                dtype=object,
            ),
            "p_retailprice": np.round(900 + (keys % 1000) * 0.1, 2),
            "p_comment": np.array([""] * n, dtype=object),
        },
    )


def _gen_partsupp(rng, n_part: int, n_supplier: int) -> RowSet:
    # 4 suppliers per part, as in TPC-H.
    part = np.repeat(np.arange(1, n_part + 1, dtype=np.int64), 4)
    supp = (
        (part + np.tile(np.arange(4, dtype=np.int64), n_part) * (n_supplier // 4 + 1))
        % n_supplier
    ) + 1
    n = len(part)
    schema = TPCH_SCHEMAS["partsupp"]
    return RowSet(
        schema,
        {
            "ps_partkey": part,
            "ps_suppkey": supp,
            "ps_availqty": rng.integers(1, 10_000, n).astype(np.int64),
            "ps_supplycost": np.round(rng.uniform(1.0, 1000.0, n), 2),
            "ps_comment": np.array([""] * n, dtype=object),
        },
    )


_START = make_date(1992, 1, 1)
_END = make_date(1998, 8, 2)


def _gen_orders_lineitem(rng, n_orders, n_customer, n_part, n_supplier):
    okeys = np.arange(1, n_orders + 1, dtype=np.int64)
    odates = rng.integers(_START, _END - 151, n_orders).astype(np.int64)
    lines_per_order = rng.integers(1, 8, n_orders)
    n_lines = int(lines_per_order.sum())

    l_orderkey = np.repeat(okeys, lines_per_order)
    l_odate = np.repeat(odates, lines_per_order)
    l_linenumber = np.concatenate(
        [np.arange(1, k + 1, dtype=np.int64) for k in lines_per_order]
    )
    quantity = rng.integers(1, 51, n_lines).astype(np.float64)
    partkey = rng.integers(1, n_part + 1, n_lines).astype(np.int64)
    retail = 900 + (partkey % 1000) * 0.1
    extended = np.round(quantity * retail, 2)
    discount = np.round(rng.integers(0, 11, n_lines) / 100.0, 2)
    tax = np.round(rng.integers(0, 9, n_lines) / 100.0, 2)
    shipdate = l_odate + rng.integers(1, 122, n_lines)
    commitdate = l_odate + rng.integers(30, 91, n_lines)
    receiptdate = shipdate + rng.integers(1, 31, n_lines)
    today = make_date(1995, 6, 17)
    returnflag = np.where(
        receiptdate <= today,
        np.where(rng.random(n_lines) < 0.5, "R", "A"),
        "N",
    ).astype(object)
    linestatus = np.where(shipdate > today, "O", "F").astype(object)

    lineitem = RowSet(
        TPCH_SCHEMAS["lineitem"],
        {
            "l_orderkey": l_orderkey,
            "l_partkey": partkey,
            "l_suppkey": ((partkey + l_linenumber) % n_supplier + 1).astype(np.int64),
            "l_linenumber": l_linenumber,
            "l_quantity": quantity,
            "l_extendedprice": extended,
            "l_discount": discount,
            "l_tax": tax,
            "l_returnflag": returnflag,
            "l_linestatus": linestatus,
            "l_shipdate": shipdate.astype(np.int64),
            "l_commitdate": commitdate.astype(np.int64),
            "l_receiptdate": receiptdate.astype(np.int64),
            "l_shipinstruct": np.array(
                [_SHIPINSTRUCT[i] for i in rng.integers(0, 4, n_lines)], dtype=object
            ),
            "l_shipmode": np.array(
                [_SHIPMODES[i] for i in rng.integers(0, 7, n_lines)], dtype=object
            ),
            "l_comment": np.array([""] * n_lines, dtype=object),
        },
    )

    # Order totals from their lineitems.
    totals = np.zeros(n_orders + 1)
    np.add.at(totals, l_orderkey, extended * (1 + tax) * (1 - discount))
    all_f = np.zeros(n_orders + 1, dtype=bool)
    statuses = np.where(
        rng.random(n_orders) < 0.5, "F", np.where(rng.random(n_orders) < 0.5, "O", "P")
    ).astype(object)

    orders = RowSet(
        TPCH_SCHEMAS["orders"],
        {
            "o_orderkey": okeys,
            "o_custkey": rng.integers(1, n_customer + 1, n_orders).astype(np.int64),
            "o_orderstatus": statuses,
            "o_totalprice": np.round(totals[1:], 2),
            "o_orderdate": odates,
            "o_orderpriority": np.array(
                [_PRIORITIES[i] for i in rng.integers(0, 5, n_orders)], dtype=object
            ),
            "o_clerk": _strings("Clerk", rng.integers(1, 1001, n_orders)),
            "o_shippriority": np.zeros(n_orders, dtype=np.int64),
            "o_comment": np.array([""] * n_orders, dtype=object),
        },
    )
    return orders, lineitem


# ---------------------------------------------------------------------------
# physical design


def setup_tpch_schema(cluster) -> None:
    """Create the 8 tables with the projection design the queries expect.

    lineitem and orders are co-segmented on the order key (local joins);
    partsupp/part on the part key; nation and region are replicated.
    """
    for name, schema in TPCH_SCHEMAS.items():
        cluster.create_table(
            name, [(c.name, c.ctype) for c in schema.columns], create_super=False
        )
    design = {
        "lineitem": (("l_shipdate",), Segmentation.by_hash("l_orderkey")),
        "orders": (("o_orderdate",), Segmentation.by_hash("o_orderkey")),
        "customer": (("c_custkey",), Segmentation.by_hash("c_custkey")),
        "supplier": (("s_suppkey",), Segmentation.by_hash("s_suppkey")),
        "part": (("p_partkey",), Segmentation.by_hash("p_partkey")),
        "partsupp": (("ps_partkey",), Segmentation.by_hash("ps_partkey")),
        "nation": (("n_nationkey",), Segmentation.replicated()),
        "region": (("r_regionkey",), Segmentation.replicated()),
    }
    for table, (sort, seg) in design.items():
        cluster.create_projection(
            f"{table}_p", table, TPCH_SCHEMAS[table].names, list(sort), seg
        )


def load_tpch(cluster, data: TpchData) -> None:
    """Load all 8 tables (dimension tables first)."""
    for name in ("region", "nation", "supplier", "customer", "part",
                 "partsupp", "orders", "lineitem"):
        cluster.load(name, data.tables[name])


# ---------------------------------------------------------------------------
# the 20 queries of Figure 10


@dataclass(frozen=True)
class TpchQuery:
    number: int
    name: str
    sql: str
    adapted: bool  # True when the official query needed a subset rewrite


TPCH_QUERIES: List[TpchQuery] = [
    TpchQuery(1, "pricing summary report", """
        select l_returnflag, l_linestatus,
               sum(l_quantity) sum_qty,
               sum(l_extendedprice) sum_base_price,
               sum(l_extendedprice * (1 - l_discount)) sum_disc_price,
               sum(l_extendedprice * (1 - l_discount) * (1 + l_tax)) sum_charge,
               avg(l_quantity) avg_qty,
               avg(l_extendedprice) avg_price,
               avg(l_discount) avg_disc,
               count(*) count_order
        from lineitem
        where l_shipdate <= date '1998-09-01'
        group by l_returnflag, l_linestatus
        order by l_returnflag, l_linestatus
    """, adapted=False),
    TpchQuery(2, "minimum cost supplier (no correlated subquery)", """
        select s_acctbal, s_name, n_name, p_partkey, p_mfgr
        from part, partsupp, supplier, nation, region
        where p_partkey = ps_partkey and s_suppkey = ps_suppkey
          and s_nationkey = n_nationkey and n_regionkey = r_regionkey
          and p_size = 15 and p_type like '%BRASS' and r_name = 'EUROPE'
        order by s_acctbal desc, n_name, s_name, p_partkey
        limit 100
    """, adapted=True),
    TpchQuery(3, "shipping priority", """
        select l_orderkey,
               sum(l_extendedprice * (1 - l_discount)) revenue,
               o_orderdate, o_shippriority
        from customer, orders, lineitem
        where c_mktsegment = 'BUILDING'
          and c_custkey = o_custkey and l_orderkey = o_orderkey
          and o_orderdate < date '1995-03-15' and l_shipdate > date '1995-03-15'
        group by l_orderkey, o_orderdate, o_shippriority
        order by revenue desc, o_orderdate
        limit 10
    """, adapted=False),
    TpchQuery(4, "order priority checking (join instead of EXISTS)", """
        select o_orderpriority, count(distinct o_orderkey) order_count
        from orders, lineitem
        where o_orderkey = l_orderkey
          and o_orderdate >= date '1993-07-01' and o_orderdate < date '1993-10-01'
          and l_commitdate < l_receiptdate
        group by o_orderpriority
        order by o_orderpriority
    """, adapted=True),
    TpchQuery(5, "local supplier volume", """
        select n_name, sum(l_extendedprice * (1 - l_discount)) revenue
        from customer, orders, lineitem, supplier, nation, region
        where c_custkey = o_custkey and l_orderkey = o_orderkey
          and l_suppkey = s_suppkey and s_nationkey = n_nationkey
          and n_regionkey = r_regionkey and r_name = 'ASIA'
          and c_nationkey = s_nationkey
          and o_orderdate >= date '1994-01-01' and o_orderdate < date '1995-01-01'
        group by n_name
        order by revenue desc
    """, adapted=False),
    TpchQuery(6, "forecasting revenue change", """
        select sum(l_extendedprice * l_discount) revenue
        from lineitem
        where l_shipdate >= date '1994-01-01' and l_shipdate < date '1995-01-01'
          and l_discount between 0.05 and 0.07 and l_quantity < 24
    """, adapted=False),
    TpchQuery(7, "volume shipping (single nation axis)", """
        select n_name, year(l_shipdate) l_year,
               sum(l_extendedprice * (1 - l_discount)) revenue
        from lineitem, supplier, nation
        where l_suppkey = s_suppkey and s_nationkey = n_nationkey
          and n_name in ('FRANCE', 'GERMANY')
          and l_shipdate between date '1995-01-01' and date '1996-12-31'
        group by n_name, year(l_shipdate)
        order by n_name, l_year
    """, adapted=True),
    TpchQuery(8, "national market share (case-when share)", """
        select year(o_orderdate) o_year,
               sum(case when n_name = 'BRAZIL'
                        then l_extendedprice * (1 - l_discount) else 0 end)
                 / sum(l_extendedprice * (1 - l_discount)) mkt_share
        from lineitem, orders, supplier, nation
        where l_orderkey = o_orderkey and l_suppkey = s_suppkey
          and s_nationkey = n_nationkey
          and o_orderdate between date '1995-01-01' and date '1996-12-31'
        group by year(o_orderdate)
        order by o_year
    """, adapted=True),
    TpchQuery(9, "product type profit measure", """
        select n_name, year(o_orderdate) o_year,
               sum(l_extendedprice * (1 - l_discount)
                   - ps_supplycost * l_quantity) amount
        from lineitem, partsupp, orders, supplier, part, nation
        where l_orderkey = o_orderkey
          and l_suppkey = s_suppkey
          and ps_partkey = l_partkey and ps_suppkey = l_suppkey
          and p_partkey = l_partkey
          and s_nationkey = n_nationkey
          and p_name like '%green%'
        group by n_name, year(o_orderdate)
        order by n_name, o_year desc
    """, adapted=False),
    TpchQuery(10, "returned item reporting", """
        select c_custkey, c_name,
               sum(l_extendedprice * (1 - l_discount)) revenue,
               c_acctbal, n_name
        from customer, orders, lineitem, nation
        where c_custkey = o_custkey and l_orderkey = o_orderkey
          and o_orderdate >= date '1993-10-01' and o_orderdate < date '1994-01-01'
          and l_returnflag = 'R' and c_nationkey = n_nationkey
        group by c_custkey, c_name, c_acctbal, n_name
        order by revenue desc
        limit 20
    """, adapted=False),
    TpchQuery(11, "important stock identification (constant threshold)", """
        select ps_partkey, sum(ps_supplycost * ps_availqty) value
        from partsupp, supplier, nation
        where ps_suppkey = s_suppkey and s_nationkey = n_nationkey
          and n_name = 'GERMANY'
        group by ps_partkey
        having sum(ps_supplycost * ps_availqty) > 20000
        order by value desc
        limit 100
    """, adapted=True),
    TpchQuery(12, "shipping modes and order priority", """
        select l_shipmode,
               sum(case when o_orderpriority = '1-URGENT'
                         or o_orderpriority = '2-HIGH' then 1 else 0 end) high_line_count,
               sum(case when o_orderpriority <> '1-URGENT'
                        and o_orderpriority <> '2-HIGH' then 1 else 0 end) low_line_count
        from orders, lineitem
        where o_orderkey = l_orderkey
          and l_shipmode in ('MAIL', 'SHIP')
          and l_commitdate < l_receiptdate and l_shipdate < l_commitdate
          and l_receiptdate >= date '1994-01-01' and l_receiptdate < date '1995-01-01'
        group by l_shipmode
        order by l_shipmode
    """, adapted=False),
    TpchQuery(13, "customer order counts (top heavy hitters)", """
        select o_custkey, count(*) c_count
        from orders
        where o_comment not like '%special%requests%'
        group by o_custkey
        order by c_count desc, o_custkey
        limit 100
    """, adapted=True),
    TpchQuery(14, "promotion effect", """
        select 100.00 * sum(case when p_type like 'PROMO%'
                                 then l_extendedprice * (1 - l_discount)
                                 else 0 end)
               / sum(l_extendedprice * (1 - l_discount)) promo_revenue
        from lineitem, part
        where l_partkey = p_partkey
          and l_shipdate >= date '1995-09-01' and l_shipdate < date '1995-10-01'
    """, adapted=False),
    TpchQuery(15, "top supplier (direct ranking)", """
        select s_suppkey, s_name,
               sum(l_extendedprice * (1 - l_discount)) total_revenue
        from lineitem, supplier
        where l_suppkey = s_suppkey
          and l_shipdate >= date '1996-01-01' and l_shipdate < date '1996-04-01'
        group by s_suppkey, s_name
        order by total_revenue desc
        limit 10
    """, adapted=True),
    TpchQuery(16, "parts/supplier relationship", """
        select p_brand, p_type, p_size, count(distinct ps_suppkey) supplier_cnt
        from partsupp, part
        where p_partkey = ps_partkey
          and p_brand <> 'Brand#45'
          and p_size in (49, 14, 23, 45, 19, 3, 36, 9)
        group by p_brand, p_type, p_size
        order by supplier_cnt desc, p_brand, p_type, p_size
        limit 50
    """, adapted=False),
    TpchQuery(17, "small-quantity-order revenue (fixed threshold)", """
        select sum(l_extendedprice) / 7.0 avg_yearly
        from lineitem, part
        where p_partkey = l_partkey
          and p_brand = 'Brand#23' and p_container = 'MED BOX'
          and l_quantity < 3
    """, adapted=True),
    TpchQuery(18, "large volume customer (HAVING form)", """
        select o_orderkey, o_orderdate, o_totalprice, sum(l_quantity) total_qty
        from orders, lineitem
        where o_orderkey = l_orderkey
        group by o_orderkey, o_orderdate, o_totalprice
        having sum(l_quantity) > 300
        order by o_totalprice desc, o_orderdate
        limit 100
    """, adapted=True),
    TpchQuery(19, "discounted revenue", """
        select sum(l_extendedprice * (1 - l_discount)) revenue
        from lineitem, part
        where p_partkey = l_partkey
          and ((p_brand = 'Brand#12' and l_quantity between 1 and 11
                and p_size between 1 and 5)
            or (p_brand = 'Brand#23' and l_quantity between 10 and 20
                and p_size between 1 and 10)
            or (p_brand = 'Brand#34' and l_quantity between 20 and 30
                and p_size between 1 and 15))
          and l_shipmode in ('AIR', 'REG AIR')
          and l_shipinstruct = 'DELIVER IN PERSON'
    """, adapted=False),
    TpchQuery(20, "potential part promotion (direct join)", """
        select s_name, count(distinct ps_partkey) parts_offered
        from partsupp, supplier, nation
        where ps_suppkey = s_suppkey and s_nationkey = n_nationkey
          and n_name = 'CANADA' and ps_availqty > 100
        group by s_name
        order by s_name
        limit 50
    """, adapted=True),
]
