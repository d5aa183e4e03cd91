"""The oracle: the campaign's SQL mirrored into stdlib ``sqlite3``.

Every COPY and DML the scenario applies to the simulated Eon cluster is also
applied to :class:`SqliteOracle`.  A query's result on the chaos cluster must
equal SQLite's for the same SQL — node kills, S3 storms, rebalances, and
revives may change *where* data is read from, never *what* the answer is.
The property tests, and the 20 TPC-H queries of Figure 10 and the dashboard
query on both cluster flavors, use the same mirror.  Only our parser (and so
its defects) is shared; bind, plan, scan, the kernels and the write path are
checked against an engine that shares no code with them.  :func:`to_sqlite`
renders every SELECT of our subset: comma ``FROM`` lists, inner and LEFT
joins, GROUP BY, HAVING, and ORDER BY in either direction;
:func:`normalise` brings both engines' rows to one comparable form.

The rendering makes this engine's documented deviations explicit instead of
hiding them in the comparison:

* **Two-valued NULL logic.**  A comparison, IN or LIKE with a NULL operand
  is False here, not UNKNOWN, so ``NOT (s = 'a')`` keeps a NULL ``s``.  Each
  such leaf is rendered ``coalesce(<leaf>, 0)``; AND/OR/NOT above it then
  agree.
* **Dates are days.**  ``year(d)``/``month(d)`` become ``strftime`` over
  ``d * 86400`` seconds since the epoch.
* **``/`` is float division**; ``length(NULL)`` is 0; ``sum`` over no
  non-NULL value is 0, not NULL.
* **``min``/``max`` of an int, date or bool column over no rows is 0**, not
  NULL (those columns have no NULL): rendered ``coalesce(min(x), 0)``.
* LIKE is case-sensitive (``PRAGMA case_sensitive_like=ON``).
* **ORDER BY puts NULL last**, except a string key descending, whose NULL
  comes first (SQLite puts NULL first ascending, last descending):
  ``ORDER BY g`` is rendered ``ORDER BY g IS NULL, g`` and a descending
  string ``s`` ``ORDER BY s IS NOT NULL, s DESC``.  Ints, dates and bools
  have no NULL.
* **A LEFT join pads int, date and bool columns with 0** (they have no
  NULL): a SELECT item that is such a column of the joined table is rendered
  ``coalesce(col, 0)``.

DML is not rendered: the campaign's DELETE/UPDATE statements have no NULL
operand, so SQLite runs their text as-is.
"""

from __future__ import annotations

import sqlite3
from collections import Counter
from math import isclose
from typing import Iterable, List, Mapping, Optional, Sequence, Tuple

from repro.common.types import ColumnType
from repro.engine.expressions import (
    BinaryOp,
    CaseWhen,
    ColumnRef,
    Expr,
    FuncCall,
    InList,
    IsNull,
    Literal,
    UnaryOp,
)
from repro.sql.ast import AggregateCall, Select
from repro.sql.parser import parse

_SQLITE_TYPES = {
    ColumnType.INT: "integer", ColumnType.DATE: "integer", ColumnType.BOOL: "integer",
    ColumnType.FLOAT: "real", ColumnType.VARCHAR: "text",
}
#: The types that hold no NULL here (DESIGN.md "What NULL is").
_NO_NULL = (ColumnType.INT, ColumnType.DATE, ColumnType.BOOL)
_COMPARISONS = ("=", "<>", "<", "<=", ">", ">=")


def rows_key(result) -> List[Tuple]:
    """Canonical, order-insensitive form of a cluster's query result."""
    return sorted(tuple(row) for row in result.rows.to_pylist())


def _literal(value: object) -> str:
    if value is None:
        return "null"
    if isinstance(value, bool):
        return str(int(value))
    if isinstance(value, str):
        return "'" + value.replace("'", "''") + "'"
    return repr(value)


def render(expr: Expr, types: Mapping[str, ColumnType]) -> str:
    """One expression of our subset as SQLite SQL; ``types`` are the types
    of the columns in scope."""
    if isinstance(expr, ColumnRef):
        return expr.name
    if isinstance(expr, Literal):
        return _literal(expr.value)
    if isinstance(expr, BinaryOp):
        left, right = render(expr.left, types), render(expr.right, types)
        if expr.op in _COMPARISONS:
            return f"coalesce(({left} {expr.op} {right}), 0)"
        if expr.op == "/":
            return f"({left} * 1.0 / {right})"
        return f"({left} {expr.op} {right})"
    if isinstance(expr, UnaryOp):
        return f"({expr.op} {render(expr.operand, types)})"
    if isinstance(expr, InList):
        listed = ", ".join(_literal(v) for v in expr.values)
        return f"coalesce(({render(expr.operand, types)} in ({listed})), 0)"
    if isinstance(expr, IsNull):
        return f"({render(expr.operand, types)} is {'not ' if expr.negated else ''}null)"
    if isinstance(expr, CaseWhen):
        branches = " ".join(
            f"when {render(cond, types)} then {render(value, types)}"
            for cond, value in expr.branches
        )
        return f"(case {branches} else {render(expr.default, types)} end)"
    if isinstance(expr, AggregateCall):
        if expr.argument is None:
            return "count(*)"
        inner = ("distinct " if expr.distinct else "") + render(expr.argument, types)
        column = expr.argument.name if isinstance(expr.argument, ColumnRef) else None
        if expr.func == "sum" or expr.func in ("min", "max") and types.get(column) in _NO_NULL:
            return f"coalesce({expr.func}({inner}), 0)"
        return f"{expr.func}({inner})"
    if isinstance(expr, FuncCall):
        args = [render(a, types) for a in expr.args]
        if expr.name == "like":
            return f"coalesce(({args[0]} like {args[1]}), 0)"
        if expr.name in ("year", "month"):
            field = "%Y" if expr.name == "year" else "%m"
            return f"cast(strftime('{field}', {args[0]} * 86400, 'unixepoch') as integer)"
        if expr.name == "length":
            return f"coalesce(length({args[0]}), 0)"
        return f"{expr.name}({', '.join(args)})"  # substr, abs, lower, upper
    raise NotImplementedError(f"no SQLite rendering for {expr!r}")


def to_sqlite(
    sql: str, column_types: Optional[Mapping[str, Mapping[str, ColumnType]]] = None,
) -> str:
    """A SELECT of our subset as SQLite SQL.  ``column_types`` maps each
    table to its columns' types: the int, date and bool columns, which have
    no NULL here, and the string keys, whose NULL sorts first descending."""
    (select,) = parse(sql)
    if not isinstance(select, Select):
        raise NotImplementedError("the oracle renders SELECT statements")
    tables = column_types or {}
    types = {
        column: ctype
        for ref in select.tables + [join.table for join in select.joins]
        for column, ctype in tables.get(ref.name, {}).items()
    }
    padded = {
        column for join in select.joins if join.how == "left"
        for column, ctype in tables.get(join.table.name, {}).items() if ctype in _NO_NULL
    }
    items = [
        (f"coalesce({expr.name}, 0)" if isinstance(expr, ColumnRef) and expr.name in padded
         else render(expr, types)) + (f" as {alias}" if alias else "")
        for expr, alias in select.items
    ]
    out = "select " + ("distinct " if select.distinct else "") + ", ".join(items)
    out += " from " + ", ".join(ref.name for ref in select.tables)
    for join in select.joins:
        how = "left join" if join.how == "left" else "join"
        out += f" {how} {join.table.name} on {render(join.condition, types)}"
    if select.where is not None:
        out += f" where {render(select.where, types)}"
    if select.group_by:
        out += " group by " + ", ".join(render(expr, types) for expr in select.group_by)
    if select.having is not None:
        out += f" having {render(select.having, types)}"
    aliased = {alias: expr for expr, alias in select.items if alias}
    keys = []
    for item in select.order_by:
        key = item.expr
        if isinstance(key, Literal) and isinstance(key.value, int):
            key = select.items[key.value - 1][0]  # a position names an output
        text = render(key, types)
        if item.ascending:
            keys.append(f"{text} is null, {text}")
            continue
        named = aliased.get(key.name, key) if isinstance(key, ColumnRef) else key
        string = isinstance(named, ColumnRef) and types.get(named.name) == ColumnType.VARCHAR
        keys.append(f"{text} is {'not ' if string else ''}null, {text} desc")
    if keys:
        out += " order by " + ", ".join(keys)
    if select.limit is not None or select.offset:
        limit = -1 if select.limit is None else select.limit
        out += f" limit {limit} offset {select.offset}"
    return out


def normalise(rows: Iterable[Sequence[object]], ordered: bool) -> List[tuple]:
    """Rows of either engine in one form: NaN (our float NULL) is NULL and
    bools are ints; in their order when ``ordered``, else sorted (NULL
    last in each column)."""
    out = [
        tuple(None if v != v else int(v) if isinstance(v, bool) else v for v in row)
        for row in rows
    ]
    return out if ordered else sorted(out, key=lambda row: [(v is None, v) for v in row])


class SqliteOracle:
    """Tables of a cluster, mirrored into an in-memory SQLite database."""

    def __init__(
        self, table: str, columns: Sequence[Tuple[str, ColumnType]],
        rows: Sequence[Sequence[object]],
    ):
        self.db = sqlite3.connect(":memory:")
        self.db.execute("PRAGMA case_sensitive_like=ON")
        #: table -> {column: its type}, for the renderings that need it.
        self.column_types: dict = {}
        #: Queries checked so far; each takes the next session seed.
        self._asked = 0
        self.add_table(table, columns, rows)

    def add_table(
        self, table: str, columns: Sequence[Tuple[str, ColumnType]],
        rows: Sequence[Sequence[object]],
    ) -> None:
        self.column_types[table] = dict(columns)
        declared = ", ".join(f"{name} {_SQLITE_TYPES[ctype]}" for name, ctype in columns)
        self.db.execute(f"create table {table} ({declared})")
        self.load(table, rows)

    def load(self, table: str, rows: Sequence[Sequence[object]]) -> None:
        """The rows a COPY into ``table`` committed."""
        if rows:
            slots = ", ".join("?" for _ in rows[0])
            self.db.executemany(f"insert into {table} values ({slots})", [tuple(r) for r in rows])

    def execute(self, dml: str) -> int:
        """Run a DELETE or UPDATE as written; the number of rows it touched."""
        return self.db.execute(dml).rowcount

    def query(self, sql: str) -> List[tuple]:
        """Rows SQLite returns for ``sql``, which is in *our* dialect."""
        return self.db.execute(to_sqlite(sql, self.column_types)).fetchall()

    def query_rows(self, sql: str) -> List[tuple]:
        """SQLite's answer to ``sql`` in :func:`rows_key` form."""
        return sorted(self.query(sql))

    def check(self, cluster, sql: str, ordered: bool = False) -> Optional[str]:
        """None when ``cluster.query(sql)`` returns SQLite's multiset of
        rows — the same rows in the same order with ``ordered``, for a query
        whose ORDER BY is total — else a description of the difference."""
        # Asked twice on one session layout: the first derives the statement's
        # plan, the second finds it kept, and nothing else may differ.
        self._asked += 1
        first, again = (cluster.query(sql, seed=self._asked) for _ in range(2))
        ours = normalise(first.rows.to_pylist(), ordered)
        if (normalise(again.rows.to_pylist(), ordered), again.stats.latency_seconds) != (
            ours, first.stats.latency_seconds
        ):
            return f"{sql}\n  answered differently when its plan was reused"
        # Floats agree to a relative 1e-9: sums add in another order, and
        # near 7e7 a double's spacing is already 1.5e-8.
        theirs = normalise(self.query(sql), ordered)
        if len(ours) == len(theirs) and all(
            len(mine) == len(other) and all(
                x == y or isinstance(x, float) and isinstance(y, float)
                and isclose(x, y, rel_tol=1e-9)
                for x, y in zip(mine, other)
            )
            for mine, other in zip(ours, theirs)
        ):
            return None
        only_ours, only_theirs = Counter(ours) - Counter(theirs), Counter(theirs) - Counter(ours)
        return (
            f"{sql}\n  as SQLite: {to_sqlite(sql, self.column_types)}\n"
            f"  only ours:   {sorted(only_ours.items(), key=repr)[:5]}\n"
            f"  only SQLite: {sorted(only_theirs.items(), key=repr)[:5]}\n"
            f"  first rows, ours / SQLite: {ours[:3]} / {theirs[:3]}"
        )
