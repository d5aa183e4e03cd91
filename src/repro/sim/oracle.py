"""The oracle: the campaign's SQL mirrored into stdlib ``sqlite3``.

Every COPY and DML the scenario applies to the simulated Eon cluster is also
applied to :class:`SqliteOracle`.  A query's result on the chaos cluster must
equal SQLite's for the same SQL — node kills, S3 storms, rebalances, and
revives may change *where* data is read from, never *what* the answer is.
The property tests use the same mirror.  Only our parser (and so its
defects) is shared; bind, plan, scan, the kernels and the write path are
checked against an engine that shares no code with them.  :func:`to_sqlite`
renders a SELECT over one table or ``t LEFT JOIN u ON ...`` (other joins,
HAVING and DESC stay with ROADMAP item 1); :func:`normalise` brings both
engines' rows to one comparable form.

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
* LIKE is case-sensitive (``PRAGMA case_sensitive_like=ON``).
* **ORDER BY puts NULL last** when ascending (SQLite puts it first):
  ``ORDER BY g`` is rendered ``ORDER BY g IS NULL, g``.  Descending, our
  placement depends on the column's type; that stays unrendered.
* **A LEFT join pads int, date and bool columns with 0** (they have no
  NULL): a SELECT item that is such a column of the joined table is rendered
  ``coalesce(col, 0)``.

DML is not rendered: the campaign's DELETE/UPDATE statements have no NULL
operand, so SQLite runs their text as-is.
"""

from __future__ import annotations

import sqlite3
from collections import Counter
from typing import Collection, Iterable, List, Mapping, Optional, Sequence, Tuple

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


def render(expr: Expr) -> str:
    """One expression of our subset as SQLite SQL."""
    if isinstance(expr, ColumnRef):
        return expr.name
    if isinstance(expr, Literal):
        return _literal(expr.value)
    if isinstance(expr, BinaryOp):
        left, right = render(expr.left), render(expr.right)
        if expr.op in _COMPARISONS:
            return f"coalesce(({left} {expr.op} {right}), 0)"
        if expr.op == "/":
            return f"({left} * 1.0 / {right})"
        return f"({left} {expr.op} {right})"
    if isinstance(expr, UnaryOp):
        return f"({expr.op} {render(expr.operand)})"
    if isinstance(expr, InList):
        listed = ", ".join(_literal(v) for v in expr.values)
        return f"coalesce(({render(expr.operand)} in ({listed})), 0)"
    if isinstance(expr, IsNull):
        return f"({render(expr.operand)} is {'not ' if expr.negated else ''}null)"
    if isinstance(expr, CaseWhen):
        branches = " ".join(
            f"when {render(cond)} then {render(value)}" for cond, value in expr.branches
        )
        return f"(case {branches} else {render(expr.default)} end)"
    if isinstance(expr, AggregateCall):
        if expr.argument is None:
            return "count(*)"
        inner = ("distinct " if expr.distinct else "") + render(expr.argument)
        if expr.func == "sum":
            return f"coalesce(sum({inner}), 0)"
        return f"{expr.func}({inner})"
    if isinstance(expr, FuncCall):
        args = [render(a) for a in expr.args]
        if expr.name == "like":
            return f"coalesce(({args[0]} like {args[1]}), 0)"
        if expr.name in ("year", "month"):
            field = "%Y" if expr.name == "year" else "%m"
            return f"cast(strftime('{field}', {args[0]} * 86400, 'unixepoch') as integer)"
        if expr.name == "length":
            return f"coalesce(length({args[0]}), 0)"
        return f"{expr.name}({', '.join(args)})"  # substr, abs, lower, upper
    raise NotImplementedError(f"no SQLite rendering for {expr!r}")


def to_sqlite(sql: str, int_columns: Optional[Mapping[str, Collection[str]]] = None) -> str:
    """A single-table SELECT of our subset, or one over ``t LEFT JOIN u ON
    ...``, as SQLite SQL.  ``int_columns`` names each table's columns that
    have no NULL here, for the padding of a LEFT join."""
    (select,) = parse(sql)
    if (
        not isinstance(select, Select) or len(select.tables) != 1
        or len(select.joins) > 1 or any(join.how != "left" for join in select.joins)
    ):
        raise NotImplementedError("the oracle renders one table, or one LEFT JOIN")
    if select.having is not None:
        raise NotImplementedError("HAVING stays with ROADMAP item 1")
    padded = {
        c for join in select.joins for c in (int_columns or {}).get(join.table.name, ())
    }
    items = [
        (f"coalesce({expr.name}, 0)" if isinstance(expr, ColumnRef) and expr.name in padded
         else render(expr)) + (f" as {alias}" if alias else "")
        for expr, alias in select.items
    ]
    out = "select " + ("distinct " if select.distinct else "") + ", ".join(items)
    out += f" from {select.tables[0].name}"
    for join in select.joins:
        out += f" left join {join.table.name} on {render(join.condition)}"
    if select.where is not None:
        out += f" where {render(select.where)}"
    if select.group_by:
        out += " group by " + ", ".join(render(expr) for expr in select.group_by)
    keys = []
    for item in select.order_by:
        if not item.ascending:
            raise NotImplementedError("ORDER BY ... DESC stays with ROADMAP item 1")
        key = item.expr
        if isinstance(key, Literal) and isinstance(key.value, int):
            key = select.items[key.value - 1][0]  # a position names an output
        keys.append(f"{render(key)} is null, {render(key)}")
    if keys:
        out += " order by " + ", ".join(keys)
    if select.limit is not None or select.offset:
        limit = -1 if select.limit is None else select.limit
        out += f" limit {limit} offset {select.offset}"
    return out


def normalise(rows: Iterable[Sequence[object]]) -> List[tuple]:
    """Rows of either engine in one form, order kept: NaN (our float NULL) is
    NULL, floats rounded to 9 places (sums add in another order), bools are
    ints."""

    def cell(value: object) -> object:
        if isinstance(value, float):
            return None if value != value else round(value, 9)
        return int(value) if isinstance(value, bool) else value

    return [tuple(cell(v) for v in row) for row in rows]


class SqliteOracle:
    """Tables of a cluster, mirrored into an in-memory SQLite database."""

    def __init__(
        self, table: str, columns: Sequence[Tuple[str, ColumnType]],
        rows: Sequence[Sequence[object]],
    ):
        self.db = sqlite3.connect(":memory:")
        self.db.execute("PRAGMA case_sensitive_like=ON")
        #: table -> its columns that cannot hold NULL in our engine.
        self.int_columns: dict = {}
        #: Queries checked so far; each takes the next session seed.
        self._asked = 0
        self.add_table(table, columns, rows)

    def add_table(
        self, table: str, columns: Sequence[Tuple[str, ColumnType]],
        rows: Sequence[Sequence[object]],
    ) -> None:
        self.int_columns[table] = {
            name for name, ctype in columns if _SQLITE_TYPES[ctype] == "integer"
        }
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
        return self.db.execute(to_sqlite(sql, self.int_columns)).fetchall()

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
        ours = normalise(first.rows.to_pylist())
        if (normalise(again.rows.to_pylist()), again.stats.latency_seconds) != (
            ours, first.stats.latency_seconds
        ):
            return f"{sql}\n  answered differently when its plan was reused"
        theirs = normalise(self.query(sql))
        if ours == theirs or (not ordered and Counter(ours) == Counter(theirs)):
            return None
        only_ours, only_theirs = Counter(ours) - Counter(theirs), Counter(theirs) - Counter(ours)
        return (
            f"{sql}\n  as SQLite: {to_sqlite(sql, self.int_columns)}\n"
            f"  only ours:   {sorted(only_ours.items(), key=repr)[:5]}\n"
            f"  only SQLite: {sorted(only_theirs.items(), key=repr)[:5]}\n"
            f"  first rows, ours / SQLite: {ours[:3]} / {theirs[:3]}"
        )
