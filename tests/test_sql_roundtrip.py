"""Property test: random expressions render to SQL, parse back, and
evaluate identically — a parser/printer/evaluator consistency check."""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.common.types import ColumnType, TableSchema
from repro.engine.expressions import (
    BinaryOp,
    ColumnRef,
    Expr,
    FuncCall,
    InList,
    IsNull,
    Literal,
    UnaryOp,
)
from repro.storage.container import RowSet
from tests.test_sql import parse_expression

SCHEMA = TableSchema.of(
    ("x", ColumnType.INT), ("y", ColumnType.FLOAT), ("s", ColumnType.VARCHAR)
)
ROWS = RowSet.from_rows(
    SCHEMA,
    [(1, 0.5, "ab"), (-3, 2.0, None), (7, -1.25, "zz"), (0, 0.0, "")],
)


def render(expr: Expr) -> str:
    """Expression tree -> SQL text."""
    if isinstance(expr, ColumnRef):
        return expr.name
    if isinstance(expr, Literal):
        if expr.value is None:
            return "null"
        if isinstance(expr.value, str):
            escaped = expr.value.replace("'", "''")
            return f"'{escaped}'"
        return repr(expr.value)
    if isinstance(expr, BinaryOp):
        return f"({render(expr.left)} {expr.op} {render(expr.right)})"
    if isinstance(expr, UnaryOp):
        op = "not " if expr.op == "not" else "-"
        return f"({op}{render(expr.operand)})"
    if isinstance(expr, InList):
        values = ", ".join(render(Literal(v)) for v in expr.values)
        return f"{render(expr.operand)} in ({values})"
    if isinstance(expr, IsNull):
        negated = " not" if expr.negated else ""
        return f"{render(expr.operand)} is{negated} null"
    if isinstance(expr, FuncCall):
        args = ", ".join(render(a) for a in expr.args)
        return f"{expr.name}({args})"
    raise AssertionError(type(expr))


# -- expression generators -----------------------------------------------------

int_literals = st.integers(min_value=-50, max_value=50).map(Literal)
columns = st.sampled_from(["x", "y"]).map(ColumnRef)
leaves = st.one_of(int_literals, columns)

numeric = st.deferred(lambda: st.one_of(
    leaves,
    st.tuples(st.sampled_from(["+", "-", "*"]), numeric, numeric).map(
        lambda t: BinaryOp(t[0], t[1], t[2])
    ),
))

boolean = st.deferred(lambda: st.one_of(
    st.tuples(st.sampled_from(["<", "<=", ">", ">=", "=", "<>"]), numeric, numeric).map(
        lambda t: BinaryOp(t[0], t[1], t[2])
    ),
    st.tuples(st.sampled_from(["and", "or"]), boolean, boolean).map(
        lambda t: BinaryOp(t[0], t[1], t[2])
    ),
    boolean.map(lambda e: UnaryOp("not", e)),
    st.tuples(numeric, st.lists(st.integers(-50, 50), min_size=1, max_size=4)).map(
        lambda t: InList(t[0], tuple(t[1]))
    ),
    st.just(IsNull(ColumnRef("s"))),
    st.just(IsNull(ColumnRef("s"), negated=True)),
))


class TestRoundTrip:
    @given(numeric)
    @settings(max_examples=150, deadline=None)
    def test_numeric_roundtrip(self, expr):
        reparsed = parse_expression(render(expr))
        original = expr.evaluate(ROWS)
        again = reparsed.evaluate(ROWS)
        assert np.allclose(
            original.astype(np.float64), again.astype(np.float64)
        )

    @given(boolean)
    @settings(max_examples=150, deadline=None)
    def test_boolean_roundtrip(self, expr):
        reparsed = parse_expression(render(expr))
        assert list(expr.evaluate(ROWS)) == list(reparsed.evaluate(ROWS))

    @given(boolean)
    @settings(max_examples=100, deadline=None)
    def test_repr_stable_under_reparse(self, expr):
        """repr equality is used for expression matching in the binder;
        parse(render(e)) must at least agree with itself."""
        once = parse_expression(render(expr))
        twice = parse_expression(render(once if isinstance(once, Expr) else expr))
        assert repr(once) == repr(twice)

    def test_string_escape_roundtrip(self):
        expr = BinaryOp("=", ColumnRef("s"), Literal("it's"))
        reparsed = parse_expression(render(expr))
        assert list(expr.evaluate(ROWS)) == list(reparsed.evaluate(ROWS))
