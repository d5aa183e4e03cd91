"""Expression evaluation and range-analysis (pruning) soundness."""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.common.dates import date_to_days
from repro.common.types import ColumnType, TableSchema
from repro.engine.expressions import CaseWhen, FuncCall, IsNull, Literal, col
from repro.storage.container import RowSet

def like(expr, pattern: str):
    return FuncCall("like", (expr, Literal(pattern)))


def between(expr, lo, hi):
    return (expr >= Literal(lo)) & (expr <= Literal(hi))


SCHEMA = TableSchema.of(
    ("x", ColumnType.INT),
    ("y", ColumnType.FLOAT),
    ("s", ColumnType.VARCHAR),
)


@pytest.fixture
def rows():
    return RowSet.from_rows(
        SCHEMA,
        [(1, 0.5, "apple"), (2, -1.0, "banana"), (3, 2.5, None), (4, 0.0, "APPLE")],
    )


class TestEvaluation:
    def test_comparisons(self, rows):
        assert list((col("x") >= 3).evaluate(rows)) == [False, False, True, True]
        assert list((col("y") < Literal(0)).evaluate(rows)) == [False, True, False, False]
        assert list((col("x") != 2).evaluate(rows)) == [True, False, True, True]

    def test_arithmetic(self, rows):
        out = ((col("x") * 2 + 1).evaluate(rows))
        assert list(out) == [3, 5, 7, 9]
        div = (col("x") / 2).evaluate(rows)
        assert list(div) == [0.5, 1.0, 1.5, 2.0]

    def test_boolean_logic(self, rows):
        expr = (col("x") > 1) & ~(col("s") == "banana")
        assert list(expr.evaluate(rows)) == [False, False, True, True]
        expr_or = (col("x") == 1) | (col("x") == 4)
        assert list(expr_or.evaluate(rows)) == [True, False, False, True]

    def test_null_comparisons_are_false(self, rows):
        assert list((col("s") == "apple").evaluate(rows)) == [True, False, False, False]
        assert list((col("s") != "apple").evaluate(rows)) == [False, True, False, True]
        assert list((col("s") > "a").evaluate(rows)) == [True, True, False, False]

    def test_is_null(self, rows):
        assert list(IsNull(col("s")).evaluate(rows)) == [False, False, True, False]

    def test_in_list(self, rows):
        assert list(col("x").isin([2, 4]).evaluate(rows)) == [False, True, False, True]
        assert list(col("s").isin(["apple"]).evaluate(rows)) == [True, False, False, False]

    def test_between(self, rows):
        assert list(between(col("x"), 2, 3).evaluate(rows)) == [False, True, True, False]

    def test_like(self, rows):
        assert list(like(col("s"), "a%").evaluate(rows)) == [True, False, False, False]
        assert list(like(col("s"), "%an%").evaluate(rows)) == [False, True, False, False]
        assert list(like(col("s"), "_pple").evaluate(rows)) == [True, False, False, False]

    def test_case_when(self, rows):
        expr = CaseWhen([(col("x") < 2, Literal(10)), (col("x") < 4, Literal(20))], Literal(0))
        assert list(expr.evaluate(rows)) == [10, 20, 20, 0]

    def test_case_without_else_gives_none(self, rows):
        expr = CaseWhen([(col("x") == 1, Literal("one"))], None)
        out = expr.evaluate(rows)
        assert out[0] == "one" and out[1] is None

    def test_functions(self, rows):
        assert list(FuncCall("length", (col("s"),)).evaluate(rows)) == [5, 6, 0, 5]
        assert list(FuncCall("upper", (col("s"),)).evaluate(rows))[0] == "APPLE"
        assert list(FuncCall("lower", (col("s"),)).evaluate(rows))[3] == "apple"
        assert list(FuncCall("abs", (col("y"),)).evaluate(rows)) == [0.5, 1.0, 2.5, 0.0]
        sub = FuncCall("substr", (col("s"), Literal(1), Literal(3))).evaluate(rows)
        assert sub[0] == "app"

    def test_year_month(self):
        schema = TableSchema.of(("d", ColumnType.DATE))
        rows = RowSet.from_rows(schema, [(date_to_days("1995-03-17"),)])
        assert FuncCall("year", (col("d"),)).evaluate(rows)[0] == 1995
        assert FuncCall("month", (col("d"),)).evaluate(rows)[0] == 3

    def test_columns_used(self):
        expr = (col("a") + col("b")) > FuncCall("length", (col("c"),))
        assert expr.columns_used() == {"a", "b", "c"}


class TestRangeAnalysis:
    def test_definite_misses_pruned(self):
        bounds = {"x": (10, 20)}
        assert not (col("x") < 5).could_match(bounds)
        assert not (col("x") > 25).could_match(bounds)
        assert not (col("x") == 9).could_match(bounds)
        assert not col("x").isin([1, 2, 3]).could_match(bounds)
        assert not between(col("x"), 30, 40).could_match(bounds)

    def test_possible_matches_kept(self):
        bounds = {"x": (10, 20)}
        assert (col("x") == 15).could_match(bounds)
        assert (col("x") >= 20).could_match(bounds)
        assert (col("x") <= 10).could_match(bounds)
        assert col("x").isin([5, 12]).could_match(bounds)

    def test_reversed_operand_order(self):
        bounds = {"x": (10, 20)}
        assert not (Literal(5) > col("x")).could_match(bounds)
        assert (Literal(15) > col("x")).could_match(bounds)

    def test_and_prunes_if_either_side_prunes(self):
        bounds = {"x": (10, 20)}
        assert not ((col("x") < 5) & (col("s") == "a")).could_match(bounds)
        assert not ((col("s") == "a") & (col("x") < 5)).could_match(bounds)

    def test_or_needs_both_sides_pruned(self):
        bounds = {"x": (10, 20)}
        assert ((col("x") < 5) | (col("x") > 15)).could_match(bounds)
        assert not ((col("x") < 5) | (col("x") > 25)).could_match(bounds)

    def test_unknown_columns_conservative(self):
        assert (col("unknown") == 5).could_match({"x": (1, 2)})

    def test_not_is_conservative(self):
        assert (~(col("x") == 15)).could_match({"x": (15, 15)})

    def test_string_bounds(self):
        bounds = {"s": ("aaa", "mmm")}
        assert not (col("s") > "zzz").could_match(bounds)
        assert (col("s") > "bbb").could_match(bounds)

    def test_like_prefix_pruning(self):
        bounds = {"s": ("aaa", "ccc")}
        assert not like(col("s"), "zebra%").could_match(bounds)
        assert like(col("s"), "bb%").could_match(bounds)
        assert like(col("s"), "%suffix").could_match(bounds)  # no prefix: keep

    def test_mixed_type_bounds_conservative(self):
        assert (col("x") < 5).could_match({"x": ("a", "z")})

    @given(
        st.lists(st.integers(min_value=-100, max_value=100), min_size=1, max_size=30),
        st.integers(min_value=-100, max_value=100),
        st.sampled_from(["=", "<>", "<", "<=", ">", ">="]),
    )
    @settings(max_examples=120)
    def test_pruning_never_loses_matches(self, values, literal, op):
        """Soundness: if could_match is False, no row matches."""
        from repro.engine.expressions import BinaryOp

        schema = TableSchema.of(("x", ColumnType.INT))
        rows = RowSet.from_rows(schema, [(v,) for v in values])
        expr = BinaryOp(op, col("x"), Literal(literal))
        bounds = {"x": (min(values), max(values))}
        if not expr.could_match(bounds):
            assert not expr.evaluate(rows).any()
