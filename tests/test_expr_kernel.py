"""Property wall for the expression, group-by and direct-address join kernels.

``reference_compare`` / ``reference_in_list`` / ``reference_like`` /
``reference_year_month`` / ``reference_group_codes`` / ``reference_lookup``
are the per-row loops, the per-column ``np.unique`` + second ``argsort``
and the ``searchsorted`` probe that ``repro.engine.expressions`` and
``repro.engine.operators`` used before the array kernels replaced them, kept
here as the oracle.  Every property asserts the same values **in the same
order with the same bits**: group order, the row that represents each group
(so the sign of a zero key survives), dense codes, float sums.

Two deliberate differences are written into the references, because they
are this PR's bug fixes and not the kernels' business:

* NULL is one rule, ``is_null`` below — ``None`` or a NaN, in any column —
  where the old loops knew only ``None``.  So ``NaN <> 5`` and
  ``NULL IN ('a', NULL)`` are False here, and they were True.
* ``reference_like`` compiles its pattern with ``re.DOTALL``.

One narrowing is kept out of the generated inputs and pinned by a test of its
own: a Python int above 2**53 in an *object* column now compares exactly
with a float (``2**53 + 1 <> 2.0**53``, Python's answer, the join kernel's
rule since PR 14); the old loop compared it through ``np.float64``, rounded.

Grouping on an object column that holds NaN *objects* is left out of the
generated inputs: the old code ordered such a column through a set of
floats whose hashes are their addresses, i.e. not at all.

The wall was mutation-checked when written; each of these fails it:
``null_mask`` returning no NULLs for object columns (or for a literal's
broadcast view), ``_dense_range`` calling every column dense or using
``<=`` at the boundary with the probe clamp removed, ``_offsets`` without
the ``% 2**64``, ``np.minimum.at`` replaced by ``np.maximum.at`` or by a
plain fancy assignment in ``_densify`` (the first-row pick), the
``_combine`` re-densify dropped, NaN runs left unmerged in ``_factorize``,
object keys left unsorted, the radix bound of ``_group_order`` one bit too
wide, and the NULL filter or ``re.DOTALL`` dropped from the expression
kernels.

Since PR 20 a string column may reach every one of these kernels as
dictionary codes (``CodedStrings``).  ``TestEncodedEqualsDecoded`` runs each
kernel on a coded batch and on its materialised twin — generated
single-column expressions (errors included), group-by, ``sort_limit``,
``hash_join``'s payload gather and ON condition, ``rowset_bytes``, the
``RowSet`` transformations — and wants the same values, dtypes and row order.
"""

import re
import warnings
from typing import Dict, List, Sequence, Tuple

import numpy as np
import pytest
from hypothesis import assume, given, settings, strategies as st

from repro.common.dates import make_date
from repro.common.types import ColumnType, SchemaColumn, TableSchema
from repro.engine import expressions, operators
from repro.engine.expressions import (
    BinaryOp,
    CaseWhen,
    FuncCall,
    InList,
    IsNull,
    Literal,
    col,
    null_mask,
)
from repro.engine.operators import (
    AggregateSpec,
    JoinBuild,
    _KeyEncoder,
    _group_codes,
    aggregate,
    hash_join,
    sort_limit,
)
from repro.storage.container import RowSet, rowset_bytes
from repro.storage.encoding import CodedStrings, dictionary_of, join_blocks
from tests.test_codec_kernel import text_of
from tests.test_join_kernel import (
    assert_same_rowset,
    match_mask,
    reference_hash_join,
    reference_match_mask,
)
from tests.test_expressions import like
from tests.test_types_dates import month_of_days, year_of_days

NAN = float("nan")


def is_null(value: object) -> bool:
    """The one NULL rule: ``None``, or a NaN of any float type."""
    return value is None or value != value


# ---------------------------------------------------------------------------
# the oracle: the old per-row loops


def reference_compare(lhs: np.ndarray, rhs: np.ndarray, op: str) -> np.ndarray:
    """``_null_safe_compare``'s index loop (it ran for object columns; the
    numeric branch was the same ufuncs as today)."""
    out = np.empty(len(lhs), dtype=bool)
    for i in range(len(lhs)):
        a, b = lhs[i], rhs[i]
        if is_null(a) or is_null(b):
            out[i] = False
            continue
        if op == "=":
            out[i] = a == b
        elif op == "<>":
            out[i] = a != b
        elif op == "<":
            out[i] = a < b
        elif op == "<=":
            out[i] = a <= b
        elif op == ">":
            out[i] = a > b
        else:
            out[i] = a >= b
    return out


def reference_in_list(value: np.ndarray, values: Sequence[object]) -> np.ndarray:
    """``InList.evaluate``'s ``v in allowed`` generator."""
    allowed = [v for v in values if not is_null(v)]
    return np.fromiter(
        (not is_null(v) and any(v == a for a in allowed) for v in value),
        dtype=bool, count=len(value),
    )


def reference_like(values: np.ndarray, pattern: str) -> np.ndarray:
    """``FuncCall('like')``'s ``regex.fullmatch`` generator."""
    parts = []
    for ch in pattern:
        parts.append(".*" if ch == "%" else "." if ch == "_" else re.escape(ch))
    regex = re.compile("".join(parts), re.DOTALL)
    return np.fromiter(
        (v is not None and regex.fullmatch(v) is not None for v in values),
        dtype=bool, count=len(values),
    )


def reference_year_month(days: np.ndarray) -> Tuple[np.ndarray, np.ndarray]:
    """``FuncCall('year'/'month')``'s per-row ``datetime.date`` generators."""
    return (
        np.fromiter((year_of_days(v) for v in days), dtype=np.int64, count=len(days)),
        np.fromiter((month_of_days(v) for v in days), dtype=np.int64, count=len(days)),
    )


def _reference_factorize(arr: np.ndarray) -> Tuple[np.ndarray, np.ndarray]:
    if arr.dtype.kind == "O":
        try:
            uniques_list = sorted({v for v in arr}, key=lambda v: (v is None, v))
        except TypeError:
            uniques_list = list(dict.fromkeys(arr.tolist()))
        index = {v: i for i, v in enumerate(uniques_list)}
        codes = np.fromiter((index[v] for v in arr), dtype=np.int64, count=len(arr))
        return codes, np.array(uniques_list, dtype=object)
    uniques, codes = np.unique(arr, return_inverse=True)
    return codes.astype(np.int64), uniques


def reference_group_codes(
    rows: RowSet, group_names: Sequence[str]
) -> Tuple[np.ndarray, Dict[str, np.ndarray], int]:
    """The old ``_factorize`` + ``_group_codes`` + ``_group_key_columns``:
    one ``np.unique`` per key column, one over the combined codes, a second
    ``argsort`` for the representatives.  Returns (dense codes, key columns
    with one row per group, group count).  Python ints for the combined
    code, so the reference itself cannot overflow."""
    if not group_names:
        return np.zeros(rows.num_rows, dtype=np.int64), {}, 1
    if rows.num_rows == 0:
        return (np.zeros(0, dtype=np.int64),
                {name: rows.column(name)[:0] for name in group_names}, 0)
    combined = [0] * rows.num_rows
    for name in group_names:
        c, u = _reference_factorize(rows.column(name))
        combined = [old * len(u) + int(new) for old, new in zip(combined, c)]
    ranks = {code: i for i, code in enumerate(sorted(set(combined)))}
    codes = np.array([ranks[code] for code in combined], dtype=np.int64)
    order = np.argsort(codes, kind="stable")
    sorted_codes = codes[order]
    is_first = np.concatenate(([True], sorted_codes[1:] != sorted_codes[:-1]))
    first_rows = order[is_first]
    keys = {name: rows.column(name)[first_rows] for name in group_names}
    return codes, keys, len(ranks)


def reference_lookup(uniques: np.ndarray, values: np.ndarray) -> np.ndarray:
    """The old ``_lookup``, then the only numeric probe: a binary search of
    the sorted distinct build keys and an equality check."""
    if len(uniques) == 0:
        return np.full(len(values), -1, dtype=np.int64)
    pos = np.searchsorted(uniques, values)
    pos[pos == len(uniques)] = 0
    return np.where(uniques[pos] == values, pos, -1)


def same_bits(a: np.ndarray, b: np.ndarray) -> bool:
    """Equal dtype and values; floats bit for bit up to NaN payloads."""
    if a.dtype != b.dtype or len(a) != len(b):
        return False
    if a.dtype.kind == "O":
        return all(
            type(x) is type(y) and (x == y or (is_null(x) and is_null(y)))
            for x, y in zip(a.tolist(), b.tolist())
        )
    if a.dtype.kind == "f":
        return bool(
            np.array_equal(a, b, equal_nan=True)
            and np.array_equal(np.signbit(a), np.signbit(b))
        )
    return bool(np.array_equal(a, b))


# ---------------------------------------------------------------------------
# generated inputs

BIG = 2 ** 53
I64 = np.iinfo(np.int64)

#: kind -> (column type, dtype, value pool).  Small pools, so values collide.
_POOLS = {
    "int": (ColumnType.INT, np.int64, [-2, -1, 0, 1, 2, 3, 7]),
    "sparse": (ColumnType.INT, np.int64,
               [-10 ** 12, -5, 0, 10 ** 6, 10 ** 9, 3 * 10 ** 12, 2 ** 61]),
    "bigint": (ColumnType.INT, np.int64,
               [BIG, BIG + 1, BIG + 2, I64.max, I64.max - 1, I64.min, I64.min + 1]),
    "float": (ColumnType.FLOAT, np.float64,
              [NAN, 0.0, -0.0, 1.0, 2.5, -1.0, float(BIG), float("inf"), float("-inf")]),
    "bool": (ColumnType.BOOL, np.bool_, [False, True]),
    "str": (ColumnType.VARCHAR, object, [None, "", "a", "b", "ab", "é", "日本", "a\nb"]),
    # An expression-fed object column: Python numbers, NULLs and NaN objects.
    "objnum": (ColumnType.VARCHAR, object, [None, 0, 1, 2, 2.5, True, NAN, BIG]),
    # Not mutually comparable: ``<`` raises, grouping falls back to first seen.
    "mixed": (ColumnType.VARCHAR, object, [None, 1, "a", 2.5, "b", 0]),
}


def _column(kind: str, values: list) -> np.ndarray:
    return np.array(values, dtype=_POOLS[kind][1])


def _rowset(columns: Dict[str, Tuple[str, np.ndarray]]) -> RowSet:
    schema = TableSchema([SchemaColumn(n, _POOLS[k][0]) for n, (k, _) in columns.items()])
    return RowSet(schema, {n: v for n, (_, v) in columns.items()})


@st.composite
def column_pairs(draw, max_rows=12):
    """Two columns of independently drawn kinds and one length (0 and 1
    included), plus one scalar from each pool to stand in as a literal."""
    n = draw(st.integers(0, max_rows))
    out = []
    for _ in range(2):
        kind = draw(st.sampled_from(sorted(_POOLS)))
        pool = _POOLS[kind][2]
        values = draw(st.lists(st.sampled_from(pool), min_size=n, max_size=n))
        out.append((kind, _column(kind, values), draw(st.sampled_from(pool))))
    return out


OPS = st.sampled_from(["=", "<>", "<", "<=", ">", ">="])


def _literal_value(value: object) -> object:
    """A pool value as the parser would hand it to ``Literal``."""
    if isinstance(value, (np.bool_, np.integer, np.floating)):
        return value.item()
    return value


class TestCompareKernel:
    @staticmethod
    def _check(rows: RowSet, expr: BinaryOp, lhs: np.ndarray, rhs: np.ndarray) -> None:
        try:
            want = reference_compare(lhs, rhs, expr.op)
        except TypeError:
            # A mixed-type ordering comparison is an error in both.
            with pytest.raises(TypeError):
                expr.evaluate(rows)
            return
        got = expr.evaluate(rows)
        assert got.dtype == np.bool_
        assert got.tolist() == want.tolist()

    @settings(max_examples=500, deadline=None)
    @given(column_pairs(), OPS)
    def test_column_against_column(self, pair, op):
        (ka, a, _), (kb, b, _) = pair
        rows = _rowset({"a": (ka, a), "b": (kb, b)})
        self._check(rows, BinaryOp(op, col("a"), col("b")), a, b)

    @settings(max_examples=500, deadline=None)
    @given(column_pairs(), OPS, st.booleans())
    def test_literal_on_either_side(self, pair, op, literal_first):
        (ka, a, _), (_, _, scalar) = pair
        rows = _rowset({"a": (ka, a)})
        literal = Literal(_literal_value(scalar))
        # What the old ``Literal.evaluate`` produced: the value n times.
        filled = literal.evaluate(rows).copy()
        if literal_first:
            self._check(rows, BinaryOp(op, literal, col("a")), filled, a)
        else:
            self._check(rows, BinaryOp(op, col("a"), literal), a, filled)

    def test_null_never_compares_true(self):
        rows = _rowset({
            "s": ("str", _column("str", [None, "a", None])),
            "t": ("str", _column("str", [None, None, "a"])),
            "f": ("float", _column("float", [NAN, 1.0, NAN])),
            "o": ("objnum", _column("objnum", [NAN, 1, None])),
        })
        for op in ("=", "<>", "<", "<=", ">", ">="):
            assert not BinaryOp(op, col("s"), col("t")).evaluate(rows).any(), op
            assert not BinaryOp(op, col("s"), Literal(None)).evaluate(rows).any(), op
            assert BinaryOp(op, col("f"), Literal(5)).evaluate(rows).tolist() == [
                False, op in ("<>", "<", "<="), False], op
            assert BinaryOp(op, Literal(1), col("o")).evaluate(rows).tolist() == [
                False, op in ("=", "<=", ">="), False], op

    def test_a_nan_object_does_not_equal_itself(self):
        column = np.empty(2, dtype=object)
        column[:] = [NAN, NAN]  # the same object twice
        rows = RowSet(TableSchema.of(("o", ColumnType.VARCHAR)), {"o": column})
        assert not BinaryOp("=", col("o"), col("o")).evaluate(rows).any()

    def test_an_object_int_above_2_to_53_compares_exactly(self):
        rows = _rowset({"o": ("objnum", _column("objnum", [BIG + 1, BIG]))})
        equal = BinaryOp("=", col("o"), Literal(float(BIG))).evaluate(rows)
        assert equal.tolist() == [False, True]  # the old loop: [True, True]

    def test_mixed_types_still_raise(self):
        rows = _rowset({"m": ("mixed", _column("mixed", [1, "a"]))})
        assert BinaryOp("=", col("m"), Literal("a")).evaluate(rows).tolist() == [False, True]
        with pytest.raises(TypeError):
            BinaryOp("<", col("m"), Literal("a")).evaluate(rows)


class TestLiteral:
    @pytest.mark.parametrize("value, dtype", [
        ("x", object), (None, object), (True, np.bool_), (7, np.int64), (2.5, np.float64),
    ])
    def test_is_a_view_of_one_value_with_the_old_dtype(self, value, dtype):
        rows = _rowset({"a": ("int", _column("int", [1, 2, 3]))})
        out = Literal(value).evaluate(rows)
        assert out.dtype == np.dtype(dtype) and out.shape == (3,)
        assert out.tolist() == [value] * 3
        assert out.strides == (0,)  # nothing was filled
        assert Literal(value).evaluate(rows.slice(0, 0)).shape == (0,)

    def test_arithmetic_and_case_results_are_ordinary_arrays(self):
        rows = _rowset({"a": ("int", _column("int", [1, 2, 3]))})
        assert ((col("a") + 1) * Literal(2.0)).evaluate(rows).tolist() == [4.0, 6.0, 8.0]
        assert (Literal(1) + Literal(2)).evaluate(rows).tolist() == [3, 3, 3]


class TestInListKernel:
    @settings(max_examples=400, deadline=None)
    @given(st.data())
    def test_same_mask_as_the_loop(self, data):
        kind = data.draw(st.sampled_from(["int", "sparse", "float", "bool", "str", "objnum"]))
        pool = _POOLS[kind][2]
        values = data.draw(st.lists(st.sampled_from(pool), max_size=12))
        listed = data.draw(st.lists(st.sampled_from(pool), max_size=4))
        rows = _rowset({"a": (kind, _column(kind, values))})
        got = InList(col("a"), tuple(listed)).evaluate(rows)
        assert got.dtype == np.bool_
        assert got.tolist() == reference_in_list(rows.column("a"), listed).tolist()

    def test_null_is_in_no_list(self):
        rows = _rowset({"s": ("str", _column("str", [None, "a"])),
                        "f": ("float", _column("float", [NAN, 1.0]))})
        assert InList(col("s"), ("a", None)).evaluate(rows).tolist() == [False, True]
        assert InList(col("s"), (None,)).evaluate(rows).tolist() == [False, False]
        assert InList(col("f"), (1.0, NAN)).evaluate(rows).tolist() == [False, True]
        assert InList(col("s"), ()).evaluate(rows).tolist() == [False, False]


_TEXT = st.text(alphabet=["a", "b", "%", "_", "\n", ".", "é", "*"], max_size=5)


class TestStringKernels:
    @settings(max_examples=400, deadline=None)
    @given(st.lists(st.one_of(st.none(), _TEXT), max_size=12), _TEXT)
    def test_like(self, values, pattern):
        rows = _rowset({"s": ("str", _column("str", values))})
        got = like(col("s"), pattern).evaluate(rows)
        assert got.dtype == np.bool_
        assert got.tolist() == reference_like(rows.column("s"), pattern).tolist()

    def test_percent_and_underscore_match_a_newline(self):
        rows = _rowset({"s": ("str", _column("str", ["a\nxb", "\n", "ab"]))})
        assert like(col("s"), "%x%").evaluate(rows).tolist() == [True, False, False]
        assert like(col("s"), "_").evaluate(rows).tolist() == [False, True, False]
        assert like(col("s"), "a_xb").evaluate(rows).tolist() == [True, False, False]

    @pytest.mark.parametrize("repeats", [1, 300])
    def test_string_functions_on_distinct_and_on_repeating_columns(self, repeats):
        """A column of distinct values and one that repeats 300 times, as
        text (``_map_non_null`` runs per row on both; a repeating column that
        arrives as codes is mapped per entry, ``TestEncodedEqualsDecoded``)
        against the per-row comprehension it replaced."""
        base = [None, "", "Ab", "é", "日本x", "a\nB"] + [f"v{i}" for i in range(40)]
        values = _column("str", (base * repeats)[: max(len(base), 1500 * (repeats > 1))])
        rows = _rowset({"s": ("str", values)})
        cases = [  # expression, per value, of NULL, dtype
            (FuncCall("lower", (col("s"),)), lambda v: v.lower(), None, object),
            (FuncCall("upper", (col("s"),)), lambda v: v.upper(), None, object),
            (FuncCall("length", (col("s"),)), len, 0, np.int64),
            (FuncCall("substr", (col("s"), Literal(2), Literal(2))),
             lambda v: v[1:3], None, object),
            (FuncCall("substr", (col("s"), Literal(1))), lambda v: v[0:], None, object),
            (like(col("s"), "%b"), lambda v: v.endswith("b"), False, np.bool_),
        ]
        for expr, func, null, dtype in cases:
            got = expr.evaluate(rows)
            assert got.dtype == dtype, expr
            assert got.tolist() == [null if v is None else func(v) for v in values], expr

    def test_empty_input(self):
        rows = _rowset({"s": ("str", _column("str", []))})
        assert FuncCall("lower", (col("s"),)).evaluate(rows).tolist() == []
        assert like(col("s"), "%").evaluate(rows).dtype == np.bool_


#: Every day ``datetime.date`` can name.
DAY_MIN, DAY_MAX = make_date(1, 1, 1), make_date(9999, 12, 31)


class TestYearMonthKernel:
    @staticmethod
    def _check(days: list) -> None:
        rows = RowSet(TableSchema.of(("d", ColumnType.DATE)),
                      {"d": np.array(days, dtype=np.int64)})
        years, months = reference_year_month(rows.column("d"))
        for name, want in (("year", years), ("month", months)):
            got = FuncCall(name, (col("d"),)).evaluate(rows)
            assert got.dtype == np.int64
            assert got.tolist() == want.tolist(), name

    @settings(max_examples=300, deadline=None)
    @given(st.lists(st.integers(DAY_MIN, DAY_MAX), max_size=20))
    def test_any_day_of_the_date_range(self, days):
        self._check(days)

    def test_edges_leap_days_and_negative_days(self):
        days = [DAY_MIN, DAY_MAX, 0, -1, 1, 58, 59, 365, -365, -366]
        for year in (1, 4, 100, 400, 1600, 1900, 1968, 1970, 1972, 2000, 2024, 2100, 9996):
            days += [make_date(year, 1, 1), make_date(year, 2, 28), make_date(year, 3, 1),
                     make_date(year, 12, 31)]
            if year % 4 == 0 and (year % 100 != 0 or year % 400 == 0):
                days.append(make_date(year, 2, 29))
        self._check(days)
        self._check([])

    def test_every_month_boundary_of_four_centuries(self):
        days = [make_date(y, m, 1) - back for y in range(1800, 2201, 7)
                for m in range(1, 13) for back in (0, 1)]
        self._check(days)


class TestNullMask:
    def test_one_rule_for_every_dtype(self):
        column = np.empty(4, dtype=object)
        column[:] = [None, NAN, "", 0]
        assert null_mask(column).tolist() == [True, True, False, False]
        assert null_mask(np.array([NAN, 0.0, -0.0])).tolist() == [True, False, False]
        # Int and bool columns have no NULL: the documented deviation.
        assert null_mask(np.array([0, 1])).tolist() == [False, False]
        assert null_mask(np.array([False, True])).tolist() == [False, False]
        assert null_mask(np.array([], dtype=object)).tolist() == []

    def test_is_null_agrees(self):
        rows = _rowset({"f": ("float", _column("float", [NAN, 1.0])),
                        "s": ("str", _column("str", [None, ""])),
                        "k": ("int", _column("int", [0, 1]))})
        assert IsNull(col("f")).evaluate(rows).tolist() == [True, False]
        assert IsNull(col("f"), negated=True).evaluate(rows).tolist() == [False, True]
        assert IsNull(col("s")).evaluate(rows).tolist() == [True, False]
        assert IsNull(col("k")).evaluate(rows).tolist() == [False, False]
        for value, want in ((None, True), (NAN, True), (0, False), ("", False)):
            assert IsNull(Literal(value)).evaluate(rows).tolist() == [want, want]
            assert IsNull(Literal(value)).evaluate(rows.slice(0, 1)).tolist() == [want]


# ---------------------------------------------------------------------------
# group-by

_GROUP_KINDS = ["int", "sparse", "bigint", "float", "bool", "str", "mixed"]


@st.composite
def group_inputs(draw, max_rows=24):
    n = draw(st.integers(0, max_rows))
    n_keys = draw(st.integers(1, 3))
    columns = {}
    for i in range(n_keys):
        kind = draw(st.sampled_from(_GROUP_KINDS))
        values = draw(st.lists(st.sampled_from(_POOLS[kind][2]), min_size=n, max_size=n))
        columns[f"k{i}"] = (kind, _column(kind, values))
    floats = st.one_of(st.just(NAN), st.floats(-1e6, 1e6, width=64))
    columns["v"] = ("float", np.array(draw(st.lists(floats, min_size=n, max_size=n)),
                                      dtype=np.float64))
    columns["w"] = ("int", np.array(draw(st.lists(st.integers(-5, 5), min_size=n, max_size=n)),
                                    dtype=np.int64))
    return _rowset(columns), [f"k{i}" for i in range(n_keys)]


def _check_grouping(rows: RowSet, keys: Sequence[str]) -> None:
    want_codes, want_keys, want_groups = reference_group_codes(rows, keys)
    codes, first_rows, n_groups = _group_codes(rows, keys)
    assert n_groups == want_groups
    assert codes.dtype == np.int64 and codes.tolist() == want_codes.tolist()
    for name in keys:  # the same row represents each group
        assert same_bits(rows.column(name)[first_rows], want_keys[name]), name

    specs = [
        AggregateSpec("sum", col("v"), "sum_v"),
        AggregateSpec("count", None, "n"),
        AggregateSpec("count", col("v"), "n_v"),
        AggregateSpec("min", col("v"), "min_v"),
        AggregateSpec("max", col("v"), "max_v"),
        AggregateSpec("max", col("w"), "max_w"),
        AggregateSpec("sum", col("w"), "sum_w"),
    ]
    out = aggregate(rows, keys, specs)
    assert out.num_rows == want_groups
    for name in keys:
        assert same_bits(out.column(name), want_keys[name]), name
    v, w = rows.column("v"), rows.column("w")
    valid = ~np.isnan(v)
    # Float sums add in row order: the very bits of the old bincount.
    # (dtype included: numpy's bincount of no rows at all is an int array.)
    want_sum = np.bincount(want_codes[valid], weights=v[valid], minlength=want_groups)
    assert same_bits(out.column("sum_v"), want_sum) or rows.num_rows == 0
    assert out.column("n").tolist() == np.bincount(want_codes, minlength=want_groups).tolist()
    assert out.column("n_v").tolist() == np.bincount(
        want_codes[valid], minlength=want_groups).tolist()
    for g in range(want_groups):
        mine = want_codes == g
        seen = v[mine & valid]
        for name, pick in (("min_v", np.min), ("max_v", np.max)):
            got = out.column(name)[g]
            assert (np.isnan(got) if len(seen) == 0 else got == pick(seen)), name
        assert out.column("max_w")[g] == w[mine].max()
        assert out.column("sum_w")[g] == w[mine].sum()


class TestGroupByKernel:
    @settings(max_examples=500, deadline=None)
    @given(group_inputs())
    def test_codes_order_representatives_and_sums(self, case):
        _check_grouping(*case)

    @settings(max_examples=200, deadline=None)
    @given(group_inputs(), st.integers(1, 40))
    def test_redensify_wherever_the_code_space_overflows(self, case, limit):
        """With ``_MAX_CODE`` pulled down to a handful, ``_combine``
        re-densifies between columns in most examples; groups must not
        notice."""
        old = operators._MAX_CODE
        operators._MAX_CODE = limit
        try:
            _check_grouping(*case)
        finally:
            operators._MAX_CODE = old

    def test_dense_keys_whose_size_product_crosses_2_to_62(self):
        """Each column spans just under 16 x rows, so each takes the
        ``value - min`` route with a code space of ~2**20: three multiply
        to ~2**60, the fourth would make 2**80 and wrap a plain mixed-radix
        code, so ``_combine`` re-densifies before it."""
        n = 1 << 16
        rng = np.random.default_rng(11)
        span = operators._DENSE_SPAN * n - 1
        assert span ** 3 < operators._MAX_CODE < 2 ** 63 < span ** 4
        columns = {}
        for i in range(4):
            values = rng.integers(0, span, n, dtype=np.int64) - 7
            values[:2] = (-7, span - 8)  # pin min and max: the span is exact
            columns[f"k{i}"] = ("int", values)
        assert all(operators._dense_range(v) is not None for _, v in columns.values())
        rows = _rowset(columns)
        keys = sorted(columns)
        codes, first_rows, n_groups = _group_codes(rows, keys)
        # The oracle: numpy's own lexicographic unique over the key tuples.
        tuples = np.stack([rows.column(k) for k in keys], axis=1)
        uniques, index, inverse = np.unique(
            tuples, axis=0, return_index=True, return_inverse=True)
        assert n_groups == len(uniques)
        assert np.array_equal(codes, inverse.reshape(-1))
        assert np.array_equal(first_rows, index)

    @pytest.mark.parametrize("n_groups", [3, (1 << 16) + 5])
    def test_min_max_on_both_sides_of_the_radix_order(self, n_groups):
        """``_group_order`` sorts 16-bit codes by radix and wider ones by
        merge; every min/max of one call shares the order either way."""
        rng = np.random.default_rng(5)
        n = 3 * n_groups
        keys = rng.permutation(np.repeat(np.arange(n_groups, dtype=np.int64), 3))
        v = rng.normal(size=n)
        v[rng.integers(0, n, n // 10)] = NAN
        rows = _rowset({"k": ("int", keys), "v": ("float", v)})
        out = aggregate(rows, ["k"], [AggregateSpec("min", col("v"), "lo"),
                                      AggregateSpec("max", col("v"), "hi")])
        assert out.column("k").tolist() == list(range(n_groups))
        by_key = np.argsort(keys, kind="stable").reshape(n_groups, 3)
        with warnings.catch_warnings():
            # ``nanmin`` warns on an all-NaN group; its answer, NaN, is wanted.
            warnings.simplefilter("ignore", RuntimeWarning)
            want_lo = np.nanmin(v[by_key], axis=1)
            want_hi = np.nanmax(v[by_key], axis=1)
        assert np.array_equal(out.column("lo"), want_lo, equal_nan=True)
        assert np.array_equal(out.column("hi"), want_hi, equal_nan=True)

    def test_signed_zero_and_nan_keys(self):
        rows = _rowset({"k": ("float", _column("float", [NAN, -0.0, 0.0, NAN, 1.0])),
                        "v": ("float", _column("float", [1.0, 2.0, 4.0, 8.0, 16.0]))})
        out = aggregate(rows, ["k"], [AggregateSpec("sum", col("v"), "s")])
        # -0.0 and 0.0 are one group, shown as its first row's -0.0; the
        # NaNs are one group, last.
        assert out.column("s").tolist() == [6.0, 16.0, 9.0]
        assert np.signbit(out.column("k")[0]) and np.isnan(out.column("k")[2])

    def test_groups_come_sorted_none_last_mixed_as_first_seen(self):
        rows = _rowset({"s": ("str", _column("str", ["b", None, "a", "b"])),
                        "m": ("mixed", _column("mixed", ["a", 1, None, 1]))})
        count = [AggregateSpec("count", None, "n")]
        assert aggregate(rows, ["s"], count).column("s").tolist() == ["a", "b", None]
        assert aggregate(rows, ["m"], count).column("m").tolist() == ["a", 1, None]


# ---------------------------------------------------------------------------
# direct-address join probe

#: Key pools around the places the dense rule and its arithmetic can break.
_JOIN_POOLS = {
    # 0..9: dense for any build of one row or more.
    "dense": (np.int64, list(range(10))),
    "negative": (np.int64, list(range(-12, -2))),
    # Dense or sparse by the row count: span 64 is under 16 x rows from 5 rows up.
    "boundary": (np.int64, [100, 101, 110, 130, 163]),
    "sparse": (np.int64, [-10 ** 15, 0, 5, 10 ** 9, 10 ** 15]),
    "top": (np.int64, [I64.max, I64.max - 1, I64.max - 3, I64.max - 9]),
    "bottom": (np.int64, [I64.min, I64.min + 1, I64.min + 4, I64.min + 9]),
    "ends": (np.int64, [I64.min, I64.min + 1, -1, 0, 1, I64.max - 1, I64.max]),
    "uint": (np.uint64, [0, 1, 5, 9, 2 ** 63, 2 ** 63 + 3, 2 ** 64 - 1, 2 ** 64 - 2]),
    "uint_top": (np.uint64, [2 ** 64 - 1, 2 ** 64 - 2, 2 ** 64 - 5, 2 ** 64 - 9]),
    "small": (np.int8, [-128, -127, -120, 0, 120, 127]),
    "bool": (np.bool_, [False, True]),
    "float": (np.float64, [NAN, 0.0, 1.0, 5.0, 101.0, 2.5, float(I64.max)]),
}


@st.composite
def key_columns(draw, max_rows=20):
    """(build column, probe column): kinds drawn independently, so probes
    fall outside the build's range and dtypes cross (uint64 against int64,
    int8 against int64, float against int)."""
    out = []
    for _ in range(2):
        dtype, pool = _JOIN_POOLS[draw(st.sampled_from(sorted(_JOIN_POOLS)))]
        values = draw(st.lists(st.sampled_from(pool), max_size=max_rows))
        out.append(np.array(values, dtype=dtype))
    return out


def _side(prefix: str, keys: np.ndarray) -> RowSet:
    schema = TableSchema.of((f"{prefix}k", ColumnType.INT), (f"{prefix}pos", ColumnType.INT))
    return RowSet(schema, {f"{prefix}k": keys,
                           f"{prefix}pos": np.arange(len(keys), dtype=np.int64)})


class TestDirectAddressProbe:
    @settings(max_examples=600, deadline=None)
    @given(key_columns(), st.sampled_from(["inner", "left"]))
    def test_join_rows_and_order(self, columns, how):
        build, probe = columns
        left, right = _side("l", probe), _side("r", build)
        assert_same_rowset(
            hash_join(left, right, ["lk"], ["rk"], how),
            reference_hash_join(left, right, ["lk"], ["rk"], how),
        )
        assert match_mask(left, right, ["lk"], ["rk"]).tolist() == \
            reference_match_mask(left, right, ["lk"], ["rk"]).tolist()

    @settings(max_examples=400, deadline=None)
    @given(key_columns())
    def test_codes_are_the_binary_search_s(self, columns):
        """Dense or sparse, a numeric build codes its keys by their rank
        among the sorted distinct keys — what ``searchsorted`` returned."""
        build, probe = columns
        if build.dtype.kind == "f" or not operators._exactly_comparable(
                probe.dtype, build.dtype):
            return  # float builds and inexact pairs never had a numeric probe
        encoder = _KeyEncoder(build)
        uniques = np.unique(build)
        assert same_bits(encoder.uniques, uniques)
        want = reference_lookup(uniques.astype(np.result_type(build, probe)), probe)
        assert encoder.encode(probe).tolist() == want.tolist()
        assert encoder.encode(build).tolist() == reference_lookup(uniques, build).tolist()

    def test_the_choice_is_made_from_span_and_rows(self):
        def dense(values):
            return _KeyEncoder(np.array(values, dtype=np.int64))._table is not None

        assert dense([5]) and dense([7, 7, 7])
        assert dense([0, 30]) and not dense([0, 31])   # span under 16 x rows
        assert dense(list(range(0, 160, 10)))          # one key in ten
        assert not dense(list(range(0, 340, 17)))      # one in seventeen
        assert dense([I64.max, I64.max - 3]) and dense([I64.min, I64.min + 3])
        assert not dense([I64.min, I64.max])           # span 2**64: Python ints
        assert not dense([])
        assert _KeyEncoder(np.array([True, False]))._table is not None
        assert _KeyEncoder(np.array([1.0, 2.0]))._table is None
        assert _KeyEncoder(np.array(["a"], dtype=object))._table is None

    def test_probes_outside_the_range_match_nothing(self):
        build = np.array([10, 11, 13], dtype=np.int64)
        encoder = _KeyEncoder(build)
        assert encoder._table is not None
        probe = np.array([9, 10, 12, 13, 14, I64.min, I64.max, -10, 10 + 2 ** 62],
                         dtype=np.int64)
        assert encoder.encode(probe).tolist() == [-1, 0, -1, 2, -1, -1, -1, -1, -1]
        # A probe 2**64 below a uint64 build key is not that key.
        top = _KeyEncoder(np.array([2 ** 64 - 1, 2 ** 64 - 2], dtype=np.uint64))
        assert top.encode(np.array([0, 1, 255], dtype=np.uint8)).tolist() == [-1, -1, -1]
        low = _KeyEncoder(np.array([0, 1], dtype=np.int64))
        assert low.encode(np.array([-1, -2], dtype=np.int8)).tolist() == [-1, -1]

    def test_unique_dense_keys_are_not_sorted(self, monkeypatch):
        """Every primary-key side: order and starts come from the position
        table, and equal ``_sorted_groups``' answer."""
        keys = np.random.default_rng(3).permutation(500).astype(np.int64) * 3 + 40
        want_order, want_starts, want_uniques = operators._sorted_groups(keys)

        def no_sort(*args, **kwargs):
            raise AssertionError("sorted a unique dense key")

        monkeypatch.setattr(operators, "_sorted_groups", no_sort)
        monkeypatch.setattr(operators, "_group_order", no_sort)
        encoder = _KeyEncoder(keys)
        assert encoder.order.tolist() == want_order.tolist()
        assert encoder.starts.tolist() == want_starts.tolist()
        assert encoder.uniques.tolist() == want_uniques.tolist()

    def test_duplicate_dense_keys_group_in_insertion_order(self):
        keys = np.array([5, 3, 5, 4, 3, 5], dtype=np.int64)
        encoder = _KeyEncoder(keys)
        want_order, want_starts, want_uniques = operators._sorted_groups(keys)
        assert encoder._table is not None
        assert encoder.order.tolist() == want_order.tolist() == [1, 4, 3, 0, 2, 5]
        assert encoder.starts.tolist() == want_starts.tolist()
        assert encoder.uniques.tolist() == want_uniques.tolist()


# ---------------------------------------------------------------------------
# coded strings: every kernel gives on dictionary codes what it gives on text

_STRINGS = [None, "", "a", "b", "ab", "Ab", "é", "日本", "a\nb", "a\x00", "zz"]


def _coded(values: Sequence[object], unreferenced: Sequence[str] = ()) -> CodedStrings:
    """``values`` as codes; ``unreferenced`` are entries no row carries."""
    dictionary, codes = dictionary_of(list(values) + list(unreferenced))
    return CodedStrings(codes[: len(values)], dictionary)


@st.composite
def string_columns(draw, name="s", min_rows=0, max_rows=30):
    """A string column held in one of the shapes a scan can hand over: one
    dictionary (entries no row references included), the concatenation of
    pieces with different dictionaries, or that with a PLAIN piece in it
    (which makes the whole column text).  All-NULL and zero-row columns and
    dictionaries as large as the batch fall out of the draws."""
    pool = draw(st.sampled_from([_STRINGS, _STRINGS[:3], [None], ["a", "b"]]))
    pieces = []
    for _ in range(draw(st.integers(1, 3))):
        values = draw(st.lists(st.sampled_from(pool), max_size=max_rows // 3))
        extras = draw(st.lists(st.sampled_from(["", "b", "m", "zzz"]), max_size=2))
        pieces.append(_coded(values, extras))
    while sum(map(len, pieces)) < min_rows:
        pieces.append(_coded([pool[0]] * min_rows))
    if draw(st.integers(0, 5)) == 0:
        pieces[0] = pieces[0].text()
    return join_blocks(pieces)


def _string_rows(draw, n_strings=1, min_rows=0) -> RowSet:
    columns = {"s": draw(string_columns(min_rows=min_rows))}
    n = len(columns["s"])
    for name in ("t", "u")[: n_strings - 1]:
        values = draw(st.lists(st.sampled_from(_STRINGS[:5]), min_size=n, max_size=n))
        columns[name] = _coded(values, ["q"])
    columns["v"] = np.array(draw(st.lists(st.integers(-3, 3), min_size=n, max_size=n)),
                            dtype=np.int64)
    columns["f"] = np.array(draw(st.lists(st.sampled_from([NAN, 0.5, -1.0, 2.0]),
                                          min_size=n, max_size=n)), dtype=np.float64)
    types = {"v": ColumnType.INT, "f": ColumnType.FLOAT}
    schema = TableSchema([SchemaColumn(c, types.get(c, ColumnType.VARCHAR)) for c in columns])
    rows = RowSet(schema, columns)
    if n and draw(st.booleans()):
        # A filter keeps the dictionary: entries lose their last reference.
        rows = rows.filter(np.array(draw(st.lists(st.booleans(), min_size=n, max_size=n))))
    return rows


def twin(rows: RowSet) -> RowSet:
    """The same batch with every column as the array ``column()`` gives."""
    out = RowSet(rows.schema, {n: rows.column(n).copy() for n in rows.schema.names})
    assert not out.has_codes
    return out


def cell_by_cell_bytes(rows: RowSet) -> int:
    """Wire size written out over the text, one cell at a time: 4 bytes a
    string value plus its characters, fixed-width values at their itemsize."""
    total = 0
    for name in rows.schema.names:
        column = rows.column(name)
        if column.dtype.kind == "O":
            total += sum(4 + (len(v) if isinstance(v, str) else 0) for v in column)
        else:
            total += column.dtype.itemsize * len(column)
    return total


def cells(rows: RowSet) -> List[tuple]:
    """The rows as tuples of the column arrays' own scalars."""
    return list(zip(*(rows.column(n) for n in rows.schema.names)))


def assert_held_well(rows: RowSet) -> None:
    """Whatever an operator hands on as codes keeps the three invariants."""
    for name in rows.schema.names:
        assert text_of(rows.held(name), rows.num_rows) is rows.column(name)


def _leaf(draw, column: str):
    s = col(column)
    text = st.sampled_from(["", "a", "ab", "b", "é", "m", "zz"])
    kind = draw(st.integers(0, 11))
    if kind == 0:
        return BinaryOp(draw(OPS), s, Literal(draw(text)))
    if kind == 1:
        return BinaryOp(draw(OPS), Literal(draw(text)), s)
    if kind == 2:
        return InList(s, tuple(draw(st.lists(st.one_of(st.none(), text), max_size=3))))
    if kind == 3:
        return like(s, draw(st.sampled_from(["%", "a%", "%b", "_", "a_", "%a%", ""])))
    if kind == 4:
        args = (s, Literal(draw(st.integers(1, 3)))) + draw(
            st.sampled_from([(), (Literal(1),), (Literal(2),)]))
        return BinaryOp(draw(OPS), FuncCall("substr", args), Literal(draw(text)))
    if kind == 5:
        return BinaryOp(draw(OPS), FuncCall("length", (s,)), Literal(draw(st.integers(0, 2))))
    if kind == 6:
        func = draw(st.sampled_from(["lower", "upper"]))
        return BinaryOp("=", FuncCall(func, (s,)), Literal(draw(text)))
    if kind == 7:
        return IsNull(s, negated=draw(st.booleans()))
    if kind == 8:
        return BinaryOp("=", s, s)  # one column, read twice
    if kind == 9:
        return BinaryOp("<", s, Literal(5))  # TypeError wherever a string is left
    if kind == 10:
        return BinaryOp("=", s + Literal("x"), Literal("ax"))  # None + 'x' raises
    return BinaryOp("=", s, Literal(None))


@st.composite
def string_expressions(draw, column="s", depth=2):
    """Boolean and valued expressions over one string column."""
    if depth == 0 or draw(st.integers(0, 2)) == 0:
        return _leaf(draw, column)
    shape = draw(st.integers(0, 4))
    a = draw(string_expressions(column, depth - 1))
    b = draw(string_expressions(column, depth - 1))
    if shape == 0:
        return ~a
    if shape == 1:
        return a & b
    if shape == 2:
        return a | b
    s = col(column)
    values = [Literal("x"), s, FuncCall("lower", (s,)), Literal(None),
              FuncCall("substr", (s, Literal(1), Literal(1)))]
    if shape == 3:
        default = draw(st.sampled_from(values + [None]))
        return CaseWhen([(a, draw(st.sampled_from(values))), (b, draw(st.sampled_from(values)))],
                        default)
    return draw(st.sampled_from([
        FuncCall("length", (s,)), FuncCall("upper", (s,)), values[4],
        CaseWhen([(a, Literal(1))], Literal(0)),
    ]))


def _outcome(thunk):
    """(result, None) or (None, the exception's type)."""
    try:
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            return thunk(), None
    except Exception as exc:  # noqa: BLE001 - compared, not swallowed
        return None, type(exc)


class TestEncodedEqualsDecoded:
    @settings(max_examples=700, deadline=None)
    @given(st.data())
    def test_single_column_expressions(self, data):
        rows = _string_rows(data.draw)
        expr = data.draw(string_expressions())
        want, want_error = _outcome(lambda: expr.evaluate(twin(rows)))
        got, error = _outcome(lambda: expr.evaluate(rows))
        assert error is want_error, expr
        if error is None:
            assert same_bits(got, want), expr

    @settings(max_examples=300, deadline=None)
    @given(st.data())
    def test_expressions_over_two_columns_of_which_one_is_coded(self, data):
        rows = _string_rows(data.draw, n_strings=2)
        expr = data.draw(st.sampled_from([
            BinaryOp("=", col("s"), col("t")),
            (col("s") == "a") & (col("v") > 0),
            (like(col("s"), "a%")) | (col("t") == "b") | (col("f") > 0.0),
            CaseWhen([(col("v") > 0, col("s"))], col("t")),
        ]))
        got, want = expr.evaluate(rows), expr.evaluate(twin(rows))
        assert same_bits(got, want), expr

    def test_one_test_per_referenced_entry(self, monkeypatch):
        """1 000 rows over three strings and NULL cost four calls, and an
        entry whose last row a filter took costs none — so it cannot raise."""
        seen = []
        real = expressions._map_non_null

        def spy(func, values, null, dtype):
            seen.append(values.tolist())
            return real(func, values, null, dtype)

        monkeypatch.setattr(expressions, "_map_non_null", spy)
        values = ["a", "bb", None, "ccc"] * 250
        rows = RowSet(TableSchema.of(("s", ColumnType.VARCHAR)), {"s": _coded(values, ["zz"])})
        expr = FuncCall("length", (col("s"),)) > 1
        assert expr.evaluate(rows).tolist() == [False, True, False, True] * 250
        assert seen == [["a", "bb", "ccc", None]]  # not "zz", which no row carries
        del seen[:]
        kept = rows.filter(np.array([v != "ccc" for v in values]))
        assert expr.evaluate(kept).tolist() == [False, True, False] * 250
        assert seen == [["a", "bb", None]]
        # ``s < 5`` raises for any string: here only NULLs are left to see.
        nulls = rows.filter(np.array([v is None for v in values]))
        assert not BinaryOp("<", col("s"), Literal(5)).evaluate(nulls).any()
        with pytest.raises(TypeError):
            BinaryOp("<", col("s"), Literal(5)).evaluate(kept)

    def test_the_rule_needs_a_dictionary_smaller_than_the_batch(self, monkeypatch):
        seen = []
        real = expressions._map_non_null
        monkeypatch.setattr(expressions, "_map_non_null",
                            lambda f, v, n, d: seen.append(len(v)) or real(f, v, n, d))
        rows = RowSet(TableSchema.of(("s", ColumnType.VARCHAR)),
                      {"s": _coded(["a", "b", "a"], ["c"])})
        assert FuncCall("upper", (col("s"),)).evaluate(rows).tolist() == ["A", "B", "A"]
        assert seen == [3]  # three entries, three rows: row by row

    @settings(max_examples=400, deadline=None)
    @given(st.data())
    def test_group_by_one_and_two_string_keys(self, data):
        rows = _string_rows(data.draw, n_strings=3)
        keys = data.draw(st.sampled_from([["s"], ["s", "t"], ["t", "s"], ["s", "v"], []]))
        specs = [
            AggregateSpec("count", None, "n"),
            AggregateSpec("count", col("u"), "n_u"),
            AggregateSpec("sum", col("v"), "sum_v"),
            AggregateSpec("sum", col("f"), "sum_f"),
            AggregateSpec("min", col("u"), "min_u"),
            AggregateSpec("max", col("u"), "max_u"),
            AggregateSpec("max", FuncCall("lower", (col("u"),)), "max_lower"),
        ]
        if data.draw(st.booleans()):
            specs.append(AggregateSpec("avg", col("f"), "avg_f"))
        plain = twin(rows)
        got = aggregate(rows, keys, specs)
        assert_held_well(got)
        assert_same_rowset(got, aggregate(plain, keys, specs))
        # ... and through the two distributed phases, the partial states of
        # two "nodes" concatenated (their dictionaries differ).
        cut = rows.num_rows // 2
        halves = [(rows.slice(0, cut), plain.slice(0, cut)),
                  (rows.slice(cut), plain.slice(cut))]
        partial = RowSet.concat([aggregate(r, keys, specs, "partial") for r, _ in halves])
        assert_held_well(partial)
        want = RowSet.concat([aggregate(p, keys, specs, "partial") for _, p in halves])
        assert_same_rowset(partial, want)
        assert_same_rowset(aggregate(partial, keys, specs, "final"),
                           aggregate(want, keys, specs, "final"))

    @settings(max_examples=300, deadline=None)
    @given(st.data())
    def test_count_distinct_of_a_string(self, data):
        rows = _string_rows(data.draw, n_strings=2)
        keys = data.draw(st.sampled_from([["s"], ["v"], ["s", "v"], []]))
        specs = [AggregateSpec("count", col("t"), "d", distinct=True)]
        plain = twin(rows)
        assert_same_rowset(aggregate(rows, keys, specs), aggregate(plain, keys, specs))
        got = aggregate(rows, keys, specs, "partial")
        assert_held_well(got)
        assert_same_rowset(got, aggregate(plain, keys, specs, "partial"))
        assert_same_rowset(aggregate(got, keys, specs, "final"),
                           aggregate(twin(got), keys, specs, "final"))

    @settings(max_examples=400, deadline=None)
    @given(st.data())
    def test_sort_limit(self, data):
        rows = _string_rows(data.draw, n_strings=2)
        order = data.draw(st.lists(
            st.tuples(st.sampled_from(["s", "t", "v", "f"]), st.booleans()),
            min_size=1, max_size=3))
        limit = data.draw(st.one_of(st.none(), st.integers(0, 8)))
        got = sort_limit(rows, order, limit)
        assert_held_well(got)
        assert_same_rowset(got, sort_limit(twin(rows), order, limit))
        names = [name for name, _ in order]
        for ascending in (True, False):
            assert_same_rowset(rows.sort_by(names, ascending),
                               twin(rows).sort_by(names, ascending))

    def test_sorted_strings_put_null_last_ascending_and_first_descending(self):
        rows = RowSet(TableSchema.of(("s", ColumnType.VARCHAR), ("v", ColumnType.INT)),
                      {"s": _coded(["b", None, "a", "b", None], ["c"]),
                       "v": np.arange(5, dtype=np.int64)})
        for batch in (rows, twin(rows)):
            assert sort_limit(batch, [("s", True)]).to_pylist() == [
                ("a", 2), ("b", 0), ("b", 3), (None, 1), (None, 4)]
            assert sort_limit(batch, [("s", False)]).to_pylist() == [
                (None, 1), (None, 4), ("b", 0), ("b", 3), ("a", 2)]

    @settings(max_examples=400, deadline=None)
    @given(st.data(), st.sampled_from(["inner", "left"]))
    def test_hash_join_gathers_payload_strings_as_codes(self, data, how):
        left = _string_rows(data.draw, n_strings=2)
        n = data.draw(st.integers(0, 8))
        build = RowSet(
            TableSchema.of(("bk", ColumnType.INT), ("bs", ColumnType.VARCHAR),
                           ("bf", ColumnType.FLOAT)),
            {"bk": np.array(data.draw(st.lists(st.integers(-3, 3), min_size=n, max_size=n)),
                            dtype=np.int64),
             "bs": _coded(data.draw(st.lists(st.sampled_from(_STRINGS[1:5] if data.draw(
                 st.booleans()) else _STRINGS[:5]), min_size=n, max_size=n)), ["k"]),
             "bf": np.arange(n, dtype=np.float64)})
        condition = data.draw(st.sampled_from(
            [None, col("v") > 0, BinaryOp("<", col("s"), col("bs")), col("bs") == "a"]))
        got = hash_join(left, build, ["v"], ["bk"], how, condition)
        assert_held_well(got)
        if how == "inner" or condition is None:
            assert isinstance(got.held("bs"), CodedStrings)  # never made text
        assert_same_rowset(got, hash_join(twin(left), twin(build), ["v"], ["bk"], how, condition))

    def test_a_left_join_condition_unmatches_pairs_and_pads_what_is_left(self):
        left = RowSet(TableSchema.of(("k", ColumnType.INT), ("x", ColumnType.INT)),
                      {"k": np.array([1, 2, 3, 2]), "x": np.array([5, 5, 5, 10])})
        build = RowSet(TableSchema.of(("uk", ColumnType.INT), ("y", ColumnType.INT)),
                       {"uk": np.array([1, 2, 2]), "y": np.array([1, 9, 7])})
        out = hash_join(left, build, ["k"], ["uk"], "left", col("x") > col("y"))
        assert out.to_pylist() == [
            (1, 5, 1, 1), (2, 10, 2, 9), (2, 10, 2, 7), (2, 5, 0, 0), (3, 5, 0, 0)]
        inner = hash_join(left, build, ["k"], ["uk"], "inner", col("x") > col("y"))
        assert inner.to_pylist() == out.to_pylist()[:3]

    @settings(max_examples=200, deadline=None)
    @given(st.data())
    def test_rowset_bytes_counts_the_same_bytes(self, data):
        rows = _string_rows(data.draw, n_strings=2)
        assert rowset_bytes(rows) == rowset_bytes(twin(rows)) == cell_by_cell_bytes(rows)

    def test_rowset_bytes_counts_characters_of_null_empty_and_non_ascii_strings(self):
        """4 bytes a value plus its length in characters, not UTF-8 bytes
        (the sim clock prices select replies by this number)."""
        values = [None, "", "é", "日本", "a\x00", None]
        for held in (_coded(values, ["zzz"]), _coded(values).text()):
            rows = RowSet(TableSchema.of(("s", ColumnType.VARCHAR)), {"s": held})
            assert rowset_bytes(rows) == cell_by_cell_bytes(rows) == 4 * 6 + 1 + 2 + 2

    @settings(max_examples=200, deadline=None)
    @given(st.data())
    def test_rowset_transformations_carry_the_codes(self, data):
        rows = _string_rows(data.draw, n_strings=2, min_rows=1)
        n = rows.num_rows
        assume(n > 0)  # the draw's own filter may have taken every row
        plain = twin(rows)
        indices = np.array(data.draw(st.lists(st.integers(0, n - 1), max_size=6)), dtype=np.int64)
        mask = np.array(data.draw(st.lists(st.booleans(), min_size=n, max_size=n)))
        for got, want in (
            (rows.take(indices), plain.take(indices)),
            (rows.filter(mask), plain.filter(mask)),
            (rows.slice(1, 4), plain.slice(1, 4)),
            (rows.select(["t", "s"]), plain.select(["t", "s"])),
            (rows.rename({"s": "z"}), plain.rename({"s": "z"})),
            (RowSet.concat([rows, rows.slice(0, 1), plain]), RowSet.concat([plain] * 2 + [
                plain.slice(0, 1)]).take(np.r_[0:n, 2 * n, n:2 * n])),
        ):
            assert_held_well(got)
            assert_same_rowset(got, want)
            assert repr(cells(got)) == repr(cells(want))
            exact = [name for name in got.schema.names if name != "f"]  # NaN != NaN
            assert got.select(exact) == want.select(exact)
        assert sorted(rows.columns) == sorted(plain.columns)
        assert all(isinstance(values, np.ndarray) for values in rows.columns.values())
        if isinstance(rows.held("t"), CodedStrings):
            assert isinstance(rows.filter(mask).held("t"), CodedStrings)
            assert rows.filter(mask).held("t").dictionary is rows.held("t").dictionary

    def test_pieces_with_equal_dictionaries_share_one_and_text_wins(self):
        a, b, c = _coded(["x", "y"]), _coded(["y", "x", "x"]), _coded(["z", None])
        shared = join_blocks([a, b])
        assert shared.dictionary is a.dictionary
        assert shared.text().tolist() == ["x", "y", "y", "x", "x"]
        merged = join_blocks([a, c, b])
        assert merged.dictionary.tolist() == ["x", "y", "z", None]
        assert merged.text().tolist() == ["x", "y", "z", None, "y", "x", "x"]
        # A piece of no rows decides nothing, whatever it is.
        empty = np.empty(0, dtype=object)
        assert isinstance(join_blocks([empty, a, b]), CodedStrings)
        text = join_blocks([a, _column("str", ["p"]), c])
        assert isinstance(text, np.ndarray) and text.tolist() == ["x", "y", "p", "z", None]


# ---------------------------------------------------------------------------
# composite join keys: the pair table on both sides of its bound


class TestPairCodesByDirectAddress:
    @settings(max_examples=300, deadline=None)
    @given(st.data(), st.sampled_from(["inner", "left"]), st.sampled_from([-1, 1 << 20]))
    def test_same_matches_in_the_same_order_addressed_or_searched(self, data, how, slots):
        def side(prefix, n):
            draw = lambda: np.array(data.draw(  # noqa: E731
                st.lists(st.integers(0, 4), min_size=n, max_size=n)), dtype=np.int64)
            names = [f"{prefix}{c}" for c in "abc"] + [f"{prefix}pos"]
            columns = dict(zip(names, [draw(), draw(), draw() * 10 ** 9, np.arange(n)]))
            return RowSet(TableSchema([SchemaColumn(c, ColumnType.INT) for c in names]), columns)

        left, right = side("l", data.draw(st.integers(0, 20))), side("r", data.draw(st.integers(0, 20)))
        old = operators._PAIR_SLOTS
        operators._PAIR_SLOTS = slots
        try:
            got = hash_join(left, right, ["la", "lb", "lc"], ["ra", "rb", "rc"], how)
            build = JoinBuild(right, ["ra", "rb", "rc"])
            build._ensure_built()
            assert all((p._slots is None) == (slots < 0) for p in build._pairings)
        finally:
            operators._PAIR_SLOTS = old
        assert_same_rowset(
            got, reference_hash_join(left, right, ["la", "lb", "lc"], ["ra", "rb", "rc"], how))

    def test_the_table_is_bounded_by_bytes_not_by_the_build(self):
        """4 000 x 200 pair codes (q09's ``partsupp``) are addressed; a space
        past 2**20 slots is searched, whatever the build's size."""
        rng = np.random.default_rng(9)
        for span, addressed in ((200, True), (2000, False)):
            n = 16_000
            rows = RowSet(TableSchema.of(("a", ColumnType.INT), ("b", ColumnType.INT)),
                          {"a": rng.integers(0, 4000, n), "b": rng.integers(0, span, n)})
            build = JoinBuild(rows, ["a", "b"])
            build._ensure_built()
            (pairing,) = build._pairings
            assert (pairing._slots is not None) == addressed
            if addressed:
                assert pairing._slots.dtype == np.int32 and pairing._slots.nbytes <= 4 << 20
            probe = rows.take(rng.integers(0, n, 500))
            got = hash_join(probe, build, ["a", "b"], ["a", "b"])
            assert got.num_rows >= 500


# ---------------------------------------------------------------------------
# SQL level, both cluster flavors: NULL in expressions agrees with NULL in
# aggregates (PR 5 taught only sum/min/max/count that NaN is the float NULL)


@pytest.fixture(scope="module", params=["eon", "enterprise"])
def cluster(request):
    from repro import EnterpriseCluster, EonCluster

    if request.param == "eon":
        db = EonCluster(["a", "b", "c"], shard_count=3, seed=5)
        load = db.load
    else:
        db = EnterpriseCluster(["a", "b", "c"], seed=5)
        load = lambda table, rows: db.load(table, rows, direct=True)  # noqa: E731
    db.create_table("t", [("k", ColumnType.INT), ("s", ColumnType.VARCHAR),
                          ("f", ColumnType.FLOAT), ("g", ColumnType.INT)])
    db.create_table("u", [("uk", ColumnType.INT), ("uf", ColumnType.FLOAT)])
    # Every third row is NULL in s and f; every container holds all three
    # kinds of row, so min/max pruning cannot hide a NULL from a predicate.
    load("t", [(k, (None, "a", "c\nxd")[k % 3], (None, 5.0, 7.0)[k % 3], k % 2)
               for k in range(30)])
    load("u", [(k, k + 0.5) for k in range(0, 30, 2)])
    db.create_table("t3", [("k", ColumnType.INT), ("x", ColumnType.INT)])
    db.create_table("u3", [("uk", ColumnType.INT), ("y", ColumnType.INT)])
    load("t3", [(1, 1), (2, 9), (3, 7)])
    load("u3", [(1, 10), (2, 20)])
    return db


def _keys(cluster, where: str) -> List[int]:
    return [k for (k,) in cluster.query(f"select k from t {where} order by k").rows.to_pylist()]


class TestNullAtSqlLevel:
    NULLS = list(range(0, 30, 3))

    def test_not_equal_is_false_for_a_null_float(self, cluster):
        assert _keys(cluster, "where f <> 5") == list(range(2, 30, 3))
        assert _keys(cluster, "where f = 5 or f <> 5") == [
            k for k in range(30) if k not in self.NULLS]

    def test_is_null_sees_the_float_null(self, cluster):
        assert _keys(cluster, "where f is null") == self.NULLS
        assert _keys(cluster, "where f is not null and s is not null") == [
            k for k in range(30) if k not in self.NULLS]
        # ... and agrees with the aggregates, which skip the same rows.
        (count_all, count_f), = cluster.query(
            "select count(*), count(f) from t").rows.to_pylist()
        assert count_all - count_f == len(self.NULLS)

    def test_left_join_finds_its_unmatched_rows(self, cluster):
        """``hash_join`` pads the unmatched rows' float columns with NaN,
        and the WHERE on the padded side runs after the join."""
        assert _keys(cluster, "left join u on k = uk where uf is null") == list(range(1, 30, 2))
        assert _keys(cluster, "left join u on k = uk where uf is not null") == list(range(0, 30, 2))
        assert _keys(cluster, "left join u on k = uk where uf > 20") == list(range(20, 30, 2))

    def test_on_conjunct_over_the_preserved_side_pads_and_never_drops(self, cluster):
        """``x > 5`` decides which rows of ``t3`` find a match; pushed into
        ``t3``'s scan it dropped k=1.  (An int pad is 0, see below.)"""
        assert cluster.query(
            "select k, x, y from t3 left join u3 on k = uk and x > 5 order by k"
        ).rows.to_pylist() == [(1, 1, 0), (2, 9, 20), (3, 7, 0)]
        # The same conjunct in WHERE filters the preserved side, as it did;
        # one over the NULL-supplying side still only narrows the matches.
        assert cluster.query(
            "select k, x, y from t3 left join u3 on k = uk where x > 5 order by k"
        ).rows.to_pylist() == [(2, 9, 20), (3, 7, 0)]
        assert cluster.query(
            "select k, x, y from t3 left join u3 on k = uk and y > 15 order by k"
        ).rows.to_pylist() == [(1, 1, 0), (2, 9, 20), (3, 7, 0)]
        matched = _keys(cluster, "left join u on k = uk and f > 5 where uf is not null")
        assert matched == [k for k in range(0, 30, 2) if k % 3 == 2]
        assert _keys(cluster, "left join u on k = uk and f > 5") == list(range(30))

    def test_null_is_in_no_list(self, cluster):
        assert _keys(cluster, "where s in ('a', null)") == list(range(1, 30, 3))
        assert _keys(cluster, "where s not in ('a', null)") == [
            k for k in range(30) if k % 3 != 1]  # two-valued NOT: the documented deviation

    def test_like_wildcards_cross_a_newline(self, cluster):
        assert _keys(cluster, "where s like '%x%'") == list(range(2, 30, 3))
        assert _keys(cluster, "where s like 'c_xd'") == list(range(2, 30, 3))

    def test_int_and_bool_columns_still_have_no_null(self, cluster):
        """The documented deviation this PR keeps: a LEFT join pads an int
        column with 0, and 0 is a value."""
        assert _keys(cluster, "left join u on k = uk where uk is null") == []


@pytest.mark.xfail(strict=True, reason=(
    "CaseWhen unifies an int ELSE with a float THEN by promoting to object, "
    "and the non-float sum truncates through int64: 1, typed INT, instead of "
    "1.7.  TPC-H q08/q14 are written this way and their pinned digests encode "
    "the truncation; the fix needs its own benchmark-archetype PR (ROADMAP)."
))
def test_sum_of_case_with_int_else_keeps_its_fraction():
    from repro import EonCluster

    db = EonCluster(["a", "b"], shard_count=2, seed=1)
    db.create_table("c", [("g", ColumnType.INT), ("x", ColumnType.FLOAT)])
    db.load("c", [(1, 0.4), (1, 0.4), (1, 0.9)])
    (total,), = db.query(
        "select sum(case when g = 1 then x else 0 end) from c").rows.to_pylist()
    assert total == pytest.approx(1.7)
