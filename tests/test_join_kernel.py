"""Property wall for the vectorized join kernel.

``reference_hash_join`` / ``reference_match_mask`` are the per-row
tuple-dict loops that ``repro.engine.operators`` used before the array
kernel replaced them, kept here as the oracle (with SQL's rule added that a
key holding NULL equals nothing, itself included: the loops used to match
``None`` with ``None``).  Every property
asserts identical rows **in identical order** (and identical schema and
dtypes), not merely the same multiset: float sums downstream and every
pinned row digest depend on the order.

One deliberate difference is kept out of the generated inputs: the old
loop matched a NaN *object* stored in an object column against itself by
identity.  The kernel's rule is "NaN matches nothing", so object columns
here carry ``None`` as their NULL and NaN appears only in float columns
(where both implementations agree it never matches).
"""

from typing import Dict, List, Sequence

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.common.types import ColumnType, SchemaColumn, TableSchema
from repro.engine.operators import JoinBuild, hash_join
from repro.storage.container import RowSet


# ---------------------------------------------------------------------------
# the oracle: the old per-row loops


def reference_hash_join(
    left: RowSet,
    right: RowSet,
    left_keys: Sequence[str],
    right_keys: Sequence[str],
    how: str = "inner",
) -> RowSet:
    build: Dict[tuple, List[int]] = {}
    right_key_cols = [right.column(k) for k in right_keys]
    for i in range(right.num_rows):
        key = tuple(c[i] for c in right_key_cols)
        if None not in key:
            build.setdefault(key, []).append(i)

    left_key_cols = [left.column(k) for k in left_keys]
    left_idx: List[int] = []
    right_idx: List[int] = []
    unmatched: List[int] = []
    for i in range(left.num_rows):
        key = tuple(c[i] for c in left_key_cols)
        matches = build.get(key)
        if matches:
            left_idx.extend([i] * len(matches))
            right_idx.extend(matches)
        elif how == "left":
            unmatched.append(i)

    left_indices = np.asarray(left_idx + unmatched, dtype=np.int64)
    right_indices = np.asarray(right_idx, dtype=np.int64)

    out_cols: Dict[str, np.ndarray] = {}
    schema_cols: List[SchemaColumn] = []
    for c in left.schema.columns:
        out_cols[c.name] = left.column(c.name)[left_indices]
        schema_cols.append(c)

    n_matched = len(right_idx)
    n_out = len(left_indices)
    for c in right.schema.columns:
        name = c.name if c.name not in out_cols else c.name + "_r"
        values = right.column(c.name)[right_indices]
        if n_out > n_matched:
            if values.dtype.kind == "O":
                pad = np.full(n_out - n_matched, None, dtype=object)
            elif values.dtype.kind == "f":
                pad = np.full(n_out - n_matched, np.nan)
            else:
                pad = np.zeros(n_out - n_matched, dtype=values.dtype)
            values = np.concatenate([values, pad])
        out_cols[name] = values
        schema_cols.append(SchemaColumn(name, c.ctype))
    return RowSet(TableSchema(schema_cols), out_cols)


def reference_match_mask(left, right, left_keys, right_keys) -> np.ndarray:
    build: Dict[tuple, bool] = {}
    right_key_cols = [right.column(k) for k in right_keys]
    for i in range(right.num_rows):
        key = tuple(c[i] for c in right_key_cols)
        if None not in key:
            build[key] = True
    left_key_cols = [left.column(k) for k in left_keys]
    mask = np.zeros(left.num_rows, dtype=bool)
    for i in range(left.num_rows):
        if build.get(tuple(c[i] for c in left_key_cols)):
            mask[i] = True
    return mask


def match_mask(left, right, left_keys, right_keys) -> np.ndarray:
    """Which probe rows the kernel matches — what a LEFT join pads from."""
    return JoinBuild(right, right_keys).probe(left, left_keys)[2]


def assert_same_rowset(got: RowSet, want: RowSet) -> None:
    assert got.schema == want.schema
    assert got.num_rows == want.num_rows
    for name in want.schema.names:
        a, b = got.column(name), want.column(name)
        assert a.dtype == b.dtype, name
        if a.dtype.kind == "O":
            assert a.tolist() == b.tolist(), name
        else:
            assert np.array_equal(a, b, equal_nan=a.dtype.kind == "f"), name
            if a.dtype.kind == "f":  # the same row was picked, not just an equal key
                assert np.array_equal(np.signbit(a), np.signbit(b)), name


# ---------------------------------------------------------------------------
# generated inputs: small value pools so keys collide on and across sides

BIG = 2 ** 53  # float64 stops resolving odd integers here

_POOLS = {
    # kind -> (column type, dtype, value pool)
    "int": (ColumnType.INT, np.int64,
            [-1, 0, 1, 2, 3, BIG, BIG + 1, BIG + 2, np.iinfo(np.int64).min]),
    "float": (ColumnType.FLOAT, np.float64,
              [float("nan"), 0.0, -0.0, 1.0, 2.0, 2.5, -1.0, float(BIG),
               float(BIG + 2), float("inf")]),
    "bool": (ColumnType.BOOL, np.bool_, [False, True]),
    "date": (ColumnType.DATE, np.int64, [0, 1, 2, 3, 19000]),
    "str": (ColumnType.VARCHAR, object, [None, "", "a", "b", "ab"]),
    # An expression-fed object column: Python numbers and NULLs.
    "objnum": (ColumnType.VARCHAR, object, [None, 0, 1, 2, 2.5, True, BIG + 1]),
}
_KINDS = sorted(_POOLS)


def _column(kind: str, values: list) -> np.ndarray:
    return np.array(values, dtype=_POOLS[kind][1])


@st.composite
def join_sides(draw, min_keys=1, max_keys=3, max_rows=12):
    """(left, right, left_keys, right_keys): each key pair draws its two
    column kinds independently, so int-vs-float, bool-vs-int and
    number-vs-string pairings all occur."""
    n_keys = draw(st.integers(min_keys, max_keys))
    n_left = draw(st.integers(0, max_rows))
    n_right = draw(st.integers(0, max_rows))
    sides = []
    for prefix, n in (("l", n_left), ("r", n_right)):
        kinds = [draw(st.sampled_from(_KINDS)) for _ in range(n_keys)]
        schema_cols, columns = [], {}
        for i, kind in enumerate(kinds):
            name = f"{prefix}k{i}"
            values = draw(st.lists(st.sampled_from(_POOLS[kind][2]), min_size=n, max_size=n))
            schema_cols.append(SchemaColumn(name, _POOLS[kind][0]))
            columns[name] = _column(kind, values)
        # Payloads: a row id, a shared name (gets the ``_r`` suffix), and
        # on the build side one column per padding kind.
        payloads = [(f"{prefix}pos", ColumnType.INT, np.arange(n, dtype=np.int64)),
                    ("v", ColumnType.INT, np.arange(n, dtype=np.int64) * 10)]
        if prefix == "r":
            payloads += [
                ("rf", ColumnType.FLOAT, np.arange(n, dtype=np.float64) + 0.5),
                ("rs", ColumnType.VARCHAR, np.array([f"s{i}" for i in range(n)], dtype=object)),
                ("rb", ColumnType.BOOL, np.ones(n, dtype=np.bool_)),
            ]
        for name, ctype, values in payloads:
            schema_cols.append(SchemaColumn(name, ctype))
            columns[name] = values
        sides.append(RowSet(TableSchema(schema_cols), columns))
    left, right = sides
    return (left, right,
            [f"lk{i}" for i in range(n_keys)], [f"rk{i}" for i in range(n_keys)])


HOW = st.sampled_from(["inner", "left"])


class TestKernelAgainstReference:
    @settings(max_examples=400, deadline=None)
    @given(join_sides(), HOW)
    def test_hash_join_rows_and_order(self, sides, how):
        left, right, lk, rk = sides
        assert_same_rowset(
            hash_join(left, right, lk, rk, how),
            reference_hash_join(left, right, lk, rk, how),
        )

    @settings(max_examples=200, deadline=None)
    @given(join_sides())
    def test_match_mask(self, sides):
        left, right, lk, rk = sides
        got = match_mask(left, right, lk, rk)
        assert got.dtype == np.bool_
        assert got.tolist() == reference_match_mask(left, right, lk, rk).tolist()

    @settings(max_examples=150, deadline=None)
    @given(join_sides(max_rows=40), HOW)
    def test_one_build_probed_in_batches(self, sides, how):
        """One ``JoinBuild`` probed slice by slice — the way a broadcast
        build serves every participant's share of the probe side — gives
        each slice the join it would get from a build of its own."""
        left, right, lk, rk = sides
        for batch_size in (1, 3, 64):
            build = JoinBuild(right, rk)
            for start in range(0, max(left.num_rows, 1), batch_size):
                batch = left.slice(start, start + batch_size)
                assert_same_rowset(
                    hash_join(batch, build, lk, rk, how),
                    reference_hash_join(batch, right, lk, rk, how),
                )
            assert_same_rowset(
                hash_join(left, build, lk, rk, how),
                reference_hash_join(left, right, lk, rk, how),
            )


class TestKeyEquality:
    """The dict's key equality, one case per row of DESIGN.md's table."""

    @staticmethod
    def _join(left_values, left_kind, right_values, right_kind, how="inner"):
        left = RowSet(
            TableSchema([SchemaColumn("lk", _POOLS[left_kind][0]),
                         SchemaColumn("lpos", ColumnType.INT)]),
            {"lk": _column(left_kind, left_values),
             "lpos": np.arange(len(left_values), dtype=np.int64)},
        )
        right = RowSet(
            TableSchema([SchemaColumn("rk", _POOLS[right_kind][0]),
                         SchemaColumn("rpos", ColumnType.INT)]),
            {"rk": _column(right_kind, right_values),
             "rpos": np.arange(len(right_values), dtype=np.int64)},
        )
        out = hash_join(left, right, ["lk"], ["rk"], how)
        assert_same_rowset(out, reference_hash_join(left, right, ["lk"], ["rk"], how))
        return list(zip(out.column("lpos").tolist(), out.column("rpos").tolist()))

    def test_none_matches_nothing(self):
        """A NULL string key equals no key, NULL included (SQL): not matched
        by an inner join, padded by a LEFT one, from either side."""
        assert self._join([None, "a"], "str", ["a", None, None], "str") == [(1, 0)]
        assert self._join([None, "a"], "str", ["a", None], "str", how="left") == [
            (1, 0), (0, 0)  # the NULL probe row last, padded (rpos 0)
        ]
        assert self._join(["a", "b"], "str", [None, None], "str") == []
        assert self._join([None], "str", ["a"], "str") == []

    def test_nan_matches_nothing(self):
        nan = float("nan")
        assert self._join([nan, 1.0], "float", [nan, 1.0, nan], "float") == [(1, 1)]
        assert self._join([nan], "float", [nan], "float", how="left") == [(0, 0)]  # padded

    def test_signed_zeros_are_one_key(self):
        assert self._join([0.0, -0.0], "float", [-0.0, 0.0], "float") == [
            (0, 0), (0, 1), (1, 0), (1, 1)
        ]

    def test_int_key_matches_equal_float_key(self):
        assert self._join([1, 2, 3], "int", [2.0, 2.5, 3.0], "float") == [(1, 0), (2, 2)]
        assert self._join([2.0, 2.5], "float", [2, 3], "int") == [(0, 0)]

    def test_int_above_2_to_53_does_not_match_its_rounded_float(self):
        # float(2**53 + 1) == 2.0**53, but the integer 2**53 + 1 is not that.
        assert self._join([BIG, BIG + 1, BIG + 2], "int",
                          [float(BIG), float(BIG + 2)], "float") == [(0, 0), (2, 1)]

    def test_bool_matches_int(self):
        assert self._join([True, False], "bool", [1, 0, 2], "int") == [(0, 0), (1, 1)]

    def test_object_numbers_match_numeric_column(self):
        assert self._join([None, 1, 2.5, True], "objnum", [1, 2], "int") == [
            (1, 0), (3, 0)
        ]

    def test_string_never_matches_number(self):
        assert self._join(["a", ""], "str", [0, 1], "int") == []

    def test_duplicates_on_both_sides_multiply_in_order(self):
        assert self._join([7, 8, 7], "date", [7, 9, 7, 8], "date") == [
            (0, 0), (0, 2), (1, 3), (2, 0), (2, 2)
        ]


class TestJoinBuild:
    SCHEMA_L = TableSchema.of(("a", ColumnType.INT), ("b", ColumnType.VARCHAR))
    SCHEMA_R = TableSchema.of(("c", ColumnType.INT), ("d", ColumnType.VARCHAR))

    def _sides(self):
        left = RowSet.from_rows(self.SCHEMA_L, [(1, "x"), (2, "y"), (1, "z")])
        right = RowSet.from_rows(self.SCHEMA_R, [(1, "x"), (1, "q"), (3, "y")])
        return left, right

    def test_stands_in_for_the_build_rowset(self):
        left, right = self._sides()
        build = JoinBuild(right, ["c"])
        assert build.num_rows == right.num_rows
        for how in ("inner", "left"):
            assert_same_rowset(
                hash_join(left, build, ["a"], ["c"], how),
                hash_join(left, right, ["a"], ["c"], how),
            )

    def test_rejects_keys_it_was_not_built_on(self):
        left, right = self._sides()
        build = JoinBuild(right, ["c"])
        with pytest.raises(ValueError):
            hash_join(left, build, ["a"], ["d"])
        with pytest.raises(ValueError):
            hash_join(left, build, ["a", "b"], ["c"])
        with pytest.raises(ValueError):
            JoinBuild(right, [])

    def test_three_keys_with_large_cardinalities_do_not_overflow(self):
        """Each key column has ~n distinct values, so a plain mixed-radix
        code would need n**3 slots; pairing re-densifies at every column."""
        n = 3000
        rng = np.random.default_rng(7)
        schema_r = TableSchema.of(
            ("r0", ColumnType.INT), ("r1", ColumnType.INT), ("r2", ColumnType.INT),
            ("rpos", ColumnType.INT),
        )
        keys = [rng.permutation(n).astype(np.int64) * (2 ** 40) for _ in range(3)]
        right = RowSet(schema_r, {"r0": keys[0], "r1": keys[1], "r2": keys[2],
                                  "rpos": np.arange(n, dtype=np.int64)})
        pick = rng.integers(0, n, 500)
        schema_l = TableSchema.of(
            ("l0", ColumnType.INT), ("l1", ColumnType.INT), ("l2", ColumnType.INT)
        )
        left = RowSet(schema_l, {"l0": keys[0][pick], "l1": keys[1][pick],
                                 "l2": keys[2][pick]})
        out = hash_join(left, right, ["l0", "l1", "l2"], ["r0", "r1", "r2"])
        assert out.column("rpos").tolist() == pick.tolist()
