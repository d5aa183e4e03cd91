"""Physical operators: aggregation modes, joins, sort/limit.

Property tests check the distributed decomposition invariant: splitting
rows arbitrarily, aggregating partials per split, and merging must equal
one-shot aggregation — the property two-phase execution relies on.
"""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.common.types import ColumnType, TableSchema
from repro.engine.expressions import col
from repro.engine.operators import (
    AggregateSpec,
    _first_occurrence_mask,
    aggregate,
    hash_join,
    sort_limit,
)
from repro.storage.container import RowSet
from tests.test_join_kernel import match_mask

SCHEMA = TableSchema.of(
    ("g", ColumnType.VARCHAR),
    ("x", ColumnType.INT),
    ("y", ColumnType.FLOAT),
)


def rows_of(data):
    return RowSet.from_rows(SCHEMA, data)


@pytest.fixture
def rows():
    return rows_of(
        [("a", 1, 1.0), ("b", 2, 2.0), ("a", 3, 3.0), ("b", 4, 4.0), ("a", 1, 5.0)]
    )


class TestCompleteAggregation:
    def test_sum_count_min_max(self, rows):
        out = aggregate(rows, ["g"], [
            AggregateSpec("sum", col("x"), "s"),
            AggregateSpec("count", None, "c"),
            AggregateSpec("min", col("y"), "mn"),
            AggregateSpec("max", col("y"), "mx"),
        ])
        d = {r[0]: r[1:] for r in out.to_pylist()}
        assert d == {"a": (5, 3, 1.0, 5.0), "b": (6, 2, 2.0, 4.0)}

    def test_count_argument_skips_nulls(self):
        schema = TableSchema.of(("g", ColumnType.INT), ("s", ColumnType.VARCHAR))
        rs = RowSet.from_rows(schema, [(1, "x"), (1, None), (2, None)])
        out = aggregate(rs, ["g"], [AggregateSpec("count", col("s"), "c")])
        assert dict(out.to_pylist()) == {1: 1, 2: 0}

    def test_count_distinct(self, rows):
        out = aggregate(rows, ["g"], [
            AggregateSpec("count", col("x"), "cd", distinct=True)
        ])
        assert dict(out.to_pylist()) == {"a": 2, "b": 2}

    def test_global_aggregate(self, rows):
        out = aggregate(rows, [], [AggregateSpec("sum", col("x"), "s")])
        assert out.to_pylist() == [(11,)]

    def test_global_aggregate_on_empty_input(self):
        out = aggregate(rows_of([]), [], [
            AggregateSpec("sum", col("x"), "s"),
            AggregateSpec("count", None, "c"),
        ])
        assert out.to_pylist() == [(0, 0)]

    def test_grouped_aggregate_on_empty_input(self):
        out = aggregate(rows_of([]), ["g"], [AggregateSpec("sum", col("x"), "s")])
        assert out.num_rows == 0

    def test_expression_argument(self, rows):
        out = aggregate(rows, ["g"], [
            AggregateSpec("sum", col("x") * col("y"), "s")
        ])
        d = dict(out.to_pylist())
        assert d["a"] == pytest.approx(1 + 9 + 5)

    def test_multi_column_group(self, rows):
        out = aggregate(rows, ["g", "x"], [AggregateSpec("count", None, "c")])
        assert out.num_rows == 4  # (a,1) (a,3) (b,2) (b,4)

    def test_string_min_max(self, rows):
        out = aggregate(rows, [], [
            AggregateSpec("min", col("g"), "mn"),
            AggregateSpec("max", col("g"), "mx"),
        ])
        assert out.to_pylist() == [("a", "b")]

    def test_avg_in_complete_mode(self, rows):
        out = aggregate(rows, ["g"], [AggregateSpec("avg", col("x"), "a")], "complete")
        d = dict(out.to_pylist())
        assert d["a"] == pytest.approx(5 / 3)
        assert d["b"] == pytest.approx(3.0)

    def test_avg_mixed_with_distinct_complete(self, rows):
        out = aggregate(rows, [], [
            AggregateSpec("count", col("x"), "cd", distinct=True),
            AggregateSpec("avg", col("y"), "a"),
        ], "complete")
        cd, a = out.to_pylist()[0]
        assert cd == 4  # distinct x values: 1,2,3,4
        assert a == pytest.approx(3.0)

    def test_empty_partial_produces_no_state(self, rows):
        empty = rows.slice(0, 0)
        partial = aggregate(empty, [], [AggregateSpec("min", col("x"), "m")], "partial")
        assert partial.num_rows == 0
        # Merging an empty partial with a real one keeps the real minimum.
        real = aggregate(rows, [], [AggregateSpec("min", col("x"), "m")], "partial")
        merged = aggregate(
            RowSet.concat([partial, real]), [],
            [AggregateSpec("min", col("x"), "m")], "final",
        )
        assert merged.to_pylist() == [(1,)]

    def test_unknown_func_rejected(self):
        with pytest.raises(ValueError):
            AggregateSpec("median", col("x"), "m")

    def test_distinct_only_for_count(self):
        with pytest.raises(ValueError):
            AggregateSpec("sum", col("x"), "s", distinct=True)


class TestTwoPhase:
    def _two_phase(self, parts, group, specs):
        partials = [aggregate(p, group, specs, "partial") for p in parts]
        return aggregate(RowSet.concat(partials), group, specs, "final")

    def test_avg_decomposition(self, rows):
        specs = [AggregateSpec("avg", col("x"), "a")]
        merged = self._two_phase([rows.slice(0, 2), rows.slice(2, None)], ["g"], specs)
        d = dict(merged.to_pylist())
        assert d["a"] == pytest.approx(5 / 3)
        assert d["b"] == pytest.approx(3.0)

    def test_count_merges_by_summing(self, rows):
        specs = [AggregateSpec("count", None, "c")]
        merged = self._two_phase([rows.slice(0, 1), rows.slice(1, None)], ["g"], specs)
        assert dict(merged.to_pylist()) == {"a": 3, "b": 2}

    def test_count_distinct_across_splits(self, rows):
        specs = [AggregateSpec("count", col("x"), "cd", distinct=True)]
        # Duplicate value 1 for group "a" appears in both splits; merging
        # must not double count it.
        merged = self._two_phase([rows.slice(0, 2), rows.slice(2, None)], ["g"], specs)
        assert dict(merged.to_pylist()) == {"a": 2, "b": 2}

    def test_partial_distinct_with_other_aggs_rejected(self, rows):
        specs = [
            AggregateSpec("count", col("x"), "cd", distinct=True),
            AggregateSpec("sum", col("x"), "s"),
        ]
        with pytest.raises(Exception):
            aggregate(rows, ["g"], specs, "partial")

    @given(
        st.lists(
            st.tuples(st.sampled_from("abc"), st.integers(-50, 50),
                      st.floats(-10, 10, allow_nan=False)),
            min_size=1, max_size=40,
        ),
        st.integers(min_value=0, max_value=39),
    )
    @settings(max_examples=60)
    def test_split_merge_equals_one_shot(self, data, split_at):
        """The invariant distributed aggregation rests on."""
        rs = rows_of(data)
        split_at = min(split_at, rs.num_rows)
        specs = [
            AggregateSpec("sum", col("x"), "s"),
            AggregateSpec("count", None, "c"),
            AggregateSpec("min", col("x"), "mn"),
            AggregateSpec("max", col("x"), "mx"),
            AggregateSpec("avg", col("y"), "av"),
        ]
        one_shot_specs = [s for s in specs if s.func != "avg"]
        merged = self._two_phase(
            [rs.slice(0, split_at), rs.slice(split_at, None)], ["g"], specs
        )
        one_shot = aggregate(rs, ["g"], one_shot_specs)
        merged_d = {r[0]: r[1:5] for r in merged.sort_by(["g"]).to_pylist()}
        one_d = {r[0]: r[1:] for r in one_shot.sort_by(["g"]).to_pylist()}
        assert set(merged_d) == set(one_d)
        for g in one_d:
            assert merged_d[g][0] == one_d[g][0]  # sum
            assert merged_d[g][1] == one_d[g][1]  # count
            assert merged_d[g][2] == one_d[g][2]  # min
            assert merged_d[g][3] == one_d[g][3]  # max


class TestHashJoin:
    LEFT = TableSchema.of(("k", ColumnType.INT), ("lv", ColumnType.VARCHAR))
    RIGHT = TableSchema.of(("rk", ColumnType.INT), ("rv", ColumnType.VARCHAR))

    def _sides(self):
        left = RowSet.from_rows(self.LEFT, [(1, "a"), (2, "b"), (3, "c"), (2, "b2")])
        right = RowSet.from_rows(self.RIGHT, [(2, "X"), (3, "Y"), (9, "Z"), (2, "X2")])
        return left, right

    def test_inner_join(self):
        left, right = self._sides()
        out = hash_join(left, right, ["k"], ["rk"])
        pairs = sorted((r[0], r[3]) for r in out.to_pylist())
        assert pairs == [(2, "X"), (2, "X"), (2, "X2"), (2, "X2"), (3, "Y")]

    def test_right_keys_retained(self):
        left, right = self._sides()
        out = hash_join(left, right, ["k"], ["rk"])
        assert "rk" in out.schema.names
        assert list(out.column("rk")) == list(out.column("k"))

    def test_left_join_pads_unmatched(self):
        left, right = self._sides()
        out = hash_join(left, right, ["k"], ["rk"], how="left")
        assert out.num_rows == 6  # 5 matches + unmatched k=1
        unmatched = [r for r in out.to_pylist() if r[0] == 1]
        # Padded build-side values: numeric key -> 0, string -> None.
        assert unmatched[0][2] == 0 and unmatched[0][3] is None

    def test_multi_key_join(self):
        ls = TableSchema.of(("a", ColumnType.INT), ("b", ColumnType.VARCHAR))
        rs_schema = TableSchema.of(("c", ColumnType.INT), ("d", ColumnType.VARCHAR),
                                   ("pay", ColumnType.INT))
        left = RowSet.from_rows(ls, [(1, "x"), (1, "y")])
        right = RowSet.from_rows(rs_schema, [(1, "x", 10), (1, "z", 20)])
        out = hash_join(left, right, ["a", "b"], ["c", "d"])
        assert out.num_rows == 1
        assert out.to_pylist()[0][-1] == 10

    def test_empty_sides(self):
        left, right = self._sides()
        empty_right = RowSet.empty(self.RIGHT)
        assert hash_join(left, empty_right, ["k"], ["rk"]).num_rows == 0
        empty_left = RowSet.empty(self.LEFT)
        assert hash_join(empty_left, right, ["k"], ["rk"]).num_rows == 0

    def test_duplicate_column_suffixed(self):
        same = TableSchema.of(("k", ColumnType.INT), ("v", ColumnType.INT))
        left = RowSet.from_rows(same, [(1, 10)])
        right = RowSet.from_rows(
            TableSchema.of(("k2", ColumnType.INT), ("v", ColumnType.INT)), [(1, 20)]
        )
        out = hash_join(left, right, ["k"], ["k2"])
        assert "v_r" in out.schema.names

    def test_key_length_mismatch_rejected(self):
        left, right = self._sides()
        with pytest.raises(ValueError):
            hash_join(left, right, ["k"], ["rk", "rv"])

    def test_unsupported_how_rejected(self):
        left, right = self._sides()
        with pytest.raises(ValueError):
            hash_join(left, right, ["k"], ["rk"], how="full")


class TestSortLimit:
    def test_multi_key_mixed_direction(self, rows):
        out = sort_limit(rows, [("g", True), ("x", False)])
        assert [(r[0], r[1]) for r in out.to_pylist()] == [
            ("a", 3), ("a", 1), ("a", 1), ("b", 4), ("b", 2)
        ]

    def test_limit(self, rows):
        out = sort_limit(rows, [("x", False)], limit=2)
        assert list(out.column("x")) == [4, 3]

    def test_string_descending(self, rows):
        out = sort_limit(rows, [("g", False)])
        assert list(out.column("g"))[:2] == ["b", "b"]

    def test_nulls_sort_last_ascending(self):
        schema = TableSchema.of(("s", ColumnType.VARCHAR))
        rs = RowSet.from_rows(schema, [("b",), (None,), ("a",)])
        out = sort_limit(rs, [("s", True)])
        assert list(out.column("s")) == ["a", "b", None]

    def test_limit_larger_than_input(self, rows):
        assert sort_limit(rows, [("x", True)], limit=100).num_rows == 5

    def test_descending_int_keys_above_2_to_53(self):
        """A float cast rounds these four keys into two ties, which the
        stable sort then leaves in input order: [3, 2, 0, 1]."""
        schema = TableSchema.of(("k", ColumnType.INT), ("pos", ColumnType.INT))
        base = 2 ** 53
        rs = RowSet.from_rows(schema, [(base + i, i) for i in range(4)])
        out = sort_limit(rs, [("k", False)])
        assert out.column("pos").tolist() == [3, 2, 1, 0]

    def test_descending_is_stable_and_handles_int64_min(self):
        schema = TableSchema.of(("k", ColumnType.INT), ("pos", ColumnType.INT))
        lo = np.iinfo(np.int64).min
        rs = RowSet.from_rows(schema, [(lo, 0), (5, 1), (lo, 2), (5, 3), (7, 4)])
        out = sort_limit(rs, [("k", False)])
        assert out.column("pos").tolist() == [4, 1, 3, 0, 2]

    def test_descending_bool_and_float_nan_last(self):
        schema = TableSchema.of(("b", ColumnType.BOOL), ("f", ColumnType.FLOAT))
        rs = RowSet.from_rows(
            schema, [(False, 1.0), (True, float("nan")), (False, 3.0), (True, -0.0)]
        )
        assert sort_limit(rs, [("b", False)]).column("b").tolist() == [
            True, True, False, False
        ]
        by_f = sort_limit(rs, [("f", False)]).column("f")
        assert by_f[:3].tolist() == [3.0, 1.0, -0.0] and np.isnan(by_f[3])


class TestNullSemantics:
    """NULL-handling regressions, one per aggregate kernel: ``count(col)``
    skips NULLs, float ``sum``/``min``/``max`` mask the NaN sentinel,
    object ``min``/``max`` skip ``None``, ``avg`` inherits the masking,
    and mixed-type object columns factorize without a ``TypeError``."""

    def test_count_col_skips_nulls(self):
        from repro.engine.operators import _agg_array

        out = _agg_array(
            "count",
            np.array(["a", None, None], dtype=object),
            np.array([0, 0, 1]),
            2,
        )
        assert out.tolist() == [1, 0]

    def test_count_star_still_counts_rows(self):
        from repro.engine.operators import _agg_array

        out = _agg_array("count", None, np.array([0, 0, 1]), 2)
        assert out.tolist() == [2, 1]

    def test_float_sum_masks_nan(self):
        from repro.engine.operators import _agg_array

        out = _agg_array(
            "sum", np.array([1.0, np.nan, 3.0]), np.array([0, 0, 1]), 2
        )
        assert out.tolist() == [1.0, 3.0]

    def test_float_min_masks_nan(self):
        from repro.engine.operators import _agg_array

        out = _agg_array(
            "min", np.array([np.nan, 2.0, np.nan]), np.array([0, 0, 1]), 2
        )
        assert out[0] == 2.0
        assert np.isnan(out[1])  # all-NULL group -> NULL sentinel

    def test_float_max_masks_nan(self):
        from repro.engine.operators import _agg_array

        out = _agg_array(
            "max",
            np.array([np.nan, 2.0, 5.0, np.nan]),
            np.array([0, 0, 0, 1]),
            2,
        )
        assert out[0] == 5.0
        assert np.isnan(out[1])

    def test_object_min_max_skip_none(self):
        from repro.engine.operators import _agg_array

        values = np.array(["b", None, "a", None], dtype=object)
        codes = np.array([0, 0, 0, 1])
        assert _agg_array("min", values, codes, 2).tolist() == ["a", None]
        assert _agg_array("max", values, codes, 2).tolist() == ["b", None]

    def test_avg_inherits_null_masking(self):
        rows = rows_of([("a", 1, 1.0), ("a", 1, None), ("b", 1, 3.0)])
        out = aggregate(
            rows, ["g"], [AggregateSpec("avg", col("y"), "avg_y")]
        )
        by_group = {r[0]: r[1] for r in out.to_pylist()}
        assert by_group["a"] == 1.0  # not 0.5: the NULL is no row
        assert by_group["b"] == 3.0

    def test_count_distinct_skips_nulls(self):
        rows = rows_of(
            [("a", 1, 1.0), ("a", 2, 1.0), ("a", 3, None), ("b", 4, None)]
        )
        out = aggregate(
            rows,
            ["g"],
            [AggregateSpec("count", col("y"), "c", distinct=True)],
        )
        by_group = {r[0]: r[1] for r in out.to_pylist()}
        assert by_group["a"] == 1
        assert by_group["b"] == 0

    def test_factorize_mixed_types_insertion_order(self):
        from repro.engine.operators import _factorize

        # Codes rank the distinct values 1, "a", None as first seen.
        codes, size = _factorize(np.array([1, "a", 1, None], dtype=object))
        assert codes.tolist() == [0, 1, 0, 2]
        assert size == 3

    def test_factorize_comparable_stays_sorted_nulls_last(self):
        from repro.engine.operators import _factorize

        # Codes rank the distinct values "a", "b", None.
        codes, size = _factorize(np.array(["b", "a", None], dtype=object))
        assert codes.tolist() == [1, 0, 2]
        assert size == 3

    def test_group_by_mixed_type_column_no_typeerror(self):
        schema = TableSchema.of(("g", ColumnType.VARCHAR), ("x", ColumnType.INT))
        rs = RowSet.from_rows(schema, [(1, 1), ("a", 2), (1, 3), (None, 4)])
        out = aggregate(
            rs, ["g"], [AggregateSpec("sum", col("x"), "s")]
        )
        groups = {r[0]: r[1] for r in out.to_pylist()}
        assert groups == {1: 4, "a": 2, None: 4}


class TestJoinMatchMask:
    """The probe's membership mask — the rows a LEFT join does not pad —
    must agree exactly with ``hash_join`` semantics."""

    LEFT = TableSchema.of(("k", ColumnType.INT), ("lv", ColumnType.VARCHAR))
    RIGHT = TableSchema.of(("rk", ColumnType.INT), ("rv", ColumnType.VARCHAR))

    def test_mask_matches_inner_join_membership(self):
        left = RowSet.from_rows(
            self.LEFT, [(1, "a"), (2, "b"), (3, "c"), (2, "b2"), (7, "d")]
        )
        right = RowSet.from_rows(self.RIGHT, [(2, "X"), (3, "Y"), (9, "Z")])
        mask = match_mask(left, right, ["k"], ["rk"])
        assert mask.tolist() == [False, True, True, True, False]

    def test_none_key_matches_nothing(self):
        ls = TableSchema.of(("g", ColumnType.VARCHAR), ("x", ColumnType.INT))
        rs = TableSchema.of(("h", ColumnType.VARCHAR), ("y", ColumnType.INT))
        left = RowSet.from_rows(ls, [(None, 1), ("a", 2)])
        right = RowSet.from_rows(rs, [(None, 10), ("a", 20)])
        mask = match_mask(left, right, ["g"], ["h"])
        # A NULL key equals no key, NULL included (SQL); the mask must agree
        # with the join or a LEFT join would pad a row it also matched.
        inner = hash_join(left, right, ["g"], ["h"])
        assert mask.tolist() == [False, True]
        assert int(mask.sum()) == inner.num_rows == 1
        padded = hash_join(left, right, ["g"], ["h"], "left")
        assert padded.column("x").tolist() == [2, 1]
        assert padded.column("y").tolist() == [20, 0]

    def test_multi_key_mask(self):
        ls = TableSchema.of(("a", ColumnType.INT), ("b", ColumnType.VARCHAR))
        rs = TableSchema.of(("c", ColumnType.INT), ("d", ColumnType.VARCHAR))
        left = RowSet.from_rows(ls, [(1, "x"), (1, "y"), (2, "x")])
        right = RowSet.from_rows(rs, [(1, "x"), (2, "x")])
        mask = match_mask(left, right, ["a", "b"], ["c", "d"])
        assert mask.tolist() == [True, False, True]

    def test_empty_sides(self):
        left = RowSet.from_rows(self.LEFT, [(1, "a")])
        right = RowSet.from_rows(self.RIGHT, [(1, "X")])
        empty_right = RowSet.empty(self.RIGHT)
        assert match_mask(left, empty_right, ["k"], ["rk"]).tolist() == [False]
        assert match_mask(
            RowSet.empty(self.LEFT), right, ["k"], ["rk"]
        ).tolist() == []


class TestFirstOccurrenceMask:
    """``count(distinct ...)`` keeps the first row of each (group, value)
    pair; the mask used to be built by this per-row loop."""

    @staticmethod
    def reference_mask(codes: np.ndarray) -> np.ndarray:
        seen = np.zeros(int(codes.max()) + 1 if len(codes) else 0, dtype=bool)
        keep = np.zeros(len(codes), dtype=bool)
        for i, c in enumerate(codes):
            if not seen[c]:
                seen[c] = True
                keep[i] = True
        return keep

    @given(st.lists(st.integers(min_value=0, max_value=12), max_size=60))
    @settings(max_examples=100, deadline=None)
    def test_same_mask_as_the_loop(self, codes):
        codes = np.array(codes, dtype=np.int64)
        got = _first_occurrence_mask(codes)
        assert got.dtype == np.bool_
        assert got.tolist() == self.reference_mask(codes).tolist()

    def test_empty_and_sparse_codes(self):
        assert _first_occurrence_mask(np.array([], dtype=np.int64)).tolist() == []
        codes = np.array([10**9, 3, 10**9, 3, 0], dtype=np.int64)
        assert _first_occurrence_mask(codes).tolist() == [True, True, False, False, True]
