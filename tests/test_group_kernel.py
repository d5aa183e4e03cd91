"""Property wall for group numbering and the partial states of an aggregate.

``reference_group_codes`` / ``reference_aggregate`` are the group-by path
that ``repro.engine.operators`` ran before determined keys were skipped,
group numbering dropped its stable sorts and shared partial states were
computed once: every key column factorized and combined, stable sorts
throughout, each spec's argument and column computed on its own.  They are
kept here as the oracle, the way ``tests/test_join_kernel.py`` keeps the old
join.  Every property asserts the same codes, the same first row of each
group (so the sign of a zero key and the type of an object key survive) and
the same output columns with the same dtypes and bits, in all three modes.

Two deliberate differences are written into the reference, because they
are fixes and not the kernels' business:

* ``sum`` of an integer or bool column is exact (it went through float64,
  so 2**53 + 1 came back as 2**53);
* the final phase places an avg where its spec sits, as the complete phase
  always did (it used to append avgs after the other columns) — compared
  by name, and the order is asserted on its own.

The wall was mutation-checked when written: taking each group's first row
as ``order[starts]`` under ``_densify``'s unstable sort (instead of the
least row of the run) fails it, and so do ``_determined`` taking a NaN for
equal to any value, or skipping the first row, or not making one NaN equal
another (that one only costs a sort: ``TestDeterminedKeys`` catches it),
and ``_group_order`` returning ``keys // n``.
"""

import warnings
from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro import EonCluster
from repro.common.types import ColumnType, SchemaColumn, TableSchema
from repro.engine import operators
from repro.engine.expressions import col, null_mask
from repro.engine.operators import AggregateSpec, _group_codes, _group_order, aggregate
from repro.storage.container import RowSet
from repro.storage.encoding import CodedStrings, Held, dictionary_of, join_blocks
from repro.workloads.tpch import TPCH_QUERIES, TpchData, load_tpch, setup_tpch_schema
from tests.test_join_kernel import assert_same_rowset

NAN = float("nan")
BIG = 2 ** 53


# ---------------------------------------------------------------------------
# the oracle: the group-by path before this change

_REF_DENSE_SPAN = 16
_REF_MAX_CODE = 2 ** 62


def _ref_sorted_groups(values: np.ndarray) -> Tuple[np.ndarray, np.ndarray]:
    order = np.argsort(values, kind="stable")
    ranked = values[order]
    first = np.ones(len(values), dtype=bool)
    first[1:] = ranked[1:] != ranked[:-1]
    return order, np.flatnonzero(first)


def _ref_run_codes(order: np.ndarray, starts: np.ndarray) -> np.ndarray:
    codes = np.empty(len(order), dtype=np.int64)
    codes[order] = np.repeat(np.arange(len(starts)), np.diff(starts, append=len(order)))
    return codes


def _ref_factorize(arr: Held) -> Tuple[np.ndarray, int]:
    if isinstance(arr, CodedStrings):
        return arr.codes, len(arr.dictionary)
    if arr.dtype.kind == "O":
        column = arr.tolist()
        try:
            dictionary, codes = dictionary_of(column)
            return codes, len(dictionary)
        except TypeError:
            index = {v: i for i, v in enumerate(dict.fromkeys(column))}
            codes = np.fromiter(map(index.__getitem__, column), dtype=np.int64, count=len(column))
            return codes, len(index)
    if arr.dtype.kind in "biu" and len(arr):
        lo, hi = int(arr.min()), int(arr.max())
        if hi - lo + 1 < _REF_DENSE_SPAN * len(arr):
            offsets = arr.astype(np.uint64) - np.uint64(lo % 2 ** 64)
            return offsets.view(np.int64), hi - lo + 1
    order, starts = _ref_sorted_groups(arr)
    if arr.dtype.kind == "f":
        starts = starts[: len(starts) - max(np.count_nonzero(np.isnan(arr)) - 1, 0)]
    return _ref_run_codes(order, starts), len(starts)


def _ref_densify(codes: np.ndarray, space: int) -> Tuple[np.ndarray, np.ndarray, int]:
    n = len(codes)
    if space < _REF_DENSE_SPAN * n:
        first = np.full(space, n, dtype=np.int64)
        np.minimum.at(first, codes, np.arange(n))
        occupied = (first < n).nonzero()[0]
        dense = np.empty(space, dtype=np.int64)
        dense[occupied] = np.arange(len(occupied))
        return dense[codes], first[occupied], len(occupied)
    order, starts = _ref_sorted_groups(codes)
    return _ref_run_codes(order, starts), order[starts], len(starts)


def _ref_combine(codes, space, more, size):
    if space * size > _REF_MAX_CODE:
        codes, _, space = _ref_densify(codes, space)
    return codes * size + more, space * size


def reference_group_codes(
    rows: RowSet, group_names: Sequence[str]
) -> Tuple[np.ndarray, np.ndarray, int]:
    none = np.zeros(0, dtype=np.int64)
    if not group_names:
        return np.zeros(rows.num_rows, dtype=np.int64), none, 1
    if rows.num_rows == 0:
        return none, none, 0
    codes, space = _ref_factorize(rows.held(group_names[0]))
    for name in group_names[1:]:
        codes, space = _ref_combine(codes, space, *_ref_factorize(rows.held(name)))
    return _ref_densify(codes, space)


def _ref_drop_nulls(codes, values):
    null = null_mask(values)
    return (codes, values) if not null.any() else (codes[~null], values[~null])


def _ref_output_type(func: str, arg: Optional[Held]) -> ColumnType:
    if func == "count" or arg is None:
        return ColumnType.INT
    return {"f": ColumnType.FLOAT, "O": ColumnType.VARCHAR,
            "b": ColumnType.BOOL}.get(arg.dtype.kind, ColumnType.INT)


def _ref_agg_array(func: str, values: Optional[Held], codes: np.ndarray, n: int) -> np.ndarray:
    if len(codes) == 0:
        if func == "count":
            return np.zeros(n, dtype=np.int64)
        if func == "sum":
            if values is not None and values.dtype.kind == "f":
                return np.zeros(n, dtype=np.float64)
            return np.zeros(n, dtype=np.int64)
        if values is not None and values.dtype.kind == "O":
            return np.full(n, None, dtype=object)
        if values is not None and values.dtype.kind == "f":
            return np.full(n, np.nan)
        return np.zeros(n, dtype=np.int64 if values is None else values.dtype)
    if func == "count":
        if values is not None:
            codes, _ = _ref_drop_nulls(codes, values)
        return np.bincount(codes, minlength=n).astype(np.int64)
    if func == "sum":
        if values.dtype.kind == "f":
            codes, values = _ref_drop_nulls(codes, values)
            return np.bincount(codes, weights=values, minlength=n)
        if values.dtype.kind == "O":
            return np.bincount(codes, weights=values.astype(np.float64),
                               minlength=n).astype(np.int64)
        # The fix written in: Python ints, exact.
        sums = [0] * n
        for code, value in zip(codes.tolist(), values.tolist()):
            sums[code] += int(value)
        return np.array(sums, dtype=np.int64)
    order = np.argsort(codes, kind="stable")
    entries = None
    if isinstance(values, CodedStrings):
        entries = np.append(values.dictionary, None)
        values = (np.where(null_mask(values), -1, values.codes) if func == "max"
                  else values.codes)
    sorted_values = values[order]
    if values.dtype.kind == "f":
        valid = ~np.isnan(sorted_values)
        order, sorted_values = order[valid], sorted_values[valid]
        if len(order) == 0:
            return np.full(n, np.nan)
    sorted_codes = codes[order]
    starts = np.concatenate(([0], np.flatnonzero(sorted_codes[1:] != sorted_codes[:-1]) + 1))
    if values.dtype.kind == "O":
        out = np.full(n, None, dtype=object)
        ends = np.concatenate((starts[1:], [len(sorted_values)]))
        for s, e in zip(starts, ends):
            chunk = [v for v in sorted_values[s:e] if v is not None and v == v]
            out[sorted_codes[s]] = (min(chunk) if func == "min" else max(chunk)) if chunk else None
        return out
    reducer = np.minimum if func == "min" else np.maximum
    if values.dtype.kind == "f":
        out = np.full(n, np.nan)
        out[sorted_codes[starts]] = reducer.reduceat(sorted_values, starts)
        return out
    out = reducer.reduceat(sorted_values, starts)
    return out if entries is None else entries[out]


def _ref_first_occurrence(codes: np.ndarray) -> np.ndarray:
    keep = np.zeros(len(codes), dtype=bool)
    keep[_ref_densify(codes, int(codes.max(initial=-1)) + 1)[1]] = True
    return keep


def _ref_pairs(codes: np.ndarray, values: Optional[Held]) -> np.ndarray:
    if values is None or len(codes) == 0:
        return codes
    return _ref_combine(codes, int(codes.max()) + 1, *_ref_factorize(values))[0]


def _ref_complete(rows, group_names, specs, partial=False) -> RowSet:
    if partial and rows.num_rows == 0 and not group_names:
        return _ref_complete(rows, group_names, specs).slice(0, 0)
    codes, first_rows, n_groups = reference_group_codes(rows, group_names)
    out = {name: rows.held(name)[first_rows] for name in group_names}
    schema = [rows.schema.column(g) for g in group_names]
    if partial and any(spec.distinct for spec in specs):
        (spec,) = specs
        dedup = rows.filter(_ref_first_occurrence(_ref_pairs(codes, spec.argument.held(rows))))
        out = {name: dedup.held(name) for name in group_names}
        out[spec.output] = spec.argument.held(dedup)
        return RowSet(TableSchema(
            [dedup.schema.column(g) for g in group_names]
            + [SchemaColumn(spec.output, _ref_output_type("min", out[spec.output]))]), out)
    for spec in specs:
        values = None if spec.argument is None else spec.argument.held(rows)
        if spec.distinct:
            codes_d, values_d = codes, values
            if values is not None:
                codes_d, values_d = _ref_drop_nulls(codes, values)
            keep = _ref_first_occurrence(_ref_pairs(codes_d, values_d))
            out[spec.output] = _ref_agg_array("count", None, codes_d[keep], n_groups)
        else:
            out[spec.output] = _ref_agg_array(spec.func, values, codes, n_groups)
        schema.append(SchemaColumn(spec.output, _ref_output_type(spec.func, values)))
    return RowSet(TableSchema(schema), out)


def _ref_avgs(out: RowSet, specs, in_place: bool) -> RowSet:
    """Each avg's sum divided by its count: in place of the sum (complete),
    or after every other column (final)."""
    cols = {name: out.held(name) for name in out.schema.names}
    schema = list(out.schema.columns)
    for spec in specs:
        if spec.func != "avg":
            continue
        psum, pcount = spec.output + "__psum", spec.output + "__pcount"
        with np.errstate(divide="ignore", invalid="ignore"):
            cols[spec.output] = np.where(cols[pcount] > 0,
                                         cols[psum] / np.maximum(cols[pcount], 1), np.nan)
        del cols[psum], cols[pcount]
        at = [c.name for c in schema].index(psum) if in_place else len(schema)
        schema.insert(at, SchemaColumn(spec.output, ColumnType.FLOAT))
        schema = [c for c in schema if c.name not in (psum, pcount)]
    return RowSet(TableSchema(schema), cols)


def reference_aggregate(rows, group_names, specs, mode="complete") -> RowSet:
    """The old ``aggregate``: avgs decomposed, every spec on its own."""
    if mode == "final":
        merged = [m for spec in specs for m in spec.merge]
        return _ref_avgs(_ref_complete(rows, group_names, merged), specs, in_place=False)
    parts = [p for spec in specs for p in spec.avg_parts or (spec,)]
    if mode == "partial":
        return _ref_complete(rows, group_names, parts, partial=True)
    return _ref_avgs(_ref_complete(rows, group_names, parts), specs, in_place=True)


# ---------------------------------------------------------------------------
# generated inputs

#: kind -> (column type, value pool).  "mixed" does not sort (first seen
#: order); "objnum" holds 1, True and 1.0, which are one key.
_POOLS = {
    "dense": (ColumnType.INT, [0, 1, 2, 3, 5, 7]),
    "sparse": (ColumnType.INT, [-10 ** 12, -5, 0, 10 ** 6, 3 * 10 ** 12, 2 ** 61]),
    "float": (ColumnType.FLOAT, [NAN, 0.0, -0.0, 1.0, 2.5, -1.0, float("inf")]),
    "bool": (ColumnType.BOOL, [False, True]),
    "text": (ColumnType.VARCHAR, [None, "", "a", "b", "ab", "é"]),
    "coded": (ColumnType.VARCHAR, [None, "", "a", "b", "ab", "é"]),
    "mixed": (ColumnType.VARCHAR, [None, 1, "a", 2.5, "b", 0]),
    "objnum": (ColumnType.VARCHAR, [None, 0, 1, True, 1.0, 2.5]),
}
_DTYPES = {"dense": np.int64, "sparse": np.int64, "float": np.float64,
           "bool": np.bool_, "text": object, "mixed": object, "objnum": object}


def _held(kind: str, values: list, draw) -> Held:
    """``values`` as a batch holds a column of ``kind``; a coded column is
    cut into pieces whose dictionaries differ (entries no row carries
    included), then joined as a scan joins blocks."""
    if kind != "coded":
        return np.array(values, dtype=_DTYPES[kind])
    cuts = sorted(draw(st.lists(st.integers(0, len(values)), max_size=2)))
    pieces = []
    for lo, hi in zip([0] + cuts, cuts + [len(values)]):
        extras = draw(st.lists(st.sampled_from(["", "m", "zzz"]), max_size=2))
        dictionary, codes = dictionary_of(values[lo:hi] + extras)
        pieces.append(CodedStrings(codes[: hi - lo], dictionary))
    return join_blocks(pieces)


def _key(value: object) -> object:
    """A value as ``_factorize`` tells values apart: every NaN is one."""
    return "NaN" if isinstance(value, float) and value != value else value


@st.composite
def group_batches(draw, max_rows=30, max_keys=4):
    """A batch of 0..4 key columns and the value columns the specs read.

    A key column is drawn from a pool, or *derived* — a function of earlier
    keys (so the groups so far determine it) — or *almost* derived: one row
    then changed to a value its group does not hold."""
    # Now and then a batch long enough that numpy's unstable sort reorders
    # equal codes (it runs an insertion sort, which is stable, on 16 or fewer).
    n = draw(st.one_of(st.integers(0, max_rows), st.integers(max_rows, 5 * max_rows)))
    columns: Dict[str, Tuple[ColumnType, Held]] = {}
    texts: Dict[str, list] = {}
    for i in range(draw(st.integers(0, max_keys))):
        shape = draw(st.sampled_from(["pool", "pool", "derived", "almost"]) if i else
                     st.just("pool"))
        kind = draw(st.sampled_from(sorted(_POOLS)))
        pool = _POOLS[kind][1]
        if shape == "pool":
            values = draw(st.lists(st.sampled_from(pool), min_size=n, max_size=n))
        else:
            sources = draw(st.lists(st.sampled_from(sorted(texts)), min_size=1, unique=True))
            table: Dict[tuple, object] = {}
            values = []
            for row in range(n):
                source = tuple(_key(texts[name][row]) for name in sources)
                if source not in table:
                    table[source] = draw(st.sampled_from(pool))
                values.append(table[source])
            if shape == "almost" and n >= 2:
                row = draw(st.integers(0, n - 1))
                other = [v for v in pool if _key(v) != _key(values[row])]
                values[row] = draw(st.sampled_from(other))
        name = f"k{i}"
        columns[name] = (_POOLS[kind][0], _held(kind, values, draw))
        texts[name] = values
    floats = st.one_of(st.sampled_from([NAN, 0.0, -0.0]), st.floats(-1e6, 1e6, width=64))
    columns["v"] = (ColumnType.FLOAT, np.array(
        draw(st.lists(floats, min_size=n, max_size=n)), dtype=np.float64))
    columns["w"] = (ColumnType.INT, np.array(
        draw(st.lists(st.sampled_from([-3, -1, 0, 2, 5, BIG, BIG + 1]), min_size=n, max_size=n)),
        dtype=np.int64))
    columns["s"] = (ColumnType.VARCHAR, _held(
        "coded", draw(st.lists(st.sampled_from(_POOLS["text"][1]), min_size=n, max_size=n)),
        draw))
    columns["b"] = (ColumnType.BOOL, np.array(
        draw(st.lists(st.booleans(), min_size=n, max_size=n)), dtype=np.bool_))
    schema = TableSchema([SchemaColumn(name, ctype) for name, (ctype, _) in columns.items()])
    rows = RowSet(schema, {name: held for name, (_, held) in columns.items()})
    return rows, [name for name in columns if name.startswith("k")]


#: Aggregates a generated call draws from, repeats allowed: ``w * 2`` is one
#: argument expression read by three of them.
_MENU = [
    ("sum", col("v"), False), ("avg", col("v"), False), ("count", col("v"), False),
    ("min", col("v"), False), ("max", col("v"), False),
    ("sum", col("w"), False), ("avg", col("w"), False), ("min", col("w"), False),
    ("max", col("w"), False), ("count", None, False), ("count", col("s"), False),
    ("min", col("s"), False), ("max", col("s"), False), ("sum", col("b"), False),
    ("sum", col("w") * 2, False), ("max", col("w") * 2, False), ("avg", col("w") * 2, False),
    ("count", col("w"), True), ("count", col("s"), True), ("count", col("v"), True),
]


@st.composite
def spec_lists(draw):
    picks = draw(st.lists(st.sampled_from(_MENU), min_size=1, max_size=8))
    return [AggregateSpec(func, argument, f"a{i}", distinct)
            for i, (func, argument, distinct) in enumerate(picks)]


def _by_name(rows: RowSet, names: Sequence[str]) -> RowSet:
    return RowSet(TableSchema([rows.schema.column(n) for n in names]),
                  {n: rows.held(n) for n in names})


def _check(rows: RowSet, keys: List[str], specs: List[AggregateSpec], cut: int) -> None:
    want_codes, want_first, want_groups = reference_group_codes(rows, keys)
    codes, first, groups = _group_codes(rows, keys)
    assert groups == want_groups
    assert codes.dtype == np.int64 and codes.tolist() == want_codes.tolist()
    assert first.tolist() == want_first.tolist()

    names = keys + [spec.output for spec in specs]
    got = aggregate(rows, keys, specs)
    assert got.schema.names == names
    assert_same_rowset(got, reference_aggregate(rows, keys, specs))

    # Two phases: a distinct count is planned alone, the rest together.
    distinct = [spec for spec in specs if spec.distinct]
    two_phase = distinct[:1] or specs
    halves = [rows.slice(0, cut), rows.slice(cut)]
    partials = [aggregate(h, keys, two_phase, "partial") for h in halves]
    for half, partial in zip(halves, partials):
        assert_same_rowset(partial, reference_aggregate(half, keys, two_phase, "partial"))
    merged = RowSet.concat(partials)
    final = aggregate(merged, keys, two_phase, "final")
    assert final.schema.names == keys + [spec.output for spec in two_phase]
    want = reference_aggregate(merged, keys, two_phase, "final")
    assert_same_rowset(final, _by_name(want, final.schema.names))


class TestAgainstReference:
    @settings(max_examples=300, deadline=None)
    @given(group_batches(), spec_lists(), st.data())
    def test_codes_first_rows_and_every_mode(self, batch, specs, data):
        rows, keys = batch
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", RuntimeWarning)  # avg of an empty group
            _check(rows, keys, specs, data.draw(st.integers(0, rows.num_rows)))

    @settings(max_examples=150, deadline=None)
    @given(group_batches(), st.integers(1, 40))
    def test_wherever_the_code_space_overflows(self, batch, limit):
        """``_MAX_CODE`` pulled down to a handful: ``_combine`` re-densifies
        between columns, with and without skipped keys between them."""
        rows, keys = batch
        want = reference_group_codes(rows, keys)
        old, operators._MAX_CODE = operators._MAX_CODE, limit
        try:
            got = _group_codes(rows, keys)
        finally:
            operators._MAX_CODE = old
        assert got[2] == want[2]
        assert got[0].tolist() == want[0].tolist() and got[1].tolist() == want[1].tolist()

    @pytest.mark.parametrize("groups", [(1 << 16) - 1, (1 << 16) + 1, 90_000])
    def test_more_groups_than_the_radix_order_takes(self, groups):
        """Each group three rows, first key dense, then a float key it
        determines, then one it almost determines; min/max read the order
        that ``_group_order`` makes by ``code * n + row``."""
        rng = np.random.default_rng(groups)
        k0 = rng.permutation(np.repeat(np.arange(groups, dtype=np.int64) * 3, 3))
        k1 = np.where(k0 % 2 == 0, -0.0, k0 * 0.5)
        k2 = k1.copy()
        k2[rng.integers(0, len(k2))] = 0.25
        v = rng.normal(size=len(k0))
        v[rng.integers(0, len(v), 100)] = NAN
        schema = TableSchema.of(("k0", ColumnType.INT), ("k1", ColumnType.FLOAT),
                                ("k2", ColumnType.FLOAT), ("v", ColumnType.FLOAT))
        rows = RowSet(schema, {"k0": k0, "k1": k1, "k2": k2, "v": v})
        specs = [AggregateSpec("min", col("v"), "lo"), AggregateSpec("max", col("v"), "hi"),
                 AggregateSpec("avg", col("v"), "mean"), AggregateSpec("sum", col("v"), "s")]
        for keys in (["k0", "k1"], ["k0", "k2"], ["k0", "k1", "k2"]):
            _check(rows, keys, specs, len(k0) // 3)

    @pytest.mark.parametrize("size", [3, 1 << 16, (1 << 16) + 1, 200_000])
    def test_group_order_is_the_stable_argsort(self, size):
        codes = np.random.default_rng(size).integers(0, size, 150_000)
        assert np.array_equal(_group_order(codes, size), np.argsort(codes, kind="stable"))

    def test_empty_input(self):
        schema = TableSchema.of(("k", ColumnType.FLOAT), ("v", ColumnType.FLOAT),
                                ("w", ColumnType.INT), ("s", ColumnType.VARCHAR),
                                ("b", ColumnType.BOOL))
        rows = RowSet(schema, {"k": np.zeros(0), "v": np.zeros(0),
                               "w": np.zeros(0, dtype=np.int64),
                               "s": CodedStrings(np.zeros(0, dtype=np.int64),
                                                 np.array(["a"], dtype=object)),
                               "b": np.zeros(0, dtype=np.bool_)})
        specs = [AggregateSpec(func, argument, f"a{i}", distinct)
                 for i, (func, argument, distinct) in enumerate(_MENU) if not distinct]
        for keys in ([], ["k"], ["k", "w"]):
            _check(rows, keys, specs, 0)


class TestDeterminedKeys:
    def test_a_determined_float_key_is_not_sorted(self, monkeypatch):
        """q18's shape: the order key determines date and price, so the
        float column is compared, not factorized."""
        keys = np.repeat(np.arange(0, 3000, 3, dtype=np.int64), 4)
        price = np.where(keys % 5 == 0, np.nan, keys * 0.25)  # a NaN equals a NaN
        schema = TableSchema.of(("k", ColumnType.INT), ("d", ColumnType.DATE),
                                ("p", ColumnType.FLOAT))
        rows = RowSet(schema, {"k": keys, "d": keys * 7 + 10_000, "p": price})

        def no_sort(*args, **kwargs):
            raise AssertionError("a determined key was sorted")

        want = reference_group_codes(rows, ["k", "d", "p"])
        monkeypatch.setattr(operators, "_sorted_codes", no_sort)
        monkeypatch.setattr(operators, "_sorted_groups", no_sort)
        got = _group_codes(rows, ["k", "d", "p"])
        assert got[2] == want[2] and np.array_equal(got[0], want[0])
        assert np.array_equal(got[1], want[1])

    def test_one_row_off_is_not_determined(self):
        keys = np.repeat(np.arange(50, dtype=np.int64), 2)
        price = keys * 1.5
        price[7] = -1.0
        schema = TableSchema.of(("k", ColumnType.INT), ("p", ColumnType.FLOAT))
        rows = RowSet(schema, {"k": keys, "p": price})
        codes, _, groups = _group_codes(rows, ["k", "p"])
        assert groups == 51 and codes[6] != codes[7]

    def test_nan_keys_are_one_value_signed_zeros_keep_the_first_row(self):
        schema = TableSchema.of(("k", ColumnType.VARCHAR), ("f", ColumnType.FLOAT),
                                ("v", ColumnType.FLOAT))
        rows = RowSet(schema, {
            "k": np.array(["a", "b", "a", "b", "c"], dtype=object),
            "f": np.array([NAN, -0.0, NAN, 0.0, 1.0]),
            "v": np.array([1.0, 2.0, 4.0, 8.0, 16.0]),
        })
        out = aggregate(rows, ["k", "f"], [AggregateSpec("sum", col("v"), "s")])
        assert out.column("s").tolist() == [5.0, 10.0, 16.0]
        assert np.isnan(out.column("f")[0]) and np.signbit(out.column("f")[1])


class TestSharedStates:
    def test_each_state_and_argument_is_computed_once(self, monkeypatch):
        """q01's shape: ``sum(x)`` beside ``avg(x)`` and a repeated argument
        expression; kernels and evaluations are counted."""
        kernels, evaluations = [], []
        real_kernel = operators._agg_array
        monkeypatch.setattr(operators, "_agg_array", lambda func, values, *rest: (
            kernels.append(func) or real_kernel(func, values, *rest)))
        expr = col("x") * 2
        real_held = type(expr).held
        monkeypatch.setattr(type(expr), "held", lambda self, rows: (
            evaluations.append(repr(self)) or real_held(self, rows)))
        schema = TableSchema.of(("g", ColumnType.INT), ("x", ColumnType.FLOAT))
        rows = RowSet(schema, {"g": np.array([1, 2, 1], dtype=np.int64),
                               "x": np.array([1.0, 2.0, 4.0])})
        specs = [AggregateSpec("sum", col("x"), "s"), AggregateSpec("avg", col("x"), "a"),
                 AggregateSpec("sum", expr, "s2"), AggregateSpec("max", expr, "m2"),
                 AggregateSpec("avg", expr, "a2")]
        for mode in ("complete", "partial"):
            del kernels[:], evaluations[:]
            out = aggregate(rows, ["g"], specs, mode)
            assert sorted(kernels) == ["count", "count", "max", "sum", "sum"], mode
            assert evaluations == ["(col('x') * lit(2))"], mode
        assert out.schema.names == ["g", "s", "a__psum", "a__pcount", "s2", "m2",
                                    "a2__psum", "a2__pcount"]
        assert out.held("s") is out.held("a__psum")
        assert aggregate(rows, ["g"], specs).to_pylist() == [
            (1, 5.0, 2.5, 10.0, 8.0, 5.0), (2, 2.0, 2.0, 4.0, 4.0, 4.0)]

    def test_the_sharing_is_decided_once_per_spec(self):
        spec = AggregateSpec("avg", col("x") + 1, "a")
        assert spec.state is spec.state
        assert [p.state[1] for p in spec.avg_parts] == [
            "sum((col('x') + lit(1)))", "count((col('x') + lit(1)))"]
        assert AggregateSpec("count", None, "n").state == ("*", "count(*)")
        assert AggregateSpec("count", col("x"), "d", distinct=True).state[1] == \
            "count distinct(col('x'))"


class TestIntegerSums:
    """``sum`` of an integer column is exact through a whole query, partial
    and final phase included (it went through float64)."""

    def test_sum_is_exact_past_2_to_53(self, eon4: EonCluster):
        eon4.execute("create table t (g int, x int)")
        eon4.load("t", [(1, BIG), (1, 1), (2, 2 ** 62 + 1), (3, -BIG - 1), (3, 1), (3, 1)])
        got = eon4.query("select g, sum(x) from t group by g order by g").rows.to_pylist()
        assert got == [(1, BIG + 1), (2, 2 ** 62 + 1), (3, -BIG + 1)]
        assert eon4.query("select sum(x) from t").rows.to_pylist() == [
            (2 ** 62 + 3,)]

    def test_bool_sums_count_and_overflow_wraps(self):
        schema = TableSchema.of(("g", ColumnType.INT), ("b", ColumnType.BOOL),
                                ("x", ColumnType.INT))
        rows = RowSet(schema, {"g": np.array([0, 0, 1], dtype=np.int64),
                               "b": np.array([True, True, False]),
                               "x": np.array([2 ** 62, 2 ** 62, 5], dtype=np.int64)})
        out = aggregate(rows, ["g"], [AggregateSpec("sum", col("b"), "n"),
                                      AggregateSpec("sum", col("x"), "s")])
        assert out.column("n").tolist() == [2, 0]
        assert out.column("s").tolist() == [-(2 ** 63), 5]  # int64 wraps


# ---------------------------------------------------------------------------
# ratchet: sort work of group numbering over the TPC-H queries

#: Elements argsorted inside ``_group_codes`` over one pass of the 20 TPC-H
#: queries at the end-to-end benchmark's quick scale (0.004, seed 42, four
#: nodes and shards, one COPY per table).  Before determined keys were
#: skipped it was 50 748.  Lower it freely; raising it needs a reason.
GROUP_SORT_ELEMENTS = 664


class _CountingNumpy:
    """``numpy`` for ``operators``, counting the elements ``argsort`` is
    handed while ``_group_codes`` runs."""

    def __init__(self):
        self.inside = 0
        self.elements = 0

    def __getattr__(self, name):
        return getattr(np, name)

    def argsort(self, values, *args, **kwargs):
        if self.inside:
            self.elements += len(values)
        return np.argsort(values, *args, **kwargs)


def test_group_sort_work_over_the_tpch_queries(monkeypatch):
    cluster = EonCluster(["n1", "n2", "n3", "n4"], shard_count=4, seed=42)
    setup_tpch_schema(cluster)
    load_tpch(cluster, TpchData.generate(scale=0.004, seed=42))
    counting = _CountingNumpy()
    real = operators._group_codes

    def group_codes(rows, group_names):
        counting.inside += 1
        try:
            return real(rows, group_names)
        finally:
            counting.inside -= 1

    monkeypatch.setattr(operators, "np", counting)
    monkeypatch.setattr(operators, "_group_codes", group_codes)
    for query in TPCH_QUERIES:
        cluster.query(query.sql)
    assert counting.elements <= GROUP_SORT_ELEMENTS
