"""Physical operators over columnar batches: join, aggregate, sort/limit.

These are the building blocks the distributed executor composes.  Each is a
pure function from :class:`RowSet` inputs to a :class:`RowSet` output.

Aggregation supports the three distributed modes the planner needs:

* ``complete`` — one-shot aggregation (used when data is co-segmented on
  the group keys, so every group lives wholly on one node);
* ``partial`` — per-node pre-aggregation producing mergeable state;
* ``final`` — merging partial states on the initiator.

COUNT(DISTINCT x) merges by shipping deduplicated (group, x) pairs in the
partial phase unless the planner proves co-segmentation — the reason the
paper calls segmentation "particularly effective for the computation of
high-cardinality distinct aggregates" (section 2.2).
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from typing import Dict, List, Optional, Sequence, Tuple, Union

import numpy as np

from repro.common.types import ColumnType, SchemaColumn, TableSchema
from repro.engine.expressions import ColumnRef, Expr, null_mask
from repro.errors import ExecutionError
from repro.storage.container import RowSet, sort_order
from repro.storage.encoding import CodedStrings, Held, dictionary_of

_AGG_FUNCS = ("sum", "count", "avg", "min", "max")


@dataclass(frozen=True)
class AggregateSpec:
    """One aggregate output column."""

    func: str
    argument: Optional[Expr]  # None only for count(*)
    output: str
    distinct: bool = False

    def __post_init__(self) -> None:
        if self.func not in _AGG_FUNCS:
            raise ValueError(f"unknown aggregate {self.func!r}")
        if self.argument is None and self.func != "count":
            raise ValueError(f"{self.func} requires an argument")
        if self.distinct and self.func not in ("count",):
            # sum/min/max distinct are rare; count distinct is the headline.
            raise ValueError("DISTINCT supported for count only")

    # Rewritten once per spec, which lives as long as its (kept) plan.

    @cached_property
    def state(self) -> Tuple[str, str]:
        """``(argument, column)`` as text: specs of one call that share the
        first evaluate their argument once, and those that share the second
        (``sum(x)`` beside avg's sum of ``x``) compute their column once."""
        argument = "*" if self.argument is None else repr(self.argument)
        return argument, f"{self.func}{' distinct' if self.distinct else ''}({argument})"

    @cached_property
    def avg_parts(self) -> Tuple["AggregateSpec", ...]:
        """The mergeable sum and count an avg is computed from, else ()."""
        if self.func != "avg":
            return ()
        return (
            AggregateSpec("sum", self.argument, self.output + "__psum"),
            AggregateSpec("count", self.argument, self.output + "__pcount"),
        )

    @cached_property
    def merge(self) -> Tuple["AggregateSpec", ...]:
        """What the final phase runs over this aggregate's partial columns."""
        if self.distinct:
            return (AggregateSpec("count", ColumnRef(self.output), self.output, distinct=True),)
        return tuple(
            AggregateSpec("sum" if p.func == "count" else p.func, ColumnRef(p.output), p.output)
            for p in self.avg_parts or (self,)
        )


# ---------------------------------------------------------------------------
# grouping machinery


#: An integer key column is *dense* when its span (max - min + 1) is under
#: this many times its row count; its keys are then addressed directly, as
#: ``key - min``, where a sparse column is sorted.  A hash-segmented primary
#: key, of which each node holds one in ``shard_count``, is the case the
#: factor keeps inside the rule.  Position tables have at most this many
#: slots per row.
_DENSE_SPAN = 16
#: Combined group codes are re-densified before a product could pass this.
_MAX_CODE = 2 ** 62


def _dense_range(column: np.ndarray) -> Optional[Tuple[int, int]]:
    """``(min, span)`` of a dense bool/integer column, else ``None``.  Python
    ints, so keys near the ends of the int64 range cannot overflow."""
    if column.dtype.kind not in "biu" or len(column) == 0:
        return None
    lo, hi = int(column.min()), int(column.max())
    span = hi - lo + 1
    return (lo, span) if span < _DENSE_SPAN * len(column) else None


def _offsets(column: np.ndarray, lo: int) -> np.ndarray:
    """``column - lo`` modulo 2**64, as uint64: below ``span`` exactly for
    the values inside ``[lo, lo + span)``, whatever the integer dtype."""
    return column.astype(np.uint64) - np.uint64(lo % 2 ** 64)


def _run_codes(order: np.ndarray, starts: np.ndarray) -> np.ndarray:
    """Run number of each row, from :func:`_sorted_groups`' runs."""
    codes = np.empty(len(order), dtype=np.int64)
    codes[order] = np.repeat(
        np.arange(len(starts)), np.diff(starts, append=len(order))
    )
    return codes


def _group_order(codes: np.ndarray, size: int) -> np.ndarray:
    """Stable argsort of codes drawn from ``range(size)``, ``size`` at most
    one per row.  numpy sorts 16-bit keys by radix, in linear time; wider
    codes sort ``code * n + row`` — unique keys, so any sort is stable."""
    if size <= 1 << 16:
        return np.argsort(codes.astype(np.uint16), kind="stable")
    n = len(codes)
    keys = codes * n + np.arange(n)
    keys.sort()
    return keys % n


def _direct_codes(arr: Held) -> Optional[Tuple[np.ndarray, int]]:
    """:func:`_factorize`'s answer where it needs no sort, else ``None``:
    strings held as codes are factorized already, and a dense integer
    column is coded ``value - min`` (not every code need occur)."""
    if isinstance(arr, CodedStrings):
        return arr.codes, len(arr.dictionary)
    dense = _dense_range(arr)
    if dense is not None:
        return _offsets(arr, dense[0]).view(np.int64), dense[1]
    return None


def _factorize(arr: Held) -> Tuple[np.ndarray, int]:
    """``(codes, size)``: equal values share a code in ``range(size)`` and
    codes ascend with the values (``None`` last; NaNs last, as one value)."""
    return _direct_codes(arr) or _sorted_codes(arr)


def _sorted_codes(arr: np.ndarray) -> Tuple[np.ndarray, int]:
    """:func:`_factorize` of a column it must sort."""
    if arr.dtype.kind == "O":
        column = arr.tolist()
        try:
            dictionary, codes = dictionary_of(column)
            return codes, len(dictionary)
        except TypeError:
            # Mixed-type object columns (e.g. a VARCHAR column fed ints by
            # an expression) are not mutually comparable: keep the order of
            # first occurrence.
            index = {v: i for i, v in enumerate(dict.fromkeys(column))}
            codes = map(index.__getitem__, column)
            return np.fromiter(codes, dtype=np.int64, count=len(column)), len(index)
    # A code names a run, whatever the order inside it: any sort will do.
    order, starts, _ = _sorted_groups(arr, kind=None)
    if arr.dtype.kind == "f":
        # Each NaN sorted into a run of its own; as a group key they are one.
        starts = starts[: len(starts) - max(np.count_nonzero(np.isnan(arr)) - 1, 0)]
    return _run_codes(order, starts), len(starts)


def _combine(
    codes: np.ndarray, space: int, more: np.ndarray, size: int
) -> Tuple[np.ndarray, int]:
    """Mixed-radix pair of two code columns and its code space; the first
    is re-densified (to at most one code per row) if the product would
    leave int64."""
    if space * size > _MAX_CODE:
        codes, _, space = _densify(codes, space)
    return codes * size + more, space * size


def _densify(codes: np.ndarray, space: int) -> Tuple[np.ndarray, np.ndarray, int]:
    """Number the occupied codes of ``range(space)`` 0, 1, ... in order:
    ``(dense codes, first row of each group, group count)``."""
    n = len(codes)
    if space < _DENSE_SPAN * n:
        first = np.full(space, n, dtype=np.int64)
        np.minimum.at(first, codes, np.arange(n))
        occupied = (first < n).nonzero()[0]
        dense = np.empty(space, dtype=np.int64)
        dense[occupied] = np.arange(len(occupied))
        return dense[codes], first[occupied], len(occupied)
    order, starts, _ = _sorted_groups(codes, kind=None)
    # The sort is unstable: a group's first row is the least of its run.
    return _run_codes(order, starts), np.minimum.reduceat(order, starts), len(starts)


def _group_codes(
    rows: RowSet, group_names: Sequence[str]
) -> Tuple[np.ndarray, np.ndarray, int]:
    """Dense group code per row, groups numbered in key order (column by
    column, as :func:`_factorize` orders each), the first row of each group,
    and the group count.

    A later key column that the groups so far already determine is skipped
    where coding it would sort (it is sorted, or its codes would push the
    code space past the dense bound): the groups, their order and their
    first rows are those of the keys before it."""
    none = np.zeros(0, dtype=np.int64)
    if not group_names:
        # Global aggregation always has exactly one group, even over an
        # empty input (SQL semantics: one output row).
        return np.zeros(rows.num_rows, dtype=np.int64), none, 1
    n = rows.num_rows
    if n == 0:
        return none, none, 0
    codes, space = _factorize(rows.held(group_names[0]))
    bound = _DENSE_SPAN * n  # a larger code space is numbered by a sort
    members = None  # one row of each row's group, for the codes so far
    for name in group_names[1:]:
        column = rows.held(name)
        coded = _direct_codes(column)
        if space < bound and (coded is None or space * coded[1] >= bound):
            if members is None:
                members = _members(codes, space)
            if _determined(column, members):
                continue
        codes, space = _combine(codes, space, *(coded or _sorted_codes(column)))
        members = None
    return _densify(codes, space)


def _members(codes: np.ndarray, space: int) -> np.ndarray:
    """For each row, some row with the same code (which one is immaterial)."""
    member = np.empty(space, dtype=np.int64)
    member[codes] = np.arange(len(codes))
    return member[codes]


def _determined(column: Held, members: np.ndarray) -> bool:
    """Whether every row's value equals its group member's, in
    :func:`_factorize`'s equality: one NaN equals another."""
    if isinstance(column, CodedStrings):
        column = column.codes
    other = column[members]
    same = other == column
    if column.dtype.kind == "f":
        same |= np.isnan(other) & np.isnan(column)
    return bool(same.all())


def _output_type(func: str, arg: Optional[Held]) -> ColumnType:
    if func == "count":
        return ColumnType.INT
    if func == "avg":
        return ColumnType.FLOAT
    if arg is None:
        return ColumnType.INT
    kind = arg.dtype.kind
    if kind == "f":
        return ColumnType.FLOAT
    if kind == "O":
        return ColumnType.VARCHAR
    if kind == "b":
        return ColumnType.BOOL
    return ColumnType.INT


def _drop_nulls(codes: np.ndarray, values: Held) -> Tuple[np.ndarray, Held]:
    """``(codes, values)`` without the rows whose value is NULL; the arrays
    themselves when there is none."""
    null = null_mask(values)
    if not null.any():
        return codes, values
    valid = ~null
    return codes[valid], values[valid]


def _agg_array(
    func: str,
    values: Optional[Held],
    codes: np.ndarray,
    n: int,
    order: Optional[np.ndarray] = None,
) -> np.ndarray:
    """One aggregate over dense group ``codes``, NULL-aware.

    NULL is ``None`` in object columns and ``NaN`` in float columns; int
    and bool columns cannot hold NULL (no sentinel).  NULLs are masked
    before the kernels run, so they never contribute to ``count(col)``,
    ``sum``, ``min``, or ``max``.  ``order`` is the stable argsort of
    ``codes`` that ``min``/``max`` reduce over, for callers that have it.
    Strings held as codes are reduced as the integers they are.
    """
    if len(codes) == 0:
        # Only the global-aggregate case reaches here with n == 1; grouped
        # aggregation over empty input produces zero groups.
        if func == "count":
            return np.zeros(n, dtype=np.int64)
        if func == "sum":
            if values is not None and values.dtype.kind == "f":
                return np.zeros(n, dtype=np.float64)
            return np.zeros(n, dtype=np.int64)
        # min/max of an empty input: NULL in SQL; we use the type's zero
        # (numeric) or None (string) — documented deviation.
        if values is not None and values.dtype.kind == "O":
            return np.full(n, None, dtype=object)
        if values is not None and values.dtype.kind == "f":
            return np.full(n, np.nan)
        return np.zeros(n, dtype=np.int64 if values is None else values.dtype)
    if func == "count":
        # count(*) (values is None) counts rows; count(col) skips NULLs.
        if values is not None:
            codes, _ = _drop_nulls(codes, values)
        return np.bincount(codes, minlength=n).astype(np.int64)
    if func == "sum":
        if values.dtype.kind == "f":
            # NaN is the float NULL sentinel: mask it before bincount so a
            # single NULL does not poison its group.  An all-NULL group
            # sums to 0.0 rather than SQL's NULL — documented deviation.
            codes, values = _drop_nulls(codes, values)
            return np.bincount(codes, weights=values, minlength=n)
        if values.dtype.kind == "O":
            # An object column (a CASE whose int and float branches promote
            # to object) keeps its float64 round trip and truncation.
            return np.bincount(codes, weights=values.astype(np.float64), minlength=n).astype(np.int64)
        # Integers and bools add exactly in int64 (wrapping past 2**63).
        out = np.zeros(n, dtype=np.int64)
        np.add.at(out, codes, values.astype(np.int64, copy=False))
        return out
    if func in ("min", "max"):
        if order is None:
            order = _group_order(codes, n)
        entries = None
        if isinstance(values, CodedStrings):
            # Codes ascend with their strings and NULL is the largest: it
            # loses every ``min`` as it is, and every ``max`` as -1 — and an
            # all-NULL group's answer, either way, indexes ``None``.
            entries = np.append(values.dictionary, None)
            values = (
                np.where(null_mask(values), -1, values.codes) if func == "max"
                else values.codes
            )
        sorted_values = values[order]
        if values.dtype.kind == "f":
            # Mask NULLs up front; a group whose values are all NULL then
            # vanishes from the order and stays NaN in the scatter below.
            valid = ~np.isnan(sorted_values)
            order, sorted_values = order[valid], sorted_values[valid]
            if len(order) == 0:
                return np.full(n, np.nan)
        sorted_codes = codes[order]
        starts = np.concatenate(([0], np.flatnonzero(sorted_codes[1:] != sorted_codes[:-1]) + 1))
        if values.dtype.kind == "O":
            out = np.full(n, None, dtype=object)
            ends = np.concatenate((starts[1:], [len(sorted_values)]))
            for g, (s, e) in enumerate(zip(starts, ends)):
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
    raise ExecutionError(f"unsupported aggregate {func!r}")


def aggregate(
    rows: RowSet,
    group_names: Sequence[str],
    specs: Sequence[AggregateSpec],
    mode: str = "complete",
) -> RowSet:
    """Group-by aggregation in one of the three distributed modes.

    ``complete`` and ``partial`` compute each spec's partial states (an
    avg's sum and count, any other spec itself), ``final`` merges them;
    ``complete`` and ``final`` then divide each avg's sum by its count."""
    if mode not in ("complete", "partial", "final"):
        raise ValueError(f"unknown aggregation mode {mode!r}")
    if mode == "final":
        states = [merge for spec in specs for merge in spec.merge]
    else:
        states = [part for spec in specs for part in spec.avg_parts or (spec,)]
    columns, schema = _aggregate_states(rows, group_names, states, mode == "partial")
    if mode != "partial" and any(spec.func == "avg" for spec in specs):
        typed = {c.name: c for c in schema}
        held, columns = columns, {name: columns[name] for name in group_names}
        schema = schema[: len(group_names)]
        for spec in specs:
            if spec.func != "avg":
                columns[spec.output] = held[spec.output]
                schema.append(typed[spec.output])
                continue
            psum, pcount = (held[part.output] for part in spec.avg_parts)
            with np.errstate(divide="ignore", invalid="ignore"):
                columns[spec.output] = np.where(pcount > 0, psum / np.maximum(pcount, 1), np.nan)
            schema.append(SchemaColumn(spec.output, ColumnType.FLOAT))
    return RowSet(TableSchema(schema), columns)


def _aggregate_states(
    rows: RowSet,
    group_names: Sequence[str],
    specs: Sequence[AggregateSpec],
    partial: bool = False,
) -> Tuple[Dict[str, Held], List[SchemaColumn]]:
    """The group keys and one column per spec (no avg), with their schema.
    Specs that share :attr:`AggregateSpec.state` share the argument or the
    column."""
    if partial and rows.num_rows == 0 and not group_names:
        # A node with no matching rows contributes NO partial state:
        # emitting the zero-placeholder row would poison min/max merging
        # (min(0, real_min) is wrong).  The schema is derived from the
        # zero-row placeholder, then emptied.
        columns, schema = _aggregate_states(rows, group_names, specs)
        return {name: values[:0] for name, values in columns.items()}, schema
    codes, first_rows, n_groups = _group_codes(rows, group_names)
    # Each group is represented by the key values of its first row.
    out_cols: Dict[str, Held] = {
        name: rows.held(name)[first_rows] for name in group_names
    }
    out_schema_cols: List[SchemaColumn] = [rows.schema.column(g) for g in group_names]

    # count-distinct in partial mode ships dedup'd (group, value) pairs
    # instead of counts, so the final phase can merge across nodes.
    if partial and any(spec.distinct for spec in specs):
        if len(specs) > 1:
            raise ExecutionError(
                "partial count-distinct cannot be combined with other "
                "aggregates in one operator; plan them separately"
            )
        spec = specs[0]
        values = spec.argument.held(rows)
        keep = _first_occurrence_mask(_factorize_pairs(codes, values))
        dedup = rows.filter(keep)
        out = {name: dedup.held(name) for name in group_names}
        out[spec.output] = spec.argument.held(dedup)
        return out, out_schema_cols + [
            SchemaColumn(spec.output, _output_type("min", out[spec.output]))
        ]

    # One stable sort by group, shared by every min/max of this call.
    order = None
    arguments: Dict[str, Optional[Held]] = {}
    states: Dict[str, Tuple[np.ndarray, ColumnType]] = {}
    for spec in specs:
        argument, state = spec.state
        done = states.get(state)
        if done is None:
            if argument not in arguments:
                arguments[argument] = (
                    None if spec.argument is None else spec.argument.held(rows))
            values = arguments[argument]
            if spec.distinct:
                codes_d, values_d = codes, values
                if values is not None:
                    codes_d, values_d = _drop_nulls(codes, values)
                keep = _first_occurrence_mask(_factorize_pairs(codes_d, values_d))
                column = _agg_array("count", None, codes_d[keep], n_groups)
            else:
                if order is None and spec.func in ("min", "max"):
                    order = _group_order(codes, n_groups)
                column = _agg_array(spec.func, values, codes, n_groups, order)
            done = states[state] = column, _output_type(spec.func, values)
        out_cols[spec.output] = done[0]
        out_schema_cols.append(SchemaColumn(spec.output, done[1]))
    return out_cols, out_schema_cols


def _factorize_pairs(codes: np.ndarray, values: Optional[Held]) -> np.ndarray:
    """One code per distinct (group code, value) pair; not dense."""
    if values is None or len(codes) == 0:
        return codes
    return _combine(codes, int(codes.max()) + 1, *_factorize(values))[0]


def _first_occurrence_mask(codes: np.ndarray) -> np.ndarray:
    """True at the first row carrying each code, False at its repeats."""
    keep = np.zeros(len(codes), dtype=bool)
    keep[_densify(codes, int(codes.max(initial=-1)) + 1)[1]] = True
    return keep


# ---------------------------------------------------------------------------
# joins


def _sorted_groups(
    values: np.ndarray, kind: Optional[str] = "stable"
) -> Tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Sort of a numeric array into runs of equal values.

    Returns ``(order, starts, uniques)``: ``values[order]`` ascends (with
    equal values in input order unless ``kind`` names an unstable sort), run
    ``g`` is ``order[starts[g]:starts[g+1]]`` and holds ``uniques[g]``.  NaNs
    sort last, each a run of its own.
    """
    order = np.argsort(values, kind=kind)
    ranked = values[order]
    first = np.ones(len(values), dtype=bool)
    first[1:] = ranked[1:] != ranked[:-1]
    starts = np.flatnonzero(first)
    return order, starts, ranked[starts]


def _lookup(uniques: np.ndarray, values: np.ndarray) -> np.ndarray:
    """Position of each value in sorted ``uniques``; -1 where absent (NaN
    equals nothing, so it is always absent)."""
    if len(uniques) == 0:
        return np.full(len(values), -1, dtype=np.int64)
    pos = np.searchsorted(uniques, values)
    pos[pos == len(uniques)] = 0  # any valid slot: the equality test rejects it
    return np.where(uniques[pos] == values, pos, -1)


def _exactly_comparable(a: np.dtype, b: np.dtype) -> bool:
    """Whether numpy compares arrays of the two dtypes without rounding
    (int64 against float64 would round keys above 2**53)."""
    if a == b or a.kind == b.kind == "f":
        return True
    return a.kind in "biu" and b.kind in "biu" and np.result_type(a, b).kind != "f"


class _KeyEncoder:
    """One build key column as dense codes: equal keys share a code.

    A dense integer column (:func:`_dense_range`) keeps a position table,
    ``key - min`` -> code, and a probe is one subtraction and one gather; if
    its keys are also unique (every primary-key side) nothing is sorted.
    Other numeric columns are factorized by one stable sort and probed with
    ``searchsorted``.  Object columns (strings, ``None``) — and probes whose
    dtype numpy cannot compare exactly with the build's — go through one
    dict pass instead, which is Python's own key equality: ``1 == 1.0 ==
    True``.  A NULL — ``None`` or NaN — never gets a code: it equals nothing.

    ``order``/``starts`` group the build rows by code, as
    :func:`_sorted_groups` returns them.
    """

    def __init__(self, column: np.ndarray):
        self._index: Optional[Dict[object, int]] = None
        self._table: Optional[np.ndarray] = None
        dense = _dense_range(column)
        if dense is not None:
            self._lo, span = dense
            offsets = _offsets(column, self._lo).view(np.int64)
            counts = np.bincount(offsets, minlength=span)
            occupied = counts.nonzero()[0]
            self.size = len(occupied)
            # The extra last slot is where every probe outside [min, max] lands.
            self._table = np.full(span + 1, -1, dtype=np.int64)
            self._table[occupied] = np.arange(self.size)
            codes = self._table[offsets]
            if self.size == len(column):
                # Unique keys: group g is the one row whose code is g.
                self.starts = np.arange(self.size)
                self.order = np.empty(self.size, dtype=np.int64)
                self.order[codes] = self.starts
            else:
                self.order = _group_order(codes, self.size)
                self.starts = np.cumsum(counts[occupied]) - counts[occupied]
            self.uniques = column[self.order[self.starts]]
            return
        if column.dtype.kind in "biuf":
            self.order, self.starts, self.uniques = _sorted_groups(column)
            self.size = len(self.uniques)
            return
        self.uniques = None
        index: Dict[object, int] = {}
        codes = np.fromiter(
            (
                index.setdefault(v, len(index)) if v is not None and v == v else -1
                for v in column.tolist()
            ),
            dtype=np.int64, count=len(column),
        )
        self._index = index
        self.size = len(index)
        coded = np.flatnonzero(codes >= 0)
        order, self.starts, _ = _sorted_groups(codes[coded])
        self.order = coded[order]

    @property
    def index(self) -> Dict[object, int]:
        if self._index is None:
            # NaN entries are harmless: each is a fresh object no probe equals.
            self._index = {v: i for i, v in enumerate(self.uniques.tolist())}
        return self._index

    def encode(self, column: np.ndarray) -> np.ndarray:
        """Code of each value of a build or probe column, -1 where the value
        equals no build key."""
        if self.uniques is not None and _exactly_comparable(
            column.dtype, self.uniques.dtype
        ):
            if self._table is None:
                return _lookup(self.uniques, column)
            slots = np.minimum(_offsets(column, self._lo), len(self._table) - 1)
            return self._table[slots.view(np.int64)]
        get = self.index.get
        return np.fromiter(
            (get(v, -1) for v in column.tolist()), dtype=np.int64, count=len(column)
        )


def _pair_codes(codes: np.ndarray, more: np.ndarray, size: int) -> np.ndarray:
    """Combine two code columns into one; -1 wherever either is -1."""
    return np.where((codes < 0) | (more < 0), -1, codes * size + more)


#: A pair-code space of at most this many slots is probed through a position
#: table (4 MiB of int32, whatever the build's size); a larger one is searched.
_PAIR_SLOTS = 1 << 20


class _PairEncoder:
    """The occupied pair codes of a build's first key columns, numbered in
    ascending order: a further key column's :class:`_KeyEncoder`.  The
    pair-code space is known — the codes so far times the column's — so
    where it is small enough a probe is one gather from a position table, as
    for dense integer keys, and ``searchsorted`` otherwise: the same numbers
    either way.  ``order``/``starts`` group the build rows."""

    def __init__(self, pairs: np.ndarray, space: int):
        coded = np.flatnonzero(pairs >= 0)
        order, self.starts, self._sorted = _sorted_groups(pairs[coded])
        self.order = coded[order]
        self.size = len(self._sorted)
        self._slots: Optional[np.ndarray] = None
        if space <= _PAIR_SLOTS:
            # The extra last slot is where -1, a row with no code, lands.
            self._slots = np.full(space + 1, -1, dtype=np.int32)
            self._slots[self._sorted] = np.arange(self.size)

    def encode(self, pairs: np.ndarray) -> np.ndarray:
        if self._slots is None:
            return _lookup(self._sorted, pairs)
        return self._slots[pairs].astype(np.int64)


class JoinBuild:
    """The build side of a hash join: factorized once, probed many times.

    The executor makes one per join and hands it to :func:`hash_join` in
    place of the build ``RowSet`` — once for a local join, for every
    participant of a broadcast one.  The factorization happens on the first
    probe, so its cost sits inside the join call that needs it.

    Build rows are grouped by key: ``_order`` lists them group by group in
    insertion order, group ``g`` being ``_order[_starts[g]:][:_counts[g]]``.
    A probe maps its key columns to group ids (-1: no match) with the same
    per-column encoders; each further key column is paired with the codes so
    far and re-densified (:class:`_PairEncoder`), so codes never outgrow
    ``build rows ** 2``.
    """

    def __init__(self, rows: RowSet, keys: Sequence[str]):
        if not keys:
            raise ValueError("a join needs at least one key column")
        self.rows = rows
        self.keys = tuple(keys)
        self.num_rows = rows.num_rows
        self._encoders: Optional[List[_KeyEncoder]] = None
        #: One per key column after the first.
        self._pairings: List[_PairEncoder] = []

    def _ensure_built(self) -> None:
        if self._encoders is not None:
            return
        columns = [self.rows.column(k) for k in self.keys]
        encoders = [_KeyEncoder(c) for c in columns]
        # One key: the column's own grouping is the join's.
        grouping = encoders[0]
        codes = encoders[0].encode(columns[0]) if len(columns) > 1 else None
        for encoder, column in zip(encoders[1:], columns[1:]):
            pairs = _pair_codes(codes, encoder.encode(column), encoder.size)
            grouping = _PairEncoder(pairs, grouping.size * encoder.size)
            self._pairings.append(grouping)
            codes = grouping.encode(pairs)
        order, starts = self._order, self._starts = grouping.order, grouping.starts
        # As many groups as keyed rows: every key occurs once (the primary-key
        # side of a join), and a probe never asks how long a group is.
        self._unique = len(starts) == len(order)
        self._counts = None if self._unique else np.diff(starts, append=len(order))
        self._encoders = encoders

    def _groups(self, left: RowSet, left_keys: Sequence[str]) -> np.ndarray:
        """Build group id of each probe row, -1 where nothing matches."""
        if len(left_keys) != len(self.keys):
            raise ValueError("join key lists differ in length")
        self._ensure_built()
        columns = [left.column(k) for k in left_keys]
        codes = self._encoders[0].encode(columns[0])
        for encoder, column, pairing in zip(self._encoders[1:], columns[1:], self._pairings):
            codes = pairing.encode(_pair_codes(codes, encoder.encode(column), encoder.size))
        return codes

    def probe(
        self, left: RowSet, left_keys: Sequence[str]
    ) -> Tuple[np.ndarray, np.ndarray, np.ndarray]:
        """Every match as ``(probe_idx, build_idx)`` row-index pairs in probe
        order × build insertion order, plus the mask of matched probe rows."""
        groups = self._groups(left, left_keys)
        hit = groups >= 0
        probe_idx = hit.nonzero()[0]
        groups = groups[probe_idx]
        first = self._starts[groups]
        if not self._unique:
            counts = self._counts[groups]
            probe_idx = np.repeat(probe_idx, counts)
            # Position of each output row within its probe row's run.
            within = np.arange(len(probe_idx)) - np.repeat(np.cumsum(counts) - counts, counts)
            first = np.repeat(first, counts) + within
        return probe_idx, self._order[first], hit


def _as_build(right: Union[RowSet, JoinBuild], right_keys: Sequence[str]) -> JoinBuild:
    if not isinstance(right, JoinBuild):
        return JoinBuild(right, right_keys)
    if right.keys != tuple(right_keys):
        raise ValueError(f"build is keyed on {right.keys}, not {tuple(right_keys)}")
    return right


def hash_join(
    left: RowSet,
    right: Union[RowSet, JoinBuild],
    left_keys: Sequence[str],
    right_keys: Sequence[str],
    how: str = "inner",
    condition: Optional[Expr] = None,
) -> RowSet:
    """Hash join; the smaller side should be ``right`` (build side), given
    as a ``RowSet`` or as a :class:`JoinBuild` to reuse its factorization.

    Output columns: all left columns then all right columns (duplicated
    names get a ``_r`` suffix).  Rows come in probe order, each probe row's
    matches in build insertion order; ``how="left"`` appends the unmatched
    probe rows after all matched ones, right columns padded with NULL/zero.
    ``condition`` is what an ON clause holds beside the key equalities: a
    matched pair where it is False is no match (and leaves its probe row to
    the padding if it was the row's last).
    """
    if how not in ("inner", "left"):
        raise ValueError(f"unsupported join type {how!r}")
    build = _as_build(right, right_keys)
    left_indices, right_indices, hit = build.probe(left, left_keys)
    if condition is not None:
        # Evaluated over the matched pairs, on just the columns it reads.
        pairs: Dict[str, Held] = {}
        pair_schema: List[SchemaColumn] = []
        for name in sorted(condition.columns_used()):
            side, idx = (
                (left, left_indices) if name in left.schema else (build.rows, right_indices)
            )
            pairs[name] = side.held(name)[idx]
            pair_schema.append(side.schema.column(name))
        keep = condition.evaluate(RowSet(TableSchema(pair_schema), pairs)).astype(bool)
        left_indices, right_indices = left_indices[keep], right_indices[keep]
        hit = np.zeros(left.num_rows, dtype=bool)
        hit[left_indices] = True
    n_pad = 0
    if how == "left":
        unmatched = (~hit).nonzero()[0]
        n_pad = len(unmatched)
        left_indices = np.concatenate([left_indices, unmatched])

    out_cols: Dict[str, Held] = {}
    schema_cols: List[SchemaColumn] = []
    for c in left.schema.columns:
        out_cols[c.name] = left.held(c.name)[left_indices]
        schema_cols.append(c)

    # Right key columns are retained: later plan stages may reference them
    # (column names are globally unique, so there is no collision; for the
    # matched rows their values equal the left keys by definition).
    for c in build.rows.schema.columns:
        name = c.name if c.name not in out_cols else c.name + "_r"
        values = build.rows.held(c.name)[right_indices]
        if n_pad:  # left join padding with NULL/zero
            if isinstance(values, CodedStrings):
                values = values.with_nulls(n_pad)
            else:
                if values.dtype.kind == "O":
                    pad = np.full(n_pad, None, dtype=object)
                elif values.dtype.kind == "f":
                    pad = np.full(n_pad, np.nan)
                else:
                    pad = np.zeros(n_pad, dtype=values.dtype)
                values = np.concatenate([values, pad])
        out_cols[name] = values
        schema_cols.append(c if name == c.name else SchemaColumn(name, c.ctype))
    return RowSet(TableSchema(schema_cols), out_cols)


# ---------------------------------------------------------------------------
# sort / limit


def sort_limit(
    rows: RowSet,
    order: Sequence[Tuple[str, bool]],
    limit: Optional[int] = None,
) -> RowSet:
    """ORDER BY (name, ascending) pairs, then optional LIMIT."""
    indices = np.arange(rows.num_rows)
    for name, ascending in reversed(list(order)):
        indices = indices[sort_order(rows.held(name)[indices], ascending)]
    if limit is not None:
        indices = indices[:limit]
    return rows.take(indices)
