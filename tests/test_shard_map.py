"""Shard map: hash-region ownership, rowset splitting."""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.common.hashing import HASH_SPACE
from repro.common.types import ColumnType, TableSchema
from repro.sharding.shard import REPLICA_SHARD_ID, ShardMap
from repro.storage.container import RowSet
from repro.storage.encoding import CodedStrings
from tests.test_hashing import hash_row

SCHEMA = TableSchema.of(("k", ColumnType.INT), ("name", ColumnType.VARCHAR))


def shard_of_hash(sm, hash_value):
    """The scalar form of ``shards_of_rowset``: the shard owning one hash."""
    assert 0 <= hash_value < HASH_SPACE
    shard = min(hash_value * sm.count // HASH_SPACE, sm.count - 1)
    while hash_value < sm._bounds[shard]:
        shard -= 1
    while hash_value >= sm._bounds[shard + 1]:
        shard += 1
    return shard


def region_of(sm, shard_id):
    """The [lo, hi) hash region a segment shard owns."""
    return sm._bounds[shard_id], sm._bounds[shard_id + 1]


def make_rows(n=500):
    return RowSet.from_rows(SCHEMA, [(i, f"u{i}") for i in range(n)])


class TestRegions:
    def test_regions_cover_space_exactly(self):
        sm = ShardMap(4)
        regions = [region_of(sm, s) for s in sm.shard_ids()]
        assert regions[0][0] == 0
        assert regions[-1][1] == HASH_SPACE
        for (lo1, hi1), (lo2, _) in zip(regions, regions[1:]):
            assert hi1 == lo2

    def test_odd_shard_counts(self):
        sm = ShardMap(3)
        total = sum(hi - lo for lo, hi in (region_of(sm, s) for s in range(3)))
        assert total == HASH_SPACE

    def test_single_shard(self):
        sm = ShardMap(1)
        assert shard_of_hash(sm, 0) == 0
        assert shard_of_hash(sm, HASH_SPACE - 1) == 0

    def test_invalid_count_rejected(self):
        with pytest.raises(ValueError):
            ShardMap(0)

    def test_boundary_values(self):
        sm = ShardMap(4)
        for s in range(4):
            lo, hi = region_of(sm, s)
            assert shard_of_hash(sm, lo) == s
            assert shard_of_hash(sm, hi - 1) == s

    @given(st.integers(min_value=0, max_value=HASH_SPACE - 1),
           st.integers(min_value=1, max_value=64))
    @settings(max_examples=100)
    def test_every_hash_owned_by_its_region(self, h, count):
        sm = ShardMap(count)
        shard = shard_of_hash(sm, h)
        lo, hi = region_of(sm, shard)
        assert lo <= h < hi


class TestRowSplitting:
    def test_split_partitions_all_rows(self):
        sm = ShardMap(4)
        rows = make_rows(500)
        parts = sm.split_rowset(rows, ["k"])
        assert sum(p.num_rows for p in parts.values()) == 500

    def test_split_agrees_with_scalar_hash(self):
        sm = ShardMap(4)
        rows = make_rows(200)
        shards = sm.shards_of_rowset(rows, ["k"])
        for i in range(0, 200, 17):
            assert shards[i] == shard_of_hash(sm, hash_row([i]))

    def test_split_multi_column_key(self):
        sm = ShardMap(3)
        rows = make_rows(100)
        shards = sm.shards_of_rowset(rows, ["k", "name"])
        for i in (0, 50, 99):
            assert shards[i] == shard_of_hash(sm, hash_row([i, f"u{i}"]))

    def test_no_empty_shard_entries(self):
        sm = ShardMap(8)
        parts = sm.split_rowset(make_rows(3), ["k"])
        assert all(p.num_rows > 0 for p in parts.values())

    def test_string_key_splitting(self):
        sm = ShardMap(2)
        parts = sm.split_rowset(make_rows(100), ["name"])
        assert sum(p.num_rows for p in parts.values()) == 100

    @given(st.integers(min_value=1, max_value=16), st.integers(min_value=0, max_value=400))
    @settings(max_examples=30)
    def test_split_is_total_and_disjoint(self, count, n):
        sm = ShardMap(count)
        rows = make_rows(n) if n else RowSet.empty(SCHEMA)
        parts = sm.split_rowset(rows, ["k"])
        assert sum(p.num_rows for p in parts.values()) == n
        seen = []
        for part in parts.values():
            seen.extend(part.column("k"))
        assert sorted(seen) == list(range(n))

    def test_replica_shard_id_is_not_a_segment(self):
        sm = ShardMap(4)
        assert REPLICA_SHARD_ID not in sm.shard_ids()
        assert REPLICA_SHARD_ID in sm.all_shard_ids()


# ---------------------------------------------------------------------------
# the split against its reference: one full filter per shard


def split_by_filters(sm: ShardMap, rowset: RowSet, seg_columns) -> dict:
    """``ShardMap.split_rowset`` as it was: every column masked once per
    shard that receives rows."""
    shards = sm.shards_of_rowset(rowset, seg_columns)
    return {int(s): rowset.filter(shards == s) for s in np.unique(shards)}


WIDE = TableSchema.of(
    ("k", ColumnType.INT), ("s", ColumnType.VARCHAR),
    ("t", ColumnType.VARCHAR), ("x", ColumnType.FLOAT),
)
WORDS = ["ant", "bee", "cat", "dog", "eel", None]


@st.composite
def wide_rows(draw):
    """``WIDE`` rows: few distinct keys (so some shards get no rows), ``s``
    held as dictionary codes and ``t`` as text, NULLs in both and NaN in
    ``x``."""
    n = draw(st.integers(0, 60))
    keys = draw(st.lists(st.integers(0, draw(st.integers(0, 12))), min_size=n, max_size=n))
    words = st.lists(st.sampled_from(WORDS), min_size=n, max_size=n)
    s, t = draw(words), draw(words)
    x = draw(st.lists(st.sampled_from([0.5, -1.0, float("nan")]), min_size=n, max_size=n))
    dictionary = np.array(
        sorted({w for w in s if w is not None}) + [None] * (None in s), dtype=object
    )
    codes = np.array([list(dictionary).index(w) for w in s], dtype=np.int64)
    return RowSet(WIDE, {
        "k": ColumnType.INT.coerce(keys), "s": CodedStrings(codes, dictionary),
        "t": ColumnType.VARCHAR.coerce(t), "x": ColumnType.FLOAT.coerce(x),
    })


class TestSplitAgainstFilters:
    @given(wide_rows(), st.integers(1, 8),
           st.sampled_from([["k"], ["t"], ["s", "k"]]))
    @settings(max_examples=200, deadline=None)
    def test_each_shard_gets_the_rows_the_filters_gave_in_their_order(
        self, rows, count, seg_columns
    ):
        sm = ShardMap(count)
        got, want = sm.split_rowset(rows, seg_columns), split_by_filters(sm, rows, seg_columns)
        assert list(got) == list(want) and all(type(s) is int for s in got)
        for shard, part in got.items():
            expected = want[shard]
            assert part.num_rows == expected.num_rows > 0
            for name in WIDE.names:
                held, wanted = part.held(name), expected.held(name)
                assert type(held) is type(wanted)
                if isinstance(held, CodedStrings):
                    assert held.dictionary is wanted.dictionary
                    np.testing.assert_array_equal(held.codes, wanted.codes)
                else:
                    assert held.dtype == wanted.dtype
                    np.testing.assert_array_equal(held, wanted)  # NaN == NaN here
