"""Hash-space primitives: determinism, range, distribution, vectorisation."""

import numpy as np
import pytest
from hypothesis import given, strategies as st

from repro.common import hashing
from repro.common.hashing import (
    HASH_SPACE,
    hash_bytes,
    hash_column,
    hash_columns,
    hash_int,
    hash_value,
)


def hash_row(values) -> int:
    """The scalar form of ``hash_columns``: one row's multi-column key,
    mixed per column."""
    h = hashing._FNV_OFFSET
    for value in values:
        h ^= hash_value(value)
        h = (h * hashing._FNV_PRIME) & hashing._MASK32
    return h


class TestScalarHashing:
    def test_hash_in_range(self):
        for value in (0, 1, -1, 2**40, "abc", b"xyz", 3.5, True, None):
            assert 0 <= hash_value(value) < HASH_SPACE

    def test_deterministic_across_calls(self):
        assert hash_value("customer#42") == hash_value("customer#42")
        assert hash_int(123456789) == hash_int(123456789)

    def test_none_hashes_to_zero(self):
        assert hash_value(None) == 0

    def test_integral_float_matches_int(self):
        # int/float join keys must co-locate.
        assert hash_value(42.0) == hash_value(42)

    def test_numpy_scalars_match_python(self):
        assert hash_value(np.int64(7)) == hash_value(7)
        assert hash_value(np.float64(7.5)) == hash_value(7.5)
        assert hash_value(np.bool_(True)) == hash_value(True)

    def test_unhashable_type_raises(self):
        with pytest.raises(TypeError):
            hash_value(object())

    def test_distinct_values_spread(self):
        hashes = {hash_int(i) for i in range(10_000)}
        assert len(hashes) > 9_990  # essentially no collisions

    def test_bytes_empty(self):
        assert 0 <= hash_bytes(b"") < HASH_SPACE


class TestRowHashing:
    def test_multi_column_order_matters(self):
        assert hash_row([1, 2]) != hash_row([2, 1])

    def test_single_column_row(self):
        assert 0 <= hash_row(["x"]) < HASH_SPACE

    @given(st.lists(st.integers(min_value=-(2**62), max_value=2**62), min_size=1, max_size=4))
    def test_row_hash_in_range(self, values):
        assert 0 <= hash_row(values) < HASH_SPACE


class TestVectorisedHashing:
    def test_int_array_matches_scalar(self):
        arr = np.array([0, 1, -5, 2**40, 17], dtype=np.int64)
        vectorised = hash_column(arr)
        for i, v in enumerate(arr):
            assert vectorised[i] == hash_int(int(v))

    def test_object_array_matches_scalar(self):
        arr = np.array(["a", "bb", None], dtype=object)
        vectorised = hash_column(arr)
        for i, v in enumerate(arr):
            assert vectorised[i] == hash_value(v)

    def test_multi_column_matches_hash_row(self):
        a = np.array([1, 2, 3], dtype=np.int64)
        b = np.array(["x", "y", "z"], dtype=object)
        combined = hash_columns([a, b])
        for i in range(3):
            assert combined[i] == hash_row([int(a[i]), b[i]])

    def test_ragged_columns_rejected(self):
        with pytest.raises(ValueError):
            hash_columns([np.array([1, 2]), np.array([1])])

    def test_empty_columns_rejected(self):
        with pytest.raises(ValueError):
            hash_columns([])

    def test_uniformity_over_space(self):
        hashes = hash_column(np.arange(40_000))
        quartile_counts = np.bincount(
            (hashes // np.uint64(HASH_SPACE // 4)).astype(int), minlength=4
        )
        # Each quartile of the space should get roughly a quarter.
        assert quartile_counts.min() > 8_000

    @given(st.integers(min_value=-(2**63), max_value=2**63 - 1))
    def test_hash_int_range_property(self, value):
        assert 0 <= hash_int(value) < HASH_SPACE
