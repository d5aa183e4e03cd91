"""Block encodings: round-trip exactness and encoding selection."""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.storage.encoding import (
    Encoding,
    decode_block,
    encode_block,
)
from tests.test_codec_kernel import choose_encoding


def roundtrip(arr: np.ndarray, encoding=None) -> np.ndarray:
    return decode_block(encode_block(arr, encoding))


class TestRoundTrips:
    @pytest.mark.parametrize("encoding", [Encoding.PLAIN, Encoding.RLE, Encoding.DELTA])
    def test_int_roundtrip(self, encoding):
        arr = np.array([0, 1, 1, 5, 5, 5, -3, 2**40], dtype=np.int64)
        if encoding is Encoding.DELTA:
            arr = np.sort(arr)
        out = roundtrip(arr, encoding)
        assert out.dtype == np.int64
        assert list(out) == list(np.sort(arr) if encoding is Encoding.DELTA else arr)

    @pytest.mark.parametrize("encoding", [Encoding.PLAIN, Encoding.RLE])
    def test_float_roundtrip(self, encoding):
        arr = np.array([1.5, 1.5, -0.25, 3e300, float("inf")])
        assert list(roundtrip(arr, encoding)) == list(arr)

    @pytest.mark.parametrize("encoding", [Encoding.PLAIN, Encoding.RLE, Encoding.DICT])
    def test_string_roundtrip(self, encoding):
        arr = np.array(["a", "a", None, "日本語", "", "z" * 500], dtype=object)
        assert list(roundtrip(arr, encoding)) == list(arr)

    @pytest.mark.parametrize("encoding", [Encoding.PLAIN, Encoding.RLE])
    def test_bool_roundtrip(self, encoding):
        arr = np.array([True, True, False, True], dtype=np.bool_)
        assert list(roundtrip(arr, encoding)) == list(arr)

    def test_dict_int_roundtrip(self):
        arr = np.array([5, 5, -9, 5, 100], dtype=np.int64)
        assert list(roundtrip(arr, Encoding.DICT)) == list(arr)

    def test_empty_blocks(self):
        for arr in (
            np.array([], dtype=np.int64),
            np.array([], dtype=object),
            np.array([], dtype=np.float64),
        ):
            assert len(roundtrip(arr)) == 0

    def test_delta_requires_ints(self):
        with pytest.raises(TypeError):
            encode_block(np.array([1.5]), Encoding.DELTA)

    def test_dict_rejects_floats(self):
        with pytest.raises(TypeError):
            encode_block(np.array([1.5]), Encoding.DICT)


class TestEncodingSelection:
    def test_sorted_ints_pick_delta(self):
        assert choose_encoding(np.arange(1000)) is Encoding.DELTA

    def test_runs_pick_rle(self):
        assert choose_encoding(np.repeat([1, 2, 3], 100)) is Encoding.RLE

    def test_low_cardinality_strings_pick_dict(self):
        arr = np.array(["x", "y"] * 500, dtype=object)
        # Alternating values: runs don't help, dictionary does.
        assert choose_encoding(arr) in (Encoding.DICT, Encoding.RLE)

    def test_high_cardinality_strings_pick_plain(self):
        arr = np.array([f"v{i}" for i in range(1000)], dtype=object)
        assert choose_encoding(arr) is Encoding.PLAIN

    def test_rle_actually_smaller_on_runs(self):
        arr = np.repeat(np.arange(10), 1000)
        rle = encode_block(arr, Encoding.RLE)
        plain = encode_block(arr, Encoding.PLAIN)
        assert len(rle) < len(plain) / 50

    def test_delta_smaller_on_sorted(self):
        arr = np.arange(10_000) + 10**12
        delta = encode_block(arr, Encoding.DELTA)
        plain = encode_block(arr, Encoding.PLAIN)
        assert len(delta) < len(plain) / 4


class TestPropertyRoundTrips:
    @given(st.lists(st.integers(min_value=-(2**60), max_value=2**60)))
    @settings(max_examples=60)
    def test_int_auto_roundtrip(self, values):
        arr = np.array(values, dtype=np.int64)
        assert list(roundtrip(arr)) == values

    @given(st.lists(st.one_of(st.none(), st.text(max_size=30))))
    @settings(max_examples=60)
    def test_string_auto_roundtrip(self, values):
        arr = np.array(values, dtype=object)
        assert list(roundtrip(arr)) == values

    @given(
        st.lists(
            st.floats(allow_nan=False),
            max_size=200,
        )
    )
    @settings(max_examples=40)
    def test_float_auto_roundtrip(self, values):
        arr = np.array(values, dtype=np.float64)
        assert list(roundtrip(arr)) == values

    @given(st.lists(st.booleans()))
    @settings(max_examples=40)
    def test_bool_auto_roundtrip(self, values):
        arr = np.array(values, dtype=np.bool_)
        assert list(roundtrip(arr)) == values

    @given(st.lists(st.sampled_from(["a", "b", "c"]), min_size=1))
    @settings(max_examples=40)
    def test_every_encoding_agrees_on_strings(self, values):
        arr = np.array(values, dtype=object)
        for encoding in (Encoding.PLAIN, Encoding.RLE, Encoding.DICT):
            assert list(roundtrip(arr, encoding)) == values
