"""Property wall for the array-kernel block codec.

``reference_encode_block`` / ``reference_decode_block`` /
``reference_choose_encoding`` are the per-value scalar codec that
``repro.storage.encoding`` used before the array kernels replaced it, kept
here verbatim as the oracle.  The block format did not change, so the wall
asserts **bytes**: the kernels must write exactly what the scalar loops
wrote, pick the same encoding, and decode any block to the same values
*and dtype* (floats compared bit for bit: NaN payloads and the sign of
zero count).  One golden hex string per encoding pins the format itself,
so a drift is caught even if both implementations changed together.

The wall was mutation-checked when written: a wrong shift width (``*= 7``
-> ``*= 8``) in either kernel, a dropped sign in the zig-zag pair and
``reduceat`` starts off by one each fail it.
"""

import struct
import warnings
from typing import List, Optional, Tuple

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.common.types import ColumnType, TableSchema
from repro.errors import CorruptBlock, ReproError, StorageError
from repro.storage.column import ColumnFile, ColumnReader
from repro.storage.container import RowSet, read_container, write_container
from repro.storage.encoding import (
    CodedStrings,
    Encoding,
    choose_encoding,
    decode_block,
    encode_block,
    read_varints,
    write_varints,
)

# ---------------------------------------------------------------------------
# the oracle: the old scalar codec, verbatim

_HEADER = struct.Struct("<BBI")  # encoding, dtype-kind code, row count

# dtype codes used in block headers
_DT_INT = 0
_DT_FLOAT = 1
_DT_OBJ = 2
_DT_BOOL = 3

_DT_BY_KIND = {"i": _DT_INT, "u": _DT_INT, "f": _DT_FLOAT, "O": _DT_OBJ, "b": _DT_BOOL}
_NUMPY_BY_DT = {_DT_INT: np.int64, _DT_FLOAT: np.float64, _DT_BOOL: np.bool_}


def _dtype_code(arr: np.ndarray) -> int:
    try:
        return _DT_BY_KIND[arr.dtype.kind]
    except KeyError:
        raise TypeError(f"unsupported column dtype: {arr.dtype}") from None


# ---------------------------------------------------------------------------
# varint helpers (zig-zag for signed values)


def _zigzag(n: int) -> int:
    return (n << 1) ^ (n >> 63) if n < 0 else n << 1


def _unzigzag(n: int) -> int:
    return (n >> 1) ^ -(n & 1)


def _write_varint(out: bytearray, n: int) -> None:
    while True:
        b = n & 0x7F
        n >>= 7
        if n:
            out.append(b | 0x80)
        else:
            out.append(b)
            return


def _read_varint(data: bytes, pos: int) -> Tuple[int, int]:
    result = 0
    shift = 0
    while True:
        b = data[pos]
        pos += 1
        result |= (b & 0x7F) << shift
        if not b & 0x80:
            return result, pos
        shift += 7


# ---------------------------------------------------------------------------
# string payloads


def _encode_strings(values: List[Optional[str]]) -> bytes:
    """Length-prefixed UTF-8; length 0 marks NULL, real lengths are +1."""
    out = bytearray()
    _write_varint(out, len(values))
    for v in values:
        if v is None:
            _write_varint(out, 0)
        else:
            raw = v.encode("utf-8")
            _write_varint(out, len(raw) + 1)
            out.extend(raw)
    return bytes(out)


def _decode_strings(data: bytes, pos: int = 0) -> Tuple[List[Optional[str]], int]:
    count, pos = _read_varint(data, pos)
    values: List[Optional[str]] = []
    for _ in range(count):
        n, pos = _read_varint(data, pos)
        if n == 0:
            values.append(None)
        else:
            values.append(data[pos : pos + n - 1].decode("utf-8"))
            pos += n - 1
    return values, pos


# ---------------------------------------------------------------------------
# per-encoding encode/decode


def _encode_plain(arr: np.ndarray, dt: int) -> bytes:
    if dt == _DT_OBJ:
        return _encode_strings(list(arr))
    if dt == _DT_INT:
        return arr.astype(np.int64).tobytes()
    if dt == _DT_FLOAT:
        return arr.astype(np.float64).tobytes()
    return np.packbits(arr.astype(np.bool_)).tobytes()


def _decode_plain(data: bytes, dt: int, count: int) -> np.ndarray:
    if dt == _DT_OBJ:
        values, _ = _decode_strings(data)
        return np.array(values, dtype=object)
    if dt == _DT_BOOL:
        bits = np.unpackbits(np.frombuffer(data, dtype=np.uint8), count=count)
        return bits.astype(np.bool_)
    return np.frombuffer(data, dtype=_NUMPY_BY_DT[dt]).copy()


def _runs(arr: np.ndarray) -> Tuple[np.ndarray, np.ndarray]:
    """Run starts (indices) and run values of ``arr``."""
    if len(arr) == 0:
        return np.array([], dtype=np.int64), arr
    if arr.dtype.kind == "O":
        change = np.fromiter(
            (i == 0 or arr[i] != arr[i - 1] for i in range(len(arr))),
            dtype=bool,
            count=len(arr),
        )
    else:
        # The oracle's one departure from the old loop (PR 19): float runs
        # compare on their bits.  ``!=`` put -0.0 into a 0.0 run and lost
        # its sign, and gave every NaN a run of its own.
        keys = arr.astype(np.float64).view(np.uint64) if arr.dtype.kind == "f" else arr
        change = np.empty(len(arr), dtype=bool)
        change[0] = True
        np.not_equal(keys[1:], keys[:-1], out=change[1:])
    starts = np.flatnonzero(change)
    return starts, arr[starts]


def _encode_rle(arr: np.ndarray, dt: int) -> bytes:
    starts, values = _runs(arr)
    lengths = np.diff(np.append(starts, len(arr)))
    out = bytearray()
    _write_varint(out, len(values))
    for length in lengths:
        _write_varint(out, int(length))
    if dt == _DT_OBJ:
        out.extend(_encode_strings(list(values)))
    elif dt == _DT_INT:
        for v in values.astype(np.int64):
            _write_varint(out, _zigzag(int(v)))
    elif dt == _DT_FLOAT:
        out.extend(values.astype(np.float64).tobytes())
    else:
        out.extend(np.packbits(values.astype(np.bool_)).tobytes())
    return bytes(out)


def _decode_rle(data: bytes, dt: int, count: int) -> np.ndarray:
    nruns, pos = _read_varint(data, 0)
    lengths = np.empty(nruns, dtype=np.int64)
    for i in range(nruns):
        lengths[i], pos = _read_varint(data, pos)
    if dt == _DT_OBJ:
        str_values, _ = _decode_strings(data, pos)
        values = np.array(str_values, dtype=object)
    elif dt == _DT_INT:
        values = np.empty(nruns, dtype=np.int64)
        for i in range(nruns):
            z, pos = _read_varint(data, pos)
            values[i] = _unzigzag(z)
    elif dt == _DT_FLOAT:
        values = np.frombuffer(data, dtype=np.float64, count=nruns, offset=pos)
    else:
        bits = np.unpackbits(
            np.frombuffer(data, dtype=np.uint8, offset=pos), count=nruns
        )
        values = bits.astype(np.bool_)
    return np.repeat(values, lengths)


def _encode_dict(arr: np.ndarray, dt: int) -> bytes:
    # Dictionary of distinct values + per-row codes.  None sorts first.
    distinct = sorted({v for v in arr if v is not None}, key=lambda v: (v is None, v))
    has_null = any(v is None for v in arr)
    dictionary: List[Optional[str]] = ([None] if has_null else []) + list(distinct)
    code_of = {v: i for i, v in enumerate(dictionary)}
    out = bytearray()
    if dt == _DT_OBJ:
        out.extend(_encode_strings(dictionary))
    elif dt == _DT_INT:
        _write_varint(out, len(dictionary))
        for v in dictionary:
            _write_varint(out, _zigzag(int(v)))
    else:
        raise TypeError("DICT encoding supports int and varchar columns only")
    for v in arr:
        _write_varint(out, code_of[v])
    return bytes(out)


def _decode_dict(data: bytes, dt: int, count: int) -> np.ndarray:
    if dt == _DT_OBJ:
        dictionary, pos = _decode_strings(data)
        codes = np.empty(count, dtype=np.int64)
        for i in range(count):
            codes[i], pos = _read_varint(data, pos)
        return np.array([dictionary[c] for c in codes], dtype=object)
    size, pos = _read_varint(data, 0)
    dictionary_arr = np.empty(size, dtype=np.int64)
    for i in range(size):
        z, pos = _read_varint(data, pos)
        dictionary_arr[i] = _unzigzag(z)
    codes = np.empty(count, dtype=np.int64)
    for i in range(count):
        codes[i], pos = _read_varint(data, pos)
    return dictionary_arr[codes]


def _encode_delta(arr: np.ndarray, dt: int) -> bytes:
    if dt != _DT_INT:
        raise TypeError("DELTA encoding supports integer columns only")
    v = arr.astype(np.int64)
    out = bytearray()
    if len(v) == 0:
        return bytes(out)
    _write_varint(out, _zigzag(int(v[0])))
    deltas = np.diff(v)
    for d in deltas:
        _write_varint(out, _zigzag(int(d)))
    return bytes(out)


def _decode_delta(data: bytes, dt: int, count: int) -> np.ndarray:
    values = np.empty(count, dtype=np.int64)
    if count == 0:
        return values
    pos = 0
    z, pos = _read_varint(data, pos)
    values[0] = _unzigzag(z)
    for i in range(1, count):
        z, pos = _read_varint(data, pos)
        values[i] = values[i - 1] + _unzigzag(z)
    return values


_ENCODERS = {
    Encoding.PLAIN: _encode_plain,
    Encoding.RLE: _encode_rle,
    Encoding.DICT: _encode_dict,
    Encoding.DELTA: _encode_delta,
}
_DECODERS = {
    Encoding.PLAIN: _decode_plain,
    Encoding.RLE: _decode_rle,
    Encoding.DICT: _decode_dict,
    Encoding.DELTA: _decode_delta,
}


def reference_choose_encoding(arr: np.ndarray) -> Encoding:
    """Pick the encoding expected to be smallest for this block."""
    n = len(arr)
    if n == 0:
        return Encoding.PLAIN
    dt = _dtype_code(arr)
    starts, _ = _runs(arr)
    run_ratio = len(starts) / n
    if run_ratio <= 0.5:
        return Encoding.RLE
    if dt == _DT_OBJ:
        distinct = len({v for v in arr})
        if distinct <= max(16, n // 8):
            return Encoding.DICT
        return Encoding.PLAIN
    if dt == _DT_INT:
        v = arr.astype(np.int64)
        if n > 1 and np.all(v[1:] >= v[:-1]):
            return Encoding.DELTA
    return Encoding.PLAIN


def reference_encode_block(arr: np.ndarray, encoding: Optional[Encoding] = None) -> bytes:
    """Encode one block of column values to bytes (header included)."""
    dt = _dtype_code(arr)
    if encoding is None:
        encoding = reference_choose_encoding(arr)
    payload = _ENCODERS[encoding](arr, dt)
    return _HEADER.pack(int(encoding), dt, len(arr)) + payload


def reference_decode_block(data: bytes) -> np.ndarray:
    """Inverse of :func:`reference_encode_block`."""
    enc_id, dt, count = _HEADER.unpack_from(data, 0)
    payload = data[_HEADER.size :]
    return _DECODERS[Encoding(enc_id)](payload, dt, count)


# ---------------------------------------------------------------------------
# comparing


def reference_decode_quiet(data: bytes) -> np.ndarray:
    """The scalar DELTA decoder adds numpy scalars and warns when a sum
    wraps (it still lands on the right value); that noise is the oracle's."""
    with np.errstate(over="ignore"), warnings.catch_warnings():
        warnings.simplefilter("ignore", RuntimeWarning)
        return reference_decode_block(data)


def assert_same_array(got: np.ndarray, want: np.ndarray) -> None:
    assert got.dtype == want.dtype
    assert got.shape == want.shape
    if got.dtype.kind == "f":
        assert got.view(np.int64).tolist() == want.view(np.int64).tolist()
    else:
        assert got.tolist() == want.tolist()


def text_of(got, rows: int) -> np.ndarray:
    """What ``decode_block(view=True)`` returned, as text.  Codes are checked
    on the way: ``len()`` is the row count, the dictionary ascends, holds no
    value twice and ``None`` only last, and every code indexes it."""
    if not isinstance(got, CodedStrings):
        return got
    assert len(got) == rows == len(got.codes)
    entries = got.dictionary.tolist()
    strings = entries[:-1] if entries and entries[-1] is None else entries
    assert None not in strings
    assert strings == sorted(set(strings))
    assert got.dictionary.dtype == object and got.codes.dtype == np.int64
    assert rows == 0 or 0 <= got.codes.min() <= got.codes.max() < len(entries)
    assert got.dtype == object
    text = got.text()
    assert text is got.text()  # made once
    return text


def buffers_of(block: bytes):
    """The shapes a caller may hand to ``decode_block``: the bytes, a view
    of them, a writable copy, and a slice of a larger image that starts at
    a non-zero (and unaligned) offset, as ``ColumnReader`` passes it."""
    image = b"\xffpad" + block + b"tail\x80"
    return (
        block,
        memoryview(block),
        bytearray(block),
        memoryview(image)[4 : 4 + len(block)],
    )


def check_against_reference(arr: np.ndarray, encoding: Optional[Encoding]) -> None:
    want = reference_encode_block(arr, encoding)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        got = encode_block(arr, encoding)
        assert got == want
        expected = reference_decode_quiet(want)
        if arr.dtype.kind == "f":
            # Not only what the oracle reads back: the floats that went in,
            # bit for bit (the sign of zero and NaN payloads included).
            assert_same_array(expected, arr.astype(np.float64))
        coded = arr.dtype == object and got[0] in (Encoding.RLE, Encoding.DICT)
        for buffer in buffers_of(got):
            assert_same_array(decode_block(buffer), expected)
            # A view of a PLAIN block is the same values, the codes of a DICT
            # or RLE string block are the same text; anything else is the
            # same fresh array either way.
            viewed = decode_block(buffer, view=True)
            assert isinstance(viewed, CodedStrings if coded else np.ndarray)
            assert_same_array(text_of(viewed, len(arr)), expected)


# ---------------------------------------------------------------------------
# generated columns: values in runs, so that every encoding has its case

I64 = np.iinfo(np.int64)
#: Zig-zagged, these sit on both sides of every varint length step (1-10 bytes).
VARINT_EDGES = sorted(
    {s * ((1 << (7 * k - 1)) + d) for k in range(1, 10) for d in (-1, 0) for s in (1, -1)}
    | {0, I64.min, I64.min + 1, I64.max, I64.max - 1}
)
INTS = st.one_of(
    st.integers(-3, 3),
    st.integers(-200, 200),
    st.sampled_from(VARINT_EDGES),
    st.integers(I64.min, I64.max),
)
NAN_WITH_PAYLOAD = struct.unpack("<d", struct.pack("<Q", 0x7FF8_0000_0000_BEEF))[0]
FLOATS = st.one_of(
    st.sampled_from([0.0, -0.0, 1.5, float("nan"), NAN_WITH_PAYLOAD,
                     float("inf"), float("-inf"), 5e-324]),
    st.floats(allow_nan=True, allow_infinity=True),
)
STRINGS = st.one_of(
    st.none(),
    st.sampled_from(["", "a", "b", "ab", "日本語", "\x00", "a\x00", "naïve", "z" * 130]),
    st.text(max_size=8),
    # A pool wide enough for dictionaries of more than 127 entries.
    st.integers(0, 299).map("v{}".format),
)
#: Tables whose entries share a byte width (2, 6, 0, 1, 130 and NULL only),
#: and two of mixed widths: 126 bytes is the longest one-byte length.
STRING_POOLS = [
    ["ab", "cd", "a\x00", "\x00a", "\x00\x00", "é"] + [f"{i:02d}" for i in range(60)],
    ["日本", "abcdef", "ééé", "a\x00\x00\x00\x00\x00"],
    [""], ["x", "y", "\x00"], ["z" * 130, "y" * 130], [None],
    [None, "", "a", "ab", "日本語", "z" * 130, "y" * 126, "x" * 127],
    [None, ""], ["", "a"], [None, "ab", "cd"],
]
#: Mostly single rows, sometimes a run, sometimes one a varint byte cannot count.
RUN_LENGTHS = st.sampled_from([1, 1, 1, 1, 2, 3, 7, 130, 300])

KINDS = {
    # kind -> (values, dtype, encodings the codec supports for it)
    "int": (INTS, np.int64,
            (None, Encoding.PLAIN, Encoding.RLE, Encoding.DICT, Encoding.DELTA)),
    "float": (FLOATS, np.float64, (None, Encoding.PLAIN, Encoding.RLE)),
    "bool": (st.booleans(), np.bool_, (None, Encoding.PLAIN, Encoding.RLE)),
    "str": (STRINGS, object, (None, Encoding.PLAIN, Encoding.RLE, Encoding.DICT)),
}


@st.composite
def columns(draw, kind: str, max_runs: int = 30) -> np.ndarray:
    values, dtype, _ = KINDS[kind]
    runs = draw(st.lists(st.tuples(values, RUN_LENGTHS), max_size=max_runs))
    if kind == "int" and draw(st.booleans()):
        runs.sort(key=lambda run: run[0])  # sorted input is what picks DELTA
    flat: list = []
    for value, length in runs:
        flat.extend([value] * length)
    out = np.empty(len(flat), dtype=dtype)
    out[:] = flat
    return out


# ---------------------------------------------------------------------------
# the wall


class TestSameBytesAsTheScalarCodec:
    @pytest.mark.parametrize("kind", sorted(KINDS))
    @given(data=st.data())
    @settings(max_examples=120, deadline=None)
    def test_every_encoding(self, kind, data):
        arr = data.draw(columns(kind))
        assert choose_encoding(arr) == reference_choose_encoding(arr)
        for encoding in KINDS[kind][2]:
            check_against_reference(arr, encoding)

    @pytest.mark.parametrize("kind", sorted(KINDS))
    def test_empty_and_single_row_blocks(self, kind):
        values, dtype, encodings = KINDS[kind]
        samples = {
            "int": [0, -1, I64.min, I64.max], "float": [0.0, -0.0, float("nan")],
            "bool": [True, False], "str": [None, "", "é"],
        }[kind]
        for rows in [[]] + [[v] for v in samples]:
            arr = np.empty(len(rows), dtype=dtype)
            arr[:] = rows
            for encoding in encodings:
                check_against_reference(arr, encoding)

    @given(data=st.data())
    @settings(max_examples=250, deadline=None)
    def test_string_tables_of_one_width_and_of_many(self, data):
        """DICT and RLE string tables long enough for the decoder's matrix
        path (32 entries or more) and short ones, of one byte width — where a
        trailing NUL, a multi-byte character and the empty string must come
        through it whole — and of mixed widths, with a two-byte length."""
        pool = data.draw(st.sampled_from(STRING_POOLS))
        runs = data.draw(st.lists(
            st.tuples(st.sampled_from(pool), st.sampled_from([1, 1, 1, 2, 5, 130])),
            max_size=90))
        arr = np.empty(sum(length for _, length in runs), dtype=object)
        arr[:] = [value for value, length in runs for _ in range(length)]
        for encoding in KINDS["str"][2]:
            check_against_reference(arr, encoding)

    def test_narrow_and_unsigned_integer_columns(self):
        for dtype in (np.int8, np.int32, np.uint16, np.uint32):
            arr = np.array([3, 3, 100, 7], dtype=dtype)
            for encoding in KINDS["int"][2]:
                check_against_reference(arr, encoding)

    def test_full_blocks(self):
        rng = np.random.default_rng(7)
        n = 4096
        pool = np.empty(300, dtype=object)
        pool[:] = [f"name-{i}" for i in range(300)]
        for arr in (
            np.arange(n) * 3 + 10**6,                          # dense sorted keys
            np.sort(rng.integers(-(10**15), 10**15, n)),       # wide deltas
            np.repeat(rng.integers(0, 10**6, n // 3 + 1), 3)[:n],  # runs of wide values
            rng.integers(0, 40, n),                            # dictionary material
            np.repeat(rng.random(n // 5 + 1), 5)[:n],
            pool[rng.integers(0, 300, n)],
            np.repeat(pool[rng.integers(0, 5, n // 4 + 1)], 4)[:n],
        ):
            kind = {"i": "int", "f": "float", "O": "str"}[arr.dtype.kind]
            assert choose_encoding(arr) == reference_choose_encoding(arr)
            for encoding in KINDS[kind][2]:
                check_against_reference(arr, encoding)

    def test_unsupported_pairs_still_rejected(self):
        for arr, encoding in (
            (np.array([1.5]), Encoding.DELTA),
            (np.array([1.5]), Encoding.DICT),
            (np.array([True]), Encoding.DICT),
            (np.array(["a"], dtype=object), Encoding.DELTA),
        ):
            with pytest.raises(TypeError):
                encode_block(arr, encoding)
            with pytest.raises(TypeError):
                reference_encode_block(arr, encoding)


class TestVarintKernels:
    @staticmethod
    def scalar_bytes(values) -> bytes:
        out = bytearray()
        for v in values:
            _write_varint(out, int(v))
        return bytes(out)

    @given(st.lists(st.one_of(st.integers(0, 127), st.integers(0, 2**64 - 1),
                              st.sampled_from([(1 << (7 * k)) - d for k in range(1, 10)
                                               for d in (0, 1)] + [2**64 - 1]))),
           st.binary(max_size=3))
    @settings(max_examples=200, deadline=None)
    def test_both_directions_match_the_scalar_loop(self, values, prefix):
        arr = np.array(values, dtype=np.uint64)
        encoded = write_varints(arr)
        assert encoded == self.scalar_bytes(values)
        # Read back from the middle of a larger buffer.
        image = memoryview(prefix + encoded + b"\x05\xff")
        got, end = read_varints(image, len(prefix), len(values))
        assert got.dtype == np.uint64
        assert got.tolist() == values
        assert end == len(prefix) + len(encoded)

    def test_every_byte_length(self):
        for nbytes in range(1, 11):
            low = 0 if nbytes == 1 else 1 << (7 * (nbytes - 1))
            high = min((1 << (7 * nbytes)) - 1, 2**64 - 1)
            for values in ([low], [high], [low, high, 1, high, low]):
                encoded = write_varints(np.array(values, dtype=np.uint64))
                assert encoded == self.scalar_bytes(values)
                assert len(self.scalar_bytes(values[:1])) == nbytes
                got, end = read_varints(memoryview(encoded), 0, len(values))
                assert got.tolist() == values and end == len(encoded)

    def test_reading_stops_after_count(self):
        encoded = write_varints(np.array([1, 300, 2], dtype=np.uint64))
        got, end = read_varints(memoryview(encoded), 0, 2)
        assert got.tolist() == [1, 300] and end == 3
        got, end = read_varints(memoryview(encoded), 1, 0)
        assert got.tolist() == [] and end == 1

    def test_too_few_and_too_long(self):
        with pytest.raises(CorruptBlock):
            read_varints(memoryview(b"\x01\x80"), 0, 2)  # second never terminates
        with pytest.raises(CorruptBlock):
            read_varints(memoryview(b"\x01"), 0, 2)
        with pytest.raises(CorruptBlock):
            read_varints(memoryview(b"\x80" * 10 + b"\x01"), 0, 1)  # 11 bytes
        with pytest.raises(CorruptBlock):
            read_varints(memoryview(b"\xff" * 9 + b"\x02"), 0, 1)  # bit 64 set
        got, _ = read_varints(memoryview(b"\xff" * 9 + b"\x01"), 0, 1)
        assert got.tolist() == [2**64 - 1]


#: ``encode_block`` of each input with each encoding, pinned as hex.
GOLDEN = [
    (Encoding.PLAIN, np.int64, [1, -2, 2**40],
     "0000030000000100000000000000feffffffffffffff0000000000010000"),
    (Encoding.PLAIN, np.float64, [1.5, -0.0],
     "000102000000000000000000f83f0000000000000080"),
    (Encoding.PLAIN, np.bool_, [True, False, True], "000303000000a0"),
    (Encoding.PLAIN, object, ["a", None, "", "日本"],
     "000204000000040261000107e697a5e69cac"),
    (Encoding.RLE, np.int64, [7] * 130 + [-3] * 2, "010084000000028201020e05"),
    (Encoding.RLE, np.float64, [0.5, 0.5, 2.0],
     "010103000000020201000000000000e03f0000000000000040"),
    (Encoding.RLE, np.bool_, [True, True, False], "01030300000002020180"),
    (Encoding.RLE, object, ["x"] * 3 + [None] * 2, "01020500000002030202027800"),
    (Encoding.DICT, object, ["b", "a", None, "b"], "02020400000003000261026202010002"),
    (Encoding.DICT, np.int64, [300, -1, 300], "0200030000000201d804010001"),
    (Encoding.DELTA, np.int64, [-5, 1000, 1000, 2**63 - 1],
     "03000400000009da0f00aef0ffffffffffffff01"),
]


class TestGoldenBytes:
    @pytest.mark.parametrize("encoding,dtype,rows,expected", GOLDEN)
    def test_format_is_pinned(self, encoding, dtype, rows, expected):
        arr = np.empty(len(rows), dtype=dtype)
        arr[:] = rows
        assert encode_block(arr, encoding).hex() == expected
        assert reference_encode_block(arr, encoding).hex() == expected
        assert_same_array(decode_block(bytes.fromhex(expected)), arr)


class TestFloatRunsCompareBits:
    """RLE used to compare floats with ``!=``: ``-0.0`` joined a ``0.0`` run
    and came back ``+0.0``.  Runs are cut where the bits change."""

    FLOAT_ENCODINGS = KINDS["float"][2]

    @pytest.mark.parametrize("encoding", FLOAT_ENCODINGS)
    def test_the_sign_of_zero_survives(self, encoding):
        arr = np.array([0.0, -0.0, -0.0, 0.0])
        got = decode_block(encode_block(arr, encoding))
        assert np.signbit(got).tolist() == [False, True, True, False]
        assert_same_array(got, arr)

    @pytest.mark.parametrize("encoding", FLOAT_ENCODINGS)
    @given(arr=columns("float"))
    @settings(max_examples=150, deadline=None)
    def test_signbit_round_trips(self, encoding, arr):
        got = decode_block(encode_block(arr, encoding))
        assert np.signbit(got).tolist() == np.signbit(arr).tolist()
        assert_same_array(got, arr)

    def test_nans_of_one_payload_share_a_run(self):
        nan = float("nan")
        arr = np.array([nan, nan, nan, NAN_WITH_PAYLOAD, NAN_WITH_PAYLOAD, 1.0])
        assert choose_encoding(arr) is Encoding.RLE
        block = encode_block(arr, Encoding.RLE)
        assert block[_HEADER.size] == 3  # runs: nan x3, payload nan x2, 1.0
        assert_same_array(decode_block(block), arr)

    def test_narrow_floats_run_on_the_bits_written(self):
        arr = np.array([0.0, -0.0, 1.5, 1.5], dtype=np.float32)
        got = decode_block(encode_block(arr, Encoding.RLE))
        assert_same_array(got, arr.astype(np.float64))


class TestWideRangeDelta:
    """DELTA over the whole int64 range: the deltas wrap when written and
    wrap back when summed.  The scalar decoder got there with a
    ``RuntimeWarning: overflow encountered in scalar add``."""

    @pytest.mark.parametrize("rows", [[I64.min, 0, I64.max], [-5, I64.max],
                                      [I64.max, I64.min], [I64.min, I64.max]])
    def test_exact_and_silent(self, rows):
        arr = np.array(rows, dtype=np.int64)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            for encoding in (None, Encoding.DELTA):
                block = encode_block(arr, encoding)
                assert block == reference_encode_block(arr, encoding)
                assert_same_array(decode_block(block), arr)

    def test_sorted_extremes_pick_delta(self):
        assert choose_encoding(np.array([-5, I64.max])) is Encoding.DELTA
        assert choose_encoding(np.array([I64.min, 0, I64.max])) is Encoding.DELTA


# ---------------------------------------------------------------------------
# damaged blocks


def sample_blocks() -> List[Tuple[str, np.ndarray, bytes]]:
    """One valid block per (encoding, dtype), multi-byte varints included."""
    out = []
    for encoding, dtype, rows, _hex in GOLDEN:
        arr = np.empty(len(rows), dtype=dtype)
        arr[:] = rows
        out.append((f"{encoding.name}-{np.dtype(dtype).kind}", arr, encode_block(arr, encoding)))
    rng = np.random.default_rng(3)
    wide = np.sort(rng.integers(-(10**12), 10**12, 40))
    names = np.empty(60, dtype=object)
    names[:] = [f"name-{i % 9}-é" for i in range(60)]
    # Tables of 40 entries of one width, which the decoder splits as a matrix.
    flags = np.empty(80, dtype=object)
    flags[:] = [("é", "ab", "a\x00")[i % 3] for i in range(40) for _ in range(2)]
    codes = np.empty(120, dtype=object)
    codes[:] = [f"c{i % 40:02d}" for i in range(120)]
    for label, arr, encoding in (
        ("RLE-one-width", flags, Encoding.RLE),
        ("DICT-one-width", codes, Encoding.DICT),
        ("DELTA-wide", wide, Encoding.DELTA),
        ("RLE-wide", np.repeat(wide, 3), Encoding.RLE),
        ("DICT-wide", wide[rng.integers(0, 40, 200)], Encoding.DICT),
        ("DICT-names", names, Encoding.DICT),
        ("RLE-names", np.sort(names), Encoding.RLE),
        ("PLAIN-names", names, Encoding.PLAIN),
    ):
        out.append((label, arr, encode_block(arr, encoding)))
    return out


SAMPLES = sample_blocks()


def decodes_or_is_corrupt(data: bytes):
    """The only two acceptable outcomes for arbitrary bytes — and the same
    one whether the caller asked for an array or for a view or codes."""
    outcomes = []
    for view in (False, True):
        try:
            with warnings.catch_warnings():
                warnings.simplefilter("error")
                got = decode_block(data, view=view)
            outcomes.append(text_of(got, len(got)))
        except CorruptBlock:
            outcomes.append(None)
    plain, viewed = outcomes
    assert (plain is None) == (viewed is None)
    if plain is not None:
        assert_same_array(viewed, plain)
    return plain


class TestCorruptBlock:
    def test_is_a_storage_error(self):
        assert issubclass(CorruptBlock, StorageError)
        assert issubclass(CorruptBlock, ReproError)

    @pytest.mark.parametrize("label,arr,block", SAMPLES, ids=[s[0] for s in SAMPLES])
    def test_every_prefix_decodes_or_raises(self, label, arr, block):
        assert_same_array(decode_block(block), arr)
        for cut in range(len(block)):
            got = decodes_or_is_corrupt(block[:cut])
            if got is not None:
                assert_same_array(got, arr)

    @pytest.mark.parametrize("label,arr,block", SAMPLES, ids=[s[0] for s in SAMPLES])
    @given(data=st.data())
    @settings(max_examples=150, deadline=None)
    def test_damaged_bytes_never_escape_as_another_error(self, label, arr, block, data):
        damaged = bytearray(block)
        for _ in range(data.draw(st.integers(1, 3))):
            at = data.draw(st.integers(0, len(damaged) - 1))
            damaged[at] = data.draw(st.integers(0, 255))
        got = decodes_or_is_corrupt(bytes(damaged))
        assert got is None or isinstance(got, np.ndarray)

    def test_short_header(self):
        for data in (b"", b"\x00", b"\x00\x00\x01\x00\x00"):
            with pytest.raises(CorruptBlock):
                decode_block(data)

    def test_unknown_encoding_and_dtype_codes(self):
        with pytest.raises(CorruptBlock, match="encoding"):
            decode_block(struct.pack("<BBI", 9, 0, 0))
        with pytest.raises(CorruptBlock, match="dtype"):
            decode_block(struct.pack("<BBI", 0, 7, 0))
        # Pairs the encoder never writes.
        with pytest.raises(CorruptBlock):
            decode_block(struct.pack("<BBI", Encoding.DELTA, 1, 1) + b"\x02")
        with pytest.raises(CorruptBlock):
            decode_block(struct.pack("<BBI", Encoding.DICT, 3, 1) + b"\x01\x02\x00")

    def test_dictionary_code_out_of_range(self):
        block = bytearray(encode_block(np.array(["a", "b"], dtype=object), Encoding.DICT))
        block[-1] = 2  # a two-entry dictionary has codes 0 and 1
        with pytest.raises(CorruptBlock, match="dictionary"):
            decode_block(bytes(block))
        ints = bytearray(encode_block(np.array([5, 9], dtype=np.int64), Encoding.DICT))
        ints[-1] = 0x7F
        with pytest.raises(CorruptBlock, match="dictionary"):
            decode_block(bytes(ints))

    def test_run_lengths_must_add_up(self):
        block = encode_block(np.array([4, 4, 4, 8], dtype=np.int64), Encoding.RLE)
        for count in (3, 5):
            header = struct.pack("<BBI", Encoding.RLE, 0, count)
            with pytest.raises(CorruptBlock, match="run lengths"):
                decode_block(header + block[6:])

    def test_string_table_must_hold_an_entry_per_run(self):
        """Short tables go through the per-entry loop, long ones of one
        width through the matrix: both count their entries first."""
        for runs in (3, 40):
            arr = np.empty(2 * runs, dtype=object)
            arr[:] = [("ab", "cd")[i % 2] for i in range(runs) for _ in range(2)]
            block = bytearray(encode_block(arr, Encoding.RLE))
            at = 6 + 1 + runs  # header, varint(runs), one length byte per run
            assert block[at] == runs
            for wrong in (runs - 1, runs + 1):
                block[at] = wrong
                for view in (False, True):
                    with pytest.raises(CorruptBlock, match="entries"):
                        decode_block(bytes(block), view=view)

    def test_row_count_larger_than_payload(self):
        for _label, _arr, block in SAMPLES:
            enc, dt, count = struct.unpack_from("<BBI", block, 0)
            inflated = struct.pack("<BBI", enc, dt, count + 1000) + block[6:]
            with pytest.raises(CorruptBlock):
                decode_block(inflated)

    def test_invalid_utf8(self):
        block = bytearray(encode_block(np.array(["ab"], dtype=object), Encoding.PLAIN))
        block[-1] = 0xFF
        with pytest.raises(CorruptBlock, match="UTF-8"):
            decode_block(bytes(block))


# ---------------------------------------------------------------------------
# the footers around the blocks: same two outcomes


def _objects(values) -> np.ndarray:
    arr = np.empty(len(values), dtype=object)
    arr[:] = values
    return arr


FOOTER_COLUMNS = [
    ("int", ColumnType.INT, np.arange(-40, 200, dtype=np.int64) * 7),
    ("float", ColumnType.FLOAT, np.array([1.5, np.nan, -2.0, 0.0] * 30)),
    ("str", ColumnType.VARCHAR, _objects([None, "a", "é\n", "name-7"] * 25)),
    ("bool", ColumnType.BOOL, np.arange(90) % 3 == 0),
    ("empty", ColumnType.DATE, np.array([], dtype=np.int64)),
]
COLUMN_FILES = [
    (label, ctype, arr, ColumnFile.write(arr, ctype, block_rows=64)[0])
    for label, ctype, arr in FOOTER_COLUMNS
]
CONTAINER_ROWS = RowSet(
    TableSchema.of(*((label, ctype) for label, ctype, _ in FOOTER_COLUMNS[:3])),
    {label: arr[:100] for label, _, arr in FOOTER_COLUMNS[:3]},
)
CONTAINER_IMAGE = write_container(CONTAINER_ROWS, block_rows=32)[0]


def footer_start(image: bytes) -> int:
    """Where the JSON footer begins: the trailer's last 12 bytes say."""
    (footer_len,) = struct.unpack_from("<Q", image, len(image) - 12)
    return len(image) - 12 - footer_len


def read_column_or_is_corrupt(image: bytes) -> Optional[np.ndarray]:
    """Everything a scan asks of a column file; None for CorruptBlock, any
    other exception escapes and fails the test."""
    try:
        reader = ColumnReader(image)
        values = reader.read_all()
        reader.min_value, reader.max_value
        lo = {"O": "b", "f": 0.5}.get(values.dtype.kind, 3)
        reader.block_mask(lo, lo)
        if reader.row_count:
            reader.read_block(len(reader.blocks) - 1), reader.read_block(0, view=True)
        return values
    except CorruptBlock:
        return None


def read_container_or_is_corrupt(image: bytes) -> Optional[RowSet]:
    try:
        reader = read_container(image)
        names = reader.column_names
        rows = reader.read_rowset()
        reader.stored_bytes(names)
        blocks = reader.matching_blocks({"int": (0, 50), "str": ("a", "b")})
        reader.read_rowset_blocks(names, blocks)
        return rows
    except CorruptBlock:
        return None


def assert_container_rows(got: RowSet) -> None:
    assert got.schema == CONTAINER_ROWS.schema
    for name in got.schema.names:
        assert_same_array(got.column(name), CONTAINER_ROWS.column(name))


class TestCorruptFooter:
    @pytest.mark.parametrize("label,ctype,arr,image", COLUMN_FILES,
                             ids=[c[0] for c in COLUMN_FILES])
    def test_every_prefix_of_a_column_file_reads_or_raises(self, label, ctype, arr, image):
        assert_same_array(read_column_or_is_corrupt(image), arr)
        for cut in range(len(image)):
            got = read_column_or_is_corrupt(image[:cut])
            if got is not None:
                assert_same_array(got, arr)

    def test_every_prefix_of_a_container_reads_or_raises(self):
        assert_container_rows(read_container_or_is_corrupt(CONTAINER_IMAGE))
        for cut in range(len(CONTAINER_IMAGE)):
            got = read_container_or_is_corrupt(CONTAINER_IMAGE[:cut])
            if got is not None:
                assert_container_rows(got)

    @pytest.mark.parametrize("label,ctype,arr,image", COLUMN_FILES,
                             ids=[c[0] for c in COLUMN_FILES])
    @given(data=st.data())
    @settings(max_examples=300, deadline=None)
    def test_damaged_column_footer_never_escapes_as_another_error(
            self, label, ctype, arr, image, data):
        damaged = bytearray(image)
        for _ in range(data.draw(st.integers(1, 3))):
            at = data.draw(st.integers(footer_start(image), len(image) - 1))
            damaged[at] = data.draw(st.integers(0, 255))
        got = read_column_or_is_corrupt(bytes(damaged))
        assert got is None or isinstance(got, np.ndarray)

    @given(data=st.data())
    @settings(max_examples=400, deadline=None)
    def test_damaged_container_footer_never_escapes_as_another_error(self, data):
        """The container's own footer, or the footer of a column file inside."""
        image = CONTAINER_IMAGE
        extents = read_container(image).layout.extents
        footers = [(footer_start(image), len(image))] + [
            (offset + footer_start(image[offset:offset + length]), offset + length)
            for offset, length, _ in extents.values()
        ]
        damaged = bytearray(image)
        start, end = data.draw(st.sampled_from(footers))
        for _ in range(data.draw(st.integers(1, 3))):
            damaged[data.draw(st.integers(start, end - 1))] = data.draw(st.integers(0, 255))
        got = read_container_or_is_corrupt(bytes(damaged))
        assert got is None or isinstance(got, RowSet)

    def test_the_named_footer_failures(self):
        image = COLUMN_FILES[0][3]
        with pytest.raises(CorruptBlock, match="truncated column file"):
            ColumnReader(b"xx")
        with pytest.raises(CorruptBlock, match="bad column file magic"):
            ColumnReader(image[:-4] + b"RROS")
        with pytest.raises(CorruptBlock, match="bad container magic"):
            read_container(CONTAINER_IMAGE[:-4] + b"RCOL")
        with pytest.raises(CorruptBlock, match="footer"):
            read_container(CONTAINER_IMAGE[:-13] + b"\xff" + CONTAINER_IMAGE[-12:])
        start = footer_start(image)
        for missing in (b'"ctype"', b'"row_count"', b'"blocks"', b'"offset"', b'"max"'):
            at = image.index(missing, start)
            renamed = image[:at + 1] + b"X" + image[at + 2:]
            with pytest.raises(CorruptBlock, match="footer"):
                ColumnReader(renamed)
        # A position index that disagrees with the block it points at.
        assert image.index(b'"row_count": 64', start)
        with pytest.raises(CorruptBlock):
            ColumnReader(image.replace(b'"row_count": 64', b'"row_count": 63', 1)).read_all()
