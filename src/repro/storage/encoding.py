"""Block encodings for column data.

Vertica stores sorted column data with lightweight compression so the
execution engine can "operate directly on encoded data" (section 2.1).  We
implement four block encodings:

* ``PLAIN`` — raw values (numpy buffer for fixed-width, length-prefixed
  UTF-8 for strings).
* ``RLE`` — run-length encoding; wins on sorted/low-run-count data.
* ``DICT`` — dictionary encoding; wins on low-cardinality strings.
* ``DELTA`` — frame-of-reference + varint deltas; wins on sorted integers.

:func:`choose_encoding` picks the cheapest encoding for a block the same way
a real column store would: by estimating encoded size from block statistics.

Every block round-trips exactly: ``decode_block(encode_block(x)) == x``.
NULLs are supported in string columns as ``None``.

Integers travel as LEB128 varints (zig-zag for signed values).  Both
directions work on whole arrays: :func:`read_varints` turns ``count``
consecutive varints into one ``uint64`` array and :func:`write_varints` is
its inverse, so no encoding loops over rows in Python.  Only string payloads
keep a loop (their lengths interleave with their data): over rows for PLAIN
string blocks, over dictionary entries and run values for DICT and RLE —
and a long table of entries of one width is split as a matrix instead.
DICT and RLE string blocks decode to :class:`CodedStrings`, the codes storage
holds over a sorted dictionary; the text is made from that on demand.
The byte layout of every encoding is in DESIGN.md, "Block codec".
"""

from __future__ import annotations

import enum
import struct
from typing import List, Optional, Tuple, Union

import numpy as np

from repro.errors import CorruptBlock


class Encoding(enum.IntEnum):
    PLAIN = 0
    RLE = 1
    DICT = 2
    DELTA = 3


_HEADER = struct.Struct("<BBI")  # encoding, dtype-kind code, row count

# dtype codes used in block headers
_DT_INT = 0
_DT_FLOAT = 1
_DT_OBJ = 2
_DT_BOOL = 3

_DT_BY_KIND = {"i": _DT_INT, "u": _DT_INT, "f": _DT_FLOAT, "O": _DT_OBJ, "b": _DT_BOOL}
_NUMPY_BY_DT = {_DT_INT: np.int64, _DT_FLOAT: np.float64, _DT_BOOL: np.bool_}

Buffer = Union[bytes, bytearray, memoryview]


def _dtype_code(arr: np.ndarray) -> int:
    try:
        return _DT_BY_KIND[arr.dtype.kind]
    except KeyError:
        raise TypeError(f"unsupported column dtype: {arr.dtype}") from None


# ---------------------------------------------------------------------------
# varint kernels (zig-zag for signed values)

#: A varint of ``k + 1`` bytes is needed from ``_VARINT_LIMITS[k - 1]`` up.
_VARINT_LIMITS = np.array([1 << (7 * k) for k in range(1, 10)], dtype=np.uint64)
_MAX_VARINT_BYTES = 10  # ceil(64 / 7)


def _zigzag(values: np.ndarray) -> np.ndarray:
    """int64 -> uint64 with small magnitudes first (0, -1, 1, -2, ...)."""
    return ((values << 1) ^ (values >> 63)).view(np.uint64)


def _unzigzag(values: np.ndarray) -> np.ndarray:
    """Inverse of :func:`_zigzag`; ``-(z & 1)`` wraps to all ones."""
    return ((values >> 1) ^ -(values & 1)).view(np.int64)


def write_varints(values: np.ndarray) -> bytes:
    """LEB128 bytes of every ``uint64`` in ``values``, concatenated."""
    if len(values) == 0:
        return b""
    if values.max() < 0x80:
        return values.astype(np.uint8).tobytes()
    nbytes = np.searchsorted(_VARINT_LIMITS, values, side="right") + 1
    ends = np.cumsum(nbytes)
    # Byte j of a value carries its bits 7j..7j+6, continuation bit set on
    # every byte but the value's last.
    shifts = np.arange(ends[-1])
    shifts -= np.repeat(ends - nbytes, nbytes)
    shifts *= 7
    out = (np.repeat(values, nbytes) >> shifts.view(np.uint64)).astype(np.uint8)
    out |= 0x80
    out[ends - 1] &= 0x7F
    return out.tobytes()


def _write_varint(out: bytearray, n: int) -> None:
    """One varint: the counts and string lengths that frame a payload."""
    while n >= 0x80:
        out.append((n & 0x7F) | 0x80)
        n >>= 7
    out.append(n)


def read_varints(buf: memoryview, pos: int, count: int) -> Tuple[np.ndarray, int]:
    """``count`` consecutive varints starting at ``buf[pos]``.

    Returns them as one ``uint64`` array together with the position after
    the last one.  Raises :class:`CorruptBlock` when fewer than ``count``
    varints terminate inside ``buf`` or one does not fit 64 bits.
    """
    head = buf[pos : pos + count]
    if len(head) == count and bytes(head).isascii():
        # Every byte is its own varint: the values are the bytes.  Small
        # blocks and small values (run lengths, dictionary codes, deltas
        # of dense keys) take this path and skip the kernel below.
        return np.frombuffer(head, dtype=np.uint8).astype(np.uint64), pos + count
    window = np.frombuffer(buf[pos : pos + _MAX_VARINT_BYTES * count], dtype=np.uint8)
    ends = np.flatnonzero(window < 0x80)[:count]
    if len(ends) < count:
        raise CorruptBlock(
            f"block payload ends after {len(ends)} of {count} varints"
        )
    starts = np.empty(count, dtype=np.intp)
    starts[0] = 0
    np.add(ends[:-1], 1, out=starts[1:])
    lengths = ends - starts
    lengths += 1
    longest = lengths.max()
    if longest > _MAX_VARINT_BYTES or (
        longest == _MAX_VARINT_BYTES
        and (window[ends[lengths == _MAX_VARINT_BYTES]] > 1).any()
    ):
        raise CorruptBlock("varint does not fit 64 bits")
    used = int(ends[-1]) + 1
    # Byte j of a varint contributes (b & 0x7f) << 7j; the bit ranges are
    # disjoint, so summing each varint's bytes assembles its value.
    shifts = np.arange(used)
    shifts -= np.repeat(starts, lengths)
    shifts *= 7
    parts = (window[:used] & 0x7F).astype(np.uint64)
    parts <<= shifts.view(np.uint64)
    return np.add.reduceat(parts, starts), pos + used


def _read_varint(buf: Buffer, pos: int) -> Tuple[int, int]:
    """One varint: the counts and string lengths that frame a payload."""
    result = 0
    shift = 0
    try:
        while True:
            b = buf[pos]
            pos += 1
            result |= (b & 0x7F) << shift
            if not b & 0x80:
                return result, pos
            shift += 7
    except IndexError:
        raise CorruptBlock("block payload ends inside a varint") from None


def _need(buf: memoryview, pos: int, nbytes: int) -> None:
    if len(buf) - pos < nbytes:
        raise CorruptBlock(
            f"block payload is {len(buf) - pos} bytes where {nbytes} are needed"
        )


# ---------------------------------------------------------------------------
# string payloads


def _encode_strings(values: List[Optional[str]]) -> bytes:
    """Length-prefixed UTF-8; length 0 marks NULL, real lengths are +1."""
    out = bytearray()
    _write_varint(out, len(values))
    for v in values:
        if v is None:
            out.append(0)
        else:
            raw = v.encode("utf-8")
            _write_varint(out, len(raw) + 1)
            out += raw
    return bytes(out)


def _decode_strings(
    buf: memoryview, pos: int, expect: Optional[int] = None
) -> Tuple[List[Optional[str]], int]:
    """The string table at ``buf[pos]``; ``expect`` is the entry count the
    block's header or run count calls for, when there is one."""
    count, pos = _read_varint(buf, pos)
    if expect is not None and count != expect:
        raise CorruptBlock(f"string table of {count} entries where {expect} belong")
    # One copy of the payload's remainder: indexing and slicing ``bytes``
    # is what keeps this loop cheap.  When all of it is ASCII (lengths
    # below 128 included) it is decoded once, and entries are slices of
    # that text: bytes and characters then count alike.
    raw = buf[pos:].tobytes()
    text = raw.decode("ascii") if raw.isascii() else None
    at = 0
    values: List[Optional[str]] = []
    append = values.append
    try:
        for _ in range(count):
            n = raw[at]
            at += 1
            if n >= 0x80:
                n, at = _read_varint(raw, at - 1)
            if n == 0:
                append(None)
            else:
                end = at + n - 1
                append(text[at:end] if text is not None else raw[at:end].decode("utf-8"))
                at = end
    except IndexError:
        raise CorruptBlock(f"string payload ends before its {count} entries") from None
    except UnicodeDecodeError as exc:
        raise CorruptBlock(f"string payload is not UTF-8: {exc}") from None
    # ``at`` only grows, so one check catches every slice that ran short.
    if at > len(raw):
        raise CorruptBlock(f"string payload ends before its {count} entries")
    return values, pos + at


class CodedStrings:
    """A string column as storage holds it: one integer code per row over a
    dictionary (an object array) of its values.

    Three invariants, made by the decoder and kept by every operation: the
    dictionary ascends with ``None`` last — the order a group-by or a sort
    wants, so codes stand in for values —, holds no value twice, and every
    code indexes it (not every entry need be referenced: a filter keeps the
    dictionary).  Indexing by mask, indices or slice gives codes over the
    same dictionary; :meth:`text` is the object array, made on first use.
    """

    __slots__ = ("codes", "dictionary", "_text")
    dtype = np.dtype(object)

    def __init__(self, codes: np.ndarray, dictionary: np.ndarray):
        self.codes = codes
        self.dictionary = dictionary
        self._text: Optional[np.ndarray] = None

    def __len__(self) -> int:
        return len(self.codes)

    def __getitem__(self, index) -> "CodedStrings":
        return CodedStrings(self.codes[index], self.dictionary)

    def text(self) -> np.ndarray:
        if self._text is None:
            self._text = self.dictionary[self.codes]
        return self._text

    @property
    def null_code(self) -> int:
        """The code of ``None``; the dictionary's length when it holds none."""
        size = len(self.dictionary)
        return size - 1 if size and self.dictionary[-1] is None else size

    def with_nulls(self, count: int) -> "CodedStrings":
        """``count`` NULL rows appended (a LEFT join's padding)."""
        null, dictionary = self.null_code, self.dictionary
        if null == len(dictionary):
            dictionary = np.append(dictionary, None)
        return CodedStrings(np.append(self.codes, np.full(count, null)), dictionary)


#: What a batch holds for a column: an array, or a string column's codes.
Held = Union[np.ndarray, CodedStrings]


def dictionary_of(entries: List[Optional[str]]) -> Tuple[np.ndarray, np.ndarray]:
    """The distinct values of a list of strings and ``None`` — of any values
    that sort, ``TypeError`` if they do not — as a :class:`CodedStrings`
    dictionary, and the code of each of the list."""
    distinct = set(entries)
    has_null = None in distinct
    distinct.discard(None)
    dictionary: List[Optional[str]] = sorted(distinct)
    if has_null:
        dictionary.append(None)
    code_of = {v: i for i, v in enumerate(dictionary)}
    codes = np.fromiter(map(code_of.__getitem__, entries), dtype=np.int64, count=len(entries))
    return _object_array(dictionary), codes


def join_blocks(parts: List[Held]) -> Held:
    """One or more decoded pieces of a column as one; a lone piece as it is.

    String pieces that all came as codes stay codes, merged onto one sorted
    dictionary (pieces whose dictionaries are equal share it as it is); one
    piece of plain text among them and the whole column is text.
    """
    if len(parts) == 1:
        return parts[0]
    if CodedStrings not in map(type, parts):
        return np.concatenate(parts)
    filled = [p for p in parts if len(p)] or parts[:1]
    if not all(isinstance(p, CodedStrings) for p in filled):
        return np.concatenate(
            [p.text() if isinstance(p, CodedStrings) else p for p in parts]
        )
    dictionary = filled[0].dictionary
    codes = [p.codes for p in filled]
    tables = {id(p.dictionary): tuple(p.dictionary.tolist()) for p in filled}
    distinct = list(dict.fromkeys(tables.values()))
    if len(distinct) > 1:
        dictionary, merged = dictionary_of([v for table in distinct for v in table])
        ends = np.cumsum([len(table) for table in distinct])
        code_of = dict(zip(distinct, np.split(merged, ends[:-1])))
        codes = [code_of[tables[id(p.dictionary)]][p.codes] for p in filled]
    return CodedStrings(np.concatenate(codes), dictionary)


#: A string table of at least this many entries is tried as a matrix of
#: equal-width rows first; a shorter one costs less in the per-entry loop
#: than one ``np.unique`` call does.
_MATRIX_ENTRIES = 32


def _same_width_table(
    raw: bytes, count: int
) -> Optional[Tuple[List[Optional[str]], np.ndarray, int]]:
    """A table whose entries are all as wide as its first, without a Python
    step per entry: its distinct entries, which of them each entry is, and
    the bytes it takes.  ``None`` when the widths differ or the table runs
    short — the per-entry loop then decodes it, or says what is wrong."""
    head = raw[0] if raw else 0x80
    width = max(head, 1)  # the length byte, then ``head - 1`` bytes of text
    if head >= 0x80 or count * width > len(raw):
        return None
    table = np.frombuffer(raw, dtype=np.uint8, count=count * width).reshape(count, width)
    # Each entry's length byte sits where the one before it ends, so all of
    # them reading ``head`` is every entry being this wide.
    if (table[:, 0] != head).any():
        return None
    # numpy takes trailing NULs of a bytes value for padding, which cannot
    # make two entries of one width equal; the text is cut from ``raw``.
    _, first, which = np.unique(
        table.view(f"S{width}").ravel(), return_index=True, return_inverse=True
    )
    entries = [
        raw[i * width + 1 : (i + 1) * width].decode("utf-8") if head else None
        for i in first.tolist()
    ]
    return entries, which, count * width


def _decode_table(
    buf: memoryview, pos: int, expect: Optional[int] = None
) -> Tuple[np.ndarray, np.ndarray, int]:
    """The string table at ``buf[pos]`` as a :class:`CodedStrings`
    dictionary: ``(dictionary, code of each entry, position after)``.  Every
    check :func:`_decode_strings` makes is made: duplicates of an entry are
    its bytes again, so decoding each distinct entry once checks them all."""
    count, start = _read_varint(buf, pos)
    if count >= _MATRIX_ENTRIES and (expect is None or count == expect):
        try:
            found = _same_width_table(buf[start:].tobytes(), count)
        except UnicodeDecodeError as exc:
            raise CorruptBlock(f"string payload is not UTF-8: {exc}") from None
        if found is not None:
            dictionary, codes = dictionary_of(found[0])
            return dictionary, codes[found[1]], start + found[2]
    entries, end = _decode_strings(buf, pos, expect)
    return (*dictionary_of(entries), end)


def _decode_packed_bools(buf: memoryview, pos: int, count: int) -> np.ndarray:
    nbytes = (count + 7) // 8
    _need(buf, pos, nbytes)
    packed = np.frombuffer(buf, dtype=np.uint8, count=nbytes, offset=pos)
    return np.unpackbits(packed, count=count).view(np.bool_)


# ---------------------------------------------------------------------------
# per-encoding encode/decode


def _encode_plain(arr: np.ndarray, dt: int) -> bytes:
    if dt == _DT_OBJ:
        return _encode_strings(arr.tolist())
    if dt == _DT_BOOL:
        return np.packbits(arr).tobytes()
    return arr.astype(_NUMPY_BY_DT[dt], copy=False).tobytes()


def _decode_plain(buf: memoryview, dt: int, count: int, view: bool = False) -> np.ndarray:
    if dt == _DT_OBJ:
        values, _ = _decode_strings(buf, 0, expect=count)
        return _object_array(values)
    if dt == _DT_BOOL:
        return _decode_packed_bools(buf, 0, count)
    _need(buf, 0, 8 * count)
    values = np.frombuffer(buf, dtype=_NUMPY_BY_DT[dt], count=count)
    # The one copy of a PLAIN block, from the container image to an array:
    # made here, or by the caller who asked for a view and concatenates it.
    return values if view else values.copy()


def _object_array(values: List[Optional[str]]) -> np.ndarray:
    return np.fromiter(values, dtype=object, count=len(values))


def _runs(arr: np.ndarray) -> Tuple[np.ndarray, np.ndarray]:
    """Run starts (indices) and run values of ``arr``."""
    if len(arr) == 0:
        return np.array([], dtype=np.int64), arr
    change = np.empty(len(arr), dtype=bool)
    change[0] = True
    # Floats run on the bits RLE writes: ``-0.0 == 0.0`` would drop a sign,
    # and NaNs of one payload share a run though ``nan != nan``.
    keys = arr.astype(np.float64, copy=False).view(np.uint64) if arr.dtype.kind == "f" else arr
    np.not_equal(keys[1:], keys[:-1], out=change[1:])
    starts = np.flatnonzero(change)
    return starts, arr[starts]


def _encode_rle(arr: np.ndarray, dt: int, runs=None) -> bytes:
    starts, values = runs if runs is not None else _runs(arr)
    lengths = np.diff(starts, append=len(arr))
    out = bytearray()
    _write_varint(out, len(values))
    out += write_varints(lengths.astype(np.uint64))
    if dt == _DT_OBJ:
        out += _encode_strings(values.tolist())
    elif dt == _DT_INT:
        out += write_varints(_zigzag(values.astype(np.int64, copy=False)))
    elif dt == _DT_FLOAT:
        out += values.astype(np.float64, copy=False).tobytes()
    else:
        out += np.packbits(values).tobytes()
    return bytes(out)


def _decode_rle(buf: memoryview, dt: int, count: int):
    nruns, pos = _read_varint(buf, 0)
    lengths, pos = read_varints(buf, pos, nruns)
    if dt == _DT_OBJ:
        # Run values that are strings are their codes over a sorted dictionary.
        dictionary, values, _ = _decode_table(buf, pos, expect=nruns)
    elif dt == _DT_INT:
        zigzagged, _ = read_varints(buf, pos, nruns)
        values = _unzigzag(zigzagged)
    elif dt == _DT_FLOAT:
        _need(buf, pos, 8 * nruns)
        values = np.frombuffer(buf, dtype=np.float64, count=nruns, offset=pos)
    else:
        values = _decode_packed_bools(buf, pos, nruns)
    # ``max`` first: a sum of damaged lengths could wrap back onto ``count``.
    if nruns and lengths.max() > count or int(lengths.sum()) != count:
        raise CorruptBlock(f"run lengths do not add up to the block's {count} rows")
    values = np.repeat(values, lengths.view(np.int64))
    return values if dt != _DT_OBJ else CodedStrings(values, dictionary)


def _encode_dict(arr: np.ndarray, dt: int) -> bytes:
    # Dictionary of distinct values + per-row codes.  None sorts first.
    out = bytearray()
    if dt == _DT_OBJ:
        values = arr.tolist()
        distinct = set(values)
        dictionary: List[Optional[str]] = [None] if None in distinct else []
        distinct.discard(None)
        dictionary += sorted(distinct)
        code_of = {v: i for i, v in enumerate(dictionary)}
        codes = np.fromiter(
            map(code_of.__getitem__, values), dtype=np.uint64, count=len(values)
        )
        out += _encode_strings(dictionary)
    elif dt == _DT_INT:
        distinct_ints, codes = np.unique(
            arr.astype(np.int64, copy=False), return_inverse=True
        )
        _write_varint(out, len(distinct_ints))
        out += write_varints(_zigzag(distinct_ints))
        codes = codes.astype(np.uint64)
    else:
        raise TypeError("DICT encoding supports int and varchar columns only")
    out += write_varints(codes)
    return bytes(out)


def _decode_dict(buf: memoryview, dt: int, count: int):
    if dt == _DT_OBJ:
        # A string table's entries are their codes over its sorted dictionary.
        dictionary, table, pos = _decode_table(buf, 0)
    elif dt == _DT_INT:
        size, pos = _read_varint(buf, 0)
        zigzagged, pos = read_varints(buf, pos, size)
        table = _unzigzag(zigzagged)
    else:
        raise CorruptBlock("DICT block of a dtype DICT does not encode")
    codes, _ = read_varints(buf, pos, count)
    if count and codes.max() >= len(table):
        raise CorruptBlock(
            f"dictionary code {codes.max()} in a dictionary of {len(table)}"
        )
    values = table[codes.view(np.int64)]
    return values if dt != _DT_OBJ else CodedStrings(values, dictionary)


def _encode_delta(arr: np.ndarray, dt: int) -> bytes:
    if dt != _DT_INT:
        raise TypeError("DELTA encoding supports integer columns only")
    v = arr.astype(np.int64, copy=False)
    if len(v) == 0:
        return b""
    # The frame of reference goes out on its own so that the deltas of a
    # dense sorted column — one byte each — take write_varints' fast path
    # (and read_varints' on the way back).
    out = bytearray()
    first = int(v[0])
    _write_varint(out, (first << 1) ^ (first >> 63))
    out += write_varints(_zigzag(v[1:] - v[:-1]))
    return bytes(out)


def _decode_delta(buf: memoryview, dt: int, count: int) -> np.ndarray:
    if dt != _DT_INT:
        raise CorruptBlock("DELTA block of a dtype DELTA does not encode")
    if count == 0:
        return np.empty(0, dtype=np.int64)
    # The frame of reference is read on its own, as it was written.
    first, pos = _read_varint(buf, 0)
    if first >> 64:
        raise CorruptBlock("varint does not fit 64 bits")
    deltas, _ = read_varints(buf, pos, count - 1)
    zigzagged = np.empty(count, dtype=np.uint64)
    zigzagged[0] = first
    zigzagged[1:] = deltas
    # int64 cumsum wraps, as the encoder's subtraction did: exact over the
    # whole int64 range.
    return np.cumsum(_unzigzag(zigzagged))


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


def _choose(arr: np.ndarray, dt: int, runs) -> Encoding:
    n = len(arr)
    if len(runs[0]) / n <= 0.5:
        return Encoding.RLE
    if dt == _DT_OBJ:
        if len(set(arr.tolist())) <= max(16, n // 8):
            return Encoding.DICT
        return Encoding.PLAIN
    if dt == _DT_INT:
        v = arr.astype(np.int64, copy=False)
        if n > 1 and np.all(v[1:] >= v[:-1]):
            return Encoding.DELTA
    return Encoding.PLAIN


def choose_encoding(arr: np.ndarray) -> Encoding:
    """Pick the encoding expected to be smallest for this block."""
    if len(arr) == 0:
        return Encoding.PLAIN
    return _choose(arr, _dtype_code(arr), _runs(arr))


def encode_block(arr: np.ndarray, encoding: Optional[Encoding] = None) -> bytes:
    """Encode one block of column values to bytes (header included)."""
    dt = _dtype_code(arr)
    runs = None
    if encoding is None:
        if len(arr) == 0:
            encoding = Encoding.PLAIN
        else:
            # The run boundaries that decide for or against RLE are the
            # ones RLE then writes: computed once per block.
            runs = _runs(arr)
            encoding = _choose(arr, dt, runs)
    if encoding is Encoding.RLE:
        payload = _encode_rle(arr, dt, runs)
    else:
        payload = _ENCODERS[encoding](arr, dt)
    return _HEADER.pack(int(encoding), dt, len(arr)) + payload


def decode_block(data: Buffer, view: bool = False) -> Held:
    """Inverse of :func:`encode_block`.

    ``data`` may be any bytes-like object; a ``memoryview`` slice of a
    larger image is decoded in place, without copying the block out first.
    ``view`` is for a caller that joins blocks into a column
    (:func:`repro.storage.column.concat_blocks`): a PLAIN numeric block
    comes back as an array over ``data`` itself (read-only when ``data``
    is), a DICT or RLE string block as :class:`CodedStrings`; every other
    block is a fresh array either way, and ``len()`` is the row count always.
    Raises :class:`CorruptBlock` when ``data`` is not a whole valid block.
    """
    buf = memoryview(data)
    if len(buf) < _HEADER.size:
        raise CorruptBlock(f"block of {len(buf)} bytes is shorter than its header")
    enc_id, dt, count = _HEADER.unpack_from(buf, 0)
    decoder = _DECODERS.get(enc_id)  # an IntEnum key answers to its int
    if decoder is None:
        raise CorruptBlock(f"unknown block encoding {enc_id}")
    if dt not in (_DT_INT, _DT_FLOAT, _DT_OBJ, _DT_BOOL):
        raise CorruptBlock(f"unknown block dtype code {dt}")
    if view and decoder is _decode_plain:
        return _decode_plain(buf[_HEADER.size :], dt, count, view)
    values = decoder(buf[_HEADER.size :], dt, count)
    return values.text() if isinstance(values, CodedStrings) and not view else values
