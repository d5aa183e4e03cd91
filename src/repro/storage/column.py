"""Column files: encoded blocks plus a footer position index.

Per section 2.3 of the paper, Vertica "writes actual column data, followed
by a footer with a position index.  The position index maps tuple offset in
the container to a block in the file, along with block metadata such as
minimum value and maximum value to accelerate the execution engine."

A :class:`ColumnFile` is exactly that: a sequence of independently encoded
blocks, then a JSON footer recording, for each block, its byte extent,
starting row position, row count, encoding, and min/max values.  Files are
immutable once written.
"""

from __future__ import annotations

import json
import struct
from typing import List, NamedTuple, Optional, Tuple

import numpy as np

from repro.common.types import ColumnType
from repro.errors import CorruptBlock
from repro.storage.encoding import (
    Buffer,
    CodedStrings,
    Held,
    decode_block,
    encode_block,
    join_blocks,
)

#: Default number of rows per encoded block.
DEFAULT_BLOCK_ROWS = 4096

_MAGIC = b"RCOL"
_TRAILER = struct.Struct("<Q4s")  # footer byte length, magic

#: What a block's min/max may be in the footer (or ``null``), per column
#: type; an object column's bounds are whatever scalars it held.
_STAT_TYPES = {
    ColumnType.INT: int, ColumnType.DATE: int, ColumnType.BOOL: int,
    ColumnType.FLOAT: (int, float), ColumnType.VARCHAR: (str, int, float),
}


def read_footer(data: memoryview, magic: bytes, what: str) -> dict:
    """The JSON footer a column file or container image ends with.

    :class:`CorruptBlock` when the image is cut short or its trailer or
    footer is damaged — like a damaged block, never a ``ValueError``.
    """
    start = len(data) - _TRAILER.size
    if start < 0:
        raise CorruptBlock(f"truncated {what}")
    footer_len, found = _TRAILER.unpack_from(data, start)
    if found != magic:
        raise CorruptBlock(f"bad {what} magic")
    if footer_len > start:
        raise CorruptBlock(f"truncated {what}: footer longer than the file")
    try:
        # JSONDecodeError and UnicodeDecodeError are both ValueErrors.
        footer = json.loads(str(data[start - footer_len : start], "utf-8"))
    except ValueError as exc:
        raise CorruptBlock(f"damaged {what} footer: {exc}") from None
    if not isinstance(footer, dict):
        raise CorruptBlock(f"damaged {what} footer: not an object")
    return footer


class BlockInfo(NamedTuple):
    """Footer entry for one block (the position index).

    A tuple, not a dataclass: a layout holds one per block of every column
    a node has opened, for as long as its depot holds the file.
    """

    offset: int
    length: int
    row_start: int
    row_count: int
    min_value: object
    max_value: object

    def to_json(self) -> dict:
        return {
            "offset": self.offset,
            "length": self.length,
            "row_start": self.row_start,
            "row_count": self.row_count,
            "min": self.min_value,
            "max": self.max_value,
        }

    @classmethod
    def from_json(cls, obj: dict) -> "BlockInfo":
        return cls(
            obj["offset"],
            obj["length"],
            obj["row_start"],
            obj["row_count"],
            obj["min"],
            obj["max"],
        )


def minmax(arr: np.ndarray) -> Tuple[object, object]:
    """JSON-serialisable (min, max) of a block or a column, ignoring NULLs
    (``None``; NaN in a float column, which would otherwise be both bounds
    and prune every row stored beside it)."""
    if arr.dtype.kind == "O":
        non_null = [v for v in arr if v is not None]
        if not non_null:
            return None, None
        return min(non_null), max(non_null)
    if arr.dtype.kind == "f" and len(arr) and np.isnan(arr.min()):
        arr = arr[~np.isnan(arr)]
    if len(arr) == 0:
        return None, None
    lo, hi = arr.min(), arr.max()
    if arr.dtype.kind == "f":
        return float(lo), float(hi)
    if arr.dtype.kind == "b":
        return bool(lo), bool(hi)
    return int(lo), int(hi)


class ColumnFile:
    """Writer producing the immutable byte image of one column."""

    @staticmethod
    def write(
        values: np.ndarray,
        ctype: ColumnType,
        block_rows: int = DEFAULT_BLOCK_ROWS,
    ) -> bytes:
        """Serialise ``values`` into the block+footer format."""
        if block_rows < 1:
            raise ValueError("block_rows must be >= 1")
        blocks: List[BlockInfo] = []
        body = bytearray()
        row = 0
        n = len(values)
        while row < n or (n == 0 and not blocks):
            chunk = values[row : row + block_rows]
            encoded = encode_block(chunk)
            lo, hi = minmax(chunk)
            blocks.append(
                BlockInfo(
                    offset=len(body),
                    length=len(encoded),
                    row_start=row,
                    row_count=len(chunk),
                    min_value=lo,
                    max_value=hi,
                )
            )
            body.extend(encoded)
            row += len(chunk)
            if n == 0:
                break
        footer = json.dumps(
            {
                "ctype": ctype.value,
                "row_count": n,
                "blocks": [b.to_json() for b in blocks],
            }
        ).encode("utf-8")
        return bytes(body) + footer + _TRAILER.pack(len(footer), _MAGIC)


class ColumnLayout(NamedTuple):
    """A column file's footer, parsed, typed and validated: all a reader
    needs beside the bytes.  It holds none of them, and because files are
    immutable it stays true of the file it was parsed from."""

    ctype: ColumnType
    row_count: int
    blocks: Tuple[BlockInfo, ...]

    @classmethod
    def parse(cls, data: memoryview) -> "ColumnLayout":
        footer = read_footer(data, _MAGIC, "column file")
        try:
            ctype = ColumnType(footer["ctype"])
            total = footer["row_count"]
            blocks = tuple(BlockInfo.from_json(b) for b in footer["blocks"])
        except (KeyError, TypeError, ValueError) as exc:
            raise CorruptBlock(f"damaged column file footer: {exc!r}") from None
        # Every later use — slicing, the position search, pruning's
        # comparisons — relies on integer extents, blocks that tile
        # [0, row_count) and bounds of the column's own type.
        stat = _STAT_TYPES[ctype]
        row = 0
        for offset, length, row_start, row_count, lo, hi in blocks:
            if not (
                isinstance(offset, int) and isinstance(length, int)
                and isinstance(row_count, int) and row_count >= 0
                and isinstance(row_start, int) and row_start == row
                and (lo is None or isinstance(lo, stat))
                and (hi is None or isinstance(hi, stat))
            ):
                raise CorruptBlock(f"damaged column file footer: block at row {row}")
            row += row_count
        if not isinstance(total, int) or row != total:
            raise CorruptBlock("damaged column file footer: blocks do not add up")
        return cls(ctype, total, blocks)


def concat_blocks(parts: List[Held], ctype: ColumnType) -> Held:
    """A column from its decoded blocks.  An array among them is writable
    and owns its data: the one copy between a block decoded as a view and
    what a read returns."""
    if not parts:
        return ctype.coerce([])
    values = join_blocks(parts)
    if len(parts) == 1 and isinstance(values, np.ndarray) and not values.flags.owndata:
        values = values.copy()  # a lone PLAIN block, decoded as a view
    return values


class ColumnReader:
    """Random-access reader over a column file byte image.

    Runs on the file's :class:`ColumnLayout` — the caller's, or parsed here
    (the footer is small) — and decodes blocks lazily, mirroring how a real
    engine touches only the blocks a query needs.
    """

    def __init__(self, data: Buffer, layout: Optional[ColumnLayout] = None):
        # A view, not a copy: ``data`` is usually a slice of a container
        # image, and blocks are decoded straight out of that image.
        self._data = memoryview(data)
        self.layout = layout or ColumnLayout.parse(self._data)
        self.ctype, self.row_count, self.blocks = self.layout

    # -- statistics ----------------------------------------------------------

    @property
    def min_value(self) -> object:
        mins = [b.min_value for b in self.blocks if b.min_value is not None]
        return min(mins) if mins else None

    @property
    def max_value(self) -> object:
        maxs = [b.max_value for b in self.blocks if b.max_value is not None]
        return max(maxs) if maxs else None

    # -- reads ---------------------------------------------------------------

    def read_block(self, index: int, view: bool = False) -> Held:
        """Block ``index`` decoded; ``view`` as in :func:`decode_block`."""
        info = self.blocks[index]
        values = decode_block(self._data[info.offset : info.offset + info.length], view)
        if len(values) != info.row_count:
            raise CorruptBlock(
                f"block {index} holds {len(values)} rows, its footer says {info.row_count}"
            )
        return values

    def read_all(self) -> np.ndarray:
        parts = [self.read_block(i, view=True) for i in range(len(self.blocks))]
        values = concat_blocks(parts, self.ctype)
        return values.text() if isinstance(values, CodedStrings) else values

    def block_mask(self, lo: object = None, hi: object = None) -> List[bool]:
        """Per block: could its [min,max] range intersect [lo, hi]?

        This is the block-level pruning the footer min/max metadata exists
        for; ``None`` bounds are unbounded.  All-NULL and empty blocks
        carry no range (``None``/``None``) and are never excluded.
        """
        return [
            not (
                (lo is not None and b.max_value is not None and b.max_value < lo)
                or (hi is not None and b.min_value is not None and b.min_value > hi)
            )
            for b in self.blocks
        ]
