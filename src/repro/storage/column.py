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
from typing import List, NamedTuple, Optional, Sequence, Tuple

import numpy as np

from repro.common.types import ColumnType
from repro.errors import CorruptBlock
from repro.storage.encoding import Buffer, decode_block, encode_block

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

    A tuple, not a dataclass: a reader builds one per block of every column
    it opens, on every scan.
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


class ColumnReader:
    """Random-access reader over a column file byte image.

    Decodes the footer eagerly (it is small) and blocks lazily, mirroring
    how a real engine touches only the blocks a query needs.
    """

    def __init__(self, data: Buffer):
        # A view, not a copy: ``data`` is usually a slice of a container
        # image, and blocks are decoded straight out of that image.
        data = memoryview(data)
        footer = read_footer(data, _MAGIC, "column file")
        self._data = data
        try:
            self.ctype = ColumnType(footer["ctype"])
            self.row_count: int = footer["row_count"]
            self.blocks: List[BlockInfo] = [
                BlockInfo.from_json(b) for b in footer["blocks"]
            ]
        except (KeyError, TypeError, ValueError) as exc:
            raise CorruptBlock(f"damaged column file footer: {exc!r}") from None
        # Every later use — slicing, the position search, pruning's
        # comparisons — relies on integer extents, blocks that tile
        # [0, row_count) and bounds of the column's own type.
        stat = _STAT_TYPES[self.ctype]
        row = 0
        for offset, length, row_start, row_count, lo, hi in self.blocks:
            if not (
                isinstance(offset, int) and isinstance(length, int)
                and isinstance(row_count, int) and row_count >= 0
                and isinstance(row_start, int) and row_start == row
                and (lo is None or isinstance(lo, stat))
                and (hi is None or isinstance(hi, stat))
            ):
                raise CorruptBlock(f"damaged column file footer: block at row {row}")
            row += row_count
        if not isinstance(self.row_count, int) or row != self.row_count:
            raise CorruptBlock("damaged column file footer: blocks do not add up")

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

    def read_block(self, index: int) -> np.ndarray:
        info = self.blocks[index]
        values = decode_block(self._data[info.offset : info.offset + info.length])
        if len(values) != info.row_count:
            raise CorruptBlock(
                f"block {index} holds {len(values)} rows, its footer says {info.row_count}"
            )
        return values

    def read_all(self) -> np.ndarray:
        if not self.blocks:
            return self.ctype.coerce([])
        parts = [self.read_block(i) for i in range(len(self.blocks))]
        if len(parts) == 1:
            return parts[0]
        return np.concatenate(parts)

    def read_rows(self, positions: Sequence[int]) -> np.ndarray:
        """Fetch specific row positions (used for late materialisation)."""
        positions = np.asarray(positions, dtype=np.int64)
        out: Optional[np.ndarray] = None
        order = np.argsort(positions, kind="stable")
        sorted_pos = positions[order]
        results = [None] * len(positions)
        block_idx = 0
        current: Optional[np.ndarray] = None
        current_info: Optional[BlockInfo] = None
        for rank, pos in zip(order, sorted_pos):
            if pos < 0 or pos >= self.row_count:
                raise IndexError(f"row {pos} out of range 0..{self.row_count - 1}")
            while not (
                self.blocks[block_idx].row_start
                <= pos
                < self.blocks[block_idx].row_start + self.blocks[block_idx].row_count
            ):
                block_idx += 1
                current = None
            if current is None:
                current = self.read_block(block_idx)
                current_info = self.blocks[block_idx]
            results[rank] = current[pos - current_info.row_start]
        if self.ctype is ColumnType.VARCHAR:
            return np.array(results, dtype=object)
        return np.asarray(results, dtype=self.ctype.dtype)

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

    def blocks_possibly_matching(
        self, lo: object = None, hi: object = None
    ) -> List[int]:
        """Block indices whose [min,max] range intersects [lo, hi]."""
        return [i for i, hit in enumerate(self.block_mask(lo, hi)) if hit]
