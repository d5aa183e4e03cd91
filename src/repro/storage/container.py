"""ROS containers and the in-memory columnar batch (:class:`RowSet`).

A ROS container (section 2.3) "logically contains some number of complete
tuples sorted by the projection's sort order, stored per column".  Once
written, a container is immutable; deletes are recorded in separate delete
vectors.  In Eon mode, "storage containers are partitioned by shard: each
contains rows whose hash values map to a single shard's hash range"
(section 4).

This module provides:

* :class:`RowSet` — the engine's working currency: a schema plus one numpy
  array per column (a string column may be held as
  :class:`~repro.storage.encoding.CodedStrings`; ``column()`` is its text).
* :class:`ROSContainer` — catalog-visible container metadata (SID, shard,
  row count, per-column min/max for pruning, byte size, location).
* :func:`write_container` / :func:`read_container` — the immutable
  byte-image codec bundling every column file of one container into a
  single shared-storage object (Vertica concatenates small column files to
  cut file counts; bundling per container preserves that behaviour while
  keeping one name per container).
"""

from __future__ import annotations

import math
import struct
import sys
from dataclasses import dataclass, replace
from functools import cached_property
from itertools import compress, repeat
from typing import Dict, Iterable, List, Optional, Sequence, Tuple

import numpy as np

from repro.common.oid import StorageId
from repro.common.types import ColumnType, SchemaColumn, TableSchema
from repro.errors import CorruptBlock
from repro.storage.column import (
    DEFAULT_BLOCK_ROWS,
    ColumnFile,
    ColumnLayout,
    ColumnReader,
    concat_blocks,
    encode_json,
    minmax,
    read_footer,
)
from repro.storage.encoding import Buffer, CodedStrings, Held, dictionary_of, join_blocks


class RowSet:
    """Immutable-by-convention columnar batch of rows.

    The one place that knows a string column may arrive as dictionary codes:
    :meth:`column` is always the array, :meth:`held` the codes where there
    are codes, and every transformation carries them along.
    """

    def __init__(self, schema: TableSchema, columns: Dict[str, Held]):
        if set(columns) != set(schema.names):
            raise ValueError(
                f"columns {sorted(columns)} do not match schema {schema.names}"
            )
        lengths = set(map(len, columns.values()))
        if len(lengths) > 1:
            raise ValueError(f"ragged columns: lengths {lengths}")
        self.schema = schema
        self._held = columns
        self.num_rows = lengths.pop() if lengths else 0
        #: Whether any column is held as codes.
        self.has_codes = CodedStrings in map(type, columns.values())

    # -- constructors ----------------------------------------------------

    @classmethod
    def from_rows(cls, schema: TableSchema, rows: Iterable[Sequence[object]]) -> "RowSet":
        rows = list(rows)
        columns = {}
        for i, col in enumerate(schema.columns):
            columns[col.name] = col.ctype.coerce([r[i] for r in rows])
        return cls(schema, columns)

    @classmethod
    def empty(cls, schema: TableSchema) -> "RowSet":
        return cls(schema, {c.name: c.ctype.coerce([]) for c in schema.columns})

    @classmethod
    def from_blocks(cls, schema: TableSchema, blocks: Dict[str, List[Held]]) -> "RowSet":
        """Each column the one concatenation of its decoded blocks (see
        :meth:`ContainerReader.append_blocks`)."""
        return cls(
            schema,
            {c.name: concat_blocks(blocks[c.name], c.ctype) for c in schema.columns},
        )

    @classmethod
    def concat(cls, parts: Sequence["RowSet"]) -> "RowSet":
        if not parts:
            raise ValueError("concat of zero RowSets")
        schema = parts[0].schema
        columns = {}
        for name in schema.names:
            columns[name] = join_blocks([p._held[name] for p in parts])
        return cls(schema, columns)

    # -- accessors ---------------------------------------------------------

    @property
    def columns(self) -> Dict[str, np.ndarray]:
        return {name: self.column(name) for name in self._held}

    def column(self, name: str) -> np.ndarray:
        values = self._held[name]
        return values.text() if isinstance(values, CodedStrings) else values

    def held(self, name: str) -> Held:
        """The column as the batch holds it — :class:`CodedStrings` where
        strings arrived as codes — for a kernel that works on codes, or to
        hand on to another batch."""
        return self._held[name]

    def to_pylist(self) -> List[tuple]:
        """Rows as plain-Python tuples (numpy scalars unwrapped), built
        column by column: a value array's ``tolist`` is its items."""
        if not self.schema.names:
            return [()] * self.num_rows
        columns = []
        for name in self.schema.names:
            column = self.column(name)
            values = column.tolist()
            if column.dtype.kind == "O":
                values = [v.item() if isinstance(v, np.generic) else v for v in values]
            columns.append(values)
        return list(zip(*columns))

    # -- transformations -----------------------------------------------------

    def select(self, names: Sequence[str]) -> "RowSet":
        return RowSet(self.schema.subset(names), {n: self._held[n] for n in names})

    def rename(self, mapping: Dict[str, str]) -> "RowSet":
        new_schema = TableSchema(
            [
                replace(c, name=mapping.get(c.name, c.name))
                for c in self.schema.columns
            ]
        )
        new_cols = {mapping.get(n, n): v for n, v in self._held.items()}
        return RowSet(new_schema, new_cols)

    def take(self, indices: np.ndarray) -> "RowSet":
        return RowSet(
            self.schema, {n: v[indices] for n, v in self._held.items()}
        )

    def filter(self, mask: np.ndarray) -> "RowSet":
        return RowSet(self.schema, {n: v[mask] for n, v in self._held.items()})

    def slice(self, start: int, stop: Optional[int] = None) -> "RowSet":
        return RowSet(
            self.schema, {n: v[start:stop] for n, v in self._held.items()}
        )

    def sort_by(self, order: Sequence[str], ascending: bool = True) -> "RowSet":
        """Stable sort by the given columns (most significant first)."""
        if not order:
            return self
        indices = np.arange(self.num_rows)
        for name in reversed(list(order)):
            indices = indices[sort_order(self._held[name][indices])]
        if not ascending:
            indices = indices[::-1]
        return self.take(indices)

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, RowSet):
            return NotImplemented
        if self.schema.names != other.schema.names or self.num_rows != other.num_rows:
            return False
        for name in self.schema.names:
            a, b = self.column(name), other.column(name)
            if a.dtype.kind == "O" or b.dtype.kind == "O":
                if list(a) != list(b):
                    return False
            elif not np.array_equal(a, b):
                return False
        return True

    def __repr__(self) -> str:
        return f"RowSet({self.schema.names}, {self.num_rows} rows)"


def sort_order(values: Held, ascending: bool = True) -> np.ndarray:
    """Stable argsort of one column, NULL strings last ascending (first
    descending): strings sort as their codes over a sorted dictionary."""
    if isinstance(values, CodedStrings):
        values = values.codes
    elif values.dtype.kind == "O":
        values = dictionary_of(values.tolist())[1]
    if ascending:
        return np.argsort(values, kind="stable")
    # Stable descending.  Floats: negate — NaN stays NaN and still sorts
    # last.  ``~x`` reverses ints, dates and bools exactly; a float cast
    # would round int64 keys above 2**53 into ties.
    return np.argsort(-values if values.dtype.kind == "f" else ~values, kind="stable")


def rowset_bytes(rows: RowSet) -> int:
    """Approximate wire size of a batch: fixed-width values at their dtype's
    itemsize, a string as 4 bytes of framing plus its length in characters
    (NULL adds nothing).  The one yardstick for bytes shipped between nodes
    and bytes a server-side select returns."""
    total = 0
    for name in rows.schema.names:
        column = rows.held(name)
        if isinstance(column, CodedStrings):
            # The same sum, each entry's length taken once and gathered.
            lengths = [len(v) if v is not None else 0 for v in column.dictionary.tolist()]
            total += 4 * len(column) + int(np.asarray(lengths, dtype=np.int64)[column.codes].sum())
        elif column.dtype.kind == "O":
            values = column.tolist()
            strings = compress(values, map(isinstance, values, repeat(str)))
            total += 4 * len(values) + sum(map(len, strings))
        else:
            total += column.dtype.itemsize * len(column)
    return total


# ---------------------------------------------------------------------------
# container metadata


@dataclass(frozen=True)
class ROSContainer:
    """Catalog metadata for one immutable ROS container.

    ``shard_id`` is ``None`` for Enterprise mode (where containers belong to
    nodes, not shards) and for replicated projections it names the replica
    shard.  ``location`` is the shared-storage object name (the printable
    SID).
    """

    sid: StorageId
    projection: str
    shard_id: Optional[int]
    row_count: int
    size_bytes: int
    min_values: Tuple[Tuple[str, object], ...]
    max_values: Tuple[Tuple[str, object], ...]
    partition_key: Optional[object] = None
    creation_version: int = 0

    @cached_property
    def location(self) -> str:
        """Made once, like :attr:`bounds`: every scan of the container reads it."""
        return str(self.sid)

    @cached_property
    def bounds(self) -> Dict[str, Tuple[object, object]]:
        """``{column: (min, max)}``, made once: a container's statistics never
        change, and every scan of every catalog state holding it prunes by them."""
        maxs = dict(self.max_values)
        return {name: (low, maxs.get(name)) for name, low in self.min_values}


# ---------------------------------------------------------------------------
# container byte-image codec

_MAGIC = b"RROS"
_TRAILER = struct.Struct("<Q4s")


def write_container(
    rowset: RowSet, block_rows: int = DEFAULT_BLOCK_ROWS
) -> Tuple[bytes, "ContainerLayout"]:
    """Serialise every column of ``rowset`` into one container image;
    returns the image and its :class:`ContainerLayout`, every column's
    layout in it — what a reader opening each column would parse."""
    body = bytearray()
    directory = {}
    extents = {}
    columns = {}
    for col in rowset.schema.columns:
        data, columns[col.name] = ColumnFile.write(
            rowset.column(col.name), col.ctype, block_rows
        )
        ctype = col.ctype.value
        directory[col.name] = {"offset": len(body), "length": len(data), "ctype": ctype}
        extents[sys.intern(col.name)] = (len(body), len(data), sys.intern(ctype))
        body.extend(data)
    order = rowset.schema.names
    footer = encode_json(
        {"row_count": rowset.num_rows, "columns": directory, "order": order}
    ).encode("utf-8")
    image = bytes(body) + footer + _TRAILER.pack(len(footer), _MAGIC)
    return image, ContainerLayout(
        rowset.num_rows, tuple(map(sys.intern, order)), extents, columns
    )


class ContainerLayout:
    """What opening a container image teaches, kept apart from the bytes:
    the parsed and checked footer, plus each column file's
    :class:`ColumnLayout` — from the writer, which knows them all, or from
    the first time a reader opens that column.

    Containers are immutable and named by SID, and a SID is never reused, so
    a layout stays true of every copy of the image under that name — a
    node's depot keeps it past the entry's eviction
    (:meth:`FileCache.keep_layout`), the storage server keeps one per stored
    object, and a reader given one parses nothing.  A depot of small files holds
    thousands: tuples, with one string per table column and not per
    container, keep it at a fraction of the bytes it describes.
    """

    __slots__ = ("row_count", "column_order", "extents", "columns")

    def __init__(
        self,
        row_count: int,
        column_order: Tuple[str, ...],
        extents: Dict[str, Tuple[int, int, str]],
        columns: Dict[str, ColumnLayout],
    ):
        self.row_count = row_count
        self.column_order = column_order
        #: Per column: byte offset and length of its file, and its ctype.
        self.extents = extents
        self.columns = columns

    @classmethod
    def parse(cls, data: memoryview) -> "ContainerLayout":
        """The layout of the image ``data``, its footer checked; no column
        is opened."""
        footer = read_footer(data, _MAGIC, "container")
        try:
            order = tuple(map(sys.intern, footer["order"]))
            extents = {
                sys.intern(name): (
                    entry["offset"], entry["length"], sys.intern(entry["ctype"])
                )
                for name, entry in footer["columns"].items()
            }
            if not all(map(extents.__contains__, order)):
                raise KeyError("a listed column has no entry")
            return cls(footer["row_count"], order, extents, {})
        except (AttributeError, KeyError, TypeError) as exc:
            raise CorruptBlock(f"damaged container footer: {exc!r}") from None


class ContainerReader:
    """Lazy per-column reader over a container byte image."""

    def __init__(self, data: Buffer, layout: Optional[ContainerLayout] = None):
        # Column files and blocks are handed down as views of this one
        # image; bytes are copied only where blocks become a column.
        self._data = memoryview(data)
        self.layout = layout or ContainerLayout.parse(self._data)
        self.row_count = self.layout.row_count
        self.column_order = self.layout.column_order
        self._readers: Dict[str, ColumnReader] = {}
        #: Bytes handed to ``decode_block`` by this reader's reads so far:
        #: the blocks of the columns read that survived pruning — what a
        #: local read of the image costs (a footer the depot keeps a layout
        #: for, and a column nobody opens, are never read).
        self.decoded_bytes = 0
        #: Key cells this reader's reads decoded outside the sort-key
        #: interval (:meth:`append_kept`): rows of kept blocks not handed on.
        self.rows_trimmed = 0

    def column_reader(self, name: str) -> ColumnReader:
        if name not in self._readers:
            # KeyError: not a column of this container
            offset, length, _ = self.layout.extents[name]
            try:
                chunk = self._data[offset : offset + length]
            except TypeError as exc:
                raise CorruptBlock(
                    f"damaged container footer: extent of {name!r}: {exc!r}"
                ) from None
            known = self.layout.columns
            reader = self._readers[name] = ColumnReader(chunk, known.get(name))
            known[name] = reader.layout
        return self._readers[name]

    def stored_bytes(self, names: Sequence[str]) -> int:
        """Stored (on-object) size of the named column files.

        This is what a server-side scan must read — the per-byte-scanned
        pricing base of :meth:`SimulatedS3.select_scan` — and is exactly
        recomputable by a client holding the raw container image.
        """
        lengths = [self.layout.extents[n][1] for n in names]
        try:
            return sum(lengths)
        except TypeError as exc:
            raise CorruptBlock(f"damaged container footer: a length: {exc!r}") from None

    def schema_of(self, names: Sequence[str]) -> TableSchema:
        """Schema of just the named columns: a read takes a few columns of
        a wide container."""
        try:
            # KeyError: not a column of this container
            columns = [
                SchemaColumn(n, ColumnType(self.layout.extents[n][2])) for n in names
            ]
        except ValueError as exc:
            raise CorruptBlock(f"damaged container footer: a ctype: {exc}") from None
        return TableSchema(columns)

    # -- block-level access ----------------------------------------------------

    def block_count(self) -> int:
        """Blocks per column (identical across columns: every column of a
        container is written with the same block_rows and row count),
        counted from a column reader that is already open when there is one."""
        if not self.column_order:
            return 0
        reader = next(iter(self._readers.values()), None)
        return len((reader or self.column_reader(self.column_order[0])).blocks)

    def matching_blocks(self, bounds) -> List[int]:
        """Block indices that could hold a row satisfying per-column
        [lo, hi] ``bounds`` (intersection across bounded columns)."""
        masks = [
            self.column_reader(column).block_mask(lo, hi)
            for column, (lo, hi) in bounds.items()
            if column in self.layout.extents
        ]
        # Counted after the bounded columns' readers are open: a pruned scan
        # parses no footer of a column it does not read.
        blocks = range(self.block_count())
        return list(compress(blocks, map(all, zip(*masks))) if masks else blocks)

    def append_kept(
        self,
        out: Dict[str, List[Held]],
        bounds: Optional[dict] = None,
        key: Optional[Tuple[str, object, object]] = None,
    ) -> int:
        """The one read rule of a scan: decode into ``out`` the blocks of
        each column it names whose footer min/max could satisfy ``bounds``
        (section 2.3's position index; every block without bounds), and
        where ``key`` — ``(column, lo, hi)`` of :func:`interval_key` — bounds
        the container's leading sort column, hand on only the rows of those
        blocks whose key lies in [lo, hi].

        The container is sorted on that column (NULLs last), so those rows
        are one interval of the kept blocks: the search decodes nothing
        twice, and the key cells outside it are added to
        :attr:`rows_trimmed`.  Returns the number of blocks pruning dropped.
        """
        if not bounds:
            self.append_blocks(out, None, key)
            return 0
        matching = self.matching_blocks(bounds)
        pruned = self.block_count() - len(matching)
        self.append_blocks(out, matching if pruned else None, key)
        return pruned

    def append_blocks(
        self,
        out: Dict[str, List[Held]],
        block_indices: Optional[Sequence[int]] = None,
        key: Optional[Tuple[str, object, object]] = None,
    ) -> None:
        """The one decode: every block (or only ``block_indices`` —
        positions align across columns because block geometry is shared) of
        each column ``out`` names, appended to that column's list; with a
        ``key`` that ``out`` names, only the rows in its interval
        (:meth:`append_kept`).

        PLAIN numeric blocks are appended as views of the image, so the
        lists are for :meth:`RowSet.from_blocks` (:func:`concat_blocks`
        owns what it returns), not for keeping; a block of no rows is decoded and appends nothing.
        The blocks' stored lengths are added to :attr:`decoded_bytes`.
        """
        names = list(out)
        # Without a key every block is handed on whole.
        first, last = -1, sys.maxsize
        if key is not None and key[0] in out:
            # The key column first: its edge blocks, decoded for the scan,
            # are searched for the interval the other columns are cut to.
            names.remove(key[0])
            names.insert(0, key[0])
            # Open already where bounds picked the blocks.
            reader = self._readers.get(key[0]) or self.column_reader(key[0])
            blocks = reader.blocks
            indices = range(len(blocks)) if block_indices is None else block_indices
            # Blocks past the last one holding a key value hold NULLs only
            # (NULLs sort last), and none of their rows is in range.
            last = -1
            for index in reversed(indices):
                if blocks[index].max_value is not None:
                    last = index
                    break
            if len(indices):
                first = indices[0]
        start = stop = 0
        nbytes = trimmed = 0
        for name in names:
            parts = out[name]
            reader = self.column_reader(name)
            blocks = reader.blocks
            searched = name is names[0]
            indices = range(len(blocks)) if block_indices is None else block_indices
            for index in indices:
                values = reader.read_block(index, view=True)
                nbytes += blocks[index].length
                if index > last:
                    trimmed += len(values) if searched else 0
                    continue
                if index == first or index == last:
                    size = len(values)
                    if searched and index == first:
                        start = int(values.searchsorted(key[1]))
                    if searched and index == last:
                        stop = max(start if index == first else 0,
                                   int(values.searchsorted(key[2], "right")))
                    low = start if index == first else 0
                    high = stop if index == last else size
                    trimmed += size - high + low if searched else 0
                    values = values[low:high]
                if len(values):
                    parts.append(values)
        self.decoded_bytes += nbytes
        self.rows_trimmed += trimmed

    def read_rowset_blocks(
        self, names: Sequence[str], block_indices: Optional[Sequence[int]]
    ) -> RowSet:
        """Read only the given blocks (all for ``None``) of each column."""
        schema = self.schema_of(names)
        out: Dict[str, List[np.ndarray]] = {name: [] for name in schema.names}
        self.append_blocks(out, block_indices)
        return RowSet.from_blocks(schema, out)

    def read_rowset(self, names: Optional[Sequence[str]] = None) -> RowSet:
        return self.read_rowset_blocks(self.column_order if names is None else names, None)


#: Column types a scan cuts to a row interval of their sorted values.
_SEARCHED = (ColumnType.INT, ColumnType.FLOAT, ColumnType.DATE)
#: What a bound may be for the search: a number, or open.
_NUMBERS = (int, float, type(None))


def interval_key(
    order: Sequence[str], bounds: dict, schema: TableSchema
) -> Optional[Tuple[str, object, object]]:
    """What :meth:`ContainerReader.append_kept` cuts a scan's kept blocks
    to, worked out once per scan: ``(column, lo, hi)`` where ``bounds``
    (:func:`~repro.engine.expressions.extract_column_bounds`) bound the
    leading column of the sort ``order`` every container of the projection
    is written in, the scan reads that column (``schema``, the scan's
    columns) and it is numeric or a date, and each bound is a number (an
    open end is an infinity); None otherwise."""
    name = order[0] if order else None
    if name not in bounds:
        return None
    for column in schema.columns:
        if column.name == name and column.ctype in _SEARCHED:
            break
    else:
        return None
    lo, hi = bounds[name]
    if type(lo) not in _NUMBERS or type(hi) not in _NUMBERS:
        return None
    return name, -math.inf if lo is None else lo, math.inf if hi is None else hi


def read_container(data: Buffer, layout: Optional[ContainerLayout] = None) -> ContainerReader:
    """A reader over ``data``; ``layout`` is what an earlier reader of the
    same image learnt (``reader.layout``), and saves parsing it again."""
    return ContainerReader(data, layout)


def read_through(depot, name: str, data: Buffer) -> ContainerReader:
    """A reader over ``data``, container file ``name`` as read through
    ``depot`` (a :class:`~repro.cache.disk_cache.FileCache`): on the layout
    the depot keeps for it — its writer's, or an earlier reader's — else on
    the one parsed here, which the depot then keeps for the next reader."""
    layout = depot.layout_of(name)
    reader = read_container(data, layout)
    if layout is None:
        depot.keep_layout(name, reader.layout)
    return reader


def container_stats(rowset: RowSet) -> Tuple[Tuple[Tuple[str, object], ...], Tuple[Tuple[str, object], ...]]:
    """Per-column (min, max) pairs for container metadata, NULLs ignored."""
    bounds = [(col.name, minmax(rowset.column(col.name))) for col in rowset.schema.columns]
    return (
        tuple((name, lo) for name, (lo, _) in bounds),
        tuple((name, hi) for name, (_, hi) in bounds),
    )
