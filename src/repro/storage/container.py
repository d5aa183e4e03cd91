"""ROS containers and the in-memory columnar batch (:class:`RowSet`).

A ROS container (section 2.3) "logically contains some number of complete
tuples sorted by the projection's sort order, stored per column".  Once
written, a container is immutable; deletes are recorded in separate delete
vectors.  In Eon mode, "storage containers are partitioned by shard: each
contains rows whose hash values map to a single shard's hash range"
(section 4).

This module provides:

* :class:`RowSet` — the engine's working currency: a schema plus one numpy
  array per column.
* :class:`ROSContainer` — catalog-visible container metadata (SID, shard,
  row count, per-column min/max for pruning, byte size, location).
* :func:`write_container` / :func:`read_container` — the immutable
  byte-image codec bundling every column file of one container into a
  single shared-storage object (Vertica concatenates small column files to
  cut file counts; bundling per container preserves that behaviour while
  keeping one name per container).
"""

from __future__ import annotations

import json
import struct
from dataclasses import dataclass, field, replace
from typing import Dict, Iterable, List, Optional, Sequence, Tuple

import numpy as np

from repro.common.oid import StorageId
from repro.common.types import ColumnType, SchemaColumn, TableSchema
from repro.errors import CorruptBlock
from repro.storage.column import (
    DEFAULT_BLOCK_ROWS,
    ColumnFile,
    ColumnReader,
    minmax,
    read_footer,
)
from repro.storage.encoding import Buffer


class RowSet:
    """Immutable-by-convention columnar batch of rows."""

    def __init__(self, schema: TableSchema, columns: Dict[str, np.ndarray]):
        if set(columns) != set(schema.names):
            raise ValueError(
                f"columns {sorted(columns)} do not match schema {schema.names}"
            )
        lengths = {len(v) for v in columns.values()}
        if len(lengths) > 1:
            raise ValueError(f"ragged columns: lengths {lengths}")
        self.schema = schema
        self.columns = columns
        self.num_rows = lengths.pop() if lengths else 0

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
    def concat(cls, parts: Sequence["RowSet"]) -> "RowSet":
        if not parts:
            raise ValueError("concat of zero RowSets")
        schema = parts[0].schema
        columns = {}
        for name in schema.names:
            arrays = [p.column(name) for p in parts]
            columns[name] = arrays[0] if len(arrays) == 1 else np.concatenate(arrays)
        return cls(schema, columns)

    # -- accessors ---------------------------------------------------------

    def column(self, name: str) -> np.ndarray:
        return self.columns[name]

    def to_rows(self) -> List[tuple]:
        arrays = [self.columns[n] for n in self.schema.names]
        return [tuple(a[i] for a in arrays) for i in range(self.num_rows)]

    def to_pylist(self) -> List[tuple]:
        """Rows as plain-Python tuples (numpy scalars unwrapped)."""
        out = []
        for row in self.to_rows():
            out.append(tuple(v.item() if isinstance(v, np.generic) else v for v in row))
        return out

    # -- transformations -----------------------------------------------------

    def select(self, names: Sequence[str]) -> "RowSet":
        return RowSet(self.schema.subset(names), {n: self.columns[n] for n in names})

    def rename(self, mapping: Dict[str, str]) -> "RowSet":
        new_schema = TableSchema(
            [
                replace(c, name=mapping.get(c.name, c.name))
                for c in self.schema.columns
            ]
        )
        new_cols = {mapping.get(n, n): v for n, v in self.columns.items()}
        return RowSet(new_schema, new_cols)

    def take(self, indices: np.ndarray) -> "RowSet":
        return RowSet(
            self.schema, {n: v[indices] for n, v in self.columns.items()}
        )

    def filter(self, mask: np.ndarray) -> "RowSet":
        return RowSet(self.schema, {n: v[mask] for n, v in self.columns.items()})

    def slice(self, start: int, stop: Optional[int] = None) -> "RowSet":
        return RowSet(
            self.schema, {n: v[start:stop] for n, v in self.columns.items()}
        )

    def sort_by(self, order: Sequence[str], ascending: bool = True) -> "RowSet":
        """Stable sort by the given columns (most significant first)."""
        if not order:
            return self
        indices = np.arange(self.num_rows)
        for name in reversed(list(order)):
            col = self.columns[name][indices]
            if col.dtype.kind == "O":
                keys = np.array([(v is None, v if v is not None else "") for v in col], dtype=object)
                sorter = sorted(range(len(col)), key=lambda i: (col[i] is None, col[i] if col[i] is not None else ""))
                sorter = np.asarray(sorter, dtype=np.int64)
            else:
                sorter = np.argsort(col, kind="stable")
            indices = indices[sorter]
        if not ascending:
            indices = indices[::-1]
        return self.take(indices)

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, RowSet):
            return NotImplemented
        if self.schema.names != other.schema.names or self.num_rows != other.num_rows:
            return False
        for name in self.schema.names:
            a, b = self.columns[name], other.columns[name]
            if a.dtype.kind == "O" or b.dtype.kind == "O":
                if list(a) != list(b):
                    return False
            elif not np.array_equal(a, b):
                return False
        return True

    def __repr__(self) -> str:
        return f"RowSet({self.schema.names}, {self.num_rows} rows)"


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

    @property
    def location(self) -> str:
        return str(self.sid)

    def min_of(self, column: str) -> object:
        return dict(self.min_values).get(column)

    def max_of(self, column: str) -> object:
        return dict(self.max_values).get(column)

    def with_version(self, version: int) -> "ROSContainer":
        return replace(self, creation_version=version)


# ---------------------------------------------------------------------------
# container byte-image codec

_MAGIC = b"RROS"
_TRAILER = struct.Struct("<Q4s")


def write_container(rowset: RowSet, block_rows: int = DEFAULT_BLOCK_ROWS) -> bytes:
    """Serialise every column of ``rowset`` into one container image."""
    body = bytearray()
    directory = {}
    for col in rowset.schema.columns:
        data = ColumnFile.write(rowset.column(col.name), col.ctype, block_rows)
        directory[col.name] = {
            "offset": len(body),
            "length": len(data),
            "ctype": col.ctype.value,
        }
        body.extend(data)
    footer = json.dumps(
        {"row_count": rowset.num_rows, "columns": directory,
         "order": rowset.schema.names}
    ).encode("utf-8")
    return bytes(body) + footer + _TRAILER.pack(len(footer), _MAGIC)


class ContainerReader:
    """Lazy per-column reader over a container byte image."""

    def __init__(self, data: Buffer):
        # Column files and blocks are handed down as views of this one
        # image; bytes are copied only where a block becomes an array.
        data = memoryview(data)
        footer = read_footer(data, _MAGIC, "container")
        self._data = data
        try:
            self.row_count: int = footer["row_count"]
            self.column_order: List[str] = footer["order"]
            self._directory: Dict[str, dict] = footer["columns"]
            if not (
                isinstance(self._directory, dict)
                and all(map(self._directory.__contains__, self.column_order))
            ):
                raise KeyError("a listed column has no entry")
        except (KeyError, TypeError) as exc:
            raise CorruptBlock(f"damaged container footer: {exc!r}") from None
        self._readers: Dict[str, ColumnReader] = {}

    def _ctype(self, name: str) -> ColumnType:
        entry = self._directory[name]  # KeyError: not a column of this container
        try:
            return ColumnType(entry["ctype"])
        except (KeyError, TypeError, ValueError, IndexError) as exc:
            raise CorruptBlock(
                f"damaged container footer: ctype of {name!r}: {exc!r}"
            ) from None

    @property
    def column_names(self) -> List[str]:
        return list(self.column_order)

    def column_reader(self, name: str) -> ColumnReader:
        if name not in self._readers:
            entry = self._directory[name]  # KeyError: not a column of this container
            try:
                chunk = self._data[entry["offset"] : entry["offset"] + entry["length"]]
            except (KeyError, TypeError, IndexError) as exc:
                raise CorruptBlock(
                    f"damaged container footer: extent of {name!r}: {exc!r}"
                ) from None
            self._readers[name] = ColumnReader(chunk)
        return self._readers[name]

    def read_columns(self, names: Sequence[str]) -> Dict[str, np.ndarray]:
        return {n: self.column_reader(n).read_all() for n in names}

    def stored_bytes(self, names: Sequence[str]) -> int:
        """Stored (on-object) size of the named column files.

        This is what a server-side scan must read — the per-byte-scanned
        pricing base of :meth:`SimulatedS3.select_scan` — and is exactly
        recomputable by a client holding the raw container image.
        """
        entries = [self._directory[n] for n in names]
        try:
            return sum(entry["length"] for entry in entries)
        except (KeyError, TypeError, IndexError) as exc:
            raise CorruptBlock(f"damaged container footer: a length: {exc!r}") from None

    def schema(self) -> TableSchema:
        return self._schema_of(self.column_order)

    def _schema_of(self, names: Sequence[str]) -> TableSchema:
        """Schema of just the named columns: a scan reads a few columns of
        a wide container, once per reader."""
        return TableSchema([SchemaColumn(n, self._ctype(n)) for n in names])

    def read_rowset(self, names: Optional[Sequence[str]] = None) -> RowSet:
        names = self.column_order if names is None else list(names)
        return RowSet(self._schema_of(names), self.read_columns(names))

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
            if column in self._directory
        ]
        # Counted after the bounded columns' readers are open: a pruned scan
        # parses no footer of a column it does not read.
        return [i for i in range(self.block_count()) if all(m[i] for m in masks)]

    def read_rowset_blocks(
        self, names: Sequence[str], block_indices: Sequence[int]
    ) -> RowSet:
        """Read only the given blocks of each column (positions align
        across columns because block geometry is shared)."""
        names = list(names)
        schema = self._schema_of(names)
        columns: Dict[str, np.ndarray] = {}
        for name in names:
            reader = self.column_reader(name)
            parts = [reader.read_block(i) for i in block_indices]
            if not parts:
                columns[name] = schema.column(name).ctype.coerce([])
            elif len(parts) == 1:
                columns[name] = parts[0]
            else:
                columns[name] = np.concatenate(parts)
        return RowSet(schema, columns)


def read_container(data: Buffer) -> ContainerReader:
    return ContainerReader(data)


def container_stats(rowset: RowSet) -> Tuple[Tuple[Tuple[str, object], ...], Tuple[Tuple[str, object], ...]]:
    """Per-column (min, max) pairs for container metadata, NULLs ignored."""
    bounds = [(col.name, minmax(rowset.column(col.name))) for col in rowset.schema.columns]
    return (
        tuple((name, lo) for name, (lo, _) in bounds),
        tuple((name, hi) for name, (_, hi) in bounds),
    )
