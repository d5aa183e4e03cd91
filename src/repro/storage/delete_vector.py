"""Delete vectors: tombstone storage for deleted tuple positions.

Section 2.3: "Deletes and updates are implemented with a tombstone-like
mechanism called a delete vector that stores the positions of tuples that
have been deleted.  Delete vectors are additional storage objects created
when tuples are deleted and stored using the same format as regular
columns.  An update is modeled as a delete followed by an insert."

A delete vector targets exactly one ROS container and lists deleted row
positions within it.  Its payload is serialised with the regular column
codec (a sorted INT column), as in the paper.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional, Sequence

import numpy as np

from repro.common.oid import StorageId
from repro.common.types import ColumnType
from repro.storage.column import DEFAULT_BLOCK_ROWS, ColumnFile, ColumnReader


@dataclass(frozen=True)
class DeleteVector:
    """Catalog metadata for one delete vector."""

    sid: StorageId
    target_sid: StorageId
    projection: str
    shard_id: Optional[int]
    deleted_count: int
    size_bytes: int
    creation_version: int = 0

    @property
    def location(self) -> str:
        return str(self.sid)


def write_delete_vector(positions: Sequence[int]) -> bytes:
    """Serialise deleted positions (sorted, deduplicated) as a column file."""
    arr = np.unique(np.asarray(list(positions), dtype=np.int64))
    return ColumnFile.write(arr, ColumnType.INT, DEFAULT_BLOCK_ROWS)[0]


def read_delete_vector(data: bytes) -> np.ndarray:
    """Deserialise deleted positions."""
    return ColumnReader(data).read_all()


def combine_positions(parts: Sequence[np.ndarray]) -> np.ndarray:
    """Union several delete vectors' positions into one sorted array."""
    non_empty = [p for p in parts if len(p)]
    if not non_empty:
        return np.array([], dtype=np.int64)
    return np.unique(np.concatenate(non_empty))


def mask_from_positions(positions: np.ndarray, row_count: int) -> np.ndarray:
    """Boolean keep-mask of length ``row_count`` (True = live row)."""
    mask = np.ones(row_count, dtype=bool)
    if len(positions):
        if positions.min() < 0 or positions.max() >= row_count:
            raise IndexError("delete position out of container range")
        mask[positions] = False
    return mask
