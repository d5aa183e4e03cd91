"""Hash-space primitives for segmentation and sharding.

The paper (section 3.1, Figure 3) divides a 32-bit hash space into segment
shards, each owning a contiguous region.  Every tuple is hashed on its
projection's segmentation columns; the resulting 32-bit value determines the
shard (Eon mode) or node (Enterprise mode) responsible for the tuple.

We use FNV-1a for scalar values because it is simple, fast in pure Python,
deterministic across processes (unlike Python's builtin ``hash`` with string
randomisation), and spreads realistic key distributions evenly — the same
properties Vertica needs from its segmentation hash.
"""

from __future__ import annotations

from typing import Iterable, Sequence

import numpy as np

#: Size of the segmentation hash space: values lie in [0, HASH_SPACE).
HASH_SPACE = 1 << 32

_FNV_OFFSET = 0x811C9DC5
_FNV_PRIME = 0x01000193
_MASK32 = 0xFFFFFFFF


def hash_bytes(data: bytes) -> int:
    """FNV-1a over ``data``, returning a value in [0, 2**32)."""
    h = _FNV_OFFSET
    for byte in data:
        h ^= byte
        h = (h * _FNV_PRIME) & _MASK32
    return h


def hash_int(value: int) -> int:
    """Hash an integer into the 32-bit space.

    Uses the value's two's-complement little-endian byte representation so
    that numerically equal numpy and Python ints hash identically.
    """
    v = int(value) & 0xFFFFFFFFFFFFFFFF
    return hash_bytes(v.to_bytes(8, "little"))


def hash_value(value: object) -> int:
    """Hash a single scalar (int, float, str, bytes, None, bool)."""
    if value is None:
        return 0
    if isinstance(value, (bool, np.bool_)):
        return hash_int(int(value))
    if isinstance(value, (int, np.integer)):
        return hash_int(int(value))
    if isinstance(value, (float, np.floating)):
        # Hash floats via their IEEE bits; integral floats hash like ints so
        # joins between int and float key columns co-locate.
        f = float(value)
        if f.is_integer():
            return hash_int(int(f))
        return hash_bytes(np.float64(f).tobytes())
    if isinstance(value, str):
        return hash_bytes(value.encode("utf-8"))
    if isinstance(value, (bytes, bytearray)):
        return hash_bytes(bytes(value))
    raise TypeError(f"unhashable segmentation value type: {type(value)!r}")


def hash_column(values: Iterable[object]) -> np.ndarray:
    """Vectorised helper: hash every element of a column.

    Returns a uint64 array of 32-bit hash values.  Integer arrays take a
    fast vectorised path; everything else falls back to per-value hashing.
    """
    arr = np.asarray(values)
    if arr.dtype.kind in ("i", "u"):
        return _hash_int_array(arr)
    return np.fromiter(
        (hash_value(v) for v in arr), dtype=np.uint64, count=len(arr)
    )


def _hash_int_array(arr: np.ndarray) -> np.ndarray:
    """Vectorised FNV-1a over the 8-byte little-endian form of each int."""
    v = arr.astype(np.uint64)
    h = np.full(len(v), _FNV_OFFSET, dtype=np.uint64)
    prime = np.uint64(_FNV_PRIME)
    mask = np.uint64(_MASK32)
    for shift in range(0, 64, 8):
        byte = (v >> np.uint64(shift)) & np.uint64(0xFF)
        h = ((h ^ byte) * prime) & mask
    return h


def hash_columns(columns: Sequence[np.ndarray]) -> np.ndarray:
    """Hash a multi-column key for every row, vectorised.

    Per-column hashes (:func:`hash_value` of each cell) are mixed with
    FNV-1a.
    """
    if not columns:
        raise ValueError("hash_columns requires at least one column")
    n = len(columns[0])
    h = np.full(n, _FNV_OFFSET, dtype=np.uint64)
    prime = np.uint64(_FNV_PRIME)
    mask = np.uint64(_MASK32)
    for col in columns:
        if len(col) != n:
            raise ValueError("segmentation columns differ in length")
        h = ((h ^ hash_column(col)) * prime) & mask
    return h
