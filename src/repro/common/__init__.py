"""Shared low-level utilities: hashing, identifiers, types, simulated time."""

from repro.common.clock import SimClock
from repro.common.hashing import HASH_SPACE, hash_int, hash_value
from repro.common.oid import OidGenerator, StorageId
from repro.common.types import ColumnType, SchemaColumn, TableSchema

__all__ = [
    "SimClock",
    "HASH_SPACE",
    "hash_int",
    "hash_value",
    "OidGenerator",
    "StorageId",
    "ColumnType",
    "SchemaColumn",
    "TableSchema",
]
