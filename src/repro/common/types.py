"""Column types and table schemas.

The engine stores column data in numpy arrays; each logical
:class:`ColumnType` maps to a numpy dtype.  Strings use object arrays so we
can represent variable-length values and NULL (``None``) uniformly.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass, field
from typing import List, Optional, Sequence, Tuple

import numpy as np


class ColumnType(enum.Enum):
    """Logical SQL column types supported by the engine."""

    INT = "int"
    FLOAT = "float"
    VARCHAR = "varchar"
    DATE = "date"  # stored as int days since epoch
    BOOL = "bool"

    @property
    def dtype(self) -> np.dtype:
        return _DTYPES[self]

    @property
    def is_numeric(self) -> bool:
        return self in (ColumnType.INT, ColumnType.FLOAT, ColumnType.DATE, ColumnType.BOOL)

    def coerce(self, values: Sequence[object]) -> np.ndarray:
        """Build a column array of this type from Python values."""
        if self is ColumnType.VARCHAR:
            return np.array(list(values), dtype=object)
        return np.asarray(list(values), dtype=self.dtype)

    @classmethod
    def from_sql(cls, name: str) -> "ColumnType":
        key = name.strip().lower()
        if "(" in key:  # e.g. varchar(32)
            key = key[: key.index("(")]
        try:
            return _SQL_NAMES[key]
        except KeyError:
            raise ValueError(f"unsupported SQL type: {name!r}") from None


_DTYPES = {
    ColumnType.INT: np.dtype(np.int64),
    ColumnType.FLOAT: np.dtype(np.float64),
    ColumnType.VARCHAR: np.dtype(object),
    ColumnType.DATE: np.dtype(np.int64),
    ColumnType.BOOL: np.dtype(np.bool_),
}

_SQL_NAMES = {
    "int": ColumnType.INT,
    "integer": ColumnType.INT,
    "bigint": ColumnType.INT,
    "smallint": ColumnType.INT,
    "float": ColumnType.FLOAT,
    "double": ColumnType.FLOAT,
    "real": ColumnType.FLOAT,
    "decimal": ColumnType.FLOAT,
    "numeric": ColumnType.FLOAT,
    "varchar": ColumnType.VARCHAR,
    "char": ColumnType.VARCHAR,
    "text": ColumnType.VARCHAR,
    "date": ColumnType.DATE,
    "boolean": ColumnType.BOOL,
    "bool": ColumnType.BOOL,
}


@dataclass(frozen=True)
class SchemaColumn:
    """One column of a table schema."""

    name: str
    ctype: ColumnType
    nullable: bool = True

    def __post_init__(self) -> None:
        if not self.name:
            raise ValueError("column name must be non-empty")


@dataclass
class TableSchema:
    """Ordered set of named, typed columns."""

    columns: List[SchemaColumn] = field(default_factory=list)

    def __post_init__(self) -> None:
        names = self._names = [c.name for c in self.columns]
        if len(set(names)) != len(names):
            raise ValueError(f"duplicate column names in schema: {names}")

    @classmethod
    def of(cls, *cols: Tuple[str, ColumnType]) -> "TableSchema":
        return cls([SchemaColumn(n, t) for n, t in cols])

    @property
    def names(self) -> List[str]:
        return list(self._names)  # no caller changes ``columns`` once made

    def column(self, name: str) -> SchemaColumn:
        for c in self.columns:
            if c.name == name:
                return c
        raise KeyError(f"no column named {name!r}")

    def index_of(self, name: str) -> int:
        for i, c in enumerate(self.columns):
            if c.name == name:
                return i
        raise KeyError(f"no column named {name!r}")

    def maybe_index_of(self, name: str) -> Optional[int]:
        try:
            return self.index_of(name)
        except KeyError:
            return None

    def subset(self, names: Sequence[str]) -> "TableSchema":
        return TableSchema([self.column(n) for n in names])

    def __len__(self) -> int:
        return len(self.columns)

    def __contains__(self, name: object) -> bool:
        return any(c.name == name for c in self.columns)

    def __iter__(self):
        return iter(self.columns)
