"""Catalog object model: tables, projections, users.

Projections (section 2.1) are the only physical data structure in Vertica:
sorted, possibly column-subset, possibly denormalised copies of a table.
Each projection is either *segmented* by a hash of some columns —
distributing tuples across shards (Eon) or nodes (Enterprise) — or
*replicated* in full everywhere.  Enterprise additionally derives a "buddy"
projection by rotating the node ring (section 2.2); Eon replaces buddies
with multi-subscriber shards.

Live aggregate projections (section 2.1) maintain pre-computed partial
aggregates keyed by group columns, traded against update restrictions.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass, field, replace
from typing import Dict, List, Optional, Sequence, Tuple

from repro.common.types import ColumnType, SchemaColumn, TableSchema


class SegmentationKind(enum.Enum):
    SEGMENTED = "segmented"
    REPLICATED = "replicated"


@dataclass(frozen=True)
class Segmentation:
    """``SEGMENTED BY HASH(columns)`` or ``UNSEGMENTED`` (replicated)."""

    kind: SegmentationKind
    columns: Tuple[str, ...] = ()

    @classmethod
    def by_hash(cls, *columns: str) -> "Segmentation":
        if not columns:
            raise ValueError("segmentation requires at least one column")
        return cls(SegmentationKind.SEGMENTED, tuple(columns))

    @classmethod
    def replicated(cls) -> "Segmentation":
        return cls(SegmentationKind.REPLICATED)

    @property
    def is_replicated(self) -> bool:
        return self.kind is SegmentationKind.REPLICATED

    def to_json(self) -> dict:
        return {"kind": self.kind.value, "columns": list(self.columns)}

    @classmethod
    def from_json(cls, obj: dict) -> "Segmentation":
        return cls(SegmentationKind(obj["kind"]), tuple(obj["columns"]))


@dataclass(frozen=True)
class Projection:
    """A sorted, distributed physical copy of (a subset of) a table."""

    name: str
    anchor_table: str
    columns: Tuple[str, ...]
    sort_order: Tuple[str, ...]
    segmentation: Segmentation
    is_buddy: bool = False
    buddy_of: Optional[str] = None

    def __post_init__(self) -> None:
        missing = [c for c in self.sort_order if c not in self.columns]
        if missing:
            raise ValueError(f"sort columns {missing} not in projection columns")
        if not self.segmentation.is_replicated:
            missing = [
                c for c in self.segmentation.columns if c not in self.columns
            ]
            if missing:
                raise ValueError(
                    f"segmentation columns {missing} not in projection columns"
                )

    def schema(self, table_schema: TableSchema) -> TableSchema:
        return table_schema.subset(self.columns)

    def to_json(self) -> dict:
        return {
            "name": self.name,
            "anchor_table": self.anchor_table,
            "columns": list(self.columns),
            "sort_order": list(self.sort_order),
            "segmentation": self.segmentation.to_json(),
            "is_buddy": self.is_buddy,
            "buddy_of": self.buddy_of,
        }

    @classmethod
    def from_json(cls, obj: dict) -> "Projection":
        return cls(
            name=obj["name"],
            anchor_table=obj["anchor_table"],
            columns=tuple(obj["columns"]),
            sort_order=tuple(obj["sort_order"]),
            segmentation=Segmentation.from_json(obj["segmentation"]),
            is_buddy=obj.get("is_buddy", False),
            buddy_of=obj.get("buddy_of"),
        )

    def make_buddy(self) -> "Projection":
        """Derive the Enterprise-mode buddy projection (rotated ring)."""
        return replace(
            self, name=self.name + "_b1", is_buddy=True, buddy_of=self.name
        )


@dataclass(frozen=True)
class AggregateSpec:
    """One aggregate column of a live aggregate projection."""

    func: str  # sum | count | min | max
    argument: Optional[str]  # None for count(*)
    output_name: str

    def to_json(self) -> dict:
        return {"func": self.func, "argument": self.argument, "output_name": self.output_name}

    @classmethod
    def from_json(cls, obj: dict) -> "AggregateSpec":
        return cls(obj["func"], obj["argument"], obj["output_name"])


@dataclass(frozen=True)
class LiveAggregateProjection:
    """Pre-computed partial aggregates over an anchor table (section 2.1)."""

    name: str
    anchor_table: str
    group_by: Tuple[str, ...]
    aggregates: Tuple[AggregateSpec, ...]
    segmentation: Segmentation

    def __post_init__(self) -> None:
        if not self.group_by:
            raise ValueError("live aggregate projection needs group-by columns")
        if not self.aggregates:
            raise ValueError("live aggregate projection needs aggregates")

    @property
    def sort_order(self) -> Tuple[str, ...]:
        """Its containers are sorted by the group-by, as a projection's are
        by its sort order: to the write path a LAP is one more stream."""
        return self.group_by

    def output_schema(self, table_schema: TableSchema) -> TableSchema:
        cols: List[SchemaColumn] = [table_schema.column(g) for g in self.group_by]
        for agg in self.aggregates:
            if agg.func == "count":
                cols.append(SchemaColumn(agg.output_name, ColumnType.INT))
            elif agg.func in ("min", "max") and agg.argument is not None:
                cols.append(
                    SchemaColumn(
                        agg.output_name, table_schema.column(agg.argument).ctype
                    )
                )
            else:
                base = (
                    table_schema.column(agg.argument).ctype
                    if agg.argument is not None
                    else ColumnType.INT
                )
                out = ColumnType.FLOAT if base is ColumnType.FLOAT else ColumnType.INT
                cols.append(SchemaColumn(agg.output_name, out))
        return TableSchema(cols)

    def to_json(self) -> dict:
        return {
            "name": self.name,
            "anchor_table": self.anchor_table,
            "group_by": list(self.group_by),
            "aggregates": [a.to_json() for a in self.aggregates],
            "segmentation": self.segmentation.to_json(),
        }

    @classmethod
    def from_json(cls, obj: dict) -> "LiveAggregateProjection":
        return cls(
            name=obj["name"],
            anchor_table=obj["anchor_table"],
            group_by=tuple(obj["group_by"]),
            aggregates=tuple(AggregateSpec.from_json(a) for a in obj["aggregates"]),
            segmentation=Segmentation.from_json(obj["segmentation"]),
        )


@dataclass(frozen=True)
class FlattenedColumn:
    """A denormalised column filled by a join at load time (section 2.1).

    ``output`` in this table is looked up from ``source_table`` by joining
    this table's ``fact_key`` against the source's ``source_key`` and
    taking ``source_column``.  The refresh mechanism re-derives the values
    when the dimension changes.
    """

    output: str
    source_table: str
    source_key: str
    fact_key: str
    source_column: str

    def to_json(self) -> dict:
        return {
            "output": self.output,
            "source_table": self.source_table,
            "source_key": self.source_key,
            "fact_key": self.fact_key,
            "source_column": self.source_column,
        }

    @classmethod
    def from_json(cls, obj: dict) -> "FlattenedColumn":
        return cls(
            obj["output"], obj["source_table"], obj["source_key"],
            obj["fact_key"], obj["source_column"],
        )


@dataclass(frozen=True)
class Table:
    """A logical table: schema plus optional intra-node partition column.

    ``partition_by`` names a column (usually time-derived); containers then
    hold data from a single partition key, enabling file pruning when query
    predicates align with the partition expression (section 2.1).
    ``flattened`` lists columns denormalised from other tables at load
    time (Flattened Tables, section 2.1).
    """

    name: str
    schema: TableSchema
    partition_by: Optional[str] = None
    projections: Tuple[str, ...] = ()
    flattened: Tuple[FlattenedColumn, ...] = ()

    def __post_init__(self) -> None:
        if self.partition_by is not None and self.partition_by not in self.schema:
            raise ValueError(
                f"partition column {self.partition_by!r} not in table schema"
            )
        for spec in self.flattened:
            if spec.output not in self.schema:
                raise ValueError(
                    f"flattened column {spec.output!r} not in table schema"
                )
            if spec.fact_key not in self.schema:
                raise ValueError(
                    f"flattened fact key {spec.fact_key!r} not in table schema"
                )

    @property
    def base_columns(self) -> List[str]:
        """Columns a COPY must supply (everything except flattened ones)."""
        derived = {spec.output for spec in self.flattened}
        return [c.name for c in self.schema.columns if c.name not in derived]

    def with_projection(self, projection_name: str) -> "Table":
        if projection_name in self.projections:
            return self
        return replace(self, projections=self.projections + (projection_name,))

    def without_projection(self, projection_name: str) -> "Table":
        return replace(
            self,
            projections=tuple(p for p in self.projections if p != projection_name),
        )

    def with_column(self, column: SchemaColumn) -> "Table":
        return replace(
            self, schema=TableSchema(self.schema.columns + [column])
        )

    def to_json(self) -> dict:
        return {
            "name": self.name,
            "columns": [
                {"name": c.name, "type": c.ctype.value, "nullable": c.nullable}
                for c in self.schema.columns
            ],
            "partition_by": self.partition_by,
            "projections": list(self.projections),
            "flattened": [f.to_json() for f in self.flattened],
        }

    @classmethod
    def from_json(cls, obj: dict) -> "Table":
        schema = TableSchema(
            [
                SchemaColumn(c["name"], ColumnType(c["type"]), c.get("nullable", True))
                for c in obj["columns"]
            ]
        )
        return cls(
            name=obj["name"],
            schema=schema,
            partition_by=obj.get("partition_by"),
            projections=tuple(obj.get("projections", ())),
            flattened=tuple(
                FlattenedColumn.from_json(f) for f in obj.get("flattened", ())
            ),
        )


@dataclass(frozen=True)
class User:
    """A database user — a representative global (non-storage) object."""

    name: str
    is_superuser: bool = False

    def to_json(self) -> dict:
        return {"name": self.name, "is_superuser": self.is_superuser}

    @classmethod
    def from_json(cls, obj: dict) -> "User":
        return cls(obj["name"], obj.get("is_superuser", False))
