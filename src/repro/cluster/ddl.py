"""The DDL and SQL front door of an Eon cluster (sections 2.1, 4.5 and 6.3).

Each statement is one transaction through ``cluster.commit``; SELECTs go to
``cluster.query_statement`` and loads to ``repro.load``.  The functions
hold an ``EonCluster`` by reference, as ``query_path`` does, and
``EonCluster`` binds the public ones under the same names.  The rules both
flavors enforce are written once here, over catalog states, and
``EnterpriseCluster`` calls them and adds its buddy projections itself:
how a table, a projection and ``<table>_super`` are built, and the two
refusals, :func:`check_not_last` and :func:`has_data`.
"""

from __future__ import annotations

from typing import Iterable, Optional, Sequence, Tuple

from repro.catalog.mvcc import (
    op_add_column,
    op_create_live_agg,
    op_create_projection,
    op_create_table,
    op_create_user,
    op_drop_projection,
    op_drop_table,
)
from repro.catalog.objects import (
    AggregateSpec,
    LiveAggregateProjection,
    Projection,
    Segmentation,
    Table,
    User,
)
from repro.common.types import ColumnType, SchemaColumn, TableSchema
from repro.errors import CatalogError
from repro.load.copy import copy_into, write_rows
from repro.load.dml import delete_from, update_table
from repro.sql import ast
from repro.sql.parser import parse
from repro.storage.container import RowSet


# -- the rules both flavors enforce ----------------------------------------------


def new_table(
    name: str, columns: Sequence[Tuple[str, ColumnType]], partition_by: Optional[str],
    flattened: Sequence,
) -> Table:
    schema = TableSchema([SchemaColumn(n, t) for n, t in columns])
    return Table(name=name, schema=schema, partition_by=partition_by, flattened=tuple(flattened))


def new_projection(
    name: str, table: str, columns: Sequence[str], sort_order: Sequence[str],
    segmentation: Segmentation,
) -> Projection:
    return Projection(
        name=name, anchor_table=table, columns=tuple(columns), sort_order=tuple(sort_order),
        segmentation=segmentation,
    )


def super_projection(table: Table) -> Projection:
    """``<table>_super``: every column, sorted and segmented by the first."""
    names = table.schema.names
    return new_projection(
        f"{table.name}_super", table.name, names, names[:1], Segmentation.by_hash(names[0])
    )


def check_not_last(state, names: Sequence[str]) -> None:
    """Refuse to drop a table's last (non-buddy) projection: a table must
    stay readable.  An unknown name raises :class:`CatalogError` too."""
    remaining = {}
    for name in names:
        table = state.projection(name).anchor_table
        if table not in remaining:
            remaining[table] = len([p for p in state.projections_of(table) if not p.is_buddy])
        remaining[table] -= 1
        if remaining[table] < 1:
            raise CatalogError(
                f"cannot drop {name!r}: it is the last projection of table {table!r}"
            )


def has_data(states: Iterable, table: str) -> bool:
    """True when any of the catalog ``states`` holds a container of one of
    ``table``'s projections."""
    return any(
        state.containers_of(projection.name)
        for state in states
        for projection in state.projections_of(table)
    )


# -- Eon's DDL -------------------------------------------------------------------


def create_table(
    cluster,
    name: str,
    columns: Sequence[Tuple[str, ColumnType]],
    partition_by: Optional[str] = None,
    create_super: bool = True,
    flattened: Sequence = (),
) -> int:
    table = new_table(name, columns, partition_by, flattened)
    txn = cluster.begin()
    txn.add_op(op_create_table(table))
    if create_super:
        txn.add_op(op_create_projection(super_projection(table)))
    return cluster.commit(txn)


def _table_has_data(cluster, table: str) -> bool:
    # Storage metadata is sharded: a single node's catalog only covers its
    # subscribed shards, so consult every up node.
    return has_data((node.catalog.state for node in cluster.up_nodes()), table)


def create_projection(
    cluster,
    name: str,
    table: str,
    columns: Sequence[str],
    sort_order: Sequence[str],
    segmentation: Segmentation,
    refresh: bool = True,
) -> int:
    """Create a projection; if the table already has data and ``refresh``
    is set, populate the new projection from an existing one (Vertica's
    projection refresh)."""
    needs_refresh = _table_has_data(cluster, table)
    if needs_refresh and not refresh:
        raise CatalogError(
            f"cannot add projection to non-empty table {table!r} without refresh"
        )
    projection = new_projection(name, table, columns, sort_order, segmentation)
    # Snapshot the table contents *before* the new (empty) projection
    # exists, so the refresh scan reads through an existing projection.
    refresh_rows = _table_snapshot_rows(cluster, table, columns) if needs_refresh else None
    # One transaction for create + refresh: the projection and its
    # containers become visible together, so no catalog version ever shows
    # an *empty* projection of a non-empty table (which the planner could
    # pick and silently return no rows from).  Container files upload
    # before the commit under this instance's prefix, so a failed commit
    # leaks only reaper-recoverable files.
    txn = cluster.begin()
    txn.add_op(op_create_projection(projection))
    if refresh_rows is not None:
        table_obj = cluster.any_up_node().catalog.state.table(table)
        write_rows(cluster, table_obj, refresh_rows, txn, targets=[projection])
    return cluster.commit(txn)


def _table_snapshot_rows(cluster, table_name: str, columns: Sequence[str]) -> RowSet:
    result = cluster.query(f"select {', '.join(columns)} from {table_name}")
    table = cluster.any_up_node().catalog.state.table(table_name)
    # Re-type to the table schema (query output schema is inferred).
    schema = table.schema.subset(list(columns))
    return RowSet(schema, dict(result.rows.columns))


def drop_projections(cluster, names: Sequence[str]) -> int:
    """Drop projections in one transaction (the designer drops every
    superseded ``_dbd`` version atomically once replacements exist).
    Refuses to drop a table's last projection.  Refcount-zero container
    and delete-vector files are reaped from what the commit reports it
    removed."""
    check_not_last(cluster.any_up_node().catalog.state, names)
    txn = cluster.begin()
    for name in names:
        txn.add_op(op_drop_projection(name))
    return cluster.commit(txn)


def drop_projection(cluster, name: str) -> int:
    return cluster.drop_projections([name])


def create_live_aggregate(
    cluster,
    name: str,
    table: str,
    group_by: Sequence[str],
    aggregates: Sequence[Tuple[str, Optional[str], str]],  # (func, arg, out)
    segmentation: Optional[Segmentation] = None,
) -> int:
    if _table_has_data(cluster, table):
        raise CatalogError(f"cannot add live aggregate to non-empty table {table!r}")
    lap = LiveAggregateProjection(
        name=name,
        anchor_table=table,
        group_by=tuple(group_by),
        aggregates=tuple(AggregateSpec(func, arg, out) for func, arg, out in aggregates),
        segmentation=segmentation or Segmentation.by_hash(group_by[0]),
    )
    txn = cluster.begin()
    txn.add_op(op_create_live_agg(lap))
    return cluster.commit(txn)


def create_user(cluster, name: str, is_superuser: bool = False) -> int:
    txn = cluster.begin()
    txn.add_op(op_create_user(User(name, is_superuser)))
    return cluster.commit(txn)


def add_column(cluster, table: str, column: str, ctype: ColumnType) -> int:
    """ADD COLUMN under OCC (section 6.3): one commit."""
    txn = cluster.begin()
    txn.add_op(op_add_column(table, SchemaColumn(column, ctype)))
    return cluster.commit(txn)


# -- the SQL front door ----------------------------------------------------------


def execute(cluster, sql: str, **session_options):
    """Run one or more SQL statements; returns the last result."""
    result = None
    for statement in parse(sql):
        if isinstance(statement, ast.Select):
            result = cluster.query_statement(statement, **session_options)
        elif isinstance(statement, ast.CreateTable):
            result = cluster.create_table(
                statement.name,
                [(c.name, ColumnType.from_sql(c.type_name)) for c in statement.columns],
                partition_by=statement.partition_by,
            )
        elif isinstance(statement, ast.CreateProjection):
            seg = (
                Segmentation.by_hash(*statement.segmented_by)
                if statement.segmented_by
                else Segmentation.replicated()
            )
            state = cluster.any_up_node().catalog.state
            columns = statement.columns or list(state.table(statement.table).schema.names)
            result = cluster.create_projection(
                statement.name, statement.table, columns, statement.order_by or [columns[0]], seg
            )
        elif isinstance(statement, ast.Insert):
            schema = cluster.any_up_node().catalog.state.table(statement.table).schema
            result = copy_into(cluster, statement.table, RowSet.from_rows(schema, statement.rows))
        elif isinstance(statement, ast.Delete):
            result = delete_from(cluster, statement.table, statement.where)
        elif isinstance(statement, ast.Update):
            result = update_table(cluster, statement.table, statement.assignments, statement.where)
        elif isinstance(statement, ast.AddColumn):
            result = cluster.add_column(
                statement.table,
                statement.column.name,
                ColumnType.from_sql(statement.column.type_name),
            )
        elif isinstance(statement, ast.DropTable):
            txn = cluster.begin()
            txn.add_op(op_drop_table(statement.name))
            result = cluster.commit(txn)
        else:
            raise CatalogError(f"unsupported statement {statement!r}")
    return result
