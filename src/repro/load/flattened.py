"""Flattened tables (section 2.1): load-time denormalisation + refresh.

"Vertica supports a mechanism called Flattened Tables that performs
arbitrary denormalization using joins at load time while also providing a
refresh mechanism for updating the denormalized table columns when the
joined dimension table changes."
"""

from __future__ import annotations

from typing import Dict, List

import numpy as np

from repro.catalog.objects import Table
from repro.cluster.transactions import Transaction
from repro.errors import CatalogError
from repro.storage.container import RowSet


def apply_flattening(cluster, table: Table, rows: RowSet) -> RowSet:
    """Fill the table's flattened columns by joining against their
    dimension tables; ``rows`` supplies only the base columns."""
    columns: Dict[str, np.ndarray] = {
        name: rows.column(name) for name in rows.schema.names
    }
    for spec in table.flattened:
        lookup = _dimension_lookup(cluster, spec)
        fact_keys = rows.column(spec.fact_key)
        ctype = table.schema.column(spec.output).ctype
        values = [lookup.get(_scalar(k)) for k in fact_keys]
        columns[spec.output] = ctype.coerce(values)
    return RowSet(table.schema, {c.name: columns[c.name] for c in table.schema.columns})


def refresh_flattened(cluster, table: str) -> int:
    """Re-derive a flattened table's denormalised columns from the current
    dimension contents (section 2.1's refresh mechanism).

    Modelled like an UPDATE at the clock's epoch: the old containers are
    tombstoned and new containers with refreshed values are written, in one
    transaction.  Returns the number of rows refreshed.
    """
    from repro.load.copy import write_rows
    from repro.load.dml import delete_from

    epoch = int(cluster.clock.now)
    table_obj = cluster.any_up_node().catalog.state.table(table)
    if not table_obj.flattened:
        raise CatalogError(f"table {table!r} has no flattened columns")

    txn = Transaction()
    deleted: List[RowSet] = []
    count = delete_from(
        cluster, table, None, epoch, _txn=txn, _collect_deleted=deleted
    )
    if count == 0:
        return 0
    old_rows = RowSet.concat(deleted).select(table_obj.schema.names)
    base = old_rows.select(table_obj.base_columns)
    refreshed = apply_flattening(cluster, table_obj, base)
    write_rows(cluster, table_obj, refreshed, txn)
    cluster.commit(txn, epoch=epoch)
    return count


def _dimension_lookup(cluster, spec) -> Dict[object, object]:
    """key -> value map over the dimension table's current contents."""
    result = cluster.query(
        f"select {spec.source_key}, {spec.source_column} from {spec.source_table}"
    )
    keys = result.rows.column(spec.source_key)
    values = result.rows.column(spec.source_column)
    return {_scalar(k): _scalar(v) for k, v in zip(keys, values)}


def _scalar(value):
    return value.item() if isinstance(value, np.generic) else value
