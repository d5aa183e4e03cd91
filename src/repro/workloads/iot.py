"""The Figure-11b workload: many concurrent small COPY statements.

"Each bulk load or COPY statement loads 50MB of input data.  Many tables
being loaded concurrently with a small batch size produces this type of
load; the scenario is typical of an internet of things workload."

Batches are generated deterministically per (stream, sequence) so
concurrent simulated loaders never collide on content.
"""

from __future__ import annotations

import numpy as np

from repro.catalog.objects import Segmentation
from repro.common.types import ColumnType, TableSchema
from repro.storage.container import RowSet

METRICS_SCHEMA = TableSchema.of(
    ("m_sensor", ColumnType.INT),
    ("m_ts", ColumnType.INT),
    ("m_value", ColumnType.FLOAT),
    ("m_flags", ColumnType.INT),
)


def setup_iot_schema(cluster, streams: int = 1) -> None:
    """One metrics table per stream (IoT loads hit many tables)."""
    for s in range(streams):
        table = _table_name(s)
        cluster.create_table(
            table, [(c.name, c.ctype) for c in METRICS_SCHEMA.columns],
            create_super=False,
        )
        cluster.create_projection(
            f"{table}_p", table, METRICS_SCHEMA.names, ["m_ts"],
            Segmentation.by_hash("m_sensor"),
        )


def _table_name(stream: int) -> str:
    return f"metrics_{stream}"


def iot_batch(stream: int, sequence: int, rows: int = 2000) -> tuple:
    """Generate one COPY batch; returns (table_name, RowSet)."""
    rng = np.random.default_rng(hash((stream, sequence)) & 0xFFFFFFFF)
    base_ts = sequence * rows
    rowset = RowSet(
        METRICS_SCHEMA,
        {
            "m_sensor": rng.integers(0, 10_000, rows).astype(np.int64),
            "m_ts": (base_ts + np.arange(rows)).astype(np.int64),
            "m_value": rng.random(rows),
            "m_flags": rng.integers(0, 4, rows).astype(np.int64),
        },
    )
    return _table_name(stream), rowset
