"""Property wall for ``SimulatedS3.select_scan`` (S3 compute pushdown).

Hypothesis drives the server-side scan across random tables (with NULL
runs in both varchar and float columns), random predicates and random
projections.  The oracle is the *client*: read the raw container bytes
back, evaluate the same predicate over the full rowset, filter, project —
the select result must be exactly equal, and its accounting must be exact
to the byte:

* ``bytes_scanned`` == ``ContainerReader.stored_bytes`` over the
  projected columns, never the full container;
* ``bytes_returned`` == ``rowset_bytes(rows)``;
* ``sim_seconds`` / ``dollars`` == the latency/cost model applied to
  exactly those two numbers;
* ``rows_examined`` / ``blocks_pruned`` == what the client's own
  block-pruning read of the same container would book (the parity
  counters the depot differential relies on).
"""

from typing import List, Tuple

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro import ColumnType, RowSet, TableSchema
from repro.engine.expressions import (
    BinaryOp,
    InList,
    IsNull,
    Literal,
    col,
    extract_column_bounds,
)
from repro.errors import StorageError
from repro.shared_storage.s3 import SimulatedS3
from repro.storage.container import read_container, rowset_bytes, write_container

pytestmark = pytest.mark.differential

SCHEMA = TableSchema.of(
    ("k", ColumnType.INT), ("g", ColumnType.VARCHAR), ("v", ColumnType.FLOAT)
)


@st.composite
def tables(draw) -> List[tuple]:
    n = draw(st.integers(min_value=0, max_value=120))
    null_run = draw(st.integers(min_value=1, max_value=7))
    rows = []
    for i in range(n):
        k = draw(st.integers(min_value=-50, max_value=50))
        g = None if (i // null_run) % 3 == 0 else f"g{k % 4}"
        v = draw(
            st.one_of(
                st.just(float("nan")),
                st.floats(
                    min_value=-100, max_value=100,
                    allow_nan=False, allow_infinity=False,
                ),
            )
        )
        rows.append((k, g, v))
    return rows


@st.composite
def predicates(draw):
    kind = draw(st.sampled_from(
        ["lt", "ge", "between", "inlist", "isnull", "and", "none"]
    ))
    if kind == "none":
        return None
    if kind == "lt":
        return BinaryOp("<", col("k"), Literal(draw(st.integers(-60, 60))))
    if kind == "ge":
        return BinaryOp(">=", col("v"), Literal(draw(st.integers(-110, 110))))
    if kind == "between":
        lo = draw(st.integers(-60, 60))
        hi = draw(st.integers(-60, 60))
        return BinaryOp(
            "and",
            BinaryOp(">=", col("k"), Literal(min(lo, hi))),
            BinaryOp("<=", col("k"), Literal(max(lo, hi))),
        )
    if kind == "inlist":
        values = draw(st.lists(st.integers(-50, 50), min_size=1, max_size=5))
        return InList(col("k"), tuple(values))
    if kind == "isnull":
        return IsNull(col("g"), negated=draw(st.booleans()))
    return BinaryOp(
        "and",
        BinaryOp("<", col("k"), Literal(draw(st.integers(-60, 60)))),
        BinaryOp(">", col("v"), Literal(draw(st.integers(-110, 110)))),
    )


projections = st.sampled_from([
    ["k", "g", "v"], ["k"], ["v", "k"], ["g"], None,
])

block_row_counts = st.sampled_from([4, 16, 4096])


def client_oracle(data, projection, predicate):
    """What the client would compute from the raw container bytes."""
    reader = read_container(data)
    projection = projection if projection is not None else list(reader.column_order)
    full = reader.read_rowset(projection)
    if predicate is not None:
        full = full.filter(np.asarray(predicate.evaluate(full), dtype=bool))
    return full.select(projection), projection


def client_parity_counts(data, touched, predicate) -> Tuple[int, int]:
    """(rows_examined, blocks_pruned) by the depot path's pruning logic."""
    reader = read_container(data)
    bounds = extract_column_bounds(predicate) if predicate is not None else {}
    if bounds:
        indices = reader.matching_blocks(bounds)
        total = reader.block_count()
        if len(indices) < total:
            rows = reader.read_rowset_blocks(touched, list(indices))
            return rows.num_rows, total - len(indices)
    return reader.read_rowset(touched).num_rows, 0


def canon_rows(rows: RowSet) -> List[tuple]:
    out = []
    for row in rows.to_pylist():
        out.append(tuple(
            "nan" if isinstance(v, float) and np.isnan(v) else v for v in row
        ))
    return out


class TestSelectScanProperties:
    @given(
        rows=tables(),
        predicate=predicates(),
        projection=projections,
        block_rows=block_row_counts,
    )
    @settings(max_examples=120, deadline=None)
    def test_select_equals_client_side_filter(self, rows, predicate, projection, block_rows):
        data = write_container(
            RowSet.from_rows(SCHEMA, rows), block_rows=block_rows
        )[0]
        # The select contract mirrors the engine's: predicate columns are
        # always listed in ``columns`` (ScanNode.columns includes them).
        if projection is not None and predicate is not None:
            projection = list(dict.fromkeys(
                projection + sorted(predicate.columns_used())
            ))
        s3 = SimulatedS3()
        s3.write("obj", data)
        before = (
            s3.metrics.get_requests, s3.metrics.bytes_read,
            s3.metrics.sim_seconds, s3.metrics.dollars,
        )
        select = s3.select_scan("obj", columns=projection, predicate=predicate)
        expected_rows, touched = client_oracle(data, projection, predicate)

        # Rows: exactly the client-side filter of the raw bytes.
        assert canon_rows(select.rows) == canon_rows(expected_rows)
        assert select.rows.schema.names == expected_rows.schema.names

        # Accounting: exact, from the reader's own directory.
        reader = read_container(data)
        assert select.bytes_scanned == reader.stored_bytes(touched)
        assert select.bytes_returned == rowset_bytes(expected_rows)
        assert select.sim_seconds == pytest.approx(
            s3.latency.select_seconds(select.bytes_scanned, select.bytes_returned)
        )
        assert select.dollars == pytest.approx(
            s3.cost.select_cost(select.bytes_scanned, select.bytes_returned)
        )

        # Parity counters match the client's block-pruning read.
        examined, pruned = client_parity_counts(data, touched, predicate)
        assert select.rows_examined == examined
        assert select.blocks_pruned == pruned

        # Ledger separation: SELECT rides its own op class; the GET ledger
        # (requests + bytes) is untouched, while aggregate time/dollar
        # totals move by exactly the select's charge.
        assert s3.op_stats["SELECT"].requests == 1
        assert s3.op_stats["SELECT"].bytes == select.bytes_scanned
        assert s3.metrics.get_requests == before[0]
        assert s3.metrics.bytes_read == before[1]
        assert s3.metrics.sim_seconds - before[2] == pytest.approx(select.sim_seconds)
        assert s3.metrics.dollars - before[3] == pytest.approx(select.dollars)

    @given(rows=tables())
    @settings(max_examples=20, deadline=None)
    def test_projection_defaults_to_container_order(self, rows):
        data = write_container(RowSet.from_rows(SCHEMA, rows))[0]
        s3 = SimulatedS3()
        s3.write("obj", data)
        select = s3.select_scan("obj")
        assert select.rows.schema.names == list(read_container(data).column_order)
        assert select.bytes_scanned == read_container(data).stored_bytes(
            ["k", "g", "v"]
        )

    def test_errors(self):
        data = write_container(RowSet.from_rows(SCHEMA, [(1, "a", 2.0)]))[0]
        s3 = SimulatedS3()
        s3.write("obj", data)
        from repro.errors import ObjectNotFound

        with pytest.raises(ObjectNotFound):
            s3.select_scan("missing")
        with pytest.raises(StorageError):
            s3.select_scan("obj", columns=["nope"])
