"""A writer's layout of a container is the parse of the image it wrote.

``write_container`` returns, beside the image, the ``ContainerLayout`` made
from what the writer already holds (block extents, bounds, the directory);
depots keep it so that no reader of the file parses its footers.  That is
exact only if it is what a reader would parse: the same row count, column
order and extents, and every column's ``ColumnLayout`` — block offsets, row
positions and min/max, to the type and the sign of a zero.
"""

import numpy as np
from hypothesis import given, settings, strategies as st

from repro.common.types import ColumnType, SchemaColumn, TableSchema
from repro.storage.column import ColumnFile, ColumnLayout
from repro.storage.container import RowSet, read_container, write_container

FLOATS = st.one_of(
    st.floats(allow_nan=True, allow_infinity=True),
    st.sampled_from([0.0, -0.0, float("inf"), float("-inf"), float("nan")]),
)
VALUES = {
    ColumnType.INT: st.integers(-(2**63), 2**63 - 1),
    ColumnType.DATE: st.integers(-800_000, 3_000_000),
    ColumnType.BOOL: st.booleans(),
    ColumnType.FLOAT: FLOATS,
    ColumnType.VARCHAR: st.one_of(st.none(), st.text(max_size=6), st.sampled_from(["é", "日本", ""])),
}


@st.composite
def rowsets(draw):
    ctypes = draw(st.lists(st.sampled_from(list(ColumnType)), min_size=1, max_size=6))
    schema = TableSchema([SchemaColumn(f"c{i}", t) for i, t in enumerate(ctypes)])
    n = draw(st.sampled_from([0, 1, 2, 7, 40]))
    columns = {
        column.name: column.ctype.coerce(draw(st.lists(VALUES[column.ctype], min_size=n, max_size=n)))
        for column in schema.columns
    }
    return RowSet(schema, columns)


def same_column(written: ColumnLayout, parsed: ColumnLayout) -> None:
    # ``repr`` tells a bool from an int and -0.0 from 0.0, where ``==`` does not.
    assert written == parsed
    assert repr(written) == repr(parsed)


class TestTheWritersLayoutIsTheParse:
    @settings(max_examples=150, deadline=None)
    @given(rowsets(), st.sampled_from([1, 3, 16, 4096]))
    def test_a_container(self, rows, block_rows):
        image, written = write_container(rows, block_rows=block_rows)
        reader = read_container(image)
        for name in reader.column_order:  # every column opened
            reader.column_reader(name)
        parsed = reader.layout
        assert written.row_count == parsed.row_count == rows.num_rows
        assert written.column_order == parsed.column_order == tuple(rows.schema.names)
        assert written.extents == parsed.extents
        assert written.columns.keys() == parsed.columns.keys() == set(rows.schema.names)
        for name in rows.schema.names:
            same_column(written.columns[name], parsed.columns[name])
        if rows.num_rows > block_rows:
            assert all(len(c.blocks) > 1 for c in written.columns.values())

    @settings(max_examples=60, deadline=None)
    @given(rowsets(), st.sampled_from([1, 2, 4096]))
    def test_a_reader_on_the_writers_layout_reads_what_a_parsing_one_does(self, rows, block_rows):
        image, written = write_container(rows, block_rows=block_rows)
        given_layout = read_container(image, written).read_rowset()
        parsed = read_container(image).read_rowset()
        assert given_layout.schema.names == parsed.schema.names
        for name in parsed.schema.names:
            a, b = given_layout.column(name), parsed.column(name)
            if a.dtype.kind == "f":
                assert np.array_equal(a.view(np.int64), b.view(np.int64))
            else:
                assert a.tolist() == b.tolist()

    def test_a_column_file(self):
        values = np.array([1.5, -0.0, float("nan"), float("inf"), 0.0])
        image, written = ColumnFile.write(values, ColumnType.FLOAT, block_rows=2)
        same_column(written, ColumnLayout.parse(memoryview(image)))
        assert len(written.blocks) == 3
