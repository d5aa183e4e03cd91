"""RowSet semantics and the container byte-image codec."""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.common.types import ColumnType, TableSchema
from repro.errors import CorruptBlock
from repro.storage.container import (
    RowSet,
    container_stats,
    read_container,
    write_container,
)

SCHEMA = TableSchema.of(
    ("k", ColumnType.INT),
    ("s", ColumnType.VARCHAR),
    ("v", ColumnType.FLOAT),
)


def make_rows(n=10):
    return RowSet.from_rows(SCHEMA, [(i, f"s{i % 3}", i * 0.5) for i in range(n)])


class TestRowSet:
    def test_from_rows_to_rows(self):
        rs = make_rows(4)
        assert rs.num_rows == 4
        assert rs.to_pylist()[2] == (2, "s2", 1.0)

    def test_ragged_columns_rejected(self):
        with pytest.raises(ValueError):
            RowSet(SCHEMA, {
                "k": np.array([1]), "s": np.array(["a", "b"], dtype=object),
                "v": np.array([0.5]),
            })

    def test_schema_column_mismatch_rejected(self):
        with pytest.raises(ValueError):
            RowSet(SCHEMA, {"k": np.array([1])})

    def test_select_subset(self):
        rs = make_rows(3).select(["v", "k"])
        assert rs.schema.names == ["v", "k"]
        assert rs.to_pylist()[0] == (0.0, 0)

    def test_filter_mask(self):
        rs = make_rows(6)
        out = rs.filter(rs.column("k") % 2 == 0)
        assert list(out.column("k")) == [0, 2, 4]

    def test_take_and_slice(self):
        rs = make_rows(5)
        assert list(rs.take(np.array([4, 0])).column("k")) == [4, 0]
        assert list(rs.slice(1, 3).column("k")) == [1, 2]

    def test_concat(self):
        merged = RowSet.concat([make_rows(2), make_rows(3)])
        assert merged.num_rows == 5

    def test_concat_empty_list_rejected(self):
        with pytest.raises(ValueError):
            RowSet.concat([])

    def test_sort_by_multi_key(self):
        rs = RowSet.from_rows(SCHEMA, [(1, "b", 0.0), (2, "a", 0.0), (3, "a", 1.0)])
        out = rs.sort_by(["s", "v"])
        assert list(out.column("k")) == [2, 3, 1]

    def test_sort_stability(self):
        rs = RowSet.from_rows(SCHEMA, [(i, "same", float(i % 2)) for i in range(6)])
        out = rs.sort_by(["s"])
        assert list(out.column("k")) == [0, 1, 2, 3, 4, 5]

    def test_rename(self):
        rs = make_rows(1).rename({"k": "key"})
        assert rs.schema.names == ["key", "s", "v"]

    def test_equality(self):
        assert make_rows(3) == make_rows(3)
        assert make_rows(3) != make_rows(4)

    def test_empty(self):
        rs = RowSet.empty(SCHEMA)
        assert rs.num_rows == 0
        assert rs.schema.names == ["k", "s", "v"]


class TestContainerCodec:
    def test_roundtrip_all_columns(self):
        rs = make_rows(100)
        back = read_container(write_container(rs)[0]).read_rowset()
        assert back == rs

    def test_partial_column_read(self):
        rs = make_rows(50)
        reader = read_container(write_container(rs)[0])
        partial = reader.read_rowset(["v"])
        assert partial.schema.names == ["v"]
        assert list(partial.column("v")) == list(rs.column("v"))

    def test_column_order_preserved(self):
        reader = read_container(write_container(make_rows(5))[0])
        assert reader.column_names == ["k", "s", "v"]

    def test_row_count_in_footer(self):
        reader = read_container(write_container(make_rows(7))[0])
        assert reader.row_count == 7

    def test_schema_reconstruction(self):
        reader = read_container(write_container(make_rows(2))[0])
        schema = reader.schema()
        assert schema.column("v").ctype is ColumnType.FLOAT

    def test_projected_read_schema(self):
        reader = read_container(write_container(make_rows(5))[0])
        # A projected read keeps the requested order, not the stored one.
        assert reader.read_rowset(["v", "k"]).schema.names == ["v", "k"]
        with pytest.raises(KeyError):
            reader.read_rowset(["k", "nope"])

    def test_reads_any_bytes_like_image(self):
        # The depot hands over bytes; a reader over a view of a larger
        # buffer (non-zero offset) must decode the same rows in place.
        rs = make_rows(3000)
        image = write_container(rs, block_rows=512)[0]
        padded = b"\x00" * 3 + image + b"\xff" * 5
        for data in (image, bytearray(image), memoryview(padded)[3 : 3 + len(image)]):
            reader = read_container(data)
            assert reader.read_rowset() == rs
            assert reader.read_rowset_blocks(["s"], [1, 4]).column("s").tolist() == (
                rs.column("s")[512:1024].tolist() + rs.column("s")[2048:2560].tolist()
            )

    def test_bad_image_rejected(self):
        with pytest.raises(CorruptBlock):
            read_container(b"garbage data that is long enough....")

    def test_stats(self):
        rs = RowSet.from_rows(SCHEMA, [(5, "b", 1.0), (1, None, -2.0)])
        mins, maxs = container_stats(rs)
        assert dict(mins) == {"k": 1, "s": "b", "v": -2.0}
        assert dict(maxs) == {"k": 5, "s": "b", "v": 1.0}

    def test_stats_empty(self):
        mins, maxs = container_stats(RowSet.empty(SCHEMA))
        assert dict(mins)["k"] is None

    @given(
        st.lists(
            st.tuples(
                st.integers(min_value=-(2**31), max_value=2**31),
                st.one_of(st.none(), st.text(max_size=10)),
                st.floats(allow_nan=False, allow_infinity=False, width=32),
            ),
            max_size=60,
        )
    )
    @settings(max_examples=40)
    def test_property_roundtrip(self, rows):
        rs = RowSet.from_rows(SCHEMA, rows)
        back = read_container(write_container(rs)[0]).read_rowset()
        assert back == rs
