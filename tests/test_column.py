"""Column files: footer position index, block pruning, random access."""

import bisect

import numpy as np
import pytest

from repro.common.types import ColumnType
from repro.errors import CorruptBlock
from repro.storage.column import ColumnFile, ColumnReader


def matching(mask) -> list:
    """Indices of the blocks a ``block_mask`` keeps."""
    return [i for i, hit in enumerate(mask) if hit]


@pytest.fixture
def int_reader() -> ColumnReader:
    data = ColumnFile.write(np.arange(10_000), ColumnType.INT, block_rows=1_000)
    return ColumnReader(data)


class TestColumnFile:
    def test_read_all_roundtrip(self, int_reader):
        assert list(int_reader.read_all()) == list(range(10_000))

    def test_block_count_and_rows(self, int_reader):
        assert int_reader.row_count == 10_000
        assert len(int_reader.blocks) == 10
        assert all(b.row_count == 1_000 for b in int_reader.blocks)

    def test_block_min_max(self, int_reader):
        assert int_reader.blocks[3].min_value == 3_000
        assert int_reader.blocks[3].max_value == 3_999
        assert int_reader.min_value == 0
        assert int_reader.max_value == 9_999

    def test_read_single_block(self, int_reader):
        assert list(int_reader.read_block(2)) == list(range(2_000, 3_000))

    def test_read_rows_random_access(self, int_reader):
        """Any row is one block away: the position index says which."""
        starts = [b.row_start for b in int_reader.blocks]
        for position in [9_999, 0, 5_000, 5_001, 123]:
            index = bisect.bisect_right(starts, position) - 1
            block = int_reader.read_block(index)
            assert block[position - starts[index]] == position

    def test_read_rows_out_of_range(self, int_reader):
        with pytest.raises(IndexError):
            int_reader.read_block(10)
        with pytest.raises(IndexError):
            int_reader.read_block(-11)

    def test_blocks_possibly_matching_point(self, int_reader):
        assert matching(int_reader.block_mask(4_500, 4_500)) == [4]

    def test_blocks_possibly_matching_range(self, int_reader):
        assert matching(int_reader.block_mask(900, 2_100)) == [0, 1, 2]

    def test_blocks_possibly_matching_unbounded(self, int_reader):
        assert matching(int_reader.block_mask(None, 999)) == [0]
        assert matching(int_reader.block_mask(9_000, None)) == [9]
        assert int_reader.block_mask() == [True] * 10

    def test_blocks_possibly_matching_misses(self, int_reader):
        assert matching(int_reader.block_mask(20_000, 30_000)) == []

    def test_string_column(self):
        values = np.array(["b", "a", None, "zz"], dtype=object)
        reader = ColumnReader(ColumnFile.write(values, ColumnType.VARCHAR))
        assert list(reader.read_all()) == list(values)
        # NULLs are excluded from min/max.
        assert reader.blocks[0].min_value == "a"
        assert reader.blocks[0].max_value == "zz"

    def test_all_null_block_cannot_be_pruned(self):
        values = np.array([None, None], dtype=object)
        reader = ColumnReader(ColumnFile.write(values, ColumnType.VARCHAR))
        assert reader.block_mask("a", "b") == [True]

    def test_block_mask_lines_up_with_block_indices(self, int_reader):
        mask = int_reader.block_mask(900, 2_100)
        assert mask == [True, True, True] + [False] * 7
        assert len(mask) == len(int_reader.blocks)

    def test_reads_a_view_of_a_larger_image(self):
        values = np.arange(5_000) * 7 - 3
        data = ColumnFile.write(values, ColumnType.INT, block_rows=1_000)
        image = b"\x80\x80" + data + b"\x80"
        reader = ColumnReader(memoryview(image)[2 : 2 + len(data)])
        assert reader.read_all().tolist() == values.tolist()
        assert reader.read_block(3).tolist() == values[3_000:4_000].tolist()

    def test_empty_column(self):
        reader = ColumnReader(ColumnFile.write(np.array([], dtype=np.int64), ColumnType.INT))
        assert reader.row_count == 0
        assert len(reader.read_all()) == 0

    def test_bad_magic_rejected(self):
        with pytest.raises(CorruptBlock):
            ColumnReader(b"not a column file at all....")

    def test_truncated_rejected(self):
        with pytest.raises(CorruptBlock):
            ColumnReader(b"xx")

    def test_block_rows_validated(self):
        with pytest.raises(ValueError):
            ColumnFile.write(np.arange(5), ColumnType.INT, block_rows=0)

    def test_float_column_minmax_json_safe(self):
        values = np.array([1.5, -2.5, 0.0])
        reader = ColumnReader(ColumnFile.write(values, ColumnType.FLOAT))
        assert reader.min_value == -2.5
        assert reader.max_value == 1.5
