"""Block-level pruning via the container position index (section 2.3)."""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro import ColumnType, EonCluster
from repro.common.types import TableSchema
from repro.engine.expressions import col, extract_column_bounds, lit
from repro.sql.parser import parse_expression
from repro.storage.container import RowSet, read_container, write_container


class TestExtractColumnBounds:
    def test_simple_comparisons(self):
        assert extract_column_bounds(parse_expression("x > 5")) == {"x": (5, None)}
        assert extract_column_bounds(parse_expression("x <= 5")) == {"x": (None, 5)}
        assert extract_column_bounds(parse_expression("x = 5")) == {"x": (5, 5)}

    def test_conjunction_tightens(self):
        bounds = extract_column_bounds(parse_expression("x > 1 and x < 10 and x >= 3"))
        assert bounds == {"x": (3, 10)}

    def test_between(self):
        assert extract_column_bounds(parse_expression("x between 2 and 8")) == {
            "x": (2, 8)
        }

    def test_in_list(self):
        assert extract_column_bounds(parse_expression("x in (7, 3, 9)")) == {
            "x": (3, 9)
        }

    def test_reversed_literal(self):
        assert extract_column_bounds(parse_expression("10 > x")) == {"x": (None, 10)}

    def test_or_contributes_nothing(self):
        assert extract_column_bounds(parse_expression("x > 5 or y < 2")) == {}

    def test_mixed_and_or(self):
        bounds = extract_column_bounds(
            parse_expression("x > 5 and (y = 1 or z = 2)")
        )
        assert bounds == {"x": (5, None)}

    def test_multiple_columns(self):
        bounds = extract_column_bounds(parse_expression("x > 5 and s = 'm'"))
        assert bounds == {"x": (5, None), "s": ("m", "m")}

    def test_none_predicate(self):
        assert extract_column_bounds(None) == {}


class TestContainerBlockReads:
    SCHEMA = TableSchema.of(("k", ColumnType.INT), ("s", ColumnType.VARCHAR))

    def _reader(self, n=10_000):
        rows = RowSet.from_rows(self.SCHEMA, [(i, f"v{i}") for i in range(n)])
        return read_container(write_container(rows)[0])

    def test_matching_blocks_narrow(self):
        reader = self._reader()
        blocks = reader.matching_blocks({"k": (5_000, 5_001)})
        assert blocks == [1]  # 4096-row blocks: rows 4096..8191

    def test_matching_blocks_unbounded_column(self):
        reader = self._reader()
        assert reader.matching_blocks({}) == list(range(reader.block_count()))

    @given(
        st.dictionaries(
            st.sampled_from(["k", "s", "absent"]),
            st.tuples(
                st.one_of(st.none(), st.integers(-10, 10_010)),
                st.one_of(st.none(), st.integers(-10, 10_010)),
            ),
            max_size=3,
        )
    )
    @settings(max_examples=60, deadline=None)
    def test_matching_blocks_is_the_intersection_per_column(self, bounds):
        reader = self._reader()
        # "s" holds strings: give it string bounds.
        bounds = {
            c: (tuple(None if b is None else f"v{b}" for b in lohi) if c == "s" else lohi)
            for c, lohi in bounds.items()
        }
        expected = set(range(reader.block_count()))
        for column, (lo, hi) in bounds.items():
            if column != "absent":
                mask = reader.column_reader(column).block_mask(lo, hi)
                expected &= {i for i, hit in enumerate(mask) if hit}
        assert reader.matching_blocks(bounds) == sorted(expected)

    def test_read_selected_blocks_aligned(self):
        reader = self._reader()
        out = reader.read_rowset_blocks(["k", "s"], [1])
        assert out.num_rows == 4096
        assert out.column("k")[0] == 4096
        assert out.column("s")[0] == "v4096"

    def test_read_no_blocks(self):
        reader = self._reader()
        out = reader.read_rowset_blocks(["k"], [])
        assert out.num_rows == 0

    @given(st.integers(min_value=0, max_value=9_999))
    @settings(max_examples=25)
    def test_pruned_read_preserves_matches(self, needle):
        reader = self._reader()
        bounds = {"k": (needle, needle)}
        blocks = reader.matching_blocks(bounds)
        rows = reader.read_rowset_blocks(["k"], blocks)
        assert needle in set(rows.column("k"))


class TestClusterBlockPruning:
    @pytest.fixture
    def cluster(self):
        c = EonCluster(["n1", "n2"], shard_count=2, seed=21)
        c.execute("create table t (k int, s varchar)")
        # One big sorted load: each shard's container spans many blocks
        # sorted by k, so point predicates prune most blocks.
        c.load("t", [(i, f"s{i % 3}") for i in range(60_000)])
        return c

    def test_point_query_prunes_blocks(self, cluster):
        result = cluster.query("select s from t where k = 31000")
        assert result.rows.num_rows == 1
        pruned = sum(w.blocks_pruned for w in result.stats.per_node.values())
        assert pruned > 0
        assert result.stats.total_rows_scanned < 60_000

    def test_range_query_correct_under_pruning(self, cluster):
        result = cluster.query("select count(*) from t where k between 100 and 4999")
        assert result.rows.to_pylist() == [(4_900,)]

    def test_full_scan_prunes_nothing(self, cluster):
        result = cluster.query("select count(*) from t")
        pruned = sum(w.blocks_pruned for w in result.stats.per_node.values())
        assert pruned == 0
        assert result.rows.to_pylist() == [(60_000,)]

    def test_pruning_disabled_when_tombstoned(self, cluster):
        """Delete vectors reference absolute positions; pruned reads would
        mis-apply them, so tombstoned containers read fully."""
        cluster.execute("delete from t where k = 5")
        result = cluster.query("select count(*) from t where k = 31000")
        assert result.rows.to_pylist() == [(1,)]
        # Correctness is what matters; the deleted row stays deleted.
        gone = cluster.query("select count(*) from t where k = 5")
        assert gone.rows.to_pylist() == [(0,)]
