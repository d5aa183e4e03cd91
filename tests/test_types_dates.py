"""Column types, schemas, and date helpers — and the reference inverse of a
DATE's day count that other tests read dates back with."""

import datetime

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.common.dates import date_to_days, make_date
from repro.common.types import ColumnType, SchemaColumn, TableSchema

EPOCH = datetime.date(1970, 1, 1)


def days_to_date(days: int) -> str:
    """Inverse of :func:`date_to_days`."""
    return (EPOCH + datetime.timedelta(days=int(days))).isoformat()


def year_of_days(days: int) -> int:
    return (EPOCH + datetime.timedelta(days=int(days))).year


def month_of_days(days: int) -> int:
    return (EPOCH + datetime.timedelta(days=int(days))).month


class TestColumnType:
    def test_sql_name_parsing(self):
        assert ColumnType.from_sql("int") is ColumnType.INT
        assert ColumnType.from_sql("BIGINT") is ColumnType.INT
        assert ColumnType.from_sql("varchar(32)") is ColumnType.VARCHAR
        assert ColumnType.from_sql("double") is ColumnType.FLOAT
        assert ColumnType.from_sql("date") is ColumnType.DATE
        assert ColumnType.from_sql("boolean") is ColumnType.BOOL

    def test_unknown_sql_type_rejected(self):
        with pytest.raises(ValueError):
            ColumnType.from_sql("geometry")

    def test_coerce_dtypes(self):
        assert ColumnType.INT.coerce([1, 2]).dtype == np.int64
        assert ColumnType.FLOAT.coerce([1]).dtype == np.float64
        assert ColumnType.VARCHAR.coerce(["a", None]).dtype == object
        assert ColumnType.BOOL.coerce([True]).dtype == np.bool_


class TestTableSchema:
    def test_duplicate_names_rejected(self):
        with pytest.raises(ValueError):
            TableSchema.of(("a", ColumnType.INT), ("a", ColumnType.INT))

    def test_empty_column_name_rejected(self):
        with pytest.raises(ValueError):
            SchemaColumn("", ColumnType.INT)

    def test_lookup_and_index(self):
        schema = TableSchema.of(("a", ColumnType.INT), ("b", ColumnType.VARCHAR))
        assert schema.column("a").ctype is ColumnType.INT
        with pytest.raises(KeyError):
            schema.column("zzz")

    def test_subset_preserves_order_given(self):
        schema = TableSchema.of(
            ("a", ColumnType.INT), ("b", ColumnType.VARCHAR), ("c", ColumnType.FLOAT)
        )
        sub = schema.subset(["c", "a"])
        assert sub.names == ["c", "a"]

    def test_contains_and_iter(self):
        schema = TableSchema.of(("a", ColumnType.INT))
        assert "a" in schema and "b" not in schema
        assert len(schema) == 1
        assert [c.name for c in schema] == ["a"]


class TestDates:
    def test_epoch(self):
        assert date_to_days("1970-01-01") == 0
        assert days_to_date(0) == "1970-01-01"

    def test_roundtrip_known_dates(self):
        for text in ("1992-01-01", "1998-08-02", "2000-02-29"):
            assert days_to_date(date_to_days(text)) == text

    def test_year_month_extraction(self):
        days = date_to_days("1995-03-17")
        assert year_of_days(days) == 1995
        assert month_of_days(days) == 3

    def test_make_date(self):
        assert make_date(1970, 1, 2) == 1
        assert make_date(1994, 1, 1) == date_to_days("1994-01-01")

    @given(st.integers(min_value=-10_000, max_value=40_000))
    @settings(max_examples=50)
    def test_roundtrip_property(self, days):
        assert date_to_days(days_to_date(days)) == days
