"""SQL subset: lexer, parser, and binder.

Vertica speaks full SQL; the workloads in the paper's evaluation need the
analytic core, which this package provides:

* ``SELECT`` with multi-table joins (comma FROM with WHERE equi-joins, or
  explicit ``JOIN ... ON``), ``WHERE``, ``GROUP BY``, ``HAVING``,
  ``ORDER BY``, ``LIMIT``; aggregates ``sum/count/avg/min/max`` and
  ``count(distinct ...)``; expressions with arithmetic, comparisons,
  ``BETWEEN/IN/LIKE/IS NULL/CASE``; scalar functions.
* DDL: ``CREATE TABLE``, ``CREATE PROJECTION ... SEGMENTED BY HASH(...)``
  / ``UNSEGMENTED``, ``ALTER TABLE ... ADD COLUMN``.
* DML: ``INSERT INTO ... VALUES``, ``DELETE FROM ... WHERE``,
  ``UPDATE ... SET ... WHERE``.
"""

from repro.sql.ast import (
    AddColumn,
    CreateProjection,
    CreateTable,
    Delete,
    Insert,
    Select,
    Statement,
    Update,
)
from repro.sql.binder import BoundQuery, bind_select
from repro.sql.parser import parse

__all__ = [
    "parse",
    "bind_select",
    "BoundQuery",
    "Statement",
    "Select",
    "CreateTable",
    "CreateProjection",
    "AddColumn",
    "Insert",
    "Delete",
    "Update",
]
