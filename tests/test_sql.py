"""SQL lexer, parser, and binder."""

import pytest

from repro import EonCluster
from repro.catalog.mvcc import CatalogState, op_create_projection, op_create_table
from repro.catalog.objects import Projection, Segmentation, Table
from repro.common.dates import date_to_days
from repro.common.types import ColumnType, TableSchema
from repro.engine.expressions import BinaryOp, ColumnRef, Literal
from repro.errors import PlanningError, SqlError
from repro.sql.ast import CreateProjection, CreateTable, Delete, Insert, Select, Update
from repro.sql.binder import bind_select
from repro.sql.lexer import tokenize
from repro.sql.parser import _Parser, parse


def parse_one(text: str):
    (statement,) = parse(text)
    return statement


def parse_expression(text: str):
    """A standalone expression, as the parser reads one inside a statement."""
    parser = _Parser(text)
    expr = parser.expression()
    parser.expect("end")
    return expr


class TestLexer:
    def test_keywords_case_insensitive(self):
        tokens = tokenize("SELECT a FROM t")
        assert tokens[0].kind == "keyword" and tokens[0].value == "select"
        assert tokens[1].kind == "ident" and tokens[1].value == "a"

    def test_string_escapes(self):
        tokens = tokenize("select 'it''s'")
        assert tokens[1].value == "it's"

    def test_unterminated_string(self):
        with pytest.raises(SqlError):
            tokenize("select 'oops")

    def test_numbers(self):
        tokens = tokenize("1 2.5 0.001")
        assert [t.value for t in tokens[:-1]] == ["1", "2.5", "0.001"]

    def test_comments_skipped(self):
        tokens = tokenize("select 1 -- comment here\n + 2")
        assert [t.value for t in tokens if t.kind != "end"] == ["select", "1", "+", "2"]

    def test_two_char_operators(self):
        tokens = tokenize("a <> b <= c >= d != e")
        ops = [t.value for t in tokens if t.kind == "op"]
        assert ops == ["<>", "<=", ">=", "<>"]

    def test_unexpected_character(self):
        with pytest.raises(SqlError):
            tokenize("select @foo")


class TestExpressionParsing:
    def test_precedence(self):
        expr = parse_expression("1 + 2 * 3")
        assert isinstance(expr, BinaryOp) and expr.op == "+"
        assert expr.right.op == "*"

    def test_parentheses(self):
        expr = parse_expression("(1 + 2) * 3")
        assert expr.op == "*"

    def test_and_or_precedence(self):
        expr = parse_expression("a = 1 or b = 2 and c = 3")
        assert expr.op == "or"
        assert expr.right.op == "and"

    def test_between_desugars(self):
        expr = parse_expression("x between 1 and 5")
        assert expr.op == "and"

    def test_not_in(self):
        expr = parse_expression("x not in (1, 2)")
        from repro.engine.expressions import UnaryOp
        assert isinstance(expr, UnaryOp) and expr.op == "not"

    def test_unary_minus_folds_literal(self):
        expr = parse_expression("-5")
        assert isinstance(expr, Literal) and expr.value == -5

    def test_date_literal(self):
        expr = parse_expression("date '1994-01-01'")
        assert expr.value == date_to_days("1994-01-01")

    def test_case_when(self):
        expr = parse_expression("case when x = 1 then 'a' else 'b' end")
        from repro.engine.expressions import CaseWhen
        assert isinstance(expr, CaseWhen)

    def test_is_not_null(self):
        expr = parse_expression("x is not null")
        from repro.engine.expressions import IsNull
        assert isinstance(expr, IsNull) and expr.negated

    def test_unknown_function_rejected(self):
        with pytest.raises(SqlError):
            parse_expression("frobnicate(x)")


class TestStatementParsing:
    def test_select_full_shape(self):
        stmt = parse_one("""
            select g, sum(x) as total from t
            where x > 0 group by g having sum(x) > 10
            order by total desc limit 5
        """)
        assert isinstance(stmt, Select)
        assert stmt.limit == 5
        assert not stmt.order_by[0].ascending
        assert len(stmt.group_by) == 1

    def test_join_syntax(self):
        stmt = parse_one("select a from t join u on a = b left join v on b = c")
        assert len(stmt.joins) == 2
        assert stmt.joins[1].how == "left"

    def test_comma_from(self):
        stmt = parse_one("select a from t, u, v where a = b")
        assert len(stmt.tables) == 3

    def test_create_table(self):
        stmt = parse_one(
            "create table t (a int, b varchar(20), c date) partition by c"
        )
        assert isinstance(stmt, CreateTable)
        assert [c.type_name for c in stmt.columns] == ["int", "varchar", "date"]
        assert stmt.partition_by == "c"

    def test_create_projection(self):
        stmt = parse_one(
            "create projection p (a, b) as select * from t "
            "order by a segmented by hash(b) all nodes"
        )
        assert isinstance(stmt, CreateProjection)
        assert stmt.segmented_by == ["b"]

    def test_create_unsegmented_projection(self):
        stmt = parse_one(
            "create projection p (a) as select * from t unsegmented all nodes"
        )
        assert stmt.segmented_by is None

    def test_insert_values(self):
        stmt = parse_one("insert into t values (1, 'x'), (2, null), (-3, 'y')")
        assert isinstance(stmt, Insert)
        assert stmt.rows == [[1, "x"], [2, None], [-3, "y"]]

    def test_insert_rejects_expressions(self):
        with pytest.raises(SqlError):
            parse_one("insert into t values (1 + 2)")

    def test_delete_update(self):
        d = parse_one("delete from t where a = 1")
        assert isinstance(d, Delete)
        u = parse_one("update t set a = a + 1, b = 'x' where a < 5")
        assert isinstance(u, Update) and len(u.assignments) == 2

    def test_multiple_statements(self):
        stmts = parse("create table t (a int); select a from t;")
        assert len(stmts) == 2

    def test_trailing_garbage_rejected(self):
        with pytest.raises(SqlError):
            parse("select 1 from t extra")


class TestBinder:
    def _catalog(self) -> CatalogState:
        state = CatalogState()
        t = Table("t", TableSchema.of(("a", ColumnType.INT), ("b", ColumnType.VARCHAR)))
        u = Table("u", TableSchema.of(("c", ColumnType.INT), ("d", ColumnType.FLOAT)))
        state.apply_all([op_create_table(t)])
        state.apply_all([op_create_table(u)])
        state.apply_all([op_create_projection(Projection(
            "t_p", "t", ("a", "b"), ("a",), Segmentation.by_hash("a")))])
        state.apply_all([op_create_projection(Projection(
            "u_p", "u", ("c", "d"), ("c",), Segmentation.by_hash("c")))])
        return state

    def test_pushes_single_table_filters(self):
        bound = bind_select(
            parse_one("select a from t, u where a = c and b = 'x' and d > 1.0"),
            self._catalog(),
        )
        assert set(bound.table_filters) == {"t", "u"}
        assert len(bound.join_edges) == 1
        assert bound.join_edges[0].left_keys == ["a"]

    def test_aggregate_extraction(self):
        bound = bind_select(
            parse_one("select b, sum(a) s, count(*) c from t group by b"),
            self._catalog(),
        )
        assert [s.func for s in bound.agg_specs] == ["sum", "count"]
        assert bound.group_names == ["b"]
        assert bound.is_aggregate

    def test_duplicate_aggregates_shared(self):
        bound = bind_select(
            parse_one("select sum(a), sum(a) + 1 from t"), self._catalog()
        )
        assert len(bound.agg_specs) == 1

    def test_group_expression_named(self):
        bound = bind_select(
            parse_one("select a + 1, count(*) from t group by a + 1"),
            self._catalog(),
        )
        assert bound.group_names == ["__g0"]
        assert bound.group_exprs[0][0] == "__g0"
        # The SELECT output now refers to the named group column.
        assert isinstance(bound.outputs[0][1], ColumnRef)

    def test_non_grouped_column_rejected(self):
        with pytest.raises(SqlError):
            bind_select(
                parse_one("select a, count(*) from t group by b"), self._catalog()
            )

    def test_unknown_column_rejected(self):
        with pytest.raises(SqlError):
            bind_select(parse_one("select zzz from t"), self._catalog())

    def test_order_by_position(self):
        bound = bind_select(
            parse_one("select a, b from t order by 2 desc"), self._catalog()
        )
        assert bound.order == [("b", False)]

    def test_order_by_unknown_rejected(self):
        with pytest.raises(SqlError):
            bind_select(parse_one("select a from t order by b"), self._catalog())

    def test_cartesian_product_rejected(self):
        with pytest.raises(PlanningError):
            bind_select(parse_one("select a from t, u"), self._catalog())

    def test_columns_needed(self):
        bound = bind_select(
            parse_one("select sum(d) from t, u where a = c and b like 'x%'"),
            self._catalog(),
        )
        assert bound.columns_needed["t"] == {"a", "b"}
        assert bound.columns_needed["u"] == {"c", "d"}

    def test_having_uses_aggregate(self):
        bound = bind_select(
            parse_one("select b from t group by b having count(*) > 2"),
            self._catalog(),
        )
        assert bound.having is not None
        assert len(bound.agg_specs) == 1  # count(*) pulled from HAVING


class TestLiteralsOfTheColumnsType:
    """A column compared with a literal it cannot compare with is refused by
    the binder, every column type against every literal kind and form."""

    NUMBER = "numeric"
    LITERALS = {"1": NUMBER, "2.5": NUMBER, "-3": NUMBER, "date '1998-01-01'": NUMBER,
                "'x'": "string", "'é'": "string", "null": "null"}
    FORMS = ["c = {lit}", "c <> {lit}", "c < {lit}", "{lit} >= c",
             "c between {lit} and {lit}", "c in (1, {lit})", "c in ('a', {lit})",
             "c + 0 > 1 and c = {lit}", "not c <= {lit}"]

    @staticmethod
    def catalog(ctype: ColumnType) -> CatalogState:
        state = CatalogState()
        schema = TableSchema.of(("c", ctype), ("n", ColumnType.INT), ("s", ColumnType.VARCHAR))
        state.apply_all([op_create_table(Table("t", schema))])
        return state

    @staticmethod
    def takes(ctype: ColumnType, kind: str) -> bool:
        if kind == "null":
            return True
        return (kind == "string") == (ctype is ColumnType.VARCHAR)

    @pytest.mark.parametrize("ctype", list(ColumnType))
    @pytest.mark.parametrize("literal", sorted(LITERALS))
    def test_every_type_and_literal_kind(self, ctype, literal):
        state = self.catalog(ctype)
        for form in self.FORMS:
            where = form.format(lit=literal)
            # The other literals of a form are of the column's own kind.
            if ctype is ColumnType.VARCHAR:
                where = where.replace("in (1,", "in ('z',").replace("c + 0 > 1 and ", "")
            else:
                where = where.replace("in ('a',", "in (7,")
            query = parse_one(f"select count(*) from t where {where}")
            if self.takes(ctype, self.LITERALS[literal]):
                bind_select(query, state)
            else:
                with pytest.raises(SqlError, match="cannot compare"):
                    bind_select(query, state)

    def test_other_columns_and_clauses_are_checked_too(self):
        state = self.catalog(ColumnType.INT)
        for sql in ["select s from t where s > 4", "select count(*) from t having n = 'x'",
                    "select case when s = 1 then 1 else 0 end from t",
                    "select count(*) from t where n in (1, 'a')"]:
            with pytest.raises(SqlError, match="cannot compare"):
                bind_select(parse_one(sql), state)
        bind_select(parse_one("select count(*) from t where s like 'a%' and n >= 2.5"), state)

    def test_on_a_cluster_a_raw_type_error_and_a_wrong_answer_are_gone(self):
        cluster = EonCluster(["n1", "n2"], shard_count=2, seed=1)
        cluster.execute("create table t (k int, s varchar)")
        cluster.load("t", [(k, f"v{k}") for k in range(10)])
        for where in ["k >= 'x'", "s = 3", "k in (1, 'a')"]:
            with pytest.raises(SqlError):
                cluster.query(f"select count(*) from t where {where}")
        assert cluster.query("select count(*) from t where k in (1, 2.0)").rows.to_pylist() == [(2,)]
