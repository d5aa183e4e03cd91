"""Recursive-descent SQL parser producing engine expression trees."""

from __future__ import annotations

from typing import List, Optional, Tuple

from repro.common.dates import date_to_days
from repro.engine.expressions import (
    BinaryOp,
    CaseWhen,
    ColumnRef,
    Expr,
    FuncCall,
    InList,
    IsNull,
    Literal,
    UnaryOp,
)
from repro.errors import SqlError
from repro.sql.ast import (
    AddColumn,
    AggregateCall,
    ColumnDef,
    CreateProjection,
    CreateTable,
    Delete,
    DropTable,
    Insert,
    JoinClause,
    OrderItem,
    Select,
    Star,
    Statement,
    TableRef,
    Update,
)
from repro.sql.lexer import Token, tokenize

_AGG_NAMES = {"sum", "count", "avg", "min", "max"}
_FUNC_NAMES = {"like", "substr", "year", "month", "abs", "length", "lower", "upper"}


class _Parser:
    def __init__(self, text: str):
        self.tokens = tokenize(text)
        self.pos = 0

    # -- token helpers ---------------------------------------------------------

    def peek(self) -> Token:
        return self.tokens[self.pos]

    def advance(self) -> Token:
        token = self.tokens[self.pos]
        self.pos += 1
        return token

    def accept(self, kind: str, value: Optional[str] = None) -> Optional[Token]:
        if self.peek().matches(kind, value):
            return self.advance()
        return None

    def expect(self, kind: str, value: Optional[str] = None) -> Token:
        token = self.accept(kind, value)
        if token is None:
            got = self.peek()
            raise SqlError(
                f"expected {value or kind}, got {got.value!r} at position {got.position}"
            )
        return token

    def qualified_name(self) -> str:
        """``ident`` or ``ident.ident`` (schema-qualified table reference,
        e.g. the ``v_monitor.*`` system tables)."""
        name = self.expect("ident").value
        if self.accept("op", "."):
            name = f"{name}.{self.expect('ident').value}"
        return name

    # -- statements -------------------------------------------------------------

    def statement(self) -> Statement:
        if self.peek().matches("keyword", "select"):
            return self.select()
        if self.peek().matches("keyword", "create"):
            return self.create()
        if self.peek().matches("keyword", "insert"):
            return self.insert()
        if self.peek().matches("keyword", "delete"):
            return self.delete()
        if self.peek().matches("keyword", "update"):
            return self.update()
        if self.peek().matches("keyword", "alter"):
            return self.alter()
        if self.peek().matches("keyword", "drop"):
            return self.drop()
        got = self.peek()
        raise SqlError(f"unsupported statement starting with {got.value!r}")

    def select(self) -> Select:
        self.expect("keyword", "select")
        distinct = bool(self.accept("keyword", "distinct"))
        items: List[Tuple[Expr, Optional[str]]] = []
        while True:
            if self.peek().matches("op", "*"):
                self.advance()
                items.append((Star(), None))
                if not self.accept("op", ","):
                    break
                continue
            expr = self.expression()
            alias = None
            if self.accept("keyword", "as"):
                alias = self.expect("ident").value
            elif self.peek().kind == "ident":
                alias = self.advance().value
            items.append((expr, alias))
            if not self.accept("op", ","):
                break
        self.expect("keyword", "from")
        tables = [TableRef(self.qualified_name())]
        joins: List[JoinClause] = []
        while True:
            if self.accept("op", ","):
                tables.append(TableRef(self.qualified_name()))
                continue
            how = None
            if self.accept("keyword", "inner"):
                how = "inner"
            elif self.accept("keyword", "left"):
                how = "left"
            if self.accept("keyword", "join"):
                table = TableRef(self.qualified_name())
                self.expect("keyword", "on")
                condition = self.expression()
                joins.append(JoinClause(table, condition, how or "inner"))
                continue
            if how is not None:
                raise SqlError(f"expected JOIN after {how.upper()}")
            break
        where = self.expression() if self.accept("keyword", "where") else None
        group_by: List[Expr] = []
        if self.accept("keyword", "group"):
            self.expect("keyword", "by")
            group_by.append(self.expression())
            while self.accept("op", ","):
                group_by.append(self.expression())
        having = self.expression() if self.accept("keyword", "having") else None
        order_by: List[OrderItem] = []
        if self.accept("keyword", "order"):
            self.expect("keyword", "by")
            while True:
                expr = self.expression()
                ascending = True
                if self.accept("keyword", "desc"):
                    ascending = False
                else:
                    self.accept("keyword", "asc")
                order_by.append(OrderItem(expr, ascending))
                if not self.accept("op", ","):
                    break
        limit = None
        offset = 0
        if self.accept("keyword", "limit"):
            limit = int(self.expect("number").value)
        if self.accept("keyword", "offset"):
            offset = int(self.expect("number").value)
        return Select(
            items, tables, joins, where, group_by, having, order_by, limit,
            offset, distinct,
        )

    def create(self) -> Statement:
        self.expect("keyword", "create")
        if self.accept("keyword", "table"):
            name = self.expect("ident").value
            self.expect("op", "(")
            columns = [self.column_def()]
            while self.accept("op", ","):
                columns.append(self.column_def())
            self.expect("op", ")")
            partition_by = None
            if self.accept("keyword", "partition"):
                self.expect("keyword", "by")
                partition_by = self.expect("ident").value
            return CreateTable(name, columns, partition_by)
        if self.accept("keyword", "projection"):
            name = self.expect("ident").value
            self.expect("op", "(")
            columns = [self.expect("ident").value]
            while self.accept("op", ","):
                columns.append(self.expect("ident").value)
            self.expect("op", ")")
            self.expect("keyword", "as")
            self.expect("keyword", "select")
            self.expect("op", "*")
            self.expect("keyword", "from")
            table = self.expect("ident").value
            order_by: List[str] = []
            if self.accept("keyword", "order"):
                self.expect("keyword", "by")
                order_by.append(self.expect("ident").value)
                while self.accept("op", ","):
                    order_by.append(self.expect("ident").value)
            segmented_by: Optional[List[str]] = None
            if self.accept("keyword", "segmented"):
                self.expect("keyword", "by")
                self.expect("keyword", "hash")
                self.expect("op", "(")
                segmented_by = [self.expect("ident").value]
                while self.accept("op", ","):
                    segmented_by.append(self.expect("ident").value)
                self.expect("op", ")")
                if self.accept("keyword", "all"):
                    self.expect("keyword", "nodes")
            elif self.accept("keyword", "unsegmented"):
                if self.accept("keyword", "all"):
                    self.expect("keyword", "nodes")
            return CreateProjection(name, table, columns, order_by, segmented_by)
        raise SqlError("expected TABLE or PROJECTION after CREATE")

    def column_def(self) -> ColumnDef:
        name = self.expect("ident").value
        type_token = self.accept("ident") or self.accept("keyword", "date")
        if type_token is None:
            raise SqlError(f"expected a type after column {name!r}")
        type_name = type_token.value
        # Swallow length like varchar(32)
        if self.accept("op", "("):
            self.expect("number")
            self.expect("op", ")")
        return ColumnDef(name, type_name)

    def insert(self) -> Insert:
        self.expect("keyword", "insert")
        self.expect("keyword", "into")
        table = self.expect("ident").value
        self.expect("keyword", "values")
        rows: List[List[object]] = []
        while True:
            self.expect("op", "(")
            row: List[object] = [self.literal_value()]
            while self.accept("op", ","):
                row.append(self.literal_value())
            self.expect("op", ")")
            rows.append(row)
            if not self.accept("op", ","):
                break
        return Insert(table, rows)

    def literal_value(self) -> object:
        expr = self.expression()
        if isinstance(expr, Literal):
            return expr.value
        if isinstance(expr, UnaryOp) and expr.op == "-" and isinstance(expr.operand, Literal):
            return -expr.operand.value  # type: ignore[operator]
        raise SqlError("VALUES entries must be literals")

    def delete(self) -> Delete:
        self.expect("keyword", "delete")
        self.expect("keyword", "from")
        table = self.expect("ident").value
        where = self.expression() if self.accept("keyword", "where") else None
        return Delete(table, where)

    def update(self) -> Update:
        self.expect("keyword", "update")
        table = self.expect("ident").value
        self.expect("keyword", "set")
        assignments: List[Tuple[str, Expr]] = []
        while True:
            column = self.expect("ident").value
            self.expect("op", "=")
            assignments.append((column, self.expression()))
            if not self.accept("op", ","):
                break
        where = self.expression() if self.accept("keyword", "where") else None
        return Update(table, assignments, where)

    def alter(self) -> AddColumn:
        self.expect("keyword", "alter")
        self.expect("keyword", "table")
        table = self.expect("ident").value
        self.expect("keyword", "add")
        self.expect("keyword", "column")
        column = self.column_def()
        default = None
        if self.accept("keyword", "default"):
            default = self.expression()
        return AddColumn(table, column, default)

    def drop(self) -> DropTable:
        self.expect("keyword", "drop")
        self.expect("keyword", "table")
        return DropTable(self.expect("ident").value)

    # -- expressions (precedence climbing) ----------------------------------------

    def expression(self) -> Expr:
        return self.or_expr()

    def or_expr(self) -> Expr:
        left = self.and_expr()
        while self.accept("keyword", "or"):
            left = BinaryOp("or", left, self.and_expr())
        return left

    def and_expr(self) -> Expr:
        left = self.not_expr()
        while self.accept("keyword", "and"):
            left = BinaryOp("and", left, self.not_expr())
        return left

    def not_expr(self) -> Expr:
        if self.accept("keyword", "not"):
            return UnaryOp("not", self.not_expr())
        return self.comparison()

    def comparison(self) -> Expr:
        left = self.additive()
        token = self.peek()
        if token.kind == "op" and token.value in ("=", "<>", "<", "<=", ">", ">="):
            self.advance()
            return BinaryOp(token.value, left, self.additive())
        if self.accept("keyword", "between"):
            lo = self.additive()
            self.expect("keyword", "and")
            hi = self.additive()
            return BinaryOp("and", BinaryOp(">=", left, lo), BinaryOp("<=", left, hi))
        negated = bool(self.accept("keyword", "not"))
        if self.accept("keyword", "in"):
            self.expect("op", "(")
            values = [self._in_value()]
            while self.accept("op", ","):
                values.append(self._in_value())
            self.expect("op", ")")
            expr: Expr = InList(left, tuple(values))
            return UnaryOp("not", expr) if negated else expr
        if self.accept("keyword", "like"):
            pattern = self.expect("string").value
            expr = FuncCall("like", (left, Literal(pattern)))
            return UnaryOp("not", expr) if negated else expr
        if negated:
            raise SqlError("expected IN or LIKE after NOT")
        if self.accept("keyword", "is"):
            is_not = bool(self.accept("keyword", "not"))
            self.expect("keyword", "null")
            return IsNull(left, negated=is_not)
        return left

    def _in_value(self) -> object:
        value = self.literal_value()
        return value

    def additive(self) -> Expr:
        left = self.multiplicative()
        while True:
            if self.accept("op", "+"):
                left = BinaryOp("+", left, self.multiplicative())
            elif self.accept("op", "-"):
                left = BinaryOp("-", left, self.multiplicative())
            else:
                return left

    def multiplicative(self) -> Expr:
        left = self.unary()
        while True:
            if self.accept("op", "*"):
                left = BinaryOp("*", left, self.unary())
            elif self.accept("op", "/"):
                left = BinaryOp("/", left, self.unary())
            else:
                return left

    def unary(self) -> Expr:
        if self.accept("op", "-"):
            operand = self.unary()
            if isinstance(operand, Literal) and isinstance(operand.value, (int, float)):
                return Literal(-operand.value)
            return UnaryOp("-", operand)
        return self.primary()

    def primary(self) -> Expr:
        token = self.peek()
        if token.kind == "number":
            self.advance()
            text = token.value
            return Literal(float(text) if "." in text else int(text))
        if token.kind == "string":
            self.advance()
            return Literal(token.value)
        if token.matches("keyword", "null"):
            self.advance()
            return Literal(None)
        if token.matches("keyword", "date"):
            self.advance()
            text = self.expect("string").value
            return Literal(date_to_days(text))
        if token.matches("keyword", "case"):
            return self.case_expr()
        if token.matches("op", "("):
            self.advance()
            expr = self.expression()
            self.expect("op", ")")
            return expr
        if token.kind == "ident":
            self.advance()
            name = token.value
            if self.accept("op", "("):
                return self.call(name)
            return ColumnRef(name)
        raise SqlError(
            f"unexpected token {token.value!r} at position {token.position}"
        )

    def case_expr(self) -> Expr:
        self.expect("keyword", "case")
        branches = []
        while self.accept("keyword", "when"):
            condition = self.expression()
            self.expect("keyword", "then")
            branches.append((condition, self.expression()))
        default = self.expression() if self.accept("keyword", "else") else None
        self.expect("keyword", "end")
        return CaseWhen(branches, default)

    def call(self, name: str) -> Expr:
        lower = name.lower()
        if lower in _AGG_NAMES:
            if lower == "count" and self.accept("op", "*"):
                self.expect("op", ")")
                return AggregateCall("count", None)
            distinct = bool(self.accept("keyword", "distinct"))
            argument = self.expression()
            self.expect("op", ")")
            return AggregateCall(lower, argument, distinct)
        if lower in _FUNC_NAMES:
            args = []
            if not self.peek().matches("op", ")"):
                args.append(self.expression())
                while self.accept("op", ","):
                    args.append(self.expression())
            self.expect("op", ")")
            return FuncCall(lower, tuple(args))
        raise SqlError(f"unknown function {name!r}")


def parse(text: str) -> List[Statement]:
    """Parse one or more ``;``-separated statements."""
    parser = _Parser(text)
    statements = [parser.statement()]
    while parser.accept("op", ";"):
        if parser.peek().kind == "end":
            break
        statements.append(parser.statement())
    parser.expect("end")
    return statements


