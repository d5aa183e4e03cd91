"""Binder: resolve a parsed SELECT against the catalog.

Produces a :class:`BoundQuery` — the normalised form the planner consumes:

* tables in join order with per-table pushed-down filters;
* equi-join edges extracted from WHERE conjuncts and JOIN ON conditions;
* aggregate calls pulled out of the SELECT list into named specs;
* group-by expressions given stable names;
* ORDER BY resolved to output column names.

Column references are resolved unqualified; every column name must be
unique across the joined tables (true of TPC-H and of well-designed star
schemas; Vertica's own examples follow the same convention).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Set, Tuple

from repro.catalog.mvcc import CatalogState
from repro.common.types import ColumnType
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
from repro.engine.operators import AggregateSpec
from repro.errors import PlanningError, SqlError
from repro.sql.ast import AggregateCall, OrderItem, Select


@dataclass
class JoinEdge:
    """Equi-join between a new table and the already-joined prefix."""

    table: str  # the table being joined in
    left_keys: List[str]  # columns from the already-joined side
    right_keys: List[str]  # columns from `table`
    how: str = "inner"
    #: LEFT join only: the ON conjuncts that are neither key equalities nor
    #: over ``table`` alone.  A matched pair failing it is no match, and a
    #: preserved row left without one is padded, never dropped.
    condition: Optional[Expr] = None


@dataclass
class BoundQuery:
    tables: List[str]
    join_edges: List[JoinEdge]  # one per table after the first, in order
    table_filters: Dict[str, Expr]
    residual_filter: Optional[Expr]
    group_names: List[str]
    group_exprs: List[Tuple[str, Expr]]  # computed pre-aggregation
    agg_specs: List[AggregateSpec]
    outputs: List[Tuple[str, Expr]]
    having: Optional[Expr]
    order: List[Tuple[str, bool]]
    limit: Optional[int]
    columns_needed: Dict[str, Set[str]]
    offset: int = 0

    @property
    def is_aggregate(self) -> bool:
        return bool(self.agg_specs) or bool(self.group_names)


def _split_conjuncts(expr: Optional[Expr]) -> List[Expr]:
    if expr is None:
        return []
    if isinstance(expr, BinaryOp) and expr.op == "and":
        return _split_conjuncts(expr.left) + _split_conjuncts(expr.right)
    return [expr]


def _and_all(conjuncts: List[Expr]) -> Optional[Expr]:
    if not conjuncts:
        return None
    expr = conjuncts[0]
    for c in conjuncts[1:]:
        expr = BinaryOp("and", expr, c)
    return expr


def _check_literals(expr: Expr, column_type: Dict[str, ColumnType]) -> None:
    """Every ``column OP literal`` (BETWEEN included) and ``column IN (...)``
    in ``expr`` compares the column with literals of its kind: numbers for
    numeric, date and bool columns, strings for VARCHAR, NULL for any.
    Anything else is a :class:`SqlError` here, not a ``TypeError`` — or a
    wrong answer — in a scan.  One walk, no call per node: every statement
    bound pays it."""
    stack = [expr]
    while stack:
        node = stack.pop()
        kind = type(node)
        if kind is BinaryOp:
            stack += (node.left, node.right)
            if node.op not in _COMPARISONS:
                continue
            pairs = [(node.left, (node.right.value,))] if type(node.right) is Literal else []
            if type(node.left) is Literal:
                pairs.append((node.right, (node.left.value,)))
        elif kind is InList:
            stack.append(node.operand)
            pairs = [(node.operand, node.values)]
        elif kind is ColumnRef or kind is Literal:
            continue
        else:
            stack += _children(node)
            continue
        for column, values in pairs:
            ctype = column_type.get(column.name) if type(column) is ColumnRef else None
            if ctype is None:
                continue
            wanted = str if ctype is ColumnType.VARCHAR else (int, float)
            for value in values:
                if value is not None and not isinstance(value, wanted):
                    raise SqlError(
                        f"cannot compare {ctype.value} column {column.name!r} "
                        f"with {value!r}"
                    )


_COMPARISONS = ("=", "<>", "<", "<=", ">", ">=")


def _contains_aggregate(expr: Expr) -> bool:
    if isinstance(expr, AggregateCall):
        return True
    for child in _children(expr):
        if _contains_aggregate(child):
            return True
    return False


def _children(expr: Expr) -> List[Expr]:
    # By exact type (no node class is subclassed): ``isinstance`` against an
    # ``Expr`` class goes through ``ABCMeta``, a Python call each, and every
    # bind walks every node.
    kind = type(expr)
    if kind is BinaryOp:
        return [expr.left, expr.right]
    if kind is UnaryOp or kind is InList or kind is IsNull:
        return [expr.operand]
    if kind is FuncCall:
        return list(expr.args)
    if kind is CaseWhen:
        out: List[Expr] = [expr.default]
        for cond, value in expr.branches:
            out.extend([cond, value])
        return out
    if kind is AggregateCall and expr.argument is not None:
        return [expr.argument]
    return []


class _AggregateExtractor:
    """Replaces AggregateCall nodes with refs to named spec outputs."""

    def __init__(self) -> None:
        self.specs: List[AggregateSpec] = []
        self._by_signature: Dict[tuple, str] = {}

    def extract(self, expr: Expr) -> Expr:
        if isinstance(expr, AggregateCall):
            signature = (expr.func, repr(expr.argument), expr.distinct)
            name = self._by_signature.get(signature)
            if name is None:
                name = f"__a{len(self.specs)}"
                self._by_signature[signature] = name
                self.specs.append(
                    AggregateSpec(expr.func, expr.argument, name, expr.distinct)
                )
            return ColumnRef(name)
        return _rebuild(expr, [self.extract(c) for c in _children(expr)])


def _rebuild(expr: Expr, new_children: List[Expr]) -> Expr:
    if isinstance(expr, BinaryOp):
        return BinaryOp(expr.op, new_children[0], new_children[1])
    if isinstance(expr, UnaryOp):
        return UnaryOp(expr.op, new_children[0])
    if isinstance(expr, InList):
        return InList(new_children[0], expr.values)
    if isinstance(expr, IsNull):
        return IsNull(new_children[0], expr.negated)
    if isinstance(expr, FuncCall):
        return FuncCall(expr.name, tuple(new_children))
    if isinstance(expr, CaseWhen):
        default = new_children[0]
        pairs = list(zip(new_children[1::2], new_children[2::2]))
        return CaseWhen(pairs, default)
    return expr


def _replace_matching(expr: Expr, target_repr: str, replacement: Expr) -> Expr:
    if repr(expr) == target_repr:
        return replacement
    return _rebuild(
        expr, [_replace_matching(c, target_repr, replacement) for c in _children(expr)]
    )


def bind_select(query: Select, catalog: CatalogState) -> BoundQuery:
    """Resolve and normalise a SELECT against ``catalog``."""
    # 1. Resolve tables and build the column -> table map.  Tables may
    # share column names: a shared name is only an error when the query
    # actually references it (there is no qualified-reference syntax in
    # this subset to disambiguate with).
    tables = [t.name for t in query.tables] + [j.table.name for j in query.joins]
    column_table: Dict[str, str] = {}
    column_type: Dict[str, ColumnType] = {}
    ambiguous: Dict[str, Tuple[str, str]] = {}
    for name in tables:
        table = catalog.table(name)  # raises CatalogError if missing
        for column in table.schema.columns:
            owner = column_table.get(column.name)
            if owner is not None and owner != name:
                ambiguous.setdefault(column.name, (owner, name))
                continue
            column_table[column.name] = name
            column_type[column.name] = column.ctype

    def table_of(expr: Expr) -> Optional[str]:
        owners = {column_table.get(c) for c in expr.columns_used()}
        owners.discard(None)
        if len(owners) == 1:
            return owners.pop()
        return None

    def check_resolved(expr: Expr) -> None:
        for c in expr.columns_used():
            if c in ambiguous:
                first, second = ambiguous[c]
                raise SqlError(
                    f"ambiguous column {c!r}: in both "
                    f"{first!r} and {second!r}"
                )
            if c not in column_table:
                raise SqlError(f"unknown column {c!r}")
        _check_literals(expr, column_type)

    # 2. Gather conjuncts from WHERE and JOIN ON clauses.
    conjuncts = _split_conjuncts(query.where)
    explicit_join_for: Dict[str, List[Expr]] = {}
    join_how: Dict[str, str] = {}
    for join in query.joins:
        explicit_join_for[join.table.name] = _split_conjuncts(join.condition)
        join_how[join.table.name] = join.how

    table_filters: Dict[str, List[Expr]] = {name: [] for name in tables}
    equi_pairs: List[Tuple[str, str]] = []  # (colA, colB) across tables
    residual: List[Expr] = []
    #: LEFT-joined table -> its ON conjuncts that decide which pairs match.
    pair_conditions: Dict[str, List[Expr]] = {}

    def classify(conjunct: Expr, on_table: Optional[str] = None) -> None:
        """``on_table``: the joined table whose ON clause holds the
        conjunct; None for a WHERE conjunct."""
        check_resolved(conjunct)
        owner = table_of(conjunct)
        if (
            owner is not None
            and join_how.get(on_table) == "left"
            and tables.index(owner) < tables.index(on_table)
        ):
            # It decides which preserved rows find a match; pushed into the
            # preserved side's scan it would drop the rows it should pad.
            pair_conditions.setdefault(on_table, []).append(conjunct)
            return
        # A WHERE conjunct on the NULL-supplying side of a LEFT join sees
        # the padded rows (``... where b.f is null``): it runs after the join.
        if owner is not None and not (
            on_table is None and join_how.get(owner) == "left"
        ):
            table_filters[owner].append(conjunct)
            return
        if (
            isinstance(conjunct, BinaryOp)
            and conjunct.op == "="
            and isinstance(conjunct.left, ColumnRef)
            and isinstance(conjunct.right, ColumnRef)
            and column_table[conjunct.left.name] != column_table[conjunct.right.name]
        ):
            equi_pairs.append((conjunct.left.name, conjunct.right.name))
            return
        if join_how.get(on_table) == "left":
            # ``on k = uk and x > y``: a pair failing it un-matches; as a
            # filter after the join it would drop the row it should pad.
            pair_conditions.setdefault(on_table, []).append(conjunct)
            return
        residual.append(conjunct)

    for conjunct in conjuncts:
        classify(conjunct)
    for on_table, join_conjuncts in explicit_join_for.items():
        for conjunct in join_conjuncts:
            classify(conjunct, on_table)

    # 3. Build join order: FROM order, each new table connected by an edge.
    joined: List[str] = [tables[0]]
    edges: List[JoinEdge] = []
    pending = list(tables[1:])
    available = list(equi_pairs)
    guard = 0
    while pending:
        guard += 1
        if guard > len(tables) ** 2 + 10:
            raise PlanningError(
                f"could not find join conditions connecting {pending}"
            )
        progressed = False
        for candidate in list(pending):
            left_keys: List[str] = []
            right_keys: List[str] = []
            for a, b in available:
                ta, tb = column_table[a], column_table[b]
                if tb == candidate and ta in joined:
                    left_keys.append(a)
                    right_keys.append(b)
                elif ta == candidate and tb in joined:
                    left_keys.append(b)
                    right_keys.append(a)
            if left_keys:
                available = [
                    (a, b)
                    for a, b in available
                    if not (
                        (column_table[b] == candidate and column_table[a] in joined)
                        or (column_table[a] == candidate and column_table[b] in joined)
                    )
                ]
                edges.append(
                    JoinEdge(
                        candidate,
                        left_keys,
                        right_keys,
                        join_how.get(candidate, "inner"),
                        _and_all(pair_conditions.get(candidate, [])),
                    )
                )
                joined.append(candidate)
                pending.remove(candidate)
                progressed = True
        if not progressed:
            raise PlanningError(
                f"no equi-join condition connects {pending} to {joined} "
                "(cartesian products are not supported)"
            )
    # Leftover equi pairs (cycles) become residual filters.
    for a, b in available:
        residual.append(BinaryOp("=", ColumnRef(a), ColumnRef(b)))

    # 4. Extract aggregates from SELECT / HAVING / ORDER BY.
    # Expand SELECT * into every column of the joined tables, in order.
    from repro.sql.ast import Star

    expanded_items: List[Tuple[Expr, Optional[str]]] = []
    for expr, alias in query.items:
        if isinstance(expr, Star):
            for table_name in tables:
                for column in catalog.table(table_name).schema.names:
                    expanded_items.append((ColumnRef(column), None))
        else:
            expanded_items.append((expr, alias))

    extractor = _AggregateExtractor()
    outputs: List[Tuple[str, Expr]] = []
    for i, (expr, alias) in enumerate(expanded_items):
        check_resolved(expr)
        rewritten = extractor.extract(expr)
        if alias is None:
            if isinstance(expr, ColumnRef):
                alias = expr.name
            else:
                alias = f"col{i}"
        outputs.append((alias, rewritten))

    having = None
    if query.having is not None:
        check_resolved(query.having)
        having = extractor.extract(query.having)

    # 5. Name group-by expressions and rewrite outputs referring to them.
    # SELECT DISTINCT is sugar for grouping by every output expression.
    effective_group_by = list(query.group_by)
    if query.distinct:
        if extractor.specs or query.group_by:
            raise SqlError(
                "SELECT DISTINCT cannot be combined with aggregates or GROUP BY"
            )
        effective_group_by = [expr for _alias, expr in outputs]
    group_names: List[str] = []
    group_exprs: List[Tuple[str, Expr]] = []
    for i, expr in enumerate(effective_group_by):
        check_resolved(expr)
        if _contains_aggregate(expr):
            raise SqlError("aggregate functions are not allowed in GROUP BY")
        if isinstance(expr, ColumnRef):
            group_names.append(expr.name)
        else:
            name = f"__g{i}"
            group_names.append(name)
            group_exprs.append((name, expr))
            target = repr(expr)
            outputs = [
                (alias, _replace_matching(e, target, ColumnRef(name)))
                for alias, e in outputs
            ]
            if having is not None:
                having = _replace_matching(having, target, ColumnRef(name))

    agg_specs = extractor.specs
    is_aggregate = bool(agg_specs) or bool(group_names)
    if is_aggregate:
        # Validate outputs only use group columns / agg results.
        legal = set(group_names) | {s.output for s in agg_specs}
        for alias, expr in outputs:
            bad = expr.columns_used() - legal
            if bad:
                raise SqlError(
                    f"column(s) {sorted(bad)} must appear in GROUP BY or "
                    "inside an aggregate"
                )

    # 6. Resolve ORDER BY to output names.
    out_by_alias = {alias: alias for alias, _ in outputs}
    order: List[Tuple[str, bool]] = []
    for item in query.order_by:
        expr = item.expr
        if isinstance(expr, Literal) and isinstance(expr.value, int):
            index = expr.value - 1
            if not 0 <= index < len(outputs):
                raise SqlError(f"ORDER BY position {expr.value} out of range")
            order.append((outputs[index][0], item.ascending))
            continue
        if isinstance(expr, ColumnRef) and expr.name in out_by_alias:
            order.append((expr.name, item.ascending))
            continue
        # Match an output by expression identity (pre-extraction).
        rewritten = extractor.extract(expr)
        for alias, out_expr in outputs:
            if repr(out_expr) == repr(rewritten):
                order.append((alias, item.ascending))
                break
        else:
            raise SqlError(f"ORDER BY expression {expr!r} is not in the SELECT list")

    # 7. Columns needed per table.
    needed: Dict[str, Set[str]] = {name: set() for name in tables}

    def note(expr: Expr) -> None:
        for c in expr.columns_used():
            owner = column_table.get(c)
            if owner is not None:
                needed[owner].add(c)

    for exprs in table_filters.values():
        for e in exprs:
            note(e)
    for e in residual:
        note(e)
    for edge in edges:
        for c in edge.left_keys + edge.right_keys:
            needed[column_table[c]].add(c)
        if edge.condition is not None:
            note(edge.condition)
    for _, e in group_exprs:
        note(e)
    for name in group_names:
        if name in column_table:
            needed[column_table[name]].add(name)
    for spec in agg_specs:
        if spec.argument is not None:
            note(spec.argument)
    for _, e in outputs:
        note(e)

    return BoundQuery(
        tables=joined,
        join_edges=edges,
        table_filters={
            name: _and_all(exprs)
            for name, exprs in table_filters.items()
            if exprs
        },
        residual_filter=_and_all(residual),
        group_names=group_names,
        group_exprs=group_exprs,
        agg_specs=agg_specs,
        outputs=outputs,
        having=having,
        order=order,
        limit=query.limit,
        columns_needed=needed,
        offset=query.offset,
    )
