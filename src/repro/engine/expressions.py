"""Expression trees: evaluation over columnar batches and range analysis.

Expressions evaluate vectorised over a :class:`~repro.storage.container.RowSet`
(one numpy array in, one out).  They also support *range analysis* — "Vertica
accomplishes this by tracking minimum and maximum values of columns in each
storage and using expression analysis to determine if a predicate could ever
be true for the given minimum and maximum" (section 2.1).
:meth:`Expr.could_match` is that analysis: given per-column [min, max]
bounds it returns False only when the predicate is provably false for every
row, enabling container- and block-level pruning.
"""

from __future__ import annotations

import abc
import re
from typing import Callable, Dict, List, Optional, Sequence, Set, Tuple

import numpy as np

from repro.common.types import TableSchema
from repro.errors import ExecutionError
from repro.storage.container import RowSet
from repro.storage.encoding import CodedStrings, Held

#: Per-column bounds used by range analysis: name -> (min, max).
Bounds = Dict[str, Tuple[object, object]]


class Expr(abc.ABC):
    """Base class of all expression nodes."""

    def evaluate(self, rows: RowSet) -> np.ndarray:
        """Vectorised evaluation; returns an array of len ``rows.num_rows``.

        The dictionary rule, for every node above the leaves: an expression
        that reads exactly one column, held as codes over a dictionary
        smaller than the batch, is computed once per entry the batch
        references and gathered by code.  The same ``_evaluate`` sees the
        same values, so NULLs and errors are those of the row-wise answer;
        an entry no row references is never looked at.
        """
        found = _sole_coded_column(self, rows) if rows.has_codes else None
        if found is None:
            return self._evaluate(rows)
        name, strings = found
        size = len(strings.dictionary)
        present = np.flatnonzero(np.bincount(strings.codes, minlength=size))
        entries = RowSet(
            TableSchema([rows.schema.column(name)]), {name: strings.dictionary[present]}
        )
        per_entry = self._evaluate(entries)
        out = np.empty(size, dtype=per_entry.dtype)
        out[present] = per_entry
        return out[strings.codes]

    def _evaluate(self, rows: RowSet) -> np.ndarray:
        """The node's own arithmetic; its operands go through ``evaluate``."""
        raise NotImplementedError

    def held(self, rows: RowSet) -> Held:
        """``evaluate`` for a kernel that takes codes, or to hand the values
        on: a bare column reference gives the column as the batch holds it."""
        return self.evaluate(rows)

    @abc.abstractmethod
    def columns_used(self) -> Set[str]:
        """Every column name referenced anywhere in the tree."""

    def could_match(self, bounds: Bounds) -> bool:
        """Range analysis for pruning.

        Must be *conservative*: True means "possibly matches"; only return
        False when no row within ``bounds`` can satisfy the predicate.
        Columns missing from ``bounds`` are unbounded.
        """
        return True

    # -- operator sugar for plan construction in Python ----------------------

    def __eq__(self, other):  # type: ignore[override]
        return BinaryOp("=", self, _wrap(other))

    def __ne__(self, other):  # type: ignore[override]
        return BinaryOp("<>", self, _wrap(other))

    def __lt__(self, other):
        return BinaryOp("<", self, _wrap(other))

    def __le__(self, other):
        return BinaryOp("<=", self, _wrap(other))

    def __gt__(self, other):
        return BinaryOp(">", self, _wrap(other))

    def __ge__(self, other):
        return BinaryOp(">=", self, _wrap(other))

    def __add__(self, other):
        return BinaryOp("+", self, _wrap(other))

    def __sub__(self, other):
        return BinaryOp("-", self, _wrap(other))

    def __mul__(self, other):
        return BinaryOp("*", self, _wrap(other))

    def __truediv__(self, other):
        return BinaryOp("/", self, _wrap(other))

    def __and__(self, other):
        return BinaryOp("and", self, _wrap(other))

    def __or__(self, other):
        return BinaryOp("or", self, _wrap(other))

    def __invert__(self):
        return UnaryOp("not", self)

    def __hash__(self):
        return hash(repr(self))

    def between(self, lo, hi) -> "Expr":
        return (self >= _wrap(lo)) & (self <= _wrap(hi))

    def isin(self, values: Sequence[object]) -> "Expr":
        return InList(self, tuple(values))

    def like(self, pattern: str) -> "Expr":
        return FuncCall("like", (self, Literal(pattern)))

    def is_null(self) -> "Expr":
        return IsNull(self)


def _sole_coded_column(expr: Expr, rows: RowSet) -> Optional[Tuple[str, CodedStrings]]:
    """The one column ``expr`` reads, when ``rows`` holds it as codes over a
    dictionary smaller than the batch (else a test per row is no dearer)."""
    used = expr.columns_used()
    if len(used) != 1:
        return None
    (name,) = used
    try:
        strings = rows.held(name)
    except KeyError:
        return None  # not in the batch: the column reference says so
    if isinstance(strings, CodedStrings) and len(strings.dictionary) < rows.num_rows:
        return name, strings
    return None


def _wrap(value) -> "Expr":
    return value if isinstance(value, Expr) else Literal(value)


def col(name: str) -> "ColumnRef":
    return ColumnRef(name)


def lit(value) -> "Literal":
    return Literal(value)


class ColumnRef(Expr):
    def __init__(self, name: str):
        self.name = name

    def evaluate(self, rows: RowSet) -> np.ndarray:
        try:
            return rows.column(self.name)
        except KeyError:
            raise ExecutionError(f"column {self.name!r} not in batch") from None

    def held(self, rows: RowSet) -> Held:
        try:
            return rows.held(self.name)
        except KeyError:
            raise ExecutionError(f"column {self.name!r} not in batch") from None

    def columns_used(self) -> Set[str]:
        return {self.name}

    def __repr__(self) -> str:
        return f"col({self.name!r})"


class Literal(Expr):
    def __init__(self, value):
        self.value = value

    def evaluate(self, rows: RowSet) -> np.ndarray:
        if isinstance(self.value, str) or self.value is None:
            dtype = object
        elif isinstance(self.value, bool):
            dtype = np.bool_
        elif isinstance(self.value, int):
            dtype = np.int64
        else:
            dtype = np.float64
        # One value seen ``num_rows`` times: a read-only view, nothing filled.
        return np.broadcast_to(np.array(self.value, dtype=dtype), rows.num_rows)

    def columns_used(self) -> Set[str]:
        return set()

    def __repr__(self) -> str:
        return f"lit({self.value!r})"


_CMP = {
    "=": np.equal, "<>": np.not_equal, "<": np.less,
    "<=": np.less_equal, ">": np.greater, ">=": np.greater_equal,
}
_ARITH = {"+", "-", "*", "/"}
_BOOL = {"and", "or"}


class BinaryOp(Expr):
    def __init__(self, op: str, left: Expr, right: Expr):
        if op not in _CMP.keys() | _ARITH | _BOOL:
            raise ValueError(f"unknown binary operator {op!r}")
        self.op = op
        self.left = left
        self.right = right

    def _evaluate(self, rows: RowSet) -> np.ndarray:
        lhs = self.left.evaluate(rows)
        rhs = self.right.evaluate(rows)
        op = self.op
        if op in _CMP:
            return _null_safe_compare(lhs, rhs, op)
        if op == "+":
            return lhs + rhs
        if op == "-":
            return lhs - rhs
        if op == "*":
            return lhs * rhs
        if op == "/":
            return np.divide(
                lhs.astype(np.float64), rhs.astype(np.float64),
            )
        if op == "and":
            return np.logical_and(lhs.astype(bool), rhs.astype(bool))
        return np.logical_or(lhs.astype(bool), rhs.astype(bool))

    def columns_used(self) -> Set[str]:
        return self.left.columns_used() | self.right.columns_used()

    def could_match(self, bounds: Bounds) -> bool:
        op = self.op
        if op == "and":
            return self.left.could_match(bounds) and self.right.could_match(bounds)
        if op == "or":
            return self.left.could_match(bounds) or self.right.could_match(bounds)
        if op in _CMP:
            return _range_compare(self.op, self.left, self.right, bounds)
        return True

    def __repr__(self) -> str:
        return f"({self.left!r} {self.op} {self.right!r})"


def null_mask(values: Held) -> np.ndarray:
    """True where the value is NULL: ``None`` (or a NaN object) in an object
    array, NaN in a float array, the code of ``None`` among codes.  Int and
    bool arrays cannot hold NULL (no sentinel) — the documented deviation.
    Expressions and aggregates share this one definition."""
    kind = values.dtype.kind
    if kind == "f":
        return np.isnan(values)
    if kind != "O":
        return np.zeros(len(values), dtype=bool)
    if isinstance(values, CodedStrings):
        return values.codes == values.null_code
    if values.strides == (0,) and len(values) > 1:
        # A literal's broadcast view: test its one value.
        return np.broadcast_to(null_mask(values[:1])[0], len(values))
    return np.equal(values, None) | np.not_equal(values, values)


def _null_safe_compare(lhs: np.ndarray, rhs: np.ndarray, op: str) -> np.ndarray:
    """Comparison where a NULL on either side compares False."""
    compare = _CMP[op]
    if lhs.dtype.kind != "O" and rhs.dtype.kind != "O":
        out = compare(lhs, rhs)
        if op == "<>":
            # NaN, the float NULL, already fails every other comparison.
            for side in (lhs, rhs):
                if side.dtype.kind == "f":
                    out &= ~np.isnan(side)
        return out
    # numpy's object loops call Python's own operators, so a mixed-type
    # ``<`` raises TypeError; NULLs are taken out first.
    null = null_mask(lhs) | null_mask(rhs)
    if not null.any():
        return compare(lhs, rhs)
    valid = ~null
    out = np.zeros(len(valid), dtype=bool)
    out[valid] = compare(lhs[valid], rhs[valid])
    return out


def _range_compare(op: str, left: Expr, right: Expr, bounds: Bounds) -> bool:
    """Prune ``col OP literal`` / ``literal OP col`` forms."""
    if isinstance(left, ColumnRef) and isinstance(right, Literal):
        column, value = left.name, right.value
    elif isinstance(right, ColumnRef) and isinstance(left, Literal):
        column, value = right.name, left.value
        op = {"<": ">", "<=": ">=", ">": "<", ">=": "<="}.get(op, op)
    else:
        return True
    if column not in bounds or value is None:
        return True
    lo, hi = bounds[column]
    if lo is None or hi is None:
        return True
    try:
        if op == "=":
            return lo <= value <= hi
        if op == "<>":
            return not (lo == value == hi)
        if op == "<":
            return lo < value
        if op == "<=":
            return lo <= value
        if op == ">":
            return hi > value
        if op == ">=":
            return hi >= value
    except TypeError:
        return True  # mixed types: cannot prune safely
    return True


class UnaryOp(Expr):
    def __init__(self, op: str, operand: Expr):
        if op not in ("not", "-"):
            raise ValueError(f"unknown unary operator {op!r}")
        self.op = op
        self.operand = operand

    def _evaluate(self, rows: RowSet) -> np.ndarray:
        value = self.operand.evaluate(rows)
        if self.op == "not":
            return np.logical_not(value.astype(bool))
        return -value

    def columns_used(self) -> Set[str]:
        return self.operand.columns_used()

    def could_match(self, bounds: Bounds) -> bool:
        # NOT cannot be pruned from child pruning info (child True means
        # "maybe", whose negation is also "maybe").
        return True

    def __repr__(self) -> str:
        return f"({self.op} {self.operand!r})"


class InList(Expr):
    def __init__(self, operand: Expr, values: Tuple[object, ...]):
        self.operand = operand
        self.values = values
        #: A NULL in the list equals nothing, and a NULL operand is in no list.
        self._non_null = [v for v in values if v is not None and v == v]

    def _evaluate(self, rows: RowSet) -> np.ndarray:
        value = self.operand.evaluate(rows)
        if value.dtype.kind == "O":
            allowed = set(self._non_null)
            return np.fromiter(
                map(allowed.__contains__, value.tolist()), dtype=bool, count=len(value)
            )
        return np.isin(value, np.asarray(self._non_null))

    def columns_used(self) -> Set[str]:
        return self.operand.columns_used()

    def could_match(self, bounds: Bounds) -> bool:
        if not isinstance(self.operand, ColumnRef):
            return True
        name = self.operand.name
        if name not in bounds:
            return True
        lo, hi = bounds[name]
        if lo is None or hi is None:
            return True
        try:
            return any(lo <= v <= hi for v in self.values if v is not None)
        except TypeError:
            return True

    def __repr__(self) -> str:
        return f"{self.operand!r} IN {self.values!r}"


class IsNull(Expr):
    def __init__(self, operand: Expr, negated: bool = False):
        self.operand = operand
        self.negated = negated

    def _evaluate(self, rows: RowSet) -> np.ndarray:
        nulls = null_mask(self.operand.evaluate(rows))
        return ~nulls if self.negated else nulls

    def columns_used(self) -> Set[str]:
        return self.operand.columns_used()

    def __repr__(self) -> str:
        return f"{self.operand!r} IS {'NOT ' if self.negated else ''}NULL"


class FuncCall(Expr):
    """Scalar functions: like, substr, year, month, abs, length."""

    _FUNCS = ("like", "substr", "year", "month", "abs", "length", "lower", "upper")

    def __init__(self, name: str, args: Tuple[Expr, ...]):
        name = name.lower()
        if name not in self._FUNCS:
            raise ValueError(f"unknown function {name!r}")
        self.name = name
        self.args = args

    def _evaluate(self, rows: RowSet) -> np.ndarray:
        values = [a.evaluate(rows) for a in self.args]
        if self.name == "like":
            pattern = self.args[1]
            if not isinstance(pattern, Literal):
                raise ExecutionError("LIKE pattern must be a literal")
            regex = re.compile(_like_to_regex(pattern.value), re.DOTALL)
            return _map_non_null(
                lambda v: regex.fullmatch(v) is not None, values[0], False, bool
            )
        if self.name == "substr":
            start = int(self.args[1].value) if isinstance(self.args[1], Literal) else 1
            length = (
                int(self.args[2].value)
                if len(self.args) > 2 and isinstance(self.args[2], Literal)
                else None
            )
            begin = start - 1  # SQL substr is 1-based
            end = None if length is None else begin + length
            return _map_non_null(lambda v: v[begin:end], values[0], None, object)
        if self.name in ("year", "month"):
            # Days since 1970-01-01 -> numpy's proleptic Gregorian calendar,
            # the one ``datetime.date`` uses.
            days = values[0].astype(np.int64, copy=False).astype("datetime64[D]")
            if self.name == "year":
                return days.astype("datetime64[Y]").astype(np.int64) + 1970
            return days.astype("datetime64[M]").astype(np.int64) % 12 + 1
        if self.name == "abs":
            return np.abs(values[0])
        if self.name == "length":
            return _map_non_null(len, values[0], 0, np.int64)
        if self.name == "lower":
            return _map_non_null(str.lower, values[0], None, object)
        return _map_non_null(str.upper, values[0], None, object)

    def columns_used(self) -> Set[str]:
        used: Set[str] = set()
        for a in self.args:
            used |= a.columns_used()
        return used

    def could_match(self, bounds: Bounds) -> bool:
        if self.name == "like" and isinstance(self.args[0], ColumnRef):
            # A LIKE with a literal prefix can prune on string ranges.
            pattern = self.args[1]
            if isinstance(pattern, Literal) and isinstance(pattern.value, str):
                prefix = _literal_prefix(pattern.value)
                if prefix:
                    name = self.args[0].name
                    if name in bounds:
                        lo, hi = bounds[name]
                        if lo is not None and hi is not None:
                            upper = prefix + "￿"
                            return not (hi < prefix or lo > upper)
        return True

    def __repr__(self) -> str:
        return f"{self.name}({', '.join(map(repr, self.args))})"


def extract_column_bounds(expr: Optional["Expr"]) -> Dict[str, Tuple[object, object]]:
    """Per-column [lo, hi] bounds implied by a predicate's AND-conjuncts.

    Only simple ``col OP literal`` conjuncts contribute; anything else is
    ignored (bounds stay conservative).  Used for block-level pruning: a
    block whose min/max falls outside a column's bounds cannot contain a
    matching row, because AND requires every conjunct to hold.
    """
    bounds: Dict[str, Tuple[object, object]] = {}

    def note(column: str, lo: object, hi: object) -> None:
        old_lo, old_hi = bounds.get(column, (None, None))
        if lo is not None and (old_lo is None or lo > old_lo):
            old_lo = lo
        if hi is not None and (old_hi is None or hi < old_hi):
            old_hi = hi
        bounds[column] = (old_lo, old_hi)

    def visit(node: "Expr") -> None:
        if isinstance(node, BinaryOp):
            if node.op == "and":
                visit(node.left)
                visit(node.right)
                return
            if node.op in _CMP:
                left, right, op = node.left, node.right, node.op
                if isinstance(right, ColumnRef) and isinstance(left, Literal):
                    left, right = right, left
                    op = {"<": ">", "<=": ">=", ">": "<", ">=": "<="}.get(op, op)
                if (
                    isinstance(left, ColumnRef)
                    and isinstance(right, Literal)
                    and right.value is not None
                ):
                    value = right.value
                    if op == "=":
                        note(left.name, value, value)
                    elif op in ("<", "<="):
                        note(left.name, None, value)
                    elif op in (">", ">="):
                        note(left.name, value, None)
        elif isinstance(node, InList) and isinstance(node.operand, ColumnRef):
            values = [v for v in node.values if v is not None]
            if values:
                try:
                    note(node.operand.name, min(values), max(values))
                except TypeError:
                    pass

    if expr is not None:
        visit(expr)
    return bounds


def _map_non_null(
    func: Callable[[object], object], values: np.ndarray, null: object, dtype
) -> np.ndarray:
    """``func`` of every non-NULL value of an object column, ``null`` where
    the value is ``None``.  A column that repeats arrives as codes and is
    mapped per dictionary entry (:meth:`Expr.evaluate`), not here."""
    column = values.tolist()
    out = [null if v is None else func(v) for v in column]
    return np.fromiter(out, dtype=dtype, count=len(column))


def _like_to_regex(pattern: str) -> str:
    """``%`` and ``_`` as ``.*`` and ``.``; compile with ``re.DOTALL`` so
    they match a newline too."""
    out = []
    for ch in pattern:
        if ch == "%":
            out.append(".*")
        elif ch == "_":
            out.append(".")
        else:
            out.append(re.escape(ch))
    return "".join(out)


def _literal_prefix(pattern: str) -> str:
    prefix = []
    for ch in pattern:
        if ch in ("%", "_"):
            break
        prefix.append(ch)
    return "".join(prefix)


class CaseWhen(Expr):
    """CASE WHEN cond THEN value ... ELSE default END."""

    def __init__(self, branches: List[Tuple[Expr, Expr]], default: Optional[Expr]):
        if not branches:
            raise ValueError("CASE requires at least one WHEN branch")
        self.branches = branches
        self.default = default if default is not None else Literal(None)

    def _evaluate(self, rows: RowSet) -> np.ndarray:
        result = self.default.evaluate(rows)
        decided = np.zeros(rows.num_rows, dtype=bool)
        # First matching branch wins; evaluate in order.
        out = None
        for cond, value in self.branches:
            mask = cond.evaluate(rows).astype(bool) & ~decided
            branch_value = value.evaluate(rows)
            if out is None:
                # Unify dtype: promote to object if kinds differ.
                if branch_value.dtype != result.dtype:
                    out = result.astype(object)
                else:
                    out = result.copy()
            out[mask] = branch_value[mask]
            decided |= mask
        return out if out is not None else result

    def columns_used(self) -> Set[str]:
        used = self.default.columns_used()
        for cond, value in self.branches:
            used |= cond.columns_used() | value.columns_used()
        return used

    def __repr__(self) -> str:
        return f"CASE({self.branches!r}, else={self.default!r})"
