"""Lightweight access-path planning for the execution hot path.

The planner looks at a statement's WHERE clause, pulls the equality and
``IN``-list conjuncts that bind columns of one table, and — when an index
covers all of an index's key columns — turns them into hash-index probe
keys.  Failing that, ``BETWEEN`` and ``< <= > >=`` conjuncts on a column
with a single-column index become a slice of that index's sorted keys
(an *index range*).  Everything else falls back to a sequential scan.
The candidates are always a *superset* of the rows the full predicate
accepts (the executor re-evaluates the complete WHERE on them), so
planning can only change cost, never results.

This is the piece the paper's §3.4/§5 critique asks middleware
evaluations to get right: without it, every point lookup, uniqueness
check and writeset apply is O(table) and scale-out numbers measure scan
cost rather than replication cost.
"""

from __future__ import annotations

import itertools
from typing import Any, Dict, List, Optional, Sequence

from . import ast_nodes as ast
from .errors import SQLError
from .expressions import NO_ROW, compile_expression, evaluate
from .storage import IndexDef, Table
from .types import ColumnType, coerce, is_numeric

# Multi-column IN-lists multiply; beyond this many probe keys a scan is
# cheaper anyway.
_MAX_PROBE_KEYS = 64

SEQ_SCAN = "seq-scan"
INDEX_PROBE = "index-probe"
INDEX_RANGE = "index-range"


class AccessPlan:
    """The chosen access path for one table reference.

    ``keys`` are the probe keys of an index probe; for an index range
    they are the positions of ``index.ordered`` the walk visits, as a
    ``range`` (so counting them visits nothing)."""

    __slots__ = ("kind", "table", "index", "keys")

    def __init__(self, kind: str, table: Table,
                 index: Optional[IndexDef] = None,
                 keys: Optional[Sequence] = None):
        self.kind = kind
        self.table = table
        self.index = index
        self.keys = [] if keys is None else keys

    @property
    def is_index(self) -> bool:
        """An equality probe: the read is proven to draw only from
        ``keys``.  A range walk is not — its dependants stay
        table-level."""
        return self.kind == INDEX_PROBE

    def describe(self) -> str:
        if self.index is not None:
            columns = ",".join(self.index.columns)
            return (f"{self.kind} {self.table.name}.{self.index.name} "
                    f"({columns}) keys={len(self.keys)}")
        return f"seq-scan {self.table.name}"

    def __repr__(self) -> str:
        return f"AccessPlan({self.describe()})"


def and_conjuncts(where: Optional[ast.Expression]):
    """Flatten a predicate into its top-level AND conjuncts."""
    if where is None:
        return
    stack = [where]
    while stack:
        expr = stack.pop()
        if isinstance(expr, ast.BinaryOp) and expr.op == "AND":
            stack.append(expr.left)
            stack.append(expr.right)
        else:
            yield expr


def _is_value_expr(expr: ast.Expression) -> bool:
    """Expressions safe to evaluate at plan time: no column references,
    no side effects, no subqueries."""
    if isinstance(expr, (ast.Literal, ast.Param)):
        return True
    if isinstance(expr, ast.UnaryOp):
        return _is_value_expr(expr.operand)
    return False


def _column_of(expr: ast.Expression, binding: str,
               table: Table) -> Optional[str]:
    """The table column ``expr`` names, if it belongs to ``binding``."""
    if not isinstance(expr, ast.ColumnRef):
        return None
    if expr.table is not None and expr.table.lower() != binding:
        return None
    name = expr.name.lower()
    if not table.has_column(name):
        return None
    return name


def equality_candidates(where: Optional[ast.Expression], binding: str,
                        table: Table) -> Dict[str, List[ast.Expression]]:
    """Map column -> candidate value expressions, from ``col = value`` and
    ``col IN (values...)`` conjuncts of ``where``."""
    candidates: Dict[str, List[ast.Expression]] = {}

    def record(column: str, values: List[ast.Expression]) -> None:
        # A column constrained twice: either conjunct's value set already
        # covers the intersection, keep the smaller one.
        existing = candidates.get(column)
        if existing is None or len(values) < len(existing):
            candidates[column] = values

    for conjunct in and_conjuncts(where):
        if isinstance(conjunct, ast.BinaryOp) and conjunct.op == "=":
            for column_side, value_side in ((conjunct.left, conjunct.right),
                                            (conjunct.right, conjunct.left)):
                column = _column_of(column_side, binding, table)
                if column is not None and _is_value_expr(value_side):
                    record(column, [value_side])
                    break
        elif isinstance(conjunct, ast.InList) and not conjunct.negated \
                and conjunct.items is not None:
            column = _column_of(conjunct.expr, binding, table)
            if column is not None and all(
                    _is_value_expr(item) for item in conjunct.items):
                record(column, list(conjunct.items))
    return candidates


def _choose_index(table: Table,
                  bound_columns: Sequence[str]) -> Optional[IndexDef]:
    """The best index whose key columns are all equality-bound: unique
    beats non-unique, then longer keys (more selective) win."""
    bound = set(bound_columns)
    best = None
    best_rank = None
    for index in table.indexes.values():
        if not index.columns or not all(c in bound for c in index.columns):
            continue
        rank = (index.unique, len(index.columns))
        if best_rank is None or rank > best_rank:
            best, best_rank = index, rank
    return best


def evaluate_value(expr: ast.Expression, ctx):
    """Evaluate a row-independent value expression at plan time."""
    return evaluate(expr, ctx)


# -- compiled plan shapes ---------------------------------------------------
#
# Conjunct extraction and index choice depend only on the statement shape
# and the table schema, not on parameter values, so they are compiled once
# per (WHERE clause, table, binding) and revalidated against
# ``table.schema_epoch``.  Re-executions of a cached statement only
# re-evaluate the probe-key or bound values.


class _ProbeShape:
    """The schema-dependent half of an index-probe plan: the chosen index
    and, per key column, the compiled candidate value expressions plus
    the column type their values coerce to."""

    __slots__ = ("index", "columns")

    def __init__(self, index: IndexDef,
                 columns: List[tuple]):
        self.index = index
        self.columns = columns  # [(closures, column_type)] per key column

    def plan(self, table: Table, ctx) -> AccessPlan:
        """This execution's probe keys: an uncoercible value, or one the
        row-level ``=`` does not match by its coerced key
        (:func:`_keyed_alike`), falls back to a scan; NULL keys are
        dropped (``col = NULL`` / ``col IN (..., NULL)`` never matches,
        so the probe stays a superset)."""
        per_column_values: List[List[Any]] = []
        for value_closures, column_type in self.columns:
            values = []
            for value_of in value_closures:
                try:
                    bound = value_of(NO_ROW, ctx)
                    value = coerce(bound, column_type)
                except SQLError:
                    return AccessPlan(SEQ_SCAN, table)
                if not _keyed_alike(bound, column_type):
                    return AccessPlan(SEQ_SCAN, table)
                if value is not None:
                    values.append(value)
            per_column_values.append(values)
        if len(per_column_values) == 1:
            keys = list(zip(per_column_values[0]))
        else:
            keys = [tuple(key)
                    for key in itertools.product(*per_column_values)]
        return AccessPlan(INDEX_PROBE, table, self.index, keys)


_TEXT_TYPES = (ColumnType.VARCHAR, ColumnType.TEXT, ColumnType.CLOB)


def _keyed_alike(value: Any, column_type: ColumnType) -> bool:
    """Whether ``col = value`` holds for exactly the rows keyed by
    ``value`` coerced to the column's type.  ``=`` compares truth values
    as soon as one side is a bool, so not for a bool beside a
    non-BOOLEAN column (``40 = TRUE`` holds) nor for text beside a
    BOOLEAN one (``TRUE = 'false'`` holds); and not for a number beside
    a text column (``'05' = 5`` holds, and ``'05'`` is not the key
    ``'5'``)."""
    if column_type is ColumnType.BOOLEAN:
        return not isinstance(value, str)
    if isinstance(value, bool):
        return False
    if column_type in _TEXT_TYPES:
        return value is None or isinstance(value, str)
    return True


class _RangeShape:
    """The schema-dependent half of an index-range plan: a single-column
    index, the kinds of value its keys order against, and the compiled
    bound expressions on either side, each with the ``after`` flag
    :meth:`IndexDef.position` takes (``col > v`` starts after ``v``,
    ``col <= v`` stops after it)."""

    __slots__ = ("index", "kinds", "lows", "highs")

    def __init__(self, index: IndexDef, kinds: tuple,
                 lows: List[tuple], highs: List[tuple]):
        self.index = index
        self.kinds = kinds
        self.lows = lows        # [(closure, after)]
        self.highs = highs

    def plan(self, table: Table, ctx) -> AccessPlan:
        """This execution's slice of the ordered keys.  Bounds compare
        uncoerced and only against keys of their own kind — the row-level
        comparison converts between strings and numbers, an order the
        index does not have — so any other bound falls back to the scan;
        a NULL bound matches no row at all."""
        index = self.index
        if index.ordered is None:
            return AccessPlan(SEQ_SCAN, table)
        start, stop = 0, len(index.ordered)
        for bounds, is_low in ((self.lows, True), (self.highs, False)):
            for value_of, after in bounds:
                try:
                    value = value_of(NO_ROW, ctx)
                except SQLError:
                    return AccessPlan(SEQ_SCAN, table)
                if value is None:
                    return AccessPlan(INDEX_RANGE, table, index, range(0))
                position = index.position(value, after) \
                    if type(value) in self.kinds else None
                if position is None:
                    return AccessPlan(SEQ_SCAN, table)
                if is_low:
                    start = max(start, position)
                else:
                    stop = min(stop, position)
        return AccessPlan(INDEX_RANGE, table, index, range(start, stop))


_UNCOMPILED = object()   # a compiled shape may be None ("always scans")


def plan_table_access(table: Table, binding: str,
                      where: Optional[ast.Expression],
                      ctx) -> AccessPlan:
    """Pick the access path for one table: an index probe when an index's
    key columns are fully equality-bound, else a walk of an ordered
    index's key range when a range conjunct bounds its column, else a
    sequential scan."""
    if where is None or not table.indexes:
        return AccessPlan(SEQ_SCAN, table)
    shape = _compile_shape(table, binding, where)
    if shape is None:
        return AccessPlan(SEQ_SCAN, table)
    return shape.plan(table, ctx)


def plan_table_access_cached(table: Table, binding: str,
                             where: Optional[ast.Expression],
                             ctx) -> AccessPlan:
    """Memoized :func:`plan_table_access`.

    The shapes live on the table they describe (``table.access_shapes``),
    keyed by the identity of the WHERE clause — the statement caches
    keep the trees alive — and the binding it is read under, so both
    sides of a self-join keep their own shape.  A shape is recompiled
    whenever ``table.schema_epoch`` moves (new/dropped index, added
    column).
    """
    if where is None or not table.indexes:
        return AccessPlan(SEQ_SCAN, table)
    shapes = table.access_shapes
    shape = shapes.get_for(where, table.schema_epoch, binding, _UNCOMPILED)
    if shape is _UNCOMPILED:
        shape = _compile_shape(table, binding, where)
        shapes.put_for(where, shape, table.schema_epoch, binding)
    if shape is None:
        return AccessPlan(SEQ_SCAN, table)
    return shape.plan(table, ctx)


def _compile_shape(table: Table, binding: str, where: ast.Expression):
    """The value-independent part of planning; ``None`` means the
    statement always sequential-scans this table.  An equality probe
    wins over a range walk."""
    return (_compile_probe(table, binding, where)
            or _compile_range(table, binding, where))


def _compile_probe(table: Table, binding: str,
                   where: ast.Expression) -> Optional[_ProbeShape]:
    candidates = equality_candidates(where, binding, table)
    if not candidates:
        return None
    index = _choose_index(table, list(candidates.keys()))
    if index is None:
        return None
    columns: List[tuple] = []
    total = 1
    for column in index.columns:
        exprs = candidates[column]
        total *= len(exprs)
        if total > _MAX_PROBE_KEYS:
            return None
        columns.append(([compile_expression(expr) for expr in exprs],
                        table.column(column).type))
    return _ProbeShape(index, columns)


# Flipping ``value op col`` into ``col op' value``.
_FLIPPED = {"<": ">", "<=": ">=", ">": "<", ">=": "<="}


def _key_kinds(column_type: ColumnType) -> Optional[tuple]:
    """The Python types the keys of an orderable column are; a bound of
    any other type does not order against them the way the row-level
    comparison does (``bool`` is deliberately neither).  ``None`` for a
    column whose keys the planner will not walk in order."""
    if is_numeric(column_type):
        return (int, float)
    if column_type in (ColumnType.VARCHAR, ColumnType.TEXT):
        return (str,)
    return None


def range_candidates(where: Optional[ast.Expression], binding: str,
                     table: Table) -> Dict[str, tuple]:
    """Map column -> ``(lows, highs)``, each a list of ``(value
    expression, after)``, from the non-negated ``col BETWEEN a AND b``
    and ``col < <= > >= value`` conjuncts of ``where`` (either operand
    order)."""
    candidates: Dict[str, tuple] = {}

    def record(column: str, op: str, value: ast.Expression) -> None:
        lows, highs = candidates.setdefault(column, ([], []))
        if op in (">", ">="):
            lows.append((value, op == ">"))
        else:
            highs.append((value, op == "<="))

    for conjunct in and_conjuncts(where):
        if isinstance(conjunct, ast.BinaryOp) and conjunct.op in _FLIPPED:
            for column_side, value_side, op in (
                    (conjunct.left, conjunct.right, conjunct.op),
                    (conjunct.right, conjunct.left, _FLIPPED[conjunct.op])):
                column = _column_of(column_side, binding, table)
                if column is not None and _is_value_expr(value_side):
                    record(column, op, value_side)
                    break
        elif isinstance(conjunct, ast.Between) and not conjunct.negated:
            column = _column_of(conjunct.expr, binding, table)
            if column is not None and _is_value_expr(conjunct.low) \
                    and _is_value_expr(conjunct.high):
                record(column, ">=", conjunct.low)
                record(column, "<=", conjunct.high)
    return candidates


def _compile_range(table: Table, binding: str,
                   where: ast.Expression) -> Optional[_RangeShape]:
    """The range shape of the best-bounded indexed column: both ends
    bounded beats one, then a unique index beats a non-unique one."""
    best = None
    best_rank = None
    for column, (lows, highs) in range_candidates(
            where, binding, table).items():
        index = table.index_for_columns((column,))
        kinds = _key_kinds(table.column(column).type)
        if index is None or kinds is None:
            continue
        rank = (bool(lows and highs), index.unique)
        if best_rank is None or rank > best_rank:
            best_rank = rank
            best = _RangeShape(index, kinds, *(
                [(compile_expression(expr), after) for expr, after in bounds]
                for bounds in (lows, highs)))
    return best


def select_has_subquery(select: ast.SelectStatement) -> bool:
    """Whether any part of ``select`` contains a subquery (scalar, EXISTS,
    ``IN (SELECT ...)`` or a derived table).  Read-dependency extraction
    (``repro.cache``) uses this: a probe proof only covers the outer
    table, so a statement with subqueries must fall back to broad
    table-level dependencies on everything it reads."""
    if isinstance(select.source, (ast.SubquerySource, ast.Join)):
        if _source_has_subquery(select.source):
            return True
    exprs = [expr for expr, _alias in select.columns]
    exprs.append(select.where)
    exprs.extend(select.group_by)
    exprs.append(select.having)
    exprs.extend(expr for expr, _asc in select.order_by)
    return any(_expr_has_subquery(expr) for expr in exprs)


def _source_has_subquery(source) -> bool:
    if isinstance(source, ast.SubquerySource):
        return True
    if isinstance(source, ast.Join):
        return (_source_has_subquery(source.left)
                or _source_has_subquery(source.right)
                or _expr_has_subquery(source.condition))
    return False


def _expr_has_subquery(expr) -> bool:
    if expr is None or isinstance(expr, (ast.Literal, ast.ColumnRef,
                                         ast.Param, ast.Star)):
        return False
    if isinstance(expr, (ast.ScalarSubquery, ast.ExistsSubquery)):
        return True
    if isinstance(expr, ast.InList):
        if expr.subquery is not None:
            return True
        return (_expr_has_subquery(expr.expr)
                or any(_expr_has_subquery(item)
                       for item in expr.items or []))
    if isinstance(expr, ast.FunctionCall):
        return any(_expr_has_subquery(arg) for arg in expr.args)
    if isinstance(expr, ast.BinaryOp):
        return (_expr_has_subquery(expr.left)
                or _expr_has_subquery(expr.right))
    if isinstance(expr, ast.UnaryOp):
        return _expr_has_subquery(expr.operand)
    if isinstance(expr, ast.Between):
        return any(_expr_has_subquery(sub)
                   for sub in (expr.expr, expr.low, expr.high))
    if isinstance(expr, ast.Like):
        return (_expr_has_subquery(expr.expr)
                or _expr_has_subquery(expr.pattern))
    if isinstance(expr, ast.IsNull):
        return _expr_has_subquery(expr.expr)
    if isinstance(expr, ast.Case):
        if _expr_has_subquery(expr.default):
            return True
        return any(_expr_has_subquery(c) or _expr_has_subquery(r)
                   for c, r in expr.whens)
    return False
