"""Partition-key extraction: which key values a statement pins.

Routing a statement to the one group (partition, site) that owns its
rows needs the values its ``WHERE`` clause or ``VALUES`` rows fix the
key column to.  The AST-shape questions are the same on every execution
of a cached statement, so they are answered once: the compilers here
return a :data:`KeyPlan` — a closure over the parameter slots that
yields the pinned values for one execution's bound parameters — or
``None`` when the statement never pins.  The shard router memoizes the
plan per statement; ``core.wan`` compiles per call.

A ``WHERE`` clause that fixes no values may still *bound* the key:
:func:`compile_range_plan` returns a :data:`RangePlan` yielding a closed
interval every matching row's key lies in, which a range-partitioned
caller turns into the owners of the intersecting segments.

Not pinning is always correct (the caller then asks every owner), so
anything doubtful does not pin: a ``NULL`` or missing key value, a bool
(``=`` compares it by truth value), a predicate on another table's
column of the same name, an unqualified column when the statement reads
more than one table, bounds that will not compare with each other.
"""

from __future__ import annotations

from functools import partial
from typing import Any, Callable, FrozenSet, List, Optional, Sequence, Tuple

from ..sqlengine import ast_nodes as ast
from .errors import UnsupportedStatementError

KeyPlan = Optional[Callable[[Sequence[Any]], Optional[List[Any]]]]
#: params -> ``[low, high]``, either end ``None`` for unbounded, or
#: ``None`` when this execution bounds nothing
RangePlan = Optional[Callable[[Sequence[Any]], Optional[List[Any]]]]

_UNPLACEABLE = ("INSERT shard-key values must be literals or bound "
                "parameters, neither a bound NULL nor a bool")


def literal_value(expr, params: Sequence[Any]) -> Optional[Any]:
    """The Python value of a literal or bound parameter, else None."""
    if isinstance(expr, ast.Literal):
        return expr.value
    if isinstance(expr, ast.Param) and expr.index < len(params):
        return params[expr.index]
    return None


def compile_key_plan(statement: ast.Statement, table: str,
                     key_column: str) -> KeyPlan:
    """The key plan of one statement against ``table`` (lowercase,
    unqualified), keyed on ``key_column`` (lowercase)."""
    if isinstance(statement, ast.InsertStatement):
        return _compile_insert_plan(statement, table, key_column)
    return compile_where_plan(statement, table, key_column)


def _compile_insert_plan(statement: ast.InsertStatement, table: str,
                         key_column: str) -> KeyPlan:
    """One key value per ``VALUES`` row; a row that cannot be placed is
    an error, at compile time when the shape shows it and per execution
    when a bound key is ``NULL`` or missing."""
    if statement.columns is None or statement.rows is None:
        raise UnsupportedStatementError(
            f"INSERT into sharded table {table!r} must list its "
            f"columns including the shard key {key_column!r}")
    lowered = [c.lower() for c in statement.columns]
    if key_column not in lowered:
        raise UnsupportedStatementError(
            f"INSERT into sharded table {table!r} without the "
            f"shard key {key_column!r}: the row cannot be placed")
    key_index = lowered.index(key_column)
    slots: List[Tuple[bool, Any]] = []
    for row in statement.rows:
        expr = row[key_index]
        if isinstance(expr, ast.Literal):
            slots.append((False, expr.value))    # a NULL key is placeable
        elif isinstance(expr, ast.Param):
            slots.append((True, expr.index))
        else:
            raise UnsupportedStatementError(_UNPLACEABLE)

    def plan(params: Sequence[Any]) -> List[Any]:
        values = _values(slots, params)
        if values is None:
            raise UnsupportedStatementError(_UNPLACEABLE)
        return values

    return plan


def compile_where_plan(statement: ast.Statement, table: Optional[str],
                       key_column: str) -> KeyPlan:
    """The key plan of a SELECT / UPDATE / DELETE's ``WHERE`` clause.

    Recognizes ``key = value``, ``key IN (values)`` (values literal or
    bound), conjunctions containing either, and disjunctions whose both
    sides pin.  ``table=None`` means whichever single table the
    statement is over."""
    where = getattr(statement, "where", None)
    if where is None:
        return None
    bindings, sole = bindings_of(statement, table)
    if not bindings:
        return None
    return _compile_where(where, key_column, bindings, sole)


def bindings_of(statement: ast.Statement,
                 table: Optional[str]) -> Tuple[FrozenSet[str], bool]:
    """``(bindings, sole)``: the qualifiers that mean ``table`` in this
    statement, and whether it is the statement's only table source — only
    then can an unqualified column be nothing but its own."""
    if isinstance(statement, ast.SelectStatement):
        source = statement.source
        sole = isinstance(source, ast.TableRef)
        if sole and table is None:
            return frozenset((source.binding,)), True
        found: List[str] = []
        _collect_bindings(source, table, found)
        return frozenset(found), sole
    target = getattr(statement, "table", None)      # UPDATE / DELETE
    if isinstance(target, ast.QualifiedName) \
            and (table is None or target.name.lower() == table):
        return frozenset((target.name.lower(),)), True
    return frozenset(), False


def _collect_bindings(source, table: Optional[str],
                      found: List[str]) -> None:
    if isinstance(source, ast.Join):
        _collect_bindings(source.left, table, found)
        _collect_bindings(source.right, table, found)
    elif isinstance(source, ast.TableRef) \
            and source.name.name.lower() == table:
        found.append(source.binding)


def _slot(expr) -> Optional[Tuple[bool, Any]]:
    """``(False, value)`` for a non-NULL literal, ``(True, index)`` for a
    bound parameter, ``None`` for anything else."""
    if isinstance(expr, ast.Literal) and expr.value is not None:
        return False, expr.value
    if isinstance(expr, ast.Param):
        return True, expr.index
    return None


def _values(slots, params: Sequence[Any]) -> Optional[List[Any]]:
    """The ``(is_param, value or index)`` slots' values under one
    execution's parameters; ``None`` when a bound one is NULL or missing,
    or any is a bool (``= TRUE`` matches every non-zero key, not 1)."""
    values = []
    for is_param, slot in slots:
        if is_param:
            slot = params[slot] if slot < len(params) else None
            if slot is None:
                return None
        if slot.__class__ is bool:
            return None
        values.append(slot)
    return values


def _is_key(expr, key_column: str, bindings: FrozenSet[str],
            sole: bool) -> bool:
    if not isinstance(expr, ast.ColumnRef) or expr.name_lower != key_column:
        return False
    if expr.table_lower is None:
        return sole
    return expr.table_lower in bindings


def _compile_where(where, key_column: str, bindings: FrozenSet[str],
                   sole: bool) -> KeyPlan:
    if isinstance(where, ast.BinaryOp):
        if where.op in ("AND", "OR"):
            left = _compile_where(where.left, key_column, bindings, sole)
            right = _compile_where(where.right, key_column, bindings, sole)
            if where.op == "OR":
                if left is None or right is None:
                    return None

                def either(params):
                    left_values = left(params)
                    right_values = right(params)
                    if left_values is None or right_values is None:
                        return None
                    return left_values + right_values

                return either
            if left is None:
                return right
            if right is None:
                return left

            def both(params):
                left_values = left(params)
                right_values = right(params)
                if left_values is not None and right_values is not None:
                    pinned = [v for v in left_values if v in right_values]
                    return pinned or left_values
                return (left_values if left_values is not None
                        else right_values)

            return both
        if where.op != "=":
            return None
        if _is_key(where.left, key_column, bindings, sole):
            items = [where.right]
        elif _is_key(where.right, key_column, bindings, sole):
            items = [where.left]
        else:
            return None
    elif isinstance(where, ast.InList) and not where.negated \
            and where.items \
            and _is_key(where.expr, key_column, bindings, sole):
        items = where.items
    else:
        return None
    slots = tuple(_slot(item) for item in items)
    if None in slots:
        return None
    return partial(_values, slots)


# -- range plans -------------------------------------------------------------

_LOW_OPS = {">": True, ">=": True, "<": False, "<=": False}
_OPEN = (False, None)       # the slot of an unbounded end


def compile_range_plan(statement: ast.Statement, table: Optional[str],
                       key_column: str) -> RangePlan:
    """The range plan of a SELECT / UPDATE / DELETE's ``WHERE`` clause.

    Recognizes ``key BETWEEN a AND b`` and ``key < <= > >= value`` in
    either operand order (values literal or bound, not negated),
    conjunctions containing either — the intersection — and disjunctions
    whose both sides bound — the hull.  The interval is closed and
    conservative (``key > 5`` yields ``low = 5``): it only ever has to
    contain the matching keys."""
    where = getattr(statement, "where", None)
    if where is None:
        return None
    bindings, sole = bindings_of(statement, table)
    if not bindings:
        return None
    return _compile_range(where, key_column, bindings, sole)


def _compile_range(where, key_column: str, bindings: FrozenSet[str],
                   sole: bool) -> RangePlan:
    if isinstance(where, ast.BinaryOp):
        if where.op in ("AND", "OR"):
            left = _compile_range(where.left, key_column, bindings, sole)
            right = _compile_range(where.right, key_column, bindings, sole)
            if where.op == "OR":
                if left is None or right is None:
                    return None
                return partial(_combine, left, right, False)
            if left is None or right is None:
                return left or right
            return partial(_combine, left, right, True)
        is_low = _LOW_OPS.get(where.op)
        if is_low is None:
            return None
        if _is_key(where.left, key_column, bindings, sole):
            slot = _slot(where.right)
        elif _is_key(where.right, key_column, bindings, sole):
            slot, is_low = _slot(where.left), not is_low
        else:
            return None
        ends = (slot, _OPEN) if is_low else (_OPEN, slot)
    elif isinstance(where, ast.Between) and not where.negated \
            and _is_key(where.expr, key_column, bindings, sole):
        ends = (_slot(where.low), _slot(where.high))
    else:
        return None
    if None in ends:
        return None
    # one atom's [low, high]; a bound end that is NULL or missing bounds
    # nothing (the atom then matches nothing, which nobody needs to know)
    return partial(_values, ends)


def _combine(left, right, intersect: bool,
             params: Sequence[Any]) -> Optional[List[Any]]:
    """AND intersects (a side that bounds nothing constrains nothing),
    OR takes the hull (a side that bounds nothing unbounds everything)."""
    a, b = left(params), right(params)
    if a is None or b is None:
        return (a or b) if intersect else None
    try:
        if intersect:
            return [_end(max, a[0], b[0], False),
                    _end(min, a[1], b[1], False)]
        return [_end(min, a[0], b[0], True), _end(max, a[1], b[1], True)]
    except TypeError:
        return None         # ends that will not compare bound nothing


def _end(pick, a, b, open_wins: bool):
    """One end of a combined interval; ``None`` is the open end."""
    if a is None or b is None:
        return None if open_wins else (a if b is None else b)
    return pick(a, b)
