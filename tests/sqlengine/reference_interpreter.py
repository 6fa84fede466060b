"""The tree-walking expression interpreter ``repro.sqlengine.expressions``
was until PR 22 — the reference arm of ``test_expression_differential``.

Verbatim from commit 4eaca9b apart from the imports and the value-layer
bug fixes that PR applied to the compiled evaluator as well (numbers
compare exactly; operands that do not order or negate raise
``TypeError_``), each marked ``FIX`` below: it is here to be compared
against, not to be maintained.  ``evaluate(expr, ctx)`` dispatches on
the node's class once per node per call; ``ctx.bindings`` is the row.
"""

from __future__ import annotations

import re
from typing import Any, Dict, List, Optional

from repro.sqlengine import ast_nodes as ast
from repro.sqlengine.errors import NameError_, TypeError_
from repro.sqlengine.functions import call_scalar

# SELECT-level aggregate handling lives in the executor; the evaluator
# refuses aggregates so misuse is caught early.
_AGGREGATES = frozenset({"COUNT", "SUM", "AVG", "MIN", "MAX"})


class EvalContext:
    """Everything an expression might need.

    ``bindings`` maps a table binding name (alias or table name, lowercase)
    to the current row dict (column name lowercase -> value).  ``parent``
    chains to an outer query's context for correlated subqueries.
    ``variables`` holds stored-procedure parameters.
    """

    __slots__ = ("executor", "session", "bindings", "params", "variables",
                 "parent")

    def __init__(self, executor, session, bindings: Optional[Dict[str, Dict]] = None,
                 params: Optional[List[Any]] = None,
                 variables: Optional[Dict[str, Any]] = None,
                 parent: Optional["EvalContext"] = None):
        self.executor = executor
        self.session = session
        self.bindings = bindings or {}
        self.params = params or []
        self.variables = variables or {}
        self.parent = parent

    def child(self, bindings: Dict[str, Dict]) -> "EvalContext":
        return EvalContext(self.executor, self.session, bindings,
                           self.params, self.variables, parent=self)

    def with_bindings(self, bindings: Dict[str, Dict]) -> "EvalContext":
        return EvalContext(self.executor, self.session, bindings,
                           self.params, self.variables, parent=self.parent)


def evaluate(expr: ast.Expression, ctx: EvalContext) -> Any:
    """Evaluate ``expr`` in ``ctx`` and return a plain Python value.

    Dispatch is one dict lookup on the node's concrete class —
    ``evaluate`` runs once per row per predicate, so it is the innermost
    loop of every scan.  ``_DISPATCH`` declares every concrete
    ``ast.Expression`` class; anything else is not evaluable.
    """
    handler = _DISPATCH.get(expr.__class__)
    if handler is None:
        raise TypeError_(f"cannot evaluate expression {expr!r}")
    return handler(expr, ctx)


def _eval_literal(expr: ast.Literal, ctx: EvalContext) -> Any:
    return expr.value


def _eval_param(expr: ast.Param, ctx: EvalContext) -> Any:
    if expr.index >= len(ctx.params):
        raise TypeError_(
            f"statement has parameter ${expr.index + 1} but only "
            f"{len(ctx.params)} value(s) were bound")
    return ctx.params[expr.index]


def _eval_isnull(expr: ast.IsNull, ctx: EvalContext) -> Any:
    value = evaluate(expr.expr, ctx)
    return (value is not None) if expr.negated else (value is None)


def _eval_case(expr: ast.Case, ctx: EvalContext) -> Any:
    for condition, result in expr.whens:
        if is_true(evaluate(condition, ctx)):
            return evaluate(result, ctx)
    return evaluate(expr.default, ctx) if expr.default is not None else None


def _eval_scalar_subquery(expr: ast.ScalarSubquery, ctx: EvalContext) -> Any:
    return ctx.executor.scalar_subquery(expr.select, ctx)


def _eval_exists(expr: ast.ExistsSubquery, ctx: EvalContext) -> Any:
    exists = ctx.executor.exists_subquery(expr.select, ctx)
    return not exists if expr.negated else exists


def _eval_star(expr: ast.Star, ctx: EvalContext) -> Any:
    raise TypeError_("'*' is only valid in a select list or COUNT(*)")


def is_true(value: Any) -> bool:
    """WHERE-clause truth: NULL and false are both rejected."""
    return value is not None and bool(value)


_MISSING = object()


def _resolve_column(expr: ast.ColumnRef, ctx: EvalContext) -> Any:
    # expr.name_lower / expr.table_lower are precomputed at parse time;
    # the single-binding unqualified case (every single-table WHERE) runs
    # with no allocation and no string work.
    name = expr.name_lower
    table = expr.table_lower
    context: Optional[EvalContext] = ctx
    while context is not None:
        bindings = context.bindings
        if table is not None:
            row = bindings.get(table)
            if row is not None and name in row:
                return row[name]
        elif len(bindings) == 1:
            for row in bindings.values():
                value = row.get(name, _MISSING)
                if value is not _MISSING:
                    return value
            if name in context.variables:
                return context.variables[name]
        else:
            matches = [row for row in bindings.values() if name in row]
            if len(matches) > 1:
                raise NameError_(f"ambiguous column reference {expr.name!r}")
            if matches:
                return matches[0][name]
            if name in context.variables:
                return context.variables[name]
        context = context.parent
    # Unqualified names also serve as procedure variables at top level.
    if table is None and name in ctx.variables:
        return ctx.variables[name]
    qualifier = f"{expr.table}." if expr.table else ""
    raise NameError_(f"unknown column {qualifier}{expr.name}")


def _eval_binary(expr: ast.BinaryOp, ctx: EvalContext) -> Any:
    op = expr.op
    if op == "AND":
        left = evaluate(expr.left, ctx)
        if left is not None and not left:
            return False
        right = evaluate(expr.right, ctx)
        if right is not None and not right:
            return False
        if left is None or right is None:
            return None
        return True
    if op == "OR":
        left = evaluate(expr.left, ctx)
        if left is not None and left:
            return True
        right = evaluate(expr.right, ctx)
        if right is not None and right:
            return True
        if left is None or right is None:
            return None
        return False

    left = evaluate(expr.left, ctx)
    right = evaluate(expr.right, ctx)
    if op == "||":
        if left is None or right is None:
            return None
        return str(left) + str(right)
    if left is None or right is None:
        return None
    func = _BINOP_FUNCS.get(op)
    if func is None:
        raise TypeError_(f"unknown operator {op}")
    try:
        return func(left, right)
    except TypeError as exc:
        raise TypeError_(f"operator {op} not supported between "
                         f"{type(left).__name__} and {type(right).__name__}") from exc


_INTEGER_TEXT = re.compile(r"\s*[+-]?[0-9]+\s*")


def _sql_equal(left: Any, right: Any) -> bool:
    if isinstance(left, bool) or isinstance(right, bool):
        return bool(left) == bool(right)
    # FIX (PR 22): two numbers used to compare as float(left) ==
    # float(right), which made 2**53 equal 2**53 + 1 on a scan and not
    # through an index probe.  Python compares int with int and int with
    # float exactly; only a string is converted — and a string that
    # spells an integer, beside an int, is read as that integer, so that
    # '9007199254740993' still equals 2**53 + 1 as it did when both sides
    # went through float() (and no longer equals 2**53).
    if type(left) is not type(right):
        # Permissive string/number comparison mirrors the loose typing of
        # MySQL-family engines.
        if isinstance(left, str) and isinstance(right, (int, float)):
            if type(right) is int and _INTEGER_TEXT.fullmatch(left):
                return int(left) == right
            try:
                return float(left) == right
            except ValueError:
                return False
        if isinstance(right, str) and isinstance(left, (int, float)):
            if type(left) is int and _INTEGER_TEXT.fullmatch(right):
                return int(right) == left
            try:
                return float(right) == left
            except ValueError:
                return False
    return left == right


def _coerce_pair(left: Any, right: Any, op: str) -> bool:
    if isinstance(left, str) and isinstance(right, (int, float)) and not isinstance(right, bool):
        try:
            left = float(left)
        except ValueError:
            raise TypeError_(f"cannot compare {left!r} with a number")
    if isinstance(right, str) and isinstance(left, (int, float)) and not isinstance(left, bool):
        try:
            right = float(right)
        except ValueError:
            raise TypeError_(f"cannot compare {right!r} with a number")
    # FIX (PR 22): operands that do not order ('<=' between a list and an
    # int through BETWEEN) used to escape as a bare TypeError.
    try:
        if op == "<":
            return left < right
        if op == "<=":
            return left <= right
        if op == ">":
            return left > right
        return left >= right
    except TypeError as exc:
        raise TypeError_(f"operator {op} not supported between "
                         f"{type(left).__name__} and "
                         f"{type(right).__name__}") from exc


def _op_div(left: Any, right: Any) -> Any:
    if right == 0:
        return None
    if isinstance(left, int) and isinstance(right, int) and left % right == 0:
        return left // right
    return left / right


def _op_mul(left: Any, right: Any) -> Any:
    # FIX: text times a count used to repeat the text ('ab' * 3), and
    # 2**53 repeats ran out of memory; only numbers multiply
    if not isinstance(left, (int, float)) \
            or not isinstance(right, (int, float)):
        raise TypeError("only numbers multiply")
    return left * right


def _op_mod(left: Any, right: Any) -> Any:
    if right == 0:
        return None
    return left % right


# One dict lookup per comparison/arithmetic op instead of a string-compare
# chain; AND/OR/|| stay inline in _eval_binary for their short-circuit and
# NULL handling.
_BINOP_FUNCS = {
    "=": _sql_equal,
    "<>": lambda left, right: not _sql_equal(left, right),
    "<": lambda left, right: _coerce_pair(left, right, "<"),
    "<=": lambda left, right: _coerce_pair(left, right, "<="),
    ">": lambda left, right: _coerce_pair(left, right, ">"),
    ">=": lambda left, right: _coerce_pair(left, right, ">="),
    "+": lambda left, right: left + right,
    "-": lambda left, right: left - right,
    "*": _op_mul,
    "/": _op_div,
    "%": _op_mod,
}


def _eval_unary(expr: ast.UnaryOp, ctx: EvalContext) -> Any:
    value = evaluate(expr.operand, ctx)
    if expr.op == "NOT":
        if value is None:
            return None
        return not value
    if expr.op == "-":
        if value is None:
            return None
        try:       # FIX (PR 22): -'abc' used to be a bare TypeError
            return -value
        except TypeError as exc:
            raise TypeError_(f"operator - not supported between "
                             f"{type(value).__name__}") from exc
    raise TypeError_(f"unknown unary operator {expr.op}")


def _eval_function(expr: ast.FunctionCall, ctx: EvalContext) -> Any:
    if expr.name in _AGGREGATES:
        raise TypeError_(
            f"aggregate {expr.name}() is not allowed in this context")
    if expr.name in ("NEXTVAL", "CURRVAL", "SETVAL"):
        return ctx.executor.sequence_function(expr, ctx)
    args = [evaluate(arg, ctx) for arg in expr.args]
    return call_scalar(ctx.session.engine.functions, expr.name, args,
                       session_user=ctx.session.user_name)


def _eval_in(expr: ast.InList, ctx: EvalContext) -> Any:
    value = evaluate(expr.expr, ctx)
    if value is None:
        return None
    if expr.subquery is not None:
        candidates = ctx.executor.column_subquery(expr.subquery, ctx)
    else:
        candidates = [evaluate(item, ctx) for item in expr.items]
    found = any(candidate is not None and _sql_equal(value, candidate)
                for candidate in candidates)
    if not found and any(candidate is None for candidate in candidates):
        return None
    return not found if expr.negated else found


def _eval_between(expr: ast.Between, ctx: EvalContext) -> Any:
    value = evaluate(expr.expr, ctx)
    low = evaluate(expr.low, ctx)
    high = evaluate(expr.high, ctx)
    if value is None or low is None or high is None:
        return None
    result = _coerce_pair(low, value, "<=") and _coerce_pair(value, high, "<=")
    return not result if expr.negated else result


def _eval_like(expr: ast.Like, ctx: EvalContext) -> Any:
    value = evaluate(expr.expr, ctx)
    pattern = evaluate(expr.pattern, ctx)
    if value is None or pattern is None:
        return None
    regex = _like_to_regex(str(pattern))
    result = regex.match(str(value)) is not None
    return not result if expr.negated else result


_LIKE_CACHE: Dict[str, "re.Pattern"] = {}


def _like_to_regex(pattern: str) -> "re.Pattern":
    compiled = _LIKE_CACHE.get(pattern)
    if compiled is None:
        parts = []
        for char in pattern:
            if char == "%":
                parts.append(".*")
            elif char == "_":
                parts.append(".")
            else:
                parts.append(re.escape(char))
        compiled = re.compile("^" + "".join(parts) + "$", re.DOTALL)
        if len(_LIKE_CACHE) < 1024:
            _LIKE_CACHE[pattern] = compiled
    return compiled


def sort_key(value: Any) -> tuple:
    """A total-order sort key over heterogeneous SQL values (NULLs first).
    A number is keyed by its own value: ``int`` and ``float`` compare
    exactly and hash alike where equal, whereas ``float()`` would merge
    integers past 2**53."""
    if value is None:
        return (0, 0, 0)
    if isinstance(value, (int, float)):
        return (1, 0, value)
    if isinstance(value, str):
        return (1, 1, value)
    if isinstance(value, bytes):
        return (1, 2, value)
    return (1, 3, str(value))


_DISPATCH: Dict[type, Any] = {
    ast.Literal: _eval_literal,
    ast.Param: _eval_param,
    ast.ColumnRef: _resolve_column,
    ast.BinaryOp: _eval_binary,
    ast.UnaryOp: _eval_unary,
    ast.FunctionCall: _eval_function,
    ast.InList: _eval_in,
    ast.Between: _eval_between,
    ast.Like: _eval_like,
    ast.IsNull: _eval_isnull,
    ast.Case: _eval_case,
    ast.ScalarSubquery: _eval_scalar_subquery,
    ast.ExistsSubquery: _eval_exists,
    ast.Star: _eval_star,
}
