"""Expression compilation: one evaluator, and it is a compiler.

A tree becomes, once, a closure ``fn(row_bindings, ctx)``, and the
closure is what runs per row.  ``row_bindings`` maps a table binding
(alias or table name, lowercase) to the current row dict; ``ctx`` is the
*statement's* :class:`EvalContext` — parameters, procedure variables and
the outer rows a correlated subquery sees — so judging a row allocates
nothing.  ``_DISPATCH`` maps each concrete ``ast.Expression`` class to
its closure builder and is consulted once per node per build.

Decided at build time: every operator, literal values, and where a
column lives — ``t.c``, and an unqualified ``c`` in a statement whose
rows carry the one binding ``t``, read ``row_bindings["t"]["c"]``
directly.  The miss path is :func:`_resolve_column`, the full walk
(procedure variables, correlated parents, the ambiguity error).
Subquery and sequence nodes build a ``ctx.child(row_bindings)`` only
when they fire.  Nothing read at build time depends on the schema, so a
closure is valid for as long as its tree is; the executor keeps all of a
statement's closures in one ``Executor.compiled`` entry and tests a
one-table statement's rows where they lie, before copying them.

SQL three-valued logic is approximated: comparisons with NULL yield
NULL, AND/OR propagate NULL, and WHERE treats NULL as false.  An
operator that cannot take its operands raises :class:`TypeError_`, never
a bare Python exception.
"""

from __future__ import annotations

import operator
import re
from typing import Any, Callable, Dict, List, Optional, Sequence

from . import ast_nodes as ast
from .errors import NameError_, TypeError_
from .functions import AGGREGATE_FUNCTIONS, call_scalar

#: a compiled expression: ``fn(row_bindings, ctx) -> value``
Compiled = Callable[[Dict[str, Dict[str, Any]], "EvalContext"], Any]


class EvalContext:
    """Everything an expression might need beside the row.

    ``bindings`` is the row of the *enclosing* statement when this
    statement is a correlated subquery (empty at top level); ``parent``
    chains further out.  ``variables`` holds stored-procedure parameters.
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


#: the row of an expression evaluated outside any row (never mutated)
NO_ROW: Dict[str, Dict[str, Any]] = {}


def compile_expression(expr: ast.Expression,
                       binding: Optional[str] = None) -> Compiled:
    """The closure for ``expr``.  ``binding`` is given when every row the
    closure will see carries exactly that one binding (a statement over
    one table): unqualified column names then read it directly.
    ``_DISPATCH`` declares every concrete ``ast.Expression`` class;
    anything else is not evaluable."""
    builder = _DISPATCH.get(expr.__class__)
    if builder is None:
        raise TypeError_(f"cannot evaluate expression {expr!r}")
    return builder(expr, binding)


def evaluate(expr: ast.Expression, ctx: EvalContext) -> Any:
    """Build and call once, outside any row: ``LIMIT``, ``SET``, a
    sequence name, the planner's probe values."""
    return compile_expression(expr)(NO_ROW, ctx)


def evaluate_each(exprs: Sequence[ast.Expression],
                  ctx: EvalContext) -> List[Any]:
    """One value per expression, each built and called once — a
    ``VALUES`` row, ``CALL`` arguments: nothing there repeats."""
    return [compile_expression(expr)(NO_ROW, ctx) for expr in exprs]


def raising(message: str) -> Compiled:
    """A node that is an error to evaluate, not to compile: a statement
    over no rows never meets it."""
    def fail(row, ctx):
        raise TypeError_(message)
    return fail


def _build_literal(expr: ast.Literal, binding) -> Compiled:
    value = expr.value
    return lambda row, ctx: value


def _build_param(expr: ast.Param, binding) -> Compiled:
    index = expr.index

    def param(row, ctx):
        try:
            return ctx.params[index]
        except IndexError:
            raise TypeError_(
                f"statement has parameter ${index + 1} but only "
                f"{len(ctx.params)} value(s) were bound") from None
    return param


def _build_column(expr: ast.ColumnRef, binding) -> Compiled:
    name = expr.name_lower
    table = expr.table_lower or binding
    if table is None:
        return lambda row, ctx: _resolve_column(expr, row, ctx)

    def column(row, ctx):
        try:
            return row[table][name]
        except KeyError:
            return _resolve_column(expr, row, ctx)
    return column


def _resolve_column(expr: ast.ColumnRef, row: Dict[str, Dict],
                    ctx: EvalContext) -> Any:
    """The full name walk: ``row``, then the rows of each enclosing
    statement, innermost first; procedure variables answer an
    unqualified name no row of that level has."""
    name = expr.name_lower
    table = expr.table_lower
    bindings = row
    context: Optional[EvalContext] = ctx
    while True:
        if table is not None:
            values = bindings.get(table)
            if values is not None and name in values:
                return values[name]
        else:
            matches = [values for values in bindings.values()
                       if name in values]
            if len(matches) > 1:
                raise NameError_(f"ambiguous column reference {expr.name!r}")
            if matches:
                return matches[0][name]
            if name in ctx.variables:
                return ctx.variables[name]
        if context is None:
            break
        bindings, context = context.bindings, context.parent
    qualifier = f"{expr.table}." if expr.table else ""
    raise NameError_(f"unknown column {qualifier}{expr.name}")


def _sql_equal(left: Any, right: Any) -> bool:
    if isinstance(left, bool) or isinstance(right, bool):
        return bool(left) == bool(right)
    if type(left) is not type(right):
        # Permissive string/number comparison mirrors the loose typing of
        # MySQL-family engines.  Python compares int with int and int
        # with float exactly, so numbers are never converted.
        if isinstance(left, str) and isinstance(right, (int, float)):
            left, right = right, left
        if isinstance(right, str) and isinstance(left, (int, float)):
            # an int spelled as text stays exact past 2**53
            for number in (int, float) if type(left) is int else (float,):
                try:
                    return left == number(right)
                except ValueError:
                    pass
            return False
    return left == right


def _coerce_pair(left: Any, right: Any, op: str) -> bool:
    if isinstance(left, str) and _is_number(right):
        left = _as_number(left)
    elif isinstance(right, str) and _is_number(left):
        right = _as_number(right)
    try:
        return _EXACT[op](left, right)
    except TypeError as exc:
        raise _unsupported(op, left, right) from exc


def _is_number(value: Any) -> bool:
    return isinstance(value, (int, float)) and not isinstance(value, bool)


def _as_number(text: str) -> float:
    try:
        return float(text)
    except ValueError:
        raise TypeError_(f"cannot compare {text!r} with a number") from None


def _unsupported(op: str, *operands: Any) -> TypeError_:
    kinds = " and ".join(type(operand).__name__ for operand in operands)
    return TypeError_(f"operator {op} not supported for {kinds}")


def _op_div(left: Any, right: Any) -> Any:
    if right == 0:
        return None
    if isinstance(left, int) and isinstance(right, int) and left % right == 0:
        return left // right
    return left / right


def _op_mod(left: Any, right: Any) -> Any:
    if right == 0:
        return None
    return left % right


# What each comparison does to two ints that are not bools — exactly what
# its _BINOP_FUNCS entry returns for them, without the type inspection.
_EXACT = {
    "=": operator.eq, "<>": operator.ne, "<": operator.lt,
    "<=": operator.le, ">": operator.gt, ">=": operator.ge,
}

_BINOP_FUNCS = {
    "=": _sql_equal,
    "<>": lambda left, right: not _sql_equal(left, right),
    "<": lambda left, right: _coerce_pair(left, right, "<"),
    "<=": lambda left, right: _coerce_pair(left, right, "<="),
    ">": lambda left, right: _coerce_pair(left, right, ">"),
    ">=": lambda left, right: _coerce_pair(left, right, ">="),
    "+": operator.add,
    "-": operator.sub,
    "*": operator.mul,
    "/": _op_div,
    "%": _op_mod,
    "||": lambda left, right: str(left) + str(right),
}


def _build_binary(expr: ast.BinaryOp, binding) -> Compiled:
    return combine_binary(expr.op, compile_expression(expr.left, binding),
                          compile_expression(expr.right, binding))


def combine_binary(op: str, left: Callable, right: Callable) -> Callable:
    """``left op right`` over two closures ``fn(x, ctx)`` — whatever
    ``x`` is: the executor combines per-group aggregate closures with
    it too."""
    if op in ("AND", "OR"):
        decides = op == "OR"    # the operand value that settles the result

        def logic(row, ctx):
            a = left(row, ctx)
            if a is not None and bool(a) is decides:
                return decides
            b = right(row, ctx)
            if b is not None and bool(b) is decides:
                return decides
            return None if a is None or b is None else not decides
        return logic
    func = _BINOP_FUNCS.get(op)
    if func is None:
        return raising(f"unknown operator {op}")
    exact = _EXACT.get(op, func)    # no shortcut: the function itself

    def binary(row, ctx):
        a = left(row, ctx)
        b = right(row, ctx)
        if a is None or b is None:
            return None
        if type(a) is int and type(b) is int:
            return exact(a, b)
        try:
            return func(a, b)
        except TypeError as exc:
            raise _unsupported(op, a, b) from exc
    return binary


def _build_unary(expr: ast.UnaryOp, binding) -> Compiled:
    return combine_unary(expr.op, compile_expression(expr.operand, binding))


def combine_unary(op: str, operand: Callable) -> Callable:
    func = {"NOT": operator.not_, "-": operator.neg}.get(op)
    if func is None:
        return raising(f"unknown unary operator {op}")

    def unary(row, ctx):
        value = operand(row, ctx)
        if value is None:
            return None
        try:
            return func(value)
        except TypeError as exc:
            raise _unsupported(op, value) from exc
    return unary


def _build_function(expr: ast.FunctionCall, binding) -> Compiled:
    name = expr.name
    # SELECT-level aggregate handling lives in the executor; anywhere
    # else an aggregate is misuse.
    if name in AGGREGATE_FUNCTIONS:
        return raising(
            f"aggregate {name}() is not allowed in this context")
    if name in ("NEXTVAL", "CURRVAL", "SETVAL"):
        return lambda row, ctx: ctx.executor.sequence_function(
            expr, ctx.child(row))
    args = [compile_expression(arg, binding) for arg in expr.args]

    def call(row, ctx):
        session = ctx.session
        return call_scalar(session.engine.functions, name,
                           [arg(row, ctx) for arg in args],
                           session_user=session.user_name)
    return call


def _build_in(expr: ast.InList, binding) -> Compiled:
    value_of = compile_expression(expr.expr, binding)
    subquery, negated = expr.subquery, expr.negated
    items = [compile_expression(item, binding) for item in expr.items or []]

    def in_list(row, ctx):
        value = value_of(row, ctx)
        if value is None:
            return None
        if subquery is not None:
            candidates = ctx.executor.column_subquery(subquery,
                                                      ctx.child(row))
        else:
            candidates = [item(row, ctx) for item in items]
        found = any(candidate is not None and _sql_equal(value, candidate)
                    for candidate in candidates)
        if not found and any(candidate is None for candidate in candidates):
            return None
        return not found if negated else found
    return in_list


def _build_between(expr: ast.Between, binding) -> Compiled:
    value_of = compile_expression(expr.expr, binding)
    low_of = compile_expression(expr.low, binding)
    high_of = compile_expression(expr.high, binding)
    negated = expr.negated

    def between(row, ctx):
        value = value_of(row, ctx)
        low = low_of(row, ctx)
        high = high_of(row, ctx)
        if value is None or low is None or high is None:
            return None
        if type(value) is int and type(low) is int and type(high) is int:
            result = low <= value <= high
        else:
            result = _coerce_pair(low, value, "<=") \
                and _coerce_pair(value, high, "<=")
        return not result if negated else result
    return between


def _build_like(expr: ast.Like, binding) -> Compiled:
    value_of = compile_expression(expr.expr, binding)
    pattern_of = compile_expression(expr.pattern, binding)
    negated = expr.negated

    def like(row, ctx):
        value = value_of(row, ctx)
        pattern = pattern_of(row, ctx)
        if value is None or pattern is None:
            return None
        result = _like_to_regex(str(pattern)).match(str(value)) is not None
        return not result if negated else result
    return like


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


def _build_isnull(expr: ast.IsNull, binding) -> Compiled:
    value_of = compile_expression(expr.expr, binding)
    if expr.negated:
        return lambda row, ctx: value_of(row, ctx) is not None
    return lambda row, ctx: value_of(row, ctx) is None


def _build_case(expr: ast.Case, binding) -> Compiled:
    whens = [(compile_expression(condition, binding),
              compile_expression(result, binding))
             for condition, result in expr.whens]
    default = None if expr.default is None \
        else compile_expression(expr.default, binding)

    def case(row, ctx):
        for condition, result in whens:
            value = condition(row, ctx)
            if value is not None and value:
                return result(row, ctx)
        return None if default is None else default(row, ctx)
    return case


def _build_scalar_subquery(expr: ast.ScalarSubquery, binding) -> Compiled:
    select = expr.select
    return lambda row, ctx: ctx.executor.scalar_subquery(
        select, ctx.child(row))


def _build_exists(expr: ast.ExistsSubquery, binding) -> Compiled:
    select, negated = expr.select, expr.negated

    def exists(row, ctx):
        found = ctx.executor.exists_subquery(select, ctx.child(row))
        return not found if negated else found
    return exists


def _build_star(expr: ast.Star, binding) -> Compiled:
    return raising("'*' is only valid in a select list or COUNT(*)")


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


_DISPATCH: Dict[type, Callable[[Any, Optional[str]], Compiled]] = {
    ast.Literal: _build_literal,
    ast.Param: _build_param,
    ast.ColumnRef: _build_column,
    ast.BinaryOp: _build_binary,
    ast.UnaryOp: _build_unary,
    ast.FunctionCall: _build_function,
    ast.InList: _build_in,
    ast.Between: _build_between,
    ast.Like: _build_like,
    ast.IsNull: _build_isnull,
    ast.Case: _build_case,
    ast.ScalarSubquery: _build_scalar_subquery,
    ast.ExistsSubquery: _build_exists,
    ast.Star: _build_star,
}
