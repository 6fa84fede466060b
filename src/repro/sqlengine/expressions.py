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
``column op value`` and ``column BETWEEN value AND value``, each value a
literal or a parameter — the predicates a scan runs per row — are fused
into one closure that reads the column and the values itself and
returns what the general closures would.
What a scan evaluates over every row — a one-table WHERE, a GROUP BY
key, an aggregate's argument — also has a batch form over the whole
list (:func:`compile_filter`, :func:`compile_values`), built once beside
the row closure, which stays the definition of every operator.
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
            raise _unbound(index, ctx) from None
    return param


def _unbound(index: int, ctx: EvalContext) -> TypeError_:
    return TypeError_(
        f"statement has parameter ${index + 1} but only "
        f"{len(ctx.params)} value(s) were bound")


def _value_source(expr: ast.Expression) -> Optional[tuple]:
    """``(param index, literal value)`` — the index ``None`` for a
    literal — when ``expr`` is a literal or a parameter: a value that is
    the same for every row of one execution.  ``None`` for any other
    node."""
    if expr.__class__ is ast.Param:
        return expr.index, None
    if expr.__class__ is ast.Literal:
        return None, expr.value
    return None


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


def _op_mul(left: Any, right: Any) -> Any:
    # numbers only: Python would repeat text (or a list) by a count
    if not isinstance(left, (int, float)) \
            or not isinstance(right, (int, float)):
        raise TypeError("only numbers multiply")
    return left * right


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
    "*": _op_mul,
    "/": _op_div,
    "%": _op_mod,
    "||": lambda left, right: str(left) + str(right),
}


def _build_binary(expr: ast.BinaryOp, binding) -> Compiled:
    table = _direct_table(expr.left, binding)
    value = _value_source(expr.right)
    if table is not None and value is not None and expr.op in _BINOP_FUNCS:
        return _column_op_value(expr.op, expr.left, table, *value)
    return combine_binary(expr.op, compile_expression(expr.left, binding),
                          compile_expression(expr.right, binding))


def _direct_table(expr: ast.Expression, binding) -> Optional[str]:
    """The binding a column reference reads directly (as
    :func:`_build_column` does), or ``None`` when ``expr`` is no such
    reference."""
    if expr.__class__ is not ast.ColumnRef:
        return None
    return expr.table_lower or binding


def _column_op_value(op: str, column: ast.ColumnRef, table: str,
                     index: Optional[int], value: Any) -> Compiled:
    """``column op value`` for a literal or parameter value, fused: the
    closure :func:`combine_binary` builds over the column's and the
    value's closures, with both of them written out in it — one call per
    row instead of three."""
    name = column.name_lower
    func = _BINOP_FUNCS[op]
    exact = _EXACT.get(op, func)

    def column_op_value(row, ctx):
        try:
            a = row[table][name]
        except KeyError:
            a = _resolve_column(column, row, ctx)
        if index is None:
            b = value
        else:
            try:
                b = ctx.params[index]
            except IndexError:
                raise _unbound(index, ctx) from None
        if a is None or b is None:
            return None
        if type(a) is int and type(b) is int:
            return exact(a, b)
        try:
            return func(a, b)
        except TypeError as exc:
            raise _unsupported(op, a, b) from exc
    return column_op_value


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
    table = _direct_table(expr.expr, binding)
    low, high = _value_source(expr.low), _value_source(expr.high)
    if table is not None and low is not None and high is not None:
        return _column_between(expr.expr, table, low, high, expr.negated)
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


def _column_between(column: ast.ColumnRef, table: str, low_source: tuple,
                    high_source: tuple, negated: bool) -> Compiled:
    """``column [NOT] BETWEEN low AND high`` for literal or parameter
    bounds (:func:`_value_source` pairs), fused as
    :func:`_column_op_value` is: one call per row instead of four."""
    name = column.name_lower
    (low_index, low_value), (high_index, high_value) = low_source, high_source

    def column_between(row, ctx):
        try:
            value = row[table][name]
        except KeyError:
            value = _resolve_column(column, row, ctx)
        params = ctx.params
        try:
            low = low_value if low_index is None else params[low_index]
            high = high_value if high_index is None else params[high_index]
        except IndexError:
            raise _unbound(high_index if low_index is None
                           or low_index < len(params) else low_index,
                           ctx) from None
        if value is None or low is None or high is None:
            return None
        if type(value) is int and type(low) is int and type(high) is int:
            result = low <= value <= high
        else:
            result = _coerce_pair(low, value, "<=") \
                and _coerce_pair(value, high, "<=")
        return not result if negated else result
    return column_between


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


# -- batch forms: one call per list of rows ----------------------------------
#
# A batch form decides natively only what the row closure decides on its
# int fast path and hands every other row to the row closure, in order:
# it keeps, returns and raises exactly what a loop over the row closure
# would.

#: ``keep(versions, ctx)``: the versions whose values pass, in order
Keep = Callable[[List[Any], EvalContext], List[Any]]


def compile_filter(where: ast.Expression, binding: str) -> Keep:
    """The WHERE of a statement over the one table bound as ``binding``:
    each version is tested on its ``values`` where it lies (a NULL
    verdict fails, as everywhere in WHERE).  ``column op value`` (a
    comparison) and ``column [NOT] BETWEEN value AND value`` over this
    table's column, each value a literal or a parameter, decide an int
    row against int values inline."""
    test = compile_expression(where, binding)
    each = _keep_each(test, binding)
    if where.__class__ is ast.BinaryOp and where.op in _EXACT:
        column, sources = where.left, (_value_source(where.right),)
    elif where.__class__ is ast.Between:
        column = where.expr
        sources = (_value_source(where.low), _value_source(where.high))
    else:
        return each
    if None in sources or _direct_table(column, binding) != binding:
        return each
    if len(sources) == 1:
        return _keep_compared(_EXACT[where.op], column.name_lower,
                              sources[0], test, each, binding)
    return _keep_between(column.name_lower, sources, where.negated, test,
                         each, binding)


def _keep_each(test: Compiled, binding: str) -> Keep:
    """``test`` over each version in turn, in one reused row dict."""
    def keep(versions, ctx):
        row = {binding: None}
        kept = []
        for version in versions:
            row[binding] = version.values
            if test(row, ctx):
                kept.append(version)
        return kept
    return keep


def _operand(source: tuple, ctx: EvalContext) -> Any:
    """A :func:`_value_source` pair's value in this execution; ``None``
    (which the row closure then decides on) for an unbound parameter."""
    index, value = source
    if index is None:
        return value
    params = ctx.params
    return params[index] if index < len(params) else None


def _keep_compared(exact: Callable, name: str, source: tuple,
                   test: Compiled, each: Keep, binding: str) -> Keep:
    def keep(versions, ctx):
        b = _operand(source, ctx)
        if type(b) is not int:
            return each(versions, ctx)
        row = {binding: None}
        kept = []
        for version in versions:
            a = version.values.get(name)
            if type(a) is int:
                if exact(a, b):
                    kept.append(version)
            else:
                row[binding] = version.values
                if test(row, ctx):
                    kept.append(version)
        return kept
    return keep


def _keep_between(name: str, sources: tuple, negated: bool, test: Compiled,
                  each: Keep, binding: str) -> Keep:
    def keep(versions, ctx):
        low, high = _operand(sources[0], ctx), _operand(sources[1], ctx)
        if type(low) is not int or type(high) is not int:
            return each(versions, ctx)
        row = {binding: None}
        kept = []
        for version in versions:
            a = version.values.get(name)
            if type(a) is int:
                if (low <= a <= high) is not negated:
                    kept.append(version)
            else:
                row[binding] = version.values
                if test(row, ctx):
                    kept.append(version)
        return kept
    return keep


def compile_values(expr: ast.Expression, binding: Optional[str] = None):
    """``values(rows, ctx)``: ``expr``'s value on each binding row, in
    order.  A plain column is read in one comprehension; when a row lacks
    it (an outer reference) the row closure answers the whole list.  Any
    other expression maps its row closure over the rows."""
    closure = compile_expression(expr, binding)
    table = _direct_table(expr, binding)
    if table is None:
        return lambda rows, ctx: [closure(row, ctx) for row in rows]
    name = expr.name_lower

    def values(rows, ctx):
        try:
            return [row[table][name] for row in rows]
        except KeyError:
            return [closure(row, ctx) for row in rows]
    return values


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


def sort_keys(values: Sequence[Any]) -> List[tuple]:
    """``[sort_key(value) for value in values]``, an int keyed inline."""
    return [(1, 0, value) if type(value) is int else sort_key(value)
            for value in values]


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
