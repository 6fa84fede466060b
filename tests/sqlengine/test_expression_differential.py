"""The compiled evaluator against the interpreter it replaced.

Hypothesis builds expression trees over every ``ast.Expression`` class
but the subquery ones — literals of every kind the engine stores
(``None``, bools, ints on both sides of 2**53, floats with NaN, strings
that look like numbers and strings that do not), parameters, qualified
and unqualified columns, every operator of ``_BINOP_FUNCS``, ``AND`` /
``OR`` / ``NOT``, ``||``, ``BETWEEN``, ``IN``, ``LIKE``, ``IS NULL``,
``CASE`` and the deterministic scalar functions — and rows to evaluate
them on.  ``compile_expression(tree)(row, ctx)`` must return what
``reference_interpreter.evaluate(tree, row context)`` returns, ``None``
and ``False`` told apart, or raise the same exception class, and that
class is a ``SQLError``.

The row shapes cover the three ways a name resolves: one binding (the
closure is built with the binding hint, as the executor does for a
one-table statement), two bindings (an unqualified name present in both
is ambiguous), and a procedure variable named like a column.
"""

import math

import pytest
from hypothesis import example, given, settings, strategies as st

from repro.sqlengine import Engine, SQLError, generic
from repro.sqlengine import ast_nodes as ast
from repro.sqlengine.expressions import EvalContext, compile_expression

from . import reference_interpreter as reference

BIG = 2 ** 53
# few enough values that operands often collide
_INTS = st.sampled_from((0, 1, 2, 3, 10, -1, BIG, BIG + 1, -BIG - 1))
_FLOATS = st.sampled_from((0.0, 1.0, 2.5, float(BIG), float("nan"),
                           float("inf")))
_STRS = st.sampled_from(("10", "9", "", "a", "ab", "%a", "a_", "2.5",
                         str(BIG + 1), " -1 ", "1e1"))
_VALUES = st.one_of(st.none(), st.booleans(), _INTS, _FLOATS, _STRS)
# what a hostile client can bind: a value no column holds
_PARAMS = st.one_of(_VALUES, st.just([1]), st.just(b"x"))

# mostly well-typed, so that most trees have a value for a wrong
# operator to change: k and v are numbers, pad is text
COLUMNS = ("k", "v", "pad")
_NUMBERS = st.one_of(_INTS, _INTS, _INTS, _FLOATS, _VALUES)
_ROWS = st.fixed_dictionaries(
    {"k": _NUMBERS, "v": _NUMBERS, "pad": st.one_of(_STRS, _STRS, _VALUES)})

_LITERALS = st.one_of(_NUMBERS, _VALUES).map(ast.Literal)
_PARAM_NODES = st.integers(0, 3).map(ast.Param)     # 3 is never bound
_COLUMN_NODES = st.builds(
    ast.ColumnRef, st.sampled_from(COLUMNS + ("nosuch",)),
    st.sampled_from((None, None, "t", "u", "T")))
_LEAVES = st.one_of(_LITERALS, _PARAM_NODES, _COLUMN_NODES, _COLUMN_NODES)

_COMPARISONS = ("=", "<>", "<", "<=", ">", ">=")
_ARITHMETIC = ("+", "-", "*", "/", "%", "||")
# deterministic scalar functions and an arity each accepts
_FUNCTIONS = (("COALESCE", 2), ("NULLIF", 2), ("UPPER", 1), ("LOWER", 1),
              ("LENGTH", 1), ("CONCAT", 2), ("ABS", 1), ("GREATEST", 2),
              ("LEAST", 2), ("USER", 0), ("FROBNICATE", 1), ("SUM", 1))


def _function_calls(inner):
    return st.sampled_from(_FUNCTIONS).flatmap(
        lambda spec: st.builds(
            ast.FunctionCall, st.just(spec[0]),
            st.lists(inner, min_size=spec[1], max_size=spec[1])))


def _nodes(inner):
    return st.one_of(
        # operators are most of what runs per row: most of the draws
        st.builds(ast.BinaryOp, st.sampled_from(_COMPARISONS), inner, inner),
        st.builds(ast.BinaryOp, st.sampled_from(_COMPARISONS), inner, inner),
        st.builds(ast.BinaryOp, st.sampled_from(_ARITHMETIC), inner, inner),
        st.builds(ast.BinaryOp, st.sampled_from(("AND", "OR")), inner, inner),
        st.builds(ast.BinaryOp, st.sampled_from(("AND", "OR")), inner, inner),
        st.builds(ast.UnaryOp, st.sampled_from(("NOT", "-")), inner),
        st.builds(ast.Between, inner, inner, inner, st.booleans()),
        st.builds(ast.InList, inner, st.lists(inner, max_size=3),
                  st.none(), st.booleans()),
        st.builds(ast.Like, inner, inner, st.booleans()),
        st.builds(ast.IsNull, inner, st.booleans()),
        st.builds(ast.Case,
                  st.lists(st.tuples(inner, inner), min_size=1, max_size=2),
                  st.one_of(st.none(), inner)),
        _function_calls(inner),
        st.just(ast.Star()))


_TREES = st.recursive(_LEAVES, _nodes, max_leaves=8)


def _subtrees(expr):
    """Every expression node of ``expr``, itself first."""
    if isinstance(expr, (list, tuple)):
        for item in expr:
            yield from _subtrees(item)
    elif isinstance(expr, ast.Expression):
        yield expr
        for slot in expr.__slots__:
            yield from _subtrees(getattr(expr, slot))


_ENGINE = Engine("differential", dialect=generic(), seed=3)
_ENGINE.create_database("d")
_SESSION = _ENGINE.connect(database="d")


def _outcome(thunk):
    try:
        value = thunk()
    except Exception as exc:    # the class is the outcome being compared
        return "raised", type(exc)
    if isinstance(value, float) and math.isnan(value):
        return "value", float, "nan"
    return "value", type(value), value


def _check(tree, row, shape, params, variables):
    bindings = {"t": dict(row)}
    hint = "t"
    if shape == "two bindings":
        bindings["u"] = {"k": row["v"], "other": 1}
        hint = None
    outer = {"o": {"outer_only": 7, "pad": "outer"}}

    def context(row_bindings):
        # a correlated subquery's view: the enclosing row one level out
        top = EvalContext(_ENGINE.executor, _SESSION, outer,
                          params=list(params), variables=variables)
        return top if row_bindings is None else top.child(row_bindings)

    # every node is judged as a root of its own: an error or a NULL
    # further up cannot hide what a subtree returned
    for node in _subtrees(tree):
        compiled = _outcome(
            lambda: compile_expression(node, hint)(bindings, context(None)))
        interpreted = _outcome(
            lambda: reference.evaluate(node, context(bindings)))
        assert compiled == interpreted, (node, bindings)
        if compiled[0] == "raised":
            assert issubclass(compiled[1], SQLError), (node, compiled)


def _property(max_examples):
    """The property at ``max_examples`` (a fresh ``given`` each time:
    tier-1 and the soak run the same body)."""
    @settings(max_examples=max_examples, deadline=None)
    @given(tree=_TREES, row=_ROWS,
           shape=st.sampled_from(("one binding", "one binding",
                                  "two bindings")),
           params=st.lists(_PARAMS, min_size=3, max_size=3),
           variables=st.sampled_from(({}, {"pad": "variable", "nosuch": 5})))
    @example(tree=ast.BinaryOp("=", ast.ColumnRef("v"), ast.Literal(BIG + 1)),
             row={"k": 1, "v": BIG, "pad": None}, shape="one binding",
             params=[None] * 3, variables={})
    @example(tree=ast.BinaryOp("=", ast.ColumnRef("v"), ast.ColumnRef("pad")),
             row={"k": 1, "v": BIG + 1, "pad": str(BIG + 1)},  # exact as text
             shape="one binding", params=[None] * 3, variables={})
    @example(tree=ast.BinaryOp("=", ast.ColumnRef("pad"), ast.ColumnRef("v")),
             row={"k": 1, "v": BIG, "pad": str(BIG + 1)},
             shape="one binding", params=[None] * 3, variables={})
    @example(tree=ast.Between(ast.ColumnRef("k"), ast.Param(0), ast.Param(1)),
             row={"k": 1, "v": 1, "pad": None}, shape="one binding",
             params=[[1], 5, None], variables={})
    @example(tree=ast.UnaryOp("-", ast.ColumnRef("pad")),
             row={"k": 1, "v": 1, "pad": "x"}, shape="one binding",
             params=[None] * 3, variables={})
    @example(tree=ast.InList(ast.ColumnRef("v"), [ast.Literal(BIG + 1),
                                                  ast.Literal(None)]),
             row={"k": 1, "v": BIG, "pad": None}, shape="one binding",
             params=[None] * 3, variables={})
    @example(tree=ast.Between(ast.ColumnRef("k"), ast.Literal(1),
                              ast.ColumnRef("v")),      # both ends included
             row={"k": 1, "v": 1, "pad": None}, shape="one binding",
             params=[None] * 3, variables={})
    @example(tree=ast.InList(ast.ColumnRef("k"), [ast.Literal(None),
                                                  ast.Literal(1)],
                             negated=True),     # found beside a NULL
             row={"k": 1, "v": 1, "pad": None}, shape="one binding",
             params=[None] * 3, variables={})
    @example(tree=ast.BinaryOp("*", ast.ColumnRef("k"), ast.Literal("ab")),
             row={"k": 3, "v": 1, "pad": None},     # text does not repeat
             shape="one binding", params=[None] * 3, variables={})
    @example(tree=ast.BinaryOp("*", ast.ColumnRef("k"), ast.Literal(2.5)),
             row={"k": BIG + 1, "v": 1, "pad": None},
             shape="one binding", params=[None] * 3, variables={})
    @example(tree=ast.ColumnRef("outer_only"),
             row={"k": 1, "v": 1, "pad": None}, shape="two bindings",
             params=[None] * 3, variables={})
    def agree(tree, row, shape, params, variables):
        _check(tree, row, shape, params, variables)
    return agree


test_compiled_and_interpreted_agree = _property(200)
test_compiled_and_interpreted_agree_soak = pytest.mark.soak(_property(4000))
