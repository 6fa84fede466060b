"""The batch forms against the row closures they are built beside.

``compile_filter`` turns a one-table WHERE into ``keep(versions, ctx)``;
``compile_values`` turns a GROUP BY key or an aggregate argument into
``values(rows, ctx)``; ``sort_keys`` is ``sort_key`` over a list.  Each
decides natively only what the row closure decides on its int fast path
and hands everything else to the row closure, so each must answer
exactly like the loop it replaced:

* ``keep(versions)`` returns the versions the row-closure loop keeps —
  the same objects, in the same order — and where that loop raises, it
  raises the same class with the same message.  The versions' values mix
  ints, bools, floats, spelled numbers, text, NULL and a missing column;
  the WHERE is every comparison, ``BETWEEN`` and ``NOT BETWEEN`` over
  literal, bound and unbound operands, the column this table's or an
  outer statement's, beside shapes that have no batch form.
* ``values(rows)`` is the row closure mapped over the rows, a row that
  lacks the column (an outer reference) included.
* ``sort_keys(values)`` is ``[sort_key(v) for v in values]``.

And the source: the executor loops over no row with a compiled WHERE
and builds no batch form outside a statement's compiled parts; the range
walk calls no per-version visibility function.
"""

import ast as pyast
import math
import pathlib

import pytest
from hypothesis import example, given, settings, strategies as st

from repro.sqlengine import Engine, generic
from repro.sqlengine import ast_nodes as ast
from repro.sqlengine.expressions import (
    EvalContext, compile_expression, compile_filter, compile_values,
    sort_key, sort_keys,
)
from repro.sqlengine.storage import RowVersion

SRC = pathlib.Path(__file__).resolve().parents[2] / "src" / "repro"
BIG = 2 ** 53

_ENGINE = Engine("kernels", dialect=generic(), seed=5)
_ENGINE.create_database("d")
_SESSION = _ENGINE.connect(database="d")

# what a row or a client can hold: ints (past 2**53 too), bools, floats,
# numbers spelled as text, text, NULL — and a list no column holds
_VALUES = st.one_of(
    st.integers(-3, 12), st.integers(-3, 12), st.integers(-3, 12),
    st.sampled_from((BIG, BIG + 1)), st.booleans(),
    st.sampled_from((0.0, 2.5, 7.0, float("nan"))),
    st.sampled_from(("5", "07", "2.5", str(BIG + 1), "a", "")), st.none())
_PARAMS = st.lists(st.one_of(_VALUES, st.just([1])), max_size=3)
_MISSING = object()     # a row without the column


@st.composite
def _rows(draw):
    """A version's values: ``c`` (sometimes missing) and ``d``."""
    values = {"d": draw(_VALUES)}
    c = draw(st.one_of(_VALUES, _VALUES, st.just(_MISSING)))
    if c is not _MISSING:
        values["c"] = c
    return values


# the outer statement's row: an unqualified ``c`` a row lacks resolves here
_OUTER = {"o": {"c": 4, "e": "outer"}}
_COLUMNS = st.builds(
    ast.ColumnRef, st.sampled_from(("c", "c", "c", "d", "e", "nosuch")),
    st.sampled_from((None, None, "t", "o")))
_OPERANDS = st.one_of(_VALUES.map(ast.Literal),
                      st.integers(0, 3).map(ast.Param))   # 3 never bound
_BATCHED = st.one_of(
    st.builds(ast.BinaryOp, st.sampled_from(("=", "<>", "<", "<=", ">",
                                             ">=")),
              _COLUMNS, _OPERANDS),
    st.builds(ast.Between, _COLUMNS, _OPERANDS, _OPERANDS, st.booleans()))
# shapes with no batch form: the value on the left, arithmetic, logic
_OTHERS = st.one_of(
    st.builds(ast.BinaryOp, st.sampled_from(("=", "<")), _OPERANDS,
              _COLUMNS),
    st.builds(lambda column, op, operand: ast.BinaryOp(
        op, ast.BinaryOp("+", column, ast.Literal(0)), operand),
        _COLUMNS, st.sampled_from(("=", ">=")), _OPERANDS),
    st.builds(ast.BinaryOp, st.sampled_from(("AND", "OR")), _BATCHED,
              _BATCHED),
    st.builds(ast.IsNull, _COLUMNS, st.booleans()))
_WHERES = st.one_of(_BATCHED, _BATCHED, _OTHERS)


def _context(params):
    return EvalContext(_ENGINE.executor, _SESSION, _OUTER,
                       params=list(params))


def _outcome(thunk):
    """What a call returned, ``nan`` made comparable, or the class and
    message of what it raised."""
    try:
        value = thunk()
    except Exception as exc:    # the class and message are the outcome
        return "raised", type(exc), str(exc)
    return "value", [_comparable(item) for item in value]


def _comparable(value):
    if isinstance(value, RowVersion):
        return id(value)
    if isinstance(value, float) and math.isnan(value):
        return float, "nan"
    if isinstance(value, tuple):
        return tuple(_comparable(item) for item in value)
    return type(value), value


def _loop(where, versions, ctx):
    """The row-closure loop ``keep`` replaced."""
    test = compile_expression(where, "t")
    kept = []
    for version in versions:
        if test({"t": version.values}, ctx):
            kept.append(version)
    return kept


def _filter_property(max_examples):
    @settings(max_examples=max_examples, deadline=None)
    @given(where=_WHERES, rows=st.lists(_rows(), max_size=8),
           params=_PARAMS)
    # an int row decided inline beside rows the row closure decides
    @example(where=ast.BinaryOp("<=", ast.ColumnRef("c"), ast.Param(0)),
             rows=[{"c": 3, "d": 0}, {"c": True, "d": 0}, {"d": 0},
                   {"c": "2", "d": 0}, {"c": None, "d": 0},
                   {"c": 2.5, "d": 0}, {"c": BIG + 1, "d": 0}],
             params=[3])
    # both ends are inside the range
    @example(where=ast.Between(ast.ColumnRef("c"), ast.Literal(1),
                               ast.Param(0), False),
             rows=[{"c": 1, "d": 0}, {"c": 5, "d": 0}, {"c": 0, "d": 0},
                   {"c": 6, "d": 0}],
             params=[5])
    # the row closure raises on the third row, after two kept ones
    @example(where=ast.Between(ast.ColumnRef("c", "t"), ast.Literal(1),
                               ast.Param(0), True),
             rows=[{"c": 0, "d": 0}, {"c": 9, "d": 0}, {"c": "a", "d": 0},
                   {"c": "5", "d": 0}],
             params=[5])
    # an unbound bound raises only once a row reaches it
    @example(where=ast.BinaryOp("=", ast.ColumnRef("c"), ast.Param(3)),
             rows=[], params=[])
    @example(where=ast.BinaryOp("=", ast.ColumnRef("c"), ast.Param(3)),
             rows=[{"c": 1, "d": 0}], params=[])
    def keeps_what_the_loop_keeps(where, rows, params):
        versions = [RowVersion(row_id, values, 1)
                    for row_id, values in enumerate(rows)]
        keep = compile_filter(where, "t")
        assert _outcome(lambda: keep(versions, _context(params))) \
            == _outcome(lambda: _loop(where, versions, _context(params)))
    return keeps_what_the_loop_keeps


test_keep_is_the_row_closure_loop = _filter_property(300)
test_keep_is_the_row_closure_loop_soak = pytest.mark.soak(
    _filter_property(6000))


_EXPRESSIONS = st.one_of(
    _COLUMNS, _COLUMNS, _OPERANDS,
    st.builds(ast.BinaryOp, st.sampled_from(("+", "*", "||")), _COLUMNS,
              _OPERANDS))


@settings(max_examples=300, deadline=None)
@given(expr=_EXPRESSIONS, rows=st.lists(_rows(), max_size=8),
       params=_PARAMS, binding=st.sampled_from(("t", None)))
@example(expr=ast.ColumnRef("c"), rows=[{"c": 1, "d": 0}, {"d": 0}],
         params=[], binding="t")        # the second row reads the outer c
def test_values_is_the_row_closure_mapped(expr, rows, params, binding):
    bound = [{"t": values} for values in rows]
    closure = compile_expression(expr, binding)
    values = compile_values(expr, binding)
    assert _outcome(lambda: values(bound, _context(params))) \
        == _outcome(lambda: [closure(row, _context(params))
                             for row in bound])


@given(values=st.lists(st.one_of(_VALUES, st.just(b"x"), st.just([1]))))
def test_sort_keys_is_sort_key_over_the_list(values):
    assert _comparable(tuple(sort_keys(values))) \
        == _comparable(tuple(sort_key(value) for value in values))


# -- the source ---------------------------------------------------------------

# the loops that visit rows; the top-N walk's ``while`` visits chunks of
# keys, a list of rows each
_LOOPS = (pyast.For, pyast.ListComp, pyast.SetComp, pyast.DictComp,
          pyast.GeneratorExp)
#: the names a compiled WHERE goes by in the executor
_WHERE_NAMES = {"predicate", "keep", "where", "test"}


def _where_calls_inside_loops(tree):
    """Line numbers of calls, inside a loop, to something named like a
    compiled WHERE (``predicate(...)``, ``parts.where(...)``)."""
    lines = set()
    for loop in pyast.walk(tree):
        if isinstance(loop, _LOOPS):
            for node in pyast.walk(loop):
                if isinstance(node, pyast.Call):
                    func = node.func
                    name = func.id if isinstance(func, pyast.Name) \
                        else getattr(func, "attr", None)
                    if name in _WHERE_NAMES:
                        lines.add(node.lineno)
    return sorted(lines)


def _batch_form_sites(tree):
    """``(function, callee)`` for every call that builds a batch form, and
    ``(function, "def")`` for every function shaped like a batch form —
    a def or lambda over ``versions`` or ``rows`` and ``ctx``."""
    found = []
    for function in pyast.walk(tree):
        if not isinstance(function, pyast.FunctionDef):
            continue
        for node in pyast.walk(function):
            if isinstance(node, pyast.Call) \
                    and isinstance(node.func, pyast.Name) \
                    and node.func.id in ("compile_filter", "compile_values"):
                found.append((function.name, node.func.id))
            if isinstance(node, (pyast.FunctionDef, pyast.Lambda)) \
                    and node is not function:
                names = [arg.arg for arg in node.args.args]
                if names in (["versions", "ctx"], ["rows", "ctx"]):
                    found.append((function.name, "def"))
    return sorted(set(found))


def test_the_executor_has_no_row_loop_over_a_where_and_builds_no_batch_form():
    tree = pyast.parse((SRC / "sqlengine" / "executor.py").read_text())
    assert _where_calls_inside_loops(tree) == []
    assert "_matching" not in {node.name for node in pyast.walk(tree)
                               if isinstance(node, pyast.FunctionDef)}
    # batch forms are built with a statement's compiled parts, memoised
    assert _batch_form_sites(tree) == [
        ("__init__", "compile_filter"), ("__init__", "compile_values"),
        ("_aggregate_closure", "compile_values"),
        ("_write_parts", "compile_filter")]
    # the checks see what they are looking for
    probe = pyast.parse(
        "def scan(versions, predicate, parts, ctx):\n"
        "    for version in versions:\n"
        "        predicate(version, ctx)\n"
        "    return [r for r in versions if parts.where(r, ctx)]\n"
        "def build(expr):\n"
        "    compile_filter(expr, 't')\n"
        "    return lambda rows, ctx: rows\n")
    assert _where_calls_inside_loops(probe) == [3, 4]
    assert _batch_form_sites(probe) == [("build", "compile_filter"),
                                      ("build", "def")]


def test_the_range_walk_calls_no_visibility_function_per_key():
    """``visible_in_range`` answers a one-version chain with the test
    written out, as ``visible_rows`` does; only a longer chain is
    ranked, by ``_newest_visible``."""
    tree = pyast.parse((SRC / "sqlengine" / "mvcc.py").read_text())
    walks = {function.name: function for function in pyast.walk(tree)
             if isinstance(function, pyast.FunctionDef)}
    for name in ("visible_in_range", "visible_rows"):
        called = {node.func.id for node in pyast.walk(walks[name])
                  if isinstance(node, pyast.Call)
                  and isinstance(node.func, pyast.Name)}
        assert not called & {"version_visible", "version_visible_dirty"}, \
            name
