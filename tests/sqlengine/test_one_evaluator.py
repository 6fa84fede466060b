"""One evaluator, and nothing interprets per row — pinned on the source.

Expressions are compiled to closures once per tree
(``repro.sqlengine.expressions``); ``evaluate`` is the one-shot "build
and call" for values read once per statement.  These checks keep it
that way: the executor never calls ``evaluate`` inside a loop — its
list form ``evaluate_each`` is the named exception, for the two value
lists nothing repeats —, one module owns the class-keyed dispatch table,
no switch selects another evaluator, and the interpreter kept under
``tests/`` as the differential reference is out of the package's reach.
"""

import ast
import pathlib
import re

from repro.sqlengine import ast_nodes

SRC = pathlib.Path(__file__).resolve().parents[2] / "src" / "repro"
_LOOPS = (ast.For, ast.While, ast.ListComp, ast.SetComp, ast.DictComp,
          ast.GeneratorExp)


def _calls_inside_loops(tree, name):
    """Line numbers of calls to the plain name ``name`` lexically inside a
    ``for`` / ``while`` / comprehension."""
    lines = []
    for loop in ast.walk(tree):
        if isinstance(loop, _LOOPS):
            lines += [node.lineno for node in ast.walk(loop)
                      if isinstance(node, ast.Call)
                      and isinstance(node.func, ast.Name)
                      and node.func.id == name]
    return sorted(set(lines))


def test_the_executor_never_evaluates_inside_a_loop():
    tree = ast.parse((SRC / "sqlengine" / "executor.py").read_text())
    assert _calls_inside_loops(tree, "evaluate") == []
    # the check sees what it is looking for
    probe = ast.parse("for row in rows:\n    [evaluate(e, c) for e in row]\n"
                      "evaluate(limit, c)\n")
    assert _calls_inside_loops(probe, "evaluate") == [2]


def test_the_list_form_serves_values_rows_and_call_arguments_only():
    """``evaluate_each`` *is* ``evaluate`` in a comprehension, so the
    check above cannot see it: its callers are named here instead.  A
    ``VALUES`` row and ``CALL`` arguments are evaluated once per statement
    and deliberately not memoised (a 100-row literal INSERT would pin its
    closures for the life of the text)."""
    tree = ast.parse((SRC / "sqlengine" / "executor.py").read_text())
    callers = [function.name for function in ast.walk(tree)
               if isinstance(function, ast.FunctionDef)
               for node in ast.walk(function)
               if isinstance(node, ast.Call)
               and isinstance(node.func, ast.Name)
               and node.func.id == "evaluate_each"]
    assert sorted(callers) == ["_execute_call", "_execute_insert"]
    users = [path.relative_to(SRC).as_posix()
             for path in sorted(SRC.rglob("*.py"))
             if "evaluate_each" in path.read_text()]
    assert users == ["sqlengine/executor.py", "sqlengine/expressions.py"]


def _expression_classes():
    def concrete(cls):
        return {sub.__name__ for sub in cls.__subclasses__()} | {
            name for sub in cls.__subclasses__() for name in concrete(sub)}
    return concrete(ast_nodes.Expression)


def _dispatch_tables(tree, classes):
    """Dict displays keyed by ``<module>.<ExpressionClass>`` attributes —
    what a class-keyed evaluator dispatch looks like."""
    for node in ast.walk(tree):
        if isinstance(node, ast.Dict) and len(node.keys) >= 3 and all(
                isinstance(key, ast.Attribute) and key.attr in classes
                for key in node.keys):
            yield node


def test_one_module_defines_the_expression_dispatch_table():
    classes = _expression_classes()
    owners = {}
    for path in sorted(SRC.rglob("*.py")):
        tables = list(_dispatch_tables(ast.parse(path.read_text()), classes))
        if tables:
            owners[path.relative_to(SRC).as_posix()] = tables
    assert list(owners) == ["sqlengine/expressions.py"]
    (table,) = owners["sqlengine/expressions.py"]
    assert {key.attr for key in table.keys} == classes


def test_no_switch_and_no_second_evaluator_in_the_package():
    switch = re.compile(r"use_compiled|compile_expressions"
                        r"|reference_interpreter|def _eval_")
    offenders = [path.relative_to(SRC).as_posix()
                 for path in sorted(SRC.rglob("*.py"))
                 if switch.search(path.read_text())]
    assert offenders == []
