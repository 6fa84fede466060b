"""No import statement runs on a per-statement or per-row path.

A function-level ``import`` is a module-dict lookup plus
``importlib._handle_fromlist`` every time the function runs, so one in
a function called per statement or per row is paid per statement or
per row.  None of these functions' imports forms an import cycle; they
live at module level, and this test keeps them there.
"""

import ast
from pathlib import Path

SRC = Path(__file__).resolve().parents[2] / "src" / "repro"

#: module -> functions on the statement or row path
HOT = {
    "sqlengine/executor.py": {
        "Executor._resolve_table",         # every statement
        "Executor._check_unique",          # every inserted/updated row
        "Executor._check_write_conflict",  # every updated/deleted row
    },
    "core/writesets.py": {
        "statement_footprint",             # every statement-mode write
        "_statement_point_keys",           # every written table of one
        "_find_target",                    # every applied UPDATE/DELETE
        "_apply_insert",                   # every applied INSERT
    },
}


def _functions(tree):
    """``(qualified name, node)`` for module functions and methods."""
    for node in tree.body:
        if isinstance(node, ast.FunctionDef):
            yield node.name, node
        elif isinstance(node, ast.ClassDef):
            for item in node.body:
                if isinstance(item, ast.FunctionDef):
                    yield f"{node.name}.{item.name}", item


def test_no_function_level_import_on_a_hot_path():
    for module, names in HOT.items():
        functions = dict(_functions(ast.parse((SRC / module).read_text())))
        assert names <= functions.keys(), (module, names - functions.keys())
        for name in sorted(names):
            imports = [node.lineno for node in ast.walk(functions[name])
                       if isinstance(node, (ast.Import, ast.ImportFrom))]
            assert imports == [], f"{module} {name} imports at {imports}"
