"""The benchmark's timed boundaries stay on the calls they time.

``perf/spans.py`` times each layer by rebinding the callables its
``BOUNDARIES`` table names: ``(module, attribute path, span name)``,
resolved through ``owner.__dict__``.  A function imported by name is
rebound in the importing module's namespace, so it is timed only where
that module calls it.  A refactor that moves such a call to another
module leaves the rebinding in place and the call untimed — a per-layer
number drifts to zero and nothing fails.  These tests fail instead.

The table is read as data (``ast.literal_eval``); ``perf`` is not
imported.
"""

import ast
from importlib import import_module
from pathlib import Path

ROOT = Path(__file__).resolve().parents[2]

#: rows kept only so the benchmark's rebinding finds the name: the two
#: TEMPORARY ``parse_script`` imports, called by neither module
NOT_CALLED = {("repro.core.middleware", "parse_script"),
              ("repro.shard.router", "parse_script")}


def boundaries():
    tree = ast.parse((ROOT / "perf" / "spans.py").read_text())
    for node in tree.body:
        if isinstance(node, ast.AnnAssign):
            target = node.target
        elif isinstance(node, ast.Assign) and len(node.targets) == 1:
            target = node.targets[0]
        else:
            continue
        if isinstance(target, ast.Name) and target.id == "BOUNDARIES":
            return ast.literal_eval(node.value)
    raise AssertionError("perf/spans.py defines no BOUNDARIES")


def test_every_boundary_resolves_like_the_benchmark_resolves_it():
    rows = boundaries()
    assert rows
    for module_name, path, _span in rows:
        owner = import_module(module_name)
        *parents, attribute = path.split(".")
        for parent in parents:
            owner = getattr(owner, parent)
        assert callable(owner.__dict__.get(attribute)), (module_name, path)


def test_an_imported_boundary_is_called_where_it_is_rebound():
    checked = 0
    for module_name, path, _span in boundaries():
        if "." in path:
            continue  # a method: rebound on its class, timed everywhere
        module = import_module(module_name)
        if getattr(module, path).__module__ == module_name:
            continue
        tree = ast.parse(Path(module.__file__).read_text())
        called = any(isinstance(node, ast.Call)
                     and isinstance(node.func, ast.Name)
                     and node.func.id == path
                     for node in ast.walk(tree))
        assert called == ((module_name, path) not in NOT_CALLED), \
            (module_name, path)
        checked += 1
    assert checked >= 5
