#!/usr/bin/env python3
"""Documentation consistency checks, run as a CI job.

Seven guarantees, all stdlib:

1. every relative Markdown link in the repo's ``*.md`` files resolves
   to an existing file or directory (external ``http(s)``/``mailto``
   links and pure ``#anchor`` links are skipped);
2. ``docs/ARCHITECTURE.md`` references every package under
   ``src/repro/`` — including nested ones like ``repro.core.consistency``
   — so the architecture guide may not silently fall behind the tree;
   the expected set is derived from the tree at runtime, never from a
   hand-maintained list;
3. every experiment ``benchmarks/test_eNN_*.py`` has a ``| ENN |``
   row in both ``EXPERIMENTS.md`` and ``DESIGN.md``'s per-experiment
   index — the drift E24 once exhibited;
4. every name the docs advertise exists in the code.  Span names:
   inside any ``docs/*.md`` section whose heading mentions "span", each
   backticked lowercase dotted token (``mw.statement``,
   ``shard.2pc.prepare``, …) must appear as literal text somewhere under
   ``src/repro/``.  Memo names: inside any section whose heading
   mentions "memo", "pipeline", "join" or "event" (monitor events and
   the counters beside them, e.g. ``retention_stalled``), the last
   identifier of each backticked lowercase name
   (``cluster.route_plans`` -> ``route_plans``, ``evictions``) must
   appear as a word under ``src/repro/``.  Module paths
   (``repro.*``) and class names (leading capital) are exempt.  This is
   what keeps TOPOLOGY.md's and OBSERVABILITY.md's vocabulary honest;
5. every module path the docs name exists.  Each backticked
   ``repro.a.b[.c]`` in ``README.md``, ``DESIGN.md``, ``EXPERIMENTS.md``
   and ``docs/*.md`` must be a package or module under ``src/``, or
   lead with one and go on with a name its source mentions (a class, a
   function) — a deleted module may not live on in the documentation;
6. ``docs/ARCHITECTURE.md``'s "Error table" is the classes: every
   ``MiddlewareError`` subclass in the loaded ``repro`` package (found
   by importing it and walking ``__subclasses__()``, never listed here)
   has a row, and the first retry label in that row is the one the
   class declares;
7. every test id the docs cite exists.  Each backticked
   ``tests/….py[::Name[::name]]`` in ``README.md``, ``DESIGN.md``,
   ``EXPERIMENTS.md``, ``ROADMAP.md`` and ``docs/*.md`` names a file
   that exists and, part by part, a class or function defined in it
   (parametrize brackets ignored) — a deleted or moved test may not
   stay cited.

Exit code 0 = all green; 1 = problems, printed one per line.
"""

from __future__ import annotations

import ast
import importlib
import pkgutil
import re
import sys
from pathlib import Path

REPO = Path(__file__).resolve().parent.parent

#: [text](target) — good enough for this repo's plain Markdown; code
#: spans are stripped first so `dict[str](x)` examples don't trip it
LINK = re.compile(r"\[[^\]]*\]\(([^)\s]+)\)")
CODE_SPAN = re.compile(r"`[^`]*`")
FENCE = re.compile(r"^(```|~~~)")
EXPERIMENT = re.compile(r"test_(e\d{2})_\w+\.py$")

SKIP_DIRS = {".git", "__pycache__", ".pytest_cache", "node_modules"}
#: machine-generated inputs (paper digests, the PR driver's task file) —
#: they carry extraction artifacts we don't maintain
SKIP_FILES = {"PAPERS.md", "SNIPPETS.md", "ISSUE.md"}


def markdown_files():
    for path in sorted(REPO.rglob("*.md")):
        if path.name in SKIP_FILES:
            continue
        if not SKIP_DIRS.intersection(p.name for p in path.parents):
            yield path


def check_links(problems):
    for path in markdown_files():
        in_fence = False
        for number, line in enumerate(
                path.read_text().splitlines(), start=1):
            if FENCE.match(line.strip()):
                in_fence = not in_fence
                continue
            if in_fence:
                continue
            for target in LINK.findall(CODE_SPAN.sub("", line)):
                if target.startswith(("http://", "https://", "mailto:",
                                      "#")):
                    continue
                resolved = (path.parent / target.split("#")[0]).resolve()
                if not resolved.exists():
                    problems.append(
                        f"{path.relative_to(REPO)}:{number}: "
                        f"broken link -> {target}")


def check_architecture_coverage(problems):
    guide = REPO / "docs" / "ARCHITECTURE.md"
    if not guide.exists():
        problems.append("docs/ARCHITECTURE.md is missing")
        return
    text = guide.read_text()
    root = REPO / "src" / "repro"
    packages = sorted(
        ".".join(("repro",) + init.parent.relative_to(root).parts)
        for init in root.rglob("__init__.py")
        if init.parent != root
        and not SKIP_DIRS.intersection(p.name for p in init.parents))
    for package in packages:
        if package not in text:
            problems.append(
                f"docs/ARCHITECTURE.md: package {package} "
                f"is never referenced")


def check_experiment_rows(problems):
    experiments = sorted(
        match.group(1).upper()
        for path in (REPO / "benchmarks").glob("test_e*.py")
        if (match := EXPERIMENT.match(path.name)))
    for doc in ("EXPERIMENTS.md", "DESIGN.md"):
        text = (REPO / doc).read_text()
        for experiment in experiments:
            if f"| {experiment} |" not in text:
                problems.append(
                    f"{doc}: no table row for experiment {experiment}")


#: a span/event name: lowercase dotted identifier inside a code span.
#: One dot minimum — plain words (`retry`, `certify` is referenced
#: dotted nowhere) and snake_case tags don't qualify; `repro.*` module
#: paths are filtered at the call site.
SPAN_TOKEN = re.compile(r"`([a-z][a-z0-9_]*(?:\.[a-z0-9_*]+)+)`")
#: a memo or counter name: a code span that is nothing but a lowercase,
#: possibly dotted, identifier (`table.access_shapes`, `hits`)
MEMO_TOKEN = re.compile(r"`((?:[a-z_][a-z0-9_]*\.)*[a-z_][a-z0-9_]*)`")
HEADING = re.compile(r"^#+\s*(.*)")


def advertised(keyword, token):
    """``(where, name)`` for every ``token`` match in a ``docs/*.md``
    section whose heading mentions ``keyword``, module paths excluded."""
    for path in sorted((REPO / "docs").glob("*.md")):
        in_section = False
        in_fence = False
        for number, line in enumerate(
                path.read_text().splitlines(), start=1):
            if FENCE.match(line.strip()):
                in_fence = not in_fence
                continue
            if in_fence:
                continue
            heading = HEADING.match(line)
            if heading:
                in_section = keyword in heading.group(1).lower()
                continue
            if not in_section:
                continue
            for name in token.findall(line):
                if not name.startswith("repro."):
                    yield f"{path.relative_to(REPO)}:{number}", name


def check_vocabulary(problems):
    root = REPO / "src" / "repro"
    sources = "\n".join(
        path.read_text()
        for path in sorted(root.rglob("*.py"))
        if not SKIP_DIRS.intersection(p.name for p in path.parents))
    for where, name in advertised("span", SPAN_TOKEN):
        # `reshard.*`-style families check their prefix
        literal = name.rstrip("*").rstrip(".")
        if literal not in sources:
            problems.append(
                f"{where}: span `{name}` is not emitted anywhere in "
                f"src/repro/")
    for keyword in ("memo", "pipeline", "join", "event"):
        for where, name in advertised(keyword, MEMO_TOKEN):
            attribute = name.rsplit(".", 1)[-1]
            if not re.search(rf"\b{attribute}\b", sources):
                problems.append(
                    f"{where}: {keyword} name `{name}`: nothing under "
                    f"src/repro/ is called {attribute!r}")


#: a backticked dotted path into the package, optionally called or
#: followed by arguments: `repro.shard.router`, `repro.ha.promote()`
MODULE_TOKEN = re.compile(r"`(repro(?:\.[A-Za-z_][A-Za-z0-9_]*)+)[`(]")


def _module_source(parts):
    """The source file of the package or module ``parts`` names under
    ``src/``, or ``None``."""
    target = (REPO / "src").joinpath(*parts)
    if target.is_dir():
        return target / "__init__.py"
    target = target.with_suffix(".py")
    return target if target.is_file() else None


def check_module_paths(problems):
    docs = [REPO / name for name in
            ("README.md", "DESIGN.md", "EXPERIMENTS.md")]
    for path in docs + sorted((REPO / "docs").glob("*.md")):
        for number, line in enumerate(
                path.read_text().splitlines(), start=1):
            for name in MODULE_TOKEN.findall(line):
                parts = name.split(".")
                # the longest leading stretch that is a package or a
                # module; what follows must be a name its source mentions
                depth = len(parts)
                while depth > 1 and _module_source(parts[:depth]) is None:
                    depth -= 1
                source = _module_source(parts[:depth])
                if depth < len(parts) and not re.search(
                        rf"\b{parts[depth]}\b", source.read_text()):
                    problems.append(
                        f"{path.relative_to(REPO)}:{number}: module path "
                        f"`{name}` does not exist under src/")


#: an error-table row: | `Class` | `label` … |
ERROR_ROW = re.compile(r"^\|\s*`(\w+)`\s*\|[^|`]*`([a-z-]+)`")


def check_error_table(problems):
    sys.path.insert(0, str(REPO / "src"))
    import repro
    from repro.core.errors import MiddlewareError
    for module in pkgutil.walk_packages(repro.__path__, "repro."):
        importlib.import_module(module.name)
    rows = dict(
        match.groups() for line in
        (REPO / "docs" / "ARCHITECTURE.md").read_text().splitlines()
        if (match := ERROR_ROW.match(line)))
    pending = [MiddlewareError]
    while pending:
        cls = pending.pop()
        pending.extend(cls.__subclasses__())
        label = rows.get(cls.__name__)
        if label is None:
            problems.append(
                f"docs/ARCHITECTURE.md: error table has no row for "
                f"{cls.__module__}.{cls.__name__}")
        elif label != cls.retry:
            problems.append(
                f"docs/ARCHITECTURE.md: error table says "
                f"{cls.__name__} is `{label}`, the class says "
                f"`{cls.retry}`")


#: a backticked test id: `tests/a/test_b.py::TestC::test_d[x-1]`
TEST_ID = re.compile(r"`(tests/[\w/]+\.py)((?:::\w+(?:\[[^\]`]*\])?)*)`")


def _defines(body, name):
    """The class or function ``name`` defined directly in ``body``."""
    for node in body:
        if isinstance(node, (ast.ClassDef, ast.FunctionDef,
                             ast.AsyncFunctionDef)) and node.name == name:
            return node
    return None


def check_test_ids(problems):
    docs = [REPO / name for name in
            ("README.md", "DESIGN.md", "EXPERIMENTS.md", "ROADMAP.md")]
    for path in docs + sorted((REPO / "docs").glob("*.md")):
        for number, line in enumerate(
                path.read_text().splitlines(), start=1):
            for file, tail in TEST_ID.findall(line):
                where = f"{path.relative_to(REPO)}:{number}"
                if not (REPO / file).is_file():
                    problems.append(f"{where}: test file `{file}` "
                                    f"does not exist")
                    continue
                scope = ast.parse((REPO / file).read_text())
                for part in re.sub(r"\[[^\]]*\]", "", tail).split("::")[1:]:
                    scope = _defines(scope.body, part)
                    if scope is None:
                        problems.append(f"{where}: test id `{file}{tail}` "
                                        f"names nothing defined ({part})")
                        break


def main() -> int:
    problems: list = []
    check_links(problems)
    check_architecture_coverage(problems)
    check_experiment_rows(problems)
    check_vocabulary(problems)
    check_module_paths(problems)
    check_error_table(problems)
    check_test_ids(problems)
    for problem in problems:
        print(problem)
    count = len(problems)
    print(f"check_docs: {count} problem(s)"
          if count else "check_docs: all green")
    return 1 if count else 0


if __name__ == "__main__":
    sys.exit(main())
