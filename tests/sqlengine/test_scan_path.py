"""The scan path's shortcuts answer like the rules they replaced.

* ORDER BY decides what each term means once per statement (an output
  name or alias, an ordinal, a source column, or a name only the output
  row holds) instead of per row per sort pass.  The per-row rule it
  replaced is written out below and installed on a second engine; over
  generated rows with ties and NULLs, every statement — each kind of
  term, ASC and DESC mixed, plain, grouped, DISTINCT, joined and derived
  — must return the same rows in the same order.
* A grouped SELECT over one table reads each kept version once
  (``Executor._folded_output``).  The same second engine answers grouped
  statements through the group closures over bound rows instead, and
  must agree, errors included — also over a writeset's row that lacks
  a column, which the fold leaves to the closures' name walk.
* SUM and AVG over a FLOAT column are ``sum()`` of the values in scan
  order on the running interpreter (3.12's ``sum()`` is compensated; a
  running ``+=`` would answer 0.6000000000000001 for 0.1 + 0.2 + 0.3
  there).
* ``created_ts`` is assigned in one place, ``Table.stamp_created``,
  which keeps the table's all-visible fact: no other line of
  ``src/repro`` stamps a version's creator.
"""

import ast as pyast
import pathlib
import types

from hypothesis import given, settings, strategies as st

from repro.core.writesets import apply_writeset
from repro.sqlengine import Engine, NameError_, SQLError, generic, parse
from repro.sqlengine import ast_nodes as ast
from repro.sqlengine.executor import _SelectParts
from repro.sqlengine.expressions import sort_key

SRC = pathlib.Path(__file__).resolve().parents[2] / "src" / "repro"


# -- the rules replaced ----------------------------------------------------------

def per_row_order(self, statement, parts, rows, columns, row_bindings,
                  outer_ctx):
    """``Executor._order_rows`` as it decided each term for each row."""
    lowered = [c.lower() for c in columns]
    indexed = list(range(len(rows)))

    def value_for(index, expr, closure):
        row = rows[index]
        if isinstance(expr, ast.ColumnRef) and expr.table is None:
            name = expr.name.lower()
            if name in lowered:
                return row[lowered.index(name)]
        if isinstance(expr, ast.Literal) and isinstance(expr.value, int):
            ordinal = expr.value - 1
            if 0 <= ordinal < len(row):
                return row[ordinal]
        if row_bindings is not None:
            try:
                return closure(row_bindings[index], outer_ctx)
            except NameError_:
                pass
        try:
            return closure({"__out__": dict(zip(lowered, row))}, outer_ctx)
        except NameError_:
            return None

    for (expr, ascending), closure in reversed(
            list(zip(statement.order_by, parts.order_by))):
        indexed = sorted(
            indexed, key=lambda i: sort_key(value_for(i, expr, closure)),
            reverse=not ascending)
    return [rows[i] for i in indexed]


def bound_groups(self, statement, parts, versions, outer_ctx):
    """A one-table grouped SELECT through the group closures, over
    bound rows, as every grouped SELECT ran before the fold."""
    binding = statement.source.binding
    return self._grouped_output(statement, parts, [
        {binding: version.values} for version in versions], outer_ctx)


# -- two engines ------------------------------------------------------------------

def engines(rows):
    made = []
    for replaced in (False, True):
        engine = Engine("scan", dialect=generic(), seed=3)
        engine.create_database("shop")
        conn = engine.connect(database="shop")
        conn.execute("CREATE TABLE t (k INT PRIMARY KEY, g INT, v INT, "
                     "f FLOAT, s VARCHAR)")
        for k, (g, v, f, s) in enumerate(rows):
            conn.execute("INSERT INTO t (k, g, v, f, s) VALUES (?, ?, ?, ?, ?)",
                         [k, g, v, f, s])
        if replaced:
            executor = engine.executor
            executor._order_rows = types.MethodType(per_row_order, executor)
            executor._folded_output = types.MethodType(bound_groups, executor)
        made.append(conn)
    return made


def answer(conn, sql):
    try:
        result = conn.execute(sql)
    except SQLError as exc:
        return type(exc).__name__, str(exc)
    return result.columns, result.rows


STATEMENTS = (
    # output name and alias, mixed directions, ties broken by the next
    "SELECT k, v AS val FROM t ORDER BY val DESC, k",
    "SELECT g, v FROM t ORDER BY g, v DESC",
    # ordinals, and one past the row (a constant key)
    "SELECT g, v, k FROM t ORDER BY 2, 1 DESC, 3",
    "SELECT k, g FROM t ORDER BY 5, k DESC",
    # source columns not projected, bare and qualified
    "SELECT k FROM t ORDER BY v DESC, g, k",
    "SELECT t.k FROM t ORDER BY t.v, t.k DESC",
    "SELECT k, s FROM t ORDER BY s, f DESC, k",
    # expressions: over the source, over an alias only the output holds
    "SELECT k, v FROM t ORDER BY v * -1, k",
    "SELECT k, v AS val FROM t ORDER BY val + k DESC, k",
    "SELECT k, v AS val FROM t ORDER BY nothing, k DESC",
    # grouped: output names, aliases, expressions over them, ordinals
    "SELECT g, COUNT(*) AS n FROM t GROUP BY g ORDER BY n DESC, g",
    "SELECT g, SUM(v) AS total FROM t GROUP BY g ORDER BY total + 0, 1 DESC",
    "SELECT g, MIN(v), MAX(s) FROM t GROUP BY g ORDER BY 3 DESC, g",
    "SELECT g, AVG(v) FROM t GROUP BY g ORDER BY missing, g DESC",
    # DISTINCT, a join, a derived table
    "SELECT DISTINCT g FROM t ORDER BY g DESC",
    "SELECT DISTINCT g, v FROM t ORDER BY v, g DESC",
    "SELECT a.k, b.k FROM t a JOIN t b ON a.g = b.g "
    "ORDER BY a.v DESC, b.k, a.k",
    "SELECT x FROM (SELECT k AS x, v FROM t) d ORDER BY v, x DESC",
    # grouped shapes the fold reads, and ones it leaves to closures
    "SELECT g, COUNT(*), SUM(v), AVG(v), MIN(v), MAX(v), COUNT(v) "
    "FROM t GROUP BY g",
    "SELECT COUNT(*), SUM(v), MIN(s), MAX(s), AVG(f) FROM t",
    "SELECT g, v, COUNT(*) FROM t GROUP BY g, v",
    "SELECT s, SUM(f), COUNT(DISTINCT v), SUM(v * 2) + 1 FROM t GROUP BY s",
    "SELECT g, k FROM t GROUP BY g",
    "SELECT g FROM t GROUP BY g HAVING COUNT(*) > 1",
    "SELECT MIN(k), MAX(k) FROM t WHERE v = 1",
    "SELECT g, COUNT(*) FROM t WHERE k BETWEEN 2 AND 9 GROUP BY g",
    "SELECT SUM(s) FROM t",
    "SELECT g + 1, COUNT(*) FROM t GROUP BY g + 1",
)

ROW = st.tuples(st.sampled_from([None, 0, 1, 2]),
                st.sampled_from([None, -1, 0, 1, 1, 5]),
                st.sampled_from([None, 0.1, 0.2, 0.3, 2.5]),
                st.sampled_from([None, "a", "b", "b"]))


@settings(max_examples=60, deadline=None)
@given(st.lists(ROW, max_size=12))
def test_each_term_is_decided_once_and_sorts_as_the_per_row_rule(rows):
    conn, reference = engines(rows)
    for sql in STATEMENTS:
        assert answer(conn, sql) == answer(reference, sql), sql


def test_only_columns_count_star_and_plain_aggregates_are_folded():
    """The fold reads columns, ``COUNT(*)`` and non-DISTINCT aggregates
    of a column; a HAVING, an expression or a DISTINCT aggregate leaves
    the statement to the group closures."""
    def folded(sql):
        return _SelectParts(parse(sql)).fold is not None

    assert folded("SELECT COUNT(*), SUM(v) FROM t WHERE k BETWEEN 1 AND 50")
    assert folded("SELECT g, AVG(v) FROM t GROUP BY g")
    assert folded("SELECT MIN(k), MAX(k) FROM t WHERE v = 1")
    assert folded("SELECT g, k, COUNT(v) FROM t GROUP BY g")
    for sql in ("SELECT g FROM t GROUP BY g HAVING COUNT(*) > 1",
                "SELECT g, COUNT(DISTINCT v) FROM t GROUP BY g",
                "SELECT g, SUM(v * 2) FROM t GROUP BY g",
                "SELECT g, COUNT(*) + 1 FROM t GROUP BY g",
                "SELECT g + 1, COUNT(*) FROM t GROUP BY g + 1"):
        assert not folded(sql), sql


def test_a_version_without_a_column_answers_as_the_closures_do():
    """A writeset's row may lack a column (``apply_writeset`` installs
    its values as given): the fold and ORDER BY fall back to the
    closures' name walk for it."""
    pair = engines([(1, 5, 0.5, "a")])
    for conn in pair:
        apply_writeset(conn.engine, [{
            "database": "shop", "table": "t", "op": "INSERT",
            "primary_key": (1,), "old_values": None,
            "new_values": {"k": 1, "g": 1, "s": "b"}}])
    conn, reference = pair
    for sql in ("SELECT g, SUM(v), COUNT(*) FROM t GROUP BY g",
                "SELECT v, COUNT(*) FROM t GROUP BY v",
                "SELECT g, COUNT(*) FROM t GROUP BY g",
                "SELECT COUNT(f) FROM t",
                "SELECT k FROM t ORDER BY v, k DESC",
                "SELECT k, s FROM t ORDER BY f DESC, s"):
        assert answer(conn, sql) == answer(reference, sql), sql


def test_float_sums_are_sum_of_the_values_in_scan_order():
    values = [0.1, 0.2, 0.3, 1e16, 1.0, -1e16, 0.7, None, 2.675]
    conn, _ = engines([(k % 2, k, value, "x") for k, value in
                       enumerate(values)])
    present = [value for value in values if value is not None]
    row = conn.execute("SELECT SUM(f), AVG(f), COUNT(f) FROM t").rows[0]
    assert row == (sum(present), sum(present) / len(present), len(present))
    for g in (0, 1):
        group = [value for k, value in enumerate(values)
                 if k % 2 == g and value is not None]
        assert conn.execute(
            f"SELECT SUM(f), AVG(f) FROM t WHERE g = {g}").rows[0] == \
            (sum(group), sum(group) / len(group))
    grouped = dict((g, (total, mean)) for g, total, mean in conn.execute(
        "SELECT g, SUM(f), AVG(f) FROM t GROUP BY g").rows)
    for g, (total, mean) in grouped.items():
        group = [value for k, value in enumerate(values)
                 if k % 2 == g and value is not None]
        assert (total, mean) == (sum(group), sum(group) / len(group))


def created_ts_assignments(node, module, scope=()):
    """``(module, scope)`` of every assignment to a ``created_ts``
    attribute under ``node`` — plain, augmented, annotated, unpacked or
    through ``setattr`` — ``scope`` being the dotted class and function
    names around it."""
    found = []
    for child in pyast.iter_child_nodes(node):
        if isinstance(child, (pyast.ClassDef, pyast.FunctionDef)):
            found += created_ts_assignments(child, module,
                                            scope + (child.name,))
            continue
        if isinstance(child, pyast.Assign):
            targets = child.targets
        elif isinstance(child, (pyast.AugAssign, pyast.AnnAssign)):
            targets = [child.target]
        else:
            targets = []
        stamped = any(isinstance(target, pyast.Attribute)
                      and target.attr == "created_ts"
                      for node_ in targets for target in pyast.walk(node_))
        stamped |= isinstance(child, pyast.Call) \
            and isinstance(child.func, pyast.Name) \
            and child.func.id == "setattr" and len(child.args) > 1 \
            and isinstance(child.args[1], pyast.Constant) \
            and child.args[1].value == "created_ts"
        if stamped:
            found.append((module, ".".join(scope)))
        found += created_ts_assignments(child, module, scope)
    return found


def test_created_ts_is_stamped_in_one_table_method():
    assigned = []
    for path in sorted(SRC.rglob("*.py")):
        assigned += created_ts_assignments(
            pyast.parse(path.read_text()), path.relative_to(SRC).as_posix())
    assert sorted(assigned) == [
        ("sqlengine/storage.py", "RowVersion.__init__"),
        ("sqlengine/storage.py", "Table.stamp_created")]
    # the check sees what it looks for
    probe = pyast.parse(
        "def apply(v, w, ts):\n"
        "    v.created_ts = ts\n"
        "    w.created_ts, x = ts, 1\n"
        "    setattr(v, 'created_ts', ts)\n")
    assert created_ts_assignments(probe, "m") == [("m", "apply")] * 3
