"""Compiled statements judged by their answers, their counts and the
scan underneath them.

* A tree is compiled once and then outlives schema changes: the same
  cached tree, executed before and after ``ALTER TABLE … ADD COLUMN``,
  ``CREATE`` / ``DROP INDEX`` and ``DROP TABLE`` + re-``CREATE`` with the
  columns in another order, must answer like an engine that has never
  seen the statement.
* Names resolve as they always did: one WHERE under two bindings of a
  self-join, an inner name that only the outer row has, a trigger body's
  ``new_`` values, a procedure parameter named like a column.
* What a scan does per row is call closures: the number of
  ``EvalContext`` objects and of closure builds a statement costs does
  not depend on the row count, and a second execution builds nothing.
* ``visible_rows`` — with its one-version fast path — against
  ``visible_version`` row by row, over the chains the schedules of
  ``test_range_differential`` leave behind.
"""

import pytest
from hypothesis import given, settings, strategies as st

from repro.sqlengine import Engine, NameError_, generic
from repro.sqlengine import executor as executor_module
from repro.sqlengine import expressions
from repro.sqlengine.mvcc import Snapshot, visible_rows, visible_version

from .test_range_differential import _Arm, _IDS, _STEP, _US, _WS, _SS


def _engine():
    engine = Engine("compiled", dialect=generic(), seed=11)
    engine.create_database("shop")
    return engine


# -- the same tree across schema changes -------------------------------------

QUERIES = [
    ("SELECT * FROM t WHERE v = ? ORDER BY k", [20]),
    ("SELECT k, v FROM t WHERE k BETWEEN ? AND ? ORDER BY k DESC LIMIT 2",
     [1, 3]),
    ("SELECT grp, COUNT(*), SUM(v), MIN(k) FROM t WHERE v >= ? "
     "GROUP BY grp HAVING COUNT(*) >= 1 ORDER BY grp", [10]),
    ("SELECT a.k, b.k FROM t a JOIN t b ON a.grp = b.grp "
     "WHERE a.k < b.k ORDER BY a.k, b.k", []),
    ("SELECT k FROM t o WHERE v = (SELECT MAX(v) FROM t i "
     "WHERE i.grp = o.grp) ORDER BY k", []),
    ("UPDATE t SET v = v + ? WHERE grp = ?", [1, 0]),
    ("SELECT k, v FROM t ORDER BY k", []),
    ("DELETE FROM t WHERE v > ?", [1000]),
]
ROWS = "INSERT INTO t (k, grp, v) VALUES (1, 0, 10), (2, 1, 20), " \
       "(3, 0, 20), (4, 1, 40)"
SCHEMA_STEPS = [
    ["CREATE TABLE t (k INT PRIMARY KEY, grp INT, v INT)", ROWS],
    ["ALTER TABLE t ADD COLUMN extra VARCHAR"],
    ["CREATE INDEX t_v ON t (v)"],
    ["CREATE INDEX t_grp ON t (grp)"],
    ["DROP INDEX t_v"],
    # the same names in another order: SELECT * and the row dicts change
    ["DROP TABLE t", "CREATE TABLE t (v INT, extra VARCHAR, "
     "k INT PRIMARY KEY, grp INT)", ROWS],
]


def _answers(conn):
    return [(result.columns, result.rows, result.rowcount)
            for result in (conn.execute(sql, params)
                           for sql, params in QUERIES)]


def test_a_cached_tree_answers_like_a_fresh_engine_after_schema_changes():
    veteran = _engine().connect(database="shop")
    history = []
    for step in SCHEMA_STEPS:
        for ddl in step:
            veteran.execute(ddl)
        history.append(step)
        # the writes among QUERIES are part of the history too
        fresh = _engine().connect(database="shop")
        for earlier in history[:-1]:
            for ddl in earlier:
                fresh.execute(ddl)
            _answers(fresh)
        for ddl in step:
            fresh.execute(ddl)
        assert _answers(veteran) == _answers(fresh), step
    compiled = veteran.engine.executor.compiled
    # every query text parsed once, so each tree was compiled once
    assert compiled.misses <= len(QUERIES) + 2      # + two subselects
    assert compiled.hits > compiled.misses


# -- name resolution ---------------------------------------------------------

@pytest.fixture
def conn():
    conn = _engine().connect(database="shop")
    conn.execute("CREATE TABLE t (k INT PRIMARY KEY, grp INT, v INT)")
    conn.execute(ROWS)
    conn.execute("CREATE TABLE u (uk INT PRIMARY KEY, v INT)")
    conn.execute("INSERT INTO u VALUES (1, 100), (3, 300), (9, 900)")
    return conn


def test_one_where_under_the_two_bindings_of_a_self_join(conn):
    sql = ("SELECT a.k, b.k FROM t a JOIN t b ON a.v = b.v "
           "WHERE a.k <= ? AND b.k > ? ORDER BY a.k, b.k")
    assert conn.execute(sql, [2, 2]).rows == [(2, 3)]
    assert conn.execute(sql, [3, 1]).rows \
        == [(2, 2), (2, 3), (3, 2), (3, 3)]
    with pytest.raises(NameError_, match="ambiguous"):
        conn.execute("SELECT a.k FROM t a JOIN t b ON a.k = b.k WHERE v = 1")


def test_a_correlated_subquery_finds_the_outer_row_on_the_miss_path(conn):
    # ``k`` is no column of u: the inner statement's direct read misses
    # and the walk finds the outer row; ``v`` is u's own, and wins
    assert conn.execute(
        "SELECT k FROM t WHERE EXISTS (SELECT 1 FROM u WHERE uk = k) "
        "ORDER BY k").rows == [(1,), (3,)]
    assert conn.execute(
        "SELECT k, (SELECT v FROM u WHERE uk = k) FROM t ORDER BY k").rows \
        == [(1, 100), (2, None), (3, 300), (4, None)]
    assert conn.execute(
        "SELECT k FROM t WHERE k IN (SELECT uk FROM u WHERE u.v > t.v) "
        "ORDER BY k").rows == [(1,), (3,)]


def test_a_trigger_body_reads_its_row_images(conn):
    conn.execute("CREATE TABLE log (k INT, was INT, now INT)")
    conn.execute(
        "CREATE TRIGGER trg AFTER UPDATE ON t FOR EACH ROW BEGIN "
        "INSERT INTO log VALUES (new_k, old_v, new_v); END")
    conn.execute("UPDATE t SET v = v * 2 WHERE grp = 1")
    conn.execute("UPDATE t SET v = v * 2 WHERE grp = 1")
    assert conn.execute("SELECT * FROM log ORDER BY k, was").rows \
        == [(2, 20, 40), (2, 40, 80), (4, 40, 80), (4, 80, 160)]


def test_a_procedure_parameter_named_like_a_column(conn):
    # inside the body ``v`` is the row's column wherever a row has one,
    # and the parameter only where none does
    conn.execute(
        "CREATE PROCEDURE p(v, bump) BEGIN "
        "UPDATE t SET grp = grp + bump WHERE v = 20; "
        "SELECT v + bump FROM u WHERE uk = 1; END")
    assert conn.execute("CALL p(40, 5)").scalar() == 105
    assert conn.execute("SELECT k, grp FROM t ORDER BY k").rows \
        == [(1, 0), (2, 6), (3, 5), (4, 1)]
    conn.execute("CREATE PROCEDURE q(v) BEGIN SELECT v; END")
    assert conn.execute("CALL q(7)").scalar() == 7


# -- counted -----------------------------------------------------------------

def _counted(monkeypatch):
    counts = {"contexts": 0, "builds": 0}
    real_init = expressions.EvalContext.__init__
    real_compile = expressions.compile_expression

    def counting_init(self, *args, **kwargs):
        counts["contexts"] += 1
        real_init(self, *args, **kwargs)

    def counting_compile(expr, binding=None):
        counts["builds"] += 1
        return real_compile(expr, binding)

    monkeypatch.setattr(expressions.EvalContext, "__init__", counting_init)
    # the recursion inside expressions.py and the executor's entry point
    monkeypatch.setattr(expressions, "compile_expression", counting_compile)
    monkeypatch.setattr(executor_module, "compile_expression",
                        counting_compile)
    return counts


@pytest.mark.parametrize("sql", [
    "SELECT k, pad FROM wide WHERE v = ?",
    "SELECT grp, COUNT(*), AVG(v) FROM wide WHERE v <> ? GROUP BY grp",
    "UPDATE wide SET pad = 'seen' WHERE v = ?",
])
def test_a_scan_costs_contexts_and_builds_independent_of_row_count(
        monkeypatch, sql):
    per_size = []
    for size in (40, 4000):
        conn = _engine().connect(database="shop")
        conn.execute("CREATE TABLE wide (k INT PRIMARY KEY, grp INT, "
                     "v INT, pad VARCHAR)")
        for base in range(0, size, 500):
            conn.execute("INSERT INTO wide VALUES " + ", ".join(
                f"({k}, {k % 7}, {k % 10}, 'p')"
                for k in range(base, min(base + 500, size))))
        conn.execute(sql, [3])          # warm: parse, compile
        counts = _counted(monkeypatch)
        result = conn.execute(sql, [3])
        monkeypatch.undo()
        assert conn.engine.executor.last_access_paths == ["seq-scan wide"]
        assert conn.engine.stats["rows_scanned"] >= 2 * size
        assert result.rowcount > 0
        per_size.append(counts)
    assert per_size[0] == per_size[1]
    assert per_size[1]["builds"] == 0       # the second run builds nothing
    assert per_size[1]["contexts"] <= 2


def test_the_first_execution_builds_once_per_node_not_per_row(monkeypatch):
    conn = _engine().connect(database="shop")
    conn.execute("CREATE TABLE wide (k INT PRIMARY KEY, v INT)")
    conn.execute("INSERT INTO wide VALUES " + ", ".join(
        f"({k}, {k % 10})" for k in range(600)))
    counts = _counted(monkeypatch)
    conn.execute("SELECT k FROM wide WHERE v = ? AND k > 5", [3])
    # k | AND(=(v, ?), >(k, 5)): eight nodes
    assert counts["builds"] == 8


# -- the scan underneath -----------------------------------------------------

@settings(max_examples=60, deadline=None)
@given(before=st.lists(_STEP, max_size=14), moved=_IDS,
       inserted=st.tuples(st.integers(40, 45), _US, _WS, _SS), deleted=_IDS)
def test_visible_rows_is_visible_version_row_by_row(before, moved, inserted,
                                                    deleted):
    arm = _Arm(True)
    for step in before:
        arm.step(step)
    table = arm.engine.database("shop").table("t")
    old_snapshot = Snapshot(arm.engine.clock.now)
    _Arm.run(arm.writer, "DELETE FROM t WHERE id = ?", [deleted])
    # an open transaction: its own uncommitted version, a row it deleted
    inside = arm.connect()
    inside.execute("BEGIN")
    _Arm.run(inside, "UPDATE t SET w = 3 WHERE id = ?", [moved])
    _Arm.run(inside, "INSERT INTO t VALUES (?, ?, ?, ?)", inserted)
    _Arm.run(inside, "DELETE FROM t WHERE id = ?", [(moved + 1) % 20])
    # an aborted writer: its versions are unlinked, its deletes undone
    aborted = arm.connect()
    aborted.execute("BEGIN")
    _Arm.run(aborted, "INSERT INTO t VALUES (?, ?, ?, ?)", (50, 50, 1, "a"))
    _Arm.run(aborted, "DELETE FROM t WHERE id = ?", [(moved + 2) % 20])
    aborted.execute("ROLLBACK")
    now = Snapshot(arm.engine.clock.now)
    readers = [(now, None, False), (old_snapshot, None, False),
               (now, inside.txn.id, False), (old_snapshot, inside.txn.id, False),
               (now, None, True)]           # READ UNCOMMITTED
    for snapshot, txn_id, dirty in readers:
        expected = [version for version in (
            visible_version(table, row_id, snapshot, txn_id, dirty=dirty)
            for row_id in list(table._rows)) if version is not None]
        got = list(visible_rows(table, snapshot, txn_id, dirty=dirty))
        assert [id(v) for v in got] == [id(v) for v in expected]
