"""What a statement that cannot be evaluated leaves behind: a typed
error, and nothing else.

Until PR 22 five hand-typed statements raised a bare Python exception
out of the evaluator; ``Connection._execute_one`` cleaned up only after
a ``SQLError``, so the implicit transaction stayed open and every later
autocommit write of that connection was silently never committed.  Both
halves are pinned here: the value layer raises ``TypeError_``, and the
connection cleans up after *any* exception.
"""

import pytest

from repro.sqlengine import (
    Engine, SQLError, TransactionAbortedError, TypeError_, generic, mysql,
    postgresql,
)
from repro.sqlengine import functions

BIG = 2 ** 53       # the first integer float() rounds


@pytest.fixture
def engine():
    engine = Engine("typed", dialect=generic(), seed=5)
    engine.create_database("shop")
    setup = engine.connect(database="shop")
    setup.execute("CREATE TABLE kv (k INT PRIMARY KEY, v INT, pad VARCHAR)")
    setup.execute("INSERT INTO kv VALUES (1, 10, NULL), (2, 20, 'x'), "
                  "(3, 30, 'y')")
    setup.close()
    return engine


HOSTILE = [
    ("SELECT SUM(pad) FROM kv", []),
    ("SELECT AVG(pad) FROM kv", []),
    ("SELECT v FROM kv WHERE k BETWEEN ? AND ?", [[1], 5]),
    ("SELECT -pad FROM kv", []),
    ("SELECT k FROM kv LIMIT ?", ["x"]),
]


@pytest.mark.parametrize("sql, params", HOSTILE)
def test_a_typed_error_and_a_connection_that_still_commits(engine, sql,
                                                           params):
    conn = engine.connect(database="shop")
    with pytest.raises(SQLError):
        conn.execute(sql, params)
    assert conn.txn is None
    assert engine.active_transactions == {}
    conn.execute("UPDATE kv SET v = 99 WHERE k = 1")
    other = engine.connect(database="shop")
    assert other.execute("SELECT v FROM kv WHERE k = 1").scalar() == 99


@pytest.fixture
def bare_raise(monkeypatch):
    """``BOOM(x)``: NULL for NULL, otherwise a bare Python exception —
    what no statement of the engine raises any more, and what cleanup
    must survive all the same."""
    def boom(env, args, user):
        if args[0] is not None:
            raise RuntimeError("not a SQLError")
    monkeypatch.setitem(functions._SCALAR_FUNCTIONS, "BOOM", boom)


@pytest.mark.usefixtures("bare_raise")
def test_any_exception_ends_the_implicit_transaction(engine):
    """Cleanup does not depend on the error being typed."""
    conn = engine.connect(database="shop")
    with pytest.raises(RuntimeError):
        conn.execute("SELECT BOOM(pad) FROM kv")
    assert conn.txn is None
    conn.execute("UPDATE kv SET v = 99 WHERE k = 1")
    other = engine.connect(database="shop")
    assert other.execute("SELECT v FROM kv WHERE k = 1").scalar() == 99


@pytest.mark.usefixtures("bare_raise")
@pytest.mark.parametrize("dialect", [mysql, postgresql])
def test_any_exception_undoes_the_statement_inside_a_transaction(dialect):
    engine = Engine("typed", dialect=dialect(), seed=5)
    engine.create_database("shop")
    conn = engine.connect(database="shop")
    conn.execute("CREATE TABLE kv (k INT PRIMARY KEY, v INT, pad VARCHAR)")
    conn.execute("INSERT INTO kv VALUES (1, 10, NULL), (2, 20, 'x')")
    conn.execute("BEGIN")
    conn.execute("UPDATE kv SET v = 11 WHERE k = 1")
    # row 1 (pad NULL) is updated before row 2 ('x') raises
    with pytest.raises(RuntimeError):
        conn.execute("UPDATE kv SET v = BOOM(pad)")
    if engine.dialect.error_aborts_transaction:
        # the failure poisons the transaction like any other
        with pytest.raises(TransactionAbortedError):
            conn.execute("SELECT 1")
        conn.execute("ROLLBACK")
        expected = [(1, 10), (2, 20)]
    else:
        assert conn.execute("SELECT k, v FROM kv ORDER BY k").rows \
            == [(1, 11), (2, 20)]
        conn.execute("COMMIT")
        expected = [(1, 11), (2, 20)]
    other = engine.connect(database="shop")
    assert other.execute("SELECT k, v FROM kv ORDER BY k").rows == expected


@pytest.mark.parametrize("call", [
    "ABS('x')", "GREATEST(1, 'a')", "LEAST(1, 'a')", "MOD(1, 'a')",
    "CEIL('x')", "FLOOR('x')", "ROUND('x')", "ROUND(1.5, 'x')",
    "SUBSTR('abc', 'x')", "ROUND(1e309)",
])
def test_a_scalar_function_rejects_an_argument_with_a_typed_error(engine,
                                                                  call):
    conn = engine.connect(database="shop")
    with pytest.raises(TypeError_, match="invalid argument"):
        conn.execute(f"SELECT {call}")
    assert conn.txn is None
    assert conn.execute("SELECT ABS(-2), MOD(7, 3)").rows == [(2, 1)]


def test_mod_by_zero_is_null_like_the_operator(engine):
    conn = engine.connect(database="shop")
    assert conn.execute("SELECT MOD(1, 0), 1 % 0, MOD(2.5, 0.0)").rows \
        == [(None, None, None)]


@pytest.mark.parametrize("sql", [
    "SELECT k FROM kv ORDER BY -pad",               # raised at the parent
    "SELECT k FROM kv ORDER BY v + pad",            # was sorted as NULL
    "SELECT pad AS x FROM kv GROUP BY pad ORDER BY -x",
])
def test_order_by_does_not_swallow_a_type_error(engine, sql):
    """``_order_rows`` falls back from the source row to the output row
    when a *name* does not resolve; an operand of the wrong type is the
    client's error in ORDER BY as anywhere else."""
    conn = engine.connect(database="shop")
    with pytest.raises(TypeError_, match="not supported for"):
        conn.execute(sql)
    assert conn.txn is None
    # the fallback itself: an alias inside an ORDER BY expression
    assert conn.execute("SELECT k AS kk FROM kv ORDER BY kk + 1 DESC").rows \
        == [(3,), (2,), (1,)]


@pytest.mark.parametrize("indexed", [True, False])
@pytest.mark.parametrize("use_indexes", [True, False])
def test_integers_compare_exactly_on_every_access_path(indexed, use_indexes):
    engine = Engine("exact", dialect=generic(), seed=5)
    engine.use_indexes = use_indexes
    engine.create_database("shop")
    conn = engine.connect(database="shop")
    conn.execute("CREATE TABLE big (k INT PRIMARY KEY, v BIGINT)")
    if indexed:
        conn.execute("CREATE INDEX big_v ON big (v)")
    conn.execute("INSERT INTO big VALUES (1, ?)", [BIG])
    for sql in ("SELECT k FROM big WHERE v = ?",
                "SELECT k FROM big WHERE v IN (?, -1)"):
        assert conn.execute(sql, [BIG + 1]).rows == [], sql
        assert conn.execute(sql, [BIG]).rows == [(1,)], sql
    assert conn.execute("SELECT k FROM big WHERE v <> ?",
                        [BIG + 1]).rows == [(1,)]
    assert conn.execute("SELECT k FROM big WHERE v = ?",
                        [float(BIG)]).rows == [(1,)]


@pytest.mark.parametrize("indexed", [True, False])
def test_an_integer_written_as_text_compares_exactly(indexed):
    """The string ↔ number branch stays: ``v = '9007199254740993'`` found
    the row holding that integer when both sides went through ``float()``,
    and still does — without also finding its float neighbour."""
    engine = Engine("exact", dialect=generic(), seed=5)
    engine.create_database("shop")
    conn = engine.connect(database="shop")
    conn.execute("CREATE TABLE big (k INT PRIMARY KEY, v BIGINT)")
    if indexed:
        conn.execute("CREATE INDEX big_v ON big (v)")
    conn.execute("INSERT INTO big VALUES (1, ?), (2, ?)", [BIG, BIG + 1])
    for sql in ("SELECT k FROM big WHERE v = ?",
                "SELECT k FROM big WHERE v IN (?, -1)",
                "SELECT k FROM big WHERE ? = v"):
        assert conn.execute(sql, [str(BIG + 1)]).rows == [(2,)], sql
        assert conn.execute(sql, [str(BIG)]).rows == [(1,)], sql
    assert conn.execute("SELECT k FROM big WHERE v = ?", ["10.0"]).rows == []
    conn.execute("INSERT INTO big VALUES (3, 10)")
    for text in ("10", " 10 ", "10.0", "1e1"):
        assert conn.execute("SELECT k FROM big WHERE v = ?",
                            [text]).rows == [(3,)], text
    assert conn.execute("SELECT k FROM big WHERE v = 'ten'").rows == []


@pytest.mark.parametrize("clause, value", [
    ("LIMIT", -1), ("LIMIT", None), ("LIMIT", True), ("LIMIT", 2.5),
    ("LIMIT", "2"), ("LIMIT 2 OFFSET", -1), ("LIMIT 2 OFFSET", 1.0),
    ("OFFSET", -2),
])
def test_limit_and_offset_are_validated_not_sliced(engine, clause, value):
    conn = engine.connect(database="shop")
    for order in ("", "ORDER BY k "):       # with and without the top-N path
        with pytest.raises(TypeError_, match="non-negative integer"):
            conn.execute(f"SELECT k FROM kv {order}{clause} ?", [value])
    assert conn.txn is None


def test_valid_limits_still_slice(engine):
    conn = engine.connect(database="shop")
    rows = "SELECT k FROM kv ORDER BY k "
    assert conn.execute(rows + "LIMIT 0").rows == []
    assert conn.execute(rows + "LIMIT 2 OFFSET 1").rows == [(2,), (3,)]
    assert conn.execute(rows + "OFFSET 2").rows == [(3,)]
    assert conn.execute(rows + "LIMIT ?", [5]).rows == [(1,), (2,), (3,)]
