"""A session holds one engine connection per replica for its whole life.

Reads, transactions (explicit, or the implicit one around an autocommit
write) and temp-table work (section 4.1.4) begin and end on the
session's connection at a replica; nothing opens one per transaction.
These tests count ``Engine.connect`` calls, pin that temp-table work
and the rest of a transaction at the pinned replica share that
connection, that a crash mid-transaction leaves the session able to run
the next transaction on the recovered engine, and — over the source —
that one function in ``core/`` opens a replica's engine connection.
"""

import ast
from collections import Counter
from pathlib import Path

import pytest

from repro.bench.harness import build_cluster
from repro.core import MiddlewareConfig, ReplicationMiddleware
from repro.core.errors import ReplicaUnavailable, UnsupportedStatementError
from repro.sqlengine import Engine
from repro.sqlengine.dialects import mysql

from tests.conftest import KV_SCHEMA, make_replicas, seed_kv

ROOT = Path(__file__).resolve().parents[2]
SRC = ROOT / "src" / "repro"

#: names of the holders and batch API this design removed
GONE = ("_pinned_connection", "_read_connections", "begin_batch",
        "end_batch", "certify_batch", "in_batch", "last_flush")


def _cluster(replication, replicas=3):
    middleware = ReplicationMiddleware(
        make_replicas(replicas, schema=KV_SCHEMA),
        MiddlewareConfig(replication=replication, propagation="sync"))
    seed_kv(middleware, rows=4)
    middleware.drain_all()
    return middleware


@pytest.fixture
def connects(monkeypatch):
    """``Engine.connect`` calls, by engine name."""
    counts = Counter()
    connect = Engine.connect

    def counting(engine, *args, **kwargs):
        counts[engine.name] += 1
        return connect(engine, *args, **kwargs)
    monkeypatch.setattr(Engine, "connect", counting)
    return counts


@pytest.mark.parametrize("replication", ["writeset", "statement"])
def test_autocommit_writes_open_one_connection_per_replica(replication,
                                                           connects):
    mw = _cluster(replication)
    session = mw.connect(database="shop")
    connects.clear()
    for index in range(100):
        session.execute(f"UPDATE kv SET v = {index} WHERE k = {index % 4}")
        session.execute(f"SELECT v FROM kv WHERE k = {index % 4}")
    assert connects and max(connects.values()) == 1
    assert set(connects) == set(session.connections)
    session.close()
    assert mw.check_convergence()


def test_pinned_work_shares_the_transactions_connection(connects):
    """A transaction that writes at a replica and then pins temp-table
    work there runs both on one connection, so its COMMIT commits
    both."""
    mw = _cluster("writeset")
    session = mw.connect(database="shop")
    connects.clear()
    session.begin()
    session.execute("UPDATE kv SET v = 5 WHERE k = 1")
    session.execute("CREATE TEMPORARY TABLE scratch (x INT)")
    session.execute("INSERT INTO scratch VALUES (1)")
    session.commit()
    assert session.pinned_replica is not None
    assert session.execute("SELECT COUNT(*) FROM scratch").scalar() == 1
    assert dict(connects) == {session.pinned_replica: 1}
    for replica in mw.replicas:
        check = replica.engine.connect(database="shop")
        assert check.execute("SELECT v FROM kv WHERE k = 1").scalar() == 5
    session.close()
    assert mw.check_convergence()


def test_a_crash_mid_transaction_leaves_the_session_usable():
    """The engine crashed under an open transaction: ending it drops the
    broken connection, so after recovery the session begins afresh
    there instead of inheriting the dead transaction and temp space."""
    mw = _cluster("writeset", replicas=1)
    (replica,) = mw.replicas
    session = mw.connect(database="shop")
    session.execute("CREATE TEMPORARY TABLE scratch (x INT)")
    session.begin()
    session.execute("INSERT INTO scratch VALUES (1)")
    session.execute("UPDATE kv SET v = 1 WHERE k = 0")
    replica.engine.crash()
    with pytest.raises(ReplicaUnavailable):
        session.commit()
    assert not session.in_transaction
    assert replica.name not in session.connections
    replica.engine.recover()
    # the crash took the temp table with its connection (4.1.4)
    session.execute("CREATE TEMPORARY TABLE scratch (x INT)")
    session.begin()
    session.execute("INSERT INTO scratch VALUES (2)")
    session.execute("UPDATE kv SET v = 2 WHERE k = 0")
    session.commit()
    assert session.execute("SELECT v FROM kv WHERE k = 0").scalar() == 2
    assert session.execute("SELECT SUM(x) FROM scratch").scalar() == 2
    assert replica.engine.active_transactions == {}
    session.close()


def _connect_callers(tree):
    """Functions that call ``<something>.engine.connect(...)``."""
    callers = set()
    for function in ast.walk(tree):
        if not isinstance(function, (ast.FunctionDef, ast.AsyncFunctionDef)):
            continue
        for node in ast.walk(function):
            if isinstance(node, ast.Call) \
                    and isinstance(node.func, ast.Attribute) \
                    and node.func.attr == "connect" \
                    and isinstance(node.func.value, ast.Attribute) \
                    and node.func.value.attr == "engine":
                callers.add(function.name)
    return callers


def test_one_function_opens_a_replicas_connection():
    """``MiddlewareSession.connection`` is the one place ``core/`` opens
    a replica's engine connection.  (The recovery log's replay opens an
    admin connection on a bare engine, with no session or replica.)"""
    callers = {}
    for path in sorted((SRC / "core").glob("*.py")):
        for name in _connect_callers(ast.parse(path.read_text())):
            callers.setdefault(path.name, set()).add(name)
    assert callers == {"middleware.py": {"connection"}}


def test_removed_holders_and_batch_api_stay_gone():
    here = Path(__file__).resolve()
    for path in sorted(SRC.rglob("*.py")) + sorted(
            (ROOT / "tests").rglob("*.py")):
        if path.resolve() == here:
            continue
        text = path.read_text()
        for name in GONE:
            assert name not in text, (path, name)


@pytest.mark.parametrize("replication", ["writeset", "statement"])
@pytest.mark.parametrize("level", ["SERIALIZABLE", "SNAPSHOT"])
def test_set_isolation_is_refused_and_changes_no_connection(replication,
                                                            level):
    """``SET TRANSACTION ISOLATION LEVEL`` is connection-local state at
    one engine; the session holds one connection per replica, so the
    middleware refuses it (section 4.1.2) instead of running it as a
    write at whichever replica the write lands on.  Before, the SET
    reached one of three connections, and on MySQL replicas a refused
    SNAPSHOT left that connection failing every later statement."""
    mw = build_cluster(3, replication=replication, consistency="gsi",
                       dialect_factory=mysql)
    session = mw.connect(database="shop")
    session.execute("CREATE TABLE kv (k INT PRIMARY KEY, v INT)")
    session.execute("INSERT INTO kv (k, v) VALUES (1, 10)")
    for _ in range(3):
        session.execute("SELECT v FROM kv WHERE k = 1")
    with pytest.raises(UnsupportedStatementError):
        session.execute(f"SET TRANSACTION ISOLATION LEVEL {level}")
    default = mw.replicas[0].engine.dialect.default_isolation
    assert len(session.connections) == 3
    assert {c.default_isolation for c in session.connections.values()} \
        == {default}
    for _ in range(6):      # round robin: every replica twice
        assert session.execute("SELECT v FROM kv WHERE k = 1").scalar() \
            == 10
    session.execute("UPDATE kv SET v = 11 WHERE k = 1")
    session.execute("BEGIN ISOLATION LEVEL READ COMMITTED")
    assert session.execute("SELECT v FROM kv WHERE k = 1").scalar() == 11
    session.execute("COMMIT")
