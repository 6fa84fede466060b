"""A session's open transaction is one record with one lifetime.

``core/transaction.OpenTransaction`` is created by BEGIN (explicit, or
implicit around an autocommit write) as ``session.txn`` and dropped by
one end path, which also releases statement replication's table locks.
These tests pin that no second copy of the state exists, that ``close``
and ``fail`` end a transaction through that path, and — as a Hypothesis
property over three clusters — that no lock, log hold or sticky entry
outlives the record it belongs to.
"""

import ast
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core import (
    BalancingLevel, LoadBalancer, MiddlewareConfig, MiddlewareError,
    ReplicationMiddleware,
)
from repro.ha.promotion import cold_restart
from repro.sqlengine import SQLError
from repro.sqlengine.locks import LockConflict

from tests.conftest import KV_SCHEMA, make_replicas, seed_kv

SRC = Path(__file__).resolve().parents[2] / "src" / "repro"

#: the session attributes the record replaced
OLD_ATTRIBUTES = {"_txn_connections", "_txn_statements",
                  "_txn_tables_written", "_txn_start_seq", "_txn_is_write",
                  "_txn_isolation", "_local_replica"}

KEYS = 4

MODES = {
    "statement-sync": ("statement", "sync"),
    "writeset-sync": ("writeset", "sync"),
    "writeset-async": ("writeset", "async"),
}

#: what a step may raise and the client answers with ROLLBACK: wait-die
#: (``DeadlockError``, or ``LockConflict`` for an older waiter),
#: certification (``SerializationError``), "already in progress"
PROTOCOL_ERRORS = (SQLError, LockConflict, MiddlewareError)


def _cluster(replication, propagation):
    middleware = ReplicationMiddleware(
        make_replicas(3, schema=KV_SCHEMA),
        MiddlewareConfig(
            replication=replication, propagation=propagation,
            balancer=LoadBalancer(level=BalancingLevel.CONNECTION)))
    seed_kv(middleware, rows=KEYS)
    middleware.drain_all()  # every replica's snapshot holds every key
    return middleware


def _names(tree):
    for node in ast.walk(tree):
        if isinstance(node, ast.Attribute):
            yield node.attr
        elif isinstance(node, ast.Name):
            yield node.id
        elif isinstance(node, (ast.FunctionDef, ast.ClassDef)):
            yield node.name


# -- one owner -------------------------------------------------------------

def test_no_module_names_the_old_transaction_fields():
    """The record is the only owner: no module under ``src/repro``
    reads or writes the seven session fields it replaced."""
    found = {}
    for path in sorted(SRC.rglob("*.py")):
        hits = OLD_ATTRIBUTES & set(_names(ast.parse(path.read_text())))
        if hits:
            found[path.relative_to(SRC).as_posix()] = sorted(hits)
    assert found == {}


def test_statement_replication_keeps_nothing_per_session():
    """Lock id and footprint live on the record: the protocol has no
    per-session dict to forget and no ``release`` to call."""
    tree = ast.parse((SRC / "core" / "statement_replication.py").read_text())
    [cls] = [node for node in tree.body if isinstance(node, ast.ClassDef)
             and node.name == "StatementReplication"]
    methods = {node.name for node in cls.body
               if isinstance(node, ast.FunctionDef)}
    assert "release" not in methods
    mw = _cluster("statement", "sync")
    state = vars(mw.statement_replication)
    assert not [name for name, value in state.items()
                if isinstance(value, dict)]


# -- close and fail end the transaction -------------------------------------

@pytest.mark.parametrize("replication", ["statement", "writeset"])
def test_a_closed_session_has_no_transaction(replication):
    mw = _cluster(replication, "sync")
    session = mw.connect(database="shop")
    session.begin()
    session.execute("UPDATE kv SET v = v + 1 WHERE k = 1")
    session.close()
    assert session.in_transaction is False
    assert mw.statement_replication.table_locks.holders_of("kv") == []
    # nothing committed, and the next writer is not blocked
    other = mw.connect(database="shop")
    other.execute("UPDATE kv SET v = v + 1 WHERE k = 1")
    assert other.execute("SELECT SUM(v) FROM kv").scalar() == 1
    other.close()
    assert mw.check_convergence()


def test_fail_ends_every_session_like_close():
    """``fail`` used to leave a dead session's sticky replica in the
    balancer and its read connections open."""
    mw = _cluster("writeset", "sync")
    reader = mw.connect(database="shop")
    reader.execute("SELECT v FROM kv WHERE k = 0")
    writer = mw.connect(database="shop")
    writer.begin()
    writer.execute("UPDATE kv SET v = v + 1 WHERE k = 1")
    connections = list(reader.connections.values())
    assert connections and mw.config.balancer._sticky
    assert mw.fail() == 1                  # one open transaction lost
    mw.recover()
    assert mw.config.balancer._sticky == {}
    assert all(connection.closed for connection in connections)
    assert mw.sessions == []
    for session in (reader, writer):
        assert session.closed and session.in_transaction is False
    assert mw.retention()["holder"] != f"session:{writer.id}"
    fresh = mw.connect(database="shop")
    assert fresh.execute("SELECT SUM(v) FROM kv").scalar() == 0
    fresh.close()


@pytest.mark.parametrize("restart", ["recover", "cold_restart"])
def test_a_restart_rebuilds_from_caught_up_replicas(restart):
    """Found by the property below: a certifier rebuilt from replica
    watermarks starts with an empty log, and under asynchronous
    propagation a new transaction could still read at a replica that
    had not applied the last commits — its increment certified against
    nothing and overwrote one of them."""
    mw = _cluster("writeset", "async")
    writer = mw.connect(database="shop")
    writer.execute("UPDATE kv SET v = v + 1 WHERE k = 2")
    mw.fail()
    if restart == "recover":
        mw.recover()
    else:
        cold_restart(mw)
    assert [r.applied_seq for r in mw.replicas] == [mw.global_seq] * 3
    statement, text, params = mw.statements.script(
        "UPDATE kv SET v = v + 1 WHERE k = 2")[0]
    for replica in mw.replicas:
        late = mw.connect(database="shop")
        late.execute_one_parsed(statement, text, params, replica=replica)
        late.close()
        mw.drain_all()
    assert mw.check_convergence()
    reader = mw.connect(database="shop")
    assert reader.execute("SELECT SUM(v) FROM kv").scalar() == 4
    reader.close()


# -- the lifecycle property -------------------------------------------------

STEPS = st.one_of(
    st.tuples(st.sampled_from(["begin", "select", "commit", "rollback",
                               "close"]),
              st.integers(0, 2), st.just(0)),
    st.tuples(st.just("update"), st.integers(0, 2),
              st.integers(0, KEYS - 1)),
    st.tuples(st.just("fail"), st.just(0), st.just(0)),
)


def _check(mw, closed):
    """What must hold after every step."""
    open_txns = {s.id: s.txn for s in mw.sessions if s.txn is not None}
    lock_ids = {txn.lock_id for txn in open_txns.values()}
    holders = {owner for owner, _mode in
               mw.statement_replication.table_locks.holders_of("kv")}
    assert holders <= lock_ids
    for _seq, kind, name in mw._log_holders():
        if kind == "session":
            assert name in open_txns
    sticky = mw.config.balancer._sticky
    for session in closed:
        assert session.in_transaction is False
        assert session.id not in sticky


def _lifecycle_property(max_examples):
    """The property at ``max_examples`` (a fresh ``given`` each time:
    tier-1 and the soak run the same body)."""
    @settings(max_examples=max_examples, deadline=None)
    @given(steps=st.lists(STEPS, max_size=40))
    def lifecycle(mode, steps):
        mw = _cluster(*MODES[mode])
        sessions = [mw.connect(database="shop") for _ in range(3)]
        closed = []
        in_txn = [False] * 3
        pending = [0] * 3
        committed = 0

        def run(index, sql, params=None):
            try:
                sessions[index].execute(sql, params)
                return True
            except PROTOCOL_ERRORS:
                sessions[index].execute("ROLLBACK")
                in_txn[index], pending[index] = False, 0
                return False

        for op, index, key in steps:
            session = sessions[index]
            if op == "begin":
                if run(index, "BEGIN"):
                    in_txn[index], pending[index] = True, 0
            elif op == "update":
                if run(index, "UPDATE kv SET v = v + 1 WHERE k = ?", [key]):
                    if in_txn[index]:
                        pending[index] += 1
                    else:
                        committed += 1
            elif op == "select":
                run(index, "SELECT SUM(v) FROM kv")
            elif op == "commit":
                if run(index, "COMMIT"):
                    committed += pending[index]
                in_txn[index], pending[index] = False, 0
            elif op == "rollback":
                run(index, "ROLLBACK")
                in_txn[index], pending[index] = False, 0
            elif op == "close":
                session.close()
                closed.append(session)
                sessions[index] = mw.connect(database="shop")
                in_txn[index], pending[index] = False, 0
            else:
                mw.fail()
                mw.recover()
                closed.extend(sessions)
                sessions = [mw.connect(database="shop") for _ in range(3)]
                in_txn, pending = [False] * 3, [0] * 3
            assert [s.in_transaction for s in sessions] == in_txn
            _check(mw, closed)

        for session in sessions:
            session.close()
        _check(mw, closed + sessions)
        mw.drain_all()
        assert mw.check_convergence()
        reader = mw.connect(database="shop")
        assert reader.execute("SELECT SUM(v) FROM kv").scalar() == committed
        reader.close()
    return pytest.mark.parametrize("mode", sorted(MODES))(lifecycle)


test_no_state_outlives_its_transaction = _lifecycle_property(30)
test_no_state_outlives_its_transaction_soak = pytest.mark.soak(
    _lifecycle_property(600))
