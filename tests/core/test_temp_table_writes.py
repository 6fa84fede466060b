"""A write to a shared table that reads a temporary table (section 4.1.4
meets section 4.3.2).

The temp rows exist at the session's pinned replica only.  Under
writeset replication the write runs there as the transaction's origin
and its writeset carries the resulting rows, so every replica converges
without ever seeing the temp table.  Statement replication cannot replay
such a statement elsewhere, and a write that must run at another replica
(a master, or the transaction's anchor) cannot see the rows: both are
refused before anything runs.  A write *to* a temp table stays at the
pinned replica, sequenced nowhere.
"""

import pytest

from repro.core import (
    MiddlewareConfig, ReplicationMiddleware, UnsupportedStatementError,
    protocol_by_name,
)
from repro.core.middleware import MiddlewareSession

from tests.conftest import KV_SCHEMA, make_replicas, seed_kv

INSERT_FROM_TEMP = "INSERT INTO kv (k, v) SELECT x + 100, 0 FROM scratch"
UPDATE_FROM_TEMP = "UPDATE kv SET v = v + 1 WHERE k IN (SELECT x FROM t2)"


def _cluster(replication: str, consistency: str = "gsi") -> \
        ReplicationMiddleware:
    config = MiddlewareConfig(replication=replication, propagation="sync")
    if replication == "writeset":
        config = MiddlewareConfig(
            replication="writeset", propagation="sync",
            consistency=protocol_by_name(consistency))
    mw = ReplicationMiddleware(make_replicas(3, schema=KV_SCHEMA), config)
    seed_kv(mw, rows=4)
    return mw


def _counts(mw, sql="SELECT COUNT(*) FROM kv"):
    return [replica.engine.connect(database="shop").execute(sql).scalar()
            for replica in mw.replicas]


def _temp(session, name="scratch", values=(7,)):
    session.execute(f"CREATE TEMPORARY TABLE {name} (x INT)")
    for value in values:
        session.execute(f"INSERT INTO {name} VALUES ({value})")


def test_an_insert_that_reads_a_temp_table_converges_under_writesets():
    mw = _cluster("writeset")
    session = mw.connect(database="shop")
    _temp(session)
    seq = mw.global_seq
    assert session.execute(INSERT_FROM_TEMP).rowcount == 1
    assert mw.global_seq == seq + 1
    assert _counts(mw) == [5, 5, 5]
    assert _counts(mw, "SELECT v FROM kv WHERE k = 107") == [0, 0, 0]
    assert mw.check_convergence()
    session.close()


def test_an_update_that_reads_a_temp_table_converges_under_writesets():
    mw = _cluster("writeset")
    session = mw.connect(database="shop")
    _temp(session, "t2", values=(1, 3))
    assert session.execute(UPDATE_FROM_TEMP).rowcount == 2
    assert _counts(mw, "SELECT SUM(v) FROM kv") == [2, 2, 2]
    assert mw.check_convergence()
    session.close()


def test_the_write_joins_an_open_transaction_at_the_pinned_replica():
    mw = _cluster("writeset")
    session = mw.connect(database="shop")
    _temp(session)
    session.begin()
    session.execute("INSERT INTO scratch VALUES (8)")
    session.execute(INSERT_FROM_TEMP)
    assert session.txn.local_replica == session.pinned_replica
    session.commit()
    assert _counts(mw) == [6, 6, 6]
    assert mw.check_convergence()
    session.close()


@pytest.mark.parametrize("sql", [INSERT_FROM_TEMP, UPDATE_FROM_TEMP])
def test_statement_replication_refuses_a_write_that_reads_a_temp_table(sql):
    mw = _cluster("statement")
    session = mw.connect(database="shop")
    _temp(session)
    _temp(session, "t2", values=(1,))
    seq = mw.global_seq
    with pytest.raises(UnsupportedStatementError, match="temporary"):
        session.execute(sql)
    assert mw.global_seq == seq
    assert _counts(mw) == [4, 4, 4]
    assert _counts(mw, "SELECT SUM(v) FROM kv") == [0, 0, 0]
    assert mw.check_convergence()
    # the session stays usable, and its temp rows with it
    assert session.execute("SELECT COUNT(*) FROM scratch").scalar() == 1
    session.close()


def test_a_master_elsewhere_refuses_the_write():
    mw = _cluster("writeset", consistency="rsi-pc")
    session = mw.connect(database="shop")
    _temp(session)
    other = next(r.name for r in mw.replicas
                 if r.name != session.pinned_replica)
    mw.set_master(other)
    with pytest.raises(UnsupportedStatementError, match="temporary"):
        session.execute(INSERT_FROM_TEMP)
    assert _counts(mw) == [4, 4, 4]
    assert mw.check_convergence()
    session.close()


def test_an_anchor_elsewhere_refuses_the_write():
    mw = _cluster("writeset")
    session = mw.connect(database="shop")
    _temp(session)
    session.begin()
    # anchor the transaction away from the pinned replica
    other = next(r for r in mw.replicas if r.name != session.pinned_replica)
    session.txn.anchor(other)
    with pytest.raises(UnsupportedStatementError, match="temporary"):
        session.execute(INSERT_FROM_TEMP)
    session.rollback()
    assert _counts(mw) == [4, 4, 4]
    assert mw.check_convergence()
    session.close()


TEMP_THEN_SHARED = ("INSERT INTO scratch VALUES (1)",
                    "UPDATE kv SET v = 1 WHERE k = 0")


@pytest.mark.parametrize("statements", [TEMP_THEN_SHARED,
                                        TEMP_THEN_SHARED[::-1]])
@pytest.mark.parametrize("replication", ["writeset", "statement"])
def test_temp_rows_and_a_shared_write_commit_together(replication,
                                                      statements):
    mw = _cluster(replication)
    session = mw.connect(database="shop")
    session.execute("CREATE TEMPORARY TABLE scratch (x INT)")
    session.execute("SELECT v FROM kv WHERE k = 2")
    session.begin()
    for sql in statements:
        session.execute(sql)
    session.commit()
    assert session.execute("SELECT COUNT(*) FROM scratch").scalar() == 1
    assert _counts(mw, "SELECT v FROM kv WHERE k = 0") == [1, 1, 1]
    assert mw.check_convergence()
    session.close()


@pytest.mark.parametrize("statements", [TEMP_THEN_SHARED,
                                        TEMP_THEN_SHARED[::-1]])
def test_a_master_elsewhere_refuses_temp_rows_beside_a_shared_write(
        statements):
    """The transaction would commit at the master only, and the temp
    rows at the pinned replica would be rolled back unseen."""
    mw = _cluster("writeset", consistency="rsi-pc")
    session = mw.connect(database="shop")
    session.execute("CREATE TEMPORARY TABLE scratch (x INT)")
    mw.set_master(next(r.name for r in mw.replicas
                       if r.name != session.pinned_replica))
    session.begin()
    session.execute(statements[0])
    with pytest.raises(UnsupportedStatementError, match="one replica"):
        session.execute(statements[1])
    session.rollback()
    assert session.execute("SELECT COUNT(*) FROM scratch").scalar() == 0
    assert _counts(mw, "SELECT SUM(v) FROM kv") == [0, 0, 0]
    assert mw.check_convergence()
    session.close()


@pytest.mark.parametrize("replication", ["writeset", "statement"])
def test_the_pinned_path_never_runs_a_write_to_a_shared_table(
        replication, monkeypatch):
    given = []
    pinned = MiddlewareSession._execute_on_pinned

    def recording(self, txn, statement, params, info):
        given.append(statement)
        return pinned(self, txn, statement, params, info)

    monkeypatch.setattr(MiddlewareSession, "_execute_on_pinned", recording)
    mw = _cluster(replication)
    session = mw.connect(database="shop")
    _temp(session)
    _temp(session, "t2", values=(1,))
    for sql in (INSERT_FROM_TEMP, UPDATE_FROM_TEMP,
                "INSERT INTO scratch SELECT k FROM kv",
                "UPDATE scratch SET x = x + 1",
                "DELETE FROM t2 WHERE x IN (SELECT k FROM kv)",
                "SELECT COUNT(*) FROM scratch"):
        try:
            session.execute(sql)
        except UnsupportedStatementError:
            assert replication == "statement"
    session.close()
    assert given
    from repro.core.analysis import analyze
    for statement in given:
        written = {t.split(".")[-1] for t in analyze(statement).tables_written}
        assert written <= {"scratch", "t2"}, statement
    assert mw.check_convergence()
