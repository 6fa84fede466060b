"""Transaction semantics: atomicity, isolation levels, conflicts."""

import pytest

from repro.sqlengine import (
    DeadlockError, IntegrityError, SerializationError, SQLError,
    TransactionAbortedError, UnsupportedFeatureError,
)
from repro.sqlengine.locks import LockConflict


@pytest.fixture
def kv(conn):
    conn.execute("CREATE TABLE kv (k INT PRIMARY KEY, v INT)")
    conn.execute("INSERT INTO kv VALUES (1, 10), (2, 20), (3, 30)")
    return conn


def second_conn(connection):
    return connection.engine.connect(database="shop")


def test_commit_makes_changes_visible(kv):
    kv.execute("BEGIN")
    kv.execute("UPDATE kv SET v = 11 WHERE k = 1")
    kv.execute("COMMIT")
    other = second_conn(kv)
    assert other.execute("SELECT v FROM kv WHERE k = 1").scalar() == 11


def test_rollback_discards_changes(kv):
    kv.execute("BEGIN")
    kv.execute("UPDATE kv SET v = 99 WHERE k = 1")
    kv.execute("INSERT INTO kv VALUES (4, 40)")
    kv.execute("DELETE FROM kv WHERE k = 2")
    kv.execute("ROLLBACK")
    assert kv.execute("SELECT v FROM kv WHERE k = 1").scalar() == 10
    assert kv.execute("SELECT COUNT(*) FROM kv").scalar() == 3


def test_own_writes_visible_inside_txn(kv):
    kv.execute("BEGIN")
    kv.execute("UPDATE kv SET v = 99 WHERE k = 1")
    assert kv.execute("SELECT v FROM kv WHERE k = 1").scalar() == 99
    kv.execute("ROLLBACK")


def test_uncommitted_invisible_to_others(kv):
    other = second_conn(kv)
    kv.execute("BEGIN")
    kv.execute("INSERT INTO kv VALUES (4, 40)")
    assert other.execute("SELECT COUNT(*) FROM kv").scalar() == 3
    kv.execute("COMMIT")
    assert other.execute("SELECT COUNT(*) FROM kv").scalar() == 4


def test_read_committed_sees_new_commits(kv):
    other = second_conn(kv)
    kv.execute("BEGIN ISOLATION LEVEL READ COMMITTED")
    before = kv.execute("SELECT COUNT(*) FROM kv").scalar()
    other.execute("INSERT INTO kv VALUES (4, 40)")
    after = kv.execute("SELECT COUNT(*) FROM kv").scalar()
    kv.execute("COMMIT")
    assert before == 3 and after == 4


def test_snapshot_isolation_stable_reads(kv):
    other = second_conn(kv)
    kv.execute("BEGIN ISOLATION LEVEL SNAPSHOT")
    before = kv.execute("SELECT COUNT(*) FROM kv").scalar()
    other.execute("INSERT INTO kv VALUES (4, 40)")
    after = kv.execute("SELECT COUNT(*) FROM kv").scalar()
    kv.execute("COMMIT")
    assert before == after == 3


def test_read_uncommitted_dirty_read(kv):
    other = second_conn(kv)
    other.execute("BEGIN")
    other.execute("UPDATE kv SET v = 555 WHERE k = 1")
    kv.execute("BEGIN ISOLATION LEVEL READ UNCOMMITTED")
    dirty = kv.execute("SELECT v FROM kv WHERE k = 1").scalar()
    kv.execute("COMMIT")
    other.execute("ROLLBACK")
    assert dirty == 555


def test_first_updater_wins_under_si(kv):
    other = second_conn(kv)
    kv.execute("BEGIN ISOLATION LEVEL SNAPSHOT")
    kv.execute("SELECT * FROM kv")
    other.execute("UPDATE kv SET v = 21 WHERE k = 2")  # commits first
    with pytest.raises(SerializationError):
        kv.execute("UPDATE kv SET v = 22 WHERE k = 2")
    kv.execute("ROLLBACK")


def test_si_non_overlapping_writes_ok(kv):
    other = second_conn(kv)
    kv.execute("BEGIN ISOLATION LEVEL SNAPSHOT")
    other.execute("UPDATE kv SET v = 21 WHERE k = 2")
    kv.execute("UPDATE kv SET v = 31 WHERE k = 3")  # different row: fine
    kv.execute("COMMIT")
    assert kv.execute("SELECT v FROM kv WHERE k = 3").scalar() == 31


def test_write_write_conflict_uncommitted(kv):
    other = second_conn(kv)
    other.execute("BEGIN")
    other.execute("UPDATE kv SET v = 21 WHERE k = 2")
    kv.execute("BEGIN")
    with pytest.raises((LockConflict, DeadlockError)):
        kv.execute("UPDATE kv SET v = 22 WHERE k = 2")
    kv.execute("ROLLBACK")
    other.execute("COMMIT")
    assert kv.execute("SELECT v FROM kv WHERE k = 2").scalar() == 21


def test_concurrent_insert_same_pk_conflicts(kv):
    other = second_conn(kv)
    other.execute("BEGIN")
    other.execute("INSERT INTO kv VALUES (9, 90)")
    kv.execute("BEGIN")
    with pytest.raises((LockConflict, DeadlockError)):
        kv.execute("INSERT INTO kv VALUES (9, 91)")
    kv.execute("ROLLBACK")
    other.execute("ROLLBACK")


def test_serializable_table_locks(kv):
    other = second_conn(kv)
    kv.execute("BEGIN ISOLATION LEVEL SERIALIZABLE")
    kv.execute("UPDATE kv SET v = 1 WHERE k = 1")  # X lock on kv
    other.execute("BEGIN ISOLATION LEVEL SERIALIZABLE")
    with pytest.raises((LockConflict, DeadlockError)):
        other.execute("SELECT * FROM kv")  # S lock blocked
    other.execute("ROLLBACK")
    kv.execute("COMMIT")


def test_serializable_readers_share(kv):
    other = second_conn(kv)
    kv.execute("BEGIN ISOLATION LEVEL SERIALIZABLE")
    kv.execute("SELECT * FROM kv")
    other.execute("BEGIN ISOLATION LEVEL SERIALIZABLE")
    other.execute("SELECT * FROM kv")  # shared locks coexist
    kv.execute("COMMIT")
    other.execute("COMMIT")


def test_locks_released_at_commit(kv):
    other = second_conn(kv)
    kv.execute("BEGIN ISOLATION LEVEL SERIALIZABLE")
    kv.execute("UPDATE kv SET v = 1 WHERE k = 1")
    kv.execute("COMMIT")
    other.execute("BEGIN ISOLATION LEVEL SERIALIZABLE")
    other.execute("UPDATE kv SET v = 2 WHERE k = 1")  # no conflict now
    other.execute("COMMIT")


def test_nested_begin_rejected(kv):
    kv.execute("BEGIN")
    with pytest.raises(SQLError):
        kv.execute("BEGIN")
    kv.execute("ROLLBACK")


def test_commit_without_txn_is_noop(kv):
    kv.execute("COMMIT")
    kv.execute("ROLLBACK")


def test_writeset_captured(kv):
    kv.execute("BEGIN")
    kv.execute("UPDATE kv SET v = 11 WHERE k = 1")
    kv.execute("INSERT INTO kv VALUES (5, 50)")
    kv.execute("DELETE FROM kv WHERE k = 2")
    writeset = kv.txn.writeset
    ops = [entry.op for entry in writeset]
    assert ops == ["UPDATE", "INSERT", "DELETE"]
    assert writeset.entries[0].old_values["v"] == 10
    assert writeset.entries[0].new_values["v"] == 11
    assert writeset.entries[0].primary_key == (1,)
    kv.execute("ROLLBACK")


def test_snapshot_unsupported_dialect(mysql_engine):
    connection = mysql_engine.connect(database="shop")
    with pytest.raises(UnsupportedFeatureError):
        connection.execute("BEGIN ISOLATION LEVEL SNAPSHOT")


def test_pg_error_poisons_transaction(pg_engine):
    connection = pg_engine.connect(database="shop")
    connection.execute("CREATE TABLE t (id INT PRIMARY KEY)")
    connection.execute("BEGIN")
    connection.execute("INSERT INTO t VALUES (1)")
    with pytest.raises(IntegrityError):
        connection.execute("INSERT INTO t VALUES (1)")
    with pytest.raises(TransactionAbortedError):
        connection.execute("SELECT * FROM t")
    connection.execute("ROLLBACK")
    # transaction was effectively aborted entirely
    assert connection.execute("SELECT COUNT(*) FROM t").scalar() == 0


def test_mysql_error_leaves_transaction_usable(mysql_engine):
    connection = mysql_engine.connect(database="shop")
    connection.execute("CREATE TABLE t (id INT PRIMARY KEY)")
    connection.execute("BEGIN")
    connection.execute("INSERT INTO t VALUES (1)")
    with pytest.raises(IntegrityError):
        connection.execute("INSERT INTO t VALUES (1)")
    connection.execute("INSERT INTO t VALUES (2)")  # still usable
    connection.execute("COMMIT")
    assert connection.execute("SELECT COUNT(*) FROM t").scalar() == 2


def test_commit_of_failed_txn_rolls_back(pg_engine):
    connection = pg_engine.connect(database="shop")
    connection.execute("CREATE TABLE t (id INT PRIMARY KEY)")
    connection.execute("BEGIN")
    connection.execute("INSERT INTO t VALUES (1)")
    with pytest.raises(IntegrityError):
        connection.execute("INSERT INTO t VALUES (1)")
    connection.execute("COMMIT")  # PostgreSQL behaviour: commits as rollback
    assert connection.execute("SELECT COUNT(*) FROM t").scalar() == 0


def test_connection_close_rolls_back(kv):
    other = second_conn(kv)
    other.execute("BEGIN")
    other.execute("INSERT INTO kv VALUES (8, 80)")
    other.close()
    assert kv.execute("SELECT COUNT(*) FROM kv").scalar() == 3


def test_engine_crash_aborts_transactions(kv):
    engine = kv.engine
    kv.execute("BEGIN")
    kv.execute("INSERT INTO kv VALUES (7, 70)")
    engine.crash()
    engine.recover()
    fresh = engine.connect(database="shop")
    assert fresh.execute("SELECT COUNT(*) FROM kv").scalar() == 3
