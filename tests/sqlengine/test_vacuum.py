"""Vacuum visits only the chains that hold a deleted version.

``Table.mark_deleted`` is the one place a version gains a deleter (pinned
in ``test_one_evaluator.py``), and it notes the version's chain;
``Table.gc_versions`` visits the noted chains only and removes exactly
what a walk of every chain would (the vacuum step of
``test_range_differential.py``).  Here: which chains a vacuum looks at —
none after read-only commits, only the written ones after a replica
applies writesets — and when a chain stops being noted.
"""

import pytest

from repro.core import apply_writeset
from repro.sqlengine import Engine, IntegrityError, generic
from repro.sqlengine.engine import AUTOVACUUM_INTERVAL

ROWS = 10_000


class CountingRows(dict):
    """A table's chain map that records every chain looked up by row id
    and every walk over all of them."""

    def __init__(self, rows):
        super().__init__(rows)
        self.reset()

    def reset(self):
        self.looked_up = set()
        self.walks = 0

    def get(self, key, default=None):
        self.looked_up.add(key)
        return super().get(key, default)

    def __getitem__(self, key):
        self.looked_up.add(key)
        return super().__getitem__(key)

    def __iter__(self):
        self.walks += 1
        return super().__iter__()

    def keys(self):
        self.walks += 1
        return super().keys()

    def values(self):
        self.walks += 1
        return super().values()

    def items(self):
        self.walks += 1
        return super().items()


def kv_engine(rows):
    engine = Engine("vacuum", dialect=generic(), seed=11)
    engine.create_database("shop")
    conn = engine.connect(database="shop")
    conn.execute("CREATE TABLE kv (k INT PRIMARY KEY, v INT)")
    for start in range(0, rows, 100):
        conn.execute("INSERT INTO kv VALUES " + ", ".join(
            f"({k}, 0)" for k in range(start, min(start + 100, rows))))
    table = engine.database("shop").table("kv")
    table._rows = CountingRows(table._rows)
    return engine, conn, table


def row_id(table, key):
    (row,) = {version.row_id
              for version in table.primary_key_index.probe((key,))}
    return row


def test_a_vacuum_after_read_only_commits_looks_at_no_chain():
    engine, conn, table = kv_engine(ROWS)
    conn.execute("UPDATE kv SET v = 1 WHERE k = 7")
    assert engine.vacuum() == 1
    vacuums = []
    vacuum = engine.vacuum
    engine.vacuum = lambda: vacuums.append(vacuum()) or vacuums[-1]
    table._rows.reset()
    # a full cadence of read-only commits: the autovacuum fires among them
    for k in range(AUTOVACUUM_INTERVAL):
        assert conn.execute("SELECT v FROM kv WHERE k = ?", [k]).rows \
            == [(1 if k == 7 else 0,)]
    assert vacuums == [0]
    assert table._rows.walks == 0
    table._rows.reset()
    assert engine.vacuum() == 0
    assert table._rows.walks == 0 and table._rows.looked_up == set()


def test_a_replica_collects_applied_writesets_visiting_only_their_chains():
    """``apply_writeset`` bypasses ``Engine.commit``: the replica apply
    path marks through ``mark_deleted`` all the same."""
    engine, _conn, table = kv_engine(1000)
    updated, deleted = row_id(table, 1), row_id(table, 2)
    report = apply_writeset(engine, [
        {"database": "shop", "table": "kv", "op": "UPDATE",
         "primary_key": (1,), "old_values": {"k": 1, "v": 0},
         "new_values": {"k": 1, "v": 11}},
        {"database": "shop", "table": "kv", "op": "DELETE",
         "primary_key": (2,), "old_values": {"k": 2, "v": 0},
         "new_values": None},
    ])
    assert report.clean and report.applied == 2
    assert table.version_count() == 1001
    table._rows.reset()
    assert engine.vacuum() == 2
    assert table._rows.walks == 0
    assert table._rows.looked_up == {updated, deleted}
    assert table.version_count() == 999
    assert table._dirty == set()


def test_an_undone_statement_leaves_no_chain_noted(mysql_engine):
    """The statement's first row is marked before its second one fails;
    ``_undo_statement`` takes the deleter back, the transaction goes on
    and commits, and the next vacuum forgets the chain."""
    conn = mysql_engine.connect(database="shop")
    conn.execute("CREATE TABLE t (id INT PRIMARY KEY, u INT UNIQUE)")
    conn.execute("INSERT INTO t VALUES (1, 1), (2, 2)")
    table = mysql_engine.database("shop").table("t")
    conn.execute("BEGIN")
    with pytest.raises(IntegrityError):
        conn.execute("UPDATE t SET u = 7 WHERE id IN (1, 2)")
    assert len(table._dirty) == 1
    assert all(v.deleter_txn is None for v in table.versions())
    conn.execute("COMMIT")
    assert mysql_engine.vacuum() == 0
    assert table._dirty == set()
    assert conn.execute("SELECT id, u FROM t ORDER BY id").rows \
        == [(1, 1), (2, 2)]


def test_a_chain_stays_noted_while_a_deleter_holds_it(engine, conn):
    """An in-flight deletion, and a committed one above the horizon,
    keep their chains noted across a vacuum; a rollback and a commit of
    the old reader let them go."""
    conn.execute("CREATE TABLE t (id INT PRIMARY KEY, v INT)")
    conn.execute("INSERT INTO t VALUES (1, 0), (2, 0)")
    table = engine.database("shop").table("t")
    reader, writer = (engine.connect(database="shop") for _ in range(2))
    reader.execute("BEGIN ISOLATION LEVEL SNAPSHOT")
    reader.execute("SELECT v FROM t WHERE id = 2")
    conn.execute("UPDATE t SET v = 1 WHERE id = 2")
    writer.execute("BEGIN")
    writer.execute("UPDATE t SET v = 1 WHERE id = 1")
    noted = {row_id(table, 1), row_id(table, 2)}
    assert engine.vacuum() == 0
    assert table._dirty == noted
    reader.execute("COMMIT")
    assert engine.vacuum() == 1
    assert table._dirty == {row_id(table, 1)}
    writer.execute("ROLLBACK")
    assert engine.vacuum() == 0
    assert table._dirty == set()
    assert table.version_count() == 2
