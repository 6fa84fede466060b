"""A settled table's scan answers like the per-version rule.

``Table.settled_at(ts)`` is the all-visible fact (``mvcc.py``): no
version has a deleter, none waits for its creator's commit, and nothing
newer than ``ts`` was stamped.  While it holds, ``visible_rows`` and
``visible_in_range`` hand over each chain's one version without testing
it.  The rule they would otherwise apply is written out below, as it
stood before the fact existed: a version is visible to a reader at
snapshot ``ts`` when its creator is the reader or committed at or before
``ts``, and no deleter that is the reader or committed at or before
``ts`` removed it (READ UNCOMMITTED: any version nobody deleted), and
the newest such version of a chain — the reader's own uncommitted one
first — is the row.

A schedule of autocommit INSERT / key-moving UPDATE / DELETE, open
transactions that commit or roll back, failed statements undone inside
a transaction, ``vacuum()``, writesets applied through
``apply_writeset``, dump-and-restore, and readers held open at every
isolation level is run against one engine.  After every step each table
read — a full scan and a range walk of the primary key and of a
non-unique index, for the writer's own transaction, every held reader,
a reader without a transaction, READ UNCOMMITTED, and every snapshot
older than the newest commit — must return exactly the versions, in
exactly the order, and count exactly the rows, that the rule does.
Where the fact holds every chain must be one version, and it must never
hold while a write to the table is in flight.
"""

import pytest
from hypothesis import given, settings, strategies as st

from repro.core.writesets import apply_writeset
from repro.sqlengine import (
    Engine, IntegrityError, LockConflict, SQLError, dump_engine, generic,
    restore_engine,
)
from repro.sqlengine.mvcc import (
    READ_UNCOMMITTED, Snapshot, visible_in_range, visible_rows,
)

KEYS = 8
LEVELS = ("READ UNCOMMITTED", "READ COMMITTED", "REPEATABLE READ",
          "SNAPSHOT", "SERIALIZABLE")


# -- the per-version rule ------------------------------------------------------

def visible(version, ts, txn_id, dirty):
    if dirty:
        return version.deleter_txn is None and version.deleted_ts is None
    mine = txn_id is not None and version.creator_txn == txn_id
    if not mine and (version.created_ts is None or version.created_ts > ts):
        return False
    if txn_id is not None and version.deleter_txn == txn_id:
        return False
    return version.deleted_ts is None or version.deleted_ts > ts


def newest(chain, ts, txn_id, dirty):
    best, best_key = None, None
    for position, version in enumerate(chain):
        if not visible(version, ts, txn_id, dirty):
            continue
        own = txn_id is not None and version.creator_txn == txn_id \
            and version.created_ts is None
        key = (float("inf") if own else (version.created_ts or 0), position)
        if best_key is None or key > best_key:
            best, best_key = version, key
    return best


def rule_rows(table, ts, txn_id, dirty):
    rows = []
    for chain in table._rows.values():
        version = newest(chain, ts, txn_id, dirty)
        if version is not None:
            rows.append(version)
    return rows


def rule_range(table, index, positions, ts, txn_id, dirty):
    found, looked_at = [], 0
    for key in index.ordered[positions.start:positions.stop]:
        candidates = index.entries[key]
        row_ids = {candidate.row_id for candidate in candidates}
        looked_at += len(row_ids)
        for row_id in row_ids:
            version = newest(table._rows[row_id], ts, txn_id, dirty)
            if version in candidates:
                found.append(version)
    return found, looked_at


# -- the schedule --------------------------------------------------------------

def write_sql(op, key, value):
    if op == "insert":
        return f"INSERT INTO t (k, u, v) VALUES ({key}, {key}, {value})"
    if op == "update":
        return f"UPDATE t SET v = {value} WHERE k = {key}"
    if op == "move":
        return f"UPDATE t SET k = {key + KEYS}, u = {key + KEYS} WHERE k = {key}"
    return f"DELETE FROM t WHERE k = {key}"


WRITE = st.tuples(st.sampled_from(["insert", "update", "move", "delete"]),
                  st.integers(0, KEYS - 1), st.integers(0, 3))
STEP = st.one_of(
    st.tuples(st.just("write"), WRITE),
    st.tuples(st.just("open"), st.lists(WRITE, min_size=1, max_size=3)),
    st.tuples(st.just("commit"), st.none()),
    st.tuples(st.just("rollback"), st.none()),
    st.tuples(st.just("fail"), st.integers(0, 3)),
    st.tuples(st.just("vacuum"), st.none()),
    st.tuples(st.just("apply"), WRITE),
    st.tuples(st.just("restore"), st.none()),
    st.tuples(st.just("hold"), st.sampled_from(LEVELS)),
    st.tuples(st.just("release"), st.none()),
)


class Schedule:
    def __init__(self):
        self.engine = Engine("e", dialect=generic(), seed=7)
        self.engine.create_database("shop")
        self.writer = self.engine.connect(database="shop")
        self.writer.execute("CREATE TABLE t (k INT PRIMARY KEY, u INT "
                            "UNIQUE, v INT)")
        self.writer.execute("CREATE INDEX t_v ON t (v)")
        self.readers = []

    @property
    def table(self):
        return self.engine.database("shop").table("t")

    def _try(self, sql):
        try:
            self.writer.execute(sql)
        except (IntegrityError, SQLError, LockConflict):
            pass

    def run(self, kind, arg):
        writer = self.writer
        if kind == "write" and not writer.in_transaction:
            self._try(write_sql(*arg))
        elif kind == "open":
            if not writer.in_transaction:
                writer.execute("BEGIN")
            for write in arg:
                self._try(write_sql(*write))
        elif kind in ("commit", "rollback") and writer.in_transaction:
            try:
                writer.execute(kind.upper())
            except SQLError:
                writer.execute("ROLLBACK")
        elif kind == "fail":
            # inside a transaction: a multi-row UPDATE that writes rows
            # and then meets a duplicate key, so its writes are undone
            if not writer.in_transaction:
                writer.execute("BEGIN")
            self._try(f"UPDATE t SET u = {arg} WHERE k >= 0")
        elif kind == "vacuum":
            self.engine.vacuum()
        elif kind == "apply":
            self.apply(*arg)
        elif kind == "restore" and not writer.in_transaction:
            restore_engine(self.engine, dump_engine(self.engine))
        elif kind == "hold":
            reader = self.engine.connect(database="shop")
            reader.execute(f"BEGIN ISOLATION LEVEL {arg}")
            self.readers.append(reader)
        elif kind == "release" and self.readers:
            self.readers.pop(0).execute("COMMIT")

    def apply(self, op, key, value):
        """A writeset another replica committed, as ``apply_writeset``
        installs it."""
        row = {"k": key, "u": key + 2 * KEYS, "v": value}
        entry = {"database": "shop", "table": "t", "primary_key": (key,),
                 "old_values": None, "new_values": None}
        if op == "insert":
            entry.update(op="INSERT", new_values=row)
        elif op == "delete":
            entry.update(op="DELETE")
        else:
            entry.update(op="UPDATE", new_values=row)
        apply_writeset(self.engine, [entry])

    def readings(self):
        """``(snapshot timestamp, txn id, dirty)`` for every reader."""
        now = self.engine.clock.now
        found = [(ts, None, False) for ts in range(now + 1)]
        found.append((now, None, True))
        txns = [reader.txn for reader in self.readers]
        if self.writer.in_transaction:
            txns.append(self.writer.txn)
        for txn in txns:
            found.append((txn.read_snapshot(now).timestamp, txn.id,
                          txn.isolation == READ_UNCOMMITTED))
        return found

    def writing(self):
        """Whether an open transaction has a write to ``t`` in flight."""
        if not self.writer.in_transaction:
            return False
        txn = self.writer.txn
        return bool(txn.created_versions) or any(
            version.deleter_txn == txn.id
            for version in txn.deleted_versions)


def check(schedule):
    table = schedule.table
    indexes = [table.primary_key_index, table.indexes["t_v"]]
    for ts, txn_id, dirty in schedule.readings():
        settled = table.settled_at(ts)
        if settled:
            assert all(len(chain) == 1 for chain in table._rows.values())
        assert not (settled and schedule.writing())
        snapshot = Snapshot(ts)
        assert visible_rows(table, snapshot, txn_id, dirty) == \
            rule_rows(table, ts, txn_id, dirty)
        for index in indexes:
            width = len(index.ordered)
            for positions in (range(0, width), range(1, max(width - 1, 1))):
                assert visible_in_range(table, index, positions, snapshot,
                                        txn_id, dirty) == \
                    rule_range(table, index, positions, ts, txn_id, dirty)


def _property(max_examples):
    @settings(max_examples=max_examples, deadline=None)
    @given(st.lists(STEP, max_size=30))
    def a_settled_scan_answers_like_the_rule(steps):
        schedule = Schedule()
        for key in range(KEYS // 2):    # a quiescent load to start from
            schedule.run("write", ("insert", key, key % 3))
        check(schedule)
        for kind, arg in steps + [("release", None)] * 5 \
                + [("commit", None), ("vacuum", None)]:
            schedule.run(kind, arg)
            check(schedule)
        # nothing in flight and everything vacuumed: settled again,
        # unless a writeset's update landed on a chain a local update
        # had also extended, leaving two versions without a deleter
        table = schedule.table
        assert table.settled_at(schedule.engine.clock.now) == all(
            len(chain) == 1 for chain in table._rows.values())
    return a_settled_scan_answers_like_the_rule


test_a_settled_scan_answers_like_the_rule = _property(100)
test_a_settled_scan_answers_like_the_rule_soak = pytest.mark.soak(
    _property(2000))


def test_the_fact_holds_after_a_quiescent_load_and_fails_in_flight():
    schedule = Schedule()
    for key in range(KEYS):
        schedule.run("write", ("insert", key, key % 3))
    table, now = schedule.table, schedule.engine.clock.now
    assert table.settled_at(now)
    assert not table.settled_at(now - 1)    # an older snapshot
    for op in ("insert", "update", "move", "delete"):
        schedule.run("open", [(op, KEYS + 3 if op == "insert" else 1, 2)])
        assert schedule.writing()
        assert not table.settled_at(schedule.engine.clock.now)
        schedule.run("rollback", None)
        schedule.run("vacuum", None)
        assert table.settled_at(schedule.engine.clock.now)
    schedule.run("write", ("update", 2, 1))     # committed, not vacuumed
    assert not table.settled_at(schedule.engine.clock.now)
    schedule.run("vacuum", None)
    assert table.settled_at(schedule.engine.clock.now)
