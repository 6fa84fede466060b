"""``Table.gc_versions`` collects each noted chain in one pass.

The reference below is the rule it replaced: collect a chain's dead
versions, then unlink each through ``Table.remove_version`` (which
fetches the chain again and re-keys every index per version), then keep
the chain noted while a survivor carries a deleter.  Two engines run
the same random stream of INSERT / UPDATE / DELETE statements, rolled
back transactions and vacuums — one of them with the reference
vacuum — while a snapshot is sometimes held across a vacuum.  Every
vacuum must remove the same versions, and afterwards every index,
including its sorted key view, must equal one rebuilt from the
surviving versions.
"""

import types

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.sqlengine import Engine, IntegrityError, generic
from repro.sqlengine.errors import TransactionAbortedError
from repro.sqlengine.storage import IndexDef

KEYS = 8


def reference_gc_versions(table, horizon_ts: int) -> int:
    removed = 0
    keep = set()
    for row_id in table._dirty:
        chain = table._rows.get(row_id)
        if chain is None:
            continue
        dead = [v for v in chain
                if v.deleted_ts is not None and v.deleted_ts <= horizon_ts]
        for version in dead:
            table.remove_version(version)
        removed += len(dead)
        if any(v.deleter_txn is not None for v in chain):
            keep.add(row_id)
    table._dirty = keep
    return removed


def make_engine(reference: bool):
    engine = Engine("e", dialect=generic(), seed=7)
    engine.create_database("shop")
    conn = engine.connect(database="shop")
    conn.execute("CREATE TABLE t (k INT PRIMARY KEY, v INT, "
                 "u INT UNIQUE)")
    conn.execute("CREATE INDEX t_v ON t (v)")
    table = engine.database("shop").table("t")
    if reference:
        table.gc_versions = types.MethodType(reference_gc_versions, table)
    return engine, conn, engine.connect(database="shop"), table


def write_sql(op: str, key: int, value: int) -> str:
    if op == "insert":
        return f"INSERT INTO t (k, v, u) VALUES ({key}, {value}, {key})"
    if op == "update":
        return f"UPDATE t SET v = {value} WHERE k = {key}"
    if op == "move":
        return f"UPDATE t SET k = {key + KEYS}, u = {value} WHERE k = {key}"
    return f"DELETE FROM t WHERE k = {key}"


WRITE = st.tuples(st.sampled_from(["insert", "update", "move", "delete"]),
                  st.integers(0, KEYS - 1), st.integers(0, 3))
STEP = st.one_of(
    st.tuples(st.just("write"), WRITE),
    st.tuples(st.just("rollback"), st.lists(WRITE, min_size=1, max_size=3)),
    st.tuples(st.just("hold"), st.none()),
    st.tuples(st.just("release"), st.none()),
    st.tuples(st.just("vacuum"), st.none()),
)


def run(step, engine, writer, holder):
    kind, arg = step
    if kind == "vacuum":
        return engine.vacuum()
    if kind == "hold" and not holder.in_transaction:
        holder.execute("BEGIN ISOLATION LEVEL SNAPSHOT")
        holder.execute("SELECT COUNT(*) FROM t")
    elif kind == "release" and holder.in_transaction:
        holder.execute("COMMIT")
    elif kind == "write":
        try:
            writer.execute(write_sql(*arg))
        except IntegrityError:
            pass
    elif kind == "rollback":
        writer.execute("BEGIN")
        for write in arg:
            try:
                writer.execute(write_sql(*write))
            except (IntegrityError, TransactionAbortedError):
                pass    # an error aborts the rest of the transaction
        writer.execute("ROLLBACK")
    return None


def chains(table):
    return {row_id: [(v.values, v.creator_txn, v.created_ts, v.deleter_txn,
                      v.deleted_ts) for v in chain]
            for row_id, chain in table._rows.items()}


def assert_indexes_match_a_rebuild(table):
    for index in table.indexes.values():
        fresh = IndexDef(index.name, index.columns, index.unique)
        fresh.rebuild(table.versions())
        assert index.entries == fresh.entries, index.name
        assert index.ordered == fresh.ordered, index.name


@settings(max_examples=150, deadline=None)
@given(st.lists(STEP, max_size=40))
def test_one_pass_vacuum_removes_what_the_reference_rule_removes(steps):
    engine, writer, holder, table = make_engine(reference=False)
    ref_engine, ref_writer, ref_holder, ref_table = make_engine(
        reference=True)
    for step in steps + [("release", None), ("vacuum", None)]:
        removed = run(step, engine, writer, holder)
        assert removed == run(step, ref_engine, ref_writer, ref_holder)
        if removed is not None:
            assert chains(table) == chains(ref_table)
            assert table._dirty == ref_table._dirty
            assert_indexes_match_a_rebuild(table)
    assert engine.stats["versions_gced"] == \
        ref_engine.stats["versions_gced"]
