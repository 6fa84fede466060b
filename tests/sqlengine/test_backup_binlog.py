"""Engine dump/restore tests — the lossy-backup gaps of sections
4.1.5 / 4.2.3 / 4.4.1 — and the full log device of section 4.4.2."""

import pytest

from repro.sqlengine import (
    BackupOptions, DiskFullError, Engine, dump_engine, generic,
    restore_engine,
)


@pytest.fixture
def populated(engine, conn):
    conn.execute("""CREATE TABLE inventory (
        id INT PRIMARY KEY AUTO_INCREMENT, item VARCHAR(30))""")
    conn.execute("INSERT INTO inventory (item) VALUES ('a'), ('b'), ('c')")
    conn.execute("CREATE SEQUENCE order_seq START WITH 50")
    conn.execute("SELECT NEXTVAL('order_seq')")
    conn.execute("CREATE TABLE audit (note VARCHAR(20))")
    conn.execute(
        "CREATE TRIGGER trg AFTER INSERT ON inventory FOR EACH ROW "
        "BEGIN INSERT INTO audit (note) VALUES ('x'); END")
    conn.execute("CREATE PROCEDURE p() BEGIN SELECT 1; END")
    engine.users.add_user("bob", "pw")
    return engine


def fresh_engine(name="restored"):
    return Engine(name, dialect=generic(), seed=7)


def test_default_dump_loses_users_triggers_sequences(populated):
    """Default options model typical tools: data only (the 4.1.5 gap)."""
    dump = dump_engine(populated)
    target = fresh_engine()
    restore_engine(target, dump)
    database = target.database("shop")
    assert target.row_count("shop", "inventory") == 3
    assert not database.triggers          # lost
    assert not database.procedures        # lost
    assert not database.sequences         # lost
    assert not target.users.exists("bob")  # lost


def test_full_clone_preserves_everything(populated):
    dump = dump_engine(populated, BackupOptions.full_clone())
    target = fresh_engine()
    restore_engine(target, dump)
    database = target.database("shop")
    assert database.triggers and database.procedures
    assert target.users.exists("bob")
    # sequence continues where it left off (51 after the nextval of 50)
    c = target.connect(database="shop")
    assert c.execute("SELECT NEXTVAL('order_seq')").scalar() == 51


def test_sequence_lost_without_option_causes_duplicates(populated):
    """Restoring without sequences resets them — duplicate keys follow
    (the section 4.2.3 workaround-needed gap)."""
    dump = dump_engine(populated)  # no sequences
    target = fresh_engine()
    restore_engine(target, dump)
    c = target.connect(database="shop")
    from repro.sqlengine import NameError_
    with pytest.raises(NameError_):
        c.execute("SELECT NEXTVAL('order_seq')")


def test_auto_counter_best_effort_restore(populated):
    dump = dump_engine(populated)  # no explicit counters
    target = fresh_engine()
    restore_engine(target, dump)
    c = target.connect(database="shop")
    c.execute("INSERT INTO inventory (item) VALUES ('d')")
    # best effort: counter pushed past max existing id -> no collision
    assert c.last_insert_id == 4


def test_dump_is_snapshot_consistent(populated):
    connection = populated.connect(database="shop")
    connection.execute("BEGIN")
    connection.execute("INSERT INTO inventory (item) VALUES ('uncommitted')")
    dump = dump_engine(populated)
    connection.execute("ROLLBACK")
    assert all(
        row["item"] != "uncommitted"
        for row in dump.data["shop"]["inventory"]
    )


def test_dump_excludes_temp_tables(populated):
    connection = populated.connect(database="shop")
    connection.execute("CREATE TEMP TABLE scratch (x INT)")
    dump = dump_engine(populated)
    assert "scratch" not in dump.data["shop"]


def test_restore_replaces_existing(populated):
    dump = dump_engine(populated)
    target = fresh_engine()
    target.create_database("shop")
    c = target.connect(database="shop")
    c.execute("CREATE TABLE inventory (id INT PRIMARY KEY, item VARCHAR(30))")
    c.execute("INSERT INTO inventory VALUES (99, 'stale')")
    restore_engine(target, dump)
    assert target.row_count("shop", "inventory") == 3


def test_disk_full_engine_flag(conn):
    conn.execute("CREATE TABLE t (x INT)")
    conn.engine.set_disk_full(True)
    with pytest.raises(DiskFullError):
        conn.execute("INSERT INTO t VALUES (1)")
    conn.execute("SELECT * FROM t")  # reads still work
    conn.engine.set_disk_full(False)
    conn.execute("INSERT INTO t VALUES (1)")


def test_content_signature_reflects_data(conn):
    conn.execute("CREATE TABLE t (x INT)")
    sig1 = conn.engine.content_signature()
    conn.execute("INSERT INTO t VALUES (1)")
    sig2 = conn.engine.content_signature()
    assert sig1 != sig2
    conn.execute("DELETE FROM t")
    assert conn.engine.content_signature() == sig1
