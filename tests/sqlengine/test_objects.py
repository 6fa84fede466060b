"""Sequences, temp tables, triggers, procedures, LOBs, DDL, access control
— the engine features behind the paper's section 4.1/4.2 gaps."""

import pytest

from repro.sqlengine import (
    AccessDeniedError, DuplicateObjectError, IntegrityError, LobError,
    NameError_, UnsupportedFeatureError, analyze_procedure,
)


# ---------------------------------------------------------------------------
# sequences (section 4.2.3)
# ---------------------------------------------------------------------------

class TestSequences:
    def test_nextval_currval(self, conn):
        conn.execute("CREATE SEQUENCE s START WITH 10 INCREMENT BY 5")
        assert conn.execute("SELECT NEXTVAL('s')").scalar() == 10
        assert conn.execute("SELECT NEXTVAL('s')").scalar() == 15
        assert conn.execute("SELECT CURRVAL('s')").scalar() == 15

    def test_oracle_style_pseudocolumn(self, conn):
        conn.execute("CREATE SEQUENCE s2")
        assert conn.execute("SELECT s2.NEXTVAL").scalar() == 1

    def test_currval_before_nextval_raises(self, conn):
        conn.execute("CREATE SEQUENCE s3")
        with pytest.raises(NameError_):
            conn.execute("SELECT CURRVAL('s3')")

    def test_rollback_leaves_hole(self, conn):
        """Sequence numbers are NOT given back on rollback."""
        conn.execute("CREATE SEQUENCE s4")
        conn.execute("BEGIN")
        assert conn.execute("SELECT NEXTVAL('s4')").scalar() == 1
        conn.execute("ROLLBACK")
        assert conn.execute("SELECT NEXTVAL('s4')").scalar() == 2  # hole at 1

    def test_sequences_bypass_snapshots(self, conn):
        conn.execute("CREATE SEQUENCE s5")
        other = conn.engine.connect(database="shop")
        conn.execute("BEGIN ISOLATION LEVEL SNAPSHOT")
        conn.execute("SELECT NEXTVAL('s5')")
        # the other session sees the advanced value immediately
        assert other.execute("SELECT NEXTVAL('s5')").scalar() == 2
        conn.execute("ROLLBACK")

    def test_setval(self, conn):
        conn.execute("CREATE SEQUENCE s6")
        conn.execute("SELECT SETVAL('s6', 100)")
        assert conn.execute("SELECT NEXTVAL('s6')").scalar() == 101

    def test_unsupported_dialect(self, mysql_engine):
        connection = mysql_engine.connect(database="shop")
        with pytest.raises(UnsupportedFeatureError):
            connection.execute("CREATE SEQUENCE nope")

    def test_drop_sequence(self, conn):
        conn.execute("CREATE SEQUENCE s7")
        conn.execute("DROP SEQUENCE s7")
        with pytest.raises(NameError_):
            conn.execute("SELECT NEXTVAL('s7')")


# ---------------------------------------------------------------------------
# temporary tables (section 4.1.4)
# ---------------------------------------------------------------------------

class TestTempTables:
    def test_temp_table_private_to_connection(self, engine):
        a = engine.connect(database="shop")
        b = engine.connect(database="shop")
        a.execute("CREATE TEMP TABLE scratch (x INT)")
        a.execute("INSERT INTO scratch VALUES (1)")
        assert a.execute("SELECT COUNT(*) FROM scratch").scalar() == 1
        with pytest.raises(NameError_):
            b.execute("SELECT * FROM scratch")

    def test_temp_table_shadows_real_table(self, conn):
        conn.execute("CREATE TABLE dual_name (x INT)")
        conn.execute("INSERT INTO dual_name VALUES (1)")
        conn.execute("CREATE TEMP TABLE dual_name (x INT)")
        assert conn.execute("SELECT COUNT(*) FROM dual_name").scalar() == 0

    def test_temp_table_dropped_on_close(self, engine):
        a = engine.connect(database="shop")
        a.execute("CREATE TEMP TABLE scratch (x INT)")
        a.close()
        b = engine.connect(database="shop")
        with pytest.raises(NameError_):
            b.execute("SELECT * FROM scratch")

    def test_sybase_rejects_temp_in_transaction(self, sybase_engine):
        connection = sybase_engine.connect(database="shop")
        connection.execute("BEGIN")
        with pytest.raises(UnsupportedFeatureError):
            connection.execute("CREATE TEMP TABLE t1 (x INT)")
        connection.execute("ROLLBACK")
        connection.execute("CREATE TEMP TABLE t1 (x INT)")  # fine outside

    def test_oracle_transaction_scope(self, oracle_engine):
        connection = oracle_engine.connect(database="shop")
        connection.execute("BEGIN")
        connection.execute("CREATE TEMP TABLE t2 (x INT)")
        connection.execute("COMMIT")
        with pytest.raises(NameError_):
            connection.execute("SELECT * FROM t2")

    def test_temp_writes_not_in_writeset(self, conn):
        conn.execute("BEGIN")
        conn.execute("CREATE TEMP TABLE t3 (x INT)")
        conn.execute("INSERT INTO t3 VALUES (1)")
        assert len(conn.txn.writeset) == 0
        conn.execute("COMMIT")


# ---------------------------------------------------------------------------
# triggers (sections 4.1.5, 4.3.2)
# ---------------------------------------------------------------------------

class TestTriggers:
    def test_sql_trigger_fires(self, conn):
        conn.execute("CREATE TABLE audited (x INT)")
        conn.execute("CREATE TABLE audit_log (note VARCHAR(20))")
        conn.execute(
            "CREATE TRIGGER trg AFTER INSERT ON audited FOR EACH ROW "
            "BEGIN INSERT INTO audit_log (note) VALUES ('hit'); END")
        conn.execute("INSERT INTO audited VALUES (1)")
        conn.execute("INSERT INTO audited VALUES (2)")
        assert conn.execute("SELECT COUNT(*) FROM audit_log").scalar() == 2

    def test_trigger_sees_new_values(self, conn):
        conn.execute("CREATE TABLE audited (x INT)")
        conn.execute("CREATE TABLE audit_log (val INT)")
        conn.execute(
            "CREATE TRIGGER trg AFTER INSERT ON audited FOR EACH ROW "
            "BEGIN INSERT INTO audit_log (val) VALUES (new_x); END")
        conn.execute("INSERT INTO audited VALUES (42)")
        assert conn.execute("SELECT val FROM audit_log").scalar() == 42

    def test_per_user_trigger(self, engine, conn):
        """Paper 4.1.5: the same SQL can have different effects depending
        on the executing user."""
        from repro.sqlengine import Trigger
        conn.execute("CREATE TABLE audited (x INT)")
        conn.execute("CREATE TABLE audit_log (who VARCHAR(20))")
        engine.users.add_user("bob", "pw")
        engine.users.get("bob").grant(["ALL"], "shop.*")
        database = engine.database("shop")
        hits = []
        database.create_trigger(Trigger(
            "bob_only", "AFTER", "INSERT", "audited",
            callback=lambda ev, s: hits.append(ev.user),
            only_for_user="bob"))
        conn.execute("INSERT INTO audited VALUES (1)")  # admin: no fire
        bob = engine.connect("bob", "pw", database="shop")
        bob.execute("INSERT INTO audited VALUES (2)")
        assert hits == ["bob"]

    def test_trigger_dropped_with_table(self, conn, engine):
        conn.execute("CREATE TABLE audited (x INT)")
        conn.execute("CREATE TABLE audit_log (note VARCHAR(20))")
        conn.execute(
            "CREATE TRIGGER trg AFTER INSERT ON audited FOR EACH ROW "
            "BEGIN INSERT INTO audit_log (note) VALUES ('hit'); END")
        conn.execute("DROP TABLE audited")
        assert "trg" not in engine.database("shop").triggers

    def test_delete_trigger_sees_old(self, conn):
        conn.execute("CREATE TABLE audited (x INT)")
        conn.execute("CREATE TABLE audit_log (val INT)")
        conn.execute(
            "CREATE TRIGGER trg BEFORE DELETE ON audited FOR EACH ROW "
            "BEGIN INSERT INTO audit_log (val) VALUES (old_x); END")
        conn.execute("INSERT INTO audited VALUES (7)")
        conn.execute("DELETE FROM audited")
        assert conn.execute("SELECT val FROM audit_log").scalar() == 7


# ---------------------------------------------------------------------------
# stored procedures (section 4.2.1)
# ---------------------------------------------------------------------------

class TestProcedures:
    def test_call_with_params(self, conn):
        conn.execute("CREATE TABLE counters (id INT PRIMARY KEY, n INT)")
        conn.execute("INSERT INTO counters VALUES (1, 0)")
        conn.execute(
            "CREATE PROCEDURE bump(which, amount) BEGIN "
            "UPDATE counters SET n = n + amount WHERE id = which; END")
        conn.execute("CALL bump(1, 5)")
        conn.execute("CALL bump(1, 3)")
        assert conn.execute(
            "SELECT n FROM counters WHERE id = 1").scalar() == 8

    def test_call_returns_last_select(self, conn):
        conn.execute("CREATE TABLE t (x INT)")
        conn.execute("INSERT INTO t VALUES (3)")
        conn.execute(
            "CREATE PROCEDURE peek() BEGIN SELECT x FROM t; END")
        assert conn.execute("CALL peek()").scalar() == 3

    def test_wrong_arity(self, conn):
        conn.execute("CREATE PROCEDURE p(a) BEGIN SELECT 1; END")
        from repro.sqlengine import TypeError_
        with pytest.raises(TypeError_):
            conn.execute("CALL p()")

    def test_analysis_finds_tables(self, conn, engine):
        conn.execute("CREATE TABLE a1 (x INT)")
        conn.execute("CREATE TABLE b1 (x INT)")
        conn.execute(
            "CREATE PROCEDURE p2() BEGIN "
            "INSERT INTO a1 (x) SELECT x FROM b1; END")
        analysis = analyze_procedure(engine.database("shop").procedure("p2"))
        assert "a1" in analysis.writes_tables
        assert "b1" in analysis.reads_tables
        assert analysis.deterministic

    def test_analysis_flags_nondeterminism(self, conn, engine):
        conn.execute("CREATE TABLE a2 (x FLOAT)")
        conn.execute(
            "CREATE PROCEDURE p3() BEGIN "
            "INSERT INTO a2 (x) VALUES (RAND()); END")
        analysis = analyze_procedure(engine.database("shop").procedure("p3"))
        assert not analysis.deterministic

    def test_nondeterministic_procedure_diverges_across_engines(self):
        """Paper 4.2.1: broadcasting a non-deterministic procedure call
        diverges the cluster."""
        from repro.sqlengine import Engine, generic
        results = []
        for seed in (1, 2):
            engine = Engine(f"e{seed}", dialect=generic(), seed=seed)
            engine.create_database("d")
            c = engine.connect(database="d")
            c.execute("CREATE TABLE r (x FLOAT)")
            c.execute("CREATE PROCEDURE flip() BEGIN "
                      "INSERT INTO r (x) VALUES (RAND()); END")
            c.execute("CALL flip()")
            results.append(c.execute("SELECT x FROM r").scalar())
        assert results[0] != results[1]


# ---------------------------------------------------------------------------
# LOBs (section 4.2.2)
# ---------------------------------------------------------------------------

class TestLobs:
    def test_store_and_stream(self, engine, conn):
        conn.execute("CREATE TABLE docs (id INT PRIMARY KEY, body CLOB)")
        handle = engine.lobs.create("x" * 10000)
        conn.execute("INSERT INTO docs VALUES (1, ?)", [handle])
        fetched = conn.execute("SELECT body FROM docs WHERE id = 1").scalar()
        with engine.lobs.open(fetched, chunk_size=4096) as stream:
            data = stream.read_all()
        assert len(data) == 10000
        assert engine.lobs.open_streams == 0

    def test_leaked_streams_tracked(self, engine):
        handle = engine.lobs.create("abc")
        engine.lobs.open(handle)
        engine.lobs.open(handle)
        assert engine.lobs.open_streams == 2
        assert engine.lobs.close_leaked_streams() == 2
        assert engine.lobs.open_streams == 0

    def test_fake_streaming_buffers_everything(self):
        from repro.sqlengine import LobStore
        store = LobStore(fake_streaming=True)
        handle = store.create("y" * 50000)
        with store.open(handle) as stream:
            stream.read(10)
        assert store.peak_buffered_bytes >= 50000

    def test_real_streaming_buffers_chunks(self):
        from repro.sqlengine import LobStore
        store = LobStore(fake_streaming=False)
        handle = store.create("y" * 50000)
        stream = store.open(handle, chunk_size=1000)
        stream.read(1000)
        stream.close()
        assert store.peak_buffered_bytes <= 2000

    def test_read_after_close_raises(self, engine):
        handle = engine.lobs.create("abc")
        stream = engine.lobs.open(handle)
        stream.close()
        with pytest.raises(LobError):
            stream.read()


# ---------------------------------------------------------------------------
# DDL / catalog
# ---------------------------------------------------------------------------

class TestDDL:
    def test_create_drop_database(self, engine, conn):
        conn.execute("CREATE DATABASE extra")
        assert "extra" in engine.database_names()
        conn.execute("DROP DATABASE extra")
        assert "extra" not in engine.database_names()

    def test_duplicate_table_raises(self, conn):
        conn.execute("CREATE TABLE d1 (x INT)")
        with pytest.raises(DuplicateObjectError):
            conn.execute("CREATE TABLE d1 (x INT)")
        conn.execute("CREATE TABLE IF NOT EXISTS d1 (x INT)")  # tolerated

    def test_drop_if_exists(self, conn):
        conn.execute("DROP TABLE IF EXISTS ghost")
        with pytest.raises(NameError_):
            conn.execute("DROP TABLE ghost")

    def test_alter_add_column(self, conn):
        conn.execute("CREATE TABLE d2 (x INT)")
        conn.execute("INSERT INTO d2 VALUES (1)")
        conn.execute("ALTER TABLE d2 ADD COLUMN y INT")
        assert conn.execute("SELECT y FROM d2").scalar() is None
        conn.execute("UPDATE d2 SET y = 5")
        assert conn.execute("SELECT y FROM d2").scalar() == 5

    def test_alter_rename(self, conn):
        conn.execute("CREATE TABLE before1 (x INT)")
        conn.execute("ALTER TABLE before1 RENAME TO after1")
        conn.execute("INSERT INTO after1 VALUES (1)")
        with pytest.raises(NameError_):
            conn.execute("SELECT * FROM before1")

    def test_unique_index_enforced(self, conn):
        conn.execute("CREATE TABLE d3 (x INT, y INT)")
        conn.execute("CREATE UNIQUE INDEX idx3 ON d3 (x)")
        conn.execute("INSERT INTO d3 VALUES (1, 1)")
        with pytest.raises(IntegrityError):
            conn.execute("INSERT INTO d3 VALUES (1, 2)")

    def test_unique_index_rejects_existing_dupes(self, conn):
        conn.execute("CREATE TABLE d4 (x INT)")
        conn.execute("INSERT INTO d4 VALUES (1), (1)")
        with pytest.raises(IntegrityError):
            conn.execute("CREATE UNIQUE INDEX idx4 ON d4 (x)")

    def test_ddl_not_rolled_back(self, conn):
        """Paper 4.1.2: DDL 'cannot be rolled back'."""
        conn.execute("BEGIN")
        conn.execute("CREATE TABLE sticky (x INT)")
        conn.execute("ROLLBACK")
        conn.execute("INSERT INTO sticky VALUES (1)")  # table survived
        assert conn.execute("SELECT COUNT(*) FROM sticky").scalar() == 1

    def test_schema_support_by_dialect(self, conn, mysql_engine):
        conn.execute("CREATE SCHEMA app")
        my = mysql_engine.connect(database="shop")
        with pytest.raises(UnsupportedFeatureError):
            my.execute("CREATE SCHEMA app")


# ---------------------------------------------------------------------------
# access control (section 4.1.5)
# ---------------------------------------------------------------------------

class TestAccessControl:
    def test_authentication(self, engine):
        engine.users.add_user("bob", "secret")
        with pytest.raises(AccessDeniedError):
            engine.connect("bob", "wrong", database="shop")
        engine.connect("bob", "secret", database="shop")

    def test_privilege_enforcement(self, engine, conn):
        conn.execute("CREATE TABLE guarded (x INT)")
        conn.execute("INSERT INTO guarded VALUES (1)")
        engine.users.add_user("bob", "pw")
        bob = engine.connect("bob", "pw", database="shop")
        with pytest.raises(AccessDeniedError):
            bob.execute("SELECT * FROM guarded")
        conn.execute("GRANT SELECT ON guarded TO bob")
        assert bob.execute("SELECT COUNT(*) FROM guarded").scalar() == 1
        with pytest.raises(AccessDeniedError):
            bob.execute("DELETE FROM guarded")

    def test_revoke(self, engine, conn):
        conn.execute("CREATE TABLE guarded (x INT)")
        engine.users.add_user("bob", "pw")
        conn.execute("GRANT ALL ON guarded TO bob")
        bob = engine.connect("bob", "pw", database="shop")
        bob.execute("INSERT INTO guarded VALUES (1)")
        conn.execute("REVOKE INSERT ON guarded FROM bob")
        with pytest.raises(AccessDeniedError):
            bob.execute("INSERT INTO guarded VALUES (2)")
        bob.execute("SELECT * FROM guarded")  # SELECT kept

    def test_wildcard_grant(self, engine, conn):
        conn.execute("CREATE TABLE t1 (x INT)")
        conn.execute("CREATE TABLE t2 (x INT)")
        engine.users.add_user("bob", "pw")
        engine.users.get("bob").grant(["SELECT"], "shop.*")
        bob = engine.connect("bob", "pw", database="shop")
        bob.execute("SELECT * FROM t1")
        bob.execute("SELECT * FROM t2")

    def test_create_user_via_sql(self, engine, conn):
        conn.execute("CREATE USER carol IDENTIFIED BY 'pw'")
        assert engine.users.exists("carol")
        conn.execute("DROP USER carol")
        assert not engine.users.exists("carol")
