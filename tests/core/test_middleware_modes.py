"""Middleware replication modes: statement, writeset, master."""

import pytest

from repro.core import (
    ClusterDivergence, FailoverManager, MiddlewareConfig, MiddlewareDown,
    ReplicationMiddleware, UnsupportedStatementError, protocol_by_name,
)
from repro.sqlengine import SerializationError, parse_script
from repro.sqlengine.ast_nodes import FunctionCall

from tests.conftest import KV_SCHEMA, make_replicas, seed_kv


class TestStatementMode:
    def test_writes_applied_everywhere(self, statement_cluster):
        mw = statement_cluster
        session = mw.connect(database="shop")
        session.execute("UPDATE kv SET v = 7 WHERE k = 1")
        session.close()
        for replica in mw.replicas:
            c = replica.engine.connect(database="shop")
            assert c.execute("SELECT v FROM kv WHERE k = 1").scalar() == 7
        assert mw.check_convergence()

    def test_reads_balanced_across_replicas(self, statement_cluster):
        mw = statement_cluster
        session = mw.connect(database="shop")
        for _ in range(9):
            session.execute("SELECT COUNT(*) FROM kv")
        session.close()
        served = [r.stats["served_reads"] for r in mw.replicas]
        assert all(count == 3 for count in served)

    def test_transaction_atomic_across_replicas(self, statement_cluster):
        mw = statement_cluster
        session = mw.connect(database="shop")
        session.begin()
        session.execute("UPDATE kv SET v = 1 WHERE k = 1")
        session.execute("UPDATE kv SET v = 2 WHERE k = 2")
        session.rollback()
        session.close()
        assert mw.check_convergence()
        c = mw.replicas[0].engine.connect(database="shop")
        assert c.execute("SELECT v FROM kv WHERE k = 1").scalar() == 0

    def test_txn_reads_see_own_writes(self, statement_cluster):
        session = statement_cluster.connect(database="shop")
        session.begin()
        session.execute("UPDATE kv SET v = 42 WHERE k = 3")
        assert session.execute(
            "SELECT v FROM kv WHERE k = 3").scalar() == 42
        session.commit()
        session.close()

    def test_now_rewritten_consistently(self, statement_cluster):
        mw = statement_cluster
        session = mw.connect(database="shop")
        session.execute("CREATE TABLE stamped (id INT, ts FLOAT)")
        session.execute("INSERT INTO stamped VALUES (1, NOW())")
        session.close()
        values = set()
        for replica in mw.replicas:
            c = replica.engine.connect(database="shop")
            values.add(c.execute("SELECT ts FROM stamped").scalar())
        assert len(values) == 1  # identical constant everywhere

    def test_now_rewritten_afresh_on_a_reused_tree(self, statement_cluster):
        """The rewrite must not write into the tree it is given: the
        timed drivers and the statement cache execute one parsed tree
        many times, and each execution gets the time it ran at."""
        mw = statement_cluster
        clock = [1.0]
        mw.monitor.time_source = lambda: clock[0]
        session = mw.connect(database="shop")
        session.execute("CREATE TABLE stamped (id INT, ts FLOAT)")
        sql = "INSERT INTO stamped VALUES (?, NOW())"
        statement = parse_script(sql)[0]
        session.execute_one_parsed(statement, sql, [1])
        clock[0] = 102.0
        session.execute_one_parsed(statement, sql, [2])
        # the same text through the public door, twice (one cached tree)
        clock[0] = 203.0
        session.execute("INSERT INTO stamped VALUES (3, NOW())")
        clock[0] = 304.0
        session.execute("INSERT INTO stamped VALUES (4, NOW())")
        session.close()
        assert isinstance(statement.rows[0][1], FunctionCall)  # untouched
        for replica in mw.replicas:
            c = replica.engine.connect(database="shop")
            assert c.execute(
                "SELECT id, ts FROM stamped ORDER BY id").rows == [
                    (1, 1.0), (2, 102.0), (3, 203.0), (4, 304.0)]

    def test_rand_rejected_under_rewrite_policy(self, statement_cluster):
        session = statement_cluster.connect(database="shop")
        with pytest.raises(UnsupportedStatementError):
            session.execute("UPDATE kv SET v = RAND()")
        session.close()

    def test_limit_without_order_rejected(self, statement_cluster):
        session = statement_cluster.connect(database="shop")
        with pytest.raises(UnsupportedStatementError):
            session.execute(
                "UPDATE kv SET v = 1 WHERE k IN "
                "(SELECT k FROM kv WHERE v = 0 LIMIT 2)")
        session.close()

    def test_reject_policy_refuses_now(self):
        replicas = make_replicas(2, schema=KV_SCHEMA)
        mw = ReplicationMiddleware(replicas, MiddlewareConfig(
            replication="statement", nondeterminism="reject"))
        session = mw.connect(database="shop")
        session.execute("CREATE TABLE stamped (id INT, ts FLOAT)")
        with pytest.raises(UnsupportedStatementError):
            session.execute("INSERT INTO stamped VALUES (1, NOW())")
        session.close()

    def test_broadcast_policy_diverges(self):
        """E10 core mechanism: shipping RAND() verbatim diverges replicas
        — and the rowcount check does not catch it: rowcounts match; the
        *content* differs, caught by signatures."""
        replicas = make_replicas(2, schema=KV_SCHEMA)
        mw = ReplicationMiddleware(replicas, MiddlewareConfig(
            replication="statement", nondeterminism="broadcast"))
        seed_kv(mw, rows=5)
        session = mw.connect(database="shop")
        session.execute("UPDATE kv SET v = FLOOR(RAND() * 1000)")
        session.close()
        assert not mw.check_convergence()

    @pytest.mark.parametrize("explicit", [False, True],
                             ids=["autocommit", "begin-commit"])
    def test_a_rowcount_mismatch_is_divergence(self, statement_cluster,
                                               explicit):
        """Replicas that already differ affect different row counts with
        the same statement: the write is refused, not applied on top —
        inside BEGIN ... COMMIT too, where the transaction is rolled back
        and the COMMIT that follows has nothing left to apply."""
        mw = statement_cluster
        behind_the_back = mw.replicas[2].engine.connect(database="shop")
        behind_the_back.execute("DELETE FROM kv WHERE k = 4")
        behind_the_back.close()
        session = mw.connect(database="shop")
        log_length = len(mw.recovery_log.entries)
        if explicit:
            session.begin()
            session.execute("UPDATE kv SET v = 8 WHERE k = 3")
        with pytest.raises(ClusterDivergence):
            session.execute("UPDATE kv SET v = 9 WHERE k = 4")
        assert mw.monitor.count("divergence_detected") == 1
        (event,) = [e for e in mw.monitor.events
                    if e.kind == "divergence_detected"]
        assert event.detail["rowcounts"] == {"r0": 1, "r1": 1, "r2": 0}
        assert not session.in_transaction
        if explicit:
            session.commit()
        # rolled back everywhere, logged nothing, locks released
        assert len(mw.recovery_log.entries) == log_length
        assert mw.stats["aborts"] == 1
        for replica in mw.replicas:
            c = replica.engine.connect(database="shop")
            assert c.execute("SELECT v FROM kv WHERE k = 3").scalar() == 0
            assert c.execute("SELECT v FROM kv WHERE k = 4").scalar() in (
                0, None)
        other = mw.connect(database="shop")
        other.execute("UPDATE kv SET v = 5 WHERE k = 3")
        other.close()
        session.close()

    @pytest.mark.parametrize("end", ["close", "middleware-restart"])
    def test_a_session_gone_inside_a_transaction_releases_its_table_locks(
            self, statement_cluster, end):
        mw = statement_cluster
        session = mw.connect(database="shop")
        session.begin()
        session.execute("UPDATE kv SET v = 1 WHERE k = 1")
        if end == "close":
            session.close()
        else:
            mw.fail()
            mw.recover()
        other = mw.connect(database="shop")
        other.execute("UPDATE kv SET v = 2 WHERE k = 1")  # no LockConflict
        other.close()
        assert mw.check_convergence()

    def test_replica_crash_mid_write_transparent(self, statement_cluster):
        mw = statement_cluster
        session = mw.connect(database="shop")
        session.begin()
        session.execute("UPDATE kv SET v = 5 WHERE k = 5")
        mw.replicas[1].engine.crash()
        session.execute("UPDATE kv SET v = 6 WHERE k = 6")  # survives
        session.commit()
        session.close()
        survivors = [r for r in mw.replicas if not r.engine.crashed]
        signatures = {r.engine.content_signature() for r in survivors}
        assert len(signatures) == 1

    def test_crashed_replica_skipped_by_router(self, statement_cluster):
        mw = statement_cluster
        session = mw.connect(database="shop")
        session.execute("SELECT COUNT(*) FROM kv")  # r0 serves (round robin)
        mw.replicas[1].engine.crash()  # router must skip it
        result = session.execute("SELECT COUNT(*) FROM kv")
        assert result.scalar() == 10
        session.close()

    def test_read_failover_mid_request(self, statement_cluster):
        """A replica dying *between* routing and execution: the session
        retries transparently on a survivor (section 4.3.3)."""
        from repro.core import analyze
        from repro.sqlengine.parser import parse
        mw = statement_cluster
        session = mw.connect(database="shop")
        replica = mw.replicas[0]
        connection = session.connection(replica)
        statement = parse("SELECT COUNT(*) FROM kv")
        replica.engine.crashed = True  # dies after routing chose it
        result = session._run_with_failover(
            replica, connection, statement, [], analyze(statement))
        assert result.scalar() == 10
        assert session.failover_replays == 1
        session.close()

    def test_table_locks_serialize_writers(self, statement_cluster):
        from repro.sqlengine.locks import LockConflict
        from repro.sqlengine import DeadlockError
        mw = statement_cluster
        a = mw.connect(database="shop")
        b = mw.connect(database="shop")
        a.begin()
        a.execute("UPDATE kv SET v = 1 WHERE k = 1")
        b.begin()
        with pytest.raises((LockConflict, DeadlockError)):
            b.execute("UPDATE kv SET v = 2 WHERE k = 2")  # same table
        b.rollback()
        a.commit()
        a.close()
        b.close()

    def test_recovery_log_records_statements(self, statement_cluster):
        mw = statement_cluster
        session = mw.connect(database="shop")
        session.execute("UPDATE kv SET v = 1 WHERE k = 1")
        session.close()
        entry = mw.recovery_log.entries[-1]
        assert entry.kind == "statements"
        assert "UPDATE" in entry.payload[0][0]

    def test_a_script_is_logged_statement_by_statement(self,
                                                       statement_cluster):
        """Each statement of a ``;``-script is logged under its own
        text — the script's text would replay the whole script once per
        statement on a replica that rejoins from the log."""
        mw = statement_cluster
        mw.replicas[1].mark_failed()
        bump = "UPDATE kv SET v = v + 1 WHERE k = 1"
        session = mw.connect(database="shop")
        session.execute(f"{bump}; {bump}")
        assert [entry.payload for entry in mw.recovery_log.entries[-2:]] \
            == [[("UPDATE kv SET v = v + ? WHERE k = ?", [1, 1])]] * 2
        assert FailoverManager(mw).failback(mw.replicas[1].name) == 2
        assert mw.check_convergence(online_only=False)
        session.close()


class TestWritesetMode:
    def test_a_failed_replica_is_never_balanced_onto(self, writeset_cluster):
        """Reads and autocommit writes are balanced over the online
        replicas only (the read choice and the write choice each hand
        the balancer what is online)."""
        mw = writeset_cluster
        failed = mw.replicas[0]
        failed.mark_failed()
        before = {r.name: (r.stats["served_reads"], r.stats["served_writes"])
                  for r in mw.replicas}
        session = mw.connect(database="shop")
        for key in range(6):
            session.execute(f"SELECT v FROM kv WHERE k = {key}")
            session.execute(f"UPDATE kv SET v = v + 1 WHERE k = {key}")
        session.close()
        moved = {r.name: (r.stats["served_reads"], r.stats["served_writes"])
                 != before[r.name] for r in mw.replicas}
        assert moved == {"r0": False, "r1": True, "r2": True}

    def test_sync_propagation_converges(self, writeset_cluster):
        mw = writeset_cluster
        session = mw.connect(database="shop")
        session.execute("UPDATE kv SET v = 3 WHERE k = 3")
        session.execute("DELETE FROM kv WHERE k = 9")
        session.execute("INSERT INTO kv VALUES (100, 1)")
        session.close()
        assert mw.check_convergence()

    def test_async_propagation_lags_then_converges(self):
        replicas = make_replicas(2, schema=KV_SCHEMA)
        mw = ReplicationMiddleware(replicas, MiddlewareConfig(
            replication="writeset", propagation="async"))
        seed_kv(mw, rows=5)
        mw.pump()
        session = mw.connect(database="shop")
        session.execute("UPDATE kv SET v = 1 WHERE k = 1")
        session.close()
        lags = sorted(r.lag_items for r in mw.replicas)
        assert lags == [0, 1]
        mw.pump()
        assert mw.check_convergence()

    def test_certification_conflict_aborts_second(self, writeset_cluster):
        mw = writeset_cluster
        a = mw.connect(database="shop")
        b = mw.connect(database="shop")
        a.begin()
        b.begin()
        a.execute("UPDATE kv SET v = 10 WHERE k = 5")
        b.execute("UPDATE kv SET v = 20 WHERE k = 5")
        a.commit()
        with pytest.raises(SerializationError):
            b.commit()
        a.close()
        b.close()
        assert mw.check_convergence()
        assert mw.stats["certification_aborts"] == 1

    def test_disjoint_writes_both_commit(self, writeset_cluster):
        mw = writeset_cluster
        a = mw.connect(database="shop")
        b = mw.connect(database="shop")
        a.begin()
        b.begin()
        a.execute("UPDATE kv SET v = 10 WHERE k = 1")
        b.execute("UPDATE kv SET v = 20 WHERE k = 2")
        a.commit()
        b.commit()
        a.close()
        b.close()
        assert mw.check_convergence()

    def test_read_committed_protocol_allows_lost_update(self):
        replicas = make_replicas(2, schema=KV_SCHEMA)
        mw = ReplicationMiddleware(replicas, MiddlewareConfig(
            replication="writeset", propagation="sync",
            consistency=protocol_by_name("read-committed")))
        seed_kv(mw, rows=3)
        a = mw.connect(database="shop")
        b = mw.connect(database="shop")
        a.begin()
        b.begin()
        a.execute("UPDATE kv SET v = 10 WHERE k = 1")
        b.execute("UPDATE kv SET v = 20 WHERE k = 1")
        a.commit()
        b.commit()  # no certification abort: last writer wins
        a.close()
        b.close()
        assert mw.check_convergence()

    def test_ddl_broadcast_in_writeset_mode(self, writeset_cluster):
        mw = writeset_cluster
        session = mw.connect(database="shop")
        session.execute("CREATE TABLE extra (x INT)")
        session.close()
        for replica in mw.replicas:
            assert replica.engine.database("shop").has_table("extra")

    def test_local_replica_failure_aborts_transaction(self, writeset_cluster):
        """Section 4.3.3: transaction replication cannot transparently
        fail over — the txn lived at one replica."""
        from repro.core import ReplicaUnavailable
        mw = writeset_cluster
        session = mw.connect(database="shop")
        session.begin()
        session.execute("UPDATE kv SET v = 1 WHERE k = 1")
        local = mw.replica_by_name(session.txn.local_replica)
        local.engine.crash()
        local.mark_failed()
        with pytest.raises(ReplicaUnavailable):
            session.execute("UPDATE kv SET v = 2 WHERE k = 2")
        session.rollback()
        session.close()

    def test_writeset_recovery_log(self, writeset_cluster):
        mw = writeset_cluster
        session = mw.connect(database="shop")
        session.execute("UPDATE kv SET v = 1 WHERE k = 1")
        session.close()
        entry = mw.recovery_log.entries[-1]
        assert entry.kind == "writeset"
        assert entry.payload[0]["op"] == "UPDATE"


class TestMasterMode:
    def make(self, propagation="async"):
        replicas = make_replicas(3, schema=KV_SCHEMA)
        mw = ReplicationMiddleware(replicas, MiddlewareConfig(
            replication="writeset", propagation=propagation,
            consistency=protocol_by_name("rsi-pc")))
        seed_kv(mw, rows=5)
        mw.pump()
        return mw

    def test_writes_go_to_master_only(self):
        mw = self.make()
        session = mw.connect(database="shop")
        session.execute("UPDATE kv SET v = 9 WHERE k = 0")
        session.close()
        assert mw.master.stats["served_writes"] >= 1
        satellites = [r for r in mw.replicas if r.name != mw.master.name]
        assert all(r.stats["served_writes"] == 0 for r in satellites)

    def test_session_monotonic_read_own_writes(self):
        mw = self.make()
        session = mw.connect(database="shop")
        session.execute("UPDATE kv SET v = 77 WHERE k = 1")
        # satellites lag (async), but session consistency forces a wait
        value = session.execute("SELECT v FROM kv WHERE k = 1").scalar()
        assert value == 77
        session.close()

    def test_other_sessions_may_read_stale(self):
        mw = self.make()
        writer = mw.connect(database="shop")
        writer.execute("UPDATE kv SET v = 55 WHERE k = 2")
        writer.close()
        fresh = mw.connect(database="shop")
        value = fresh.execute("SELECT v FROM kv WHERE k = 2").scalar()
        assert value in (0, 55)  # GSI-style staleness allowed
        fresh.close()

    def test_master_down_blocks_writes(self):
        from repro.core import ReplicaUnavailable
        mw = self.make()
        mw.master.engine.crash()
        mw.master.mark_failed()
        session = mw.connect(database="shop")
        with pytest.raises(ReplicaUnavailable):
            session.execute("UPDATE kv SET v = 1 WHERE k = 1")
        session.close()


class TestMiddlewareLifecycle:
    def test_fail_kills_sessions_and_recover_restores(self, writeset_cluster):
        mw = writeset_cluster
        session = mw.connect(database="shop")
        session.begin()
        session.execute("UPDATE kv SET v = 1 WHERE k = 1")
        lost = mw.fail()
        assert lost == 1
        with pytest.raises(MiddlewareDown):
            mw.connect(database="shop")
        mw.recover()
        fresh = mw.connect(database="shop")
        # the in-flight txn was rolled back at the replicas
        assert fresh.execute("SELECT v FROM kv WHERE k = 1").scalar() == 0
        fresh.close()

    def test_convergence_check_raises_on_divergence(self, writeset_cluster):
        mw = writeset_cluster
        # surgically diverge one replica behind the middleware's back
        c = mw.replicas[0].engine.connect(database="shop")
        c.execute("INSERT INTO kv VALUES (999, 1)")
        c.close()
        with pytest.raises(ClusterDivergence):
            mw.assert_convergence()

    def test_freshness_wait_counter(self):
        replicas = make_replicas(2, schema=KV_SCHEMA)
        mw = ReplicationMiddleware(replicas, MiddlewareConfig(
            replication="writeset", propagation="async",
            consistency=protocol_by_name("strong-si")))
        seed_kv(mw, rows=3)
        session = mw.connect(database="shop")
        session.execute("UPDATE kv SET v = 1 WHERE k = 1")
        # strong SI read must wait for full freshness on some replica
        value = session.execute("SELECT v FROM kv WHERE k = 1").scalar()
        assert value == 1
        session.close()
