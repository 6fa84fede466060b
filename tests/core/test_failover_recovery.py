"""Failover, failback, recovery log and virtual IP tests."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core import (
    BackupCoordinator, FailoverManager, LogTruncatedError,
    MiddlewareConfig, RecoveryLog,
    Replica, ReplicationMiddleware, ResiliencePolicy, RetryPolicy, VirtualIP,
    promote_and_switch, protocol_by_name,
)
from repro.sqlengine import Engine

from tests.conftest import KV_SCHEMA, make_replicas, seed_kv


def master_slave(n=2, propagation="async"):
    replicas = make_replicas(n, schema=KV_SCHEMA)
    mw = ReplicationMiddleware(replicas, MiddlewareConfig(
        replication="writeset", propagation=propagation,
        consistency=protocol_by_name("rsi-pc")))
    seed_kv(mw, rows=5)
    mw.pump()
    return mw


class TestVirtualIP:
    def test_switch_history(self):
        vip = VirtualIP("db", "r0")
        vip.switch("r1")
        vip.switch("r2")
        assert vip.target == "r2"
        assert vip.switch_count == 2
        assert vip.history == ["r0", "r1", "r2"]


class TestFailover:
    def test_master_failure_promotes_freshest(self):
        mw = master_slave(3)
        session = mw.connect(database="shop")
        for key in range(5):
            session.execute(f"UPDATE kv SET v = 1 WHERE k = {key}")
        session.close()
        # drain r1 fully, leave r2 lagging
        mw.drain_replica(mw.replicas[1].name)
        mw.replicas[0].engine.crash()
        manager = FailoverManager(mw)
        report = manager.handle_replica_failure(mw.replicas[0].name)
        assert report.promoted
        assert report.new_master == mw.replicas[1].name
        assert mw.master.name == mw.replicas[1].name

    def test_promotion_drains_survivor_queue(self):
        mw = master_slave(2)
        session = mw.connect(database="shop")
        for key in range(5):
            session.execute(f"UPDATE kv SET v = 9 WHERE k = {key}")
        session.close()
        assert mw.replicas[1].lag_items == 5
        mw.replicas[0].engine.crash()
        manager = FailoverManager(mw)
        report = manager.handle_replica_failure("r0")
        assert report.drained_items == 5
        assert report.lost_transactions == 0  # middleware-held queue kept

    def test_discard_pending_models_1safe_loss(self):
        mw = master_slave(2)
        session = mw.connect(database="shop")
        for key in range(5):
            session.execute(f"UPDATE kv SET v = 9 WHERE k = {key}")
        session.close()
        mw.replicas[0].engine.crash()
        manager = FailoverManager(mw)
        report = manager.handle_replica_failure("r0", discard_pending=True)
        assert report.lost_transactions == 5

    def _lagging_survivor_after_1safe_loss(self, updates):
        """r0 (master) at the head, r1 one behind, r2 at the seed state;
        r0 dies and takes its shipping pipeline with it."""
        mw = master_slave(3)
        session = mw.connect(database="shop")
        for key in range(updates):
            session.execute(f"UPDATE kv SET v = 7 WHERE k = {key}")
        session.close()
        head = mw.recovery_log.head_seq
        mw.drain_replica("r1", up_to_seq=head - 1)
        assert [r.applied_seq for r in mw.replicas] \
            == [head, head - 1, head - updates]
        mw.replicas[0].engine.crash()
        report = FailoverManager(mw).handle_replica_failure(
            "r0", discard_pending=True)
        assert report.new_master == "r1" and report.lost_transactions == 1
        return mw

    def test_lagging_survivor_catches_up_after_1safe_loss(self):
        """Every survivor's queue is cleared, only the freshest one is
        promoted: the other must replay what the new master has from
        the recovery log, or the next commit's seq carries its watermark
        over a permanent hole."""
        mw = self._lagging_survivor_after_1safe_loss(updates=4)
        r1, r2 = mw.replicas[1], mw.replicas[2]
        assert r2.applied_seq == r1.applied_seq
        session = mw.connect(database="shop")
        session.execute("UPDATE kv SET v = 8 WHERE k = 0")
        session.close()
        mw.pump()
        assert r2.applied_seq == r1.applied_seq == mw.global_seq
        assert mw.check_convergence(), mw.content_signatures()

    def test_certifier_forgets_writes_lost_with_the_master(self):
        """The lost transaction was the only write to k = 4: no replica
        holds it, so a later write to k = 4 has nothing to conflict
        with."""
        mw = self._lagging_survivor_after_1safe_loss(updates=5)
        session = mw.connect(database="shop")
        session.execute("UPDATE kv SET v = 8 WHERE k = 4")
        session.close()
        mw.pump()
        assert mw.check_convergence(), mw.content_signatures()

    def test_vip_switches_on_promotion(self):
        mw = master_slave(2)
        vip = VirtualIP("db", mw.master.name)
        mw.master.engine.crash()
        report = promote_and_switch(mw, vip)
        assert vip.target == report.new_master

    def test_writes_resume_after_promotion(self):
        mw = master_slave(2)
        mw.master.engine.crash()
        manager = FailoverManager(mw)
        manager.handle_replica_failure(mw.master.name)
        session = mw.connect(database="shop")
        session.execute("UPDATE kv SET v = 123 WHERE k = 0")
        assert session.execute(
            "SELECT v FROM kv WHERE k = 0").scalar() == 123
        session.close()

    def test_failback_incremental_replay(self):
        mw = master_slave(2)
        mw.replicas[1].mark_failed()
        session = mw.connect(database="shop")
        for key in range(4):
            session.execute(f"UPDATE kv SET v = 2 WHERE k = {key}")
        session.close()
        manager = FailoverManager(mw)
        replayed = manager.failback("r1")
        assert replayed == 4
        assert mw.check_convergence()

    def test_failback_after_1safe_loss_full_reclone(self):
        """Old master returns with phantom committed state: incremental
        replay cannot help; a full re-clone happens (section 4.4.2)."""
        mw = master_slave(2)
        session = mw.connect(database="shop")
        for key in range(5):
            session.execute(f"UPDATE kv SET v = 9 WHERE k = {key}")
        session.close()
        mw.replicas[0].engine.crash()
        manager = FailoverManager(mw)
        manager.handle_replica_failure("r0", discard_pending=True)
        replayed = manager.failback("r0")
        assert mw.check_convergence()
        assert mw.monitor.count("failback_full_resync") == 1

    def test_monitor_timeline(self):
        mw = master_slave(2)
        mw.master.engine.crash()
        manager = FailoverManager(mw)
        manager.handle_replica_failure(mw.master.name)
        kinds = [e.kind for e in mw.monitor.events]
        assert "failover_started" in kinds
        assert "failover_completed" in kinds
        assert "master_changed" in kinds


class TestFailoverEdgeCases:
    def test_zero_online_survivors(self):
        """Every replica is down when the master fails: no promotion
        happens, the incident is recorded, and the cluster resumes once a
        survivor fails back."""
        mw = master_slave(3)
        for replica in mw.replicas[1:]:
            replica.mark_failed()
        mw.replicas[0].engine.crash()
        manager = FailoverManager(mw)
        report = manager.handle_replica_failure("r0")
        assert not report.promoted
        assert report.new_master is None
        assert mw.monitor.count("failover_no_survivor") == 1
        # a slave returns; promoting over the still-dead master succeeds now
        manager.failback("r1")
        report2 = promote_and_switch(mw, VirtualIP("db", "r0"),
                                     manager=manager)
        assert report2.promoted and report2.new_master == "r1"
        session = mw.connect(database="shop")
        session.execute("UPDATE kv SET v = 5 WHERE k = 0")
        assert session.execute("SELECT v FROM kv WHERE k = 0").scalar() == 5
        session.close()

    def test_promote_and_switch_reuses_manager(self):
        """Passing an existing manager keeps one continuous failover
        history: reports accumulate and on_failover callbacks fire."""
        mw = master_slave(3)
        vip = VirtualIP("db", "r0")
        manager = FailoverManager(mw)
        seen = []
        manager.on_failover(lambda report: seen.append(report.new_master))
        mw.replicas[0].engine.crash()
        report = promote_and_switch(mw, vip, manager=manager)
        assert manager.virtual_ip is vip          # adopted, not replaced
        assert manager.reports == [report]
        assert seen == [report.new_master]
        mw.replica_by_name(report.new_master).engine.crash()
        report2 = promote_and_switch(mw, vip, manager=manager)
        assert len(manager.reports) == 2
        assert vip.target == report2.new_master
        assert seen == [report.new_master, report2.new_master]

    def test_second_failure_during_failback(self):
        """The reference survivor dies while a failback is in progress:
        the resync still completes from the middleware-held recovery log
        (section 4.4.2 — the log, not a peer, is authoritative)."""
        mw = master_slave(3)
        mw.replicas[2].mark_failed()
        session = mw.connect(database="shop")
        for key in range(4):
            session.execute(f"UPDATE kv SET v = 3 WHERE k = {key}")
        session.close()
        mw.drain_replica("r1")
        manager = FailoverManager(mw)

        def second_failure(event):
            if event.kind == "failback_started":
                mw.replicas[1].mark_failed()

        mw.monitor.on_event(second_failure)
        replayed = manager.failback("r2")
        assert replayed == 4
        assert mw.replica_by_name("r2").is_online
        assert not mw.replica_by_name("r1").is_online
        assert mw.monitor.count("failback_completed") == 1
        # the mid-failback casualty recovers too, and everyone converges
        manager.failback("r1")
        assert mw.check_convergence()


class TestRetryExactlyOnce:
    """Property: a transparently retried/replayed transaction is applied
    exactly once — acked increments equal the on-disk count on every
    replica, no matter where crashes land."""

    @settings(max_examples=20, deadline=None)
    @given(data=st.data())
    def test_retry_never_double_applies_committed_txn(self, data):
        replicas = make_replicas(3, schema=KV_SCHEMA)
        mw = ReplicationMiddleware(replicas, MiddlewareConfig(
            replication="writeset", propagation="sync",
            consistency=protocol_by_name("gsi"),
            resilience=ResiliencePolicy(
                retry=RetryPolicy(max_attempts=4, jitter=0.0))))
        session = mw.connect(database="shop")
        session.execute("INSERT INTO kv (k, v) VALUES (0, 0)")
        acked = 0
        n_ops = data.draw(st.integers(3, 8), label="n_ops")
        for index in range(n_ops):
            use_txn = data.draw(st.booleans(), label=f"txn_{index}")
            point = data.draw(
                st.sampled_from(["none", "before", "mid", "commit"]),
                label=f"crash_point_{index}")
            victim_index = data.draw(st.integers(0, 2),
                                     label=f"victim_{index}")

            def maybe_kill(when):
                if point != when:
                    return
                victim = mw.replicas[victim_index]
                alive = [r for r in mw.replicas if r.is_online]
                if victim.is_online and len(alive) > 1:
                    victim.engine.crash()
                    victim.mark_failed()

            try:
                if use_txn:
                    session.execute("BEGIN")
                    session.execute("UPDATE kv SET v = v + 1 WHERE k = 0")
                    maybe_kill("mid")
                    session.execute("UPDATE kv SET v = v + 1 WHERE k = 0")
                    maybe_kill("commit")
                    session.execute("COMMIT")
                    acked += 2
                else:
                    maybe_kill("before")
                    session.execute("UPDATE kv SET v = v + 1 WHERE k = 0")
                    acked += 1
            except Exception:
                # the request failed before certification: it must not
                # have applied anywhere; drop any transaction carcass
                session.execute("ROLLBACK")
        session.close()
        # heal everything and compare each replica's raw engine state
        manager = FailoverManager(mw)
        for replica in mw.replicas:
            if not replica.is_online:
                manager.failback(replica.name)
        assert mw.check_convergence()
        for replica in mw.replicas:
            connection = replica.engine.connect(database="shop")
            applied = connection.execute(
                "SELECT v FROM kv WHERE k = 0").scalar()
            connection.close()
            assert applied == acked, (
                f"{replica.name}: applied {applied} != acked {acked} — "
                "a retry double-applied or a failed request leaked")


def catch_up_from(log, engine):
    """Serial replay as a joining replica runs it: the one tail loop
    (``BackupCoordinator.catch_up``) over a hand-built log."""
    replica = Replica(engine.name, engine)
    mw = ReplicationMiddleware([replica])
    mw.recovery_log = log
    replayed = BackupCoordinator(mw).catch_up(replica)
    assert replica.applied_seq == log.head_seq
    return replayed


class TestRecoveryLog:
    def test_checkpoint_and_replay(self):
        log = RecoveryLog()
        engine = Engine("t")
        engine.create_database("shop")
        c = engine.connect(database="shop")
        c.execute("CREATE TABLE kv (k INT PRIMARY KEY, v INT)")
        log.append(1, "statements",
                   [("INSERT INTO kv VALUES (1, 1)", [])],
                   tables=["kv"], database="shop")
        checkpoint_seq = log.checkpoint("before-2")
        log.append(2, "statements",
                   [("INSERT INTO kv VALUES (2, 2)", [])],
                   tables=["kv"], database="shop")
        entries = log.entries_since_checkpoint("before-2")
        assert [e.seq for e in entries] == [2]
        applied = catch_up_from(log, engine)
        assert applied == 2
        assert engine.row_count("shop", "kv") == 2

    def test_replay_writeset_entries(self):
        log = RecoveryLog()
        engine = Engine("t")
        engine.create_database("shop")
        c = engine.connect(database="shop")
        c.execute("CREATE TABLE kv (k INT PRIMARY KEY, v INT)")
        log.append(1, "writeset", [{
            "database": "shop", "table": "kv", "op": "INSERT",
            "primary_key": (1,), "old_values": None,
            "new_values": {"k": 1, "v": 42},
        }], tables=["kv"])
        catch_up_from(log, engine)
        assert c.execute("SELECT v FROM kv WHERE k = 1").scalar() == 42

    def test_parallel_replay_waves_disjoint(self):
        log = RecoveryLog()
        for seq in range(1, 9):
            table = f"t{seq % 4}"
            log.append(seq, "writeset", [], tables=[table])
        waves = log.plan_parallel_replay(0, max_wave=8)
        # 8 entries over 4 tables -> each table appears twice -> >= 2 waves
        assert len(waves) >= 2
        for wave in waves:
            tables = [t for e in wave for t in e.tables]
            assert len(tables) == len(set(tables))  # disjoint inside a wave

    def test_parallel_replay_preserves_per_table_order(self):
        log = RecoveryLog()
        for seq in range(1, 7):
            log.append(seq, "writeset", [], tables=["same"])
        waves = log.plan_parallel_replay(0)
        flat = [e.seq for wave in waves for e in wave]
        assert flat == [1, 2, 3, 4, 5, 6]
        assert all(len(w) == 1 for w in waves)  # no parallelism possible

    def test_opaque_entry_blocks_parallelism(self):
        """Section 4.2.1: an unknown-footprint entry (stored procedure)
        runs alone."""
        log = RecoveryLog()
        log.append(1, "writeset", [], tables=["a"])
        log.append(2, "writeset", [], tables=["b"])
        log.append(3, "statements", [("CALL mystery()", [])], tables=[])
        log.append(4, "writeset", [], tables=["c"])
        waves = log.plan_parallel_replay(0)
        opaque_wave = [w for w in waves if any(not e.tables for e in w)]
        assert len(opaque_wave) == 1 and len(opaque_wave[0]) == 1

    def test_parallel_speedup_reported(self):
        log = RecoveryLog()
        for seq in range(1, 17):
            log.append(seq, "writeset", [], tables=[f"t{seq % 8}"])
        assert log.parallel_speedup(0) > 2.0

    def test_purge(self):
        log = RecoveryLog()
        for seq in range(1, 11):
            log.append(seq, "writeset", [], tables=["t"])
        assert log.purge_before(5) == 5
        assert [e.seq for e in log.entries] == [6, 7, 8, 9, 10]

    def test_read_below_the_purge_is_refused_not_holed(self):
        """A naive truncation would answer ``entries_since(2)`` with
        6..10 — a tail missing 3..5."""
        log = RecoveryLog()
        for seq in range(1, 11):
            log.append(seq, "writeset", [], tables=["t"])
        log.checkpoint("kept", seq=2)
        log.purge_before(5)
        with pytest.raises(LogTruncatedError):
            log.entries_since(2)
        with pytest.raises(LogTruncatedError):
            log.entries_since_checkpoint("kept")
        assert [e.seq for e in log.entries_since(5)] == [6, 7, 8, 9, 10]
        log.release("kept")
        assert "kept" not in log.checkpoints
        log.release("kept")    # releasing twice is not an error

    def test_truncate_after(self):
        log = RecoveryLog()
        for seq in range(1, 6):
            log.append(seq, "writeset", [], tables=["t"])
        assert log.truncate_after(2) == 3
        assert [e.seq for e in log.entries] == [1, 2]
        assert log.head_seq == 2
