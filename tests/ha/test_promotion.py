"""Fenced promotion: epoch monotonicity, split-brain refusal, state
carry-over, the four crash windows, and the cold-restart slow path."""

import pytest

from repro.core import ClusterManager, FailoverManager, Replica
from repro.core.errors import (
    FencedOut, LogTruncatedError, MiddlewareDown,
)
from repro.ha import (
    HAClient, HAPair, cold_restart, cold_restart_duration,
)
from repro.sqlengine import Engine, postgresql
from tests.ha.util import (
    DATABASE, all_replicas_agree, install_crash, kv_values, make_leader,
)


def test_promote_advances_epoch_and_fences_old_leader():
    middleware = make_leader()
    pair = HAPair(middleware)
    session = middleware.connect(database=DATABASE)
    report = pair.promote()
    assert report.epoch == 1
    assert pair.fence.epoch == 1
    assert pair.active is pair.standby
    assert pair.virtual_ip.target == pair.standby.name
    # the deposed leader is refused even though it never crashed
    # (false-positive detection must be safe)
    with pytest.raises(FencedOut):
        session.execute("UPDATE kv SET v = v + 1 WHERE k = 0")
    # and the refused write reached no replica — no split-brain
    assert kv_values(middleware)[0] == 0
    new_session = pair.connect(database=DATABASE)
    new_session.execute("UPDATE kv SET v = v + 1 WHERE k = 0")
    new_session.close()
    assert kv_values(middleware)[0] == 1
    assert all_replicas_agree(middleware)


def test_promotion_carries_certifier_recovery_and_affinity():
    middleware = make_leader()
    pair = HAPair(middleware)
    session = pair.connect(database=DATABASE, client_id="carol")
    session.client_txn_id = "carol:1"
    session.execute("UPDATE kv SET v = v + 1 WHERE k = 3")
    session.close()
    leader_log = middleware.certifier.export_log()
    leader_seq = middleware.certifier.current_seq
    recovery_entries = len(middleware.recovery_log.entries)
    pair.kill_active()
    report = pair.promote()
    standby = pair.active
    assert standby.certifier.export_log() == leader_log
    assert standby.certifier.current_seq >= leader_seq
    assert len(standby.recovery_log.entries) == recovery_entries
    assert standby.ha.ledger.committed("carol:1")
    assert report.session_tokens == 1
    # promotion re-roled the standby's link and took the standby away
    # from the deposed leader's; neither middleware got a new one
    assert (standby.ha.role, standby.ha.epoch) == ("active", 1)
    assert standby.ha.standby_name is None
    assert middleware.ha.role == "active" and middleware.ha.epoch == 0
    assert (middleware.ha.shipper, middleware.ha.standby_name) \
        == (None, None)


def test_second_promotion_requires_new_standby():
    pair = HAPair(make_leader())
    pair.kill_active()
    pair.promote()
    with pytest.raises(RuntimeError):
        pair.promote()
    # an operator rebuilds a standby behind the new leader; the epoch
    # fence of the new pair starts fresh but the old fence still holds
    rebuilt = HAPair(pair.active)
    rebuilt.kill_active()
    report = rebuilt.promote()
    assert report.epoch == 1
    assert rebuilt.active is rebuilt.standby


@pytest.mark.parametrize("phase,expected_outcome,resolved,dropped", [
    ("before_prepare", "committed", 0, 0),
    ("after_prepare", "committed", 0, 1),
    ("before_ack", "deduped", 1, 0),
    ("after_ack", "deduped", 0, 0),
])
def test_crash_window_applies_exactly_once(phase, expected_outcome,
                                           resolved, dropped):
    """One commit, crashed at each danger window: whatever the window,
    the transaction's effects land exactly once and the promotion report
    accounts for the pending entry correctly."""
    pair = HAPair(make_leader())
    install_crash(pair, phase)
    client = HAClient(pair, client_id="alice", database=DATABASE)
    outcome = client.run_transaction(
        ["UPDATE kv SET v = v + 1 WHERE k = 0"])
    assert outcome == expected_outcome
    assert kv_values(pair.active)[0] == 1          # exactly once
    assert all_replicas_agree(pair.active)
    report = pair.promotions[-1]
    assert report.resolved_committed == resolved
    assert report.dropped_pending == dropped
    client.close()


def test_after_prepare_crash_without_txn_id_leaves_no_unit_behind():
    """The ``after_prepare`` window for a session that carries no client
    txn id: the ledger never heard of the unit, yet it reached no replica
    and must leave the promoted certifier and recovery logs all the same
    — otherwise the next join replays a write nobody committed."""
    leader = make_leader(rows=3, replicas=3)
    pair = HAPair(leader)
    lagging = leader.replicas[2]
    lagging.mark_failed()
    session = pair.connect(database=DATABASE, client_id="c1")
    session.execute("UPDATE kv SET v = 1 WHERE k = 0")      # acked
    install_crash(pair, "after_prepare")
    with pytest.raises(MiddlewareDown):
        session.execute("UPDATE kv SET v = 7 WHERE k = 1")  # never acked
    promoted = pair.active
    log = promoted.recovery_log
    watermark = max(r.applied_seq for r in promoted.online_replicas())
    assert [e.seq for e in log.entries] == list(range(1, watermark + 1))
    assert log.head_seq == watermark
    assert promoted.certifier.current_seq == watermark
    assert pair.promotions[-1].dropped_pending == 1
    # the replica that sat the incident out fails back incrementally
    assert FailoverManager(promoted).failback(lagging.name) == 1
    assert promoted.monitor.count("failback_full_resync") == 0
    # and a replica added from the promoted log serves what the cluster
    # serves, not the dropped write
    newcomer = Replica("new", Engine("new", dialect=postgresql(), seed=5))
    report = ClusterManager(promoted).add_replica(
        newcomer, strategy="recovery_log")
    assert report.entries_replayed == 0
    assert promoted.check_convergence()
    assert kv_values(promoted) == {0: 1, 1: 0, 2: 0}
    # the freed sequence number is the next one handed out
    retry = pair.connect(database=DATABASE, client_id="c1")
    retry.execute("UPDATE kv SET v = 7 WHERE k = 1")
    retry.close()
    assert log.head_seq == watermark + 1
    assert all_replicas_agree(promoted)


def test_promotion_hydrates_the_leaders_truncated_tail():
    """Past the retention watermark the standby's mirror is cut with the
    leader's logs, so a promotion hydrates the leader's tail — not a
    history — and everything that held the leader's log still holds the
    promoted one: the purge mark, a replica parked OFFLINE, and the
    PENDING unit the crash left in flight."""
    leader = make_leader(rows=5, replicas=3)
    leader.config.retention_watermark = 8
    pair = HAPair(leader)
    client = HAClient(pair, client_id="alice", database=DATABASE)
    for _ in range(30):
        client.run_transaction(["UPDATE kv SET v = v + 1 WHERE k = 0"])
    assert 0 < leader.recovery_log.purged_seq == pair.state.purged_seq
    assert len(pair.state.commits) <= 8
    parked = leader.replicas[2]
    ClusterManager(leader).remove_replica(parked.name)
    for _ in range(20):
        client.run_transaction(["UPDATE kv SET v = v + 1 WHERE k = 1"])
    install_crash(pair, "before_ack")     # committed, PENDING, unacked
    assert client.run_transaction(
        ["UPDATE kv SET v = v + 1 WHERE k = 2"]) == "deduped"
    client.close()

    promoted = pair.active
    assert promoted is pair.standby
    assert pair.promotions[-1].resolved_committed == 1
    seqs = [e.seq for e in promoted.recovery_log.entries]
    assert seqs == [e.seq for e in leader.recovery_log.entries]
    assert seqs == list(range(seqs[0], leader.global_seq + 1))
    assert seqs[0] <= parked.applied_seq + 1
    # (the dead leader's certifier log died with it: compare by seq)
    assert [seq for seq, _keys in promoted.certifier.export_log()] == seqs
    assert promoted.global_seq == leader.global_seq
    assert promoted.recovery_log.purged_seq == leader.recovery_log.purged_seq
    with pytest.raises(LogTruncatedError):
        promoted.recovery_log.entries_since(0)
    assert promoted.retention()["holder"] in (
        f"replica:{parked.name}", f"checkpoint:removed:{parked.name}")
    # the parked replica rejoins through the promoted leader by replay
    replayed, recloned = ClusterManager(promoted).backup.join(parked)
    assert (replayed, recloned) == (21, False)
    assert kv_values(promoted) == {0: 30, 1: 20, 2: 1, 3: 0, 4: 0}
    assert all_replicas_agree(promoted)
    # and the promoted leader keeps its own logs bounded
    session = pair.connect(database=DATABASE)
    for _ in range(10):
        session.execute("UPDATE kv SET v = v + 1 WHERE k = 3")
    session.close()
    assert len(promoted.recovery_log.entries) <= 8
    assert promoted.certifier.log_length() <= 8


def test_dropped_sequence_number_is_reusable():
    """A pending commit that reached no replica is dropped at promotion
    and its sequence number may be reused without ambiguity."""
    pair = HAPair(make_leader())
    install_crash(pair, "after_prepare")
    client = HAClient(pair, client_id="alice", database=DATABASE)
    client.run_transaction(["UPDATE kv SET v = v + 1 WHERE k = 0"])
    report = pair.promotions[-1]
    assert report.dropped_pending == 1
    # the replay's sequence is at most the dropped one — nothing skipped
    assert pair.active.certifier.current_seq <= report.watermark + 1
    client.close()


def test_cold_restart_rebuilds_from_replica_watermarks():
    middleware = make_leader()
    session = middleware.connect(database=DATABASE)
    session.execute("UPDATE kv SET v = v + 1 WHERE k = 1")
    session.close()
    seq_before = middleware.certifier.current_seq
    middleware.fail()
    report = cold_restart(middleware)
    assert report.replicas_queried == 3
    assert report.watermark == seq_before
    # conflict history is gone, but the sequence floor is preserved
    assert middleware.certifier.log_length() == 0
    assert middleware.certifier.current_seq >= seq_before
    assert not middleware.failed
    # the restarted instance serves again
    session = middleware.connect(database=DATABASE)
    session.execute("UPDATE kv SET v = v + 1 WHERE k = 1")
    session.close()
    assert kv_values(middleware)[1] == 2


def test_cold_restart_duration_grows_with_cluster_size():
    assert cold_restart_duration(0) == pytest.approx(0.5)
    assert cold_restart_duration(3) == pytest.approx(1.25)
    assert cold_restart_duration(6) > cold_restart_duration(3)


def test_standby_refuses_direct_connections():
    pair = HAPair(make_leader())
    with pytest.raises(MiddlewareDown):
        pair.standby.connect(database=DATABASE)
