"""Router x HA composition: the shard router in front of per-group
active/standby pairs (PR 10, docs/TOPOLOGY.md).

Covers the composed failure matrix's router-side cells: stale-session
re-resolution after a fenced promotion, the retry-after-failover tag on
mid-transaction deaths, presumed abort when a 2PC participant dies
before the decision, decision replay when it dies after, and the
Hypothesis property that overlapping resharding and promotions never
lose an acked autocommit write."""

import pytest
from hypothesis import given, settings, strategies as st

from repro.bench.harness import build_cluster, build_composed_cluster
from repro.core.errors import (
    RETRY_AFTER_FAILOVER, FencedOut, MiddlewareDown,
)
from repro.core.failover import FailoverManager
from repro.ha import HAPair
from repro.shard import (
    HashSharder, OnlineReshard, RangeSharder, ShardedCluster,
)


def make_composed_kv(shards=2, rows=0, replicas=2, sharder=None, **kwargs):
    """A composed ``kv`` cluster: every group behind an HA pair,
    optionally pre-seeded with ``rows`` rows (k, k * 10)."""
    cluster = build_composed_cluster(shards=shards, replicas=replicas,
                                     **kwargs)
    for group in cluster.groups:
        session = group.connect(database="shop")
        session.execute("CREATE TABLE kv (k INT PRIMARY KEY, v INT)")
        session.close()
    cluster.register_table("kv", "k", sharder or HashSharder(shards))
    if rows:
        session = cluster.connect(database="shop")
        for k in range(rows):
            session.execute(f"INSERT INTO kv (k, v) VALUES ({k}, {k * 10})")
        session.close()
    return cluster


def _value(cluster, key):
    session = cluster.connect(database="shop")
    try:
        return session.execute(
            f"SELECT v FROM kv WHERE k = {key}").rows[0][0]
    finally:
        session.close()


# ---------------------------------------------------------------------------
# re-resolution after promotion
# ---------------------------------------------------------------------------

def test_cached_session_rebinds_to_promoted_leader():
    """A fenced switchover repoints the router's group registry; a
    session holding a cached connection to the deposed leader must
    transparently rebind, not fail the next statement."""
    cluster = make_composed_kv(rows=4)
    session = cluster.connect(database="shop")
    assert session.execute("SELECT v FROM kv WHERE k = 0").rows[0][0] == 0
    old_leader = cluster.groups[0]
    cluster.pairs[0].promote()
    assert cluster.groups[0] is not old_leader
    assert cluster.stats["group_promotions"] == 1
    # same session, same statement — now answered by the new leader
    assert session.execute("SELECT v FROM kv WHERE k = 0").rows[0][0] == 0
    assert session.execute("UPDATE kv SET v = 5 WHERE k = 0").rowcount == 1
    assert _value(cluster, 0) == 5


def test_kill_then_promote_keeps_autocommit_traffic_flowing():
    cluster = make_composed_kv(rows=4)
    session = cluster.connect(database="shop")
    session.execute("UPDATE kv SET v = 1 WHERE k = 0")
    cluster.pairs[0].kill_active()
    cluster.pairs[0].promote()
    # the cached group session died with the leader; autocommit traffic
    # reconnects without surfacing the failover
    assert session.execute("SELECT v FROM kv WHERE k = 0").rows[0][0] == 1
    # scatter reads span the promoted group too
    total = session.execute("SELECT SUM(v) FROM kv").rows[0][0]
    assert total == 1 + 10 + 20 + 30
    assert cluster.check_convergence()


def test_unwatched_fencedout_is_tagged_retry_after_failover():
    """A bare (pair-less) registry entry whose leader got fenced by an
    external promotion: the router cannot reroute on its own, but the
    error it surfaces must carry the retry-after-failover contract, and
    ``attach_pair`` must restore service."""
    groups = [build_cluster(2, replication="writeset", consistency="gsi",
                            name=f"bare{i}") for i in range(2)]
    cluster = ShardedCluster(groups, name="bare")
    for group in cluster.groups:
        s = group.connect(database="shop")
        s.execute("CREATE TABLE kv (k INT PRIMARY KEY, v INT)")
        s.close()
    cluster.register_table("kv", "k", HashSharder(2))
    session = cluster.connect(database="shop")
    session.execute("INSERT INTO kv (k, v) VALUES (0, 0)")
    pair = HAPair(groups[0])        # built behind the router's back
    pair.promote()                   # fences the registered leader
    with pytest.raises(FencedOut) as info:
        session.execute("SELECT v FROM kv WHERE k = 0")
    assert info.value.retry == RETRY_AFTER_FAILOVER
    cluster.attach_pair(0, pair)     # operator hands the router the pair
    assert session.execute("SELECT v FROM kv WHERE k = 0").rows[0][0] == 0
    assert cluster.stats["group_promotions"] == 0  # promoted before watch


def test_midtxn_failover_raises_retryable_and_loses_nothing():
    cluster = make_composed_kv(rows=4)
    session = cluster.connect(database="shop")
    session.execute("BEGIN")
    session.execute("UPDATE kv SET v = 99 WHERE k = 0")
    cluster.pairs[0].kill_active()
    cluster.pairs[0].promote()
    with pytest.raises(MiddlewareDown) as info:
        session.execute("UPDATE kv SET v = 98 WHERE k = 0")
    assert info.value.retry == RETRY_AFTER_FAILOVER
    session.rollback()
    # the uncommitted write died with the leader's soft state
    assert _value(cluster, 0) == 0
    assert cluster.check_convergence()


# ---------------------------------------------------------------------------
# 2PC participant death: presumed abort before the decision...
# ---------------------------------------------------------------------------

def test_participant_death_before_decision_aborts_everywhere():
    cluster = make_composed_kv(rows=4)
    session = cluster.connect(database="shop")
    session.execute("BEGIN")
    session.execute("UPDATE kv SET v = 1 WHERE k = 0")   # group 0
    session.execute("UPDATE kv SET v = 1 WHERE k = 1")   # group 1
    cluster.pairs[1].kill_active()   # dies before COMMIT reaches it
    with pytest.raises(MiddlewareDown) as info:
        session.execute("COMMIT")
    assert info.value.retry == RETRY_AFTER_FAILOVER
    assert not session.in_transaction
    assert cluster.twopc.stats["aborts"] == 1
    cluster.pairs[1].promote()
    # presumed abort: NEITHER side kept the write — the survivor's
    # prepared entry was rescinded, the dead group's pending prepare
    # was dropped at promotion
    assert _value(cluster, 0) == 0
    assert _value(cluster, 1) == 10
    assert cluster.check_convergence()
    # the client replays the whole transaction and it commits once
    retry = cluster.connect(database="shop")
    retry.execute("BEGIN")
    retry.execute("UPDATE kv SET v = 1 WHERE k = 0")
    retry.execute("UPDATE kv SET v = 1 WHERE k = 1")
    retry.execute("COMMIT")
    assert _value(cluster, 0) == 1
    assert _value(cluster, 1) == 1
    assert cluster.check_convergence()


# ---------------------------------------------------------------------------
# ...and decision replay after it
# ---------------------------------------------------------------------------

def test_participant_death_after_decision_replays_commit():
    """The coordinator decided commit, group 0 committed, then group 1's
    middleware died before committing its prepared entry.  The durable
    decision record replays onto the promoted leader — both sides end
    committed exactly once, never one-sided."""
    cluster = make_composed_kv(rows=4)
    session = cluster.connect(database="shop")
    session.execute("BEGIN")
    session.execute("UPDATE kv SET v = 1 WHERE k = 0")   # group 0
    session.execute("UPDATE kv SET v = 1 WHERE k = 1")   # group 1

    group0 = cluster.groups[0]
    original = group0.group_commit.commit_prepared

    def commit_then_kill_other(request):
        result = original(request)
        cluster.pairs[1].kill_active()
        cluster.pairs[1].promote()
        return result

    group0.group_commit.commit_prepared = commit_then_kill_other
    try:
        session.execute("COMMIT")    # must succeed, not raise
    finally:
        group0.group_commit.commit_prepared = original

    assert cluster.twopc.stats["decision_replays"] == 1
    assert cluster.stats["twopc_commits"] == 1
    assert _value(cluster, 0) == 1
    assert _value(cluster, 1) == 1
    assert cluster.check_convergence()


# ---------------------------------------------------------------------------
# a reshard's installs reach the standby like any other sequenced unit
# ---------------------------------------------------------------------------

def assert_log_complete(leader):
    """The leader's recovery log is the whole sequenced history: gapless
    from 1 to its head, the head is what the replicas have applied, and
    the certifier never hands out a logged seq again."""
    seqs = [entry.seq for entry in leader.recovery_log.entries]
    head = leader.recovery_log.head_seq
    assert seqs == list(range(1, head + 1)), seqs
    assert head == max(r.applied_seq for r in leader.online_replicas())
    assert leader.certifier.current_seq >= head


def test_promotion_after_reshard_keeps_the_recovery_log_gapless():
    """The destination's leader dies after the copy.  The copied rows
    and the source-side deletes are sequenced units like any other, so
    they were shipped: the promoted leader's log has no hole, and a
    replica that was down during the copy fails back incrementally
    instead of being re-cloned by the full-resync safety net."""
    cluster = make_composed_kv(
        shards=2, rows=8, sharder=RangeSharder([999], [0, 1]))
    lagging = cluster.groups[1].replicas[1]
    lagging.engine.crash()
    lagging.mark_failed()
    OnlineReshard.split_range(cluster, "kv", 3, dst=1,
                              database="shop").run()
    for index, pair in enumerate(cluster.pairs):
        leader = cluster.groups[index]
        assert pair.shipper.state.seq == leader.global_seq
        assert [c.seq for c in pair.shipper.state.commits] \
            == [e.seq for e in leader.recovery_log.entries]
    cluster.pairs[1].kill_active()
    cluster.pairs[1].promote()
    promoted = cluster.groups[1]
    assert_log_complete(promoted)
    assert promoted.certifier.log_length() == promoted.recovery_log.head_seq
    replayed = FailoverManager(promoted).failback(lagging.name)
    assert replayed == 1                      # the copy it missed
    assert not promoted.monitor.events_of("failback_full_resync")
    assert cluster.check_convergence()
    assert _value(cluster, 3) == 30           # a moved row, new owner


# ---------------------------------------------------------------------------
# property: overlapping reshard + promotions never lose an acked commit
# ---------------------------------------------------------------------------

PROP_KEYS = 8


@settings(max_examples=20, deadline=None)
@given(st.data())
def test_overlap_of_reshard_and_promotion_never_loses_acked_writes(data):
    """Random interleavings of autocommit writes, per-group
    kill+promote cycles, and the online-reshard phase machine: every
    acknowledged write must appear in the final table exactly once,
    whatever overlapped with what."""
    cluster = make_composed_kv(
        shards=2, sharder=RangeSharder([999], [0, 1]))
    seed = cluster.connect(database="shop")
    for k in range(PROP_KEYS):
        seed.execute(f"INSERT INTO kv (k, v) VALUES ({k}, 0)")
    seed.close()
    session = cluster.connect(database="shop")

    move = None
    phase = "idle"

    def reshard_step():
        nonlocal move, phase
        if phase == "idle":
            move = OnlineReshard.split_range(
                cluster, "kv", PROP_KEYS // 2 - 1, dst=1, database="shop")
            move.start()
            phase = "copying"
        elif phase == "copying":
            move.copy_chunk(2)
            if move.state != "copying":
                phase = "copied"
        elif phase == "copied":
            if move.catch_up() == 0:
                move.enter_dual_write()
                phase = "dual"
        elif phase == "dual":
            move.flip()     # autocommit-only load: the epoch is drained
            phase = "done"

    events = data.draw(st.lists(
        st.sampled_from(["write", "promote0", "promote1", "reshard"]),
        min_size=5, max_size=40))
    acked = 0
    for event in events:
        if event == "write":
            key = data.draw(st.integers(0, PROP_KEYS - 1))
            session.execute(f"UPDATE kv SET v = v + 1 WHERE k = {key}")
            acked += 1
        elif event == "reshard":
            reshard_step()
        else:
            index = int(event[-1])
            pair = cluster.pairs[index]
            pair.kill_active()
            pair.promote()
            cluster.attach_pair(index, HAPair(cluster.groups[index]))
    while phase != "done":     # finish the move so ownership is settled
        reshard_step()

    total = session.execute("SELECT SUM(v) FROM kv").rows[0][0] or 0
    count = session.execute("SELECT COUNT(*) FROM kv").rows[0][0]
    assert count == PROP_KEYS
    assert total == acked, \
        f"acked {acked} writes but the table sums to {total}"
    assert cluster.map.version == 2
    assert cluster.check_convergence()
    for leader in cluster.groups:
        assert_log_complete(leader)
