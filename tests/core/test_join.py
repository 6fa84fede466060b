"""The replica join (``core/backup.py``): snapshot at S, the recovery-log
tail after S, verify, cut over — one property over every caller instead
of a catch-up test per caller, plus the add-under-async regression."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.bench import build_cluster
from repro.core import (
    ClusterManager, FailoverManager, MiddlewareConfig, Replica,
    ReplicationMiddleware,
)
from repro.sqlengine import Engine, SerializationError, postgresql

from tests.conftest import KV_SCHEMA, make_replicas, seed_kv

ROWS = 4
ADD_STRATEGIES = ("full_stop", "donor", "recovery_log")


def fresh_replica(name="new"):
    return Replica(name, Engine(name, dialect=postgresql(), seed=77))


def assert_joined(mw, replica):
    assert replica.is_online
    assert mw.replicas.count(replica) == 1
    assert replica.applied_seq == mw.recovery_log.head_seq
    assert not replica.apply_queue
    mw.drain_all()
    assert mw.check_convergence(), mw.content_signatures()


@pytest.mark.parametrize("strategy", ADD_STRATEGIES)
def test_add_under_async_propagation_leaves_no_hole(strategy):
    """Three origins, asynchronous propagation: every replica misses a
    different suffix of the log.  A dump of one of them is the state at
    *its* watermark S, not at the log head: the newcomer only has
    everything if the tail after S is replayed — whatever the strategy."""
    mw = build_cluster(3, replication="writeset", propagation="async",
                       consistency="gsi")
    session = mw.connect(database="shop")
    session.execute("CREATE TABLE kv (k INT PRIMARY KEY, v INT)")
    for key in range(5):
        session.execute(f"INSERT INTO kv (k, v) VALUES ({key}, 0)")
    session.close()
    mw.drain_all()
    for index in range(3):
        mw.connect(database="shop").execute(
            f"UPDATE kv SET v = {index + 1} WHERE k = {index}")
    head = mw.recovery_log.head_seq
    assert sorted(r.applied_seq for r in mw.replicas) == [head - 2, head - 1,
                                                          head]
    newcomer = fresh_replica()
    ClusterManager(mw).add_replica(newcomer, strategy=strategy)
    assert_joined(mw, newcomer)


class Cluster:
    """One drawn cluster and the bookkeeping a schedule needs."""

    def __init__(self, replication, propagation, n, watermark):
        self.mw = ReplicationMiddleware(
            make_replicas(n, schema=KV_SCHEMA),
            MiddlewareConfig(replication=replication,
                             propagation=propagation,
                             retention_watermark=watermark))
        seed_kv(self.mw, rows=ROWS)
        self.manager = ClusterManager(self.mw)
        self.failover = FailoverManager(self.mw)
        self.sessions = [None, None, None]
        self.snapshot = None        # taken earlier, joined from later
        self.lossy = False          # a 1-safe master loss happened
        self.overtaken = False      # a join found its S already purged
        self.added = 0
        self.writes = 0
        self.sequenced = []         # every seq the cluster still owns
        self.mw.on_certified(lambda event: self.sequenced.append(event.seq))

    def commit(self, who, key):
        session = self.sessions[who]
        if session is None or session.closed:   # full_stop kicks everyone
            session = self.sessions[who] = self.mw.connect(database="shop")
        self.writes += 1
        try:
            session.execute(
                f"UPDATE kv SET v = {self.writes} WHERE k = {key}")
        except SerializationError:
            return  # a lagging origin lost first-committer-wins: no seq used
        self.assert_retained(just_committed=True)

    def assert_retained(self, just_committed=False):
        """Log maintenance judged by the floor: no unit above it is ever
        missing, and right after a commit (the only moment anything is
        cut) a floor near the head means logs within the watermark."""
        mw, log = self.mw, self.mw.recovery_log
        floor = mw.retention_floor()
        assert log.purged_seq <= floor
        needed = {seq for seq in self.sequenced if seq > floor}
        assert needed <= {entry.seq for entry in log.entries}
        assert needed <= {seq for seq, _keys in mw.certifier.export_log()}
        watermark = mw.config.retention_watermark
        if just_committed and log.head_seq - floor <= watermark // 2:
            assert len(log.entries) <= watermark
            assert mw.certifier.log_length() <= watermark

    def fresh(self):
        self.added += 1
        return fresh_replica(f"n{self.added}")

    def fail(self, replica, discard_pending):
        """Kill ``replica`` unless it is the last one serving.  A dying
        master may take its unshipped tail with it (1-safe)."""
        mw = self.mw
        if not replica.is_online or len(mw.online_replicas()) < 2:
            return
        replica.engine.crash()
        report = self.failover.handle_replica_failure(
            replica.name, discard_pending=discard_pending)
        self.lossy = self.lossy or report.lost_transactions > 0
        # a 1-safe loss un-sequences the dead master's unshipped tail
        self.sequenced = [seq for seq in self.sequenced
                          if seq <= mw.recovery_log.head_seq]

    def recloned(self):
        events = self.mw.monitor.events
        return any(e.kind == "failback_full_resync"
                   or e.detail.get("recloned") for e in events)


@settings(max_examples=30, deadline=None)
@given(data=st.data())
def test_every_join_lands_on_the_log_head_and_converges(data):
    """Whatever the replication mode, the propagation mode and the
    schedule around it, every caller of the join leaves the joiner
    ONLINE, registered once, at the log head with an empty queue, and
    the cluster converged — and re-clones only after a 1-safe loss or
    from a snapshot the log no longer reaches back to.  The retention
    watermark is small enough that logs are cut between the steps."""
    cluster = Cluster(
        data.draw(st.sampled_from(["writeset", "statement"]), label="repl"),
        data.draw(st.sampled_from(["sync", "async"]), label="prop"),
        data.draw(st.integers(2, 4), label="replicas"),
        data.draw(st.sampled_from([4, 16, 1024]), label="watermark"))
    mw, manager = cluster.mw, cluster.manager

    def earlier_snapshot():
        """The snapshot taken earlier in the schedule; a join from it
        releases its checkpoint, so a second one may find S purged."""
        snapshot = cluster.snapshot
        if snapshot.global_seq < mw.recovery_log.purged_seq:
            cluster.overtaken = True
        return snapshot

    def pick(items, label):
        return data.draw(st.sampled_from(items), label=label)

    steps = data.draw(st.lists(st.sampled_from([
        "fail", "snapshot", "kill_source", "add", "restore", "failback",
        "cold_cycle", "readd"]), min_size=2, max_size=6), label="steps")
    for kind in steps:
        # write load between any two steps: a log tail, and lag under
        # asynchronous propagation
        for _ in range(data.draw(st.integers(0, 2), label="commits")):
            cluster.commit(data.draw(st.integers(0, 2), label="session"),
                           data.draw(st.integers(0, ROWS - 1), label="key"))
        joined = None
        if kind == "fail":
            one_safe = data.draw(st.booleans(), label="discard_pending")
            cluster.fail(mw.master if one_safe
                         else pick(mw.replicas, "victim"), one_safe)
        elif kind == "snapshot":
            cluster.snapshot = manager.backup.take_snapshot(
                pick(mw.online_replicas(), "source"))
        elif kind == "kill_source" and cluster.snapshot is not None:
            cluster.fail(
                mw.replica_by_name(cluster.snapshot.source_replica), False)
        elif kind == "add":
            joined = cluster.fresh()
            strategy = data.draw(st.sampled_from(ADD_STRATEGIES),
                                 label="strategy")
            earlier = strategy == "recovery_log" \
                and cluster.snapshot is not None \
                and data.draw(st.booleans(), label="earlier_snapshot")
            manager.add_replica(
                joined, strategy=strategy,
                backup=earlier_snapshot() if earlier else None)
        elif kind == "restore" and cluster.snapshot is not None:
            joined = cluster.fresh()
            manager.backup.restore_to_replica(earlier_snapshot(), joined)
        elif kind == "failback":
            down = [r for r in mw.replicas
                    if not r.is_online and r.engine.crashed]
            if down:
                joined = pick(down, "returning")
                cluster.failover.failback(joined.name)
        elif kind in ("cold_cycle", "readd") \
                and len(mw.online_replicas()) > 1:
            joined = pick(mw.online_replicas(), "leaver")
            if kind == "cold_cycle":
                backup = manager.backup.cold_backup(joined.name)
            else:
                manager.remove_replica(joined.name)
            cluster.commit(0, data.draw(st.integers(0, ROWS - 1),
                                        label="key_while_away"))
            if kind == "cold_cycle":
                manager.backup.resume_offline_donor(backup)
                manager.backup.release(backup)  # not kept for a restore
            else:
                manager.backup.join(joined)
        if joined is not None:
            assert_joined(mw, joined)
            # the re-clone is a safety net for state the cluster lost;
            # anywhere else it would be hiding a gapped or untruthful log
            assert cluster.lossy or cluster.overtaken \
                or not cluster.recloned()
        cluster.assert_retained()
