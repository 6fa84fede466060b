"""Writeset-pipeline tests: group commit, batched certification,
dependency-parallel apply scheduling, and certifier-log auto-pruning.

The load-bearing property is *equivalence*: pushing N commit requests
through the certifier as one group-commit batch must yield exactly the
same ok/abort decisions and sequence numbers as certifying them one at
a time in the same order (hypothesis-checked below on random interleaved
footprints).  Everything else — frames, parallel apply groups, pruning —
is an optimization layered on top of that invariant.
"""

import ast
from pathlib import Path

import pytest
from hypothesis import given, settings, strategies as st

from repro.cache import ResultCacheConfig
from repro.core import (
    ClusterManager, MiddlewareConfig, ReplicationMiddleware,
    protocol_by_name,
)
from repro.core import groupcommit
from repro.core.applysched import ApplyUnit, conflict_groups, lane_makespan
from repro.core.certifier import Certifier
from repro.core.recoverylog import RecoveryLog
from repro.core.replica import ApplyItem, Replica
from repro.core.writesets import conflict_keys
from repro.ha import EpochFence, HALink, HAPair
from repro.sqlengine import SerializationError

from tests.conftest import KV_SCHEMA, make_replicas, seed_kv


def build(propagation="sync", consistency="gsi", n=3, **config_kwargs):
    replicas = make_replicas(n, schema=KV_SCHEMA)
    mw = ReplicationMiddleware(replicas, MiddlewareConfig(
        replication="writeset", propagation=propagation,
        consistency=protocol_by_name(consistency), **config_kwargs))
    mw.interleave_auto_increment()
    seed_kv(mw, rows=8)
    mw.pump()
    return mw


# ---------------------------------------------------------------------------
# batched certification == per-transaction certification
# ---------------------------------------------------------------------------

# A tiny key universe maximises collisions; pk=None exercises the
# table-level (conservative) footprint path.
_footprint = st.frozensets(
    st.tuples(st.just("shop"), st.sampled_from(["kv", "orders"]),
              st.sampled_from([None, 1, 2, 3])),
    min_size=0, max_size=3)

_request = st.tuples(st.integers(0, 5), _footprint)  # (snapshot age, keys)


@settings(max_examples=60, deadline=None)
@given(st.lists(_request, min_size=1, max_size=30),
       st.lists(st.integers(1, 6), min_size=1, max_size=30))
def test_batched_certification_equals_serial(requests, batch_sizes):
    """Same requests, same order: a batched certifier must produce
    positionally identical outcomes and an identical final log."""
    serial = Certifier()
    batched = Certifier()

    serial_outcomes = []
    for age, keys in requests:
        start_seq = max(0, serial.current_seq - age)
        serial_outcomes.append((serial.certify(start_seq, keys), keys))

    batched_outcomes = []
    cursor = 0
    size_index = 0
    while cursor < len(requests):
        size = batch_sizes[size_index % len(batch_sizes)]
        size_index += 1
        chunk = requests[cursor:cursor + size]
        cursor += size
        batched.begin_batch()
        for age, keys in chunk:
            start_seq = max(0, batched.current_seq - age)
            batched_outcomes.append((batched.certify(start_seq, keys), keys))
        batched.end_batch()

    assert len(serial_outcomes) == len(batched_outcomes)
    for (a, _), (b, _) in zip(serial_outcomes, batched_outcomes):
        assert a.ok == b.ok
        assert a.seq == b.seq
        assert a.conflict_seq == b.conflict_seq
    assert serial.export_log() == batched.export_log()
    assert serial.current_seq == batched.current_seq


def test_certify_batch_helper_matches_loop():
    requests = [(0, frozenset({("shop", "kv", 1)})),
                (0, frozenset({("shop", "kv", 1)})),  # conflicts with first
                (0, frozenset({("shop", "kv", 2)}))]
    loop = Certifier()
    expected = [loop.certify(s, k) for s, k in requests]
    helper = Certifier()
    outcomes = helper.certify_batch(requests)
    assert [(o.ok, o.seq) for o in outcomes] == \
        [(o.ok, o.seq) for o in expected]
    assert not helper.in_batch
    assert helper.max_batch == 2  # the conflicting request staged nothing


def test_intra_batch_conflict_aborts_against_staged_entry():
    """An entry accepted earlier in the SAME open batch is not in the log
    yet, but must conflict exactly as if it were."""
    certifier = Certifier()
    certifier.begin_batch()
    first = certifier.certify(0, frozenset({("shop", "kv", 7)}))
    second = certifier.certify(0, frozenset({("shop", "kv", 7)}))
    certifier.end_batch()
    assert first.ok
    assert not second.ok
    assert second.conflict_seq == first.seq


def test_nested_batch_is_rejected():
    certifier = Certifier()
    certifier.begin_batch()
    with pytest.raises(RuntimeError):
        certifier.begin_batch()
    certifier.end_batch()


def test_export_log_sees_open_batch():
    """State shipping during an open batch must include staged entries,
    or a promotion mid-batch could lose certified transactions."""
    certifier = Certifier()
    certifier.begin_batch()
    certifier.certify(0, frozenset({("shop", "kv", 1)}))
    assert len(certifier.export_log()) == 1
    certifier.end_batch()
    assert len(certifier.export_log()) == 1


# ---------------------------------------------------------------------------
# dependency-parallel apply scheduling
# ---------------------------------------------------------------------------

def _unit(seq, *keys):
    return ApplyUnit(seq, entries=[], keys=frozenset(keys))


class TestConflictGroups:
    def test_overlapping_point_keys_share_a_group(self):
        a = _unit(1, ("shop", "kv", 1))
        b = _unit(2, ("shop", "kv", 1), ("shop", "kv", 5))
        c = _unit(3, ("shop", "kv", 5))
        groups = conflict_groups([a, b, c])
        assert groups == [[a, b, c]]  # transitive: a~b on 1, b~c on 5

    def test_disjoint_keys_get_their_own_groups(self):
        a = _unit(1, ("shop", "kv", 1))
        b = _unit(2, ("shop", "kv", 2))
        c = _unit(3, ("shop", "orders", 1))
        assert conflict_groups([a, b, c]) == [[a], [b], [c]]

    def test_table_level_footprint_conflicts_with_every_key_of_table(self):
        a = _unit(1, ("shop", "kv", 1))
        locker = _unit(2, ("shop", "kv", None))   # table-granular
        b = _unit(3, ("shop", "kv", 9))           # later key, same table
        other = _unit(4, ("shop", "orders", 1))
        groups = conflict_groups([a, locker, b, other])
        assert groups == [[a, locker, b], [other]]

    def test_opaque_unit_collapses_the_whole_run(self):
        a = _unit(1, ("shop", "kv", 1))
        opaque = ApplyUnit(2, entries=[], keys=None)
        b = _unit(3, ("shop", "orders", 1))
        assert conflict_groups([a, opaque, b]) == [[a, opaque, b]]

    def test_groups_preserve_seq_order_within_and_across(self):
        units = [_unit(s, ("shop", "kv", s % 2)) for s in range(1, 7)]
        groups = conflict_groups(units)
        assert [[u.seq for u in g] for g in groups] == [[1, 3, 5], [2, 4, 6]]


def test_a_frame_of_one_and_a_frame_of_many_have_one_shape():
    """Every queued frame is an ``ApplyItem`` holding the ``ApplyUnit``s
    it carries, each keyed by its writeset's conflict footprint — the
    timed apply worker schedules them as they lie."""
    mw = build(propagation="async", n=5)
    session = mw.connect(database="shop")
    session.execute("UPDATE kv SET v = 1 WHERE k = 7")
    session.close()
    sessions = [_begin_update(mw, key, f"t-{key}") for key in range(3)]
    with mw.group_commit.batch():
        for session in sessions:
            session.commit()
    for session in sessions:
        session.close()
    frames = [item for replica in mw.replicas for item in replica.apply_queue]
    assert sorted({len(item.units) for item in frames}) == [1, 3]
    for item in frames:
        for unit in item.units:
            assert isinstance(unit, ApplyUnit)
            assert unit.keys == conflict_keys(unit.entries) != frozenset()
    mw.pump()
    assert mw.check_convergence()


class TestLaneMakespan:
    def test_single_lane_serializes_everything(self):
        assert lane_makespan([3.0, 1.0, 2.0], lanes=1) == [6.0]

    def test_work_is_conserved_and_lanes_bounded(self):
        costs = [5.0, 4.0, 3.0, 2.0, 1.0]
        loads = lane_makespan(costs, lanes=3)
        assert len(loads) == 3
        assert sum(loads) == pytest.approx(sum(costs))
        assert max(loads) < sum(costs)  # genuine overlap

    def test_more_lanes_than_groups(self):
        assert sorted(lane_makespan([1.0, 2.0], lanes=8)) == [1.0, 2.0]


# ---------------------------------------------------------------------------
# replica queue: deque + batch drain
# ---------------------------------------------------------------------------

def _items(seqs):
    return [ApplyItem([ApplyUnit(s, [])]) for s in seqs]


class TestReplicaDrain:
    def test_peek_batch_does_not_consume(self):
        (replica,) = make_replicas(1)
        for item in _items([1, 2, 3]):
            replica.enqueue(item)
        assert [i.seq for i in replica.peek_batch(2)] == [1, 2]
        assert len(replica.apply_queue) == 3

    def test_drain_n_pops_fifo_prefix(self):
        (replica,) = make_replicas(1)
        for item in _items([1, 2, 3]):
            replica.enqueue(item)
        assert [i.seq for i in replica.drain(2)] == [1, 2]
        assert [i.seq for i in replica.apply_queue] == [3]

    def test_drain_up_to_seq_stops_at_boundary(self):
        (replica,) = make_replicas(1)
        for item in _items([4, 5, 9]):
            replica.enqueue(item)
        assert [i.seq for i in replica.drain(up_to_seq=5)] == [4, 5]
        assert [i.seq for i in replica.drain()] == [9]
        assert not replica.apply_queue


# ---------------------------------------------------------------------------
# group commit end-to-end (untimed middleware)
# ---------------------------------------------------------------------------

class TestGroupCommit:
    def test_immediate_mode_is_a_batch_of_one(self):
        mw = build()
        session = mw.connect(database="shop")
        session.execute("UPDATE kv SET v = 1 WHERE k = 1")
        session.close()
        assert mw.group_commit.stats["max_batch"] == 1
        assert mw.certifier.max_batch == 1
        assert mw.check_convergence()

    def test_gathered_batch_ships_one_frame_per_replica(self):
        # 5 replicas / 3 committers: at least two replicas are pure
        # destinations and must receive ONE multi-writeset frame each,
        # not one queue entry per transaction.
        mw = build(propagation="async", n=5)
        sessions = [mw.connect(database="shop") for _ in range(3)]
        for index, session in enumerate(sessions):
            session.begin()
            session.execute(f"UPDATE kv SET v = 9 WHERE k = {index}")
        with mw.group_commit.batch():
            for session in sessions:
                session.commit()
        for session in sessions:
            session.close()
        assert mw.group_commit.stats["max_batch"] == 3
        assert mw.certifier.max_batch == 3
        origins = {r.name for r in mw.replicas if not r.apply_queue}
        destinations = [r for r in mw.replicas if r.apply_queue]
        assert len(destinations) >= 2
        for replica in destinations:
            (frame,) = replica.apply_queue  # one frame, not three items
            assert len(frame.units) == 3
        assert len(origins) + len(destinations) == 5
        mw.pump()
        assert mw.check_convergence()

    def test_origin_watermark_never_skips_cobatch_prefix(self):
        """A replica that committed mid-batch advertises its own seq; the
        flush must apply its co-batch predecessors synchronously so the
        watermark's max() semantics stay truthful (async propagation)."""
        mw = build(propagation="async")
        sessions = [mw.connect(database="shop") for _ in range(3)]
        for index, session in enumerate(sessions):
            session.begin()
            session.execute(f"UPDATE kv SET v = 7 WHERE k = {index}")
        with mw.group_commit.batch():
            for session in sessions:
                session.commit()
        for session in sessions:
            session.close()
        top = mw.certifier.current_seq
        origins = [r for r in mw.replicas if r.applied_seq == top]
        # every origin of a batch member saw the whole batch at flush
        assert origins
        for replica in origins:
            assert not replica.apply_queue
        mw.pump()
        assert mw.check_convergence()

    def test_intra_batch_conflict_aborts_second_committer(self):
        mw = build()
        a = mw.connect(database="shop")
        b = mw.connect(database="shop")
        a.begin()
        b.begin()
        a.execute("UPDATE kv SET v = 10 WHERE k = 5")
        b.execute("UPDATE kv SET v = 20 WHERE k = 5")
        with mw.group_commit.batch():
            a.commit()
            with pytest.raises(SerializationError):
                b.commit()
        a.close()
        b.close()
        assert mw.stats["certification_aborts"] == 1
        assert mw.check_convergence()
        check = mw.connect(database="shop")
        (row,) = check.execute("SELECT v FROM kv WHERE k = 5").rows
        check.close()
        assert row[0] == 10  # first committer won

    def test_batched_frame_applies_with_one_span(self):
        """Hot-path observability: one replica.apply_batch span per frame
        with a txn_applied event per contained commit — not a span per
        transaction — while per-commit propagation_lag survives."""
        mw = build(propagation="async")
        mw.tracer.enabled = True
        sessions = [mw.connect(database="shop") for _ in range(3)]
        for index, session in enumerate(sessions):
            session.begin()
            session.execute(f"UPDATE kv SET v = 3 WHERE k = {index}")
        with mw.group_commit.batch():
            for session in sessions:
                session.commit()
        for session in sessions:
            session.close()
        mw.pump()
        batch_spans = [span for trace in mw.tracer.traces()
                       for span in trace
                       if span.name == "replica.apply_batch"]
        assert batch_spans
        for span in batch_spans:
            events = [e for e in span.events if e[1] == "txn_applied"]
            assert len(events) == span.tags["units"] >= 2
            assert all("propagation_lag" in attrs
                       for _t, _n, attrs in events)
        assert mw.check_convergence()

    def test_equivalence_log_replays_identically(self):
        """Record every (start_seq, keys) decision during batched commits,
        then replay them per-transaction on a fresh certifier: decisions
        and seqs must match — the E27 zero-violations check."""
        mw = build()
        mw.group_commit.equivalence_log = []
        for round_index in range(4):
            sessions = [mw.connect(database="shop") for _ in range(3)]
            for index, session in enumerate(sessions):
                session.begin()
                session.execute(
                    f"UPDATE kv SET v = {round_index} WHERE k = {index % 2}")
            with mw.group_commit.batch():
                for session in sessions:
                    try:
                        session.commit()
                    except SerializationError:
                        pass
            for session in sessions:
                session.close()
        log = mw.group_commit.equivalence_log
        assert log, "no decisions recorded"
        replay = Certifier()
        replay._seq = min(d["start_seq"] for d in log)
        # seed the replay log with everything the session snapshots predate
        violations = 0
        for decision in log:
            outcome = replay.certify(decision["start_seq"], decision["keys"])
            if outcome.ok != decision["ok"]:
                violations += 1
            elif outcome.ok and outcome.seq != decision["seq"]:
                violations += 1
        assert violations == 0
        assert mw.check_convergence()


# ---------------------------------------------------------------------------
# log retention: one floor, one truncation site, four structures
# ---------------------------------------------------------------------------

def build_pair(**config_kwargs):
    """``build`` behind an HA pair, so the standby's mirror is one of
    the structures a cut must reach."""
    mw = build(**config_kwargs)
    return mw, HAPair(mw).state


def retained(mw, state):
    """Every per-commit structure, by name -> the seqs it holds."""
    return {
        "recovery_log": [e.seq for e in mw.recovery_log.entries],
        "certifier_log": [seq for seq, _keys in mw.certifier.export_log()],
        "standby_commits": [c.seq for c in state.commits],
        "standby_certifier_log": [seq for seq, _k in state.certifier_log],
    }


class TestAutoPrune:
    def test_log_stays_bounded_under_watermark(self):
        mw, state = build_pair(retention_watermark=10)
        session = mw.connect(database="shop")
        for index in range(60):
            session.execute(f"UPDATE kv SET v = {index} WHERE k = {index % 8}")
        session.close()
        assert mw.certifier.log_length() <= 10
        assert mw.certifier.pruned_total > 0
        assert mw.stats["certifier_pruned"] == mw.certifier.pruned_total
        assert mw.stats["log_truncated"] > 0
        for name, seqs in retained(mw, state).items():
            assert len(seqs) <= 10, name
            # the newest half-watermark always survives, gapless
            assert seqs[-5:] == list(range(mw.global_seq - 4,
                                           mw.global_seq + 1)), name
        assert mw.check_convergence()

    def test_inflight_snapshot_holds_the_floor(self):
        """A long-running transaction must keep the log entries it could
        conflict with: pruning never crosses its snapshot seq."""
        mw, state = build_pair(retention_watermark=10)
        reader = mw.connect(database="shop")
        reader.begin()
        reader.execute("SELECT v FROM kv WHERE k = 0")
        snapshot_seq = reader._txn_start_seq
        writer = mw.connect(database="shop")
        for index in range(40):
            writer.execute(f"UPDATE kv SET v = {index} WHERE k = 1")
        writer.close()
        # every entry above the snapshot is still present for conflict
        # checks (the reader may yet write): the prune floor never
        # crosses the in-flight snapshot seq
        assert mw.retention_floor() == snapshot_seq
        assert mw.retention()["holder"] == f"session:{reader.id}"
        for name, seqs in retained(mw, state).items():
            assert seqs[0] <= snapshot_seq + 1, name
            assert seqs[-40:] == list(range(snapshot_seq + 1,
                                            mw.global_seq + 1)), name
        reader.execute("UPDATE kv SET v = 99 WHERE k = 0")
        reader.commit()
        reader.close()
        assert mw.check_convergence()

    def test_disabled_watermark_never_prunes(self):
        mw, state = build_pair(retention_watermark=0)
        session = mw.connect(database="shop")
        for index in range(30):
            session.execute(f"UPDATE kv SET v = {index} WHERE k = 2")
        session.close()
        assert mw.certifier.pruned_total == 0
        assert mw.certifier.log_length() >= 30
        assert mw.stats["log_truncated"] == 0
        assert all(len(seqs) >= 30
                   for seqs in retained(mw, state).values())

    def test_parked_replica_holds_its_tail(self):
        """An OFFLINE replica rejoins by log replay: every structure
        keeps the entries above its ``applied_seq`` and (nearly) nothing
        else — and lets go of them once it is back."""
        mw, state = build_pair(retention_watermark=10)
        manager = ClusterManager(mw)
        manager.remove_replica("r2")
        parked_at = mw.replica_by_name("r2").applied_seq
        session = mw.connect(database="shop")
        for index in range(40):
            session.execute(f"UPDATE kv SET v = {index} WHERE k = 3")
        assert mw.retention()["holder"] in ("replica:r2",
                                            "checkpoint:removed:r2")
        tail = list(range(parked_at + 1, mw.global_seq + 1))
        for name, seqs in retained(mw, state).items():
            # its whole tail, and less than one more cut's worth (half a
            # watermark) of older entries besides
            assert seqs[-len(tail):] == tail, name
            assert len(seqs) - len(tail) < 5, name
        replayed, recloned = manager.backup.join(mw.replica_by_name("r2"))
        assert (replayed, recloned) == (40, False)
        for index in range(10):
            session.execute(f"UPDATE kv SET v = {index} WHERE k = 4")
        session.close()
        for name, seqs in retained(mw, state).items():
            assert len(seqs) <= 10, name
        assert mw.check_convergence()


# ---------------------------------------------------------------------------
# one commit sequence: every unit kind runs a subset of the same stage order
# ---------------------------------------------------------------------------

STAGES = ("prepare", "durable", "log", "propagate", "ack", "publish")

#: the stages each unit kind runs (docs/ARCHITECTURE.md has the same
#: table with the reasons).  "durable" is the path-specific first-half
#: step; an install and a no-op have none — nothing holds them until
#: the frames of the propagate stage land.
RUNS = {
    "ddl": ("prepare", "durable", "log", "ack", "publish"),
    "statements": ("prepare", "durable", "log", "ack", "publish"),
    "writeset": STAGES,
    "writeset_batch": STAGES,
    "2pc_commit": STAGES,
    "2pc_noop": ("prepare", "log", "propagate", "ack", "publish"),
    "install": ("prepare", "log", "propagate", "ack", "publish"),
}


class _Ledger:
    def __init__(self, events):
        self.events = events

    def prepare(self, txn_id, seq):
        self.events.append(("ledger.prepare", seq))

    def mark_committed(self, txn_id, seq=None):
        self.events.append(("ledger.commit", seq))


class _Shipper:
    def __init__(self, events):
        self.events = events

    def ship_prepare(self, request):
        self.events.append(("prepare", request.seq))

    def ship_ack(self, request):
        self.events.append(("ack", request.seq))

    def ship_resolve_noop(self, request):
        self.events.append(("ack", request.seq))
        self.events.append(("resolve_noop", request.seq))


class _Log(RecoveryLog):
    def __init__(self, events):
        super().__init__()
        self.events = events

    def append(self, seq, *args, **kwargs):
        self.events.append(("log", seq))
        return super().append(seq, *args, **kwargs)


def record_stages(mw):
    """Swap in recording doubles for every subscriber of the commit
    sequence; returns the shared ``[(stage, seq)]`` list.  "durable" is
    a replica's watermark reaching the seq outside a propagation frame,
    "propagate" one entry per unit handed to the frame builder."""
    events = []
    mw.ha = HALink(EpochFence(), "active", _Ledger(events),
                   _Shipper(events), "standby")
    mw.recovery_log = _Log(events)
    mw.on_certified(lambda event: events.append(("publish", event.seq)))
    propagating = []
    propagate = mw.group_commit._propagate

    def recording_propagate(staged, sync):
        events.extend(("propagate", unit.seq) for unit in staged)
        propagating.append(True)
        try:
            propagate(staged, sync)
        finally:
            propagating.pop()
    mw.group_commit._propagate = recording_propagate

    class Watched(Replica):
        @property
        def applied_seq(self):
            return self.__dict__["applied_seq"]

        @applied_seq.setter
        def applied_seq(self, value):
            if value > self.__dict__["applied_seq"] and not propagating:
                events.append(("durable", value))
            self.__dict__["applied_seq"] = value

    for replica in mw.replicas:
        replica.__class__ = Watched
    return events


#: a one-row writeset, as a reshard copy chunk would carry it
NEW_ROW = [{"database": "shop", "table": "kv", "op": "INSERT",
            "primary_key": (100,), "old_values": None,
            "new_values": {"k": 100, "v": 1}}]


def _begin_update(mw, key, txn):
    session = mw.connect(database="shop")
    session.client_txn_id = txn
    session.begin()
    session.execute(f"UPDATE kv SET v = v + 1 WHERE k = {key}")
    return session


def _prepare_2pc(mw):
    session = _begin_update(mw, 2, "t-2pc")
    request = session.stage_commit_request()
    outcome = mw.certifier.certify(request.start_seq, request.keys)
    assert outcome.ok
    mw.group_commit.prepare(request, outcome.seq)
    return session, request


def drive(kind):
    """Run one unit of ``kind``; returns (events, its seqs)."""
    if kind == "statements":
        mw = ReplicationMiddleware(
            make_replicas(3, schema=KV_SCHEMA),
            MiddlewareConfig(replication="statement"))
        seed_kv(mw, rows=4)
    else:
        mw = build()
    events = record_stages(mw)
    before = mw.global_seq
    if kind == "ddl":
        session = mw.connect(database="shop")
        session.client_txn_id = "t-ddl"
        session.execute("CREATE TABLE extra (a INT PRIMARY KEY)")
    elif kind in ("statements", "writeset"):
        session = mw.connect(database="shop")
        session.client_txn_id = "t-one"
        session.execute("UPDATE kv SET v = 5 WHERE k = 1")
    elif kind == "writeset_batch":
        sessions = [_begin_update(mw, key, f"t-{key}") for key in range(3)]
        with mw.group_commit.batch():
            for session in sessions:
                session.commit()
    elif kind == "2pc_commit":
        session, request = _prepare_2pc(mw)
        mw.group_commit.commit_prepared(request)
        session._end_transaction()
    elif kind == "2pc_noop":
        session, request = _prepare_2pc(mw)
        mw.group_commit.abort_prepared(request)
        session._rollback_transaction()
    else:
        assert kind == "install"
        mw.group_commit.install(
            NEW_ROW, ["kv"], database="shop", txn_id="t-install")
    assert mw.check_convergence()
    return mw, events, list(range(before + 1, mw.global_seq + 1))


@pytest.mark.parametrize("kind", sorted(RUNS))
def test_every_unit_kind_runs_the_one_stage_order(kind):
    expected = RUNS[kind]
    # "the same relative order": what a kind runs is a subsequence of
    # the one canonical order, never a permutation of it
    assert [stage for stage in STAGES if stage in expected] \
        == list(expected)
    mw, events, seqs = drive(kind)
    assert len(seqs) == (3 if kind == "writeset_batch" else 1)
    for seq in seqs:
        mine = [stage for stage, s in events if s == seq]
        order = [stage for stage in dict.fromkeys(mine) if stage in STAGES]
        assert order == list(expected), (kind, seq, events)
        assert mine.count("log") == 1        # one recovery-log entry
        assert mine.count("publish") == 1    # one CertifiedWrite
        assert mine.count("prepare") == 1 and mine.count("ack") == 1
        # the ledger flips right beside the shipment it describes
        assert mine[mine.index("prepare") - 1] == "ledger.prepare"
        if kind == "2pc_noop":
            # ship_resolve_noop instead of ship_ack; the aborted client
            # txn is never marked COMMITTED
            assert "resolve_noop" in mine and "ledger.commit" not in mine
        else:
            assert mine[mine.index("ack") - 1] == "ledger.commit"
    assert [e.seq for e in mw.recovery_log.entries][-len(seqs):] == seqs
    assert all(r.applied_seq == seqs[-1] for r in mw.replicas)
    if kind == "writeset_batch":
        # the gather defers the second half: three first halves, then
        # one propagation for all of them, then acks in seq order
        stages = [stage for stage, s in events
                  if s in seqs and stage in STAGES]
        first_propagate = stages.index("propagate")
        assert stages[:first_propagate].count("log") == 3
        assert "ack" not in stages[:first_propagate]
        assert [s for stage, s in events if stage == "ack"] == seqs


# -- the drifts between the old hand-written copies, each settled ----------

def test_ddl_notes_the_commit_and_prunes_like_any_other_unit():
    """The DDL copy used to skip ``note_commit`` and the certifier
    prune: the session that created a table now carries a token at the
    DDL's seq, and a DDL-only stream keeps the certifier log bounded."""
    mw = build(retention_watermark=4)
    session = mw.connect(database="shop")
    for index in range(12):
        session.execute(f"CREATE TABLE t{index} (a INT PRIMARY KEY)")
    assert session.view.last_commit_seq == mw.global_seq
    assert mw.certifier.log_length() <= 4
    assert mw.stats["certifier_pruned"] > 0


def test_a_2pc_commit_opens_the_propagate_span():
    """``commit_prepared`` used to skip the ``propagate`` span, so a
    2PC commit's ``replica.apply`` spans could not be linked and had no
    ``propagation_lag``."""
    mw = build()
    session, request = _prepare_2pc(mw)
    root = mw.tracer.start_span("mw.statement")
    session.active_span = root
    mw.group_commit.commit_prepared(request)
    session.active_span = None
    root.end()
    session._end_transaction()
    spans = mw.tracer.trace(root.trace_id)
    propagate = next(s for s in spans if s.name == "propagate")
    applies = [s for s in spans if s.name == "replica.apply"]
    assert len(applies) == len(mw.replicas) - 1
    for span in applies:
        assert span.parent_id == propagate.span_id
        assert "propagation_lag" in span.tags


def test_install_applies_synchronously_under_async_propagation():
    """Kept on purpose (``CommitRequest.sync_apply``): an install has no
    origin replica and no client session whose token would make a later
    read wait, so it is on every replica when it returns; the no-op
    that fills an aborted 2PC seq follows the propagation mode."""
    mw = build(propagation="async")
    mw.group_commit.install(NEW_ROW, ["kv"], database="shop")
    assert all(not r.apply_queue for r in mw.replicas)
    assert all(r.applied_seq == mw.global_seq for r in mw.replicas)
    session, request = _prepare_2pc(mw)
    mw.group_commit.abort_prepared(request)
    session._rollback_transaction()
    assert [len(r.apply_queue) for r in mw.replicas] == [1, 1, 1]
    mw.pump()
    assert all(r.applied_seq == mw.global_seq for r in mw.replicas)
    assert mw.check_convergence()


# -- stage 8: the publish footprint is built for a listener, or not at all


def test_no_listener_no_publish_footprint(monkeypatch):
    """With nobody subscribed to the certified stream, a commit builds
    no invalidation footprint (it used to build one per commit and
    throw it away on publish)."""
    calls = []
    real = groupcommit.invalidation_keys
    monkeypatch.setattr(groupcommit, "invalidation_keys",
                        lambda *args: calls.append(1) or real(*args))
    mw = build()
    assert not mw._certified_listeners
    session = mw.connect(database="shop")
    for index in range(200):
        session.execute(f"UPDATE kv SET v = {index} WHERE k = {index % 8}")
    session.close()
    assert calls == []
    assert mw.check_convergence()


#: what the cache invalidator sees for :func:`_publish_workload`:
#: ``(seq, keys, tables, kind)`` per commit — a pk-moving UPDATE
#: publishes both keys, a zero-row UPDATE nothing under writeset
#: replication and its statement's key under statement replication,
#: DDL an empty-key ``ddl`` event.
PUBLISHED = {
    "writeset": [
        (5, [("shop", "kv", (1,))], [("shop", "kv")], "writeset"),
        (6, [("shop", "kv", (102,)), ("shop", "kv", (2,))],
         [("shop", "kv")], "writeset"),
        (7, [("shop", "kv", (0,)), ("shop", "kv", (1,)),
             ("shop", "kv", (102,)), ("shop", "kv", (3,))],
         [("shop", "kv")], "writeset"),
        (8, [("shop", "kv", (50,))], [("shop", "kv")], "writeset"),
        (9, [("shop", "kv", (50,))], [("shop", "kv")], "writeset"),
        (10, [], [("shop", "extra")], "ddl"),
        (11, [("shop", "extra", (1,)), ("shop", "kv", (0,))],
         [("shop", "extra"), ("shop", "kv")], "writeset"),
        (12, [("shop", "kv", (100,))], [("shop", "kv")], "writeset"),
    ],
    "statement": [
        (5, [("shop", "kv", (1,))], [("shop", "kv")], "statements"),
        (6, [("shop", "kv", (102,)), ("shop", "kv", (2,))],
         [("shop", "kv")], "statements"),
        (7, [("shop", "kv", None)], [("shop", "kv")], "statements"),
        (8, [("shop", "kv", (50,))], [("shop", "kv")], "statements"),
        (9, [("shop", "kv", (50,))], [("shop", "kv")], "statements"),
        (10, [("shop", "kv", (999,))], [("shop", "kv")], "statements"),
        (11, [], [("shop", "extra")], "ddl"),
        (12, [("shop", "extra", (1,)), ("shop", "kv", (0,))],
         [("shop", "extra"), ("shop", "kv")], "statements"),
    ],
}


def _publish_workload(replication):
    mw = ReplicationMiddleware(
        make_replicas(3, schema=KV_SCHEMA),
        MiddlewareConfig(replication=replication,
                         result_cache=ResultCacheConfig(),
                         consistency=protocol_by_name(
                             "gsi" if replication == "writeset" else "1sr")))
    seed_kv(mw, rows=4)
    events = []
    mw.on_certified(lambda e: events.append(
        (e.seq, sorted(e.keys, key=repr), sorted(e.tables), e.kind)))
    session = mw.connect(database="shop")
    for sql in ("SELECT v FROM kv WHERE k = 1",
                "UPDATE kv SET v = 5 WHERE k = 1",
                "UPDATE kv SET k = 102 WHERE k = 2",
                "UPDATE kv SET v = v + 1 WHERE v >= 0",
                "INSERT INTO kv (k, v) VALUES (50, 1)",
                "DELETE FROM kv WHERE k = 50",
                "UPDATE kv SET v = 1 WHERE k = 999",
                "CREATE TABLE extra (a INT PRIMARY KEY)"):
        session.execute(sql)
    session.begin()
    session.execute("UPDATE kv SET v = 7 WHERE k = 0")
    session.execute("INSERT INTO extra (a) VALUES (1)")
    session.commit()
    if replication == "writeset":
        mw.group_commit.install(NEW_ROW, ["kv"], database="shop")
    assert mw.check_convergence()
    return events


@pytest.mark.parametrize("replication", sorted(PUBLISHED))
def test_a_listener_sees_every_commits_footprint(replication):
    assert _publish_workload(replication) == PUBLISHED[replication]


# -- structure: each sequenced-unit primitive has exactly one calling module

SRC = Path(__file__).resolve().parents[2] / "src" / "repro"

#: primitive -> the one module that may call it.  The sequencing
#: primitives belong to the commit pipeline; the data-movement ones
#: (dump, restore, replay one log entry) to the replica join.
ONE_CALLER = {
    "recovery_log.append": "core/groupcommit.py",
    "publish_certified": "core/groupcommit.py",
    "ha.prepare": "core/groupcommit.py",
    "ha.acknowledge": "core/groupcommit.py",
    "ship_prepare": "ha/link.py",
    "ship_ack": "ha/link.py",
    "ship_resolve_noop": "ha/link.py",
    "assign_seq": "core/groupcommit.py",
    "rescind": "core/groupcommit.py",
    "replay_entry": "core/backup.py",
    "dump_engine": "core/backup.py",
    "restore_engine": "core/backup.py",
}
#: listed exceptions: promotion hydrates the standby's *own* log from the
#: shipped mirror, which is not a new unit; cross-site shipping replays
#: one site's entries into another site's replicas behind a
#: per-destination cursor, with no cut-over — a different protocol.
EXCEPTIONS = {("recovery_log.append", "ha/promotion.py"),
              ("replay_entry", "core/wan.py")}


def _called_names(tree):
    """Every call target: ``f()`` yields ``f``; ``a.b.c()`` yields the
    dotted tails ``c`` and ``b.c``, ``b.c()`` on a local ``b`` too."""
    for node in ast.walk(tree):
        if not isinstance(node, ast.Call):
            continue
        if isinstance(node.func, ast.Name):
            yield node.func.id
        elif isinstance(node.func, ast.Attribute):
            yield node.func.attr
            owner = node.func.value
            if isinstance(owner, (ast.Attribute, ast.Name)):
                name = owner.attr if isinstance(owner, ast.Attribute) \
                    else owner.id
                yield f"{name}.{node.func.attr}"


def test_sequencing_primitives_are_called_from_one_module():
    callers = {name: set() for name in ONE_CALLER}
    for path in sorted(SRC.rglob("*.py")):
        module = path.relative_to(SRC).as_posix()
        for name in _called_names(ast.parse(path.read_text())):
            if name in callers and (name, module) not in EXCEPTIONS:
                callers[name].add(module)
    assert callers == {name: {module}
                       for name, module in ONE_CALLER.items()}


def test_one_floor_and_one_truncation_site():
    """Whatever cuts a per-commit structure is called from stage 9 of
    the commit pipeline and nowhere else, and the floor it cuts at is
    computed in one place."""
    cutters = {"purge_before", "prune", "ha.truncate", "retention_floor"}
    # the standby's mirror is cut by the link's half of that stage
    expected = {name: [("core/groupcommit.py", "_truncate")]
                for name in cutters}
    expected["ship_truncate"] = [("ha/link.py", "truncate")]
    sites = {name: [] for name in expected}
    floors = 0
    for path in sorted(SRC.rglob("*.py")):
        text = path.read_text()
        floors += text.count("min(floor")
        for function in ast.walk(ast.parse(text)):
            if not isinstance(function, ast.FunctionDef):
                continue
            for name in _called_names(function):
                if name in sites:
                    sites[name].append(
                        (path.relative_to(SRC).as_posix(), function.name))
    assert sites == expected
    assert floors == 1
    # and stage 9 cuts its three structures at one and the same seq
    (truncate,) = [node for node in ast.walk(ast.parse(
        (SRC / "core/groupcommit.py").read_text()))
        if isinstance(node, ast.FunctionDef) and node.name == "_truncate"]
    cuts = [(node.func.attr, [ast.unparse(arg) for arg in node.args])
            for node in ast.walk(truncate) if isinstance(node, ast.Call)
            and isinstance(node.func, ast.Attribute)
            and node.func.attr in ("purge_before", "prune", "truncate")]
    assert sorted(cuts) == [("prune", ["cut"]), ("purge_before", ["cut"]),
                            ("truncate", ["cut"])]


def test_shard_tier_stays_off_a_groups_private_members():
    """``shard/`` decides and routes; whatever touches a group's logs,
    replicas or standby is the group's own commit sequence."""
    forbidden = {"recovery_log", "assign_seq", "rescind", "_apply_item",
                 "on_apply_enqueued", "ha", "commit_ledger"}
    for module in ("shard/twopc.py", "shard/reshard.py"):
        tree = ast.parse((SRC / module).read_text())
        used = {node.attr for node in ast.walk(tree)
                if isinstance(node, ast.Attribute)}
        assert not used & forbidden, (module, used & forbidden)


def test_text_is_parsed_behind_the_statement_cache_only():
    """No front door parses for itself: ``parse_script`` is called by the
    statement cache (and by ``parse`` beside it in the parser)."""
    callers = {path.relative_to(SRC).as_posix()
               for path in sorted(SRC.rglob("*.py"))
               if "parse_script" in _called_names(ast.parse(path.read_text()))}
    assert callers == {"sqlengine/parser.py", "sqlengine/stmtcache.py"}


def test_nothing_pokes_ha_state_onto_a_middleware():
    """What a middleware knows about its pair is one field, ``ha``; the
    six attributes it replaced are set on nothing but ``self``."""
    six = {"state_shipper", "commit_ledger", "fence", "epoch",
           "standby_mode", "failover_target"}
    poked = []
    for path in sorted(SRC.rglob("*.py")):
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, ast.Assign):
                targets = node.targets
            elif isinstance(node, (ast.AugAssign, ast.AnnAssign)):
                targets = [node.target]
            else:
                continue
            poked += [(path.relative_to(SRC).as_posix(), target.attr)
                      for target in targets
                      if isinstance(target, ast.Attribute)
                      and target.attr in six
                      and not (isinstance(target.value, ast.Name)
                               and target.value.id == "self")]
    assert poked == []
