"""Unit tests for the consistency protocol classes themselves."""

import pytest

from repro.core import Replica, protocol_by_name
from repro.core.consistency import ClusterView, PROTOCOLS, SessionView
from repro.sqlengine import Engine


def replica_at(seq: int, name: str = "r") -> Replica:
    replica = Replica(name, Engine(name))
    replica.applied_seq = seq
    return replica


def session_view(commit=0, seen=0) -> SessionView:
    view = SessionView()
    view.last_commit_seq = commit
    view.last_seen_seq = seen
    return view


def test_registry_has_all_paper_protocols():
    assert set(PROTOCOLS) == {
        "1sr", "strong-si", "gsi", "pcsi", "strong-session-si", "rsi-pc",
        "read-committed", "eventual",
    }


def test_unknown_protocol_rejected():
    with pytest.raises(ValueError):
        protocol_by_name("quantum-consistency")


def test_write_modes():
    assert protocol_by_name("1sr").write_mode == "broadcast"
    assert protocol_by_name("strong-si").write_mode == "certify"
    assert protocol_by_name("rsi-pc").write_mode == "master"
    assert protocol_by_name("eventual").write_mode == "async"


def test_first_committer_wins_flags():
    assert protocol_by_name("gsi").first_committer_wins
    assert not protocol_by_name("read-committed").first_committer_wins
    assert not protocol_by_name("eventual").first_committer_wins


def test_strong_si_requires_full_freshness():
    protocol = protocol_by_name("strong-si")
    cluster = ClusterView(global_seq=10)
    assert protocol.read_eligible(replica_at(10), session_view(), cluster)
    assert not protocol.read_eligible(replica_at(9), session_view(), cluster)
    assert protocol.min_read_seq(session_view(), cluster) == 10


def test_gsi_reads_any_prefix():
    protocol = protocol_by_name("gsi")
    cluster = ClusterView(global_seq=10)
    assert protocol.read_eligible(replica_at(0), session_view(), cluster)


def test_pcsi_requires_own_commits():
    protocol = protocol_by_name("pcsi")
    cluster = ClusterView(global_seq=10)
    session = session_view(commit=5)
    assert not protocol.read_eligible(replica_at(4), session, cluster)
    assert protocol.read_eligible(replica_at(5), session, cluster)
    # other sessions' commits are irrelevant
    assert protocol.read_eligible(replica_at(5), session_view(commit=0),
                                  cluster)


def test_session_si_monotonic_over_reads_too():
    protocol = protocol_by_name("strong-session-si")
    cluster = ClusterView(global_seq=10)
    session = session_view()
    protocol.note_read(session, replica_seq=7)
    assert session.last_seen_seq == 7
    assert not protocol.read_eligible(replica_at(6), session, cluster)
    assert protocol.read_eligible(replica_at(7), session, cluster)


def test_note_commit_advances_both_watermarks():
    protocol = protocol_by_name("gsi")
    session = session_view()
    protocol.note_commit(session, 9)
    assert session.last_commit_seq == 9
    assert session.last_seen_seq == 9
    protocol.note_commit(session, 4)   # never regress
    assert session.last_commit_seq == 9


def test_rsi_pc_session_monotonic_toggle():
    from repro.core.consistency.rsi_pc import (
        ReplicatedSnapshotIsolationPrimaryCopy,
    )
    cluster = ClusterView(global_seq=10, master_name="m")
    strict = ReplicatedSnapshotIsolationPrimaryCopy(session_monotonic=True)
    loose = ReplicatedSnapshotIsolationPrimaryCopy(session_monotonic=False)
    session = session_view(commit=5)
    assert not strict.read_eligible(replica_at(3), session, cluster)
    assert loose.read_eligible(replica_at(3), session, cluster)


def test_describe_strings():
    for name in PROTOCOLS:
        protocol = protocol_by_name(name)
        text = protocol.describe()
        assert protocol.name in text and protocol.write_mode in text


def test_harness_report_rendering():
    from repro.bench import Report
    report = Report("Title", ["a", "bb"])
    report.add_row(1, 2.5)
    report.add_row("long-value", 0.001)
    report.add_row(True, False)
    report.note("a note")
    text = report.render()
    assert "Title" in text
    assert "long-value" in text
    assert "yes" in text and "no" in text
    assert "0.00100" in text        # small floats keep precision
    assert "a note" in text


# -- the middleware's read choice under each protocol ------------------------

READ = "SELECT v FROM kv WHERE k = 1"


def _lagging_cluster(name):
    """Two replicas under protocol ``name`` — asynchronous writesets,
    except 1SR, whose eager broadcast is synchronous statements — and one
    committed UPDATE that is still queued at the replica it did not run
    on.  Returns ``(middleware, writer session, the reader's parsed
    read)``."""
    from repro.bench.harness import build_cluster
    from repro.core.analysis import analyze

    eager = PROTOCOLS[name].write_mode == "broadcast"
    mw = build_cluster(2, replication="statement" if eager else "writeset",
                       consistency=name,
                       propagation="sync" if eager else "async")
    writer = mw.connect(database="shop")
    writer.execute("CREATE TABLE kv (k INT PRIMARY KEY, v INT)")
    writer.execute("INSERT INTO kv (k, v) VALUES (1, 10)")
    mw.drain_all()
    writer.execute("UPDATE kv SET v = 11 WHERE k = 1")
    queued = sorted(len(r.apply_queue) for r in mw.replicas)
    assert queued == ([0, 0] if eager else [0, 1])
    info = analyze(mw.statements.parse(READ)[0])
    return mw, writer, info


def _check_choices(mw, session, info, reads=4):
    """Each of ``reads`` choices lands on a replica the protocol calls
    eligible — the balancer covering all of them — or, when none is,
    on the most caught-up online replica with ``min_read_seq`` to wait
    for.  Returns the eligible replicas' names."""
    protocol = mw.config.consistency
    cluster = mw.cluster_view()
    eligible = {r.name for r in mw.online_replicas()
                if protocol.read_eligible(r, session.view, cluster)}
    chosen = set()
    for _ in range(reads):
        replica, needed = mw.choose_read_replica(session, info)
        chosen.add(replica.name)
        if eligible:
            assert needed is None and replica.name in eligible
        else:
            assert needed == protocol.min_read_seq(session.view, cluster)
            assert replica.applied_seq == max(
                r.applied_seq for r in mw.online_replicas())
    assert chosen == (eligible or chosen)
    return eligible


@pytest.mark.parametrize("name", sorted(PROTOCOLS))
def test_each_protocols_read_choice_keeps_its_eligibility(name):
    mw, writer, info = _lagging_cluster(name)
    protocol = mw.config.consistency
    reader = mw.connect(database="shop")
    for session in (reader, writer):
        assert _check_choices(mw, session, info)    # the origin is fresh
        value = session.execute(READ).scalar()
        cluster = mw.cluster_view()
        if protocol.min_read_seq(session.view, cluster) \
                >= writer.view.last_commit_seq:
            assert value == 11
        else:
            assert value in (10, 11)
    # the fresh replica fails: whatever is eligible now is the stale one
    fresh = max(mw.replicas, key=lambda r: r.applied_seq)
    if fresh.applied_seq == min(r.applied_seq for r in mw.replicas):
        return      # 1SR: nothing was stale
    fresh.mark_failed()
    for session in (mw.connect(database="shop"), writer):
        # the first of these reads may drain the stale replica
        stale_seq = max(r.applied_seq for r in mw.online_replicas())
        eligible = _check_choices(mw, session, info)
        needed = protocol.min_read_seq(session.view, mw.cluster_view())
        assert bool(eligible) == (needed <= stale_seq)
        fresh_enough = max(needed, stale_seq) >= writer.view.last_commit_seq
        assert session.execute(READ).scalar() == (11 if fresh_enough
                                                  else 10)


@pytest.mark.parametrize("name", sorted(PROTOCOLS))
def test_a_traced_read_choice_keeps_its_span_tags(name):
    mw, writer, _info = _lagging_cluster(name)
    mw.tracer.enabled = True
    for session in (mw.connect(database="shop"), writer):
        session.execute(READ)
    choices = [span for span in mw.tracer.finished_spans()
               if span.name == "balancer.choose"]
    assert len(choices) == 2
    for span in choices:
        assert span.tags["why"] == "balanced"
        assert span.tags["policy"] == "round_robin"
        assert 1 <= span.tags["candidates"] <= 2
        assert span.tags["replica"] in {r.name for r in mw.replicas}
