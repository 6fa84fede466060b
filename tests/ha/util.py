"""Shared helpers for the HA test suite: cluster building and
deterministic crash injection into the commit path's danger windows."""

from repro.bench.harness import build_cluster
from repro.core.errors import MiddlewareDown
from repro.ha import HAPair

DATABASE = "shop"

#: the four danger windows of one commit, in commit-path order
PHASES = ("before_prepare", "after_prepare", "before_ack", "after_ack")


def make_leader(rows: int = 5, replicas: int = 3):
    """A writeset/sync cluster with a seeded kv table."""
    middleware = build_cluster(replicas, replication="writeset",
                               propagation="sync", consistency="gsi")
    session = middleware.connect(database=DATABASE)
    session.execute("CREATE TABLE kv (k INT PRIMARY KEY, v INT)")
    for key in range(rows):
        session.execute(f"INSERT INTO kv (k, v) VALUES ({key}, 0)")
    session.close()
    return middleware


def install_crash(pair: HAPair, phase: str) -> None:
    """Arm the active leader to die at ``phase`` of its next commit.

    The injected failure models the full detection-and-promotion cycle
    happening while the client reconnects: the leader is killed, the
    standby promoted, and ``MiddlewareDown`` raised into the commit
    path.  Phases map to the commit's danger windows:

    * ``before_prepare`` — nothing shipped, nothing applied;
    * ``after_prepare``  — shipped PENDING, no replica committed
      (promotion must *drop* it, replay applies fresh);
    * ``before_ack``     — replicas committed, ack never shipped
      (promotion must *resolve* the PENDING entry, replay dedups);
    * ``after_ack``      — shipped COMMITTED, client ack lost
      (replay dedups directly).
    """
    assert phase in PHASES, phase
    pipeline = pair.active.group_commit
    orig_prepare = pipeline.prepare
    orig_ack = pipeline._acknowledge

    def crash():
        pair.kill_active()
        pair.promote()
        raise MiddlewareDown(f"injected crash at {phase}")

    if phase == "before_prepare":
        def prep(request, seq):
            crash()
        pipeline.prepare = prep
    elif phase == "after_prepare":
        def prep(request, seq):
            orig_prepare(request, seq)
            crash()
        pipeline.prepare = prep
    elif phase == "before_ack":
        def ack(request):
            crash()
        pipeline._acknowledge = ack
    else:  # after_ack
        def ack(request):
            orig_ack(request)
            crash()
        pipeline._acknowledge = ack


def kv_values(middleware, database: str = DATABASE):
    """``{k: v}`` as replica 0 sees it."""
    connection = middleware.replicas[0].engine.connect(
        "admin", "", database=database)
    try:
        result = connection.execute("SELECT k, v FROM kv")
        return {row[0]: row[1] for row in result.rows}
    finally:
        connection.close()


def all_replicas_agree(middleware) -> bool:
    return len(set(middleware.content_signatures().values())) == 1
