"""Nothing grows per commit: the soak.

Autocommit updates through the composed tier (two shard groups, each
behind an HA pair, two replicas each) at the default retention
watermark, with a replica add, an HA promotion and an online key move
inside the run.  After warm-up every per-commit structure — recovery
log, certifier log, the standby's mirror, named checkpoints — and
every bounded cache (tracer retention, every ``Memo``) must sit at or
under its bound at every sample.

Short in tier-1; the same body at 300 000 commits is the ``soak`` CI
job, which also wants the process's peak RSS flat after warm-up.
"""

import resource

import pytest

from repro.bench.harness import build_composed_cluster
from repro.cache.resultcache import normalized_texts
from repro.core import ClusterManager, Replica
from repro.core.analysis import analyses
from repro.shard import HashSharder, OnlineReshard
from repro.sqlengine import Engine, postgresql

ROWS = 200


def build():
    cluster = build_composed_cluster(shards=2, replicas=2)
    for group in cluster.groups:
        session = group.connect(database="shop")
        session.execute("CREATE TABLE kv (k INT PRIMARY KEY, v INT)")
        session.close()
    cluster.register_table("kv", "k", HashSharder(2))
    session = cluster.connect(database="shop")
    for key in range(ROWS):
        session.execute("INSERT INTO kv (k, v) VALUES (?, 0)", [key])
    return cluster, session


def sizes(cluster):
    """``{name: (size, bound)}`` for everything that must stay bounded."""
    out = {}
    memos = {"route_plans": cluster.route_plans,
             "router_statements": cluster.statements,
             "analyses": analyses, "normalized_texts": normalized_texts}
    tracers = {"router": cluster.tracer}
    for index, (group, pair) in enumerate(zip(cluster.groups, cluster.pairs)):
        watermark = group.config.retention_watermark
        retention = group.retention()
        state = pair.state
        for name, size in (
                ("recovery_log", retention["recovery_log"]),
                ("certifier_log", retention["certifier_log"]),
                ("standby_commits", len(state.commits)),
                ("standby_certifier_log", len(state.certifier_log))):
            out[f"g{index}.{name}"] = (size, watermark)
        # between moves nothing outside the group holds its log
        out[f"g{index}.checkpoints"] = (retention["checkpoints"], 0)
        memos[f"g{index}.statements"] = group.statements
        tracers[f"g{index}"] = group.tracer
        for replica in group.replicas:
            engine = replica.engine
            memos[f"{replica.name}.access_shapes"] = \
                engine.database("shop").table("kv").access_shapes
            memos[f"{replica.name}.compiled"] = engine.executor.compiled
    for name, memo in memos.items():
        out[f"memo.{name}"] = (len(memo), memo.capacity)
    for name, tracer in tracers.items():
        out[f"tracer.{name}"] = (tracer.snapshot()["retained_traces"],
                                 tracer.max_traces)
    return out


def soak(commits):
    """Run ``commits`` autocommit updates with the three operations
    inside; return the peak RSS (KB) at every sixth of the run and one
    ``sizes`` sample at each of them after the first third."""
    cluster, session = build()
    samples, rss = [], []
    move = None
    moving = [k for k in range(ROWS) if cluster.map.shard_of("kv", k) == 0][:8]
    for n in range(1, commits + 1):
        session.execute("UPDATE kv SET v = v + 1 WHERE k = ?",
                        [(n * 7919) % ROWS])
        if n == commits // 4:
            newcomer = Replica("late", Engine("late", dialect=postgresql(),
                                              seed=9))
            ClusterManager(cluster.groups[0]).add_replica(
                newcomer, strategy="recovery_log")
        elif n == commits // 2:
            cluster.pairs[1].kill_active()
            cluster.pairs[1].promote()
        elif n == commits * 7 // 10:
            move = OnlineReshard.move_keys(cluster, "kv", moving, dst=1,
                                           database="shop")
            move.start()
        elif n == commits * 7 // 10 + commits // 50:
            # writes kept landing on the moving keys since start()
            while move.state == "copying":
                move.copy_chunk()
            move.catch_up()
            move.enter_dual_write()
            move.flip()
        if n % (commits // 6) == 0:
            rss.append(resource.getrusage(resource.RUSAGE_SELF).ru_maxrss)
            if n >= commits // 3:
                samples.append(sizes(cluster))
    assert move.stats["entries_joined"] > 0
    assert session.execute("SELECT SUM(v) FROM kv").rows == [(commits,)]
    session.close()
    assert cluster.check_convergence()
    return samples, rss


def assert_bounded(samples):
    assert len(samples) >= 4
    for sample in samples:
        over = {name: pair for name, pair in sample.items()
                if pair[0] > pair[1]}
        assert not over, over


def test_nothing_grows_per_commit():
    samples, _rss = soak(6000)
    assert_bounded(samples)


@pytest.mark.soak
def test_nothing_grows_per_commit_soak():
    samples, rss = soak(300_000)
    assert_bounded(samples)
    # peak RSS after commit 300 000 against peak RSS after commit 50 000
    assert rss[-1] <= rss[0] * 1.05, rss
