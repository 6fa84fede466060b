"""Online resharding: range splits and key moves under interleaved
writes, the dual-write window, the epoch-drained flip, and cache
freshness across the map version bump."""

import pytest

from repro.cache import ResultCacheConfig
from repro.core import LogTruncatedError
from repro.shard import OnlineReshard, ReshardError

from .conftest import make_kv_cluster
from repro.bench.harness import build_sharded_cluster
from repro.shard import RangeSharder


def _kv(cluster, group):
    session = cluster.groups[group].connect(database="shop")
    try:
        return dict(session.execute("SELECT k, v FROM kv").rows)
    finally:
        session.close()


def test_split_range_with_interleaved_writes(range_cluster):
    cluster = range_cluster
    session = cluster.connect(database="shop")
    move = OnlineReshard.split_range(cluster, "kv", 9, dst=1,
                                     database="shop")
    assert move.start() == 10  # keys 0..9 move
    # writes keep flowing during the copy — they land in the recovery
    # log after the join point and arrive via catch-up
    session.execute("UPDATE kv SET v = v + 1 WHERE k = 3")
    while move.state == "copying":
        move.copy_chunk(4)
    move.catch_up()
    move.enter_dual_write()
    # a write inside the window is dual-written by the client itself
    session.execute("UPDATE kv SET v = v + 1 WHERE k = 5")
    version = move.flip()
    assert cluster.map.version == version == 2
    assert move.stats["rows_copied"] == 10
    assert move.stats["entries_joined"] >= 1
    assert move.stats["rows_deleted"] == 10
    # nothing lost, nothing duplicated, every value current
    assert session.execute("SELECT COUNT(*) FROM kv").rows == [(20,)]
    assert session.execute("SELECT v FROM kv WHERE k = 3").rows == [(31,)]
    assert session.execute("SELECT v FROM kv WHERE k = 5").rows == [(51,)]
    # ownership really moved: ten rows on each group, none shared
    assert set(_kv(cluster, 0)) == {k for k in range(10, 20)}
    assert set(_kv(cluster, 1)) == {k for k in range(10)}
    assert cluster.map.shard_of("kv", 5) == 1
    assert cluster.map.shard_of("kv", 15) == 0
    assert cluster.check_convergence()
    assert not cluster.forwarding


def test_reshard_holds_the_source_log_until_the_flip(range_cluster):
    """Three watermarks of commits on the source between ``start`` and
    ``catch_up``: the join point is a named checkpoint of the source's
    recovery log, so the tail the catch-up replays is still there — and
    an unregistered reader of the same tail is refused, not served a
    hole."""
    cluster = range_cluster
    source = cluster.groups[0]
    source.config.retention_watermark = 8
    session = cluster.connect(database="shop")
    move = OnlineReshard.split_range(cluster, "kv", 9, dst=1,
                                     database="shop")
    move.start()
    join_seq = source.global_seq
    assert source.retention()["holder"].startswith("checkpoint:reshard:")
    for index in range(24):
        session.execute(f"UPDATE kv SET v = {index} WHERE k = {index % 20}")
    assert source.retention_floor() == join_seq
    while move.state == "copying":
        move.copy_chunk(4)
    assert move.catch_up() == 14          # writes 0..9 and 20..23
    move.enter_dual_write()
    move.flip()
    assert not source.recovery_log.checkpoints
    session.execute("UPDATE kv SET v = 0 WHERE k = 15")    # the next cut
    assert len(source.recovery_log.entries) <= 8
    with pytest.raises(LogTruncatedError):
        source.group_commit.changes_since(join_seq)
    for key in range(20):
        expected = key + 20 if key < 4 else key
        expected = 0 if key == 15 else expected
        assert session.execute(
            f"SELECT v FROM kv WHERE k = {key}").rows == [(expected,)]
    assert cluster.check_convergence()


def test_move_keys_rebalances_hash_shards():
    cluster = make_kv_cluster(shards=2, rows=10)
    # keys 0, 2, 4 live on hash shard 0; move 0 and 2 to shard 1
    move = OnlineReshard.move_keys(cluster, "kv", [0, 2], dst=1,
                                   database="shop")
    stats = move.run()
    assert stats["rows_snapshot"] == 2
    assert cluster.map.shard_of("kv", 0) == 1
    assert cluster.map.shard_of("kv", 2) == 1
    assert cluster.map.shard_of("kv", 4) == 0  # untouched
    session = cluster.connect(database="shop")
    assert session.execute("SELECT COUNT(*) FROM kv").rows == [(10,)]
    assert session.execute("SELECT v FROM kv WHERE k = 0").rows == [(0,)]
    assert 0 in _kv(cluster, 1) and 0 not in _kv(cluster, 0)
    assert cluster.check_convergence()


def test_a_moved_key_answers_to_every_spelling_the_engine_accepts():
    """The engine's ``=`` compares ``'10'`` and ``10.0`` with an INT key
    as 10; the override that moved key 10 must too — before the fix
    ``k = '10'`` / ``k = 10.0`` hashed past it to the emptied source."""
    cluster = make_kv_cluster(shards=2, rows=12)
    session = cluster.connect(database="shop")
    move = OnlineReshard.move_keys(cluster, "kv", [10], dst=1,
                                   database="shop")
    move.start()
    while move.state == "copying":
        move.copy_chunk(4)
    move.catch_up()
    move.enter_dual_write()
    # inside the window a write is dual-written whatever its spelling
    session.execute("UPDATE kv SET v = v + 1 WHERE k = '10'")
    assert cluster.stats["dual_writes"] == 1
    assert _kv(cluster, 0)[10] == _kv(cluster, 1)[10] == 101
    move.flip()
    assert cluster.map.shard_of("kv", "10") == \
        cluster.map.shard_of("kv", 10.0) == 1
    for literal in ("10", "'10'", "10.0", "'10.0'", "'1e1'"):
        assert session.execute(
            f"SELECT v FROM kv WHERE k = {literal}").rows == [(101,)]
    assert session.execute(
        "UPDATE kv SET v = v + 1 WHERE k = '10'").rowcount == 1
    assert session.execute(
        "UPDATE kv SET v = v + 1 WHERE k = 10.0").rowcount == 1
    assert session.execute(
        "SELECT v FROM kv WHERE k BETWEEN '10' AND 10.5").rows == [(103,)]
    assert _kv(cluster, 1)[10] == 103 and 10 not in _kv(cluster, 0)
    assert cluster.check_convergence()


def test_move_keys_requires_single_source(hash_cluster):
    with pytest.raises(ReshardError, match="span"):
        OnlineReshard.move_keys(hash_cluster, "kv", [0, 1], dst=1,
                                database="shop")


def test_phases_enforce_order(range_cluster):
    move = OnlineReshard.split_range(range_cluster, "kv", 9, dst=1,
                                     database="shop")
    with pytest.raises(ReshardError, match="state 'copying'"):
        move.copy_chunk()
    with pytest.raises(ReshardError, match="state 'copied'"):
        move.catch_up()
    with pytest.raises(ReshardError, match="state 'dual_write'"):
        move.flip()
    move.start()
    with pytest.raises(ReshardError, match="state 'init'"):
        move.start()


def test_dual_write_window_counts_rows_once(range_cluster):
    cluster = range_cluster
    session = cluster.connect(database="shop")
    move = OnlineReshard.split_range(cluster, "kv", 9, dst=1,
                                     database="shop")
    move.start()
    while move.state == "copying":
        move.copy_chunk()
    move.catch_up()
    move.enter_dual_write()
    # moving rows exist on BOTH groups now, but scatter reads filter the
    # copies out at the destination, so aggregates stay exact
    assert session.execute("SELECT COUNT(*) FROM kv").rows == [(20,)]
    # pinned reads still go to the source (the owner until the flip)
    before = cluster.stats["single_shard"]
    assert session.execute("SELECT v FROM kv WHERE k = 5").rows == [(50,)]
    assert cluster.stats["single_shard"] == before + 1
    # a write in the window is a 2PC to both copies
    twopc_before = cluster.stats["twopc_commits"]
    session.execute("UPDATE kv SET v = 1 WHERE k = 5")
    assert cluster.stats["twopc_commits"] == twopc_before + 1
    assert cluster.stats["dual_writes"] >= 1
    assert _kv(cluster, 0)[5] == _kv(cluster, 1)[5] == 1
    move.flip()
    assert cluster.check_convergence()


def _readings(session):
    """COUNT(*), SUM(v) and the plain row count, each an unpinned read."""
    return (session.execute("SELECT COUNT(*) FROM kv").scalar(),
            session.execute("SELECT SUM(v) FROM kv").scalar(),
            len(session.execute("SELECT k, v FROM kv").rows))


def _populated_moves():
    """Key movements into a group that already holds rows of the table:
    ``(cluster, move, a moving key, a key of the destination's own)``."""
    cluster = make_kv_cluster(shards=2, rows=10)
    yield (cluster, OnlineReshard.move_keys(cluster, "kv", [0, 2], dst=1,
                                            database="shop"), 2, 3)
    cluster = make_kv_cluster(shards=2, sharder=RangeSharder([4]), rows=10)
    yield (cluster, OnlineReshard.split_range(cluster, "kv", 1, dst=1,
                                              database="shop"), 1, 7)
    # a later segment
    cluster = make_kv_cluster(shards=2, sharder=RangeSharder([4]), rows=10)
    yield (cluster, OnlineReshard.split_range(cluster, "kv", 6, dst=0,
                                              database="shop"), 5, 3)


@pytest.mark.parametrize("case", range(3))
def test_unpinned_reads_count_each_row_once_in_every_phase(case):
    """Scatter reads while keys move into a group that has rows of its
    own: the destination's copies are filtered out, its own rows are
    not — from the first copied chunk to the flip."""
    cluster, move, moving, resident = list(_populated_moves())[case]
    session = cluster.connect(database="shop")
    expected = (10, 450, 10)
    assert _readings(session) == expected
    move.start()
    assert _readings(session) == expected
    while move.state == "copying":
        move.copy_chunk(1)
        assert _readings(session) == expected
    move.catch_up()
    assert _readings(session) == expected
    move.enter_dual_write()
    assert _readings(session) == expected
    # writes inside the window: a dual-written moving key, and a row of
    # the destination's own
    session.execute(f"UPDATE kv SET v = v + 7 WHERE k = {moving}")
    session.execute(f"UPDATE kv SET v = v + 1 WHERE k = {resident}")
    expected = (10, 458, 10)
    assert _readings(session) == expected
    assert session.execute(
        f"SELECT v FROM kv WHERE k = {moving}").scalar() == moving * 10 + 7
    move.flip()
    assert _readings(session) == expected
    assert session.execute(
        f"SELECT v FROM kv WHERE k = {moving}").scalar() == moving * 10 + 7
    assert not cluster.forwarding and cluster.check_convergence()


def _nullable_key_cluster(sharder):
    """``nk (id PK, k, v)`` sharded on the nullable ``k``: ten keyed rows
    and one NULL-key row, which lands on group 0."""
    cluster = build_sharded_cluster(shards=2, replicas=1)
    session = cluster.connect(database="shop")
    session.execute("CREATE TABLE nk (id INT PRIMARY KEY, k INT, v INT)")
    cluster.register_table("nk", "k", sharder)
    for i in range(10):
        session.execute(f"INSERT INTO nk (id, k, v) VALUES ({i}, {i}, 1)")
    session.execute("INSERT INTO nk (id, k, v) VALUES (10, NULL, 1)")
    return cluster, session


@pytest.mark.parametrize("make_move", [
    # into the group that holds the NULL-key row: it is not a moving key
    lambda c: OnlineReshard.split_range(c, "nk", 6, dst=0, database="shop"),
    lambda c: OnlineReshard.move_keys(c, "nk", [5, 6], dst=0,
                                      database="shop"),
    # NULL itself moves, with its segment or by name
    lambda c: OnlineReshard.split_range(c, "nk", 2, dst=1, database="shop"),
    lambda c: OnlineReshard.move_keys(c, "nk", [None, 1], dst=1,
                                      database="shop"),
], ids=["split_beside_null", "move_beside_null", "split_moves_null",
        "move_moves_null"])
def test_the_destination_filter_is_null_safe(make_move):
    cluster, session = _nullable_key_cluster(RangeSharder([4]))
    move = make_move(cluster)

    def count():
        return session.execute("SELECT COUNT(*), SUM(v) FROM nk").rows

    move.start()
    while move.state == "copying":
        move.copy_chunk(1)
        assert count() == [(11, 11)]
    move.catch_up()
    move.enter_dual_write()
    assert count() == [(11, 11)]
    move.flip()
    assert count() == [(11, 11)]
    assert session.execute(
        "SELECT COUNT(*) FROM nk WHERE k IS NULL").rows == [(1,)]


def test_filtered_and_unfiltered_reads_never_share_a_cache_entry():
    """The destination's result cache may hold the unfiltered answer from
    before the move; the filtered variant is a different text."""
    cluster = make_kv_cluster(
        shards=2, sharder=RangeSharder([4]), rows=10,
        result_cache=ResultCacheConfig())
    session = cluster.connect(database="shop")
    for _ in range(2):      # fill, then hit
        assert session.execute("SELECT COUNT(*) FROM kv").scalar() == 10
    move = OnlineReshard.split_range(cluster, "kv", 1, dst=1,
                                     database="shop")
    move.start()
    while move.state == "copying":
        move.copy_chunk()
    for _ in range(2):
        assert session.execute("SELECT COUNT(*) FROM kv").scalar() == 10
    # range-pruned and multi-key reads that reach the destination take
    # the same filter; one that reaches it alone cannot see a copy
    for _ in range(2):
        assert session.execute(
            "SELECT COUNT(*) FROM kv WHERE k >= ?", [0]).scalar() == 10
        assert session.execute(
            "SELECT COUNT(*) FROM kv WHERE k >= ?", [5]).scalar() == 5
        assert session.execute(
            "SELECT k FROM kv WHERE k IN (1, 7) ORDER BY k").rows \
            == [(1,), (7,)]
    move.catch_up()
    move.enter_dual_write()
    move.flip()
    for _ in range(2):
        assert session.execute("SELECT COUNT(*) FROM kv").scalar() == 10


def test_flip_waits_for_write_epoch_to_drain(range_cluster):
    cluster = range_cluster
    move = OnlineReshard.split_range(cluster, "kv", 9, dst=1,
                                     database="shop")
    move.start()
    while move.state == "copying":
        move.copy_chunk()
    move.catch_up()
    move.enter_dual_write()
    writer = cluster.connect(database="shop")
    writer.execute("BEGIN")
    writer.execute("UPDATE kv SET v = 99 WHERE k = 15")
    with pytest.raises(ReshardError, match="in-flight write"):
        move.flip()
    # readers do not hold up the flip
    reader = cluster.connect(database="shop")
    reader.execute("BEGIN")
    reader.execute("SELECT v FROM kv WHERE k = 15")
    writer.execute("COMMIT")
    version = move.flip()
    assert cluster.map.version == version
    assert _kv(cluster, 0)[15] == 99
    assert cluster.check_convergence()


def test_no_stale_reads_of_moved_keys_through_cache():
    cluster = make_kv_cluster(
        shards=2, sharder=RangeSharder([999], [0, 1]), rows=20,
        result_cache=ResultCacheConfig(capacity=64))
    session = cluster.connect(database="shop")
    # warm the source group's cache for a moving key under version 1
    assert session.execute("SELECT v FROM kv WHERE k = 5").rows == [(50,)]
    assert session.execute("SELECT v FROM kv WHERE k = 5").rows == [(50,)]
    assert cluster.groups[0].result_cache.stats["hits"] >= 1
    move = OnlineReshard.split_range(cluster, "kv", 9, dst=1,
                                     database="shop")
    move.start()
    while move.state == "copying":
        move.copy_chunk()
    move.catch_up()
    move.enter_dual_write()
    session.execute("UPDATE kv SET v = 51 WHERE k = 5")
    move.flip()
    # post-flip the key routes to the destination AND the old cache
    # entry (keyed under map version 1 on the source) is unreachable
    assert session.execute("SELECT v FROM kv WHERE k = 5").rows == [(51,)]
    # repeated reads refill under the new version and stay fresh
    assert session.execute("SELECT v FROM kv WHERE k = 5").rows == [(51,)]


def test_reshard_map_log_trail(range_cluster):
    move = OnlineReshard.split_range(range_cluster, "kv", 9, dst=1,
                                     database="shop")
    move.run()
    kinds = [r.kind for r in range_cluster.map_log.records]
    for expected in ("reshard_begin", "reshard_dual_write",
                     "reshard_flip", "map_install"):
        assert expected in kinds
    flip = range_cluster.map_log.of_kind("reshard_flip")[-1]
    assert flip.payload["version"] == 2
    assert flip.payload["rows_deleted"] == 10
    spans = {s.name for s in range_cluster.tracer.finished_spans()}
    assert {"reshard.begin", "reshard.copy", "reshard.dualwrite",
            "reshard.flip"} <= spans
