"""Shard-aware routing: key pinning, scatter-gather merges, NULL and
parameterized shard keys, and the map-version flip (routing + cache)."""

import pytest

from repro.bench.harness import build_sharded_cluster
from repro.cache import ResultCacheConfig
from repro.core.errors import MiddlewareDown, UnsupportedStatementError
from repro.shard import HashSharder

from .conftest import make_kv_cluster


# ---------------------------------------------------------------------------
# key pinning
# ---------------------------------------------------------------------------

def test_point_read_pins_one_shard(hash_cluster):
    session = hash_cluster.connect(database="shop")
    before = hash_cluster.stats["single_shard"]
    assert session.execute("SELECT v FROM kv WHERE k = 3").rows == [(30,)]
    assert hash_cluster.stats["single_shard"] == before + 1


def test_in_list_spanning_shards_scatters_only_owners():
    # 4 shards: keys 0 and 4 share shard 0, key 1 lives on shard 1 —
    # the IN-list pins exactly two of the four groups
    cluster = make_kv_cluster(shards=4, rows=8)
    session = cluster.connect(database="shop")
    before = dict(cluster.stats)
    result = session.execute(
        "SELECT v FROM kv WHERE k IN (0, 4, 1) ORDER BY v")
    assert result.rows == [(0,), (10,), (40,)]
    assert cluster.stats["scatter_reads"] == before["scatter_reads"] + 1
    # only the owning groups were touched: groups 2 and 3 never got a
    # session
    assert set(session._sessions) == {0, 1}


def test_in_list_on_one_shard_stays_single():
    cluster = make_kv_cluster(shards=2, rows=10)
    session = cluster.connect(database="shop")
    before = cluster.stats["single_shard"]
    # 0, 2, 4 all hash to shard 0
    result = session.execute("SELECT SUM(v) FROM kv WHERE k IN (0, 2, 4)")
    assert result.rows == [(60,)]
    assert cluster.stats["single_shard"] == before + 1


def test_same_named_column_of_another_table_does_not_pin():
    """``dim.k`` is not the shard key of ``kv``: a predicate on it must
    not send the join to the one shard that owns ``kv.k = 5``."""
    cluster = build_sharded_cluster(shards=2, replicas=2)
    session = cluster.connect(database="shop")
    session.execute("CREATE TABLE kv (k INT PRIMARY KEY, g INT, v INT)")
    session.execute("CREATE TABLE dim (id INT PRIMARY KEY, k INT, "
                    "name VARCHAR(8))")
    cluster.register_table("kv", "k", HashSharder(2))
    for k in range(8):
        session.execute(f"INSERT INTO kv (k, g, v) VALUES ({k}, {k % 2}, 0)")
    session.execute("INSERT INTO dim (id, k, name) VALUES (0, 5, 'a')")
    session.execute("INSERT INTO dim (id, k, name) VALUES (1, 5, 'b')")
    join = ("SELECT kv.k, dim.name FROM kv JOIN dim ON kv.g = dim.id "
            "WHERE {} ORDER BY kv.k")
    expected = [(k, "ab"[k % 2]) for k in range(8)]

    before = dict(cluster.stats)
    assert session.execute(join.format("dim.k + 0 = 5")).rows == expected
    assert session.execute(join.format("dim.k = 5")).rows == expected
    assert session.execute(join.format("dim.k IN (5)")).rows == expected
    assert cluster.stats["scatter_reads"] == before["scatter_reads"] + 3
    assert cluster.stats["single_shard"] == before["single_shard"]

    # the sharded table's own key still pins, by name or by alias; an
    # unqualified k in a two-table statement is anybody's and does not
    assert session.execute(join.format("kv.k = 5")).rows == [(5, "b")]
    aliased = ("SELECT a.k, d.name FROM kv a JOIN dim d ON a.g = d.id "
               "WHERE {} ORDER BY a.k")
    assert session.execute(aliased.format("a.k = 5")).rows == [(5, "b")]
    assert cluster.stats["single_shard"] == before["single_shard"] + 2
    assert session.execute(aliased.format("d.k = 5")).rows == expected
    session.execute("CREATE TABLE tag (id INT PRIMARY KEY, label VARCHAR(8))")
    session.execute("INSERT INTO tag (id, label) VALUES (1, 'odd')")
    assert session.execute(
        "SELECT kv.k, tag.label FROM kv JOIN tag ON kv.g = tag.id "
        "WHERE k = 5").rows == [(5, "odd")]
    assert cluster.stats["single_shard"] == before["single_shard"] + 2
    session.close()


def test_unpinned_read_scatters_everywhere(hash_cluster):
    session = hash_cluster.connect(database="shop")
    assert session.execute("SELECT COUNT(*) FROM kv").rows == [(10,)]
    assert hash_cluster.stats["scatter_reads"] == 1
    assert set(session._sessions) == {0, 1}


# ---------------------------------------------------------------------------
# scatter-gather merge semantics
# ---------------------------------------------------------------------------

def test_avg_is_rewritten_not_averaged(hash_cluster):
    session = hash_cluster.connect(database="shop")
    # naive avg-of-averages would weight each shard equally regardless
    # of row counts; the planner rewrites AVG to SUM + COUNT
    assert session.execute("SELECT AVG(v) FROM kv").rows == [(45.0,)]


def test_limit_reapplied_after_global_resort(hash_cluster):
    session = hash_cluster.connect(database="shop")
    result = session.execute("SELECT k FROM kv ORDER BY v DESC LIMIT 3")
    assert [row[0] for row in result.rows] == [9, 8, 7]


def test_order_by_unselected_column(hash_cluster):
    # the sort key is not in the select list: the planner ships it as a
    # hidden column and projects it back out after the merge
    session = hash_cluster.connect(database="shop")
    result = session.execute("SELECT k FROM kv ORDER BY v ASC LIMIT 2")
    assert result.rows == [(0,), (1,)]
    assert len(result.rows[0]) == 1


def test_grouped_aggregate_merges_across_shards():
    cluster = make_kv_cluster(shards=2)
    session = cluster.connect(database="shop")
    for k in range(10):
        session.execute(
            f"INSERT INTO kv (k, v) VALUES ({k}, {k % 2})")
    result = session.execute(
        "SELECT v, COUNT(*), SUM(v) FROM kv GROUP BY v ORDER BY v")
    # each group's partial rows span both shards and regroup globally
    assert result.rows == [(0, 5, 0), (1, 5, 5)]


# ---------------------------------------------------------------------------
# NULL / absent / parameterized shard keys
# ---------------------------------------------------------------------------

def test_null_shard_key_lands_on_shard_zero(hash_cluster):
    # shard key that is not the primary key, so NULL is a legal value
    for group in hash_cluster.groups:
        direct = group.connect(database="shop")
        direct.execute("CREATE TABLE ev "
                       "(id INT PRIMARY KEY, region VARCHAR(10), n INT)")
        direct.close()
    hash_cluster.register_table("ev", "region", HashSharder(2))
    session = hash_cluster.connect(database="shop")
    session.execute("INSERT INTO ev (id, region, n) VALUES (1, NULL, 777)")
    # NULL hashes to shard 0 deterministically — never an error, never
    # a random shard
    group0 = hash_cluster.groups[0].connect(database="shop")
    assert group0.execute(
        "SELECT n FROM ev WHERE region IS NULL").rows == [(777,)]
    group1 = hash_cluster.groups[1].connect(database="shop")
    assert group1.execute(
        "SELECT n FROM ev WHERE region IS NULL").rows == []
    # and the tier still finds it via scatter
    assert session.execute("SELECT n FROM ev").rows == [(777,)]


def test_insert_without_shard_key_column_is_rejected(hash_cluster):
    session = hash_cluster.connect(database="shop")
    with pytest.raises(UnsupportedStatementError, match="shard key"):
        session.execute("INSERT INTO kv (v) VALUES (1)")
    with pytest.raises(UnsupportedStatementError, match="columns"):
        session.execute("INSERT INTO kv VALUES (99, 1)")


def test_insert_with_unplaceable_key_value_is_rejected(hash_cluster):
    session = hash_cluster.connect(database="shop")
    with pytest.raises(UnsupportedStatementError, match="literals or bound"):
        session.execute("INSERT INTO kv (k, v) VALUES (1 + 1, 0)")
    # a bound key that is NULL or was never bound cannot be placed either
    with pytest.raises(UnsupportedStatementError, match="literals or bound"):
        session.execute("INSERT INTO kv (k, v) VALUES (?, ?)", [None, 0])
    with pytest.raises(UnsupportedStatementError, match="literals or bound"):
        session.execute("INSERT INTO kv (k, v) VALUES (50, ?), (?, 0)", [0])
    assert session.execute("SELECT COUNT(*) FROM kv").rows == [(10,)]


def test_parameterized_shard_key_routes_like_literal():
    cluster = make_kv_cluster(shards=2, rows=10)
    session = cluster.connect(database="shop")
    assert session.execute(
        "SELECT v FROM kv WHERE k = ?", [3]).rows == [(30,)]
    assert cluster.stats["single_shard"] >= 1
    assert cluster.stats["scatter_reads"] == 0
    session.execute("UPDATE kv SET v = ? WHERE k = ?", [31, 3])
    assert session.execute(
        "SELECT v FROM kv WHERE k = ?", [3]).rows == [(31,)]
    session.execute("INSERT INTO kv (k, v) VALUES (?, ?)", [100, 1])
    owner = cluster.map.shard_of("kv", 100)
    direct = cluster.groups[owner].connect(database="shop")
    assert direct.execute(
        "SELECT v FROM kv WHERE k = 100").rows == [(1,)]


def test_multi_row_insert_splits_rows_by_owner(hash_cluster):
    session = hash_cluster.connect(database="shop")
    result = session.execute(
        "INSERT INTO kv (k, v) VALUES (20, 1), (21, 1), (22, 1)")
    assert result.rowcount == 3
    for key in (20, 21, 22):
        owner = hash_cluster.map.shard_of("kv", key)
        other = hash_cluster.groups[1 - owner].connect(database="shop")
        assert other.execute(
            f"SELECT v FROM kv WHERE k = {key}").rows == []
    assert hash_cluster.check_convergence()


# ---------------------------------------------------------------------------
# global tables, DDL, session lifecycle
# ---------------------------------------------------------------------------

def test_unsharded_table_broadcasts_writes_and_reads_one(hash_cluster):
    session = hash_cluster.connect(database="shop")
    session.execute("CREATE TABLE cfg (id INT PRIMARY KEY, x INT)")
    session.execute("INSERT INTO cfg (id, x) VALUES (1, 5)")
    for group in hash_cluster.groups:
        direct = group.connect(database="shop")
        assert direct.execute("SELECT x FROM cfg").rows == [(5,)]
    before = dict(hash_cluster.stats)
    assert session.execute("SELECT x FROM cfg WHERE id = 1").rows == [(5,)]
    assert hash_cluster.stats["scatter_reads"] == before["scatter_reads"]


def test_closed_session_raises(hash_cluster):
    session = hash_cluster.connect(database="shop")
    session.close()
    with pytest.raises(MiddlewareDown):
        session.execute("SELECT 1")


# ---------------------------------------------------------------------------
# map-version flips
# ---------------------------------------------------------------------------

def test_map_version_bump_redirects_open_session():
    cluster = make_kv_cluster(shards=2, rows=0)
    session = cluster.connect(database="shop")
    session.execute("INSERT INTO kv (k, v) VALUES (3, 30)")
    old_owner = cluster.map.shard_of("kv", 3)
    new_owner = 1 - old_owner
    # move key 3 by override in a cloned map (what a rebalance installs)
    new_map = cluster.map.clone()
    new_map.spec_of("kv").overrides[3] = new_owner
    cluster.install_map(new_map)
    assert cluster.map.version == 2
    # the already-open session routes by the *new* map immediately
    session.execute("INSERT INTO kv (k, v) VALUES (?, ?)", [300, 1])
    assert cluster.map.shard_of("kv", 3) == new_owner
    before = cluster.stats["single_shard"]
    session.execute("SELECT v FROM kv WHERE k = 3")
    assert cluster.stats["single_shard"] == before + 1
    assert session._sessions[new_owner] is not None


def test_map_flip_salts_result_cache_keys():
    cluster = make_kv_cluster(
        shards=2, rows=10, result_cache=ResultCacheConfig(capacity=64))
    session = cluster.connect(database="shop")
    owner = cluster.map.shard_of("kv", 3)
    cache = cluster.groups[owner].result_cache
    session.execute("SELECT v FROM kv WHERE k = 3")
    hits = cache.stats["hits"]
    session.execute("SELECT v FROM kv WHERE k = 3")
    assert cache.stats["hits"] == hits + 1  # warm under version 1
    cluster.install_map(cluster.map.clone())  # flip to version 2
    fills = cache.stats["fills"]
    session.execute("SELECT v FROM kv WHERE k = 3")
    # the old entry is unreachable: same SQL now misses and refills
    assert cache.stats["hits"] == hits + 1
    assert cache.stats["fills"] == fills + 1


def test_install_map_must_advance_version(hash_cluster):
    with pytest.raises(ValueError, match="version"):
        hash_cluster.install_map(hash_cluster.map)


def test_map_log_records_installs_and_registrations(hash_cluster):
    kinds = [record.kind for record in hash_cluster.map_log.records]
    assert kinds[0] == "map_install"
    assert "table_registered" in kinds
    hash_cluster.install_map(hash_cluster.map.clone())
    assert hash_cluster.map_log.of_kind("map_install")[-1].payload[
        "version"] == 2


def test_route_spans_emitted(hash_cluster):
    session = hash_cluster.connect(database="shop")
    session.execute("SELECT v FROM kv WHERE k = 3")
    session.execute("SELECT COUNT(*) FROM kv")
    spans = [span for span in hash_cluster.tracer.finished_spans()
             if span.name == "shard.route"]
    kinds = {span.tags.get("kind") for span in spans}
    assert {"single", "scatter"} <= kinds
    assert all(span.tags.get("map_version") == 1 for span in spans)


def test_rejects_non_writeset_groups():
    from repro.bench.harness import build_cluster
    from repro.shard import ShardedCluster
    groups = [build_cluster(2, replication="statement", name="stmt")]
    with pytest.raises(ValueError, match="writeset"):
        ShardedCluster(groups)


def test_hash_sharder_spreads_keys():
    sharder = HashSharder(4)
    owners = {sharder.shard_for(k) for k in range(32)}
    assert owners == {0, 1, 2, 3}
    assert sharder.shard_for(None) == 0
    assert sharder.shard_for("alice") == sharder.shard_for("alice")
