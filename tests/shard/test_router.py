"""Shard-aware routing: key pinning, range pruning, scatter-gather
merges, NULL, parameterized and unorderable shard keys, EXPLAIN through
the tier, and the map-version flip (routing + cache)."""

import pytest

from repro.bench.harness import build_sharded_cluster
from repro.cache import ResultCacheConfig
from repro.core.errors import MiddlewareDown, UnsupportedStatementError
from repro.shard import HashSharder, RangeSharder

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
# range pruning
# ---------------------------------------------------------------------------

@pytest.fixture
def ev_cluster():
    """40 rows over three range segments: (..9], (9..19], (19..)."""
    return make_kv_cluster(shards=3, sharder=RangeSharder([9, 19]), rows=40)


def _routed(cluster, session, sql, params=None):
    """(rows, groups the statement ran on)."""
    rows = session.execute(sql, params).rows
    return rows, set(session.last_route["targets"])


def test_range_read_reaches_only_the_intersecting_segments(ev_cluster):
    session = ev_cluster.connect(database="shop")
    before = dict(ev_cluster.stats)
    assert _routed(ev_cluster, session,
                   "SELECT COUNT(*), SUM(v) FROM kv WHERE k BETWEEN ? AND ?",
                   [2, 6]) == ([(5, 200)], {0})
    assert _routed(ev_cluster, session,
                   "SELECT COUNT(*) FROM kv WHERE k BETWEEN 8 AND 12") \
        == ([(5,)], {0, 1})
    assert _routed(ev_cluster, session,
                   "SELECT k FROM kv WHERE k >= ? ORDER BY k LIMIT 3",
                   [18]) == ([(18,), (19,), (20,)], {1, 2})
    assert _routed(ev_cluster, session,
                   "SELECT k FROM kv WHERE 3 > k AND v >= 10") \
        == ([(1,), (2,)], {0})
    assert ev_cluster.stats["single_shard"] == before["single_shard"] + 2
    assert ev_cluster.stats["scatter_reads"] == before["scatter_reads"] + 2


@pytest.mark.parametrize("sql, params", [
    ("SELECT COUNT(*) FROM kv WHERE k NOT BETWEEN 2 AND 6", []),
    ("SELECT COUNT(*) FROM kv WHERE k < 3 OR v = 50", []),
    ("SELECT COUNT(*) FROM kv WHERE k < ?", [None]),
    ("SELECT COUNT(*) FROM kv WHERE k < 'x'", []),
    ("SELECT COUNT(*) FROM kv WHERE k + 1 < 3", []),
])
def test_in_doubt_a_range_read_scatters(ev_cluster, sql, params):
    session = ev_cluster.connect(database="shop")
    try:
        session.execute(sql, params)
    except Exception:       # noqa: BLE001 — `k < 'x'` is the engine's error
        pass
    assert set(session.last_route["targets"]) == {0, 1, 2}


def test_range_writes_and_hash_shards_are_not_pruned(ev_cluster,
                                                     hash_cluster):
    session = ev_cluster.connect(database="shop")
    assert session.execute(
        "UPDATE kv SET v = v WHERE k BETWEEN 2 AND 6").rowcount == 5
    assert set(session.last_route["targets"]) == {0, 1, 2}
    session = hash_cluster.connect(database="shop")
    assert _routed(hash_cluster, session,
                   "SELECT COUNT(*) FROM kv WHERE k BETWEEN 2 AND 6") \
        == ([(5,)], {0, 1})


def test_an_empty_interval_still_answers_in_shape(ev_cluster):
    session = ev_cluster.connect(database="shop")
    result = session.execute(
        "SELECT COUNT(*), SUM(v) FROM kv WHERE k BETWEEN 30 AND 5")
    assert (result.columns, result.rows) == (["count", "sum"], [(0, None)])
    assert len(session.last_route["targets"]) == 1


def test_overridden_key_inside_the_interval_adds_its_owner(ev_cluster):
    session = ev_cluster.connect(database="shop")
    # key 4 lives on group 2 although its segment belongs to group 0
    session.execute("DELETE FROM kv WHERE k = 4")
    ev_cluster.map.spec_of("kv").overrides[4] = 2
    session.execute("INSERT INTO kv (k, v) VALUES (4, 40)")
    assert _routed(ev_cluster, session,
                   "SELECT COUNT(*) FROM kv WHERE k BETWEEN 2 AND 6") \
        == ([(5,)], {0, 2})
    assert _routed(ev_cluster, session,
                   "SELECT COUNT(*) FROM kv WHERE k BETWEEN 5 AND 6") \
        == ([(2,)], {0})


# ---------------------------------------------------------------------------
# a key value the range bounds cannot order
# ---------------------------------------------------------------------------

def test_unorderable_key_value_pins_nothing(ev_cluster):
    session = ev_cluster.connect(database="shop")
    assert _routed(ev_cluster, session,
                   "SELECT v FROM kv WHERE k = '7'") == ([(70,)], {0, 1, 2})
    assert _routed(ev_cluster, session, "SELECT v FROM kv WHERE k = ?",
                   ["7"]) == ([(70,)], {0, 1, 2})
    before = ev_cluster.stats["multi_shard_writes"]
    assert session.execute(
        "UPDATE kv SET v = v WHERE k = 'abc'").rowcount == 0
    assert ev_cluster.stats["multi_shard_writes"] == before + 1
    assert session.execute(
        "DELETE FROM kv WHERE k IN (3, 'abc')").rowcount == 1


def test_unplaceable_insert_is_a_typed_refusal(ev_cluster):
    session = ev_cluster.connect(database="shop")
    with pytest.raises(UnsupportedStatementError, match="cannot be placed"):
        session.execute("INSERT INTO kv (k, v) VALUES ('abc', 1)")
    with pytest.raises(UnsupportedStatementError, match="cannot be placed"):
        session.execute("INSERT INTO kv (k, v) VALUES (50, 1), (?, 2)",
                        ["x"])
    assert session.execute("SELECT COUNT(*) FROM kv").rows == [(40,)]


# ---------------------------------------------------------------------------
# EXPLAIN through the tier
# ---------------------------------------------------------------------------

def test_explain_reports_each_reached_shard(ev_cluster):
    session = ev_cluster.connect(database="shop")
    result = session.execute("EXPLAIN SELECT k FROM kv WHERE k = 3")
    assert result.columns == ["shard", "operation", "table", "access_path",
                              "keys"]
    assert result.rows == [(0, "SELECT", "kv", "index-probe (kv_pkey)", 1)]
    # the tentpole's observable surface: a pruned range read walks 5 keys
    assert session.execute(
        "EXPLAIN SELECT COUNT(*), SUM(v) FROM kv WHERE k BETWEEN ? AND ?",
        [2, 6]).rows \
        == [(0, "SELECT", "kv", "index-range (kv_pkey)", 5)]
    # straddling the bound: one row per reached shard
    assert session.execute(
        "EXPLAIN SELECT COUNT(*) FROM kv WHERE k BETWEEN 8 AND 12").rows \
        == [(0, "SELECT", "kv", "index-range (kv_pkey)", 2),
            (1, "SELECT", "kv", "index-range (kv_pkey)", 3)]
    assert session.execute("EXPLAIN SELECT v FROM kv WHERE v = 50").rows \
        == [(shard, "SELECT", "kv", "seq-scan", 0) for shard in range(3)]


def test_explain_of_a_write_routes_as_a_read_and_changes_nothing(ev_cluster):
    session = ev_cluster.connect(database="shop")
    before = dict(ev_cluster.stats)
    assert session.execute(
        "EXPLAIN UPDATE kv SET v = 0 WHERE k > 35").rows \
        == [(2, "UPDATE", "kv", "index-range (kv_pkey)", 4)]
    assert session.execute(
        "EXPLAIN DELETE FROM kv WHERE k = 12").rows \
        == [(1, "DELETE", "kv", "index-probe (kv_pkey)", 1)]
    assert ev_cluster.stats["twopc_commits"] == before["twopc_commits"]
    assert session.execute("SELECT COUNT(*), SUM(v) FROM kv").rows \
        == [(40, sum(range(40)) * 10)]


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


def test_range_sharder_segments_and_ranges():
    sharder = RangeSharder([9, 19, 29], [0, 1, 0, 2])
    assert [sharder.segment_for(k) for k in (None, -5, 9, 10, 19, 29, 30)] \
        == [0, 0, 0, 1, 1, 2, 3]
    assert sharder.shards_for_range(None, None) == {0, 1, 2}
    assert sharder.shards_for_range(3, 9) == {0}
    assert sharder.shards_for_range(9.5, 12) == {1}
    assert sharder.shards_for_range(15, 25) == {0, 1}
    assert sharder.shards_for_range(25, None) == {0, 2}
    assert sharder.shards_for_range(25, 3) == {0}       # empty: one segment
    with pytest.raises(TypeError):
        sharder.segment_for("7")
    assert HashSharder(4).shards_for_range(3, 9) is None


@pytest.mark.parametrize("where, params, interval", [
    ("k BETWEEN ? AND ?", [10, 59], [10, 59]),
    ("? <= k", [10], [10, None]),
    ("5 > kv.k AND k > 1 AND v = 3", [], [1, 5]),
    ("k < 5 OR k BETWEEN 8 AND 9", [], [None, 9]),
    ("(k > 3 OR k > 7) AND k <= 20", [], [3, 20]),
    ("k < 5 OR v = 1", [], "no plan"),
    ("k NOT BETWEEN 1 AND 2", [], "no plan"),
    ("other.k < 5", [], "no plan"),
    ("k < ?", [None], None),
    ("k < ?", [], None),
    ("k < 5 AND k < 'a'", [], None),
    ("k BETWEEN 1 AND NULL", [], "no plan"),
])
def test_range_plan_intervals(where, params, interval):
    from repro.core.keyplan import compile_range_plan
    from repro.sqlengine import parse
    plan = compile_range_plan(parse(f"SELECT v FROM kv WHERE {where}"),
                              "kv", "k")
    assert (plan(params) if plan is not None else "no plan") == interval
