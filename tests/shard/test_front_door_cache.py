"""The statement cache at both SQL-text front doors
(``ShardedSession.execute`` and ``MiddlewareSession.execute``):

* differential — a mixed stream through ``execute(text)`` against the
  same stream parsed fresh and run statement by statement through
  ``execute_one_parsed`` on a twin cluster;
* memo counts — the identity-keyed route / analysis / access-plan memos
  hold a handful of entries, not one per call;
* result-cache keys — the literal path fills, hits, invalidates and
  never collides, and a ``;``-script is cached statement by statement,
  never under the script's text.
"""

import random

import pytest

from repro.bench.harness import build_cluster, build_composed_cluster
from repro.cache import ResultCacheConfig
from repro.core import analysis
from repro.shard import HashSharder
from repro.sqlengine import parse_script
from repro.sqlengine.stmtcache import CAPACITY

KV = "CREATE TABLE kv (k INT PRIMARY KEY, v INT, s VARCHAR(20))"
ROWS = 24


def middleware_door(**kwargs):
    mw = build_cluster(2, replication="writeset", consistency="gsi",
                       **kwargs)
    session = mw.connect(database="shop")
    session.execute(KV)
    session.close()
    return mw


def sharded_door(**kwargs):
    cluster = build_composed_cluster(shards=2, replicas=2, **kwargs)
    session = cluster.connect(database="shop")
    session.execute(KV)
    session.close()
    cluster.register_table("kv", "k", HashSharder(2))
    return cluster


DOORS = {"middleware": middleware_door, "sharded": sharded_door}


def seed_rows(front):
    session = front.connect(database="shop")
    for k in range(ROWS):
        session.execute(
            f"INSERT INTO kv (k, v, s) VALUES ({k}, {k * 10}, 'n{k}')")
    session.close()


def signatures(front):
    groups = getattr(front, "groups", [front])
    return [group.content_signatures() for group in groups]


# -- differential ----------------------------------------------------------

#: every case the issue names, in an order that puts DDL between repeats
#: of one text and repeats a parse error
FIXED = [
    ("SELECT v FROM kv WHERE k = ?", [3]),
    ("SELECT v FROM kv WHERE k = 3", None),
    ("SELECT * FROM kv WHERE k = 3", None),
    ("SELECT k FROM kv WHERE v = 30", None),
    ("CREATE INDEX kv_v ON kv (v)", None),
    ("SELECT k FROM kv WHERE v = 30", None),
    ("ALTER TABLE kv ADD COLUMN w INT", None),
    ("SELECT * FROM kv WHERE k = 3", None),
    ("SELEC v FROM kv WHERE k = 3", None),
    ("SELEC v FROM kv WHERE k = 3", None),
    ("SELECT k, v FROM kv WHERE v >= 0 ORDER BY k LIMIT 10", None),
    ("SELECT k, v FROM kv WHERE k < 6 ORDER BY 2 DESC", None),
    ("INSERT INTO kv (k, v, s) VALUES (-5, 1, 'neg')", None),
    ("INSERT INTO kv (k, v, s) VALUES (123456, 2, 'big')", None),
    ("INSERT INTO kv (k, v, s) VALUES (123456, 2, 'dup')", None),
    ("SELECT v, s FROM kv WHERE k = -5", None),
    ("SELECT v, s FROM kv WHERE k = 123456", None),
    ("UPDATE kv SET s = 'renamed' WHERE k = 4", None),
    ("SELECT k FROM kv WHERE s = 'renamed'", None),
    ("UPDATE kv SET v = 1 WHERE k = 5; SELECT v FROM kv WHERE k = 5", None),
    ("BEGIN", None),
    ("UPDATE kv SET v = v + 1 WHERE k = 6", None),
    ("UPDATE kv SET v = v + ? WHERE k = ?", [2, 7]),
    ("COMMIT", None),
    ("BEGIN; UPDATE kv SET v = 0 WHERE k = 6; ROLLBACK", None),
    ("SELECT k, v FROM kv WHERE k IN (6, 7) ORDER BY k", None),
]


def random_stream(seed, length=150):
    rng = random.Random(seed)
    stream = []
    while len(stream) < length:
        k = rng.choice([rng.randrange(ROWS), rng.randrange(ROWS),
                        -rng.randrange(1, 9), rng.randrange(1000, 99999)])
        kind = rng.randrange(9)
        if kind == 0:
            stream.append(("SELECT v FROM kv WHERE k = ?", [k]))
        elif kind == 1:
            stream.append((f"SELECT v, s FROM kv WHERE k = {k}", None))
        elif kind == 2:
            stream.append(
                (f"UPDATE kv SET v = {rng.randrange(100)} WHERE k = {k}",
                 None))
        elif kind == 3:
            stream.append(("UPDATE kv SET v = v + ? WHERE k = ?",
                           [rng.randrange(5), k]))
        elif kind == 4:
            stream.append(
                (f"INSERT INTO kv (k, v, s) VALUES ({k}, 1, 'r{k}')", None))
        elif kind == 5:
            stream.append(
                (f"UPDATE kv SET s = 't{rng.randrange(4)}' WHERE k = {k}",
                 None))
            stream.append(
                (f"SELECT k FROM kv WHERE s = 't{rng.randrange(4)}' "
                 "ORDER BY k", None))
        elif kind == 6:
            stream.append(
                (f"UPDATE kv SET v = 9 WHERE k = {k}; "
                 f"SELECT v FROM kv WHERE k = {k}", None))
        elif kind == 7:
            stream.append(("BEGIN", None))
            for _ in range(rng.randrange(1, 4)):
                key = rng.randrange(ROWS)
                stream.append(
                    (f"UPDATE kv SET v = v + 1 WHERE k = {key}", None))
                stream.append((f"SELECT v FROM kv WHERE k = {key}", None))
            stream.append((rng.choice(["COMMIT", "ROLLBACK"]), None))
        else:
            stream.append(
                (f"SELECT k, v FROM kv WHERE v >= {rng.randrange(50)} "
                 "ORDER BY k LIMIT 10", None))
    return stream


def outcome(run):
    try:
        result = run()
    except Exception as exc:  # noqa: BLE001 — the type is what is compared
        return ("error", type(exc).__name__)
    return ("ok", result.columns, result.rows, result.rowcount)


def reference(session, sql, params):
    """The text parsed fresh, each statement through the parsed door
    under its own text."""
    result = None
    texts = []
    for statement, text in zip(parse_script(sql, texts), texts):
        result = session.execute_one_parsed(statement, text, params)
    return result


@pytest.mark.parametrize("door", sorted(DOORS))
@pytest.mark.parametrize("seed", [None, 12, 41, 2026])
def test_text_door_equals_fresh_parse_per_statement(door, seed):
    stream = FIXED if seed is None else random_stream(seed)
    cached, plain = DOORS[door](), DOORS[door]()
    seed_rows(cached)
    seed_rows(plain)
    text_session = cached.connect(database="shop")
    parsed_session = plain.connect(database="shop")
    for sql, params in stream:
        got = outcome(lambda: text_session.execute(sql, params))
        want = outcome(lambda: reference(parsed_session, sql, params))
        assert got == want, (sql, params)
    for session in (text_session, parsed_session):
        session.execute("ROLLBACK")
        session.close()
    assert signatures(cached) == signatures(plain)
    assert cached.stats == plain.stats  # routed and committed alike


def test_shape_seen_before_its_table_is_registered_routes_by_the_spec():
    """A route plan compiled while ``t2`` was unsharded must not outlive
    ``register_table`` now that the shape keeps one tree."""
    cluster = build_composed_cluster(shards=2, replicas=2)
    session = cluster.connect(database="shop")
    session.execute("CREATE TABLE t2 (k INT PRIMARY KEY, v INT)")
    assert session.execute("SELECT v FROM t2 WHERE k = 1").rows == []
    assert session.execute("SELECT v FROM t2 WHERE k = ?", [1]).rows == []
    cluster.register_table("t2", "k", HashSharder(2))
    for k in range(8):
        session.execute(f"INSERT INTO t2 (k, v) VALUES ({k}, {k * 10})")
    single_shard = cluster.stats["single_shard"]
    for k in range(8):
        assert session.execute(
            f"SELECT v FROM t2 WHERE k = {k}").rows == [(k * 10,)]
        assert session.execute(
            "SELECT v FROM t2 WHERE k = ?", [k]).rows == [(k * 10,)]
    assert cluster.stats["single_shard"] - single_shard == 16
    session.close()


# -- memo counts -------------------------------------------------------------

def shape_memos(cluster):
    """The access-shape memo of every ``kv`` table instance."""
    return [replica.engine.database("shop").table("kv").access_shapes
            for group in cluster.groups for replica in group.replicas]


def compiled_memos(cluster):
    """The compiled-statement memo of every engine."""
    return [replica.engine.executor.compiled
            for group in cluster.groups for replica in group.replicas]


def memos(cluster):
    """``[route plans, analyses, *access shapes]``."""
    return [cluster.route_plans, analysis.analyses, *shape_memos(cluster)]


def counters(memo_list):
    return [(memo.hits, memo.misses, memo.evictions) for memo in memo_list]


def counted_since(memo_list, before):
    """Summed ``(hits, misses, evictions)`` since ``before``."""
    deltas = [tuple(now - then for now, then in zip(after, start))
              for after, start in zip(counters(memo_list), before)]
    return tuple(sum(column) for column in zip(*deltas))


def test_one_shape_is_one_entry_in_every_memo():
    cluster = sharded_door()
    seed_rows(cluster)
    analysis.analyses.clear()
    cluster.route_plans.clear()
    shapes = shape_memos(cluster)
    compiled = compiled_memos(cluster)
    for memo in shapes + compiled:
        memo.clear()
    routes, analyses = cluster.route_plans, analysis.analyses
    cache = cluster.statements
    session = cluster.connect(database="shop")

    hits, misses = cache.hits, cache.misses
    before = counters(memos(cluster))
    compiled_before = counters(compiled)
    for n in range(1000):
        session.execute("SELECT s FROM kv WHERE k = ?", [n % ROWS])
    assert (cache.hits - hits, cache.misses - misses) == (999, 1)
    assert len(routes) == 1 and len(analyses) == 1
    assert counted_since([routes], before[:1]) == (999, 1, 0)
    assert counted_since([analyses], before[1:2]) == (999, 1, 0)
    # one access shape per table instance the reads were balanced to:
    # each missed once and hit ever after
    plans = sum(len(memo) for memo in shapes)
    assert 1 <= plans <= 4 and max(len(memo) for memo in shapes) == 1
    assert counted_since(shapes, before[2:]) == (1000 - plans, plans, 0)
    # and its closures were built once per engine that ran it
    assert [len(memo) for memo in compiled] == [len(memo) for memo in shapes]
    assert counted_since(compiled, compiled_before) \
        == (1000 - plans, plans, 0)

    hits, misses = cache.hits, cache.misses
    for n in range(1000):
        session.execute(f"SELECT v, s FROM kv WHERE k = {n}")
    assert (cache.hits - hits, cache.misses - misses) == (999, 1)
    assert len(routes) == 2 and len(analyses) == 2
    assert sum(len(memo) for memo in shapes) <= 8
    assert max(len(memo) for memo in shapes) <= 2
    assert counted_since([routes, analyses], before[:2]) == (3996, 4, 0)
    session.close()


def test_distinct_texts_leave_every_cache_bounded():
    cluster = sharded_door()
    seed_rows(cluster)
    cache = cluster.statements
    session = cluster.connect(database="shop")
    evictions = cache.evictions
    before = counters(memos(cluster))
    for n in range(10_000):
        session.execute(f"SELECT v FROM kv WHERE k = 1 AND s <> 'x{n}'")
    session.close()
    assert len(cache) == CAPACITY
    assert cache.evictions - evictions >= 10_000 - CAPACITY
    for memo in memos(cluster):
        assert len(memo) <= CAPACITY
    # the memos that saw every text evicted one by one — they are full,
    # not reset to empty
    assert len(cluster.route_plans) == len(analysis.analyses) == CAPACITY
    for memo, (_hits, _misses, evicted) in zip(memos(cluster)[:2], before):
        assert memo.evictions - evicted >= 10_000 - CAPACITY
    assert counted_since(shape_memos(cluster), before[2:])[2] > 0
    assert max(len(memo) for memo in shape_memos(cluster)) == CAPACITY
    for group in cluster.groups:
        assert len(group.statements) <= CAPACITY


# -- result-cache keys on the literal path ----------------------------------

def cache_stats(front, key):
    groups = getattr(front, "groups", [front])
    return sum(group.result_cache.stats[key] for group in groups)


@pytest.mark.parametrize("door", sorted(DOORS))
def test_literal_reads_fill_hit_invalidate_and_never_collide(door):
    front = DOORS[door](result_cache=ResultCacheConfig())
    seed_rows(front)
    session = front.connect(database="shop")
    read7 = "SELECT v FROM kv WHERE k = 7"

    assert session.execute(read7).scalar() == 70
    assert cache_stats(front, "fills") == 1
    assert session.execute(read7).scalar() == 70
    assert cache_stats(front, "hits") == 1

    # another key of the same shape is its own entry
    assert session.execute("SELECT v FROM kv WHERE k = 8").scalar() == 80
    assert cache_stats(front, "hits") == 1
    assert cache_stats(front, "fills") == 2

    session.execute("UPDATE kv SET v = v + 1 WHERE k = 7")
    assert cache_stats(front, "invalidated_entries") == 1
    assert session.execute(read7).scalar() == 71
    assert session.execute(read7).scalar() == 71
    assert cache_stats(front, "hits") == 2
    # k = 8 was neither invalidated nor answered from k = 7's entry
    assert session.execute("SELECT v FROM kv WHERE k = 8").scalar() == 80
    assert cache_stats(front, "hits") == 3
    session.close()


SCRIPTS = [
    "SELECT v FROM kv WHERE k = 2; SELECT v FROM kv WHERE k = 4",
    "SELECT COUNT(*) FROM kv; SELECT MAX(v) FROM kv",
    "SELECT v FROM kv WHERE k = ?; SELECT s FROM kv WHERE k = ?",
]


@pytest.mark.parametrize("door", sorted(DOORS))
def test_a_script_is_never_answered_under_its_own_text(door):
    """The text of a script is no statement's identity: with the result
    cache on, a script answers — first time and again — what a cache-off
    cluster answers."""
    cached = DOORS[door](result_cache=ResultCacheConfig())
    plain = DOORS[door]()
    seed_rows(cached)
    seed_rows(plain)
    session = cached.connect(database="shop")
    reference_session = plain.connect(database="shop")
    for sql in SCRIPTS:
        params = [4] if "?" in sql else None
        want = outcome(lambda: reference_session.execute(sql, params))
        for _ in range(2):
            assert outcome(lambda: session.execute(sql, params)) \
                == want, sql
    session.close()
    reference_session.close()


def test_the_shard_door_caches_a_script_statement_by_statement():
    """Each statement reaches its group under its own text, so it shares
    its cache entry with the same statement sent alone.  (A script sent
    straight to one middleware is not a cache client at all:
    ``tests/cache/test_consistency_gate.py``.)"""
    cluster = sharded_door(result_cache=ResultCacheConfig())
    seed_rows(cluster)
    session = cluster.connect(database="shop")
    session.execute(SCRIPTS[0])
    assert (cache_stats(cluster, "fills"), cache_stats(cluster, "hits")) \
        == (2, 0)
    assert session.execute("SELECT v FROM kv WHERE k = 4").scalar() == 40
    session.execute(SCRIPTS[0])
    assert (cache_stats(cluster, "fills"), cache_stats(cluster, "hits")) \
        == (2, 3)
    session.close()
