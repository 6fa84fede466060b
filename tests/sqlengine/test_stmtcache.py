"""The shared statement cache: one shape, one tree, bounded, honest
about parse errors."""

import pytest

from repro.sqlengine import Engine, ParseError
from repro.sqlengine.parser import parameterize_literals
from repro.sqlengine.stmtcache import StatementCache


def test_literal_texts_share_their_template():
    cache = StatementCache()
    first, text, values = cache.lookup("SELECT v FROM kv WHERE k = 7")
    second, _, other = cache.lookup("SELECT v FROM kv WHERE k = 4242")
    assert second is first
    assert text == "SELECT v FROM kv WHERE k = ?"
    assert (values, other) == ((7,), (4242,))
    assert (cache.hits, cache.misses) == (1, 1)
    # the template itself, as a client using explicit params sends it
    explicit, text, params = cache.lookup(text, [9])
    assert explicit is first and params == [9]


def test_explicit_params_and_unrewritable_texts_pass_through():
    cache = StatementCache()
    params = [3]
    # explicit params: never rewritten, even with a literal beside them
    _, text, out = cache.lookup(
        "SELECT v FROM kv WHERE k = ? LIMIT 10", params)
    assert text.endswith("LIMIT 10") and out is params
    for sql in ("SELECT v FROM kv WHERE s = 'x1'",      # quote gate
                "UPDATE kv SET v = 1; SELECT 2",        # script gate
                "CREATE INDEX kv_v ON kv (v)",          # verb gate
                "BEGIN"):
        statements, text, values = cache.lookup(sql)
        assert text == sql and values == ()
        assert cache.lookup(sql)[0] is statements


def test_values_cannot_be_mutated_through_the_cache():
    cache = StatementCache()
    _, _, values = cache.lookup("SELECT v FROM kv WHERE k = 7")
    bound = list(values)
    bound.append(99)
    assert cache.lookup("SELECT v FROM kv WHERE k = 7")[2] == (7,)
    assert isinstance(values, tuple)


def test_parse_error_is_raised_every_time_and_never_cached():
    cache = StatementCache()
    for _ in range(3):
        with pytest.raises(ParseError):
            cache.lookup("SELEC v FROM kv WHERE k = 1")
        with pytest.raises(ParseError):
            cache.parse("SELEC 1")
    assert cache.hits == 0 and cache.misses == 0
    assert "SELEC 1" not in cache


def test_plain_parse_of_a_rewritable_text_keeps_its_literals():
    """``Engine.parse`` promises the trees of exactly the text."""
    cache = StatementCache()
    cache.lookup("SELECT 1")
    plain = cache.parse("SELECT 1")
    assert plain is not cache.lookup("SELECT 2")[0]
    assert cache.lookup("SELECT 1") == (plain, "SELECT 1", ())


def test_lru_bound_and_eviction_count():
    cache = StatementCache(capacity=8)
    for n in range(50):
        cache.lookup(f"SELECT v FROM kv WHERE s = 'x{n}'")
    assert len(cache) == 8
    assert cache.evictions == 42
    # a hot template survives any number of cold literal texts
    for n in range(50):
        cache.lookup(f"SELECT v FROM kv WHERE k = {n}")
    assert "SELECT v FROM kv WHERE k = ?" in cache
    assert len(cache) == 8


def test_order_by_ordinal_survives_literal_rewriting():
    """``ORDER BY 2`` names an output column; rewritten to a bound
    parameter it would sort by a constant."""
    assert parameterize_literals("SELECT a, b FROM t ORDER BY 2") is None
    assert parameterize_literals(
        "SELECT a, b FROM t WHERE a > 0 ORDER BY 2 DESC LIMIT 3") == (
            "SELECT a, b FROM t WHERE a > ? ORDER BY 2 DESC LIMIT 3", [0])
    engine = Engine("ordinal")
    engine.create_database("d")
    conn = engine.connect(database="d")
    conn.execute("CREATE TABLE t (a INT PRIMARY KEY, b INT)")
    for a, b in [(1, 30), (2, 10), (3, 20)]:
        conn.execute(f"INSERT INTO t VALUES ({a}, {b})")
    assert conn.execute("SELECT a, b FROM t WHERE a > 0 ORDER BY 2").rows \
        == [(2, 10), (3, 20), (1, 30)]


def test_engine_keeps_its_prepare_contract_and_counts_by_increment():
    engine = Engine("contract")
    # not rewritable: None, nothing parsed, nothing counted
    assert engine.prepare_parameterized("SELECT v FROM kv WHERE s = 'x'") \
        is None
    assert engine.prepare_parameterized("BEGIN") is None
    assert engine.stats["parse_cache_misses"] == 0
    assert "BEGIN" not in engine._parse_cache

    statements, values = engine.prepare_parameterized(
        "SELECT v FROM kv WHERE k = 7")
    again, other = engine.prepare_parameterized(
        "SELECT v FROM kv WHERE k = 8")
    assert again is statements and (values, other) == ((7,), (8,))
    engine.prepare_parameterized("SELECT v FROM kv WHERE k = 7")
    assert engine.stats["parse_cache_misses"] == 1
    assert engine.stats["parse_cache_hits"] == 2
    assert engine.stats["statements"] == 3

    # the entries are counters of their own, not a mirror of the cache's
    engine.stats["parse_cache_hits"] = 0
    engine.parse("SELECT v FROM kv WHERE k = ?")
    assert engine.stats["parse_cache_hits"] == 1
