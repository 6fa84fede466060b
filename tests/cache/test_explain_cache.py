"""EXPLAIN reports what the result cache would do with the statement."""

import pytest

from repro.cache import ResultCacheConfig
from repro.core import (
    MiddlewareConfig, ReplicationMiddleware, protocol_by_name,
)
from repro.sqlengine import parse_script
from tests.conftest import KV_SCHEMA, make_replicas, seed_kv


def cache_decision(result):
    for row in result.rows:
        if row[0] == "CACHE":
            return row[2]
    return None


@pytest.fixture
def mw():
    replicas = make_replicas(3, schema=KV_SCHEMA)
    middleware = ReplicationMiddleware(
        replicas,
        MiddlewareConfig(replication="statement",
                         consistency=protocol_by_name("gsi"),
                         result_cache=ResultCacheConfig()))
    seed_kv(middleware)
    return middleware


class TestExplainCacheRow:
    def test_cold_statement_reports_miss(self, mw):
        s = mw.connect(database="shop")
        result = s.execute("EXPLAIN SELECT v FROM kv WHERE k = 1")
        assert cache_decision(result) == "cache miss"
        s.close()

    def test_filled_statement_reports_hit(self, mw):
        s = mw.connect(database="shop")
        s.execute("SELECT v FROM kv WHERE k = 1")
        result = s.execute("EXPLAIN SELECT v FROM kv WHERE k = 1")
        assert cache_decision(result) == "cache hit"
        s.close()

    def test_explain_itself_is_never_cached(self, mw):
        s = mw.connect(database="shop")
        s.execute("EXPLAIN SELECT v FROM kv WHERE k = 1")
        result = s.execute("EXPLAIN SELECT v FROM kv WHERE k = 1")
        assert not getattr(result, "from_cache", False)
        assert len(mw.result_cache) == 0
        s.close()

    def test_uncacheable_statement_is_reported(self, mw):
        s = mw.connect(database="shop")
        result = s.execute(
            "EXPLAIN SELECT v, NOW() FROM kv WHERE k = 1")
        assert cache_decision(result) == "cache bypass (uncacheable)"
        s.close()

    def test_transaction_bypass_is_reported(self, mw):
        s = mw.connect(database="shop")
        s.execute("BEGIN")
        result = s.execute("EXPLAIN SELECT v FROM kv WHERE k = 1")
        assert cache_decision(result) == "cache bypass (transaction)"
        s.execute("ROLLBACK")
        s.close()

    def test_session_statement_disables_caching(self, mw):
        s = mw.connect(database="shop")
        s.execute("USE shop")
        result = s.execute("EXPLAIN SELECT v FROM kv WHERE k = 1")
        assert cache_decision(result) == "cache bypass (session)"
        s.close()

    def test_a_temp_table_shadowing_the_entry_is_reported(self, mw):
        filler = mw.connect(database="shop")
        filler.execute("SELECT v FROM kv WHERE k = 1")
        s = mw.connect(database="shop")
        s.execute("CREATE TEMPORARY TABLE kv (k INT PRIMARY KEY, v INT)")
        # an EXPLAIN naming the temp table runs on the session's pinned
        # replica and never reaches the cache: it carries no CACHE row
        sql = "EXPLAIN SELECT v FROM kv WHERE k = 1"
        assert cache_decision(s.execute(sql)) is None
        # the gate, asked anyway, names the shadow (what lookup would do)
        (statement,) = parse_script(sql)
        assert mw.cache_gate.explain(s, statement, sql, []) \
            == "cache bypass (temp)"
        assert cache_decision(filler.execute(sql)) == "cache hit"
        filler.close()
        s.close()

    def test_broadcast_protocol_bypass_is_reported(self):
        replicas = make_replicas(3, schema=KV_SCHEMA)
        middleware = ReplicationMiddleware(
            replicas,
            MiddlewareConfig(replication="statement",
                             consistency=protocol_by_name("1sr"),
                             result_cache=ResultCacheConfig()))
        seed_kv(middleware)
        s = middleware.connect(database="shop")
        result = s.execute("EXPLAIN SELECT v FROM kv WHERE k = 1")
        assert cache_decision(result) == "cache bypass (protocol)"
        s.close()

    def test_no_cache_row_when_cache_is_off(self):
        replicas = make_replicas(3, schema=KV_SCHEMA)
        middleware = ReplicationMiddleware(
            replicas, MiddlewareConfig(replication="statement"))
        seed_kv(middleware)
        s = middleware.connect(database="shop")
        result = s.execute("EXPLAIN SELECT v FROM kv WHERE k = 1")
        assert cache_decision(result) is None
        s.close()
