"""The consistency gate: which protocol may serve which cached entry,
and how degraded mode turns shortfalls into labelled-stale hits."""

import ast
from pathlib import Path

import pytest

from repro.cache import (
    GATE_BYPASS_PROTOCOL, GATE_HIT, GATE_REJECT, GATE_STALE,
    ResultCacheConfig,
)
from repro.core import (
    MiddlewareConfig, ReplicationMiddleware, RetryExhausted,
    protocol_by_name,
)
from repro.core.resilience import ResiliencePolicy
from tests.conftest import KV_SCHEMA, make_replicas, seed_kv


def cached_cluster(consistency, replication="writeset",
                   propagation="sync", resilience=None):
    replicas = make_replicas(3, schema=KV_SCHEMA)
    middleware = ReplicationMiddleware(
        replicas,
        MiddlewareConfig(replication=replication, propagation=propagation,
                         consistency=protocol_by_name(consistency),
                         resilience=resilience,
                         result_cache=ResultCacheConfig()))
    middleware.interleave_auto_increment()
    seed_kv(middleware)
    return middleware


class TestProtocolBypass:
    def test_1sr_never_touches_the_cache(self):
        mw = cached_cluster("1sr", replication="statement")
        s = mw.connect(database="shop")
        for _ in range(3):
            result = s.execute("SELECT v FROM kv WHERE k = 1")
            assert not getattr(result, "from_cache", False)
        stats = mw.result_cache.stats
        assert stats["hits"] == 0 and stats["fills"] == 0
        assert stats["bypass_protocol"] > 0
        assert len(mw.result_cache) == 0
        s.close()

    def test_gate_reports_bypass_for_broadcast(self):
        mw = cached_cluster("1sr", replication="statement")
        s = mw.connect(database="shop")
        assert mw.cache_gate.decide(s) == (GATE_BYPASS_PROTOCOL, 0)
        s.close()


def test_the_protocol_half_of_the_rule_is_written_once():
    """"Broadcast protocols bypass the cache" is written once, in the
    gate's ``_bypasses``, which every door asks; the staleness budget is
    asked once for the cache — ``decide`` — and once more for lagging
    replicas."""
    src = Path(__file__).resolve().parents[2] / "src" / "repro"
    broadcast, bypass_askers, budget = [], [], []
    for path in sorted(src.rglob("*.py")):
        module = path.relative_to(src).as_posix()
        for function in ast.walk(ast.parse(path.read_text())):
            if not isinstance(function, ast.FunctionDef):
                continue
            for node in ast.walk(function):
                if isinstance(node, ast.Compare) \
                        and isinstance(node.left, ast.Attribute) \
                        and node.left.attr == "write_mode" \
                        and any(isinstance(c, ast.Constant)
                                and c.value == "broadcast"
                                for c in node.comparators):
                    broadcast.append((module, function.name))
                if isinstance(node, ast.Call) \
                        and isinstance(node.func, ast.Attribute) \
                        and node.func.attr == "_bypasses":
                    bypass_askers.append((module, function.name))
                if isinstance(node, ast.Call) \
                        and isinstance(node.func, ast.Attribute) \
                        and node.func.attr == "serve_stale":
                    budget.append((module, function.name))
    assert broadcast == [("cache/gate.py", "_bypasses")]
    # lookup and fallback ask through decide
    assert sorted(bypass_askers) == [("cache/gate.py", "decide"),
                                     ("cache/gate.py", "explain"),
                                     ("cache/gate.py", "fill")]
    assert sorted(budget) == [("cache/gate.py", "decide"),
                              ("core/middleware.py", "_choose_read_replica")]


class TestSnapshotFamily:
    def test_gsi_serves_any_cached_prefix(self):
        mw = cached_cluster("gsi")
        s = mw.connect(database="shop")
        s.execute("SELECT v FROM kv WHERE k = 1")
        assert mw.cache_gate.decide(s) == (GATE_HIT, 0)
        result = s.execute("SELECT v FROM kv WHERE k = 1")
        assert result.from_cache and not result.stale
        s.close()

    def test_hits_skip_the_balancer(self):
        mw = cached_cluster("gsi")
        s = mw.connect(database="shop")
        s.execute("SELECT v FROM kv WHERE k = 1")
        decisions = mw.config.balancer.decisions
        s.execute("SELECT v FROM kv WHERE k = 1")
        assert mw.config.balancer.decisions == decisions
        assert mw.config.balancer.cache_bypasses == 1
        s.close()

    def test_strong_si_hits_while_watermark_is_current(self):
        mw = cached_cluster("strong-si")
        s = mw.connect(database="shop")
        s.execute("SELECT v FROM kv WHERE k = 1")
        s.execute("UPDATE kv SET v = 7 WHERE k = 2")  # seq moves + publish
        assert mw.cache_invalidator.applied_seq == mw.global_seq
        result = s.execute("SELECT v FROM kv WHERE k = 1")
        assert result.from_cache
        s.close()

    def test_strong_si_rejects_a_lagging_watermark(self):
        mw = cached_cluster("strong-si")
        s = mw.connect(database="shop")
        s.execute("SELECT v FROM kv WHERE k = 1")
        # simulate a certified commit whose publication the invalidator
        # has not yet seen: the global sequence is ahead of the watermark
        mw.cache_invalidator.applied_seq -= 1
        assert mw.cache_gate.decide(s) == (GATE_REJECT, 1)
        result = s.execute("SELECT v FROM kv WHERE k = 1")
        assert not getattr(result, "from_cache", False)
        assert mw.result_cache.stats["gate_rejections"] >= 1
        s.close()

    def test_gsi_tolerates_the_same_lag(self):
        mw = cached_cluster("gsi")
        s = mw.connect(database="shop")
        s.execute("SELECT v FROM kv WHERE k = 1")
        mw.cache_invalidator.applied_seq -= 1
        assert mw.cache_gate.decide(s) == (GATE_HIT, 0)
        s.close()


class TestSessionProtocols:
    def test_session_reads_its_own_writes_through_the_cache(self):
        mw = cached_cluster("strong-session-si",
                            replication="statement")
        s = mw.connect(database="shop")
        s.execute("UPDATE kv SET v = 5 WHERE k = 1")
        first = s.execute("SELECT v FROM kv WHERE k = 1")
        assert first.rows == [(5,)]
        again = s.execute("SELECT v FROM kv WHERE k = 1")
        assert again.from_cache and again.rows == [(5,)]
        s.close()

    def test_writer_session_rejects_stale_watermark_reader_hits(self):
        mw = cached_cluster("pcsi")
        writer = mw.connect(database="shop")
        reader = mw.connect(database="shop")
        reader.execute("SELECT v FROM kv WHERE k = 1")
        writer.execute("UPDATE kv SET v = 3 WHERE k = 2")
        # hold the watermark behind the writer's commit
        mw.cache_invalidator.applied_seq -= 1
        decision, lag = mw.cache_gate.decide(writer)
        assert decision == GATE_REJECT and lag == 1
        # the read-only session demands nothing it has not seen
        assert mw.cache_gate.decide(reader) == (GATE_HIT, 0)
        writer.close()
        reader.close()


class TestDegradedServing:
    def test_stale_hit_is_labelled_under_degraded_strong_si(self):
        mw = cached_cluster(
            "strong-si",
            resilience=ResiliencePolicy(max_staleness=10))
        s = mw.connect(database="shop")
        s.execute("SELECT v FROM kv WHERE k = 1")
        mw.master.mark_failed()          # degraded: master gone
        mw.cache_invalidator.applied_seq -= 1
        assert mw.cache_gate.decide(s) == (GATE_STALE, 1)
        result = s.execute("SELECT v FROM kv WHERE k = 1")
        assert result.from_cache and result.stale and result.lag == 1
        assert mw.result_cache.stats["stale_hits"] == 1
        assert mw.resilience.stats["stale_cache_served"] == 1
        s.close()

    def test_staleness_budget_bounds_the_lag(self):
        mw = cached_cluster(
            "strong-si",
            resilience=ResiliencePolicy(max_staleness=2))
        s = mw.connect(database="shop")
        s.execute("SELECT v FROM kv WHERE k = 1")
        mw.master.mark_failed()
        mw.cache_invalidator.applied_seq -= 5
        assert mw.cache_gate.decide(s) == (GATE_REJECT, 5)
        s.close()

    def test_total_outage_falls_back_to_fresh_cache_hit(self):
        mw = cached_cluster(
            "gsi", resilience=ResiliencePolicy(max_staleness=10))
        s = mw.connect(database="shop")
        kept = s.execute("SELECT v FROM kv WHERE k = 1")
        for replica in mw.replicas:
            replica.mark_failed()
        # gsi: the entry is as fresh as the protocol demands, so the
        # outage is invisible for this read
        result = s.execute("SELECT v FROM kv WHERE k = 1")
        assert result.from_cache and not result.stale
        assert result.rows == kept.rows
        s.close()


def _crash_every_engine_after_choosing(mw):
    """The read is routed, then the whole cluster dies under it: every
    replica the balancer picks is gone before the statement reaches it."""
    choose = mw.config.balancer.choose

    def choose_then_crash(*args, **kwargs):
        chosen = choose(*args, **kwargs)
        for replica in mw.replicas:
            replica.engine.crash()
        return chosen
    mw.config.balancer.choose = choose_then_crash


class TestStaleFallback:
    """No replica can serve: a degraded cluster answers from the cache,
    labelled stale, inside the staleness budget — and only there."""

    def lagging_entry(self, max_staleness, lag):
        mw = cached_cluster(
            "strong-si",
            resilience=ResiliencePolicy(max_staleness=max_staleness))
        s = mw.connect(database="shop")
        s.execute("SELECT v FROM kv WHERE k = 1")
        mw.cache_invalidator.applied_seq -= lag
        _crash_every_engine_after_choosing(mw)
        return mw, s

    def test_a_lagging_entry_is_served_stale_when_no_replica_can(self):
        mw, s = self.lagging_entry(max_staleness=10, lag=1)
        result = s.execute("SELECT v FROM kv WHERE k = 1")
        assert result.from_cache and result.stale and result.lag == 1
        assert result.rows == [(0,)]
        # the fast path refused it (the cluster was healthy then) ...
        assert mw.result_cache.stats["gate_rejections"] == 1
        # ... and the fallback served it once every replica was gone
        (span,) = [span for span in mw.tracer.finished_spans()
                   if span.name == "mw.statement"
                   and span.tags.get("cache") == "stale_fallback"]
        events = [attrs for _time, name, attrs in span.events
                  if name == "degraded_read"]
        assert events == [{"lag": 1, "source": "result_cache"}]
        assert mw.result_cache.stats["stale_hits"] == 1
        assert mw.resilience.stats["stale_cache_served"] == 1
        s.close()

    def test_beyond_the_budget_the_read_fails(self):
        mw, s = self.lagging_entry(max_staleness=2, lag=5)
        with pytest.raises(RetryExhausted):
            s.execute("SELECT v FROM kv WHERE k = 1")
        assert mw.result_cache.stats["stale_hits"] == 0
        s.close()


class TestTempTableShadow:
    def test_temp_table_shadowing_vetoes_the_cached_entry(self):
        mw = cached_cluster("gsi", replication="statement")
        filler = mw.connect(database="shop")
        filler.execute("SELECT v FROM kv WHERE k = 1")
        assert len(mw.result_cache) == 1
        shadow = mw.connect(database="shop")
        shadow.execute(
            "CREATE TEMPORARY TABLE kv (k INT PRIMARY KEY, v INT)")
        shadow.execute("INSERT INTO kv (k, v) VALUES (77, 1)")
        result = shadow.execute("SELECT v FROM kv WHERE k = 1")
        assert not getattr(result, "from_cache", False)
        assert result.rows == []  # the temp table answered, not the cache
        filler.close()
        shadow.close()


class TestMultiStatementSafety:
    def test_scripts_never_fill_or_hit_the_cache(self):
        mw = cached_cluster("gsi", replication="statement")
        s = mw.connect(database="shop")
        s.execute("SELECT v FROM kv WHERE k = 4; SELECT v FROM kv "
                  "WHERE k = 5")
        assert len(mw.result_cache) == 0
        s.close()

    def test_recovery_resets_the_cache(self):
        mw = cached_cluster("gsi", replication="statement")
        s = mw.connect(database="shop")
        s.execute("SELECT v FROM kv WHERE k = 1")
        assert len(mw.result_cache) == 1
        mw.fail()
        mw.recover()
        assert len(mw.result_cache) == 0
        assert mw.cache_invalidator.applied_seq == mw.global_seq
