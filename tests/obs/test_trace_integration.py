"""Tracing wired through the live middleware: every executed statement
produces exactly one root ``mw.statement`` span whose children cover the
balancer, the replicas, certification and propagation — with zero
orphans (paper section 5.1: explaining requests, not just counting
them)."""

from repro.cache import ResultCacheConfig
from repro.core import (
    MiddlewareConfig, ReplicationMiddleware, protocol_by_name,
)
from repro.metrics.breakdown import trace_root
from tests.conftest import KV_SCHEMA, make_replicas, seed_kv


def build(replication="writeset", consistency="gsi", propagation="sync",
          result_cache=None, tracing=True, trace_retention=512, n=3):
    replicas = make_replicas(n, schema=KV_SCHEMA)
    middleware = ReplicationMiddleware(
        replicas,
        MiddlewareConfig(replication=replication, propagation=propagation,
                         consistency=protocol_by_name(consistency),
                         result_cache=result_cache, tracing=tracing,
                         trace_retention=trace_retention))
    seed_kv(middleware, rows=5)
    middleware.pump()
    middleware.tracer.clear()  # setup traffic is not under test
    return middleware


def roots_named(tracer, name):
    return [s for s in tracer.roots() if s.name == name]


def child_names(tracer, root):
    spans = tracer.trace(root.trace_id)
    return [s.name for s in spans if s.parent_id == root.span_id]


class TestStatementCoverage:
    def test_every_statement_gets_exactly_one_root_span(self):
        middleware = build()
        session = middleware.connect(database="shop")
        statements = [
            "SELECT v FROM kv WHERE k = 0",
            "UPDATE kv SET v = 1 WHERE k = 0",
            "SELECT v FROM kv WHERE k = 1",
            "INSERT INTO kv (k, v) VALUES (50, 5)",
        ]
        for sql in statements:
            session.execute(sql)
        session.close()
        roots = roots_named(middleware.tracer, "mw.statement")
        assert len(roots) == len(statements)
        # the tag is the statement's shape: inlined literals read ``?``
        shapes = [
            "SELECT v FROM kv WHERE k = ?",
            "UPDATE kv SET v = ? WHERE k = ?",
            "SELECT v FROM kv WHERE k = ?",
            "INSERT INTO kv (k, v) VALUES (?, ?)",
        ]
        for root, sql in zip(sorted(roots, key=lambda s: s.span_id),
                             shapes):
            assert root.tags["sql"] == sql
            assert root.end_time is not None

    def test_read_has_balancer_and_replica_children(self):
        middleware = build()
        session = middleware.connect(database="shop")
        session.execute("SELECT v FROM kv WHERE k = 0")
        session.close()
        tracer = middleware.tracer
        root = roots_named(tracer, "mw.statement")[0]
        names = child_names(tracer, root)
        assert "balancer.choose" in names
        assert "replica.execute" in names
        choose = next(s for s in tracer.trace(root.trace_id)
                      if s.name == "balancer.choose")
        assert "replica" in choose.tags and "why" in choose.tags

    def test_write_trace_covers_certify_commit_propagate_apply(self):
        middleware = build()
        session = middleware.connect(database="shop")
        session.execute("UPDATE kv SET v = 9 WHERE k = 2")
        session.close()
        middleware.drain_all()
        tracer = middleware.tracer
        root = roots_named(tracer, "mw.statement")[0]
        spans = tracer.trace(root.trace_id)
        names = [s.name for s in spans]
        for expected in ("replica.execute", "certify", "replica.commit",
                         "propagate", "replica.apply"):
            assert expected in names, f"missing {expected}: {names}"
        certify = next(s for s in spans if s.name == "certify")
        assert certify.tags["ok"] is True and "seq" in certify.tags
        # sync propagation: one apply span per non-executing replica,
        # linked across the async boundary into the same trace
        applies = [s for s in spans if s.name == "replica.apply"]
        assert len(applies) == len(middleware.replicas) - 1
        propagate = next(s for s in spans if s.name == "propagate")
        for apply_span in applies:
            assert apply_span.parent_id == propagate.span_id
            assert "propagation_lag" in apply_span.tags

    def test_no_orphans_in_a_mixed_workload(self):
        middleware = build()
        session = middleware.connect(database="shop")
        for key in range(4):
            session.execute(f"UPDATE kv SET v = {key} WHERE k = {key}")
            session.execute(f"SELECT v FROM kv WHERE k = {key}")
        session.execute("BEGIN")
        session.execute("UPDATE kv SET v = 77 WHERE k = 0")
        session.execute("SELECT v FROM kv WHERE k = 0")
        session.execute("COMMIT")
        session.close()
        middleware.drain_all()
        tracer = middleware.tracer
        for spans in tracer.traces():
            ids = {s.span_id for s in spans}
            orphans = [s for s in spans
                       if s.parent_id is not None
                       and s.parent_id not in ids]
            assert orphans == [], f"orphan spans: {orphans}"
            assert trace_root(spans) is not None
        stats = tracer.snapshot()
        assert stats["spans_started"] == stats["spans_finished"]
        assert stats["spans_dropped"] == 0


class TestCacheAndTransactions:
    def test_cache_hit_produces_a_tagged_root(self):
        middleware = build(consistency="rsi-pc",
                           result_cache=ResultCacheConfig())
        session = middleware.connect(database="shop")
        sql = "SELECT v FROM kv WHERE k = 3"
        session.execute(sql)   # miss + fill
        session.execute(sql)   # hit: served without touching a replica
        session.close()
        tracer = middleware.tracer
        by_tag = {}
        for root in roots_named(tracer, "mw.statement"):
            if root.tags.get("sql") == "SELECT v FROM kv WHERE k = ?":
                by_tag.setdefault(root.tags.get("cache"), []).append(root)
        assert len(by_tag.get("miss", [])) == 1
        hits = by_tag.get("hit", [])
        assert len(hits) == 1
        assert hits[0].duration == 0.0
        # the hit never reached the balancer or a replica
        assert child_names(tracer, hits[0]) == []

    def test_transaction_statements_share_no_root(self):
        """Each statement is its own root trace; the transaction is the
        session-level story (chaos runs add a ``request`` root above)."""
        middleware = build()
        session = middleware.connect(database="shop")
        session.execute("BEGIN")
        session.execute("UPDATE kv SET v = 5 WHERE k = 1")
        session.execute("COMMIT")
        session.close()
        roots = roots_named(middleware.tracer, "mw.statement")
        assert [r.tags["sql"] for r in
                sorted(roots, key=lambda s: s.span_id)] == \
            ["BEGIN", "UPDATE kv SET v = ? WHERE k = ?", "COMMIT"]
        assert len({r.trace_id for r in roots}) == 3

    def test_commit_carries_certification_children(self):
        middleware = build()
        session = middleware.connect(database="shop")
        session.execute("BEGIN")
        session.execute("UPDATE kv SET v = 8 WHERE k = 4")
        session.execute("COMMIT")
        session.close()
        tracer = middleware.tracer
        commit_root = next(r for r in roots_named(tracer, "mw.statement")
                           if r.tags["sql"] == "COMMIT")
        names = child_names(tracer, commit_root)
        assert "certify" in names
        assert "replica.commit" in names
        assert "propagate" in names


class TestConfigKnobs:
    def test_tracing_off_records_nothing(self):
        middleware = build(tracing=False)
        session = middleware.connect(database="shop")
        session.execute("SELECT v FROM kv WHERE k = 0")
        session.execute("UPDATE kv SET v = 3 WHERE k = 3")
        session.close()
        middleware.drain_all()
        stats = middleware.tracer.snapshot()
        assert stats["spans_started"] == 0
        assert stats["retained_traces"] == 0

    def test_retention_bounds_middleware_traces(self):
        middleware = build(trace_retention=4)
        session = middleware.connect(database="shop")
        for index in range(10):
            session.execute(f"SELECT v FROM kv WHERE k = {index % 5}")
        session.close()
        stats = middleware.tracer.snapshot()
        assert stats["retained_traces"] == 4
        # 10 statements into 4 slots: at least 6 whole-trace evictions
        # (the exact counter includes pre-clear() setup traffic)
        assert stats["traces_evicted"] >= 6

    def test_trace_snapshot_and_explain_surface(self):
        middleware = build()
        session = middleware.connect(database="shop")
        session.execute("SELECT v FROM kv WHERE k = 0")
        session.close()
        snapshot = middleware.trace_snapshot()
        assert snapshot["spans_finished"] > 0
        assert middleware.monitor.count("trace_snapshot") == 1
        root = middleware.tracer.roots()[0]
        text = middleware.explain_request(root.trace_id)
        assert "TRACE" in text and "mw.statement" in text
        exported = middleware.export_traces()
        assert exported.count("\n") == snapshot["retained_spans"]

    def test_explain_unknown_trace_is_empty(self):
        middleware = build()
        assert middleware.explain_request(999999) == "(empty trace)"
