"""A `MiddlewareDown` leaves the middleware door labelled
`retry-after-failover` when an HA standby (or a promotion) gives the
retry somewhere to land, `fatal` otherwise — by the instance that raised
it; `repro.core.resilience` only counts the label."""

import pytest

from repro.bench.harness import build_cluster
from repro.core.errors import (
    FATAL, RETRY_AFTER_FAILOVER, FencedOut, MiddlewareDown,
)
from repro.core.resilience import ResiliencePolicy, RetryPolicy
from repro.ha import HAPair

DATABASE = "shop"


def make_resilient_leader():
    middleware = build_cluster(
        3, replication="writeset", propagation="sync", consistency="gsi",
        resilience=ResiliencePolicy(
            retry=RetryPolicy(max_attempts=2, base_backoff=0.01)))
    session = middleware.connect(database=DATABASE)
    session.execute("CREATE TABLE kv (k INT PRIMARY KEY, v INT)")
    session.execute("INSERT INTO kv (k, v) VALUES (0, 0)")
    session.close()
    return middleware


def test_fenced_out_is_classified_retry_after_failover():
    middleware = make_resilient_leader()
    pair = HAPair(middleware)
    session = middleware.connect(database=DATABASE)
    pair.promote()  # false positive: the leader is alive but deposed
    with pytest.raises(FencedOut) as excinfo:
        session.execute("UPDATE kv SET v = v + 1 WHERE k = 0")
    assert excinfo.value.retry == RETRY_AFTER_FAILOVER
    assert middleware.resilience.stats["failover_retries"] == 1


def test_middleware_down_with_standby_is_retry_after_failover():
    middleware = make_resilient_leader()
    HAPair(middleware)  # attaches a failover target
    session = middleware.connect(database=DATABASE)
    middleware.failed = True  # process death mid-request
    with pytest.raises(MiddlewareDown) as excinfo:
        session.execute("UPDATE kv SET v = v + 1 WHERE k = 0")
    assert excinfo.value.retry == RETRY_AFTER_FAILOVER


def test_middleware_down_without_standby_is_terminal():
    middleware = make_resilient_leader()
    session = middleware.connect(database=DATABASE)
    middleware.failed = True
    with pytest.raises(MiddlewareDown) as excinfo:
        session.execute("UPDATE kv SET v = v + 1 WHERE k = 0")
    assert excinfo.value.retry == FATAL
    assert middleware.resilience.stats["failover_retries"] == 0


def test_failover_retry_event_lands_on_the_statement_span():
    middleware = make_resilient_leader()
    middleware.tracer.enabled = True
    pair = HAPair(middleware)
    session = middleware.connect(database=DATABASE)
    pair.promote()
    with pytest.raises(FencedOut):
        session.execute("UPDATE kv SET v = v + 1 WHERE k = 0")
    names = [name for trace in middleware.tracer.traces()
             for span in trace for _, name, _ in span.events]
    assert "failover_retry" in names
