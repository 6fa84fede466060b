#!/usr/bin/env python3
"""Consistency-aware result caching at the middleware (sections 4.1, 4.3).

A C-JDBC-style middleware sees every statement, so it can answer repeated
reads from a result cache without touching any replica — *if* it
invalidates from the same certified writeset stream that drives
replication, and *if* each hit is admitted by the session's consistency
protocol.  This example walks the life of the cache:

1. a point read fills the cache; the repeat is served without a replica;
2. a certified write kills exactly the entries it touches — unrelated
   keys keep hitting;
3. EXPLAIN reports the cache decision next to the access path;
4. a strict protocol (1SR) bypasses the cache entirely, and a degraded
   cluster serves an explicitly-labelled bounded-staleness hit.

Each step asserts what it prints, so the run doubles as a smoke test of
the cache's door (``python examples/cached_read_scaleout.py`` exits
non-zero on any departure).
"""

from repro.bench import build_cluster
from repro.cache import ResultCacheConfig
from repro.core import protocol_by_name
from repro.core.resilience import ResiliencePolicy


def cached(result) -> bool:
    return getattr(result, "from_cache", False)


def show(result, label):
    origin = "cache" if cached(result) else "replica"
    stale = " STALE(lag=%d)" % result.lag \
        if getattr(result, "stale", False) else ""
    print(f"  {label:<38} -> {result.rows!r:<12} from {origin}{stale}")
    return result


def main() -> None:
    middleware = build_cluster(
        3, replication="writeset", propagation="sync", consistency="gsi",
        result_cache=ResultCacheConfig(capacity=1024),
        resilience=ResiliencePolicy(max_staleness=100))
    session = middleware.connect(database="shop")
    session.execute("CREATE TABLE kv (k INT PRIMARY KEY, v INT)")
    for k in range(10):
        session.execute(f"INSERT INTO kv (k, v) VALUES ({k}, {k * 10})")

    print("== fill, then hit ==")
    for k in (3, 4):
        first = show(session.execute(f"SELECT v FROM kv WHERE k = {k}"),
                     f"first read k={k}")
        repeat = show(session.execute(f"SELECT v FROM kv WHERE k = {k}"),
                      f"repeat read k={k}")
        assert not cached(first) and cached(repeat)
        assert first.rows == repeat.rows == [(k * 10,)]

    print("\n== writeset-driven invalidation is key-granular ==")
    session.execute("UPDATE kv SET v = 999 WHERE k = 3")
    written = show(session.execute("SELECT v FROM kv WHERE k = 3"),
                   "read k=3 after write to k=3")
    untouched = show(session.execute("SELECT v FROM kv WHERE k = 4"),
                     "read k=4 (untouched, still cached)")
    assert not cached(written) and written.rows == [(999,)]
    assert cached(untouched) and untouched.rows == [(40,)]

    print("\n== EXPLAIN shows the cache decision ==")
    rows = session.execute("EXPLAIN SELECT v FROM kv WHERE k = 4").rows
    for row in rows:
        print(f"  {row}")
    assert rows[-1] == ("CACHE", "*", "cache hit", 0)

    print("\n== a strict protocol refuses the cache ==")
    strict = build_cluster(3, replication="statement", consistency="1sr",
                           result_cache=ResultCacheConfig(), name="strict")
    s1 = strict.connect(database="shop")
    s1.execute("CREATE TABLE kv (k INT PRIMARY KEY, v INT)")
    s1.execute("INSERT INTO kv (k, v) VALUES (1, 10)")
    for label in ("1SR first read", "1SR repeat read"):
        assert not cached(show(s1.execute("SELECT v FROM kv WHERE k = 1"),
                               label))
    stats = strict.result_cache.stats
    print(f"  1SR bypasses: {stats['bypass_protocol']} "
          f"(hits: {stats['hits']})")
    assert stats["bypass_protocol"] == 2 and stats["hits"] == 0
    s1.close()

    print("\n== degraded mode: labelled bounded-staleness hit ==")
    middleware.master.mark_failed()
    # pretend the certified stream is one publication behind
    middleware.cache_invalidator.applied_seq -= 1
    middleware.config.consistency = protocol_by_name("strong-si")
    degraded = show(session.execute("SELECT v FROM kv WHERE k = 4"),
                    "strong-si read, master down")
    assert cached(degraded) and degraded.stale and degraded.lag == 1
    assert degraded.rows == [(40,)]

    print("\n== cache snapshot ==")
    snapshot = middleware.cache_snapshot()
    for key, value in sorted(snapshot.items()):
        print(f"  {key:<22} {value}")
    assert (snapshot["hits"], snapshot["stale_hits"]) == (3, 1)
    session.close()


if __name__ == "__main__":
    main()
