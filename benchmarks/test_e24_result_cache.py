"""E24 — §4.1/§4.3: consistency-aware result caching at the middleware.

C-JDBC-style middleware can answer read traffic from a result cache
without touching any replica — but only if invalidation is driven by the
same certified writeset stream that replication itself trusts, and only
if each hit is admitted by the session's consistency protocol.  Three
scenarios:

* **read_scaleout** — a read-mostly point-lookup workload (98% reads,
  zipf-ish hot set) through the full middleware stack, cache on vs off.
  The cache answers hot reads before routing or execution.  Gated: the
  cache-on arm's time per operation at reference speed, the time of
  one hit at reference speed (<=8 us), and the arm's hit rate and fill
  count, which repeat exactly.  The cache-on/cache-off throughput ratio
  is printed, not gated: its denominator, the uncached read, gets
  cheaper whenever the read path does (the statement cache took the
  ratio from ~5x to ~3.7x, later work to 2.8-3.6x), so a floor on it
  fails on progress.  A hit over the same statement on a bare replica
  engine is reported but not gated: it too fell as the engine got
  faster, to ~24 us.
* **invalidation_storm** — warm cache, then a write burst over the whole
  keyspace.  Every post-burst read must observe the new values (the
  writeset stream kills entries at key granularity), after which the
  hit rate recovers.
* **consistency_check** — per protocol (1sr, strong-si,
  strong-session-si, gsi): interleaved writers and readers with
  monotonically increasing version stamps.  A checker asserts zero
  violations: no invented values, strong protocols always read the
  latest commit, session protocols read their own writes, and every
  session observes per-key monotone versions.  1SR must bypass the
  cache entirely.

Results land in ``BENCH_e24.json``.  Correctness assertions and cache
counters are deterministic; the two read_scaleout times are wall-clock
divided by the machine's speed as the repository benchmark measures it
(``perf/driver.Machine``, imported read-only), so a slower runner or a
slow spell moves neither.
"""

import json
import random
import sys
import time
from pathlib import Path

from repro.bench import Report, build_cluster
from repro.cache import ResultCacheConfig

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "perf"))

import driver  # noqa: E402

BENCH_PATH = ROOT / "BENCH_e24.json"
SEED = 24
KEYSPACE = 500
HOT_KEYS = 64
#: the cache-on arm of read_scaleout (98 % reads), in us per operation at
#: reference speed: twenty alternating runs each of two builds measured
#: 12.6-23.9 us (medians 17.0 and 15.9) on a shared 2-core Xeon; the
#: slack above the slowest run is E23's
MAX_CACHED_OP_US = 28.0
#: one cache hit through the middleware, in us at reference speed: ten
#: alternating runs each of two builds measured 5.75-6.33 us on a 2-core
#: Xeon (median 6.0); the slack covers runners whose speed relative to
#: the calibration kernel differs from that machine's
MAX_HIT_US = 8.0
POINT_READ = "SELECT v FROM kv WHERE k = ?"


def make_cluster(consistency, cached, replication="writeset"):
    mw = build_cluster(
        count=3, replication=replication, consistency=consistency,
        propagation="sync",
        result_cache=ResultCacheConfig(capacity=4096) if cached else None,
        name=f"e24_{consistency}_{int(cached)}")
    session = mw.connect(database="shop")
    session.execute("CREATE TABLE kv (k INT PRIMARY KEY, v INT)")
    for k in range(KEYSPACE):
        session.execute(f"INSERT INTO kv (k, v) VALUES ({k}, 0)")
    session.close()
    return mw


def mixed_ops(count: int, rng: random.Random):
    """A seeded read-mostly schedule: (kind, key) pairs."""
    ops = []
    for _ in range(count):
        if rng.random() < 0.98:
            if rng.random() < 0.95:
                key = rng.randrange(HOT_KEYS)
            else:
                key = rng.randrange(KEYSPACE)
            ops.append(("read", key))
        else:
            ops.append(("write", rng.randrange(KEYSPACE)))
    return ops


def run_read_scaleout(ops_count: int = 2000, rounds: int = 3):
    """Both arms ``rounds`` times, alternating with calibration kernels,
    fastest run of each and fastest kernel kept, so one slow spell of
    the machine lands on all or on none."""
    schedule = mixed_ops(ops_count, random.Random(SEED))
    fastest = {False: float("inf"), True: float("inf")}
    machine = driver.Machine()
    speed = float("inf")
    for _ in range(rounds):
        speed = min(speed, machine.speed())
        for cached in (False, True):
            mw = make_cluster("gsi", cached)
            session = mw.connect(database="shop")
            version = 0
            start = time.perf_counter()
            for kind, key in schedule:
                if kind == "read":
                    session.execute(POINT_READ, [key])
                else:
                    version += 1
                    session.execute("UPDATE kv SET v = ? WHERE k = ?",
                                    [version, key])
            fastest[cached] = min(fastest[cached],
                                  time.perf_counter() - start)
            session.close()
    # the counters repeat exactly; read them off the last cached cluster
    snap = mw.result_cache.snapshot()
    out = {
        "cache_off": {"ops_per_sec": ops_count / fastest[False]},
        "cache_on": {
            "ops_per_sec": ops_count / fastest[True],
            "us_per_op_at_reference": fastest[True] / ops_count * 1e6
            / speed,
            "hit_rate": snap["hit_rate"],
            "fills": snap["fills"],
            "cache_bypassed_reads": mw.config.balancer.cache_bypasses,
        },
    }
    out["speedup"] = (out["cache_on"]["ops_per_sec"]
                      / out["cache_off"]["ops_per_sec"])
    out.update(run_hit_path(mw))
    return out


def run_hit_path(mw, laps: int = 10, lap_ops: int = 500):
    """What one hit costs, at reference speed and next to the same
    statement executed on a bare replica engine (no middleware at all).
    Each hit lap is divided by the machine speed a calibration kernel
    measured just before it, and the fastest of those ratios is kept: a
    lap and its speed come from the same moment, so a slow spell lands
    on both or on neither."""
    session = mw.connect(database="shop")
    connection = mw.replicas[0].engine.connect(database="shop")
    for key in range(HOT_KEYS):
        session.execute(POINT_READ, [key])      # make every lap all hits

    def lap(target):
        start = time.perf_counter()
        for n in range(lap_ops):
            target.execute(POINT_READ, [n % HOT_KEYS])
        return (time.perf_counter() - start) / lap_ops * 1e6

    machine = driver.Machine()
    hits = mw.result_cache.stats["hits"]
    at_reference = hit_us = speed = engine_us = float("inf")
    for _ in range(laps):
        lap_speed = machine.speed()
        lap_us = lap(session)
        if lap_us / lap_speed < at_reference:
            at_reference = lap_us / lap_speed
            hit_us, speed = lap_us, lap_speed
        engine_us = min(engine_us, lap(connection))
    assert mw.result_cache.stats["hits"] - hits == laps * lap_ops
    session.close()
    connection.close()
    return {"hit_us": hit_us, "machine_speed": speed,
            "hit_us_at_reference": at_reference,
            "engine_read_us": engine_us,
            "hit_cost_vs_engine_read": hit_us / engine_us}


def run_invalidation_storm():
    mw = make_cluster("gsi", cached=True)
    session = mw.connect(database="shop")
    model = {k: 0 for k in range(KEYSPACE)}

    # warm: every key cached, plus a broad aggregate
    for k in range(KEYSPACE):
        session.execute("SELECT v FROM kv WHERE k = ?", [k])
    session.execute("SELECT COUNT(*) FROM kv")
    warm_size = len(mw.result_cache)

    # storm: one write per key, certified through the writeset stream
    for k in range(KEYSPACE):
        model[k] = k + 1000
        session.execute("UPDATE kv SET v = ? WHERE k = ?", [model[k], k])
    stats = mw.result_cache.stats
    storm = {
        "warm_entries": warm_size,
        "entries_after_storm": len(mw.result_cache),
        "invalidated_entries": stats["invalidated_entries"],
        "invalidation_events": stats["invalidation_events"],
    }

    # every post-storm read must observe the burst
    stale_values = 0
    for k in range(KEYSPACE):
        value = session.execute("SELECT v FROM kv WHERE k = ?",
                                [k]).scalar()
        if value != model[k]:
            stale_values += 1
    storm["stale_values_after_storm"] = stale_values

    # and the hit rate recovers once re-warmed
    hits_before = stats["hits"]
    for k in range(KEYSPACE):
        session.execute("SELECT v FROM kv WHERE k = ?", [k])
    storm["recovered_hits"] = stats["hits"] - hits_before
    session.close()
    return storm


PROTOCOLS = ("1sr", "strong-si", "strong-session-si", "gsi")
STRONG = {"1sr", "strong-si"}


def run_consistency_check(protocol: str, ops_count: int = 1200):
    replication = "statement" if protocol == "1sr" else "writeset"
    mw = make_cluster(protocol, cached=True, replication=replication)
    rng = random.Random(SEED + PROTOCOLS.index(protocol))
    writer = mw.connect(database="shop")
    readers = [mw.connect(database="shop") for _ in range(3)]
    sessions = [writer] + readers

    model = {k: 0 for k in range(KEYSPACE)}
    history = {k: {0} for k in range(KEYSPACE)}
    last_seen = {}          # (session index, key) -> version
    own_writes = {}         # key -> version written by `writer`
    version = 0
    violations = []

    for _ in range(ops_count):
        key = rng.randrange(HOT_KEYS)
        if rng.random() < 0.25:
            version += 1
            writer.execute("UPDATE kv SET v = ? WHERE k = ?",
                           [version, key])
            model[key] = version
            history[key].add(version)
            own_writes[key] = version
        else:
            index = rng.randrange(len(sessions))
            session = sessions[index]
            result = session.execute("SELECT v FROM kv WHERE k = ?",
                                     [key])
            value = result.scalar()
            if getattr(result, "stale", False):
                violations.append(f"unrequested stale label on k={key}")
            if value not in history[key]:
                violations.append(
                    f"invented value {value} for k={key}")
            if protocol in STRONG and value != model[key]:
                violations.append(
                    f"{protocol}: k={key} read {value}, "
                    f"latest committed {model[key]}")
            if session is writer and protocol != "gsi" \
                    and key in own_writes and value < own_writes[key]:
                violations.append(
                    f"lost own write on k={key}: {value} < "
                    f"{own_writes[key]}")
            seen = last_seen.get((index, key))
            if seen is not None and value < seen:
                violations.append(
                    f"non-monotonic read on k={key}: {value} < {seen}")
            last_seen[(index, key)] = value

    stats = dict(mw.result_cache.stats)
    for session in sessions:
        session.close()
    return {
        "violations": violations,
        "hits": stats["hits"],
        "bypass_protocol": stats["bypass_protocol"],
        "fills": stats["fills"],
    }


def test_e24_result_cache(benchmark):
    def experiment():
        return {
            "read_scaleout": run_read_scaleout(),
            "invalidation_storm": run_invalidation_storm(),
            "consistency_check": {
                protocol: run_consistency_check(protocol)
                for protocol in PROTOCOLS
            },
        }

    results = benchmark.pedantic(experiment, rounds=1, iterations=1)

    scaleout = results["read_scaleout"]
    report = Report(
        "E24  Consistency-aware result cache (sections 4.1, 4.3)",
        ["scenario", "metric", "value"])
    report.add_row("read_scaleout", "ops/sec cache off",
                   round(scaleout["cache_off"]["ops_per_sec"], 1))
    report.add_row("read_scaleout", "ops/sec cache on",
                   round(scaleout["cache_on"]["ops_per_sec"], 1))
    report.add_row("read_scaleout", "us per op cache on at reference speed",
                   round(scaleout["cache_on"]["us_per_op_at_reference"], 2))
    report.add_row("read_scaleout", "speedup (not gated)",
                   round(scaleout["speedup"], 2))
    report.add_row("read_scaleout", "hit rate",
                   round(scaleout["cache_on"]["hit_rate"], 3))
    report.add_row("read_scaleout", "cache fills",
                   scaleout["cache_on"]["fills"])
    report.add_row("read_scaleout", "us per hit",
                   round(scaleout["hit_us"], 2))
    report.add_row("read_scaleout", "us per hit at reference speed",
                   round(scaleout["hit_us_at_reference"], 2))
    report.add_row("read_scaleout", "us per bare engine read",
                   round(scaleout["engine_read_us"], 2))
    report.add_row("read_scaleout", "hit cost / engine read",
                   round(scaleout["hit_cost_vs_engine_read"], 3))
    storm = results["invalidation_storm"]
    for metric in ("warm_entries", "invalidated_entries",
                   "stale_values_after_storm", "recovered_hits"):
        report.add_row("invalidation_storm", metric, storm[metric])
    for protocol in PROTOCOLS:
        check = results["consistency_check"][protocol]
        report.add_row(f"consistency[{protocol}]", "violations",
                       len(check["violations"]))
        report.add_row(f"consistency[{protocol}]", "cache hits",
                       check["hits"])
    report.note("read_scaleout: 2000 ops, 98% reads, 64-key hot set; "
                "checker: interleaved writers/readers, monotone stamps")
    report.show()

    # scenario A: the tentpole claim
    cached_us = scaleout["cache_on"]["us_per_op_at_reference"]
    assert cached_us <= MAX_CACHED_OP_US, \
        (f"the cache-on read-mostly arm costs {cached_us:.2f} us per op at "
         f"reference speed (at most {MAX_CACHED_OP_US})")
    assert scaleout["hit_us_at_reference"] <= MAX_HIT_US, \
        (f"a cache hit costs {scaleout['hit_us_at_reference']:.2f} us at "
         f"reference speed (at most {MAX_HIT_US})")
    assert scaleout["cache_on"]["hit_rate"] >= 0.5

    # scenario B: invalidation is complete and key-granular
    assert storm["stale_values_after_storm"] == 0, \
        "a post-storm read observed a pre-storm value"
    assert storm["invalidated_entries"] >= storm["warm_entries"]
    assert storm["recovered_hits"] == KEYSPACE

    # scenario C: zero violations under every protocol; 1SR never caches
    for protocol in PROTOCOLS:
        check = results["consistency_check"][protocol]
        assert check["violations"] == [], \
            f"{protocol}: {check['violations'][:5]}"
        if protocol == "1sr":
            assert check["hits"] == 0 and check["fills"] == 0
        else:
            assert check["hits"] > 0

    payload = {
        "experiment": "e24_result_cache",
        "keyspace": KEYSPACE,
        "hot_keys": HOT_KEYS,
        "max_cached_op_us": MAX_CACHED_OP_US,
        "max_hit_us": MAX_HIT_US,
        "read_scaleout": scaleout,
        "invalidation_storm": storm,
        "consistency_check": {
            protocol: {
                "violations": len(check["violations"]),
                "hits": check["hits"],
                "fills": check["fills"],
                "bypass_protocol": check["bypass_protocol"],
            }
            for protocol, check in results["consistency_check"].items()
        },
    }
    BENCH_PATH.write_text(json.dumps(payload, indent=2) + "\n")

    benchmark.extra_info["read_scaleout_speedup"] = scaleout["speedup"]
    benchmark.extra_info["hit_rate"] = scaleout["cache_on"]["hit_rate"]
