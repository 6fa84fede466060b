"""E28 — §3.4/§4.4/§5.1: million-session open-loop scale and overload.

The paper's evaluation critique has two halves.  First, closed-loop
client pools at "scaled load" cannot show overload: the pool slows down
with the system, so queues never grow.  E28 drives the cluster with an
*open-loop session arrival process* — 10^5+ sessions drawn from a
non-homogeneous Poisson process over heavy-tailed Zipf keys — where
arrivals do not care how busy the middleware is.  Second, middleware
must degrade *gracefully*: under a 2x flash crowd the gated cluster
sheds excess sessions at the door (labeled, accounted) and keeps the
admitted work inside its deadline, while the ungated cluster converts
the same arrivals into queueing and deadline misses.

Three arms:

* **steady-state** (wall-clock): >= 10^5 sessions through the full
  simulated cluster at a sustainable arrival rate; records sustained
  ops/s and asserts the run stayed healthy (goodput ~= issued, p99
  inside the deadline) at that scale.
* **hot path** (wall-clock, counted): the same Zipf statement stream
  driven straight at one engine.  Its speed is recorded, not gated here
  — the repository benchmark (``BENCHMARK.json``) judges speed on parent
  and change; this arm gates what makes it fast and repeats exactly:
  the result digest equals its closed form, literal texts share their
  template's trees (parse-cache hits), every read is an index probe,
  and the access shape compiles a handful of times, not once per key.
* **overload** (simulated time): identical arrivals with and without
  the admission gate under a 2x flash crowd; goodput with admission
  must be >= 1.5x goodput without, and no admitted-then-acked commit
  may be shed (``acked_then_shed == 0`` — the E28 invariant).

Results land in ``BENCH_e28.json``; assertions pin the deterministic
simulated-time results and counts, never wall-clock numbers.
"""

import gc
import json
import random
import time
from pathlib import Path

from repro.bench.harness import build_cluster, load_workload, Report
from repro.bench.simdriver import SessionArrivalDriver, TimedCluster
from repro.cluster.sim import Environment
from repro.core.admission import default_gate
from repro.sqlengine import Engine
from repro.workloads.openloop import (
    ConstantRate,
    FlashCrowd,
    OpenLoopWorkload,
)

SEED = 28
BENCH_PATH = Path(__file__).resolve().parent.parent / "BENCH_e28.json"

# steady-state arm: ~1300 sessions/s (inside the 3-replica service
# capacity) for 80 simulated seconds ≈ 104k sessions (Poisson),
# comfortably above the 10^5 floor
STEADY_RATE = 1300.0
STEADY_HORIZON = 80.0
STEADY_DEADLINE = 0.75
MIN_SESSIONS = 100_000

# engine hot-path arm: the same Zipf point statement stream, one engine;
# long enough that the distinct-key population exceeds the parse cache,
# as it does over the 2*10^5 transactions of the steady arm
HOTPATH_OPS = 20_000
HOTPATH_ROWS = 1000
# two statement shapes over one table: anything near this many memo
# misses means a memo stopped hitting
MAX_MEMO_MISSES = 4

# overload arm: base rate beyond the cluster's service capacity once the
# 2x flash crowd lands; short deadline models an impatient client
OVERLOAD_RATE = 1500.0
OVERLOAD_HORIZON = 4.0
FLASH = dict(start=1.0, duration=2.0, multiplier=2.0)
OVERLOAD_DEADLINE = 0.25
MIN_GOODPUT_RATIO = 1.5


def _build(workload: OpenLoopWorkload):
    env = Environment()
    middleware = build_cluster(count=3, replication="writeset",
                               consistency="gsi", propagation="async",
                               env=env)
    load_workload(middleware, workload)
    cluster = TimedCluster(env, middleware)
    return env, middleware, cluster


def run_steady() -> dict:
    workload = OpenLoopWorkload(rows=100_000, seed_rows=1000,
                                read_fraction=0.9, skew=1.1,
                                mean_session_length=2.0,
                                mean_think_time=0.02)
    env, middleware, cluster = _build(workload)
    middleware.tracer.sample_interval = 64
    driver = SessionArrivalDriver(cluster, workload,
                                  ConstantRate(STEADY_RATE), seed=SEED,
                                  txn_deadline=STEADY_DEADLINE)
    driver.start(STEADY_HORIZON)
    begin = time.perf_counter()
    env.run()
    wall = time.perf_counter() - begin
    summary = driver.summary(STEADY_HORIZON)
    summary["wall_seconds"] = wall
    summary["sustained_ops_per_sec"] = (
        summary["txns_issued"] / wall if wall > 0 else float("inf"))
    summary["trace"] = middleware.tracer.snapshot()
    return summary


def _hotpath_statements() -> list:
    workload = OpenLoopWorkload(rows=100_000, seed_rows=1000,
                                read_fraction=0.9, skew=1.1)
    rng = random.Random(SEED + 1)
    return [workload.next_transaction(rng).statements[0][0]
            for _ in range(HOTPATH_OPS)]


def _expected_digest(statements: list) -> int:
    """The closed form of :func:`run_hotpath`'s digest: a read of a
    seeded key returns how many updates of that key preceded it."""
    updates: dict = {}
    digest = 0
    for sql in statements:
        key = int(sql.rsplit(" ", 1)[1])
        if key >= HOTPATH_ROWS:
            continue
        if sql.startswith("UPDATE"):
            updates[key] = updates.get(key, 0) + 1
        else:
            digest = (digest * 31 + hash((updates.get(key, 0),))) \
                & 0xFFFFFFFF
    return digest


def run_hotpath(statements: list) -> dict:
    """The E28 statement stream against one engine."""
    engine = Engine("e28")
    engine.create_database("shop")
    conn = engine.connect(database="shop")
    conn.execute("CREATE TABLE sessions_kv "
                 "(k INT PRIMARY KEY, v INT, pad VARCHAR(40))")
    for key in range(HOTPATH_ROWS):
        conn.execute(f"INSERT INTO sessions_kv (k, v, pad) "
                     f"VALUES ({key}, 0, 'pad{key}')")
    digest = 0
    begin = time.perf_counter()
    for sql in statements:
        result = conn.execute(sql)
        if result.rows:
            digest = (digest * 31 + hash(result.rows[0])) & 0xFFFFFFFF
    wall = time.perf_counter() - begin
    return {
        "ops": len(statements),
        "wall_seconds": wall,
        "ops_per_sec": len(statements) / wall if wall > 0 else float("inf"),
        "digest": digest,
        "parse_cache_hits": engine.stats["parse_cache_hits"],
        "seq_scans": engine.stats["seq_scans"],
        "access_shape_misses": engine.database("shop").table(
            "sessions_kv").access_shapes.misses,
    }


def run_overload(admitted: bool) -> dict:
    workload = OpenLoopWorkload(rows=20_000, seed_rows=300,
                                read_fraction=0.9, skew=1.1,
                                mean_session_length=2.0,
                                mean_think_time=0.01)
    env, middleware, cluster = _build(workload)
    curve = FlashCrowd(ConstantRate(OVERLOAD_RATE), **FLASH)
    gate = None
    if admitted:
        gate = default_gate(lambda: env.now, read_rate=2600.0,
                            commit_rate=320.0, read_lane=64,
                            commit_lane=24, max_pending=96)
    driver = SessionArrivalDriver(cluster, workload, curve, seed=SEED,
                                  admission=gate,
                                  txn_deadline=OVERLOAD_DEADLINE)
    driver.start(OVERLOAD_HORIZON)
    env.run()
    summary = driver.summary(OVERLOAD_HORIZON)
    issued = max(summary["txns_issued"], 1)
    offered = issued + summary["shed_txns"]
    summary["shed_rate"] = summary["shed_txns"] / offered
    summary["error_rate"] = sum(summary["errors"].values()) / issued
    return summary


def test_e28_openloop_scale(benchmark):
    statements = _hotpath_statements()

    def experiment():
        # the wall-clock engine arm runs first, before the 10^5-session
        # arm fills the heap with simulation state
        gc.collect()
        results = {"hotpath": run_hotpath(statements)}
        gc.collect()
        results["steady"] = run_steady()
        gc.collect()
        results["overload_bare"] = run_overload(admitted=False)
        gc.collect()
        results["overload_admission"] = run_overload(admitted=True)
        return results

    results = benchmark.pedantic(experiment, rounds=1, iterations=1)
    steady = results["steady"]
    hotpath = results["hotpath"]
    bare = results["overload_bare"]
    gated = results["overload_admission"]
    goodput_ratio = gated["goodput_txns"] / max(bare["goodput_txns"], 1)

    report = Report(
        "E28  Open-loop session scale and overload (sections 3.4, 4.4, 5.1)",
        ["arm", "sessions", "txns", "goodput", "p99 (s)", "shed", "note"])
    report.add_row(
        "steady", steady["sessions_arrived"], steady["txns_issued"],
        steady["goodput_txns"], round(steady["p99_latency"], 4),
        steady["shed_txns"],
        f"{steady['sustained_ops_per_sec']:.0f} ops/s wall")
    report.add_row("hotpath", "", hotpath["ops"], "", "", "",
                   f"{hotpath['ops_per_sec']:.0f} engine ops/s")
    for name, arm in (("overload/bare", bare),
                      ("overload/admission", gated)):
        report.add_row(
            name, arm["sessions_arrived"], arm["txns_issued"],
            arm["goodput_txns"], round(arm["p99_latency"], 4),
            arm["shed_txns"],
            f"shed {arm['shed_rate']:.0%}, err {arm['error_rate']:.2%}")
    report.note(f"overload goodput ratio {goodput_ratio:.2f}x "
                f"(floor {MIN_GOODPUT_RATIO}x)")
    report.show()

    # -- scale: the open-loop tier really ran 10^5+ sessions ------------
    assert steady["sessions_arrived"] >= MIN_SESSIONS, \
        f"only {steady['sessions_arrived']} sessions arrived"
    # at a sustainable rate the run stays healthy at that scale
    assert steady["goodput_txns"] >= steady["txns_issued"] * 0.99
    assert steady["p99_latency"] <= STEADY_DEADLINE
    # sampled tracing kept bookkeeping bounded without losing coverage
    assert steady["trace"]["spans_sampled_out"] > 0
    assert steady["trace"]["retained_traces"] > 0

    # -- hot path: right answers, through the structures that make it
    # fast — templates hit the parse cache, index probes survived
    # parameterization, the access shape compiled once per statement
    assert hotpath["digest"] == _expected_digest(statements), \
        "the engine disagrees with the closed form of its own stream"
    assert hotpath["parse_cache_hits"] > HOTPATH_OPS * 0.9
    assert hotpath["seq_scans"] == 0
    assert hotpath["access_shape_misses"] <= MAX_MEMO_MISSES

    # -- overload: graceful degradation under the 2x flash crowd --------
    assert bare["sessions_arrived"] == gated["sessions_arrived"], \
        "admission arms must see identical arrivals"
    assert goodput_ratio >= MIN_GOODPUT_RATIO, \
        (f"admission goodput {gated['goodput_txns']} vs bare "
         f"{bare['goodput_txns']} — ratio {goodput_ratio:.2f}x under "
         f"{MIN_GOODPUT_RATIO}x")
    # shedding happened, was labeled, and the books balance
    snapshot = gated["admission"]
    assert gated["shed_txns"] > 0
    labeled = sum(count
                  for reasons in snapshot["rejected"].values()
                  for count in reasons.values())
    assert labeled == gated["shed_txns"]
    # the E28 invariant: no admitted-then-acked commit was ever shed
    assert snapshot["acked_then_shed"] == 0
    assert snapshot["acked"]["commit"] == gated["acked_commits"]
    # gated p99 stays inside the client deadline; bare p99 blows past it
    assert gated["p99_latency"] <= OVERLOAD_DEADLINE
    assert bare["p99_latency"] > OVERLOAD_DEADLINE

    payload = {
        "experiment": "e28_openloop_scale",
        "seed": SEED,
        "steady": {
            "rate": STEADY_RATE,
            "horizon": STEADY_HORIZON,
            "deadline": STEADY_DEADLINE,
            "summary": steady,
        },
        "hotpath": {
            "ops": HOTPATH_OPS,
            "fast": hotpath,
        },
        "overload": {
            "rate": OVERLOAD_RATE,
            "horizon": OVERLOAD_HORIZON,
            "flash": FLASH,
            "deadline": OVERLOAD_DEADLINE,
            "bare": bare,
            "admission": gated,
            "goodput_ratio": goodput_ratio,
            "min_goodput_ratio": MIN_GOODPUT_RATIO,
        },
    }
    BENCH_PATH.write_text(json.dumps(payload, indent=2) + "\n")

    benchmark.extra_info["sessions"] = steady["sessions_arrived"]
    benchmark.extra_info["goodput_ratio"] = round(goodput_ratio, 3)
    benchmark.extra_info["acked_then_shed"] = snapshot["acked_then_shed"]
