"""E27 — section 2.2: writeset-pipeline throughput (group commit,
batched certification, dependency-parallel apply).

The certifier is a serial total-order point: per transaction it costs an
ordering round, a certification check, a log append and one propagation
enqueue per replica.  Batching amortizes all four — and the same conflict
footprints certification already computes let a replica apply
non-overlapping writesets on parallel lanes.  Three scenarios:

* **saturation** — write-only closed loop, 64 clients, the certifier's
  ordering round modeled as a held mutex (``certifier_serial``).  The
  serial pipeline caps at ~1/ordering_delay commits/sec; group commit
  pays the round once per batch.  Asserts a >=2x throughput multiple
  and convergence on both arms.
* **bounded_lag** — E07's master/slave asymmetry at an update rate where
  the serial applier's lag grows without bound; dependency-parallel
  apply of batched frames keeps the slave's lag bounded.
* **equivalence** — every certification decision made through group
  commit (random interleaved sessions, conflicting and disjoint, across
  many batches) is replayed per-transaction on a fresh certifier: the
  ok/abort decisions and assigned seqs must match exactly, final values
  must match a serial oracle, and the cluster must converge.  Zero
  violations tolerated.

Results land in ``BENCH_e27.json``.
"""

import json
import random
from pathlib import Path

from repro.bench import (
    ClosedLoopDriver, LagProbe, Report, TimedCluster, build_cluster,
    load_workload,
)
from repro.cluster import Environment
from repro.core import CostModel
from repro.core.certifier import Certifier
from repro.sqlengine import SerializationError
from repro.sqlengine.locks import LockConflict
from repro.workloads import MicroWorkload

from benchmarks.common import ratio, run_closed_loop

BENCH_PATH = Path(__file__).resolve().parent.parent / "BENCH_e27.json"
SEED = 27
MIN_MULTIPLE = 2.0
DURATION = 2.0
LAG_DURATION = 6.0


# ---------------------------------------------------------------------------
# scenario A: saturation throughput, serial vs batched pipeline
# ---------------------------------------------------------------------------

def run_saturation(group_commit_window: float, dependency_apply: bool) -> dict:
    # write-only, near-uniform keys: saturates the ordering point, not
    # the conflict rate (skewed keys measure aborts, not the pipeline)
    workload = MicroWorkload(rows=4000, read_fraction=0.0, skew=0.2,
                             write_statements=1)
    middleware, metrics, cluster, _env = run_closed_loop(
        replicas=3, replication="writeset", propagation="sync",
        consistency="gsi", workload=workload, clients=64,
        duration=DURATION, ordering_delay=0.003,
        group_commit_window=group_commit_window,
        dependency_apply=dependency_apply,
        apply_parallelism=8 if dependency_apply else 1,
        certifier_serial=True)
    middleware.pump()
    return {
        "tps": metrics.rate(DURATION),
        "p95_ms": metrics.write_latency.percentile(95) * 1000,
        "aborts": metrics.errors.get("SerializationError", 0),
        "max_batch": middleware.group_commit.stats["max_batch"],
        "batches": middleware.group_commit.stats["batches"],
        "frames": middleware.group_commit.stats["frames"],
        "frame_units": middleware.group_commit.stats["frame_units"],
        "converged": middleware.check_convergence(),
    }


# ---------------------------------------------------------------------------
# scenario B: slave lag bounded by dependency-parallel apply (E07 shape)
# ---------------------------------------------------------------------------

def run_lag_point(group_commit_window: float, dependency_apply: bool,
                  apply_parallelism: int) -> dict:
    env = Environment()
    middleware = build_cluster(
        2, replication="writeset", propagation="async",
        consistency="rsi-pc", env=env)
    workload = MicroWorkload(rows=2000, read_fraction=0.0, skew=0.2,
                             write_statements=1)
    load_workload(middleware, workload)
    for replica in middleware.replicas:
        middleware.drain_replica(replica.name)  # setup backlog out of band
    # slave applies are random-IO bound (the section 2.2 asymmetry)
    cluster = TimedCluster(env, middleware,
                           cost_model=CostModel(writeset_apply=0.004),
                           group_commit_window=group_commit_window,
                           dependency_apply=dependency_apply,
                           apply_parallelism=apply_parallelism,
                           certifier_serial=True)
    probe = LagProbe(env, middleware, interval=0.25)
    driver = ClosedLoopDriver(cluster, workload, clients=8)
    driver.start(duration=LAG_DURATION)
    env.run(until=LAG_DURATION)
    cluster.stop()
    probe.stop()
    slave = middleware.replicas[1]
    series = probe.series[slave.name]
    half = len(series.points) // 2
    first_half = max((v for _t, v in series.points[:half]), default=0)
    second_half = max((v for _t, v in series.points[half:]), default=0)
    return {
        "tps": driver.metrics.rate(LAG_DURATION),
        "max_lag": series.max(),
        "final_lag": series.last(),
        "growing": second_half > first_half * 1.3,
    }


# ---------------------------------------------------------------------------
# scenario C: batched certification decisions replay identically
# ---------------------------------------------------------------------------

KEYSPACE = 32


def run_equivalence(rounds: int = 40, sessions_per_round: int = 4) -> dict:
    middleware = build_cluster(
        count=3, replication="writeset", consistency="gsi",
        propagation="sync", name="e27_equivalence")
    setup = middleware.connect(database="shop")
    setup.execute("CREATE TABLE kv (k INT PRIMARY KEY, v INT)")
    for key in range(KEYSPACE):
        setup.execute(f"INSERT INTO kv (k, v) VALUES ({key}, 0)")
    setup.close()

    base_seq = middleware.certifier.current_seq
    middleware.group_commit.equivalence_log = []
    rng = random.Random(SEED)
    model = {key: 0 for key in range(KEYSPACE)}
    version = 0
    committed = aborted = 0

    for _round in range(rounds):
        group = [middleware.connect(database="shop")
                 for _ in range(sessions_per_round)]
        staged = []
        for session in group:
            session.begin()
            key = rng.randrange(KEYSPACE)  # collisions intended
            version += 1
            try:
                session.execute("UPDATE kv SET v = ? WHERE k = ?",
                                [version, key])
            except LockConflict:
                # two sessions on the same origin replica hit the same
                # row: a local write-write conflict, before certification
                session.rollback()
                continue
            staged.append((session, key, version))
        with middleware.group_commit.batch():
            for session, key, value in staged:
                try:
                    session.commit()
                except SerializationError:
                    aborted += 1
                else:
                    model[key] = value
                    committed += 1
        for session in group:
            session.close()

    decisions = middleware.group_commit.equivalence_log
    replay = Certifier()
    replay.import_log([], seq=base_seq)  # same seq floor, empty history
    violations = []
    for decision in decisions:
        outcome = replay.certify(decision["start_seq"], decision["keys"])
        if outcome.ok != decision["ok"]:
            violations.append(
                f"decision at start_seq={decision['start_seq']}: batched "
                f"ok={decision['ok']}, per-txn ok={outcome.ok}")
        elif outcome.ok and outcome.seq != decision["seq"]:
            violations.append(
                f"seq mismatch: batched {decision['seq']}, "
                f"per-txn {outcome.seq}")

    # the committed values must equal the serial oracle on every replica
    check = middleware.connect(database="shop")
    stale = 0
    for key in range(KEYSPACE):
        value = check.execute("SELECT v FROM kv WHERE k = ?",
                              [key]).scalar()
        if value != model[key]:
            stale += 1
    check.close()

    return {
        "decisions": len(decisions),
        "committed": committed,
        "aborted": aborted,
        "max_batch": middleware.group_commit.stats["max_batch"],
        "violations": violations,
        "stale_values": stale,
        "converged": middleware.check_convergence(),
    }


# ---------------------------------------------------------------------------


def test_e27_writeset_pipeline(benchmark):
    def experiment():
        return {
            "saturation": {
                "serial": run_saturation(0.0, dependency_apply=False),
                "batched": run_saturation(0.004, dependency_apply=True),
            },
            "bounded_lag": {
                "serial": run_lag_point(0.0, False, apply_parallelism=1),
                "batched": run_lag_point(0.004, True, apply_parallelism=8),
            },
            "equivalence": run_equivalence(),
        }

    results = benchmark.pedantic(experiment, rounds=1, iterations=1)

    saturation = results["saturation"]
    multiple = ratio(saturation["batched"]["tps"],
                     saturation["serial"]["tps"])
    lag = results["bounded_lag"]
    equivalence = results["equivalence"]

    report = Report(
        "E27  Writeset-pipeline throughput (section 2.2)",
        ["scenario", "metric", "serial", "batched"])
    report.add_row("saturation", "write tps",
                   round(saturation["serial"]["tps"], 1),
                   round(saturation["batched"]["tps"], 1))
    report.add_row("saturation", "p95 latency (ms)",
                   round(saturation["serial"]["p95_ms"], 1),
                   round(saturation["batched"]["p95_ms"], 1))
    report.add_row("saturation", "max certifier batch",
                   saturation["serial"]["max_batch"],
                   saturation["batched"]["max_batch"])
    report.add_row("saturation", "certification aborts",
                   saturation["serial"]["aborts"],
                   saturation["batched"]["aborts"])
    report.add_row("bounded_lag", "slave lag growing?",
                   lag["serial"]["growing"], lag["batched"]["growing"])
    report.add_row("bounded_lag", "final lag (txns)",
                   lag["serial"]["final_lag"], lag["batched"]["final_lag"])
    report.add_row("bounded_lag", "master tps",
                   round(lag["serial"]["tps"], 1),
                   round(lag["batched"]["tps"], 1))
    report.add_row("equivalence", "decisions replayed",
                   equivalence["decisions"], "")
    report.add_row("equivalence", "violations",
                   len(equivalence["violations"]), "")
    report.note(f"throughput multiple {multiple:.2f}x; the batched arm "
                "pays the 3ms ordering round once per batch, not once "
                "per transaction")
    report.show()

    # scenario A: the tentpole claim — and batching must not break
    # convergence or inflate the abort rate pathologically
    assert multiple >= MIN_MULTIPLE, \
        f"batched pipeline only {multiple:.2f}x serial (need {MIN_MULTIPLE}x)"
    assert saturation["serial"]["converged"]
    assert saturation["batched"]["converged"]
    assert saturation["batched"]["max_batch"] >= 4, \
        "group commit never formed a real batch"
    # one frame per destination replica per batch, not one per txn
    assert saturation["batched"]["frames"] < \
        saturation["batched"]["frame_units"]

    # scenario B: serial apply diverges, dependency-parallel apply doesn't
    assert lag["serial"]["growing"], \
        "serial applier kept up — raise the update rate"
    assert not lag["batched"]["growing"]
    assert lag["batched"]["final_lag"] < lag["serial"]["final_lag"] / 5

    # scenario C: zero certification-equivalence violations
    assert equivalence["violations"] == [], equivalence["violations"][:5]
    assert equivalence["stale_values"] == 0
    assert equivalence["converged"]
    assert equivalence["max_batch"] >= 2
    assert equivalence["decisions"] == \
        equivalence["committed"] + equivalence["aborted"]

    payload = {
        "experiment": "e27_writeset_pipeline",
        "min_multiple": MIN_MULTIPLE,
        "throughput_multiple": multiple,
        "saturation": saturation,
        "bounded_lag": lag,
        "equivalence": {
            "decisions": equivalence["decisions"],
            "committed": equivalence["committed"],
            "aborted": equivalence["aborted"],
            "max_batch": equivalence["max_batch"],
            "violations": len(equivalence["violations"]),
            "stale_values": equivalence["stale_values"],
            "converged": equivalence["converged"],
        },
    }
    BENCH_PATH.write_text(json.dumps(payload, indent=2) + "\n")

    benchmark.extra_info["throughput_multiple"] = multiple
    benchmark.extra_info["max_batch"] = saturation["batched"]["max_batch"]
    benchmark.extra_info["equivalence_violations"] = \
        len(equivalence["violations"])
