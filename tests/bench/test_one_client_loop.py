"""Every seeded timed run replays exactly.

Simulated load enters through one client loop, whatever its arrival
process: closed clients, Poisson transactions, rate-curve sessions or
chaos requests.  These short seeded runs pin what each arrival process
produced before the loop was one — counters, latency percentiles to 9
places and a digest of the chaos harness's per-request records — so
any change to the loop that moves one simulated event shows here.
Event ties in the simulator break by creation order, so the pins also
hold the order in which processes are created and every RNG stream.

The soak job sweeps the two chaos runs over 20 seeds, checking the
invariants only.
"""

import hashlib

import pytest

from repro.bench import (
    ChaosConfig, ClosedLoopDriver, OpenLoopDriver, SessionArrivalDriver,
    TimedCluster, TimedShardedCluster, build_cluster, build_sharded_cluster,
    default_resilience_policy, load_workload, run_chaos,
)
from repro.cluster import Environment
from repro.core.admission import default_gate
from repro.shard import HashSharder
from repro.workloads import MicroWorkload
from repro.workloads.openloop import (
    ConstantRate, FlashCrowd, OpenLoopWorkload,
)

CHAOS_SEED = 14
KILL_AT = 2.0


def p(recorder, q):
    return round(recorder.percentile(q), 9)


def chaos_config(seed, **extra):
    return ChaosConfig(seed=seed, duration=6.0, rate_tps=20.0, n_faults=2,
                       resilience=default_resilience_policy(seed), **extra)


def chaos_observed(result):
    digest = hashlib.sha256()
    for r in result.records:
        digest.update(repr((r.id, r.kind, round(r.start, 9),
                            round(r.end, 9), r.ok, r.error,
                            r.write_id)).encode())
    latencies = sorted(r.latency for r in result.records if r.ok)
    return {
        "requests": result.total_requests,
        "succeeded": result.succeeded,
        "failed": result.failed,
        "shed": result.shed,
        "acked_ids": len(result.acked_ids),
        "acked_digest": hashlib.sha256(
            repr(sorted(result.acked_ids)).encode()).hexdigest()[:16],
        "dedup_commits": result.dedup_commits,
        "promotions": result.promotions,
        "resilience": result.resilience_stats,
        "p50": round(latencies[len(latencies) // 2], 9),
        "p99": round(latencies[int(len(latencies) * 0.99)], 9),
        "records": digest.hexdigest()[:16],
    }


def run_replica_chaos(seed=CHAOS_SEED):
    return run_chaos(chaos_config(seed))


def run_standby_chaos(seed=CHAOS_SEED):
    return run_chaos(chaos_config(seed, ha_standby=True,
                                  middleware_kills=[KILL_AT]))


def run_sessions():
    env = Environment()
    cluster = build_sharded_cluster(shards=2, replicas=2, env=env,
                                    name="pin")
    workload = OpenLoopWorkload(rows=400, seed_rows=200, read_fraction=0.7,
                                table="kv", mean_think_time=0.01)
    loader = cluster.connect(database="shop")
    loader.execute("CREATE TABLE kv (k INT PRIMARY KEY, v INT, "
                   "pad VARCHAR(40))")
    cluster.register_table("kv", "k", HashSharder(2))
    for key in range(200):
        loader.execute(f"INSERT INTO kv (k, v, pad) "
                       f"VALUES ({key}, 0, 'pad{key}')")
    loader.close()
    timed = TimedShardedCluster(env, cluster)
    gate = default_gate(clock=lambda: env.now, commit_rate=60.0)
    curve = FlashCrowd(ConstantRate(150.0), start=0.5, duration=0.7,
                       multiplier=4.0, ramp=0.2)
    driver = SessionArrivalDriver(timed, workload, curve, seed=11,
                                  admission=gate, txn_deadline=0.05)
    driver.start(2.0)
    env.run(until=2.5)
    metrics = driver.metrics
    snapshot = gate.snapshot()
    return cluster, {
        "txns_issued": driver.txns_issued,
        "shed_txns": driver.shed_txns,
        "goodput": driver.goodput,
        "deadline_misses": driver.deadline_misses,
        "errors": dict(metrics.errors),
        "writes": metrics.write_latency.count(),
        "p50": p(metrics.latency, 50.0),
        "p99": p(metrics.latency, 99.0),
        "admitted": snapshot["admitted"],
        "acked": snapshot["acked"],
        "rejected": snapshot["rejected"],
        "finished": (snapshot["finished_ok"], snapshot["finished_failed"]),
    }


def timed_micro(n=3, **kwargs):
    env = Environment()
    middleware = build_cluster(n, replication="writeset",
                               propagation="async", consistency="gsi",
                               env=env)
    workload = MicroWorkload(rows=60, read_fraction=0.8)
    load_workload(middleware, workload)
    return env, middleware, workload, TimedCluster(env, middleware,
                                                   **kwargs)


def metrics_observed(metrics):
    return {
        "completed": metrics.throughput.completed,
        "failed": metrics.throughput.failed,
        "errors": dict(metrics.errors),
        "reads": metrics.read_latency.count(),
        "writes": metrics.write_latency.count(),
        "p50": p(metrics.latency, 50.0),
        "p99": p(metrics.latency, 99.0),
    }


def run_closed():
    env, middleware, workload, cluster = timed_micro()
    driver = ClosedLoopDriver(cluster, workload, clients=4,
                              think_time=0.002)

    def fault():
        yield env.timeout(0.8)
        replica = middleware.replicas[1]
        replica.node.crash()
        replica.engine.crash()
        replica.mark_failed()

    env.process(fault())
    driver.start(duration=2.0)
    env.run(until=2.0)
    cluster.stop()
    return middleware, metrics_observed(driver.metrics)


def run_open():
    env, middleware, workload, cluster = timed_micro(n=2)
    driver = OpenLoopDriver(cluster, workload, rate_tps=400.0, seed=5)
    driver.start(duration=1.5)
    env.run(until=2.0)
    cluster.stop()
    observed = metrics_observed(driver.metrics)
    observed["dropped"] = driver.dropped_arrivals
    return middleware, observed


#: recorded before the four client loops became one
REPLICA_CHAOS = {
    "acked_digest": "6ea396e87006e91e",
    "acked_ids": 40,
    "dedup_commits": 0,
    "failed": 0,
    "p50": 0.0014,
    "p99": 0.592083967,
    "promotions": 0,
    "records": "0482afd141ccc557",
    "requests": 113,
    "resilience": {"degraded_reads": 0,
                   "failover_retries": 0,
                   "replays": 0,
                   "retries": 6,
                   "retry_exhausted": 2,
                   "stale_cache_served": 0,
                   "timeouts": 0},
    "shed": 0,
    "succeeded": 113}
STANDBY_CHAOS = {
    "acked_digest": "8747bad5ef927781",
    "acked_ids": 32,
    "dedup_commits": 0,
    "failed": 10,
    "p50": 0.0014,
    "p99": 7.891902082,
    "promotions": 1,
    "records": "78552d1b868a35a6",
    "requests": 113,
    "resilience": {"degraded_reads": 0,
                   "failover_retries": 0,
                   "replays": 0,
                   "retries": 42,
                   "retry_exhausted": 14,
                   "stale_cache_served": 0,
                   "timeouts": 0},
    "shed": 0,
    "succeeded": 103}
SESSIONS = {
    "acked": {"commit": 130, "read": 0},
    "admitted": {"commit": 130, "read": 674},
    "deadline_misses": 0,
    "errors": {},
    "finished": (804, 0),
    "goodput": 804,
    "p50": 0.0014,
    "p99": 0.004840325,
    "rejected": {"commit": {"rate_limit": 142}, "read": {}},
    "shed_txns": 142,
    "txns_issued": 804,
    "writes": 130}
CLOSED = {
    "completed": 1734,
    "errors": {"NodeDown": 1, "SerializationError": 16},
    "failed": 17,
    "p50": 0.0014,
    "p99": 0.0055,
    "reads": 1398,
    "writes": 336}
OPEN = {
    "completed": 612,
    "dropped": 0,
    "errors": {"SerializationError": 4},
    "failed": 4,
    "p50": 0.0014,
    "p99": 0.005360275,
    "reads": 498,
    "writes": 114}


def test_a_chaos_run_with_replica_faults_replays_exactly():
    result = run_replica_chaos()
    assert result.all_invariants_hold, result.violations
    assert chaos_observed(result) == REPLICA_CHAOS


def test_a_chaos_run_with_a_middleware_kill_replays_exactly():
    result = run_standby_chaos()
    assert result.all_invariants_hold, result.violations
    assert chaos_observed(result) == STANDBY_CHAOS
    # the traces of both leaders, the deposed one's 106 first, then the
    # 83 of the standby promoted after the kill
    assert len(result.traces) == 189
    assert result.trace_stats["retained_traces"] == 189
    assert result.trace_stats["traces_started"] == 189
    starts = [min(span.start for span in trace) for trace in result.traces]
    assert min(starts[:106]) < KILL_AT < min(starts[106:])


def test_a_session_arrival_run_on_the_shard_tier_replays_exactly():
    cluster, observed = run_sessions()
    assert cluster.check_convergence()
    assert observed == SESSIONS


def test_a_closed_loop_run_replays_exactly():
    middleware, observed = run_closed()
    survivors = [r for r in middleware.replicas if r.is_online]
    assert len({r.engine.content_signature() for r in survivors}) == 1
    assert observed == CLOSED


def test_an_open_loop_run_replays_exactly():
    middleware, observed = run_open()
    middleware.pump()
    assert middleware.check_convergence()
    assert observed == OPEN


@pytest.mark.soak
@pytest.mark.parametrize("seed", range(20))
def test_chaos_invariants_hold_across_seeds_soak(seed):
    for result in (run_replica_chaos(seed), run_standby_chaos(seed)):
        assert result.all_invariants_hold, (seed, result.violations)
