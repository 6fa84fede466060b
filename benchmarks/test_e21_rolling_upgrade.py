"""E21 — section 4.4.3: software upgrades.

Claims:
* a rolling engine upgrade (one replica at a time, temporarily
  heterogeneous versions) keeps the service up with only a capacity dip;
* a full-stop upgrade is a complete outage;
* driver upgrades dwarf server upgrades when clients are many.
"""

from repro.bench import ClosedLoopDriver, Report, TimedCluster, build_cluster, load_workload
from repro.cluster import Environment
from repro.core import ClusterManager, FailoverManager, ReplicaState
from repro.workloads import MicroWorkload

DURATION = 6.0
UPGRADE_START = 1.5
PER_NODE_TIME = 1.0


def run_upgrade(style: str) -> dict:
    env = Environment()
    middleware = build_cluster(3, replication="writeset",
                               propagation="async", consistency="gsi",
                               env=env)
    workload = MicroWorkload(rows=200, read_fraction=0.8)
    load_workload(middleware, workload)
    cluster = TimedCluster(env, middleware, apply_parallelism=4)
    driver = ClosedLoopDriver(cluster, workload, clients=6)
    manager = ClusterManager(middleware)
    failover = FailoverManager(middleware)
    outage = {"window": 0.0}

    def rolling():
        yield env.timeout(UPGRADE_START)
        for replica in list(middleware.replicas):
            manager.remove_replica(replica.name)
            yield env.timeout(PER_NODE_TIME)      # patching the node
            replica.engine.dialect = replica.engine.dialect.with_version(
                "9.9")
            # re-add: it rejoins from its own state, replaying what it
            # missed from the recovery log
            manager.backup.join(replica)

    def full_stop():
        yield env.timeout(UPGRADE_START)
        down_at = env.now
        for session in list(middleware.sessions):
            session.close()
        for replica in middleware.replicas:
            replica.set_state(ReplicaState.OFFLINE)
        yield env.timeout(PER_NODE_TIME * 3)      # patch all, offline
        for replica in middleware.replicas:
            replica.engine.dialect = replica.engine.dialect.with_version(
                "9.9")
            replica.set_state(ReplicaState.ONLINE)
        outage["window"] = env.now - down_at

    env.process(rolling() if style == "rolling" else full_stop(),
                name="upgrade")
    driver.start(duration=DURATION)
    env.run(until=DURATION)
    cluster.stop()
    middleware.pump()
    versions = {r.engine.dialect.version for r in middleware.replicas}
    return {
        "completed": driver.metrics.throughput.completed,
        "failed": driver.metrics.throughput.failed,
        "outage_s": outage["window"],
        "upgraded": versions == {"9.9"},
        "converged": middleware.check_convergence(online_only=False),
    }


def test_e21_rolling_vs_full_stop_upgrade(benchmark):
    def experiment():
        return {
            "rolling": run_upgrade("rolling"),
            "full_stop": run_upgrade("full_stop"),
        }

    results = benchmark.pedantic(experiment, rounds=1, iterations=1)
    rolling, full_stop = results["rolling"], results["full_stop"]

    report = Report(
        "E21  Engine upgrade: rolling vs full stop (section 4.4.3)",
        ["style", "txns completed", "txns failed", "outage (s)",
         "all upgraded", "converged"])
    for name, row in results.items():
        report.add_row(name, row["completed"], row["failed"],
                       row["outage_s"], row["upgraded"], row["converged"])
    from repro.core import ClusterManager as CM
    costs = CM.driver_upgrade_cost(client_machines=500)
    report.note(f"driver-side upgrade for 500 clients: "
                f"{costs['client_minutes']:.0f} min vs "
                f"{costs['server_minutes']:.0f} min for the servers "
                f"({costs['ratio']:.0f}x — section 4.3.1)")
    report.show()

    assert rolling["upgraded"] and full_stop["upgraded"]
    assert rolling["converged"] and full_stop["converged"]
    # rolling kept the service up: zero outage window, more work done
    assert rolling["outage_s"] == 0.0
    assert full_stop["outage_s"] >= PER_NODE_TIME * 3
    assert rolling["completed"] > full_stop["completed"] * 1.1
    benchmark.extra_info["rolling_completed"] = rolling["completed"]
    benchmark.extra_info["full_stop_outage_s"] = full_stop["outage_s"]
