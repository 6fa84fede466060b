#!/usr/bin/env python3
"""Autonomic replica provisioning (paper section 4.4.2, citing [9]).

The paper's agenda: "Being able to model and predict replica
synchronization time and its associated resource cost is key to efficient
autonomic middleware-based replicated databases."

This example runs the sense-decide-act loop: under a load spike the
provisioner predicts the synchronization cost of a new replica, adds it
through the recovery-log strategy when the prediction is feasible, and
scales back in when the spike passes.  It also shows the refusal case —
an update stream faster than the replay rate means a new replica would
never catch up, so the provisioner holds.
"""

from repro.bench import build_cluster, load_workload
from repro.core import (
    ApplyItem, ApplyUnit, AutonomicProvisioner, CostModel, Replica,
    SyncTimePredictor,
)
from repro.sqlengine import Engine, postgresql
from repro.workloads import MicroWorkload


def main() -> None:
    middleware = build_cluster(3, replication="writeset",
                               propagation="sync", consistency="gsi")
    load_workload(middleware, MicroWorkload(rows=500))

    def replica_factory(name: str) -> Replica:
        return Replica(name, Engine(name, dialect=postgresql()))

    provisioner = AutonomicProvisioner(
        middleware, replica_factory=replica_factory,
        high_watermark=3.0, low_watermark=0.5,
        min_replicas=2, max_replicas=6)

    # --- a feasibility prediction, before anything happens
    predictor = SyncTimePredictor(CostModel(), replay_parallelism=4)
    prediction = predictor.predict(backup_rows=provisioner.total_rows(),
                                   log_entries_behind=200,
                                   cluster_update_rate=150.0)
    print(f"sync prediction at 150 writes/s: {prediction}")

    # --- load spike: queues build up on every replica
    for replica in middleware.replicas:
        for seq in range(10_000, 10_008):
            replica.enqueue(ApplyItem([ApplyUnit(seq, [])]))
    decision = provisioner.step(update_rate=150.0)
    print(f"under load  -> {decision}")
    print(f"cluster now: {[r.name for r in middleware.online_replicas()]}")
    print(f"new replica converged: {middleware.check_convergence()}")

    # --- the refusal case: updates outpace any serial replay
    provisioner.predictor = SyncTimePredictor(
        CostModel(writeset_apply=0.01), replay_parallelism=1)
    for replica in middleware.replicas:
        for seq in range(20_000, 20_008):
            replica.enqueue(ApplyItem([ApplyUnit(seq, [])]))
    decision = provisioner.step(update_rate=500.0)
    print(f"hot stream  -> {decision}")

    # --- spike over: scale back in
    for replica in middleware.replicas:
        replica.apply_queue.clear()
    provisioner.predictor = SyncTimePredictor()
    decision = provisioner.step(update_rate=5.0)
    print(f"idle        -> {decision}")
    print(f"cluster now: {[r.name for r in middleware.online_replicas()]}")


if __name__ == "__main__":
    main()
