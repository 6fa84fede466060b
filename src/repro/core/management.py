"""Cluster management: adding/removing replicas, software upgrades
(paper sections 4.4.2 and 4.4.3).

Three add-replica strategies from the paper, with their distinct costs:

* ``full_stop`` — "many systems, like MySQL cluster, require the entire
  cluster to be shut down" — total write outage for the whole sync;
* ``donor`` — "Emic Networks m/cluster ... use an active replica, bring it
  offline to transfer its state" — capacity loss of one replica, and a
  total outage if only one replica was left;
* ``recovery_log`` — Sequoia's way: initialize from a checkpointed backup,
  replay the recovery log, enact a global barrier, go online — no donor
  capacity loss.

Rolling upgrades (engine / middleware / driver) keep the service up by
upgrading one component at a time; the driver-upgrade cost model reflects
that "upgrading the driver is orders of magnitude more complex than
upgrading the four nodes" when there are hundreds of clients.
"""

from __future__ import annotations

from typing import Dict, List, Optional

from .backup import BackupCoordinator, ClusterBackup
from .errors import MiddlewareError
from .middleware import ReplicationMiddleware
from .replica import Replica, ReplicaState


class ManagementReport:
    """Cost accounting for one management operation."""

    def __init__(self, operation: str, target: str):
        self.operation = operation
        self.target = target
        self.write_outage = False      # did the whole cluster stop serving?
        self.donor_offline: Optional[str] = None
        self.rows_transferred = 0
        self.entries_replayed = 0
        self.detail: Dict = {}

    def __repr__(self) -> str:
        return (f"ManagementReport({self.operation} {self.target}: "
                f"outage={self.write_outage}, rows={self.rows_transferred}, "
                f"replayed={self.entries_replayed})")


class ClusterManager:
    """Online management operations for one middleware cluster."""

    def __init__(self, middleware: ReplicationMiddleware):
        self.middleware = middleware
        self.backup = BackupCoordinator(middleware)
        self.reports: List[ManagementReport] = []

    # ------------------------------------------------------------------
    # remove
    # ------------------------------------------------------------------

    def remove_replica(self, name: str) -> ManagementReport:
        """Gracefully remove a replica: drain it, checkpoint the recovery
        log at its position, take it OFFLINE."""
        middleware = self.middleware
        replica = middleware.replica_by_name(name)
        report = ManagementReport("remove_replica", name)
        middleware.drain_replica(name)
        middleware.recovery_log.checkpoint(
            f"removed:{name}", seq=replica.applied_seq)
        replica.set_state(ReplicaState.OFFLINE)
        middleware.monitor.record("replica_removed", name,
                                  at_seq=replica.applied_seq)
        self.reports.append(report)
        return report

    # ------------------------------------------------------------------
    # add
    # ------------------------------------------------------------------

    def add_replica(self, replica: Replica,
                    strategy: str = "recovery_log",
                    backup: Optional[ClusterBackup] = None) -> ManagementReport:
        """Join a new replica.  The three strategies move data the same
        way (``BackupCoordinator.join``); they differ in what the join
        costs the running cluster."""
        if strategy == "full_stop":
            return self._add_full_stop(replica)
        if strategy == "donor":
            return self._add_donor(replica)
        if strategy == "recovery_log":
            return self._add_recovery_log(replica, backup)
        raise ValueError(f"unknown add-replica strategy {strategy!r}")

    def _add_full_stop(self, replica: Replica) -> ManagementReport:
        """MySQL-cluster style: stop the world, sync offline, restart."""
        middleware = self.middleware
        report = ManagementReport("add_replica_full_stop", replica.name)
        report.write_outage = True
        middleware.monitor.record("cluster_stopped", middleware.name,
                                  reason="add_replica_full_stop")
        # every session is kicked out — long downtime, unhappy customers
        for session in list(middleware.sessions):
            session.close()
        snapshot = self.backup.take_snapshot()
        report.rows_transferred = snapshot.dump.size_rows()
        report.entries_replayed, recloned = self.backup.join(
            replica, snapshot)
        middleware.monitor.record("replica_added", replica.name,
                                  strategy="full_stop", recloned=recloned)
        middleware.monitor.record("cluster_started", middleware.name)
        self.reports.append(report)
        return report

    def _add_donor(self, replica: Replica) -> ManagementReport:
        """m/cluster style: a donor goes offline to feed the new replica.

        If the donor was the last online replica the whole system is down
        for the duration — the paper's explicit criticism.
        """
        middleware = self.middleware
        report = ManagementReport("add_replica_donor", replica.name)
        report.write_outage = len(middleware.online_replicas()) <= 1
        snapshot = self.backup.take_snapshot()
        donor = middleware.replica_by_name(snapshot.source_replica)
        donor.set_state(ReplicaState.DONOR)
        report.donor_offline = donor.name
        middleware.monitor.record("donor_offline", donor.name,
                                  outage=report.write_outage)
        report.rows_transferred = snapshot.dump.size_rows()
        report.entries_replayed, recloned = self.backup.join(
            replica, snapshot)
        # the donor rejoins with what committed during the transfer
        report.entries_replayed += self.backup.resume_offline_donor(snapshot)
        middleware.monitor.record("replica_added", replica.name,
                                  strategy="donor", recloned=recloned)
        self.reports.append(report)
        return report

    def _add_recovery_log(self, replica: Replica,
                          backup: Optional[ClusterBackup]) -> ManagementReport:
        """Sequoia style: restore a checkpointed backup (taken earlier,
        from an offline node or a hot dump) and replay the recovery log —
        no donor capacity loss, no outage."""
        report = ManagementReport("add_replica_recovery_log", replica.name)
        backup = backup or self.backup.take_snapshot()
        report.rows_transferred = backup.dump.size_rows()
        report.entries_replayed = self.backup.restore_to_replica(
            backup, replica)
        self.middleware.monitor.record("replica_added", replica.name,
                                       strategy="recovery_log")
        self.reports.append(report)
        return report

    # ------------------------------------------------------------------
    # upgrades
    # ------------------------------------------------------------------

    def rolling_engine_upgrade(self, new_dialect_factory,
                               allow_heterogeneous: bool = True) -> ManagementReport:
        """Upgrade every replica's engine one at a time: remove -> upgrade
        -> re-add via recovery log.  The cluster is temporarily
        heterogeneous (mixed versions, section 4.4.3); middleware designs
        that cannot tolerate that must use full-stop instead."""
        middleware = self.middleware
        report = ManagementReport("rolling_engine_upgrade", middleware.name)
        versions_seen = set()
        for replica in list(middleware.replicas):
            if not replica.is_online:
                continue
            self.remove_replica(replica.name)
            old = replica.engine.dialect
            replica.engine.dialect = new_dialect_factory(old)
            versions_seen.add(replica.engine.dialect.version)
            if not allow_heterogeneous and len(self._online_versions()) > 1:
                raise MiddlewareError(
                    "engine-level integration cannot run a mixed-version "
                    "cluster (section 4.4.3)")
            # re-add: it rejoins with what it missed while offline
            replayed, recloned = self.backup.join(replica)
            report.entries_replayed += replayed
            middleware.monitor.record("replica_upgraded", replica.name,
                                      version=replica.engine.dialect.version,
                                      recloned=recloned)
        report.detail["versions"] = sorted(versions_seen)
        self.reports.append(report)
        return report

    def _online_versions(self) -> set:
        return {
            r.engine.dialect.version
            for r in self.middleware.online_replicas()
        }

    def full_stop_engine_upgrade(self, new_dialect_factory) -> ManagementReport:
        """The alternative when mixed versions are impossible: stop
        everything, upgrade everything, restart — total outage."""
        middleware = self.middleware
        report = ManagementReport("full_stop_engine_upgrade", middleware.name)
        report.write_outage = True
        middleware.monitor.record("cluster_stopped", middleware.name,
                                  reason="engine_upgrade")
        for session in list(middleware.sessions):
            session.close()
        for replica in middleware.replicas:
            replica.engine.dialect = new_dialect_factory(
                replica.engine.dialect)
        middleware.monitor.record("cluster_started", middleware.name)
        self.reports.append(report)
        return report

    @staticmethod
    def driver_upgrade_cost(client_machines: int,
                            per_client_minutes: float = 15.0,
                            server_nodes: int = 4,
                            per_server_minutes: float = 30.0) -> Dict[str, float]:
        """The section 4.3.1 / 4.4.3 asymmetry in one formula: updating 500
        client machines dwarfs upgrading the 4 database nodes."""
        return {
            "client_minutes": client_machines * per_client_minutes,
            "server_minutes": server_nodes * per_server_minutes,
            "ratio": (client_machines * per_client_minutes)
                     / max(1e-9, server_nodes * per_server_minutes),
        }
