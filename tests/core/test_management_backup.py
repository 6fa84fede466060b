"""Cluster management (add/remove replicas, upgrades) and coordinated
backup tests — paper sections 4.4.1-4.4.3."""

import pytest

from repro.core import (
    BackupCoordinator, ClusterManager, MiddlewareConfig, Replica,
    ReplicationMiddleware, protocol_by_name,
)
from repro.sqlengine import Engine, postgresql

from tests.conftest import KV_SCHEMA, make_replicas, seed_kv


@pytest.fixture
def cluster():
    replicas = make_replicas(3, schema=KV_SCHEMA)
    mw = ReplicationMiddleware(replicas, MiddlewareConfig(
        replication="writeset", propagation="sync",
        consistency=protocol_by_name("gsi")))
    seed_kv(mw, rows=10)
    return mw


def empty_replica(name="new"):
    engine = Engine(name, dialect=postgresql(), seed=77)
    return Replica(name, engine)


class TestAddRemove:
    def test_remove_then_readd_via_recovery_log(self, cluster):
        manager = ClusterManager(cluster)
        manager.remove_replica("r2")
        session = cluster.connect(database="shop")
        for key in range(5):
            session.execute(f"UPDATE kv SET v = 3 WHERE k = {key}")
        session.close()
        replica = cluster.replica_by_name("r2")
        # it rejoins from its own state: replay what it missed
        replayed, recloned = manager.backup.join(replica)
        assert (replayed, recloned) == (5, False)
        assert replica.is_online
        assert cluster.check_convergence()

    def test_add_full_stop_causes_outage(self, cluster):
        manager = ClusterManager(cluster)
        session = cluster.connect(database="shop")
        report = manager.add_replica(empty_replica(), strategy="full_stop")
        assert report.write_outage
        assert session.closed  # every session was kicked
        assert cluster.monitor.count("cluster_stopped") == 1
        assert len(cluster.replicas) == 4
        assert cluster.check_convergence()

    def test_add_donor_keeps_serving_but_loses_capacity(self, cluster):
        manager = ClusterManager(cluster)
        report = manager.add_replica(empty_replica(), strategy="donor")
        assert not report.write_outage    # 3 replicas: others keep serving
        assert report.donor_offline is not None
        assert cluster.check_convergence()
        assert all(r.is_online for r in cluster.replicas)

    def test_add_donor_single_replica_means_outage(self):
        replicas = make_replicas(1, schema=KV_SCHEMA)
        mw = ReplicationMiddleware(replicas, MiddlewareConfig(
            replication="writeset"))
        seed_kv(mw, rows=3)
        manager = ClusterManager(mw)
        report = manager.add_replica(empty_replica(), strategy="donor")
        assert report.write_outage  # the paper's m/cluster criticism

    def test_add_recovery_log_no_outage(self, cluster):
        manager = ClusterManager(cluster)
        report = manager.add_replica(empty_replica(),
                                     strategy="recovery_log")
        assert not report.write_outage
        assert report.rows_transferred == 10
        assert cluster.check_convergence()
        assert len(cluster.replicas) == 4

    def test_new_replica_serves_reads(self, cluster):
        manager = ClusterManager(cluster)
        manager.add_replica(empty_replica(), strategy="recovery_log")
        new = cluster.replica_by_name("new")
        c = new.engine.connect(database="shop")
        assert c.execute("SELECT COUNT(*) FROM kv").scalar() == 10

    def test_add_replica_catches_missed_updates(self, cluster):
        manager = ClusterManager(cluster)
        backup = manager.backup.hot_backup("r0")
        # updates commit while the new node restores
        session = cluster.connect(database="shop")
        session.execute("UPDATE kv SET v = 42 WHERE k = 0")
        session.close()
        report = manager.add_replica(empty_replica(),
                                     strategy="recovery_log", backup=backup)
        assert report.entries_replayed >= 1
        new = cluster.replica_by_name("new")
        c = new.engine.connect(database="shop")
        assert c.execute("SELECT v FROM kv WHERE k = 0").scalar() == 42


class TestUpgrades:
    def test_rolling_upgrade_keeps_data_and_converges(self, cluster):
        manager = ClusterManager(cluster)
        report = manager.rolling_engine_upgrade(
            lambda old: old.with_version("9.9"))
        assert report.detail["versions"] == ["9.9"]
        assert not report.write_outage
        assert all(r.engine.dialect.version == "9.9"
                   for r in cluster.online_replicas())
        assert cluster.check_convergence()

    def test_full_stop_upgrade_is_outage(self, cluster):
        manager = ClusterManager(cluster)
        session = cluster.connect(database="shop")
        report = manager.full_stop_engine_upgrade(
            lambda old: old.with_version("9.9"))
        assert report.write_outage
        assert session.closed

    def test_driver_upgrade_cost_asymmetry(self):
        """Paper 4.3.1: 500 clients vs 4 server nodes."""
        costs = ClusterManager.driver_upgrade_cost(client_machines=500)
        assert costs["client_minutes"] == 500 * 15
        assert costs["ratio"] > 50


class TestBackup:
    def test_hot_backup_tags_checkpoint(self, cluster):
        coordinator = BackupCoordinator(cluster)
        backup = coordinator.hot_backup("r0")
        assert backup.mode == "hot"
        assert backup.global_seq == cluster.replica_by_name("r0").applied_seq
        assert backup.checkpoint_name in cluster.recovery_log.checkpoints

    def test_join_from_an_overtaken_snapshot_reclones(self, cluster):
        """A released snapshot no longer holds the log: once its tail is
        purged, a join from it cannot replay forward — it starts over
        from a fresh snapshot of a live peer, and says so."""
        cluster.config.retention_watermark = 8
        coordinator = BackupCoordinator(cluster)
        backup = coordinator.hot_backup("r0")
        coordinator.release(backup)
        assert backup.checkpoint_name not in cluster.recovery_log.checkpoints
        session = cluster.connect(database="shop")
        for index in range(20):
            session.execute(f"UPDATE kv SET v = {index} WHERE k = 1")
        session.close()
        assert cluster.recovery_log.purged_seq > backup.global_seq
        newcomer = empty_replica()
        replayed, recloned = coordinator.join(newcomer, backup)
        assert recloned
        assert newcomer.is_online
        assert newcomer.applied_seq == cluster.recovery_log.head_seq
        assert cluster.check_convergence()
        # the fresh snapshot's own checkpoint did not stay behind
        assert not cluster.recovery_log.checkpoints

    def test_forgotten_backup_pins_the_log_visibly(self, cluster):
        """A kept backup is a promise that its tail stays replayable:
        it holds every log, the monitor names it once, and releasing it
        lets the next cut through."""
        cluster.config.retention_watermark = 8
        coordinator = BackupCoordinator(cluster)
        backup = coordinator.hot_backup("r0")
        session = cluster.connect(database="shop")
        for index in range(60):
            session.execute(f"UPDATE kv SET v = {index} WHERE k = 2")
        held = cluster.retention()
        assert held["floor"] == backup.global_seq
        assert held["holder"] == f"checkpoint:{backup.checkpoint_name}"
        assert held["recovery_log"] >= 60 and held["certifier_log"] >= 60
        [event] = cluster.monitor.events_of("retention_stalled")
        assert event.detail["holder"] == held["holder"]
        assert event.detail["seq"] == backup.global_seq
        assert event.detail["log_length"] == 4 * 8 + 1
        # the tail is really there: a join from the kept backup replays
        replayed, recloned = coordinator.join(empty_replica("kept"), backup)
        assert (replayed, recloned) == (60, False)

        later = coordinator.hot_backup("r1")
        for index in range(40):
            session.execute(f"UPDATE kv SET v = {index} WHERE k = 3")
        assert len(cluster.recovery_log.entries) >= 40
        coordinator.release(later)
        session.execute("UPDATE kv SET v = 0 WHERE k = 3")
        session.close()
        assert len(cluster.recovery_log.entries) <= 8
        assert cluster.certifier.log_length() <= 8
        assert cluster.stats["retention_floor"] >= later.global_seq
        assert cluster.check_convergence()

    def test_hot_backup_donor_keeps_serving(self, cluster):
        coordinator = BackupCoordinator(cluster)
        coordinator.hot_backup("r0")
        assert cluster.replica_by_name("r0").is_online

    def test_cold_backup_takes_donor_offline(self, cluster):
        coordinator = BackupCoordinator(cluster)
        backup = coordinator.cold_backup("r1")
        assert not cluster.replica_by_name("r1").is_online
        # cluster keeps committing meanwhile
        session = cluster.connect(database="shop")
        session.execute("UPDATE kv SET v = 5 WHERE k = 5")
        session.close()
        replayed = coordinator.resume_offline_donor(backup)
        assert replayed == 1
        assert cluster.check_convergence()

    def test_restore_plus_replay_is_exact(self, cluster):
        coordinator = BackupCoordinator(cluster)
        backup = coordinator.hot_backup("r0")
        session = cluster.connect(database="shop")
        session.execute("UPDATE kv SET v = 7 WHERE k = 7")
        session.execute("INSERT INTO kv VALUES (200, 1)")
        session.close()
        target = empty_replica("restored")
        replayed = coordinator.restore_to_replica(backup, target)
        assert replayed == 2
        assert (target.engine.content_signature()
                == cluster.replicas[0].engine.content_signature())

    def test_backup_of_offline_replica_rejected(self, cluster):
        from repro.core import ReplicaUnavailable, ReplicaState
        cluster.replica_by_name("r0").set_state(ReplicaState.OFFLINE)
        coordinator = BackupCoordinator(cluster)
        with pytest.raises(ReplicaUnavailable):
            coordinator.hot_backup("r0")
