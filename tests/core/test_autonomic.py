"""Autonomic provisioning tests (paper section 4.4.2 / [9])."""

import pytest

from repro.core import (
    AutonomicProvisioner, CostModel, MiddlewareConfig, Replica,
    ReplicationMiddleware, SyncTimePredictor, protocol_by_name,
)
from repro.sqlengine import Engine, postgresql

from tests.conftest import KV_SCHEMA, make_replicas, seed_kv


class TestSyncTimePredictor:
    def test_replay_rate_scales_with_parallelism(self):
        serial = SyncTimePredictor(replay_parallelism=1)
        parallel = SyncTimePredictor(replay_parallelism=8)
        assert parallel.replay_rate() > serial.replay_rate() * 2

    def test_feasible_prediction(self):
        predictor = SyncTimePredictor(
            CostModel(writeset_apply=0.001), replay_parallelism=1)
        prediction = predictor.predict(
            backup_rows=100000, log_entries_behind=1000,
            cluster_update_rate=100.0)
        assert prediction.feasible
        assert prediction.restore_seconds == pytest.approx(2.0)
        assert prediction.total_seconds > prediction.restore_seconds

    def test_infeasible_when_updates_outpace_replay(self):
        """The section 4.4.2 race: replay slower than the update stream
        means the replica never catches up."""
        predictor = SyncTimePredictor(
            CostModel(writeset_apply=0.01), replay_parallelism=1)
        # replay rate = 100/s; update rate 150/s -> never converges
        prediction = predictor.predict(
            backup_rows=1000, log_entries_behind=10,
            cluster_update_rate=150.0)
        assert not prediction.feasible
        assert prediction.catchup_seconds == float("inf")

    def test_parallel_replay_rescues_infeasible_sync(self):
        cost = CostModel(writeset_apply=0.01)
        serial = SyncTimePredictor(cost, replay_parallelism=1)
        parallel = SyncTimePredictor(cost, replay_parallelism=8)
        rate = 150.0
        assert not serial.predict(1000, 10, rate).feasible
        assert parallel.predict(1000, 10, rate).feasible

    def test_gap_grows_during_restore(self):
        predictor = SyncTimePredictor(CostModel(writeset_apply=0.001),
                                      restore_rows_per_second=1000.0)
        prediction = predictor.predict(
            backup_rows=10000, log_entries_behind=0,
            cluster_update_rate=50.0)
        # 10 s restore at 50 updates/s -> ~500 entries owed at the start
        assert prediction.entries_to_replay >= 500


class TestAutonomicProvisioner:
    def make(self, replicas=3):
        cluster = ReplicationMiddleware(
            make_replicas(replicas, schema=KV_SCHEMA),
            MiddlewareConfig(replication="writeset", propagation="sync",
                             consistency=protocol_by_name("gsi")))
        seed_kv(cluster, rows=10)

        def factory(name):
            return Replica(name, Engine(name, dialect=postgresql()))

        return AutonomicProvisioner(
            cluster, replica_factory=factory,
            high_watermark=3.0, low_watermark=0.5,
            min_replicas=2, max_replicas=5)

    def load_up(self, provisioner, items=10):
        from repro.core import ApplyItem, ApplyUnit
        for replica in provisioner.middleware.replicas:
            for seq in range(1000, 1000 + items):
                replica.enqueue(ApplyItem([ApplyUnit(seq, [])]))

    def drain(self, provisioner):
        for replica in provisioner.middleware.replicas:
            replica.apply_queue.clear()

    def test_hold_within_watermarks(self):
        provisioner = self.make()
        self.load_up(provisioner, items=2)   # between the watermarks
        decision = provisioner.step(update_rate=10.0)
        assert decision.action == "hold"
        assert len(provisioner.middleware.replicas) == 3

    def test_scale_out_under_load(self):
        provisioner = self.make()
        self.load_up(provisioner)
        decision = provisioner.step(update_rate=10.0)
        assert decision.action == "add"
        assert decision.prediction is not None and decision.prediction.feasible
        assert len(provisioner.middleware.online_replicas()) == 4
        assert provisioner.middleware.check_convergence()

    def test_refuses_infeasible_scale_out(self):
        provisioner = self.make()
        provisioner.predictor = SyncTimePredictor(
            CostModel(writeset_apply=0.01), replay_parallelism=1)
        self.load_up(provisioner)
        decision = provisioner.step(update_rate=500.0)  # > replay rate
        assert decision.action == "hold"
        assert "never" in decision.reason or "catch up" in decision.reason

    def test_refuses_over_budget_sync(self):
        provisioner = self.make()
        provisioner.max_sync_seconds = 0.000001
        self.load_up(provisioner)
        decision = provisioner.step(update_rate=1.0)
        assert decision.action == "hold"
        assert "budget" in decision.reason

    def test_scale_in_when_idle(self):
        provisioner = self.make(replicas=4)
        decision = provisioner.step(update_rate=0.0)
        assert decision.action == "remove"
        assert len(provisioner.middleware.online_replicas()) == 3

    def test_never_below_min_replicas(self):
        provisioner = self.make(replicas=2)
        decision = provisioner.step(update_rate=0.0)
        assert decision.action == "hold"
        assert len(provisioner.middleware.online_replicas()) == 2

    def test_never_above_max_replicas(self):
        provisioner = self.make(replicas=3)
        provisioner.max_replicas = 3
        self.load_up(provisioner)
        decision = provisioner.step(update_rate=1.0)
        assert decision.action == "hold"


class TestInformationSchema:
    def test_tables_view(self, conn):
        conn.execute("CREATE TABLE t1 (id INT PRIMARY KEY)")
        rows = conn.execute(
            "SELECT table_db, table_name FROM information_schema.tables "
            "WHERE table_db = 'shop'").rows
        assert ("shop", "t1") in rows

    def test_columns_view(self, conn):
        conn.execute("CREATE TABLE t2 (id INT PRIMARY KEY AUTO_INCREMENT, "
                     "name VARCHAR(10) NOT NULL)")
        rows = conn.execute(
            "SELECT column_name, primary_key, is_auto_increment, nullable "
            "FROM information_schema.columns WHERE table_name = 't2' "
            "ORDER BY ordinal").rows
        assert rows[0] == ("id", True, True, False)
        assert rows[1] == ("name", False, False, False)

    def test_users_and_sequences_views(self, engine, conn):
        engine.users.add_user("bob", "pw")
        conn.execute("CREATE SEQUENCE s START WITH 5")
        conn.execute("SELECT NEXTVAL('s')")
        users = {r[0] for r in conn.execute(
            "SELECT user_name FROM information_schema.users").rows}
        assert {"admin", "bob"} <= users
        row = conn.execute(
            "SELECT last_value FROM information_schema.sequences "
            "WHERE sequence_name = 's'").rows[0]
        assert row == (5,)

    def test_triggers_and_procedures_views(self, conn):
        conn.execute("CREATE TABLE watched (x INT)")
        conn.execute("CREATE TABLE log1 (x INT)")
        conn.execute(
            "CREATE TRIGGER trg AFTER INSERT ON watched FOR EACH ROW "
            "BEGIN INSERT INTO log1 (x) VALUES (1); END")
        conn.execute("CREATE PROCEDURE p(a, b) BEGIN SELECT 1; END")
        trigger = conn.execute(
            "SELECT table_name, timing, event FROM "
            "information_schema.triggers WHERE trigger_name = 'trg'").rows
        assert trigger == [("watched", "AFTER", "INSERT")]
        procedure = conn.execute(
            "SELECT parameter_count FROM information_schema.procedures "
            "WHERE procedure_name = 'p'").scalar()
        assert procedure == 2

    def test_views_are_read_only(self, conn):
        from repro.sqlengine import AccessDeniedError, SQLError
        with pytest.raises((AccessDeniedError, SQLError)):
            conn.execute(
                "DELETE FROM information_schema.tables")

    def test_unknown_view_raises(self, conn):
        from repro.sqlengine import NameError_
        with pytest.raises(NameError_):
            conn.execute("SELECT * FROM information_schema.nonsense")

    def test_join_with_user_tables(self, conn):
        """Middleware can discover schema and correlate it with data."""
        conn.execute("CREATE TABLE inv (id INT PRIMARY KEY)")
        count = conn.execute(
            "SELECT COUNT(*) FROM information_schema.columns c "
            "WHERE c.table_name = 'inv'").scalar()
        assert count == 1
