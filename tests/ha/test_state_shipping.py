"""Synchronous state shipping: bootstrap transfer, the two-phase
per-commit path, and consistency-token shipping."""

from repro.ha import COMMITTED, HAPair, build_standby
from tests.ha.util import DATABASE, make_leader


def test_bootstrap_copies_existing_state():
    middleware = make_leader(rows=4)
    pair = HAPair(middleware)
    state = pair.state
    assert state.certifier_log == middleware.certifier.export_log()
    assert state.seq == middleware.certifier.current_seq
    assert len(state.commits) == len(middleware.recovery_log.entries)
    assert state.master_name == middleware._master_name
    # each side holds one link; between them they share the fence
    leader, standby = middleware.ha, pair.standby.ha
    assert (leader.role, standby.role) == ("active", "standby")
    assert leader.shipper is pair.shipper
    assert leader.standby_name == pair.standby.name
    assert leader.fence is standby.fence is pair.fence
    assert standby.ledger is pair.state.ledger
    assert (standby.shipper, standby.standby_name) == (None, None)


def test_the_standby_is_built_from_a_copy_of_the_leaders_config():
    """Every policy object is the leader's own — only the balancer, whose
    affinity is shipped state, is a fresh one of the same kind — so a
    field added to ``MiddlewareConfig`` cannot be forgotten here."""
    middleware = make_leader()
    standby = build_standby(middleware)
    assert vars(standby.config).keys() == vars(middleware.config).keys()
    for name, value in vars(middleware.config).items():
        if name != "balancer":
            assert getattr(standby.config, name) is value, name
    mine, theirs = middleware.config.balancer, standby.config.balancer
    assert theirs is not mine
    assert type(theirs.policy) is type(mine.policy)
    assert theirs.level == mine.level


def test_commit_ships_two_phases_and_ledger():
    pair = HAPair(make_leader())
    before = len(pair.state.certifier_log)
    session = pair.connect(database=DATABASE, client_id="alice")
    session.client_txn_id = "alice:1"
    session.execute("BEGIN")
    session.execute("UPDATE kv SET v = v + 1 WHERE k = 0")
    session.execute("COMMIT")
    session.close()
    assert pair.shipper.stats["prepares"] == 1
    assert pair.shipper.stats["acks"] == 1
    assert len(pair.state.certifier_log) == before + 1
    record = pair.state.ledger.outcome("alice:1")
    assert record is not None and record.status == COMMITTED
    # the ack shipped the session's consistency token
    assert "alice" in pair.state.session_tokens
    token = pair.state.session_tokens["alice"]
    assert token[0] >= record.seq or token[1] >= record.seq


def test_autocommit_write_is_shipped():
    pair = HAPair(make_leader())
    session = pair.connect(database=DATABASE, client_id="bob")
    session.execute("UPDATE kv SET v = v + 1 WHERE k = 1")
    session.close()
    assert pair.shipper.stats["prepares"] == 1
    assert pair.shipper.stats["acks"] == 1


def test_ddl_is_shipped():
    pair = HAPair(make_leader())
    session = pair.connect(database=DATABASE)
    session.execute("CREATE TABLE extra (id INT PRIMARY KEY)")
    session.close()
    assert any(c.kind == "statements" and "extra" in c.tables
               for c in pair.state.commits)


def test_reads_ship_nothing():
    pair = HAPair(make_leader())
    session = pair.connect(database=DATABASE)
    session.execute("SELECT v FROM kv WHERE k = 0")
    session.close()
    assert pair.shipper.stats["prepares"] == 0


def test_session_token_restores_read_your_writes():
    pair = HAPair(make_leader())
    session = pair.connect(database=DATABASE, client_id="carol")
    session.client_txn_id = "carol:1"
    session.execute("UPDATE kv SET v = v + 1 WHERE k = 2")
    committed_seq = session.view.last_commit_seq
    session.close()
    # a reconnect under the same client_id restores the shipped token
    fresh = pair.connect(database=DATABASE, client_id="carol")
    assert fresh.view.last_commit_seq >= committed_seq
    fresh.close()
