"""The timed driver charges what the middleware decided.

``TimedCluster`` asks the middleware's one read choice
(``ReplicationMiddleware.choose_read_replica``) and one write choice
(``core.transaction.write_replica``), charges the node they name and
executes there through ``execute_one_parsed(..., replica=)``.  These
tests pin that: no second copy of the choice in ``bench/simdriver.py``,
every statement charge lands on the replica that served the statement,
and each timed number the old second copy got wrong.
"""

import ast
import random
from pathlib import Path

import pytest

from repro.bench import TimedCluster, build_cluster, load_workload
from repro.bench.simdriver import ClientLoop
from repro.cluster import Environment
from repro.core import (
    CostModel, MemoryAwarePolicy, ResiliencePolicy, RetryPolicy,
    RoundRobinPolicy, ReplicaState,
)
from repro.workloads import MicroWorkload, TxnSpec

ROOT = Path(__file__).resolve().parents[2]
SIMDRIVER = ROOT / "src" / "repro" / "bench" / "simdriver.py"
# a statement's service time no other charge (commit, apply) can equal
STATEMENT = 0.000123457


class TaggedCost(CostModel):
    """Every statement costs ``STATEMENT``, so its charges can be told
    from commit and apply charges on the same nodes."""

    def statement_cost(self, info):
        return STATEMENT


class RecordingCluster(TimedCluster):
    """Records, per timed read / write, the nodes charged a statement's
    service time and the replicas whose served counts moved."""

    def __init__(self, *args, **kwargs):
        super().__init__(*args, **kwargs)
        self.checked = []
        self.charged = []
        for replica in self.middleware.replicas:
            self._record_charges(replica)

    def _record_charges(self, replica):
        node, charged = replica.node, self.charged
        execute = node.execute

        def recording(service, *args, **kwargs):
            if service == STATEMENT:
                charged.append(replica.name)
            return execute(service, *args, **kwargs)
        node.execute = recording

    def _served(self):
        return {r.name: r.stats["served_reads"] + r.stats["served_writes"]
                for r in self.middleware.replicas}

    def _check(self, kind, step):
        before, mark = self._served(), len(self.charged)
        error = None
        try:
            yield from step
        except Exception as exc:  # noqa: BLE001 — recorded, re-raised
            error = exc
        after = self._served()
        moved = sorted(name for name in after if after[name] != before[name])
        self.checked.append((kind, sorted(self.charged[mark:]), moved,
                             error))
        if error is not None:
            raise error

    def _timed_read(self, *args):
        yield from self._check("read", super()._timed_read(*args))

    def _timed_write(self, *args):
        yield from self._check("write", super()._timed_write(*args))


class OutcomeLoop(ClientLoop):
    """The client loop, noting each transaction's (latency, ok, error)."""

    def __init__(self, cluster):
        super().__init__(cluster)
        self.outcomes = []

    def _settle(self, spec, start, error, root, admitted=True):
        super()._settle(spec, start, error, root, admitted)
        self.outcomes.append((self.env.now - start, not error, error))

    def run(self, session, spec):
        """Generator: ``spec`` on ``session``, one transaction."""
        yield from self._client(None, 1, session=session, spec=spec)


class MixedWorkload(MicroWorkload):
    """Autocommit reads and writes, read-only transactions and write
    transactions that read before and after they write, over two tables
    (so a memory-aware balancer has a working set to place by)."""

    def setup_sql(self):
        return MicroWorkload(rows=self.rows, table="kv").setup_sql() \
            + MicroWorkload(rows=self.rows, table="kw").setup_sql()

    def next_transaction(self, rng):
        key, table = rng.randrange(self.rows), rng.choice(("kv", "kw"))
        read = (f"SELECT v FROM {table} WHERE k = {key}", [])
        write = (f"UPDATE {table} SET v = v + 1 WHERE k = {key}", [])
        kind = rng.randrange(4)
        if kind == 0:
            return TxnSpec([read], True, [table])
        if kind == 1:
            return TxnSpec([write], False, [table])
        if kind == 2:
            return TxnSpec([read, read], True, [table])
        return TxnSpec([read, write, read], False, [table])


MODES = {
    "writeset": ("writeset", "strong-session-si"),
    "statement": ("statement", "1sr"),
    "master": ("writeset", "rsi-pc"),
}
POLICIES = {"round_robin": RoundRobinPolicy, "memory_aware": MemoryAwarePolicy}


def _run(env, cluster, workload, session, count, seed=5):
    rng = random.Random(seed)
    loop = OutcomeLoop(cluster)

    def client():
        for _ in range(count):
            yield from loop.run(session, workload.next_transaction(rng))
    env.process(client())
    env.run(until=60.0)
    cluster.stop()
    return loop.outcomes


@pytest.mark.parametrize("policy", sorted(POLICIES))
@pytest.mark.parametrize("window", [0.0, 0.002], ids=["gc_off", "gc_on"])
@pytest.mark.parametrize("propagation", ["sync", "async"])
@pytest.mark.parametrize("mode", sorted(MODES))
def test_every_statement_charge_lands_where_it_executed(mode, propagation,
                                                        window, policy):
    replication, consistency = MODES[mode]
    env = Environment()
    middleware = build_cluster(
        3, replication=replication, consistency=consistency,
        propagation=propagation, policy=POLICIES[policy](), env=env)
    workload = MixedWorkload(rows=20)
    load_workload(middleware, workload)
    cluster = RecordingCluster(env, middleware, cost_model=TaggedCost(),
                               group_commit_window=window)
    session = middleware.connect(database="shop")
    outcomes = _run(env, cluster, workload, session, count=60)
    assert all(ok for _latency, ok, _error in outcomes)
    kinds = {kind for kind, _charged, _moved, _error in cluster.checked}
    assert kinds == {"read", "write"}
    for kind, charged, moved, error in cluster.checked:
        assert error is None
        assert charged == moved, (kind, charged, moved)


def test_simdriver_keeps_no_decision_of_its_own():
    names = ("route" + "_override", "write" + "_override")
    for folder in ("src", "tests"):
        for path in sorted((ROOT / folder).rglob("*.py")):
            text = path.read_text()
            assert not any(name in text for name in names), path
    tree = ast.parse(SIMDRIVER.read_text())
    found = []
    for node in ast.walk(tree):
        if isinstance(node, ast.Name) and node.id == "RoutingContext":
            found.append(node.id)
        if isinstance(node, ast.Attribute) and node.attr in (
                "choose", "read_eligible", "min_read_seq"):
            found.append(node.attr)
    assert found == []


# -- what the second copy got wrong ------------------------------------------

def _timed(count=3, consistency="gsi", propagation="async",
           cost_model=None, **kwargs):
    env = Environment()
    middleware = build_cluster(count, replication="writeset",
                               consistency=consistency,
                               propagation=propagation, env=env, **kwargs)
    load_workload(middleware, MicroWorkload(rows=10))
    middleware.drain_all()
    cluster = RecordingCluster(env, middleware,
                               cost_model=cost_model or TaggedCost())
    return env, middleware, cluster


def _client(env, cluster, session, steps, until=10.0):
    """Run ``steps`` — SQL strings, or callables run between them — as
    one simulated client; returns each statement's outcome."""
    loop = OutcomeLoop(cluster)

    def client():
        for step in steps:
            if callable(step):
                step()
                continue
            yield from loop.run(
                session, TxnSpec([(step, [])], step.startswith("SELECT")))
    env.process(client())
    env.run(until=env.now + until)
    return loop.outcomes


def test_no_online_replica_fails_a_read_at_once():
    """GSI never waits for freshness.  The old copy polled eligibility
    for 2 s, one counted wait per 2 ms poll, when nothing was online."""
    env, middleware, cluster = _timed()
    session = middleware.connect(database="shop")
    for replica in middleware.replicas:
        replica.set_state(ReplicaState.OFFLINE)
    [(latency, ok, error)] = _client(env, cluster, session,
                                     ["SELECT v FROM kv WHERE k = 1"])
    assert (ok, error) == (False, "NoReplicaAvailable")
    assert latency < 0.01
    assert middleware.stats["freshness_waits"] == 0


def test_a_freshness_wait_is_one_wait_on_the_chosen_replica():
    """The middleware chooses the most caught-up replica and counts one
    wait; the timed driver waits for that replica's apply worker (the
    old copy counted a wait per 2 ms poll)."""
    env, middleware, cluster = _timed(
        consistency="strong-session-si",
        cost_model=TaggedCost(writeset_apply=0.02))
    session = middleware.connect(database="shop")

    def origin_goes_offline():
        [(_kind, _charged, [origin], _error)] = cluster.checked
        middleware.replica_by_name(origin).set_state(ReplicaState.OFFLINE)
        assert all(r.apply_queue for r in middleware.online_replicas())
    outcomes = _client(env, cluster, session, [
        "UPDATE kv SET v = 5 WHERE k = 1", origin_goes_offline,
        "SELECT v FROM kv WHERE k = 1"])
    assert [ok for _latency, ok, _error in outcomes] == [True, True]
    assert middleware.stats["freshness_waits"] == 1
    [(kind, charged, moved, _error)] = cluster.checked[1:]
    assert kind == "read" and charged == moved
    assert moved == [middleware.online_replicas()[0].name]


def test_the_resilience_layer_may_serve_a_timed_read_stale():
    """Degraded mode: master down, the survivor lagging — the timed read
    is served stale at once, as the synchronous path serves it (the old
    copy waited for freshness first)."""
    policy = ResiliencePolicy(retry=RetryPolicy(max_attempts=4, jitter=0.0))
    env, middleware, cluster = _timed(
        count=2, consistency="rsi-pc", resilience=policy,
        cost_model=TaggedCost(writeset_apply=0.05))
    session = middleware.connect(database="shop")
    master, slave = middleware.replicas

    def master_dies():
        assert slave.apply_queue
        master.engine.crash()
        master.mark_failed()
    outcomes = _client(env, cluster, session, [
        "UPDATE kv SET v = 7 WHERE k = 0", master_dies,
        "SELECT v FROM kv WHERE k = 0"])
    assert [ok for _latency, ok, _error in outcomes] == [True, True]
    assert middleware.resilience.stats["degraded_reads"] == 1
    assert middleware.stats["freshness_waits"] == 0


def test_a_write_whose_charged_master_died_fails():
    """Under a master protocol the old copy's write override lost to the
    master branch: a write charged on a master that died mid-charge ran,
    uncharged, on the promoted one.  Now it raises ReplicaUnavailable
    and nothing runs anywhere."""
    env, middleware, cluster = _timed(count=2, consistency="rsi-pc",
                                      propagation="sync")
    session = middleware.connect(database="shop")
    master, slave = middleware.replicas

    def fail_over():
        yield env.timeout(cluster.client_latency
                          + cluster.cost.middleware_cost() + STATEMENT / 2)
        master.mark_failed()
        middleware.set_master(slave.name)
    env.process(fail_over())
    [(_latency, ok, error)] = _client(env, cluster, session,
                                      ["UPDATE kv SET v = 3 WHERE k = 2"])
    assert (ok, error) == (False, "ReplicaUnavailable")
    [(kind, charged, moved, _error)] = cluster.checked
    assert (kind, charged, moved) == ("write", [master.name], [])
    assert slave.stats["served_writes"] == 0


def test_writeset_ddl_is_charged_at_every_replica():
    """Writeset replication broadcasts DDL (it has no writeset); the old
    copy charged it at one replica plus a certification round."""
    env, middleware, cluster = _timed()
    session = middleware.connect(database="shop")
    [(_latency, ok, _error)] = _client(env, cluster, session, [
        "CREATE TABLE extra (k INT PRIMARY KEY)"])
    assert ok
    assert cluster.checked[0][1] == sorted(r.name for r in middleware.replicas)


def test_a_synchronous_write_is_placed_by_its_tables():
    """The write choice passes the statement's tables to the balancer, as
    the timed driver's copy did and the synchronous path did not: a
    memory-aware policy sends a write to the replica whose working set
    holds its table."""
    middleware = build_cluster(3, replication="writeset", consistency="gsi",
                               policy=MemoryAwarePolicy())
    load_workload(middleware, MicroWorkload(rows=10))
    hot = middleware.replicas[2]
    for replica in middleware.replicas:
        replica.hot_tables = type(replica.hot_tables)()
    hot.note_hot_tables(["kv"])
    session = middleware.connect(database="shop")
    served = [r.stats["served_writes"] for r in middleware.replicas]
    session.execute("UPDATE kv SET v = 1 WHERE k = 1")
    assert [r.stats["served_writes"] - s for r, s in
            zip(middleware.replicas, served)] == [0, 0, 1]
