"""Two doors, one verdict.

The same failure met through ``MiddlewareSession.execute`` and through
``ShardedSession.execute`` — outside a transaction, opening one, or
committing one that was already open — leaves as the same class with the
same ``retry`` label, a ``MiddlewareError`` or ``SQLError`` every time;
the door serves again once the fault is healed, and nothing a failed
request did is visible afterwards.  The second half pins the mechanism
on the source: one admission class, and no retry label edited onto an
error after it was raised.
"""

from __future__ import annotations

import ast
import importlib
import inspect
import pkgutil
from pathlib import Path

import pytest

import repro
from repro.bench.harness import build_cluster
from repro.core.admission import REJECT_QUEUE
from repro.core.errors import (
    FATAL, RETRY_AFTER_FAILOVER, RETRY_SAFE, FencedOut, MiddlewareDown,
    MiddlewareError, NoReplicaAvailable, Overloaded, ReplicaUnavailable,
    retry_label,
)
from repro.core.failover import FailoverManager
from repro.core.resilience import ResiliencePolicy, RetryPolicy
from repro.ha import HAPair
from repro.shard import HashSharder, ShardedCluster
from repro.sqlengine.errors import SQLError

DATABASE = "shop"
BUMP = "UPDATE kv SET v = v + 1 WHERE k = 0"
READ = "SELECT v FROM kv WHERE k = 0"


def make_group(name: str, resilience=None):
    middleware = build_cluster(
        2, replication="writeset", consistency="gsi", propagation="sync",
        resilience=resilience, name=name)
    session = middleware.connect(database=DATABASE)
    session.execute("CREATE TABLE kv (k INT PRIMARY KEY, v INT)")
    session.close()
    return middleware


class MiddlewareDoor:
    """One replication group, optionally behind an HA pair; clients come
    in through the pair's virtual IP when there is one."""

    def __init__(self, paired: bool, watched: bool = True, resilience=None):
        self.group = make_group("mw", resilience)
        self.pair = HAPair(self.group) if paired else None
        self.connect().execute("INSERT INTO kv (k, v) VALUES (0, 0)")

    @property
    def leader(self):
        return self.pair.active if self.pair is not None else self.group

    def connect(self):
        if self.pair is not None:
            return self.pair.connect(database=DATABASE)
        return self.group.connect(database=DATABASE)

    def reconnect(self, session):
        """After a heal: a session on a dead or deposed process is gone
        by definition — its client hangs up (which is what frees a
        deposed-but-alive leader's locks) and re-resolves the virtual
        IP."""
        if session.closed or session.middleware is not self.leader:
            session.close()
            return self.connect()
        return session

    def relink(self) -> None:
        pass

    def converged(self) -> bool:
        return self.leader.check_convergence()


class ShardDoor:
    """Two groups behind the router; key 0 lives on group 0, which is
    the one the scenario breaks.  ``watched=False`` registers the bare
    leader and builds its pair behind the router's back — the only way a
    fence surfaces through this door instead of being rerouted."""

    def __init__(self, paired: bool, watched: bool = True, resilience=None):
        self.group = make_group("g0", resilience)
        self.pair = HAPair(self.group) if paired else None
        entry = self.pair if paired and watched else self.group
        self.cluster = ShardedCluster(
            [entry, make_group("g1", resilience)])
        self.cluster.register_table("kv", "k", HashSharder(2))
        session = self.connect()
        session.execute("INSERT INTO kv (k, v) VALUES (0, 0)")
        session.execute("INSERT INTO kv (k, v) VALUES (1, 10)")

    @property
    def leader(self):
        return self.pair.active if self.pair is not None else self.group

    def connect(self):
        return self.cluster.connect(database=DATABASE)

    def reconnect(self, session):
        return session      # the router re-resolves underneath it

    def relink(self) -> None:
        """The operator hands an unwatched pair to the router."""
        if self.pair is not None and self.cluster.pairs[0] is None:
            self.cluster.attach_pair(0, self.pair)

    def converged(self) -> bool:
        return self.cluster.check_convergence()


DOORS = (MiddlewareDoor, ShardDoor)


# -- the faults --------------------------------------------------------------

def every_replica_failed(door):
    for replica in door.leader.replicas:
        replica.engine.crash()
        replica.mark_failed()


def replicas_repaired(door):
    manager = FailoverManager(door.leader)
    for replica in door.leader.replicas:
        manager.failback(replica.name)


def promoted(door):
    door.pair.promote()


def leader_killed(door):
    door.leader.fail()


def leader_restarted(door):
    door.leader.recover()


def standby_spent(door):
    door.pair.kill_active()
    door.pair.promote()


def nothing(door):
    pass


#: name -> (paired, watched, before clients connect, the fault, the heal,
#:          class(es) both doors raise, label both doors carry)
SCENARIOS = {
    "every replica of the group failed": (
        False, True, nothing, every_replica_failed, replicas_repaired,
        (NoReplicaAvailable, ReplicaUnavailable), RETRY_SAFE),
    "leader fenced by a promotion": (
        True, False, nothing, promoted, nothing,
        FencedOut, RETRY_AFTER_FAILOVER),
    "leader killed, a standby behind it": (
        True, True, nothing, leader_killed, promoted,
        MiddlewareDown, RETRY_AFTER_FAILOVER),
    "leader killed after the pair spent its standby": (
        True, True, standby_spent, leader_killed, leader_restarted,
        MiddlewareDown, FATAL),
    "leader killed, never in a pair": (
        False, True, nothing, leader_killed, leader_restarted,
        MiddlewareDown, FATAL),
}

MOMENTS = ("autocommit", "opening a transaction", "committing an open one")


def meet(door, fault, moment):
    """Run one request across ``fault``; the exception it ends in."""
    session = door.connect()
    if moment == "committing an open one":
        session.execute("BEGIN")
        session.execute(BUMP)
    fault(door)
    with pytest.raises(Exception) as caught:  # noqa: PT011 — typed below
        if moment == "autocommit":
            session.execute(BUMP)
        else:
            if moment == "opening a transaction":
                session.execute("BEGIN")
                session.execute(BUMP)
            session.execute("COMMIT")
    return session, caught.value


def serves_again(door, session, committed: int) -> None:
    """The door takes the same request now, nothing the failed one did
    is there, and every replica agrees."""
    session = door.reconnect(session)
    session.execute("ROLLBACK")
    assert session.execute(READ).rows == [(committed,)]
    session.execute(BUMP)
    assert session.execute(READ).rows == [(committed + 1,)]
    assert door.converged()


@pytest.mark.parametrize("moment", MOMENTS)
@pytest.mark.parametrize("scenario", sorted(SCENARIOS))
def test_both_doors_raise_the_same_class_with_the_same_label(
        scenario, moment):
    paired, watched, before, fault, heal, classes, label = \
        SCENARIOS[scenario]
    seen = []
    for make_door in DOORS:
        door = make_door(paired, watched)
        before(door)
        session, error = meet(door, fault, moment)
        assert isinstance(error, (MiddlewareError, SQLError)), \
            f"{make_door.__name__}: bare {type(error).__name__}: {error}"
        assert isinstance(error, classes), (make_door.__name__, error)
        assert retry_label(error) == error.retry == label, \
            (make_door.__name__, error)
        seen.append(type(error))
        heal(door)
        door.relink()
        serves_again(door, session, committed=0)
    assert seen[0] is seen[1]


def test_a_watched_promotion_is_rerouted_or_labelled():
    """What the unwatched row above cannot show: with the pair in its
    registry the router absorbs a promotion for anything that lost no
    state, and builds the error itself — already labelled — for the
    transaction that did."""
    door = ShardDoor(paired=True)
    idle, busy = door.connect(), door.connect()
    assert idle.execute(READ).rows == [(0,)]
    busy.execute("BEGIN")
    busy.execute(BUMP)
    door.pair.promote()
    with pytest.raises(MiddlewareDown) as caught:
        busy.execute(BUMP)
    assert caught.value.retry == RETRY_AFTER_FAILOVER
    idle.execute(BUMP)                      # rerouted: no error at all
    assert door.cluster.stats["group_promotions"] == 1
    serves_again(door, busy, committed=1)


@pytest.mark.parametrize("in_transaction", (False, True))
def test_both_doors_shed_alike(in_transaction):
    """max 2 / watermark 1 (the numbers ``test_admission_sheds_through_
    execute`` uses): a write is shed at the watermark, a read at the cap,
    as one ``Overloaded`` saying which class and why."""
    policy = ResiliencePolicy(retry=RetryPolicy(jitter=0.0),
                              max_inflight=2, write_shed_fraction=0.5)
    for make_door in DOORS:
        door = make_door(paired=False, resilience=policy)
        gate = door.group.resilience.admission
        session = door.connect()
        if in_transaction:
            session.execute("BEGIN")
            assert session.execute(READ).rows == [(0,)]
        held = [gate.admit("read")]         # somebody else's request
        with pytest.raises(Overloaded) as write:
            session.execute(BUMP)
        assert session.execute(READ).rows == [(0,)]
        held.append(gate.admit("read"))
        with pytest.raises(Overloaded) as read:
            session.execute(READ)
        for caught, kind in ((write, "commit"), (read, "read")):
            assert (caught.value.kind, caught.value.reason) == \
                (kind, REJECT_QUEUE), make_door.__name__
            assert retry_label(caught.value) == RETRY_SAFE
        for ticket in held:
            ticket.finish()
        assert gate.snapshot()["rejected"] == {
            "read": {REJECT_QUEUE: 1}, "commit": {REJECT_QUEUE: 1}}
        serves_again(door, session, committed=0)
        assert gate.pending == 0 and gate.acked_then_shed == 0


# -- pinned on the source ----------------------------------------------------

SRC = Path(repro.__file__).parent
LABEL_ATTRIBUTES = {"retry_after_failover", "ambiguous", "retry"}

#: exception classes outside the MiddlewareError / SQLError trees, each
#: with why it is not a door's verdict
NOT_A_VERDICT = {
    "repro.cluster.nodes.NodeDown":
        "raised by a simulated node's CPU/disk to the *timed driver*, "
        "which is the client there; bench/chaos.py maps it to "
        "retry-safe (its docstring says why)",
    "repro.cluster.network.NetworkDown":
        "simulated RPC to an endpoint nobody registered; only "
        "cluster/heartbeat.py and tests send RPCs",
    "repro.cluster.network.NetworkTimeout":
        "simulated RPC timeout, caught by the heartbeat detector",
    "repro.cluster.sim.Interrupt":
        "thrown *into* a simulation process by Process.interrupt()",
    "repro.cluster.sim.SimulationError":
        "misuse of the simulation kernel (negative delay, double "
        "trigger): a bug in a harness, never a request's outcome",
    "repro.sqlengine.locks.LockConflict":
        "the engine's 'would block' in a simulator with no thread to "
        "block; it does reach both doors when two open transactions "
        "write one row (ROADMAP item 2, left) and retry_label's last "
        "row answers fatal for it",
}


def _trees():
    for path in sorted(SRC.rglob("*.py")):
        yield path.relative_to(SRC).as_posix(), ast.parse(path.read_text())


def _own_constructor_arguments(tree):
    """``self.x = …`` inside an ``__init__`` that takes ``x``: a class
    storing its own keyword argument, not an edit of somebody's error."""
    allowed = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.FunctionDef) and node.name == "__init__":
            names = {a.arg for a in node.args.args + node.args.kwonlyargs}
            for inner in ast.walk(node):
                if isinstance(inner, ast.Attribute) \
                        and isinstance(inner.ctx, ast.Store) \
                        and isinstance(inner.value, ast.Name) \
                        and inner.value.id == "self" \
                        and inner.attr in names:
                    allowed.add(inner)
    return allowed


def test_no_label_is_edited_onto_an_error_after_the_fact():
    offenders = []
    for name, tree in _trees():
        if name == "core/errors.py":
            continue
        allowed = _own_constructor_arguments(tree)
        for node in ast.walk(tree):
            if isinstance(node, ast.Attribute) \
                    and isinstance(node.ctx, ast.Store) \
                    and node.attr in LABEL_ATTRIBUTES \
                    and node not in allowed:
                offenders.append(f"{name}:{node.lineno} .{node.attr} =")
            if isinstance(node, ast.Call) \
                    and isinstance(node.func, ast.Name) \
                    and node.func.id in ("getattr", "setattr") \
                    and len(node.args) > 1 \
                    and isinstance(node.args[1], ast.Constant) \
                    and node.args[1].value in LABEL_ATTRIBUTES:
                offenders.append(f"{name}:{node.lineno} {node.func.id}")
    assert not offenders, offenders


def test_no_hand_kept_retryable_tuple_and_one_admission_class():
    tuples, admitters = [], []
    for name, tree in _trees():
        for node in ast.walk(tree):
            label = getattr(node, "id", None) or getattr(node, "attr", None)
            if label in ("RETRYABLE", "TIMED_RETRYABLE"):
                tuples.append(f"{name}:{node.lineno}")
            if isinstance(node, ast.ClassDef) and any(
                    isinstance(item, ast.FunctionDef)
                    and item.name == "try_admit" for item in node.body):
                admitters.append(f"{name}:{node.name}")
    assert not tuples, tuples
    assert admitters == ["core/admission.py:AdmissionGate"]


def test_every_exception_class_is_in_a_tree_or_named():
    stray = {}
    for module_info in pkgutil.walk_packages(repro.__path__, "repro."):
        module = importlib.import_module(module_info.name)
        for _name, cls in inspect.getmembers(module, inspect.isclass):
            if cls.__module__ == module.__name__ \
                    and issubclass(cls, BaseException) \
                    and not issubclass(cls, (MiddlewareError, SQLError)):
                stray[f"{cls.__module__}.{cls.__qualname__}"] = cls
    assert sorted(stray) == sorted(NOT_A_VERDICT)
    # none of them lives where a door's verdicts are decided
    for name in stray:
        assert name.split(".")[1] not in ("core", "shard", "ha", "cache")
    # and retry_label still answers for one that leaks
    assert {retry_label(cls.__new__(cls)) for cls in stray.values()} \
        == {FATAL}
