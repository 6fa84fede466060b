"""Load balancing: levels and policies (paper section 3.2).

Levels: *connection* (replica chosen when the client connects, sticky
thereafter — "simple, but offers poor balancing when clients use
connection pools"), *transaction* (chosen per transaction) and *query*
(chosen per read query).

Policies: round-robin, uniform random, weighted (heterogeneous clusters,
section 4.1.3), LPRF — "least pending requests first" as used by C-JDBC —
and a Tashkent+-style memory-aware policy that prefers the replica whose
working set already contains the transaction's tables.
"""

from __future__ import annotations

import enum
import random
from typing import Callable, List, Optional, Sequence

from .errors import CircuitOpen, NoReplicaAvailable
from .replica import Replica


class BalancingLevel(enum.Enum):
    CONNECTION = "connection"
    TRANSACTION = "transaction"
    QUERY = "query"


class RoutingContext:
    """What a policy may look at when choosing."""

    __slots__ = ("tables", "session_id", "is_write")

    def __init__(self, tables: Optional[Sequence[str]] = None,
                 session_id: Optional[int] = None, is_write: bool = False):
        # Policies only read `tables`; reuse caller lists (the analysis
        # cache hands out one sorted list per statement shape) instead of
        # copying on every routed read.
        if type(tables) is list:
            self.tables = tables
        else:
            self.tables = list(tables or [])
        self.session_id = session_id
        self.is_write = is_write


class Policy:
    """Base class: pick one replica among online candidates."""

    name = "base"

    def choose(self, candidates: List[Replica],
               context: RoutingContext) -> Replica:
        raise NotImplementedError


class RoundRobinPolicy(Policy):
    name = "round_robin"

    def __init__(self):
        self._next = 0

    def choose(self, candidates: List[Replica],
               context: RoutingContext) -> Replica:
        replica = candidates[self._next % len(candidates)]
        self._next += 1
        return replica


class RandomPolicy(Policy):
    name = "random"

    def __init__(self, seed: int = 1):
        self._rng = random.Random(seed)

    def choose(self, candidates: List[Replica],
               context: RoutingContext) -> Replica:
        return self._rng.choice(candidates)


class WeightedPolicy(Policy):
    """Weighted random — weights express heterogeneous capacity."""

    name = "weighted"

    def __init__(self, seed: int = 1):
        self._rng = random.Random(seed)

    def choose(self, candidates: List[Replica],
               context: RoutingContext) -> Replica:
        total = sum(r.weight for r in candidates)
        roll = self._rng.uniform(0, total)
        cursor = 0.0
        for replica in candidates:
            cursor += replica.weight
            if roll <= cursor:
                return replica
        return candidates[-1]


class LeastPendingPolicy(Policy):
    """LPRF: route to the replica with the fewest pending requests — the
    dynamic policy the paper credits with absorbing heterogeneity [8]."""

    name = "lprf"

    def choose(self, candidates: List[Replica],
               context: RoutingContext) -> Replica:
        return min(candidates, key=lambda r: (r.load, r.name))


class MemoryAwarePolicy(Policy):
    """Tashkent+-flavoured: prefer replicas whose hot set covers the
    transaction's tables, so execution stays in memory; break ties with a
    base policy."""

    name = "memory_aware"

    def __init__(self, base: Optional[Policy] = None,
                 hot_bonus: float = 1.0, working_set_capacity: int = 8):
        self.base = base or LeastPendingPolicy()
        self.hot_bonus = hot_bonus
        self.working_set_capacity = working_set_capacity

    def choose(self, candidates: List[Replica],
               context: RoutingContext) -> Replica:
        if not context.tables:
            chosen = self.base.choose(candidates, context)
        else:
            def score(replica: Replica) -> tuple:
                hotness = replica.hotness(context.tables)
                # higher hotness first; among equally-cold replicas prefer
                # the one with the most free working-set capacity, so
                # distinct working sets spread across the cluster
                return (-hotness * self.hot_bonus, len(replica.hot_tables),
                        replica.load, replica.name)
            chosen = min(candidates, key=score)
        chosen.note_hot_tables(context.tables, self.working_set_capacity)
        return chosen


POLICIES = {
    "round_robin": RoundRobinPolicy,
    "random": RandomPolicy,
    "weighted": WeightedPolicy,
    "lprf": LeastPendingPolicy,
    "memory_aware": MemoryAwarePolicy,
}


class LoadBalancer:
    """Chooses a read replica at the configured granularity.

    The balancer is *state held in the middleware*: if the middleware
    instance dies, sticky assignments die with it (the SPOF discussion of
    section 3.2 — exercised by benchmark E09).
    """

    def __init__(self, policy: Optional[Policy] = None,
                 level: BalancingLevel = BalancingLevel.QUERY):
        self.policy = policy or RoundRobinPolicy()
        self.level = level
        # session id -> sticky replica name (connection/transaction level)
        self._sticky: dict = {}
        self.decisions = 0
        # Optional health veto (name -> admissible?), installed by the
        # resilience layer's circuit breakers: a replica may be nominally
        # online yet ejected from candidacy because it keeps failing
        # requests faster than any failure detector would notice.
        self._health_filter: Optional[Callable[[str], bool]] = None
        self.health_rejections = 0
        # Reads answered by the result cache never reach `choose`: they
        # add zero replica load.  Counted so load accounting (decisions vs
        # actual traffic) stays explainable in experiments.
        self.cache_bypasses = 0
        # (chosen, candidate count, sticky) of the last `choose`; see
        # `last_decision`
        self._last: Optional[tuple] = None

    @property
    def last_decision(self) -> Optional[dict]:
        """Why the last ``choose`` picked what it picked — read by the
        tracing layer to tag the balancer.choose span (repro.obs) right
        after ``choose`` returns; built only when read."""
        if self._last is None:
            return None
        chosen, candidates, sticky = self._last
        return {"policy": self.policy.name, "replica": chosen.name,
                "candidates": candidates, "sticky": sticky}

    def note_cache_hit(self) -> None:
        """A read was served from the middleware result cache instead of
        being balanced onto a replica."""
        self.cache_bypasses += 1

    def set_health_filter(self,
                          health: Optional[Callable[[str], bool]]) -> None:
        self._health_filter = health

    def choose(self, candidates: List[Replica],
               context: RoutingContext) -> Replica:
        """One of ``candidates`` — the online replicas the caller found
        eligible (every caller filters on ``is_online``)."""
        if not candidates:
            raise NoReplicaAvailable("no online replica can serve the request")
        if self._health_filter is not None:
            healthy = [r for r in candidates if self._health_filter(r.name)]
            if not healthy:
                self.health_rejections += 1
                raise CircuitOpen(
                    "every candidate replica is ejected by its circuit "
                    f"breaker ({[r.name for r in candidates]})")
            candidates = healthy
        self.decisions += 1

        if self.level is BalancingLevel.QUERY or context.session_id is None:
            chosen = self.policy.choose(candidates, context)
            self._last = (chosen, len(candidates), False)
            return chosen

        sticky_name = self._sticky.get(context.session_id)
        if sticky_name is not None:
            for replica in candidates:
                if replica.name == sticky_name:
                    self._last = (replica, len(candidates), True)
                    return replica
        chosen = self.policy.choose(candidates, context)
        self._sticky[context.session_id] = chosen.name
        self._last = (chosen, len(candidates), False)
        return chosen

    def end_transaction(self, session_id: int) -> None:
        """Transaction-level balancing drops stickiness at commit."""
        if self.level is BalancingLevel.TRANSACTION:
            self._sticky.pop(session_id, None)

    def end_connection(self, session_id: int) -> None:
        self._sticky.pop(session_id, None)

    def forget_replica(self, name: str) -> None:
        """Failover: drop sticky assignments to a dead replica."""
        self._sticky = {
            session: replica
            for session, replica in self._sticky.items()
            if replica != name
        }
