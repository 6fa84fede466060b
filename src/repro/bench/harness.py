"""Benchmark harness: cluster builders and report tables.

Every experiment in ``benchmarks/`` builds its system through these
helpers so configurations stay comparable, and prints its findings through
:class:`Report` so the regenerated "tables" look alike.
"""

from __future__ import annotations

from typing import Callable, List, Optional, Sequence

from ..cache import ResultCacheConfig
from ..cluster.nodes import Node
from ..cluster.sim import Environment
from ..core.consistency import ConsistencyProtocol, protocol_by_name
from ..core.loadbalancer import BalancingLevel, LoadBalancer, Policy, RoundRobinPolicy
from ..core.middleware import MiddlewareConfig, ReplicationMiddleware
from ..core.monitoring import Monitor
from ..core.replica import Replica
from ..core.resilience import ResiliencePolicy
from ..sqlengine import Engine
from ..sqlengine.dialects import Dialect, postgresql
from ..workloads.generator import Workload

DEFAULT_DATABASE = "shop"


def build_replicas(count: int,
                   dialect_factory: Callable[[], Dialect] = postgresql,
                   database: str = DEFAULT_DATABASE,
                   env: Optional[Environment] = None,
                   cores: int = 1,
                   speed_factors: Optional[Sequence[float]] = None,
                   name_prefix: str = "r") -> List[Replica]:
    """Create ``count`` fresh engines (optionally attached to simulated
    nodes) wrapped as replicas."""
    replicas = []
    for index in range(count):
        engine = Engine(f"{name_prefix}{index}", dialect=dialect_factory(),
                        seed=1000 + index)
        engine.create_database(database)
        node = None
        if env is not None:
            factor = 1.0
            if speed_factors is not None and index < len(speed_factors):
                factor = speed_factors[index]
            node = Node(env, f"{name_prefix}{index}", cores=cores,
                        speed_factor=factor)
        replicas.append(Replica(f"{name_prefix}{index}", engine, node=node))
    return replicas


def build_cluster(count: int = 3,
                  replication: str = "statement",
                  consistency: Optional[str] = None,
                  propagation: str = "sync",
                  policy: Optional[Policy] = None,
                  level: BalancingLevel = BalancingLevel.QUERY,
                  dialect_factory: Callable[[], Dialect] = postgresql,
                  database: str = DEFAULT_DATABASE,
                  env: Optional[Environment] = None,
                  cores: int = 1,
                  speed_factors: Optional[Sequence[float]] = None,
                  interleave_keys: bool = True,
                  nondeterminism: str = "rewrite",
                  compensate_counters: bool = True,
                  monitor: Optional[Monitor] = None,
                  resilience: Optional["ResiliencePolicy"] = None,
                  result_cache: Optional["ResultCacheConfig"] = None,
                  name: str = "mw") -> ReplicationMiddleware:
    """Build a ready-to-use middleware cluster."""
    replicas = build_replicas(count, dialect_factory, database, env=env,
                              cores=cores, speed_factors=speed_factors,
                              name_prefix=f"{name}_r")
    protocol: Optional[ConsistencyProtocol] = None
    if consistency is not None:
        protocol = protocol_by_name(consistency)
    config = MiddlewareConfig(
        replication=replication,
        consistency=protocol,
        balancer=LoadBalancer(policy or RoundRobinPolicy(), level),
        propagation=propagation,
        nondeterminism=nondeterminism,
        compensate_counters=compensate_counters,
        resilience=resilience,
        result_cache=result_cache,
    )
    if monitor is None and env is not None:
        monitor = Monitor(time_source=lambda: env.now)
    middleware = ReplicationMiddleware(replicas, config, name=name,
                                       monitor=monitor)
    return middleware


def build_sharded_cluster(shards: int = 2,
                          replicas: int = 2,
                          replication: str = "writeset",
                          consistency: str = "gsi",
                          propagation: str = "sync",
                          env: Optional[Environment] = None,
                          result_cache: Optional["ResultCacheConfig"] = None,
                          name: str = "shard",
                          **kwargs):
    """Build a :class:`~repro.shard.router.ShardedCluster` of ``shards``
    replication groups, each built through :func:`build_cluster` so the
    per-group pipeline matches the single-group experiments exactly."""
    from ..shard import ShardedCluster
    groups = [
        build_cluster(replicas, replication=replication,
                      consistency=consistency, propagation=propagation,
                      env=env, result_cache=result_cache,
                      name=f"{name}{index}", **kwargs)
        for index in range(shards)
    ]
    return ShardedCluster(groups, name=name)


def build_composed_cluster(shards: int = 3,
                           replicas: int = 2,
                           replication: str = "writeset",
                           consistency: str = "gsi",
                           propagation: str = "sync",
                           env: Optional[Environment] = None,
                           result_cache: Optional["ResultCacheConfig"] = None,
                           name: str = "comp",
                           **kwargs):
    """Build the full composed tier (E30, docs/TOPOLOGY.md): ``shards``
    replication groups, each fronted by an HA active/standby pair behind
    its virtual IP, all registered with one shard router.  Returns the
    :class:`~repro.shard.router.ShardedCluster`; per-group pairs are on
    ``cluster.pairs`` and the current leaders on ``cluster.groups``.

    The pair is built *before* any schema loads so the standby's
    bootstrap transfer starts empty and every later commit ships through
    the two-phase prepare/ack path — the same order the E26 chaos
    harness uses."""
    from ..ha import HAPair
    from ..shard import ShardedCluster
    pairs = []
    for index in range(shards):
        leader = build_cluster(replicas, replication=replication,
                               consistency=consistency,
                               propagation=propagation, env=env,
                               result_cache=result_cache,
                               name=f"{name}{index}", **kwargs)
        pairs.append(HAPair(leader))
    return ShardedCluster(pairs, name=name)


def load_workload(middleware: ReplicationMiddleware, workload: Workload,
                  database: str = DEFAULT_DATABASE) -> None:
    """Run the workload's setup DDL+data through the middleware so every
    replica starts identical, then re-apply key interleaving."""
    session = middleware.connect(database=database)
    try:
        for sql in workload.setup_sql():
            session.execute(sql)
    finally:
        session.close()
    middleware.interleave_auto_increment()


class Report:
    """A printable benchmark table (the 'rows/series the paper reports')."""

    def __init__(self, title: str, columns: Sequence[str]):
        self.title = title
        self.columns = list(columns)
        self.rows: List[List[str]] = []
        self.notes: List[str] = []

    def add_row(self, *values) -> None:
        self.rows.append([_format(value) for value in values])

    def note(self, text: str) -> None:
        self.notes.append(text)

    def render(self) -> str:
        widths = [len(c) for c in self.columns]
        for row in self.rows:
            for index, cell in enumerate(row):
                if index < len(widths):
                    widths[index] = max(widths[index], len(cell))
        lines = [f"== {self.title} =="]
        header = "  ".join(
            c.ljust(widths[i]) for i, c in enumerate(self.columns))
        lines.append(header)
        lines.append("-" * len(header))
        for row in self.rows:
            lines.append("  ".join(
                cell.ljust(widths[i]) if i < len(widths) else cell
                for i, cell in enumerate(row)))
        for note in self.notes:
            lines.append(f"  note: {note}")
        return "\n".join(lines)

    def show(self) -> None:
        print()
        print(self.render())


def _format(value) -> str:
    if isinstance(value, bool):
        return "yes" if value else "no"
    if isinstance(value, float):
        if value != 0 and abs(value) < 0.01:
            return f"{value:.5f}"
        return f"{value:.2f}"
    return str(value)
