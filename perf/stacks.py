"""The public entry points the benchmark drives, how a table is loaded
behind each, and the public counters read off them.

Four entry points hold identical data, each one layer thicker than the
last (the rungs of the layer-tax ladder):

``engine``      ``Engine.connect()`` — ``repro.sqlengine`` alone
``middleware``  ``build_cluster(2).connect()`` — + ``repro.core``
``sharded``     ``build_sharded_cluster(2, 2).connect()`` — + ``repro.shard``
``composed``    ``build_composed_cluster(2, 2).connect()`` — + ``repro.ha``
"""

from __future__ import annotations

from typing import Callable, Dict, List, NamedTuple, Optional, Sequence

from repro.bench.harness import (
    build_cluster, build_composed_cluster, build_sharded_cluster,
)
from repro.cache import ResultCacheConfig
from repro.sqlengine import Engine
from repro.sqlengine.dialects import postgresql

DATABASE = "shop"
SHARDS = 2
REPLICAS = 2
LOAD_BATCH = 100            # rows per multi-row INSERT while loading
ENTRY_POINTS = ("engine", "middleware", "sharded", "composed")


class Table(NamedTuple):
    """A benchmark table: schema, shard placement and seed rows."""
    name: str
    ddl: str
    columns: Sequence[str]
    sharder: Callable[[], object]     # fresh Sharder per cluster


def build(kind: str, table: Table, rows: Sequence[tuple], *,
          tracing: bool = False, result_cache=None, env=None,
          tick: Optional[Callable[[], None]] = None):
    """Build entry point ``kind``, create ``table`` behind it and load
    ``rows`` through its own ``execute``; ``tick`` is called between
    INSERTs (the set-up stopwatch's laps).  Returns the connectable front
    (an ``Engine``, a ``ReplicationMiddleware`` or a ``ShardedCluster``)."""
    if kind == "engine":
        front = Engine("bare", dialect=postgresql(), seed=1000)
        front.create_database(DATABASE)
    elif kind == "middleware":
        front = build_cluster(REPLICAS, replication="writeset",
                              consistency="gsi", propagation="sync",
                              result_cache=result_cache, env=env,
                              name="mw")
    elif kind == "sharded":
        front = build_sharded_cluster(SHARDS, REPLICAS, env=env,
                                      result_cache=result_cache)
    elif kind == "composed":
        front = build_composed_cluster(SHARDS, REPLICAS, env=env,
                                       result_cache=result_cache)
    else:
        raise ValueError(f"unknown entry point {kind!r}")
    set_tracing(front, tracing)
    session = front.connect(database=DATABASE)
    session.execute(table.ddl)
    if hasattr(front, "register_table"):
        front.register_table(table.name, table.columns[0], table.sharder())
    columns = ", ".join(table.columns)
    for base in range(0, len(rows), LOAD_BATCH):
        values = ", ".join(
            "(" + ", ".join(_literal(v) for v in row) + ")"
            for row in rows[base:base + LOAD_BATCH])
        session.execute(
            f"INSERT INTO {table.name} ({columns}) VALUES {values}")
        if tick is not None:
            tick()
    session.close()
    return front


def _literal(value) -> str:
    if isinstance(value, str):
        return "'" + value.replace("'", "''") + "'"
    return str(value)


def middlewares(front) -> List:
    """Every active ``ReplicationMiddleware`` behind ``front``."""
    if isinstance(front, Engine):
        return []
    return list(getattr(front, "groups", None) or [front])


def engines(front) -> List[Engine]:
    if isinstance(front, Engine):
        return [front]
    return [replica.engine for mw in middlewares(front)
            for replica in mw.replicas]


def pairs(front) -> List:
    return [p for p in getattr(front, "pairs", ()) if p is not None]


def set_tracing(front, enabled: bool) -> None:
    """Switch every ``repro.obs`` tracer behind ``front`` on or off."""
    tracers = [mw.tracer for mw in middlewares(front)]
    tracers += [p.standby.tracer for p in pairs(front)]
    if hasattr(front, "groups"):
        tracers.append(front.tracer)
    for tracer in tracers:
        tracer.enabled = enabled


def counters(front) -> Dict[str, float]:
    """One flat snapshot of the public ``stats`` surfaces behind
    ``front``; per-layer counts are differences of two snapshots."""
    out: Dict[str, float] = {}
    for engine in engines(front):
        for key, value in engine.stats.items():
            out[f"engine.{key}"] = out.get(f"engine.{key}", 0) + value
    mws = middlewares(front)
    for key in ("commits", "aborts", "certification_aborts"):
        out[f"mw.{key}"] = sum(mw.stats[key] for mw in mws)
    out["mw.certifier_log_len"] = sum(
        mw.certifier.log_length() for mw in mws)
    out["mw.recovery_log_len"] = sum(
        len(mw.recovery_log.entries) for mw in mws)
    for key in ("hits", "misses", "evictions", "invalidated_entries"):
        out[f"cache.{key}"] = sum(
            mw.result_cache.stats[key] for mw in mws
            if mw.result_cache is not None)
    # every shipper the front ever had keeps counting on its own leader
    # (``state_shipper`` is cleared on the old leader at promotion)
    for key in ("prepares", "acks"):
        out[f"ha.{key}"] = sum(p.shipper.stats[key] for p in pairs(front))
    out["ha.ledger_len"] = sum(
        len(mw.commit_ledger) for mw in mws
        if mw.commit_ledger is not None)
    sharded = hasattr(front, "groups")
    for key in ("single_shard", "scatter_reads", "multi_shard_writes",
                "broadcast", "single_shard_commits", "twopc_commits",
                "group_promotions", "failover_reroutes"):
        out[f"shard.{key}"] = front.stats[key] if sharded else 0
    return out


def ratio(numerator: float, denominator: float) -> float:
    return numerator / denominator if denominator else 0.0


def open_sessions(front, count: int) -> List:
    return [front.connect(database=DATABASE) for _ in range(count)]


def result_cache_config(capacity: Optional[int]):
    return None if capacity is None else ResultCacheConfig(capacity=capacity)
