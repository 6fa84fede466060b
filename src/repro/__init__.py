"""repro — middleware-based database replication, end to end.

A full reproduction of Cecchet, Candea & Ailamaki, "Middleware-based
Database Replication: The Gaps Between Theory and Practice" (SIGMOD 2008):
the replication middleware itself (statement and writeset replication,
pluggable consistency, load balancing, failover/failback, recovery log,
WAN multi-site), the shard tier that partitions data across replication
groups (``repro.shard``, Figure 2), the RDBMS substrate it runs on, a
deterministic cluster simulator for timing/availability experiments, OLTP
workload generators, and the paper's proposed evaluation metrics.

Quickstart::

    from repro import build_cluster, load_workload
    from repro.workloads import MicroWorkload

    mw = build_cluster(3, replication="writeset", consistency="pcsi")
    load_workload(mw, MicroWorkload(rows=100))
    with mw.connect(database="shop") as session:
        session.execute("UPDATE kv SET v = v + 1 WHERE k = 1")
        print(session.execute("SELECT v FROM kv WHERE k = 1").scalar())
"""

from .bench.harness import Report, build_cluster, build_replicas, load_workload
from .core import (
    CircuitBreaker, MiddlewareConfig, MiddlewareSession, Overloaded,
    Replica, ReplicationMiddleware, RequestTimeout, ResiliencePolicy,
    RetryExhausted, RetryPolicy,
)
from .sqlengine import Engine

__version__ = "1.0.0"

__all__ = [
    "CircuitBreaker", "Engine", "MiddlewareConfig", "MiddlewareSession",
    "Overloaded", "Replica", "ReplicationMiddleware", "Report",
    "RequestTimeout", "ResiliencePolicy", "RetryExhausted", "RetryPolicy",
    "build_cluster", "build_replicas", "load_workload", "__version__",
]
