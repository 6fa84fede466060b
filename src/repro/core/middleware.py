"""The replication middleware — the system the paper is about.

One :class:`ReplicationMiddleware` instance fronts a set of
:class:`~repro.core.replica.Replica` backends (the Figure 7 / C-JDBC
architecture: clients talk to the middleware through a driver-like
session; the middleware holds a connection per replica).

Two replication protocols (section 4.3.2):

* ``statement`` — every update statement is executed at every online
  replica in the same total order; non-deterministic statements are
  rewritten, rejected or knowingly broadcast per policy.
* ``writeset`` — a transaction executes at one replica; at commit its
  writeset is certified (first-committer-wins for SI-class protocols) and
  propagated to the other replicas, synchronously or asynchronously.

Orthogonally, a :class:`~repro.core.consistency.ConsistencyProtocol`
decides where reads may go and whether certification aborts conflicts, and
a :class:`~repro.core.loadbalancer.LoadBalancer` picks among the eligible
replicas.

The middleware instance is deliberately a single stateful component — the
paper's SPOF analysis (section 3.2) applies, and :meth:`fail` exists so
experiments can measure exactly what its death costs.
"""

from __future__ import annotations

import itertools
from typing import Any, Dict, Iterator, List, Optional, Sequence, Tuple

from ..cache import (
    GATE_BYPASS_PROTOCOL, GATE_HIT, GATE_REJECT, GATE_STALE,
    CertifiedWrite, ConsistencyGate, ResultCache, ResultCacheConfig,
    WritesetInvalidator, cache_key, extract_read_dependencies,
)
from ..sqlengine import ast_nodes as ast
from ..sqlengine import Connection, SQLError
from ..sqlengine.errors import ConnectionError_
from ..sqlengine.executor import Result
from ..sqlengine.locks import LockConflict, LockManager, LockMode
# TEMPORARY, not called here any more: perf/spans.py (frozen for this
# PR by the benchmark's path contract) rebinds this name and fails
# without it.  ROADMAP item 2 has the follow-up that repoints that
# boundary at sqlengine.stmtcache.parse_script and deletes this line.
from ..sqlengine.parser import parse_script  # noqa: F401
from ..sqlengine.stmtcache import StatementCache
from .analysis import (
    StatementInfo, analyze, analyze_cached, rewrite_nondeterministic,
)
from .certifier import Certifier
from .consistency import ClusterView, ConsistencyProtocol, SessionView
from .consistency.gsi import GeneralizedSnapshotIsolation
from .consistency.one_sr import OneCopySerializability
from .errors import (
    FATAL, RETRY_AFTER_FAILOVER, ClusterDivergence, MiddlewareDown,
    NoReplicaAvailable, ReplicaUnavailable, UnsupportedStatementError,
)
from .groupcommit import CommitRequest, GroupCommitCoordinator
from .loadbalancer import LoadBalancer, RoutingContext
from ..obs.tracing import Tracer
from .monitoring import Monitor
from .recoverylog import RecoveryLog
from .replica import ApplyItem, Replica, ReplicaState
from .resilience import Deadline, ResilienceCoordinator, ResiliencePolicy
from .writesets import (
    apply_writeset, conflict_keys, extract_writeset_engine,
    statement_footprint,
)


class MiddlewareConfig:
    """Tunable middleware behaviour.

    Attributes:
        replication: ``"statement"`` or ``"writeset"``.
        consistency: a :class:`ConsistencyProtocol`; defaults to 1SR for
            statement replication and GSI for writeset replication.
        balancer: read load balancer.
        propagation: ``"sync"`` (updates applied everywhere before the
            commit returns — 2-safe-like) or ``"async"`` (apply queues —
            1-safe-like, replicas lag).
        nondeterminism: statement-mode policy for unsafe statements:
            ``"rewrite"`` (rewrite what is rewritable, reject the rest),
            ``"reject"`` (refuse any non-deterministic write) or
            ``"broadcast"`` (ship them anyway — divergence, E10).
        compensate_counters: writeset-mode fix-up of auto-increment /
            sequence state at apply time (off = the 4.3.2 divergence gap).
        table_locking: statement-mode middleware-level table locks
            (the coarse-granularity regime of section 4.3.2).
        detect_divergence: compare per-replica rowcounts on broadcast
            writes and raise :class:`ClusterDivergence` on mismatch.
        resilience: a :class:`~repro.core.resilience.ResiliencePolicy`;
            when set, every request gets deadlines, transparent retry,
            per-replica circuit breaking, admission control and
            degraded-mode serving (``None`` = the brittle happy-path
            behaviour the paper complains about).
        result_cache: a :class:`~repro.cache.ResultCacheConfig`; when set,
            autocommit reads are answered from a middleware-resident
            result cache with writeset-driven invalidation, gated by the
            consistency protocol (``None`` = every read hits a replica).
        tracing: per-request span tracing (:mod:`repro.obs`) — on by
            default; spans ride the simulated clock and cost nothing in
            simulated time.
        trace_retention: how many finished traces the tracer retains
            in memory (oldest evicted whole, see docs/OBSERVABILITY.md).
        retention_watermark: once the recovery log or the certifier
            log exceeds this many entries, the commit pipeline cuts
            both and the standby's mirror at the retention floor
            (:meth:`ReplicationMiddleware.retention_floor`), always
            keeping the newest half-watermark.  ``0`` means never
            truncate.
    """

    def __init__(self,
                 replication: str = "statement",
                 consistency: Optional[ConsistencyProtocol] = None,
                 balancer: Optional[LoadBalancer] = None,
                 propagation: str = "sync",
                 nondeterminism: str = "rewrite",
                 compensate_counters: bool = True,
                 table_locking: bool = True,
                 detect_divergence: bool = False,
                 resilience: Optional[ResiliencePolicy] = None,
                 result_cache: Optional[ResultCacheConfig] = None,
                 tracing: bool = True,
                 trace_retention: int = 512,
                 retention_watermark: int = 1024):
        if replication not in ("statement", "writeset"):
            raise ValueError(f"unknown replication mode {replication!r}")
        if propagation not in ("sync", "async"):
            raise ValueError(f"unknown propagation {propagation!r}")
        if nondeterminism not in ("rewrite", "reject", "broadcast"):
            raise ValueError(f"unknown nondeterminism policy {nondeterminism!r}")
        self.replication = replication
        if consistency is None:
            consistency = (OneCopySerializability()
                           if replication == "statement"
                           else GeneralizedSnapshotIsolation())
        self.consistency = consistency
        self.balancer = balancer or LoadBalancer()
        self.propagation = propagation
        self.nondeterminism = nondeterminism
        self.compensate_counters = compensate_counters
        self.table_locking = table_locking
        self.detect_divergence = detect_divergence
        self.resilience = resilience
        self.result_cache = result_cache
        self.tracing = tracing
        self.trace_retention = trace_retention
        self.retention_watermark = retention_watermark


class ReplicationMiddleware:
    """The central coordinator."""

    def __init__(self, replicas: Sequence[Replica],
                 config: Optional[MiddlewareConfig] = None,
                 name: str = "mw", monitor: Optional[Monitor] = None):
        if not replicas:
            raise ValueError("a cluster needs at least one replica")
        self.name = name
        self.replicas: List[Replica] = list(replicas)
        self.config = config or MiddlewareConfig()
        self.monitor = monitor or Monitor()
        # Request tracing (repro.obs): spans are timestamped off the
        # monitor's non-advancing clock, so they ride simulated time in
        # timed runs and the logical clock in unit tests.
        self.tracer = Tracer(clock=self.monitor.peek,
                             enabled=self.config.tracing,
                             max_traces=self.config.trace_retention)
        self.certifier = Certifier(
            first_committer_wins=self.config.consistency.first_committer_wins)
        self.recovery_log = RecoveryLog()
        self.failed = False
        self.sessions: List["MiddlewareSession"] = []
        self._session_counter = itertools.count(1)
        # text front door: every session's execute(sql) resolves through
        # this one cache, so one shape is one tree for all of them
        self.statements = StatementCache()
        # Middleware-level table locks for statement-mode 1SR (4.3.2).
        self._table_locks = LockManager()
        self._lock_txn_counter = itertools.count(1)
        # Designated master for write_mode == "master" protocols.
        self._master_name: Optional[str] = self.replicas[0].name
        self.stats = {
            "reads": 0, "writes": 0, "commits": 0, "aborts": 0,
            "certification_aborts": 0, "freshness_waits": 0,
            "certifier_pruned": 0, "log_truncated": 0,
            "retention_floor": 0,
        }
        # The commit pipeline (repro.core.groupcommit): every sequenced
        # unit runs the coordinator's one stage order; a writeset commit
        # is a batch of one outside a gather, real multi-commit batches
        # under the timed driver.
        self.group_commit = GroupCommitCoordinator(self)
        # Hook used by the timed driver to wake per-replica apply workers
        # when asynchronous propagation enqueues work.
        self.on_apply_enqueued = None
        # The HA link (repro.ha.link.HALink): None outside a pair.  Set
        # once by repro.ha.HAPair, which this package never imports; it
        # says whether this instance may serve (role, fence + epoch: a
        # deposed leader is refused) and runs the pair's half of the
        # commit pipeline (ledger + state shipping: a post-failover
        # replay is exactly-once, an acked commit is never lost).
        self.ha = None
        # Request-resilience layer (deadlines, retries, breakers,
        # admission control) — engaged only when the config asks for it.
        self.resilience: Optional[ResilienceCoordinator] = None
        if self.config.resilience is not None:
            self.resilience = ResilienceCoordinator(
                self, self.config.resilience)
            self.config.balancer.set_health_filter(
                self.resilience.allow_replica)
        # Certified-write stream: every committed update unit is published
        # as a CertifiedWrite to the registered listeners (the cache
        # invalidator; tests and tools may subscribe too).
        self._certified_listeners: List[Any] = []
        # Result cache (repro.cache): lookup before balancer dispatch,
        # fill after replica reads, invalidation off the certified stream.
        self.result_cache: Optional[ResultCache] = None
        self.cache_invalidator: Optional[WritesetInvalidator] = None
        self.cache_gate: Optional[ConsistencyGate] = None
        if self.config.result_cache is not None:
            self.result_cache = ResultCache(
                self.config.result_cache, clock=self.monitor.peek)
            self.cache_invalidator = WritesetInvalidator(self.result_cache)
            self.cache_invalidator.attach(self)
            self.cache_gate = ConsistencyGate(
                self, self.result_cache, self.cache_invalidator)
        for replica in self.replicas:
            replica.on_state_change(self._replica_state_changed)

    # ------------------------------------------------------------------
    # cluster views
    # ------------------------------------------------------------------

    @property
    def global_seq(self) -> int:
        return self.certifier.current_seq

    def cluster_view(self) -> ClusterView:
        return ClusterView(self.global_seq, self._master_name)

    # ------------------------------------------------------------------
    # certified-write stream (cache invalidation)
    # ------------------------------------------------------------------

    def on_certified(self, listener) -> None:
        """Subscribe ``listener(event: CertifiedWrite)`` to the stream of
        committed update units."""
        self._certified_listeners.append(listener)

    def publish_certified(self, seq: int, keys=frozenset(), tables=(),
                          kind: str = "writeset",
                          database: Optional[str] = None) -> None:
        event = CertifiedWrite(seq, keys=frozenset(keys),
                               tables=frozenset(tables), kind=kind,
                               database=database)
        for listener in list(self._certified_listeners):
            listener(event)

    def cache_snapshot(self) -> Optional[Dict[str, float]]:
        """The result cache's counters + derived rates (hit rate, stale
        fraction, occupancy), recorded into the monitor for dashboards.
        ``None`` when no cache is configured."""
        if self.result_cache is None:
            return None
        snapshot = self.result_cache.snapshot()
        self.monitor.record("cache_snapshot", self.name, **snapshot)
        return snapshot

    def trace_snapshot(self) -> Dict[str, int]:
        """The tracer's counters (spans started/finished/dropped, traces
        retained/evicted), recorded into the monitor for dashboards —
        the obs sibling of :meth:`cache_snapshot`."""
        snapshot = self.tracer.snapshot()
        self.monitor.record("trace_snapshot", self.name, **snapshot)
        return snapshot

    def export_traces(self) -> str:
        """All retained finished spans as JSON lines (one span per
        line); see docs/OBSERVABILITY.md for the format."""
        from ..obs.export import export_tracer
        return export_tracer(self.tracer)

    def explain_request(self, trace_id: int) -> str:
        """EXPLAIN ANALYZE-style per-request report: the retained trace
        rendered as an indented span tree with latencies and events."""
        from ..metrics.breakdown import explain_trace
        return explain_trace(self.tracer.trace(trace_id))

    def replica_by_name(self, name: str) -> Replica:
        for replica in self.replicas:
            if replica.name == name:
                return replica
        raise ReplicaUnavailable(f"no replica named {name!r}")

    def online_replicas(self) -> List[Replica]:
        return [r for r in self.replicas if r.is_online]

    @property
    def master(self) -> Replica:
        return self.replica_by_name(self._master_name)

    def set_master(self, name: str) -> None:
        self.replica_by_name(name)
        self._master_name = name
        self.monitor.record("master_changed", name)

    def _replica_state_changed(self, replica: Replica,
                               state: ReplicaState) -> None:
        self.monitor.record("replica_state", replica.name, state=state.value)
        if state is ReplicaState.FAILED:
            self.config.balancer.forget_replica(replica.name)
            if self.resilience is not None:
                # eject immediately; a replica that merely *recovers* is
                # re-admitted through the breaker's half-open probe
                # discipline, so a flapping node cannot keep taking (and
                # failing) traffic
                self.resilience.breaker(replica.name).force_open()
        elif state is ReplicaState.ONLINE:
            if self.resilience is not None:
                # ONLINE is only reached through failback: the replica was
                # resynchronized and verified against the cluster, which
                # outranks the breaker's own probe evidence — close it
                self.resilience.breaker(replica.name).record_success()

    # ------------------------------------------------------------------
    # sessions
    # ------------------------------------------------------------------

    def connect(self, user: str = "admin", password: str = "",
                database: Optional[str] = None) -> "MiddlewareSession":
        self._check_up()
        session = MiddlewareSession(
            self, next(self._session_counter), user, password, database)
        self.sessions.append(session)
        return session

    def _check_up(self) -> None:
        if self.failed:
            raise self.down_error(f"middleware {self.name!r} is down")
        if self.ha is not None:
            self.ha.check_serving(self.name)

    def down_error(self, message: str) -> MiddlewareDown:
        """A :class:`MiddlewareDown` labelled by where the client goes
        next: the pair's other instance, or nowhere (``fatal``)."""
        ha = self.ha
        elsewhere = ha is not None and ha.elsewhere()
        return MiddlewareDown(
            message, retry=RETRY_AFTER_FAILOVER if elsewhere else FATAL)

    @property
    def commit_ledger(self):
        # TEMPORARY, read by nothing under src/: perf/stacks.py (frozen
        # by the benchmark's path contract) reads this name.  ROADMAP
        # "Owed by the first PR allowed to edit perf/" repoints it at
        # ``mw.ha.ledger`` and deletes this property.
        return self.ha.ledger if self.ha is not None else None

    # ------------------------------------------------------------------
    # middleware failure (SPOF experiments)
    # ------------------------------------------------------------------

    def fail(self) -> int:
        """Kill the middleware instance.  All in-flight transactions are
        lost (rolled back at the replicas once their connections break) and
        every session dies.  Returns the number of sessions lost."""
        lost = 0
        for session in list(self.sessions):
            if session.in_transaction:
                lost += 1
            session._abort_everywhere(silent=True)
            session.closed = True
        self.sessions.clear()
        self.failed = True
        if not self.certifier.replicated:
            self.certifier.fail()
        self.monitor.record("middleware_failed", self.name,
                            lost_sessions=lost)
        return lost

    def recover(self) -> None:
        """Restart the middleware.  A centralized certifier must rebuild
        its state from the replicas (slow, section 3.2); a replicated one
        resumes from its standby copy."""
        highest = max((r.applied_seq for r in self.replicas), default=0)
        self.certifier.recover(rebuild_from_replicas=highest)
        self.failed = False
        if self.cache_invalidator is not None:
            # the certified stream gapped across the crash: anything cached
            # before it may be stale without us knowing — start over
            self.cache_invalidator.reset(self.global_seq)
        self.monitor.record("middleware_recovered", self.name)

    # ------------------------------------------------------------------
    # routing
    # ------------------------------------------------------------------

    def choose_read_replica(self, session: "MiddlewareSession",
                            info: Optional[StatementInfo]) -> Replica:
        """Pick a read replica honouring pinning, consistency eligibility
        and the balancer; waits (drains) for freshness when required."""
        parent = session.active_span or session.trace_context
        span = self.tracer.child_span("balancer.choose", parent)
        try:
            replica = self._choose_read_replica(session, info, span)
        except Exception as exc:
            span.set_tag("error", type(exc).__name__)
            span.end()
            raise
        span.set_tag("replica", replica.name)
        span.end()
        return replica

    def _choose_read_replica(self, session: "MiddlewareSession",
                             info: Optional[StatementInfo],
                             span) -> Replica:
        if session.pinned_replica is not None:
            replica = self.replica_by_name(session.pinned_replica)
            if not replica.can_serve:
                raise ReplicaUnavailable(
                    f"session pinned to failed replica {replica.name!r} "
                    "(temporary tables are not replicated, section 4.1.4)")
            span.set_tag("why", "pinned")
            return replica
        if session.route_override is not None:
            replica = self.replica_by_name(session.route_override)
            if replica.can_serve:
                span.set_tag("why", "override")
                return replica

        cluster = self.cluster_view()
        protocol = self.config.consistency
        tables = info.sorted_tables() if info else []
        context = RoutingContext(tables=tables, session_id=session.id)
        candidates = [
            r for r in self.online_replicas()
            if protocol.read_eligible(r, session.view, cluster)
        ]
        if candidates:
            chosen = self.config.balancer.choose(candidates, context)
            if span:
                decision = self.config.balancer.last_decision or {}
                span.set_tag("why", "sticky" if decision.get("sticky")
                             else "balanced")
                span.set_tag("policy", decision.get("policy"))
                span.set_tag("candidates", decision.get(
                    "candidates", len(candidates)))
            return chosen

        # Nobody fresh enough: wait for the most caught-up replica.
        online = self.online_replicas()
        if not online:
            raise NoReplicaAvailable("no online replicas")
        best = max(online, key=lambda r: r.applied_seq)
        needed = protocol.min_read_seq(session.view, cluster)
        if self.resilience is not None:
            # Degraded-mode serving: when the cluster is saturated or the
            # master is down, a bounded-staleness read from the least-
            # lagging slave beats queueing behind a freshness wait.
            lag = max(0, needed - best.applied_seq)
            if self.resilience.serve_stale(lag):
                span.set_tag("why", "degraded_stale")
                span.event("degraded_read", lag=lag, replica=best.name)
                return best
        self.stats["freshness_waits"] += 1
        span.set_tag("why", "freshness_wait")
        span.set_tag("waited_for_seq", needed)
        self.drain_replica(best.name, up_to_seq=needed)
        return best

    # ------------------------------------------------------------------
    # update propagation
    # ------------------------------------------------------------------

    def _apply_item(self, replica: Replica, item: ApplyItem) -> None:
        """Apply one frame, unit by unit in seq order: the watermark
        advances per unit, so it never advertises a seq with unapplied
        predecessors.  Cross-node continuation: the commit's trace gains
        a span on the applying replica, so one timeline shows the
        propagation lag — ``replica.apply`` for a frame of one, one
        ``replica.apply_batch`` for a larger frame (amortized hot-path
        observability) with a ``txn_applied`` event per unit.  A unit's
        ``propagation_lag`` runs from when its commit was staged."""
        units = item.units
        batch = len(units) > 1
        trace_ref = units[0].trace_ref
        now = self.tracer.now()
        span = None
        if trace_ref is not None:
            trace_id, parent_id = trace_ref
            if batch:
                span = self.tracer.start_linked(
                    "replica.apply_batch", trace_id, parent_id,
                    replica=replica.name, units=len(units),
                    first_seq=units[0].seq, last_seq=units[-1].seq)
            else:
                span = self.tracer.start_linked(
                    "replica.apply", trace_id, parent_id,
                    replica=replica.name, seq=units[0].seq)
                span.set_tag("propagation_lag", round(
                    max(0.0, now - units[0].enqueued_at), 9))
        try:
            for unit in units:
                report = apply_writeset(
                    replica.engine, unit.entries,
                    compensate_counters=self.config.compensate_counters)
                if not report.clean:
                    self.monitor.record("apply_divergence", replica.name,
                                        seq=unit.seq,
                                        issues=report.conflicts)
                replica.applied_seq = max(replica.applied_seq, unit.seq)
                replica.stats["applied_items"] += 1
                if batch and span is not None:
                    span.event("txn_applied", seq=unit.seq,
                               propagation_lag=round(
                                   max(0.0, now - unit.enqueued_at), 9))
        finally:
            if span is not None:
                span.end()

    # ------------------------------------------------------------------
    # log retention
    # ------------------------------------------------------------------

    def _log_holders(self) -> Iterator[Tuple[int, str, Any]]:
        """Who still needs log entry *s*?  One ``(seq, kind, name)`` per
        party that needs everything after ``seq``: every registered
        replica whatever its state (an OFFLINE / FAILED / RECOVERING one
        rejoins by log replay), every in-flight transaction's snapshot
        (it may yet certify against the entries above it; a prepared,
        undecided 2PC unit is still in its transaction), the HA
        standby's acknowledged seq, and every named checkpoint — how
        anything outside the middleware holds the log."""
        yield self.certifier.current_seq, "head", ""
        for replica in self.replicas:
            yield replica.applied_seq, "replica", replica.name
        for session in self.sessions:
            if session.in_transaction:
                yield session._txn_start_seq, "session", session.id
        acked = self.ha.acked_seq() if self.ha is not None else None
        if acked is not None:
            yield acked, "standby", ""
        for name, seq in self.recovery_log.checkpoints.items():
            yield seq, "checkpoint", name

    def retention_floor(self) -> int:
        """The highest seq nobody needs any more: every per-commit
        structure may drop what is at or below it, and nothing above."""
        return min(self._log_holders())[0]

    def retention(self) -> Dict[str, Any]:
        """The retention floor, who holds it and what it bounds."""
        floor, kind, name = min(self._log_holders())
        commits, certifier_log = self.ha.mirror_sizes() \
            if self.ha is not None else (0, 0)
        return {
            "floor": floor,
            "holder": f"{kind}:{name}" if name != "" else kind,
            "head": self.recovery_log.head_seq,
            "recovery_log": len(self.recovery_log.entries),
            "certifier_log": self.certifier.log_length(),
            "standby_commits": commits,
            "standby_certifier_log": certifier_log,
            "checkpoints": len(self.recovery_log.checkpoints),
        }

    def pump(self, max_items: Optional[int] = None) -> int:
        """Drain asynchronous apply queues (round-robin across replicas).
        Returns the number of items applied."""
        applied = 0
        progress = True
        while progress and (max_items is None or applied < max_items):
            progress = False
            for replica in self.replicas:
                if not replica.is_online or not replica.apply_queue:
                    continue
                item = replica.apply_queue.popleft()
                self._apply_item(replica, item)
                applied += 1
                progress = True
                if max_items is not None and applied >= max_items:
                    break
        return applied

    def drain_replica(self, name: str,
                      up_to_seq: Optional[int] = None) -> int:
        """Apply a replica's queued items (optionally only up to a
        sequence watermark).  Models a freshness wait."""
        replica = self.replica_by_name(name)
        applied = 0
        while replica.apply_queue:
            if up_to_seq is not None and replica.applied_seq >= up_to_seq:
                break
            item = replica.apply_queue.popleft()
            self._apply_item(replica, item)
            applied += 1
        return applied

    def drain_all(self) -> int:
        return self.pump()

    # ------------------------------------------------------------------
    # multi-master key safety
    # ------------------------------------------------------------------

    def interleave_auto_increment(self) -> None:
        """Configure every replica to generate auto-increment keys in a
        disjoint congruence class (replica k of n hands out k, k+n, ...),
        the standard industry mitigation for the duplicate-key divergence
        of multi-master writeset replication (section 4.3.2).  Must be
        re-run after adding or removing replicas."""
        step = len(self.replicas)
        for offset, replica in enumerate(self.replicas, start=1):
            for database in replica.engine.databases.values():
                for table in database.tables.values():
                    if not table.temporary:
                        table.set_auto_interleave(step, offset)
        self.monitor.record("auto_increment_interleaved", self.name,
                            step=step)

    # ------------------------------------------------------------------
    # convergence checks
    # ------------------------------------------------------------------

    def content_signatures(self) -> Dict[str, str]:
        return {r.name: r.engine.content_signature() for r in self.replicas}

    def check_convergence(self, online_only: bool = True) -> bool:
        replicas = self.online_replicas() if online_only else self.replicas
        signatures = {r.engine.content_signature() for r in replicas}
        return len(signatures) <= 1

    def assert_convergence(self) -> None:
        if not self.check_convergence():
            raise ClusterDivergence(
                f"replicas diverged: {self.content_signatures()}")


class MiddlewareSession:
    """A client session through the middleware (the 'driver' of Fig. 7)."""

    def __init__(self, middleware: ReplicationMiddleware, session_id: int,
                 user: str, password: str, database: Optional[str]):
        self.middleware = middleware
        self.id = session_id
        self.user = user
        self.password = password
        self.database = database
        self.view = SessionView()
        self.closed = False
        # connection-per-replica caches
        self._read_connections: Dict[str, Connection] = {}
        # explicit transaction state
        self.in_transaction = False
        self._txn_connections: Dict[str, Connection] = {}
        self._txn_statements: List[Tuple[str, list]] = []
        self._txn_tables_written: set = set()
        self._txn_start_seq = 0
        self._txn_is_write = False
        self._txn_isolation: Optional[str] = None
        self._txn_lock_id: Optional[int] = None
        self._local_replica: Optional[str] = None  # writeset mode
        # temp-table pinning (section 4.1.4)
        self.pinned_replica: Optional[str] = None
        self._pinned_connection: Optional[Connection] = None
        self.temp_tables: set = set()
        # Statement log of the whole session's current transaction —
        # Sequoia-style transparent failover replays this (section 4.3.3).
        self.failover_replays = 0
        # HA client identity (repro.ha): a stable client id plus the
        # current transaction's client-assigned id.  When set, commits
        # are recorded in the middleware's commit ledger so a replay
        # after middleware failover can be deduplicated (exactly-once).
        self.client_id: Optional[str] = None
        self.client_txn_id: Optional[str] = None
        # Routing overrides used by the timed simulation driver so that the
        # time-charging layer and the state-changing layer agree on the
        # chosen replica (see repro.bench.simdriver).
        self.route_override: Optional[str] = None
        self.write_override: Optional[str] = None
        # Resilience state: an optional request deadline (set per request
        # by the client or driver; an implicit one is created from the
        # policy's request_timeout), and whether an external driver
        # already holds an admission ticket for this session.
        self.deadline: Optional[Deadline] = None
        self._admission_held = False
        # Result-cache state.  A session that issued USE/SET through the
        # middleware has connection-local state the cache key cannot see;
        # it stops using the cache for its lifetime.  ``_single_statement``
        # marks requests whose sql text is exactly one statement: a
        # ``;``-script sent to ``execute`` is not a cache client — its
        # statements neither hit nor fill.
        self._cache_ineligible = False
        self._single_statement = False
        # Extra component folded into every cache key (the shard tier
        # sets this to the shard-map version, so a reshard flip orphans
        # entries filled under the old placement).  None = no salt.
        self.cache_salt: Optional[Any] = None
        # statement-mode invalidation footprint of the open transaction
        self._txn_footprints: set = set()
        self._txn_had_opaque = False
        self._txn_had_ddl = False
        # Tracing (repro.obs).  ``active_span`` is the mw.statement span
        # currently executing on this session — explicit parenting, NOT a
        # tracer-global stack, because concurrent simulated requests
        # interleave at yields.  ``trace_context`` is an optional parent
        # installed by a timed driver (the request/timed.statement span)
        # so middleware spans join the request's trace instead of
        # starting roots of their own.  ``_cache_note`` carries the
        # result-cache decision (miss/bypass...) from the result-cache fast
        # path to the statement span that ends up executing.
        self.active_span = None
        self.trace_context = None
        self._cache_note: Optional[str] = None

    # ------------------------------------------------------------------
    # public API
    # ------------------------------------------------------------------

    def execute(self, sql: str, params: Optional[List[Any]] = None) -> Result:
        """Execute one or more ``;``-separated statements.

        With a resilience policy configured this — like
        :meth:`execute_one_parsed`, the door the tiers above come
        through — is a guarded entry point: the request takes an
        admission ticket (or raises
        :class:`~repro.core.errors.Overloaded`), runs under a deadline
        (:class:`~repro.core.errors.RequestTimeout`), and transient
        replica failures are retried per the policy."""
        self._check_open()
        # (text, values) from here down is one statement's own pair —
        # template + extracted values, or the text as sent + the
        # caller's params — so result-cache lookup and fill, the
        # statement log and span tags agree.  A bound statement already
        # is that pair, so a result-cache hit on one is answered before
        # its trees are even looked up; the text of a ``;``-script is no
        # statement's pair, fills nothing and so never hits.
        cache = self.middleware.statements
        if params:
            units = None
        else:
            units = cache.script(sql)
            if len(units) == 1:
                sql, params = units[0][1:]
        cached = self._cached_fast_path(sql, params)
        if cached is not None:
            return cached
        if units is None:
            units = cache.script(sql, params)
        self._single_statement = len(units) == 1
        return self._guarded(units)

    def _guarded(self, units) -> Result:
        """Run one request's statements — with a resilience layer, behind
        its admission gate and under a deadline, unless they are a
        replay's (already inside a guarded request) or a driver holds a
        ticket for the whole client request (``_admission_held``)."""
        resilience = self.middleware.resilience
        ticket = None
        own_deadline = False
        if resilience is not None and not resilience._replaying:
            if not self._admission_held:
                read_only = all(analyze_cached(statement).is_read_only
                                for statement, _text, _values in units)
                ticket = resilience.admission.admit(
                    "read" if read_only else "commit")
            if self.deadline is None:
                self.deadline = resilience.deadline()
                own_deadline = self.deadline is not None
        ok = False
        try:
            result = Result()
            for statement, text, values in units:
                result = self._execute_one(statement, text, list(values))
            ok = True
            return result
        finally:
            if own_deadline:
                self.deadline = None
            if ticket is not None:
                ticket.settle(ok)

    def execute_one_parsed(self, statement: ast.Statement, sql_text: str,
                           params: Optional[List[Any]] = None) -> Result:
        """Execute one pre-parsed statement (the tiers above and the
        timed drivers).  ``(sql_text, params)`` is the identity of this
        one statement — its result-cache key, and what statement
        replication logs and replays — so it must re-execute as
        ``statement`` and nothing else: a caller that was sent a
        ``;``-script hands down each statement's own text
        (``StatementCache.script``), never the script's."""
        self._check_open()
        cached = self._cached_fast_path(sql_text, params)
        if cached is not None:
            return cached
        self._single_statement = True
        if self.middleware.resilience is not None:
            return self._guarded(((statement, sql_text, params or ()),))
        return self._execute_one(statement, sql_text, list(params or []))

    def begin(self, isolation: Optional[str] = None) -> None:
        self.execute("BEGIN" if isolation is None
                     else f"BEGIN ISOLATION LEVEL {isolation}")

    def commit(self) -> None:
        self.execute("COMMIT")

    def rollback(self) -> None:
        self.execute("ROLLBACK")

    def close(self) -> None:
        if self.closed:
            return
        self._abort_everywhere(silent=True)
        for connection in self._read_connections.values():
            try:
                connection.close()
            except SQLError:
                pass
        self._read_connections.clear()
        if self._pinned_connection is not None:
            try:
                self._pinned_connection.close()
            except SQLError:
                pass
            self._pinned_connection = None
        self.middleware.config.balancer.end_connection(self.id)
        if self in self.middleware.sessions:
            self.middleware.sessions.remove(self)
        self.closed = True

    def __enter__(self) -> "MiddlewareSession":
        return self

    def __exit__(self, *exc) -> None:
        self.close()

    # ------------------------------------------------------------------
    # dispatch
    # ------------------------------------------------------------------

    def _execute_one(self, statement: ast.Statement, sql_text: str,
                     params: List[Any]) -> Result:
        tracer = self.middleware.tracer
        if self.active_span:
            # nested execution (e.g. a transaction replay re-issuing
            # statements): stay inside the outer statement's span
            span = tracer.child_span("mw.statement", self.active_span)
        else:
            span = tracer.start_span("mw.statement",
                                     parent=self.trace_context)
        span.set_tag("session", self.id)
        span.set_tag("sql", sql_text[:80])
        if self._cache_note is not None:
            span.set_tag("cache", self._cache_note)
            self._cache_note = None
        previous = self.active_span
        self.active_span = span
        try:
            resilience = self.middleware.resilience
            if resilience is None:
                return self._dispatch_one(statement, sql_text, params)
            return resilience.execute_statement(
                self, statement, sql_text, params)
        except Exception as exc:
            span.set_tag("error", type(exc).__name__)
            raise
        finally:
            self.active_span = previous
            span.end()

    def _dispatch_one(self, statement: ast.Statement, sql_text: str,
                      params: List[Any]) -> Result:
        self.middleware._check_up()
        if isinstance(statement, ast.BeginStatement):
            self._begin_transaction(statement.isolation)
            return Result()
        if isinstance(statement, ast.CommitStatement):
            self._commit_transaction()
            return Result()
        if isinstance(statement, ast.RollbackStatement):
            self._rollback_transaction()
            return Result()

        info = analyze_cached(statement)
        self._track_temp_tables(info)
        if isinstance(statement, (ast.UseStatement, ast.SetStatement)):
            # connection-local state the cache key cannot witness
            self._cache_ineligible = True

        if info.is_read_only and not self._statement_touches_temp(info):
            return self._execute_read(statement, sql_text, params, info)
        return self._execute_write(statement, sql_text, params, info)

    def _track_temp_tables(self, info: StatementInfo) -> None:
        if info.creates_temp_table:
            self.temp_tables |= info.touches_temp_names

    def _statement_touches_temp(self, info: StatementInfo) -> bool:
        if info.creates_temp_table:
            return True
        if not self.temp_tables:
            return False
        return bool(
            {t.split(".")[-1] for t in info.all_tables()} & self.temp_tables)

    # ------------------------------------------------------------------
    # result cache
    # ------------------------------------------------------------------

    def _cache_key(self, sql: str, params) -> Optional[tuple]:
        key = cache_key(self.user, self.database, sql, params)
        if key is None or self.cache_salt is None:
            return key
        return key + (("salt", self.cache_salt),)

    def _cached_fast_path(self, sql: str, params) -> Optional[Result]:
        """Serve an autocommit read from the result cache before the
        balancer sees it (a hit costs no replica load and no admission
        slot).  ``(sql, params)`` is the statement cache's pair, so a
        literal-inlined text has been through ``StatementCache.lookup``
        by now; a parse only ever happens on a miss.  ``None`` = proceed
        normally."""
        middleware = self.middleware
        cache = middleware.result_cache
        if cache is None or self.in_transaction or self._cache_ineligible:
            return None
        key = self._cache_key(sql, params)
        if key is None:
            self._cache_note = "uncacheable"
            return None
        entry = cache.peek(key)
        if entry is None:
            self._cache_note = "miss"
            return None
        if self.temp_tables and (self.temp_tables & entry.table_names()):
            # a session temp table shadows a cached base table (4.1.4)
            self._cache_note = "bypass_temp"
            return None
        middleware._check_up()
        gate = middleware.cache_gate
        decision, lag = gate.decide(self)
        if decision == GATE_BYPASS_PROTOCOL:
            cache.stats["bypass_protocol"] += 1
            self._cache_note = "bypass_protocol"
            return None
        if decision == GATE_REJECT:
            cache.stats["gate_rejections"] += 1
            self._cache_note = "reject"
            return None
        # A hit never reaches _execute_one, so it gets its own statement
        # span (zero-duration: no replica, no simulated cost).
        span = middleware.tracer.start_span(
            "mw.statement", parent=self.trace_context, session=self.id,
            sql=sql[:80],
            cache=("stale" if decision == GATE_STALE else "hit"))
        if lag:
            span.set_tag("cache_lag", lag)
        if decision == GATE_STALE:
            cache.stats["stale_hits"] += 1
            if middleware.resilience is not None:
                middleware.resilience.note_stale_cache_served()
        else:
            cache.stats["hits"] += 1
        middleware.config.balancer.note_cache_hit()
        gate.note_served(self, decision)
        span.end()
        return entry.to_result(stale=(decision == GATE_STALE), lag=lag)

    def _maybe_fill_cache(self, statement: ast.Statement, sql_text: str,
                          params: List[Any], info: StatementInfo,
                          replica: Replica, result: Result) -> None:
        """After an autocommit replica read: remember the result if the
        statement is cacheable and the replica was provably current for
        the statement's dependencies (the fill guard — a lagging replica
        must not launder stale rows into a fresh-looking entry)."""
        middleware = self.middleware
        cache = middleware.result_cache
        if not isinstance(statement, ast.SelectStatement):
            return  # only SELECT results are cached (EXPLAIN/USE/SET...)
        if middleware.config.consistency.write_mode == "broadcast":
            cache.stats["bypass_protocol"] += 1
            return
        key = self._cache_key(sql_text, params)
        if key is None:
            cache.stats["bypass_uncacheable"] += 1
            return
        deps = extract_read_dependencies(
            statement, info, replica.engine, self.database, params)
        if deps is None:
            cache.stats["bypass_uncacheable"] += 1
            return
        cache.stats["misses"] += 1
        invalidator = middleware.cache_invalidator
        conflicts = invalidator.conflicts_since(replica.applied_seq, deps)
        if conflicts is not False:  # True, or None = unknowable window
            cache.stats["fill_rejected"] += 1
            return
        cache.put(key, result, deps, fill_seq=invalidator.applied_seq)

    def _stale_cache_fallback(self, sql_text: str,
                              params: List[Any]) -> Optional[Result]:
        """Degraded-mode last resort: with no replica able to serve the
        read, a labelled bounded-staleness cache hit beats an error."""
        middleware = self.middleware
        cache = middleware.result_cache
        resilience = middleware.resilience
        if cache is None or resilience is None or self.in_transaction \
                or self._cache_ineligible:
            return None
        key = self._cache_key(sql_text, params)
        if key is None:
            return None
        entry = cache.peek(key)
        if entry is None:
            return None
        if self.temp_tables and (self.temp_tables & entry.table_names()):
            return None
        if middleware.config.consistency.write_mode == "broadcast":
            return None
        protocol = middleware.config.consistency
        needed = protocol.min_read_seq(self.view, middleware.cluster_view())
        lag = max(0, needed - middleware.cache_invalidator.applied_seq)
        if lag == 0:
            # actually fresh — the replicas are gone but the entry is fine
            cache.stats["hits"] += 1
            middleware.cache_gate.note_served(self, GATE_HIT)
            if self.active_span:
                self.active_span.set_tag("cache", "fallback_hit")
            return entry.to_result()
        if not resilience.serve_stale(lag):
            return None
        cache.stats["stale_hits"] += 1
        resilience.note_stale_cache_served()
        middleware.cache_gate.note_served(self, GATE_STALE)
        if self.active_span:
            self.active_span.set_tag("cache", "stale_fallback")
            self.active_span.event("degraded_read", lag=lag,
                                   source="result_cache")
        return entry.to_result(stale=True, lag=lag)

    def _explain_cache_decision(self, statement: ast.ExplainStatement,
                                sql_text: str, params: List[Any]) -> str:
        """What the cache would do with the inner statement right now —
        reported by EXPLAIN next to the access path."""
        import re

        middleware = self.middleware
        cache = middleware.result_cache
        if self.in_transaction:
            return "cache bypass (transaction)"
        if self._cache_ineligible:
            return "cache bypass (session)"
        if middleware.config.consistency.write_mode == "broadcast":
            return "cache bypass (protocol)"
        if not isinstance(statement.statement, ast.SelectStatement):
            return "cache bypass (uncacheable)"
        inner_sql = re.sub(r"^\s*EXPLAIN\s+", "", sql_text,
                           flags=re.IGNORECASE)
        # key the inner statement the way executing it would
        _trees, key_sql, key_params = middleware.statements.lookup(
            inner_sql, params)
        key = self._cache_key(key_sql, key_params)
        if key is None:
            return "cache bypass (uncacheable)"
        entry = cache.peek(key)
        if entry is not None:
            decision, _lag = middleware.cache_gate.decide(self)
            if decision in (GATE_HIT, GATE_STALE):
                return "cache hit"
            return "cache miss"
        inner_info = analyze(statement.statement)
        replica = next(iter(middleware.online_replicas()), None)
        if replica is not None and extract_read_dependencies(
                statement.statement, inner_info, replica.engine,
                self.database, params) is None:
            return "cache bypass (uncacheable)"
        return "cache miss"

    # ------------------------------------------------------------------
    # traced replica execution
    # ------------------------------------------------------------------

    def _traced_execute(self, replica: Replica, connection: Connection,
                        statement: ast.Statement,
                        params: List[Any]) -> Result:
        """Run one statement on one replica under a replica.execute span
        (a no-op span outside a traced request)."""
        span = self.middleware.tracer.child_span(
            "replica.execute", self.active_span, replica=replica.name)
        with span:
            return connection.execute_statement(statement, params)

    # ------------------------------------------------------------------
    # reads
    # ------------------------------------------------------------------

    def _execute_read(self, statement: ast.Statement, sql_text: str,
                      params: List[Any], info: StatementInfo) -> Result:
        middleware = self.middleware
        middleware.stats["reads"] += 1
        writeset_like = (middleware.config.replication == "writeset"
                         or middleware.config.consistency.write_mode == "master")
        if self.in_transaction and writeset_like:
            # reads inside a writeset transaction stay on the local replica
            # (master-mode read-only transactions may run on a satellite)
            if self._local_replica is None and not self._txn_is_write:
                replica = middleware.choose_read_replica(self, info)
                connection = self._txn_connection(replica)
                if middleware.config.consistency.write_mode != "master":
                    # the transaction is now anchored here; later writes
                    # must see these reads' snapshot, and certification
                    # must cover everything this snapshot misses
                    self._local_replica = replica.name
                    self._txn_start_seq = min(self._txn_start_seq,
                                              replica.applied_seq)
            else:
                replica = self._ensure_local_replica()
                connection = self._txn_connections[replica.name]
            result = self._traced_execute(replica, connection, statement,
                                          params)
        elif self.in_transaction:
            # statement mode: read through a replica holding the txn
            if self._txn_connections:
                replica = self._pick_txn_read_replica(info)
            else:
                replica = middleware.choose_read_replica(self, info)
            connection = self._txn_connection(replica)
            result = self._traced_execute(replica, connection, statement,
                                          params)
        else:
            try:
                replica = middleware.choose_read_replica(self, info)
                connection = self._read_connection(replica)
                replays_before = self.failover_replays
                result = self._run_with_failover(
                    replica, connection, statement, params, info)
            except (NoReplicaAvailable, ReplicaUnavailable,
                    ConnectionError_):
                # degraded mode prefers a labelled-stale cache hit over an
                # error surfaced to the client
                stale = self._stale_cache_fallback(sql_text, params)
                if stale is not None:
                    return stale
                raise
            if middleware.result_cache is not None \
                    and self._single_statement and not self._cache_ineligible \
                    and self.failover_replays == replays_before:
                self._maybe_fill_cache(
                    statement, sql_text, params, info, replica, result)
        replica.stats["served_reads"] += 1
        replica.note_hot_tables(sorted(info.all_tables()))
        if middleware.resilience is not None:
            middleware.resilience.record_success(replica.name)
        middleware.config.consistency.note_read(self.view, replica.applied_seq)
        if not self.in_transaction:
            # an autocommit statement is its own transaction: transaction-
            # level balancing re-chooses for the next one
            middleware.config.balancer.end_transaction(self.id)
        if middleware.result_cache is not None \
                and isinstance(statement, ast.ExplainStatement) \
                and result.columns:
            result.rows.append((
                "CACHE", "*",
                self._explain_cache_decision(statement, sql_text, params),
                0))
            result.rowcount = len(result.rows)
        return result

    def _pick_txn_read_replica(self, info: StatementInfo) -> Replica:
        for name in self._txn_connections:
            replica = self.middleware.replica_by_name(name)
            if replica.can_serve:
                return replica
        raise ReplicaUnavailable("no live replica holds this transaction")

    def _run_with_failover(self, replica: Replica, connection: Connection,
                           statement: ast.Statement, params: List[Any],
                           info: StatementInfo) -> Result:
        """Autocommit read with transparent retry on another replica when
        the chosen one dies mid-request (section 4.3.3)."""
        try:
            return self._traced_execute(replica, connection, statement,
                                        params)
        except ConnectionError_:
            self._note_replica_failure(replica)
            if self.active_span:
                self.active_span.event("failover_retry",
                                       failed=replica.name)
            retry = self.middleware.choose_read_replica(self, info)
            retry_connection = self._read_connection(retry)
            self.failover_replays += 1
            return self._traced_execute(retry, retry_connection,
                                        statement, params)

    def _read_connection(self, replica: Replica) -> Connection:
        connection = self._read_connections.get(replica.name)
        if connection is None or connection.closed or replica.engine.crashed:
            connection = replica.engine.connect(
                self.user, self.password, database=self.database)
            self._read_connections[replica.name] = connection
        return connection

    def _note_replica_failure(self, replica: Replica) -> None:
        replica.mark_failed()
        if self.middleware.resilience is not None:
            self.middleware.resilience.record_failure(replica.name)
        self._read_connections.pop(replica.name, None)

    # ------------------------------------------------------------------
    # writes
    # ------------------------------------------------------------------

    def _execute_write(self, statement: ast.Statement, sql_text: str,
                       params: List[Any], info: StatementInfo) -> Result:
        middleware = self.middleware
        middleware.stats["writes"] += 1
        implicit = not self.in_transaction
        if implicit:
            self._begin_transaction(None)
        try:
            if self._statement_touches_temp(info):
                result = self._execute_on_pinned(statement, params)
            elif middleware.config.replication == "statement" \
                    and middleware.config.consistency.write_mode != "master":
                result = self._statement_mode_write(
                    statement, sql_text, params, info)
            else:
                result = self._writeset_mode_write(
                    statement, sql_text, params, info)
        except Exception:
            if implicit:
                self._rollback_transaction()
            raise
        if implicit:
            self._commit_transaction()
        return result

    # -- temp-table pinning ------------------------------------------------

    def _execute_on_pinned(self, statement: ast.Statement,
                           params: List[Any]) -> Result:
        """Temp-table work sticks to one replica (section 4.1.4).

        The pinned connection is *persistent* — temp tables are
        per-connection state at the engine, so the middleware must hold one
        connection open for the session's whole lifetime.
        """
        middleware = self.middleware
        if self.pinned_replica is None:
            if self._local_replica is not None:
                self.pinned_replica = self._local_replica
            elif self._txn_connections:
                self.pinned_replica = next(iter(self._txn_connections))
            else:
                context = RoutingContext(session_id=self.id)
                self.pinned_replica = middleware.config.balancer.choose(
                    middleware.online_replicas(), context).name
            middleware.monitor.record("session_pinned", self.pinned_replica,
                                      session=self.id)
        replica = middleware.replica_by_name(self.pinned_replica)
        if not replica.can_serve or replica.engine.crashed:
            raise ReplicaUnavailable(
                f"session pinned to failed replica {replica.name!r}; its "
                "temporary tables are unrecoverable (section 4.1.4)")
        connection = self._pinned_connection_for(replica)
        if self.in_transaction and not connection.in_transaction:
            connection.begin(self._txn_isolation)
            self._txn_connections[replica.name] = connection
        return self._traced_execute(replica, connection, statement,
                                    params)

    def _pinned_connection_for(self, replica: Replica) -> Connection:
        if self._pinned_connection is None or self._pinned_connection.closed:
            self._pinned_connection = replica.engine.connect(
                self.user, self.password, database=self.database)
        return self._pinned_connection

    # -- statement replication ------------------------------------------------

    def _statement_mode_write(self, statement: ast.Statement, sql_text: str,
                              params: List[Any],
                              info: StatementInfo) -> Result:
        middleware = self.middleware
        config = middleware.config

        statement = self._handle_nondeterminism(statement, info)

        if config.table_locking and info.tables_written:
            self._acquire_table_locks(info)

        targets = [
            r for r in middleware.replicas
            if r.is_online or r.name in self._txn_connections
        ]
        live_targets = [r for r in targets if r.is_online]
        if not live_targets:
            raise NoReplicaAvailable("no online replica for the write")

        results: List[Tuple[Replica, Result]] = []
        for replica in live_targets:
            connection = self._txn_connection(replica)
            try:
                result = self._traced_execute(
                    replica, connection, statement, params)
                results.append((replica, result))
            except ConnectionError_:
                # Replica died mid-broadcast: statement replication keeps
                # full state on the survivors — transparent failover.
                self._note_replica_failure(replica)
                self._txn_connections.pop(replica.name, None)
            except (SQLError, LockConflict):
                # A deterministic error must strike every replica alike;
                # abort the statement everywhere and surface it.
                raise
        if not results:
            raise NoReplicaAvailable("every replica failed during the write")

        if config.detect_divergence:
            rowcounts = {result.rowcount for _r, result in results}
            if len(rowcounts) > 1:
                middleware.monitor.record(
                    "divergence_detected", self.middleware.name,
                    rowcounts={r.name: res.rowcount for r, res in results})
                raise ClusterDivergence(
                    f"statement affected different row counts per replica: "
                    f"{[(r.name, res.rowcount) for r, res in results]}")

        self._txn_statements.append((sql_text, list(params)))
        self._txn_tables_written |= info.tables_written
        self._txn_is_write = True
        if info.is_ddl:
            self._txn_had_ddl = True
        elif middleware._certified_listeners:
            # derive the invalidation footprint from the statement itself
            # (no writeset exists in this mode) against a surviving replica
            keys, opaque = statement_footprint(
                statement, info, results[0][0].engine, self.database, params)
            if opaque:
                self._txn_had_opaque = True
            else:
                self._txn_footprints |= keys
        for replica, _result in results:
            replica.stats["served_writes"] += 1
        return results[0][1]

    def _handle_nondeterminism(self, statement: ast.Statement,
                               info: StatementInfo) -> ast.Statement:
        config = self.middleware.config
        if info.is_deterministic and info.safe_for_statement_replication:
            return statement
        if config.nondeterminism == "broadcast":
            return statement
        if config.nondeterminism == "reject":
            reasons = (info.nondeterministic_calls
                       or (["LIMIT without ORDER BY"]
                           if info.limit_without_order_in_write else [])
                       or ["opaque stored procedure"])
            raise UnsupportedStatementError(
                f"non-deterministic write ({', '.join(reasons)}) refused "
                "under statement replication")
        # rewrite policy
        if info.is_procedure_call:
            return self._vet_procedure_call(statement)
        if info.rewritable_calls:
            now_value = self.middleware.monitor.now()
            statement, _count = rewrite_nondeterministic(statement, now_value)
        if info.unsafe_calls or info.limit_without_order_in_write:
            reason = (info.unsafe_calls
                      or ["LIMIT without ORDER BY"])
            raise UnsupportedStatementError(
                f"cannot make statement deterministic ({', '.join(map(str, reason))}); "
                "use writeset replication for this workload (section 4.3.2)")
        return statement

    def _vet_procedure_call(self, statement: ast.Statement) -> ast.Statement:
        """Broadcast a stored-procedure call only when static analysis can
        prove it deterministic — the engine-cooperation capability the
        paper's agenda calls for (section 4.2.1); real middleware cannot
        see the body and must reject or risk divergence."""
        from ..sqlengine.procedures import analyze_procedure

        middleware = self.middleware
        replica = next(iter(middleware.online_replicas()), None)
        if replica is None:
            raise NoReplicaAvailable("no online replica")
        database_name = (statement.name.database or self.database)
        try:
            database = replica.engine.database(database_name)
            procedure = database.procedure(statement.name.name)
        except SQLError as exc:
            raise UnsupportedStatementError(
                f"cannot analyze procedure: {exc}")
        analysis = analyze_procedure(procedure)
        if not analysis.deterministic:
            raise UnsupportedStatementError(
                f"stored procedure {procedure.name!r} is non-deterministic; "
                "broadcasting it would diverge the cluster (section 4.2.1)")
        return statement

    def _acquire_table_locks(self, info: StatementInfo) -> None:
        """Middleware-level exclusive locks on written tables, held until
        the transaction ends (coarse table granularity, section 4.3.2)."""
        if self._txn_lock_id is None:
            self._txn_lock_id = next(self.middleware._lock_txn_counter)
        for table in sorted(info.tables_written):
            self.middleware._table_locks.acquire(
                self._txn_lock_id, table, LockMode.EXCLUSIVE)

    # -- writeset replication --------------------------------------------------

    def _writeset_mode_write(self, statement: ast.Statement, sql_text: str,
                             params: List[Any],
                             info: StatementInfo) -> Result:
        middleware = self.middleware
        if info.is_ddl:
            return self._broadcast_ddl(statement, sql_text, params, info)
        replica = self._ensure_local_replica()
        connection = self._txn_connections[replica.name]
        result = self._traced_execute(replica, connection, statement,
                                      params)
        self._txn_statements.append((sql_text, list(params)))
        self._txn_tables_written |= info.tables_written
        self._txn_is_write = True
        replica.stats["served_writes"] += 1
        return result

    def _broadcast_ddl(self, statement: ast.Statement, sql_text: str,
                       params: List[Any], info: StatementInfo) -> Result:
        """DDL has no writeset (section 4.3.2: 'database updates that
        cannot be rolled back'); even writeset-mode systems broadcast it as
        statements, outside certification."""
        middleware = self.middleware
        result = Result()
        for replica in middleware.online_replicas():
            connection = self._txn_connection(replica) \
                if replica.name in self._txn_connections \
                else self._read_connection(replica)
            result = self._traced_execute(replica, connection, statement,
                                          params)
        # already executed everywhere: only the ordered tail is left
        middleware.group_commit.commit_sequenced(CommitRequest(
            self, entries=[(sql_text, list(params))],
            tables=sorted(info.tables_written), kind="statements",
            publish_kind="ddl", holders=middleware.online_replicas()))
        return result

    def _ensure_local_replica(self) -> Replica:
        middleware = self.middleware
        if middleware.config.consistency.write_mode == "master":
            replica = middleware.master
            if not replica.is_online:
                raise ReplicaUnavailable(
                    f"master {replica.name!r} is down; promote a new master")
        elif self._local_replica is None and self.write_override is not None:
            replica = middleware.replica_by_name(self.write_override)
            if not replica.is_online:
                raise ReplicaUnavailable(
                    f"write-override replica {replica.name!r} is down")
        elif self._local_replica is not None:
            replica = middleware.replica_by_name(self._local_replica)
            if not replica.is_online:
                # Transaction replication cannot transparently fail over:
                # the transaction lived only here (section 4.3.3).
                raise ReplicaUnavailable(
                    f"replica {replica.name!r} executing this transaction "
                    "died; the transaction must be replayed by the client")
        else:
            context = RoutingContext(session_id=self.id, is_write=True)
            replica = middleware.config.balancer.choose(
                middleware.online_replicas(), context)
        self._local_replica = replica.name
        if replica.name not in self._txn_connections:
            self._txn_connections[replica.name] = \
                self._open_txn_connection(replica)
            # GSI-correct certification: the conflict window starts at the
            # snapshot this transaction actually reads — the local
            # replica's applied watermark, which may trail the global
            # sequence under asynchronous propagation.
            self._txn_start_seq = min(self._txn_start_seq,
                                      replica.applied_seq)
        return replica

    # ------------------------------------------------------------------
    # transaction control
    # ------------------------------------------------------------------

    def _begin_transaction(self, isolation: Optional[str]) -> None:
        if self.in_transaction:
            raise SQLError("transaction already in progress")
        self.in_transaction = True
        self._txn_isolation = isolation
        self._txn_statements = []
        self._txn_tables_written = set()
        self._txn_is_write = False
        self._txn_start_seq = self.middleware.global_seq
        self._txn_connections = {}
        self._local_replica = None
        self._txn_footprints = set()
        self._txn_had_opaque = False
        self._txn_had_ddl = False

    def _txn_connection(self, replica: Replica) -> Connection:
        connection = self._txn_connections.get(replica.name)
        if connection is None:
            connection = self._open_txn_connection(replica)
            self._txn_connections[replica.name] = connection
        return connection

    def _open_txn_connection(self, replica: Replica) -> Connection:
        connection = replica.engine.connect(
            self.user, self.password, database=self.database)
        isolation = self._choose_isolation(replica)
        connection.begin(isolation)
        return connection

    def _choose_isolation(self, replica: Replica) -> Optional[str]:
        requested = self._txn_isolation
        if requested is not None:
            return requested
        if self.middleware.config.replication == "writeset" \
                and self.middleware.config.consistency.name != "read-committed":
            # SI-class protocols want snapshot transactions locally; fall
            # back to the engine default when the dialect lacks SI (the
            # 4.1.2 heterogeneity headache).
            if replica.engine.dialect.supports_snapshot_isolation:
                return "SNAPSHOT"
        return None

    def _commit_transaction(self) -> None:
        if not self.in_transaction:
            return
        middleware = self.middleware
        try:
            if not self._txn_is_write:
                for connection in self._txn_connections.values():
                    connection.commit()
                return
            if middleware.config.replication == "statement" \
                    and middleware.config.consistency.write_mode != "master":
                self._commit_statement_mode()
            else:
                self._commit_writeset_mode()
            middleware.stats["commits"] += 1
        finally:
            self._end_transaction()

    def _commit_statement_mode(self) -> None:
        middleware = self.middleware
        committed = []
        for name, connection in list(self._txn_connections.items()):
            replica = middleware.replica_by_name(name)
            try:
                connection.commit()
                committed.append(replica)
            except ConnectionError_:
                self._note_replica_failure(replica)
        if not committed:
            middleware.stats["aborts"] += 1
            raise NoReplicaAvailable("commit failed on every replica")
        if self._txn_had_ddl:
            kind = "ddl"
        elif self._txn_had_opaque:
            kind = "opaque"
        else:
            kind = "statements"
        middleware.group_commit.commit_sequenced(CommitRequest(
            self, keys=frozenset(self._txn_footprints),
            entries=list(self._txn_statements),
            tables=sorted(self._txn_tables_written),
            kind="statements", publish_kind=kind, holders=committed))

    def _commit_writeset_mode(self) -> None:
        # The whole certify -> prepare -> prefix drain -> commit ->
        # recovery-log -> propagate -> ack -> publish sequence lives in
        # the group-commit coordinator: a batch of one outside a gather
        # (identical to the historical per-transaction pipeline), a
        # shared certifier batch and one frame per replica inside one.
        request = self.stage_commit_request()
        if request is None:
            self._txn_connections[self._local_replica].commit()
        else:
            self.middleware.group_commit.submit(request)

    def stage_commit_request(self) -> Optional[CommitRequest]:
        """Build this transaction's :class:`CommitRequest` without
        certifying or committing anything — the cross-shard 2PC prepare
        hook (``repro.shard.twopc``): the coordinator certifies each
        participant itself and finishes the winners through
        :meth:`GroupCommitCoordinator.commit_prepared`.  Returns ``None``
        when there is nothing to certify here (read-only, or the writes
        matched zero rows) — the caller commits or rolls back plainly."""
        if not self.in_transaction or not self._txn_is_write:
            return None
        middleware = self.middleware
        replica = middleware.replica_by_name(self._local_replica)
        if not replica.is_online or replica.engine.crashed:
            # The local replica died before certification: nothing global
            # has happened yet, so this failure is unambiguous — retry
            # layers may safely replay the transaction on a survivor.
            # (A crash *after* certify/commit stays ambiguous, 4.3.3.)
            raise ReplicaUnavailable(
                f"local replica {replica.name!r} died before commit")
        connection = self._txn_connections[replica.name]
        txn = connection.txn
        entries = extract_writeset_engine(txn) if txn is not None else []
        if not entries:
            return None
        return CommitRequest(
            session=self, origin=replica, connection=connection,
            start_seq=self._txn_start_seq, keys=conflict_keys(entries),
            entries=entries, tables=sorted(self._txn_tables_written))

    def _rollback_transaction(self) -> None:
        if not self.in_transaction:
            return
        # A rollback must always succeed from the client's point of view:
        # if a replica connection is broken, its transaction died with it.
        self._abort_everywhere(silent=True)
        self._end_transaction()
        self.middleware.stats["aborts"] += 1

    def _abort_everywhere(self, silent: bool) -> None:
        for connection in self._txn_connections.values():
            try:
                connection.rollback()
                if connection is not self._pinned_connection:
                    connection.close()
            except SQLError:
                if not silent:
                    raise
        self._txn_connections = {}

    def _end_transaction(self) -> None:
        for connection in self._txn_connections.values():
            if connection is self._pinned_connection:
                continue  # persistent: temp tables live on it (4.1.4)
            try:
                connection.close()
            except SQLError:
                pass
        self._txn_connections = {}
        self.in_transaction = False
        self._txn_is_write = False
        self._local_replica = None
        if self._txn_lock_id is not None:
            self.middleware._table_locks.release_all(self._txn_lock_id)
            self._txn_lock_id = None
        self.middleware.config.balancer.end_transaction(self.id)

    def _check_open(self) -> None:
        if self.closed:
            raise self.middleware.down_error("session is closed")
