"""The replication middleware — the system the paper is about.

One :class:`ReplicationMiddleware` instance fronts a set of
:class:`~repro.core.replica.Replica` backends (the Figure 7 / C-JDBC
architecture: clients talk to the middleware through a driver-like
session; the middleware holds a connection per replica).

Two replication protocols (section 4.3.2):

* ``statement`` — every update statement is executed at every online
  replica in the same total order; non-deterministic statements are
  rewritten, rejected or knowingly broadcast per policy
  (:mod:`repro.core.statement_replication`).
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
    CertifiedWrite, ConsistencyGate, ResultCache, ResultCacheConfig,
    WritesetInvalidator,
)
from ..sqlengine import ast_nodes as ast
from ..sqlengine import Connection, SQLError
from ..sqlengine.errors import ConnectionError_
from ..sqlengine.executor import Result
# TEMPORARY, not called here any more: perf/spans.py (frozen for this
# PR by the benchmark's path contract) rebinds this name and fails
# without it.  ROADMAP item 2 has the follow-up that repoints that
# boundary at sqlengine.stmtcache.parse_script and deletes this line.
from ..sqlengine.parser import parse_script  # noqa: F401
from ..sqlengine.stmtcache import StatementCache
from .analysis import StatementInfo, analyze_cached
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
from .statement_replication import StatementReplication
from .transaction import OpenTransaction, write_replica
from .writesets import apply_writeset


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
        self.resilience = resilience
        self.result_cache = result_cache
        self.tracing = tracing
        self.trace_retention = trace_retention
        self.retention_watermark = retention_watermark

    @property
    def statement_broadcast(self) -> bool:
        """Do writes go to every replica as statements
        (:mod:`repro.core.statement_replication`)?  Statement replication,
        unless the protocol sends writes to a master.  Read per call:
        ``consistency`` may be swapped at run time."""
        return self.replication == "statement" \
            and self.consistency.write_mode != "master"


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
        # Statement replication (4.3.2) and its middleware-level locks.
        self.statement_replication = StatementReplication(self)
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
        every session dies.  Returns the number of transactions lost."""
        lost = sum(session.in_transaction for session in self.sessions)
        for session in list(self.sessions):
            session.close()
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
        # queued applies first: the rebuilt log starts empty, so a replica
        # behind it would serve snapshots nobody can certify any more
        self.pump()
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
                            info: Optional[StatementInfo]
                            ) -> Tuple[Replica, Optional[int]]:
        """The one read choice: the open transaction's own replica, else
        pinning, consistency eligibility and the balancer.  Returns it and
        the seq it must apply first when no replica is fresh enough
        (``None``: read now) — the synchronous path drains to it there,
        the timed driver waits for the apply worker."""
        txn = session.txn
        if txn is not None:
            replica = txn.read_replica()
            if replica is not None:
                return replica, None
        parent = session.active_span or session.trace_context
        if not parent:
            return self._choose_read_replica(session, info, None)
        with self.tracer.child_span("balancer.choose", parent) as span:
            replica, needed = self._choose_read_replica(session, info, span)
            span.set_tag("replica", replica.name)
        return replica, needed

    def _choose_read_replica(self, session: "MiddlewareSession",
                             info: Optional[StatementInfo],
                             span) -> Tuple[Replica, Optional[int]]:
        if session.pinned_replica is not None:
            replica = self.replica_by_name(session.pinned_replica)
            if not replica.can_serve:
                raise ReplicaUnavailable(
                    f"session pinned to failed replica {replica.name!r} "
                    "(temporary tables are not replicated, section 4.1.4)")
            if span:
                span.set_tag("why", "pinned")
            return replica, None

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
            return chosen, None

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
                self.resilience.note_degraded_read(lag)
                if span:
                    span.set_tag("why", "degraded_stale")
                    span.event("degraded_read", lag=lag, replica=best.name)
                return best, None
        self.stats["freshness_waits"] += 1
        if span:
            span.set_tag("why", "freshness_wait")
            span.set_tag("waited_for_seq", needed)
        return best, needed

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
        span = None
        if trace_ref is not None:
            now = self.tracer.now()
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

    def _log_holders(self, committed=frozenset()
                     ) -> Iterator[Tuple[int, str, Any]]:
        """Who still needs log entry *s*?  One ``(seq, kind, name)`` per
        party that needs everything after ``seq``: every registered
        replica whatever its state (an OFFLINE / FAILED / RECOVERING one
        rejoins by log replay), every in-flight transaction's snapshot
        (it may yet certify against the entries above it; a prepared,
        undecided 2PC unit is still in its transaction) but those of the
        ``committed`` sessions, whose commit is durable and certifies
        nothing more, the HA standby's acknowledged seq, and every named
        checkpoint — how anything outside the middleware holds the
        log."""
        yield self.certifier.current_seq, "head", ""
        for replica in self.replicas:
            yield replica.applied_seq, "replica", replica.name
        for session in self.sessions:
            if session.txn is not None and session not in committed:
                yield session.txn.start_seq, "session", session.id
        acked = self.ha.acked_seq() if self.ha is not None else None
        if acked is not None:
            yield acked, "standby", ""
        for name, seq in self.recovery_log.checkpoints.items():
            yield seq, "checkpoint", name

    def retention_floor(self, committed=frozenset()) -> int:
        """The highest seq nobody needs any more: every per-commit
        structure may drop what is at or below it, and nothing above.
        ``committed``: sessions whose commit is being completed — their
        transaction still reads as open, but holds nothing."""
        return min(self._log_holders(committed))[0]

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
        # one engine connection per replica for the session's life:
        # reads, transactions and temp tables (section 4.1.4) share it
        self.connections: Dict[str, Connection] = {}
        # the open transaction (repro.core.transaction), explicit or the
        # implicit one around an autocommit write
        self.txn: Optional[OpenTransaction] = None
        # temp-table pinning (section 4.1.4)
        self.pinned_replica: Optional[str] = None
        self.temp_tables: set = set()
        # transparent replays (section 4.3.3) this session went through
        self.failover_replays = 0
        # HA client identity (repro.ha): a stable client id plus the
        # current transaction's client-assigned id.  When set, commits
        # are recorded in the middleware's commit ledger so a replay
        # after middleware failover can be deduplicated (exactly-once).
        self.client_id: Optional[str] = None
        self.client_txn_id: Optional[str] = None
        # Resilience state: an optional request deadline (set per request
        # by the client or driver; an implicit one is created from the
        # policy's request_timeout), and whether an external driver
        # already holds an admission ticket for this session.
        self.deadline: Optional[Deadline] = None
        self._admission_held = False
        # the resilience layer's retry backoff, owed by this session's
        # request and charged as simulated delay by a timed harness
        self.pending_backoff = 0.0
        # Result-cache state, read by the cache's door
        # (repro.cache.gate).  A session that issued USE/SET through the
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
        # Tracing (repro.obs).  ``active_span`` is the mw.statement span
        # currently executing on this session — explicit parenting, NOT a
        # tracer-global stack, because concurrent simulated requests
        # interleave at yields.  ``trace_context`` is an optional parent
        # installed by a timed driver (the request/timed.statement span)
        # so middleware spans join the request's trace instead of
        # starting roots of their own.  ``_cache_note`` carries the
        # result-cache decision (miss/bypass...) from the cache's lookup to
        # the statement span that ends up executing.
        self.active_span = None
        self.trace_context = None
        self._cache_note: Optional[str] = None

    @property
    def in_transaction(self) -> bool:
        return self.txn is not None

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
        gate = self.middleware.cache_gate
        if gate is not None:
            cached = gate.lookup(self, sql, params)
            if cached is not None:
                return cached
        if units is None:
            units = cache.script(sql, params)
        self._single_statement = len(units) == 1
        return self._guarded(units)

    def _guarded(self, units, replica: Optional[Replica] = None) -> Result:
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
                result = self._execute_one(statement, text, list(values),
                                           replica)
            ok = True
            return result
        finally:
            if own_deadline:
                self.deadline = None
            if ticket is not None:
                ticket.settle(ok)

    def execute_one_parsed(self, statement: ast.Statement, sql_text: str,
                           params: Optional[List[Any]] = None, *,
                           replica: Optional[Replica] = None) -> Result:
        """Execute one pre-parsed statement (the tiers above and the
        timed drivers).  ``(sql_text, params)`` is the identity of this
        one statement — its result-cache key, and what statement
        replication logs and replays — so it must re-execute as
        ``statement`` and nothing else: a caller that was sent a
        ``;``-script hands down each statement's own text
        (``StatementCache.script``), never the script's.  ``replica``:
        the read or write choice the caller already asked for; if it is
        down, a read is placed afresh and a write raises
        :class:`ReplicaUnavailable`."""
        self._check_open()
        gate = self.middleware.cache_gate
        if gate is not None:
            cached = gate.lookup(self, sql_text, params)
            if cached is not None:
                return cached
        self._single_statement = True
        if self.middleware.resilience is not None:
            return self._guarded(((statement, sql_text, params or ()),),
                                 replica)
        return self._execute_one(statement, sql_text, list(params or []),
                                 replica)

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
        if self.txn is not None:
            self.txn.end()
        for connection in self.connections.values():
            connection.close()
        self.connections.clear()
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
                     params: List[Any],
                     replica: Optional[Replica] = None) -> Result:
        # the statement door: with tracing off, this flag test is all a
        # statement pays for observability (see repro.obs.tracing)
        if self.middleware.tracer.enabled:
            return self._execute_traced(statement, sql_text, params,
                                        replica)
        self._cache_note = None
        resilience = self.middleware.resilience
        if resilience is None:
            return self._dispatch_one(statement, sql_text, params, replica)
        return resilience.execute_statement(
            self, statement, sql_text, params, replica)

    def _execute_traced(self, statement: ast.Statement, sql_text: str,
                        params: List[Any],
                        replica: Optional[Replica]) -> Result:
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
        with span:
            try:
                resilience = self.middleware.resilience
                if resilience is None:
                    return self._dispatch_one(statement, sql_text, params,
                                              replica)
                return resilience.execute_statement(
                    self, statement, sql_text, params, replica)
            finally:
                self.active_span = previous

    def _dispatch_one(self, statement: ast.Statement, sql_text: str,
                      params: List[Any],
                      replica: Optional[Replica] = None) -> Result:
        self.middleware._check_up()
        if isinstance(statement, ast.BeginStatement):
            if self.txn is not None:
                raise SQLError("transaction already in progress")
            self.txn = OpenTransaction(self, statement.isolation)
            return Result()
        if isinstance(statement, ast.CommitStatement):
            if self.txn is not None:
                self.txn.commit()
            return Result()
        if isinstance(statement, ast.RollbackStatement):
            if self.txn is not None:
                self.txn.rollback()
            return Result()

        info = analyze_cached(statement)
        if info.creates_temp_table:
            self.temp_tables |= info.touches_temp_names
        if isinstance(statement, (ast.UseStatement, ast.SetStatement)):
            # connection-local state the cache key cannot witness
            self._cache_ineligible = True

        if info.is_read_only and not self._statement_touches_temp(info):
            return self._execute_read(statement, sql_text, params, info,
                                      replica)
        return self._execute_write(statement, sql_text, params, info,
                                   replica)

    def _statement_touches_temp(self, info: StatementInfo) -> bool:
        if info.creates_temp_table:
            return True
        if not self.temp_tables:
            return False
        return bool(self._temp_names(info.all_tables()))

    def _temp_names(self, tables) -> set:
        """Which of ``tables`` are this session's temporary tables."""
        return {t.split(".")[-1] for t in tables} & self.temp_tables

    # ------------------------------------------------------------------
    # traced replica execution
    # ------------------------------------------------------------------

    def _traced_execute(self, replica: Replica, connection: Connection,
                        statement: ast.Statement,
                        params: List[Any]) -> Result:
        """Run one statement on one replica under a replica.execute span
        (none outside a traced request)."""
        parent = self.active_span
        if not parent:
            return connection.execute_statement(statement, params)
        with self.middleware.tracer.child_span(
                "replica.execute", parent, replica=replica.name):
            return connection.execute_statement(statement, params)

    # ------------------------------------------------------------------
    # reads
    # ------------------------------------------------------------------

    def _execute_read(self, statement: ast.Statement, sql_text: str,
                      params: List[Any], info: StatementInfo,
                      replica: Optional[Replica] = None) -> Result:
        middleware = self.middleware
        middleware.stats["reads"] += 1
        gate = middleware.cache_gate
        txn = self.txn
        replays_before = self.failover_replays
        try:
            if replica is None or not replica.can_serve:
                replica, needed = middleware.choose_read_replica(self, info)
                if needed is not None:
                    middleware.drain_replica(replica.name, up_to_seq=needed)
            if txn is not None:
                result = self._traced_execute(
                    replica, txn.read_connection(replica), statement, params)
            else:
                result = self._run_with_failover(
                    replica, self.connection(replica), statement, params,
                    info)
        except (NoReplicaAvailable, ReplicaUnavailable, ConnectionError_):
            # degraded mode prefers a labelled-stale cache hit over an
            # error surfaced to the client
            stale = gate.fallback(self, sql_text, params) \
                if gate is not None and txn is None else None
            if stale is not None:
                return stale
            raise
        if txn is None and gate is not None and self._single_statement \
                and self.failover_replays == replays_before:
            gate.fill(self, statement, sql_text, params, info, replica,
                      result)
        replica.stats["served_reads"] += 1
        replica.note_hot_tables(sorted(info.all_tables()))
        if middleware.resilience is not None:
            middleware.resilience.record_success(replica.name)
        middleware.config.consistency.note_read(self.view, replica.applied_seq)
        if txn is None:
            # an autocommit statement is its own transaction: transaction-
            # level balancing re-chooses for the next one
            middleware.config.balancer.end_transaction(self.id)
        if gate is not None and isinstance(statement, ast.ExplainStatement) \
                and result.columns:
            result.rows.append((
                "CACHE", "*", gate.explain(self, statement, sql_text, params),
                0))
            result.rowcount = len(result.rows)
        return result

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
            retry, needed = self.middleware.choose_read_replica(self, info)
            if needed is not None:
                self.middleware.drain_replica(retry.name, up_to_seq=needed)
            retry_connection = self.connection(retry)
            self.failover_replays += 1
            return self._traced_execute(retry, retry_connection,
                                        statement, params)

    def connection(self, replica: Replica) -> Connection:
        """The session's one engine connection at ``replica`` (Fig. 7),
        opened on first use and again once it closed or its engine
        crashed under it."""
        connection = self.connections.get(replica.name)
        if connection is None or connection.closed or replica.engine.crashed:
            connection = replica.engine.connect(
                self.user, self.password, database=self.database)
            self.connections[replica.name] = connection
        return connection

    def _note_replica_failure(self, replica: Replica) -> None:
        replica.mark_failed()
        if self.middleware.resilience is not None:
            self.middleware.resilience.record_failure(replica.name)
        self.connections.pop(replica.name, None)

    # ------------------------------------------------------------------
    # writes
    # ------------------------------------------------------------------

    def _execute_write(self, statement: ast.Statement, sql_text: str,
                       params: List[Any], info: StatementInfo,
                       replica: Optional[Replica] = None) -> Result:
        middleware = self.middleware
        middleware.stats["writes"] += 1
        txn = self.txn
        implicit = txn is None
        if implicit:
            txn = self.txn = OpenTransaction(self, None)
        try:
            if self._statement_touches_temp(info):
                result = self._execute_with_temp(txn, statement, sql_text,
                                                 params, info, replica)
            elif middleware.config.statement_broadcast:
                result = middleware.statement_replication.write(
                    self, statement, sql_text, params, info)
            else:
                result = self._writeset_mode_write(
                    txn, statement, sql_text, params, info, replica)
        except Exception:
            if implicit and self.txn is txn:
                txn.rollback()
            raise
        if implicit:
            txn.commit()
        return result

    # -- temp-table pinning ------------------------------------------------

    def _execute_with_temp(self, txn: OpenTransaction,
                           statement: ast.Statement, sql_text: str,
                           params: List[Any], info: StatementInfo,
                           replica: Optional[Replica]) -> Result:
        """A write that touches a temp table (section 4.1.4).  One that
        writes only temp tables stays at the pinned replica and is
        sequenced nowhere.  One that writes a shared table from temp
        rows runs at the pinned replica as its transaction's origin:
        the writeset carries the resulting rows, which no other replica
        could compute (section 4.3.2).  Statement replication could not
        replay it anywhere else, and a write that must run elsewhere (a
        master, an anchored transaction) cannot see the rows: both are
        refused before anything runs."""
        writes_shared = any(t.split(".")[-1] not in self.temp_tables
                            for t in info.tables_written)
        if info.creates_temp_table or not writes_shared:
            return self._execute_on_pinned(txn, statement, params, info)
        if self.middleware.config.statement_broadcast:
            why = "statement replication cannot replay it elsewhere"
        else:
            if replica is None:
                replica = write_replica(self, info.sorted_tables())
            if replica.name == self.pinned_replica:
                return self._writeset_mode_write(
                    txn, statement, sql_text, params, info, replica)
            why = f"it must run at replica {replica.name!r}"
        raise UnsupportedStatementError(
            f"write reads temporary table(s) "
            f"{sorted(self._temp_names(info.tables_read))}, whose rows only "
            f"replica {self.pinned_replica!r} holds (section 4.1.4), and "
            f"{why}; use writeset replication")

    def _execute_on_pinned(self, txn: OpenTransaction,
                           statement: ast.Statement, params: List[Any],
                           info: StatementInfo) -> Result:
        """Temp-table work sticks to one replica (section 4.1.4): temp
        tables are per-connection state at the engine, and the session's
        connection there lives as long as the session.  A writeset
        transaction commits at its anchor only, so one that writes temp
        rows is anchored here."""
        middleware = self.middleware
        if self.pinned_replica is None:
            if txn.local_replica is not None:
                self.pinned_replica = txn.local_replica
            elif txn.connections:
                self.pinned_replica = next(iter(txn.connections))
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
        if info.is_write and not middleware.config.statement_broadcast:
            connection = txn.anchor(replica)
        else:
            connection = txn.connection(replica)
        return self._traced_execute(replica, connection, statement, params)

    # -- writeset replication --------------------------------------------------

    def _writeset_mode_write(self, txn: OpenTransaction,
                             statement: ast.Statement, sql_text: str,
                             params: List[Any], info: StatementInfo,
                             replica: Optional[Replica]) -> Result:
        if info.is_ddl:
            return self._broadcast_ddl(statement, sql_text, params, info)
        replica, connection = txn.local(info.sorted_tables(), replica)
        result = self._traced_execute(replica, connection, statement,
                                      params)
        txn.note_write(sql_text, params, info.tables_written)
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
            result = self._traced_execute(
                replica, self.connection(replica), statement, params)
        # already executed everywhere: only the ordered tail is left
        middleware.group_commit.commit_sequenced(CommitRequest(
            self, entries=[(sql_text, list(params))],
            tables=sorted(info.tables_written), kind="statements",
            publish_kind="ddl", holders=middleware.online_replicas()))
        return result

    def _check_open(self) -> None:
        if self.closed:
            raise self.middleware.down_error("session is closed")
