"""The timed execution layer: runs *real* middleware SQL under the
discrete-event simulator, charging service times from the cost model.

Design: state changes (the actual SQL against the in-memory engines) are
instantaneous; what the simulation adds is *where the time goes* — replica
CPU queueing, total-order rounds, certification, asynchronous apply
workers.  :class:`TimedCluster` decides nothing itself: it asks the
middleware's one read choice (``choose_read_replica``) or one write choice
(``write_replica``), charges the simulated cost on the node it names —
waiting for that replica's apply worker where the synchronous path would
drain it for free — and executes the statement with that replica as an
explicit ``replica=`` argument, so the state change lands where the time
was charged.

Every simulated client runs in one loop, :class:`ClientLoop`; a driver
(closed clients, Poisson transactions, rate-curve sessions, the chaos
harness's requests) is only the arrival process that starts them.
"""

from __future__ import annotations

import random
from itertools import chain
from typing import Dict, List, Optional, Tuple

from ..cluster.nodes import NodeDown
from ..cluster.sim import Environment, Store
from ..core.admission import AdmissionGate
from ..core.analysis import analyze_cached
from ..core.applysched import conflict_groups, lane_makespan
from ..core.costmodel import CostModel
from ..core.errors import (
    RETRY_AFTER_FAILOVER, RETRY_SAFE, MiddlewareDown, Overloaded,
    RequestTimeout, RetryExhausted, retry_label,
)
from ..core.middleware import MiddlewareSession, ReplicationMiddleware
from ..core.transaction import write_replica
from ..ha.client import committed_before
from ..metrics.perf import LatencyRecorder, ThroughputMeter, TimeSeries
from ..obs.tracing import NULL_SPAN
from ..sqlengine import ast_nodes as ast
from ..workloads.generator import TxnSpec, Workload
from ..workloads.openloop import OpenLoopWorkload, RateCurve, arrival_times


class _Gather:
    """One in-progress group-commit gather window."""

    __slots__ = ("members", "closed")

    def __init__(self):
        self.members: List[_GatherMember] = []
        self.closed = False


class _GatherMember:
    """One commit waiting in a gather.  The leader (first member) has no
    signal; followers park on theirs until the leader flushes."""

    __slots__ = ("session", "local", "work", "signal", "error")

    def __init__(self, session, local, work, signal):
        self.session = session
        self.local = local
        self.work = work
        self.signal = signal
        self.error = None


class TimedCluster:
    """Wires a middleware cluster into a simulation environment."""

    # Most commits one group-commit gather takes before the next opens.
    GROUP_COMMIT_MAX = 64
    # Dependency-parallel apply drains up to this many queued items at
    # once, partitions them by footprint overlap and runs the
    # non-conflicting groups on ``apply_parallelism`` lanes.
    APPLY_DRAIN_BATCH = 16

    def __init__(self, env: Environment,
                 middleware: ReplicationMiddleware,
                 cost_model: Optional[CostModel] = None,
                 client_latency: float = 0.0003,
                 ordering_delay: Optional[float] = None,
                 apply_parallelism: int = 1,
                 cold_read_penalty: float = 0.0,
                 group_commit_window: float = 0.0,
                 dependency_apply: bool = False,
                 certifier_serial: bool = False):
        self.env = env
        self.middleware = middleware
        self.cost = cost_model or CostModel()
        self.client_latency = client_latency
        # total-order round (sequencer: to-orderer + fan-out)
        self.ordering_delay = (ordering_delay if ordering_delay is not None
                               else 2 * client_latency)
        self.apply_parallelism = max(1, apply_parallelism)
        # Buffer-pool locality model (Tashkent+ experiments, E08): reads of
        # tables outside the replica's working set cost
        # (1 + cold_read_penalty) x the nominal service time.
        self.cold_read_penalty = cold_read_penalty
        # Group commit (repro.core.groupcommit): writeset commits arriving
        # within ``group_commit_window`` seconds join one gather: one
        # certification round and one propagation frame per replica
        # (0 = per-transaction).
        self.group_commit_window = group_commit_window
        self.dependency_apply = dependency_apply
        # The paper's section 2.2 point: certification is a *serial*
        # total-order point.  When modeled (E27), every commit holds the
        # certifier for its ordering round; a group-commit batch holds it
        # once for the whole group.
        self._cert_lock: Optional[Store] = None
        if certifier_serial:
            self._cert_lock = Store(env)
            self._cert_lock.put(1)
        self._gc_current: Optional[_Gather] = None
        self._running = True
        self._signals: Dict[str, Store] = {}
        if middleware.config.propagation == "async":
            self._start_apply_workers()

    # ------------------------------------------------------------------
    # apply workers (asynchronous propagation)
    # ------------------------------------------------------------------

    def _start_apply_workers(self) -> None:
        for replica in self.middleware.replicas:
            self._signals[replica.name] = Store(self.env)
            self.env.process(self._apply_worker(replica),
                             name=f"apply:{replica.name}")

        def wake(replica, item) -> None:
            signal = self._signals.get(replica.name)
            if signal is not None:
                signal.put(1)

        self.middleware.on_apply_enqueued = wake
        # anything already queued (e.g. workload setup) must drain too
        for replica in self.middleware.replicas:
            if replica.apply_queue:
                self._signals[replica.name].put(1)

    def _apply_worker(self, replica):
        """Drains the replica's apply queue.  ``apply_parallelism`` items
        are in flight at once (1 = the serial apply whose lag section 2.2
        complains about); with ``dependency_apply`` the drained run is
        partitioned by footprint overlap and non-conflicting groups share
        the lanes (conflicting/opaque work still serializes)."""
        signal = self._signals[replica.name]
        while self._running:
            yield signal.get()
            while replica.apply_queue and self._running:
                if not replica.is_online:
                    break
                # Peek (do not pop): a commit-time synchronous drain may
                # race with us, and both paths must consume the queue
                # strictly from the head to preserve apply order.
                peek = (self.APPLY_DRAIN_BATCH if self.dependency_apply
                        else self.apply_parallelism)
                batch: List = replica.peek_batch(peek)
                units = [unit for item in batch for unit in item.units]
                try:
                    if replica.node is not None and units:
                        service, io_fraction = self._apply_service(units)
                        yield from replica.node.execute(
                            service, io_fraction=io_fraction)
                except NodeDown:
                    break
                highest = batch[-1].seq
                for item in replica.drain(up_to_seq=highest):
                    self.middleware._apply_item(replica, item)

    def _apply_service(self, units) -> Tuple[float, float]:
        """Simulated cost of applying ``units`` on one replica: CPU parts
        serialize on the node, IO parts overlap across the apply lanes.
        Without dependency scheduling every unit gets its own lane (the
        historical unconditional k-way pipeline); with it, lanes hold
        whole conflict groups, so overlap is only what commutativity
        actually allows."""
        io_f = self.cost.apply_io_fraction
        if self.dependency_apply:
            groups = conflict_groups(units)
            lanes = self.apply_parallelism
        else:
            groups = [[unit] for unit in units]
            lanes = len(groups)
        group_costs = [sum(self.cost.apply_cost(len(unit.entries))
                           for unit in group) for group in groups]
        loads = lane_makespan(group_costs, lanes)
        cpu_total = sum(group_costs) * (1 - io_f)
        io_lane = (max(loads) if loads else 0.0) * io_f
        combined = cpu_total + io_lane
        if combined <= 0:
            return 0.0, 0.0
        return combined, io_lane / combined

    def stop(self) -> None:
        self._running = False
        for signal in self._signals.values():
            signal.put(0)

    # ------------------------------------------------------------------
    # timed statement execution
    # ------------------------------------------------------------------

    @property
    def resilience(self):
        """The middleware's request-resilience layer, or ``None``: the
        client loop's timed retry follows whoever leads right now."""
        return self.middleware.resilience

    def timed_statement(self, session: MiddlewareSession, sql: str,
                        params):
        """Generator: one SQL string with simulated timing.  Inside a
        traced request (the client loop set ``session.trace_context``)
        the whole charge window runs under a ``timed.statement`` span,
        and middleware spans nest beneath it."""
        parent = session.trace_context
        if parent is None or not parent:
            yield from self._timed_statement_inner(session, sql, params)
            return
        span = self.middleware.tracer.child_span(
            "timed.statement", parent, sql=sql[:80])
        session.trace_context = span if span else parent
        try:
            yield from self._timed_statement_inner(session, sql, params)
        except Exception as exc:
            if span:
                span.set_tag("error", type(exc).__name__)
            raise
        finally:
            session.trace_context = parent
            span.end()

    def _timed_statement_inner(self, session: MiddlewareSession, sql: str,
                               params: list):
        middleware = self.middleware
        # client -> middleware hop + middleware processing
        yield self.env.timeout(self.client_latency
                               + self.cost.middleware_cost())
        # the middleware's own statement cache: key-bearing point
        # statements share one parsed (and, by identity, analyzed) template
        for statement, sql, params in middleware.statements.script(
                sql, params):
            if isinstance(statement, (ast.BeginStatement,
                                      ast.RollbackStatement)):
                session.execute_one_parsed(statement, sql, params)
                continue
            if isinstance(statement, ast.CommitStatement):
                yield from self._timed_commit(session, statement, sql, params)
                continue
            info = analyze_cached(statement)
            if info.is_read_only:
                yield from self._timed_read(session, statement, info, sql,
                                            params)
            else:
                yield from self._timed_write(session, statement, info, sql,
                                             params)

    def _timed_read(self, session, statement, info, sql, params):
        replica, needed = self.middleware.choose_read_replica(session, info)
        if needed is not None:
            yield from self._await_applied(replica, needed)
        if replica.node is not None:
            service = self.cost.statement_cost(info)
            if self.cold_read_penalty > 0:
                tables = info.sorted_tables()
                hotness = replica.hotness(tables) if tables else 1.0
                service *= 1.0 + self.cold_read_penalty * (1.0 - hotness)
            yield from replica.node.execute(service, io_fraction=0.1)
        session.execute_one_parsed(statement, sql, params, replica=replica)

    def _await_applied(self, replica, seq: int, max_wait: float = 2.0):
        """The middleware's freshness wait in simulated time: where the
        synchronous path drains ``replica`` up to ``seq`` for free, its
        apply worker gets up to ``max_wait`` to get there; whatever is
        left then is drained (a forced synchronous apply)."""
        deadline = self.env.now + max_wait
        while replica.applied_seq < seq and replica.apply_queue \
                and replica.is_online and self.env.now < deadline:
            yield self.env.timeout(0.002)
        if replica.is_online:
            self.middleware.drain_replica(replica.name, up_to_seq=seq)

    def _timed_write(self, session, statement, info, sql, params):
        middleware = self.middleware
        statement_cost = self.cost.statement_cost(info)
        autocommit = not session.in_transaction
        if middleware.config.statement_broadcast or info.is_ddl:
            # total order + parallel execution at every online replica:
            # statement replication, and DDL under any protocol (it has no
            # writeset, so writeset replication broadcasts it too)
            yield self.env.timeout(self.ordering_delay)
            charged = yield from self._charge_each(
                middleware.online_replicas(), statement_cost,
                self.cost.io_fraction)
            if charged:
                yield self.env.timeout(self.ACK_PROCESSING * charged)
            if autocommit:
                yield from self._charge_statement_commit()
            session.execute_one_parsed(statement, sql, params)
            return
        # writeset / master mode: execute at the local replica only
        replica = write_replica(session, info.sorted_tables())
        if replica.node is not None:
            yield from replica.node.execute(
                statement_cost, io_fraction=self.cost.io_fraction)

        def work():
            session.execute_one_parsed(statement, sql, params,
                                       replica=replica)
        if autocommit and self.group_commit_window > 0:
            # the autocommit write's commit joins the current gather; the
            # batch leader runs the state change at flush time
            yield from self._group_commit_run(session, replica, work)
            return
        if autocommit:
            yield from self._charge_writeset_commit(replica)
        work()

    # Middleware-side per-replica acknowledgement processing: collecting N
    # replies serializes at the coordinator, so broadcast cost grows
    # (slightly) with the cluster size even when replicas run in parallel.
    ACK_PROCESSING = 0.00008

    def _charge_each(self, replicas, service: float, io_fraction: float):
        """Charge ``service`` on every one of ``replicas`` in parallel;
        returns how many nodes were charged."""
        tasks = [self.env.process(replica.node.execute(
            service, io_fraction=io_fraction))
            for replica in replicas if replica.node is not None]
        if tasks:
            yield self.env.all_of(tasks)
        return len(tasks)

    def _charge_statement_commit(self):
        """Commit IO forced in parallel at every replica (statement mode),
        plus coordinator-side acknowledgement collection."""
        online = self.middleware.online_replicas()
        yield from self._charge_each(online, self.cost.commit_io, 0.9)
        yield self.env.timeout(self.ACK_PROCESSING * len(online))

    def _charge_writeset_commit(self, local):
        """Certification round, pending-prefix catch-up, local commit IO,
        and (under synchronous propagation) the remote applies."""
        middleware = self.middleware
        yield from self._charge_certification()
        if local.node is not None:
            pending = len(local.apply_queue)
            if pending:
                yield from local.node.execute(
                    self.cost.writeset_apply * pending,
                    io_fraction=self.cost.io_fraction)
            yield from local.node.execute(self.cost.commit_io,
                                          io_fraction=0.9)
        if middleware.config.propagation == "sync":
            yield from self._charge_each(
                [r for r in middleware.online_replicas()
                 if r.name != local.name],
                self.cost.writeset_apply, self.cost.io_fraction)

    def _charge_certification(self, extra: float = 0.0):
        """The ordering round + certification check (+ ``extra`` CPU).  A
        replicated certifier and HA state shipping (repro.ha) both add
        one synchronous coordinator round-trip — the price of losing
        nothing on failover (E09 / E26).  When the serial total-order
        point is modeled, the whole round holds the certifier
        exclusively — concurrent commits queue behind it."""
        ha = self.middleware.ha
        rounds = 2 if self.middleware.certifier.replicated or (
            ha is not None and ha.standby_name is not None) else 1
        service = self.ordering_delay * rounds + self.cost.certification \
            + extra
        if self._cert_lock is None:
            yield self.env.timeout(service)
            return
        yield self._cert_lock.get()
        try:
            yield self.env.timeout(service)
        finally:
            self._cert_lock.put(1)

    # ------------------------------------------------------------------
    # group commit (gather window)
    # ------------------------------------------------------------------

    def _group_commit_run(self, session, local, work):
        """Join (or lead) the current group-commit gather.  The first
        arrival becomes the batch leader: it waits out the gather window,
        charges one shared certification round plus one amortized log
        force per origin, then executes every member's state change
        inside ``middleware.group_commit.batch()`` — certified back to
        back, one propagation frame per replica.  Members park on a signal and
        re-raise their own outcome (e.g. a certification abort)."""
        gather = self._gc_current
        if gather is not None and not gather.closed \
                and len(gather.members) < self.GROUP_COMMIT_MAX:
            member = _GatherMember(session, local, work, Store(self.env))
            gather.members.append(member)
            yield member.signal.get()
            if member.error is not None:
                raise member.error
            return
        gather = _Gather()
        leader = _GatherMember(session, local, work, None)
        gather.members.append(leader)
        self._gc_current = gather
        yield self.env.timeout(self.group_commit_window)
        gather.closed = True
        if self._gc_current is gather:
            self._gc_current = None
        middleware = self.middleware
        try:
            yield from self._charge_group_precommit(gather)
            with middleware.group_commit.batch() as flushed:
                for member in gather.members:
                    try:
                        member.work()
                    except Exception as exc:  # noqa: BLE001 — per-member outcome
                        member.error = exc
            yield from self._charge_group_postcommit(flushed)
        except Exception as exc:  # noqa: BLE001 — e.g. NodeDown mid-charge
            for member in gather.members:
                if member.error is None:
                    member.error = exc
        finally:
            for member in gather.members[1:]:
                member.signal.put(1)
        if leader.error is not None:
            raise leader.error

    def _charge_group_precommit(self, gather):
        """One certification round for the whole batch (plus a small
        per-transaction CPU term), then per-origin pending-prefix
        catch-up and ONE group-committed log force per origin."""
        middleware = self.middleware
        cost = self.cost
        members = gather.members
        yield from self._charge_certification(
            cost.certify_txn_cpu * (len(members) - 1))
        by_origin: Dict[str, int] = {}
        for member in members:
            by_origin[member.local.name] = \
                by_origin.get(member.local.name, 0) + 1
        tasks = []
        for name, count in by_origin.items():
            replica = middleware.replica_by_name(name)
            if replica.node is None:
                continue
            service = (cost.writeset_apply * len(replica.apply_queue)
                       + cost.commit_io
                       + cost.group_commit_txn_io * (count - 1))
            tasks.append(self.env.process(
                replica.node.execute(service, io_fraction=0.9)))
        if tasks:
            yield self.env.all_of(tasks)
        yield self.env.timeout(self.ACK_PROCESSING * len(by_origin))

    def _charge_group_postcommit(self, flushed):
        """Charge the frames the flush applied synchronously (all of them
        under sync propagation; under async, only the origins' prefix
        frames) with the dependency-parallel apply cost; async
        destinations pay in their own apply workers instead."""
        tasks = []
        for name in flushed["sync"]:
            units = flushed["frames"].get(name)
            if not units:
                continue
            replica = self.middleware.replica_by_name(name)
            if replica.node is None:
                continue
            service, io_fraction = self._apply_service(units)
            if service > 0:
                tasks.append(self.env.process(
                    replica.node.execute(service, io_fraction=io_fraction)))
        if tasks:
            yield self.env.all_of(tasks)

    def _timed_commit(self, session, statement, sql, params):
        middleware = self.middleware
        txn = session.txn
        if txn is None:
            return
        if txn.is_write and middleware.config.statement_broadcast:
            yield from self._charge_statement_commit()
        elif txn.is_write:
            # the origin is the replica the transaction's writes ran at
            local = middleware.replica_by_name(txn.local_replica)
            if self.group_commit_window > 0:
                yield from self._group_commit_run(
                    session, local,
                    lambda: session.execute_one_parsed(statement, sql,
                                                       params))
                return
            yield from self._charge_writeset_commit(local)
        session.execute_one_parsed(statement, sql, params)


# ---------------------------------------------------------------------------
# the client loop
# ---------------------------------------------------------------------------

#: the database every simulated client's session opens
DATABASE = "shop"
#: a closed client backs off this long after a failed transaction, and
#: this long when it cannot reconnect
RETRY_BACKOFF = 0.05
RECONNECT_BACKOFF = 0.5
#: most sessions an open transaction stream holds (more arrivals drop)
MAX_SESSIONS = 256

_BEGIN = (("BEGIN", ()),)
_COMMIT = (("COMMIT", ()),)


class RunMetrics:
    """Collected by every driver."""

    def __init__(self, env: Environment):
        self.env = env
        self.latency = LatencyRecorder()
        self.read_latency = LatencyRecorder("read")
        self.write_latency = LatencyRecorder("write")
        self.throughput = ThroughputMeter()
        self.errors: Dict[str, int] = {}
        self.throughput.start(env.now)

    def note(self, spec: TxnSpec, latency: float, ok: bool,
             error_kind: str) -> None:
        if ok:
            self.latency.add(latency)
            if spec.is_read_only:
                self.read_latency.add(latency)
            else:
                self.write_latency.add(latency)
            self.throughput.note_completion(self.env.now)
        else:
            self.throughput.note_failure(self.env.now)
            self.errors[error_kind] = self.errors.get(error_kind, 0) + 1

    def rate(self, until: Optional[float] = None) -> float:
        return self.throughput.rate(until)


class ClientLoop:
    """The one timed client loop.  A driver is only an arrival process
    that starts :meth:`_client` processes; what a client does is written
    here once: session acquire / release, admission (one ticket per
    transaction, settled once), BEGIN / statements / COMMIT over the
    cluster's ``timed_statement`` with a rollback on error, the timed
    retry, the exactly-once replay check, goodput / deadline accounting
    and the root span.  The timed retry runs when the middleware has a
    resilience policy; without one a transaction gets one attempt.
    Requests are numbered in arrival order."""

    #: released sessions are pooled (else closed)
    pooled = True
    #: most sessions open at once (0: no cap)
    session_cap = 0
    #: each request gets a ``request`` root span on the middleware's tracer
    traced = False

    def __init__(self, cluster, workload: Optional[Workload] = None,
                 seed: int = 0, admission: Optional[AdmissionGate] = None,
                 txn_deadline: float = float("inf")):
        self.cluster = cluster
        self.env = cluster.env
        self.workload = workload
        self.seed = seed
        self.gate = admission
        self.txn_deadline = txn_deadline
        self.metrics = RunMetrics(cluster.env)
        self._pool: List = []
        self._sessions = self._active = self.peak_concurrency = 0
        self.requests = self.txns_issued = self.shed_txns = 0
        self.sessions_completed = self.sessions_shed = 0
        self.goodput = self.deadline_misses = 0
        self.acked_commits = self.dedup_commits = 0

    def _acquire(self):
        """A pooled session, else a new one (``None`` at the cap); raises
        what the cluster raises when it refuses a connection."""
        while self._pool:
            session = self._pool.pop()
            if not session.closed:
                return session
        if self.session_cap and self._sessions >= self.session_cap:
            return None
        session = self.cluster.middleware.connect(database=DATABASE)
        self._sessions += 1
        return session

    def _release(self, session) -> None:
        if not session.closed and self.pooled:
            self._pool.append(session)
            return
        session.close()
        self._sessions -= 1

    def _client(self, rng, count: int = 0, until: float = float("inf"),
                session=None, spec=None):
        """One simulated client: ``count`` transactions (0: as many as
        fit before ``until``), drawn from ``rng`` unless the arrival
        process brought one.  A client that draws its own holds one
        session throughout; a brought request opens its session once
        admitted.  A counted client leaves when shed or failed; an
        unbounded (closed) one backs off, reconnects and goes on."""
        env, timed = self.env, self.cluster
        if session is None and spec is None:
            session = self._open(None, env.now, NULL_SPAN, None)
            if session is None:
                return
        self._active += 1
        self.peak_concurrency = max(self.peak_concurrency, self._active)
        done = 0
        try:
            while env.now < until:
                if spec is None:
                    spec = self.workload.next_transaction(rng)
                request, start = self.requests, env.now
                self.requests += 1
                resilience = timed.resilience
                root = NULL_SPAN
                if self.traced:
                    root = timed.middleware.tracer.start_span(
                        "request", kind=spec.kind, request=request)
                gate = self.gate if resilience is None \
                    else resilience.admission
                ticket = None
                if gate is not None:
                    ticket, _reason = gate.try_admit(
                        "read" if spec.is_read_only else "commit")
                    if ticket is None:
                        # a shed user goes away, not into a retry storm
                        self.sessions_shed += 1
                        root.event("admission_shed")
                        self._settle(spec, start, "Overloaded", root,
                                     admitted=False)
                        return
                self.txns_issued += 1
                if session is None:
                    session = self._open(spec, start, root, ticket)
                    if session is None:
                        return
                bound = resilience is not None or self.traced
                deadline = None if resilience is None \
                    else resilience.deadline()
                if bound:
                    self._bind(session, spec, request, root, deadline)
                attempt = 1
                while True:
                    if attempt > 1 and not spec.is_read_only \
                            and committed_before(timed.middleware,
                                                 session.client_txn_id):
                        # the ledger proves an earlier attempt committed:
                        # answer success, re-apply nothing
                        root.event("ha.dedup", txn=session.client_txn_id)
                        self.dedup_commits += 1
                        error = ""
                        break
                    exc = yield from self._attempt(session, spec,
                                                   resilience, root)
                    error = "" if exc is None else type(exc).__name__
                    if exc is None or resilience is None \
                            or isinstance(exc, (RequestTimeout, Overloaded)):
                        break
                    ambiguous = isinstance(exc, RetryExhausted) \
                        and exc.ambiguous
                    if not (ambiguous or timed_retryable(exc)):
                        break
                    yield from self._charge_backoff(resilience, session,
                                                    root)
                    # a commit ledger makes an ambiguous write resolvable
                    if ambiguous and (spec.is_read_only
                                      or timed.middleware.ha is None):
                        break
                    # the deadline, if any, is the retry budget: back off
                    # in simulated time so the cluster can repair or
                    # promote underneath; else the attempt cap bounds us
                    retry = resilience.policy.retry
                    if deadline is None and retry.spent(attempt):
                        break
                    backoff = retry.backoff(attempt, key=request)
                    if deadline is not None \
                            and deadline.remaining() <= backoff:
                        error = "RequestTimeout"
                        break
                    root.event("backoff", duration=round(backoff, 9),
                               attempt=attempt, source="timed",
                               error=error)
                    yield env.timeout(backoff)
                    attempt += 1
                    if session.closed \
                            or session.middleware is not timed.middleware:
                        # the middleware died under us: re-resolve the
                        # virtual IP; the ledger is asked before a replay
                        try:
                            session = self._acquire()
                        except Exception:  # noqa: BLE001 — still down
                            continue
                        self._bind(session, spec, request, root, deadline)
                        root.event("mw_reconnect",
                                   target=timed.middleware.name)
                if bound:
                    session.deadline = session.trace_context = None
                if ticket is not None:
                    ticket.settle(not error)
                self._settle(spec, start, error, root)
                spec = None
                done += 1
                if error:
                    if count:
                        return
                    yield env.timeout(RETRY_BACKOFF)
                if done == count:
                    break
                if session.closed:
                    try:
                        session = self._acquire()
                    except Exception:  # noqa: BLE001 — middleware down
                        yield env.timeout(RECONNECT_BACKOFF)
                        continue
                pause = self._think(rng)
                if pause > 0:
                    yield env.timeout(pause)
            self.sessions_completed += 1
        finally:
            self._active -= 1
            if session is not None:
                self._release(session)

    def _open(self, spec, start: float, root, ticket):
        """:meth:`_acquire`, or ``None`` once the refusal is settled as
        the request's failure."""
        try:
            return self._acquire()
        except Exception as exc:  # noqa: BLE001 — middleware down
            if ticket is not None:
                ticket.settle(False)
            self._settle(spec, start, type(exc).__name__, root)
            return None

    def _think(self, rng) -> float:
        return 0.0

    def _attempt(self, session, spec: TxnSpec, resilience, root):
        """Generator: one attempt at ``spec`` (one statement, else
        BEGIN / statements / COMMIT), charging the resilience layer's
        in-session backoff after each statement.  Returns ``None``, or
        what ended it after a quiet rollback."""
        timed = self.cluster.timed_statement
        statements = spec.statements
        if len(statements) > 1:
            statements = chain(_BEGIN, statements, _COMMIT)
        try:
            for sql, params in statements:
                yield from timed(session, sql, params)
                if resilience is not None:
                    yield from self._charge_backoff(resilience, session,
                                                    root)
            return None
        except Exception as exc:  # noqa: BLE001 — the loop's verdict
            try:
                session.rollback()
            except Exception:  # noqa: BLE001
                pass
            return exc

    def _charge_backoff(self, resilience, session, root):
        """The backoff the in-session retries accumulated, charged as
        simulated time (a ``backoff`` event with a ``duration``, which
        trace breakdowns count as a stage)."""
        delay = resilience.consume_backoff(session)
        if delay > 0:
            root.event("backoff", duration=round(delay, 9),
                       source="resilience")
            yield self.env.timeout(delay)

    @staticmethod
    def _bind(session, spec: TxnSpec, request: int, root, deadline) -> None:
        """Attach the request to ``session``: root span, deadline, and for
        a write the client transaction id the exactly-once ledger keys
        on.  The loop holds the request's admission ticket."""
        session.trace_context = root
        session.deadline = deadline
        session._admission_held = True
        if not spec.is_read_only:
            session.client_id = f"c{request}"
            session.client_txn_id = f"req{request}"

    def _settle(self, spec, start: float, error: str, root,
                admitted: bool = True) -> None:
        """Account one request that ended (``error`` is "" on success).
        A shed request is counted apart from failures; a success later
        than ``txn_deadline`` is a deadline miss, not goodput."""
        root.set_tag("ok", not error)
        if error:
            root.set_tag("error", error)
        root.end()
        if not admitted:
            self.shed_txns += 1
            return
        latency = self.env.now - start
        self.metrics.note(spec, latency, not error, error)
        if error:
            return
        if latency <= self.txn_deadline:
            self.goodput += 1
        else:
            self.deadline_misses += 1
        if not spec.is_read_only:
            self.acked_commits += 1


def timed_retryable(exc: Exception) -> bool:
    """May the timed retry go round again?  What the error's label says,
    plus what only simulated time knows: ``NodeDown`` is the simulator's
    broken connection, and a ``MiddlewareDown`` of either label is worth
    waiting out (a standby is promoted, or the cold restart a ``fatal``
    asks for completes) before reconnecting through the virtual IP."""
    return isinstance(exc, (NodeDown, MiddlewareDown)) \
        or retry_label(exc) in (RETRY_SAFE, RETRY_AFTER_FAILOVER)


class ClosedLoopDriver(ClientLoop):
    """N clients, each running transactions back-to-back with optional
    think time — the classic (criticized) academic load shape."""

    pooled = False

    def __init__(self, cluster: TimedCluster, workload: Workload,
                 clients: int = 8, think_time: float = 0.0,
                 seed: int = 31):
        super().__init__(cluster, workload, seed)
        self.clients = clients
        self.think_time = think_time

    def start(self, duration: float) -> None:
        until = self.env.now + duration
        for client in range(self.clients):
            rng = random.Random(self.seed + client * 101)
            self.env.process(self._client(rng, until=until),
                             name=f"client{client}")

    def _think(self, rng) -> float:
        return self.think_time


class OpenLoopDriver(ClientLoop):
    """Poisson arrivals at a fixed rate, independent of completions — the
    non-closed-loop generator the paper's agenda calls for (section 5.1).
    Under overload, latency grows without bound instead of the generator
    politely slowing down."""

    session_cap = MAX_SESSIONS

    def __init__(self, cluster: TimedCluster, workload: Workload,
                 rate_tps: float = 100.0, seed: int = 37):
        super().__init__(cluster, workload, seed)
        self.rate = rate_tps
        self.dropped_arrivals = 0

    def start(self, duration: float) -> None:
        self.env.process(self._arrivals(duration), name="arrivals")

    def _arrivals(self, duration: float):
        env = self.env
        rng = random.Random(self.seed)
        deadline = env.now + duration
        while env.now < deadline:
            yield env.timeout(rng.expovariate(self.rate))
            spec = self.workload.next_transaction(rng)
            try:
                session = self._acquire()
            except Exception:  # noqa: BLE001 — middleware down
                session = None
            if session is None:
                self.dropped_arrivals += 1
            else:
                env.process(self._client(None, 1, session=session,
                                         spec=spec))


class SessionArrivalDriver(ClientLoop):
    """The million-user open-loop tier: *sessions* arrive per a
    :class:`RateCurve` (non-homogeneous Poisson, thinning), each runs a
    short Zipf-popular transaction sequence with think gaps, and an
    optional :class:`AdmissionGate` sheds excess arrivals at the door
    with labeled reasons.  Unlike :class:`OpenLoopDriver`, the unit of
    arrival is a session — the thing a flash crowd multiplies — and
    there is no pool cap.  A transaction answered after
    ``txn_deadline`` is a deadline miss: the overload mode where
    shedding beats queueing."""

    def __init__(self, cluster, workload: OpenLoopWorkload,
                 curve: RateCurve, seed: int = 41,
                 admission: Optional[AdmissionGate] = None,
                 txn_deadline: float = 0.75):
        super().__init__(cluster, workload, seed, admission, txn_deadline)
        self.curve = curve
        self.sessions_arrived = 0

    def start(self, duration: float) -> None:
        self.env.process(self._arrivals(duration), name="session_arrivals")

    def _arrivals(self, duration: float):
        env = self.env
        rng = random.Random(self.seed)
        last = start = env.now
        for offset in arrival_times(self.curve, duration, rng):
            if start + offset > last:
                yield env.timeout(start + offset - last)
                last = start + offset
            self.sessions_arrived += 1
            # independent per-session stream: workload content stays
            # identical across admission arms with the same seed
            session_rng = random.Random(
                (self.seed * 1_000_003) ^ (self.sessions_arrived * 2654435761))
            env.process(self._client(
                session_rng, self.workload.session_length(session_rng)))

    def _think(self, rng) -> float:
        return self.workload.think_time(rng)

    def goodput_rate(self, duration: float) -> float:
        return self.goodput / duration if duration > 0 else 0.0

    def summary(self, duration: float) -> dict:
        """Plain-dict accounting for reports and BENCH artifacts."""
        out = {
            "sessions_arrived": self.sessions_arrived,
            "sessions_completed": self.sessions_completed,
            "sessions_shed": self.sessions_shed,
            "txns_issued": self.txns_issued,
            "shed_txns": self.shed_txns,
            "goodput_txns": self.goodput,
            "goodput_tps": self.goodput_rate(duration),
            "deadline_misses": self.deadline_misses,
            "acked_commits": self.acked_commits,
            "peak_concurrency": self.peak_concurrency,
            "errors": dict(self.metrics.errors),
            "p99_latency": self.metrics.latency.percentile(99.0),
        }
        if self.gate is not None:
            out["admission"] = self.gate.snapshot()
        return out


class TimedShardedCluster:
    """Wires a :class:`~repro.shard.router.ShardedCluster` into the
    simulation environment, duck-typing what the client loop needs
    (``env``, ``middleware.connect``, ``resilience``, ``timed_statement``)
    so every driver runs on the shard tier unchanged (E29 rides E28's
    open-loop session tier).

    Cost model, per the repo convention (state changes instantaneous,
    time charged separately): every statement pays the client hop plus
    its nominal service time on each target group in parallel, scatter
    reads add a per-extra-target merge term at the coordinator, and
    every *commit* holds the written groups' **ordering mutexes** for an
    ordering + certification round — one serial total-order point per
    group.  That per-group serial point is exactly the paper's section
    2.2 bottleneck, and sharding's payoff: N shards = N independent
    ordering points, so disjoint write traffic scales out (~Nx), while
    a cross-shard 2PC commit pays a prepare round on every participant,
    a decision-record append and a second (commit) round — the measured
    price of the dual-write window in E29's live-split scenario."""

    def __init__(self, env: Environment, cluster,
                 cost_model: Optional[CostModel] = None,
                 client_latency: float = 0.0003,
                 ordering_delay: Optional[float] = None):
        self.env = env
        self.cluster = cluster
        self.cost = cost_model or CostModel()
        self.client_latency = client_latency
        self.ordering_delay = (ordering_delay if ordering_delay is not None
                               else 2 * client_latency)
        # one serial total-order point per replication group
        self._order_locks: List[Store] = []
        for _group in cluster.groups:
            lock = Store(env)
            lock.put(1)
            self._order_locks.append(lock)

    #: the shard tier has no request-resilience layer of its own: a
    #: transaction gets one attempt
    resilience = None

    @property
    def middleware(self):
        """Driver duck-typing: the connectable frontend is the shard
        tier itself."""
        return self.cluster

    # ------------------------------------------------------------------

    def timed_statement(self, session, sql: str, params):
        """Generator: one SQL string against the shard tier with
        simulated timing."""
        yield self.env.timeout(self.client_latency
                               + self.cost.middleware_cost())
        for statement, sql, params in self.cluster.statements.script(
                sql, params):
            if isinstance(statement, (ast.BeginStatement,
                                      ast.RollbackStatement)):
                session.execute_one_parsed(statement, sql, params)
                continue
            autocommit = not session.in_transaction
            # state change is instantaneous; the routing trace then tells
            # us exactly which groups did work, and we charge them
            session.execute_one_parsed(statement, sql, params)
            route = session.last_route
            if route is None:
                continue
            if isinstance(statement, ast.CommitStatement):
                if route.get("kind") == "commit":
                    yield from self._charge_commit(route.get("commit"))
                continue
            yield from self._charge_statement(analyze_cached(statement),
                                              route)
            if route["write"] and autocommit:
                # an implicit commit ran inside the statement (either the
                # group session's autocommit or the router's implicit
                # multi-shard 2PC); the route note carries the mode
                commit = route.get("commit")
                if commit is None:
                    commit = {"mode": "fast",
                              "groups": list(route.get("targets") or ())}
                yield from self._charge_commit(commit)

    def _charge_statement(self, info, route: dict):
        service = self.cost.statement_cost(info)
        targets = route.get("targets") or ()
        if not route["write"] and len(targets) > 1:
            # scatter-gather: shards run in parallel, the coordinator
            # pays a merge term per extra partial result
            service += self.cost.middleware_cost() * (len(targets) - 1)
        yield self.env.timeout(service)

    def _charge_commit(self, commit: Optional[dict]):
        if not commit or not commit.get("groups"):
            return
        groups = commit["groups"]
        round_cost = self.ordering_delay + self.cost.certification
        if commit.get("mode") == "2pc":
            # prepare: every participant's ordering point, in parallel
            tasks = [self.env.process(self._ordered_round(g, round_cost))
                     for g in groups]
            yield self.env.all_of(tasks)
            # decision record + second (commit) round per participant
            yield self.env.timeout(self.cost.middleware_cost())
            tasks = [self.env.process(
                self._ordered_round(g, self.cost.commit_io))
                for g in groups]
            yield self.env.all_of(tasks)
            return
        # single-shard fast path: one group's ordinary pipeline
        yield from self._ordered_round(groups[0],
                                       round_cost + self.cost.commit_io)

    def _ordered_round(self, group_index: int, service: float):
        lock = self._order_locks[group_index]
        yield lock.get()
        try:
            yield self.env.timeout(service)
        finally:
            lock.put(1)


class LagProbe:
    """Samples per-replica apply lag over time (E07)."""

    def __init__(self, env: Environment,
                 middleware: ReplicationMiddleware,
                 interval: float = 0.5):
        self.env = env
        self.middleware = middleware
        self.interval = interval
        self.series: Dict[str, TimeSeries] = {
            r.name: TimeSeries(r.name) for r in middleware.replicas
        }
        self._running = True
        env.process(self._probe(), name="lag_probe")

    def _probe(self):
        while self._running:
            head = self.middleware.global_seq
            for replica in self.middleware.replicas:
                self.series[replica.name].add(
                    self.env.now, replica.lag_behind(head))
            yield self.env.timeout(self.interval)

    def stop(self) -> None:
        self._running = False
