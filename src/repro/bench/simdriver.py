"""The timed execution layer: runs *real* middleware SQL under the
discrete-event simulator, charging service times from the cost model.

Design: state changes (the actual SQL against the in-memory engines) are
instantaneous; what the simulation adds is *where the time goes* — replica
CPU queueing, total-order rounds, certification, asynchronous apply
workers.  The driver first makes the routing decision through the same
middleware code the synchronous path uses, charges the simulated cost on
the chosen node(s), then executes the statement with a routing override so
the middleware's state change lands on the replica that was charged.
"""

from __future__ import annotations

import random
from typing import Dict, List, Optional, Tuple

from ..cluster.nodes import NodeDown
from ..cluster.sim import Environment, Store
from ..core.admission import AdmissionGate
from ..core.analysis import analyze_cached
from ..core.applysched import conflict_groups, lane_makespan
from ..core.costmodel import CostModel
from ..core.loadbalancer import RoutingContext
from ..core.middleware import MiddlewareSession, ReplicationMiddleware
from ..metrics.perf import LatencyRecorder, ThroughputMeter, TimeSeries
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

    def __init__(self, env: Environment,
                 middleware: ReplicationMiddleware,
                 cost_model: Optional[CostModel] = None,
                 client_latency: float = 0.0003,
                 ordering_delay: Optional[float] = None,
                 apply_parallelism: int = 1,
                 cold_read_penalty: float = 0.0,
                 group_commit_window: float = 0.0,
                 group_commit_max: int = 64,
                 dependency_apply: bool = False,
                 apply_drain_batch: int = 16,
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
        # within ``group_commit_window`` seconds join one certifier batch
        # and one propagation frame per replica (0 = per-transaction).
        self.group_commit_window = group_commit_window
        self.group_commit_max = max(1, group_commit_max)
        # Dependency-parallel apply: drain up to ``apply_drain_batch``
        # queued items, partition by footprint overlap and run the
        # non-conflicting groups on ``apply_parallelism`` lanes.
        self.dependency_apply = dependency_apply
        self.apply_drain_batch = max(1, apply_drain_batch)
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
                peek = (self.apply_drain_batch if self.dependency_apply
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

    def run_transaction(self, session: MiddlewareSession, spec: TxnSpec):
        """Generator: execute ``spec`` with simulated timing.  Returns
        (latency_seconds, ok, error_kind)."""
        start = self.env.now
        try:
            if len(spec.statements) == 1:
                sql, params = spec.statements[0]
                yield from self._timed_statement(session, sql, params)
            else:
                yield from self._timed_statement(session, "BEGIN", [])
                for sql, params in spec.statements:
                    yield from self._timed_statement(session, sql, params)
                yield from self._timed_statement(session, "COMMIT", [])
            return (self.env.now - start, True, "")
        except Exception as exc:  # noqa: BLE001 — abort accounting
            try:
                session.execute("ROLLBACK")
            except Exception:  # noqa: BLE001
                pass
            return (self.env.now - start, False, type(exc).__name__)

    def _timed_statement(self, session: MiddlewareSession, sql: str,
                         params: list):
        """One SQL string with simulated timing.  Inside a traced request
        (the driver set ``session.trace_context``, e.g. the chaos
        harness) the whole charge window runs under a ``timed.statement``
        span, and middleware spans nest beneath it."""
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
        middleware = self.middleware
        yield from self._wait_for_freshness(session)
        replica = middleware.choose_read_replica(session, info)
        if replica.node is not None:
            service = self.cost.statement_cost(info)
            if self.cold_read_penalty > 0:
                tables = info.sorted_tables()
                hotness = replica.hotness(tables) if tables else 1.0
                service *= 1.0 + self.cold_read_penalty * (1.0 - hotness)
            yield from replica.node.execute(service, io_fraction=0.1)
        session.route_override = replica.name
        try:
            session.execute_one_parsed(statement, sql, params)
        finally:
            session.route_override = None

    def _timed_write(self, session, statement, info, sql, params):
        middleware = self.middleware
        config = middleware.config
        statement_cost = self.cost.statement_cost(info)
        autocommit = not session.in_transaction
        if config.replication == "statement" \
                and config.consistency.write_mode != "master":
            # total order + parallel execution at every online replica
            yield self.env.timeout(self.ordering_delay)
            tasks = []
            for replica in middleware.online_replicas():
                if replica.node is not None:
                    tasks.append(self.env.process(replica.node.execute(
                        statement_cost, io_fraction=self.cost.io_fraction)))
            if tasks:
                yield self.env.all_of(tasks)
                yield self.env.timeout(self.ACK_PROCESSING * len(tasks))
            if autocommit:
                yield from self._charge_statement_commit()
            session.execute_one_parsed(statement, sql, params)
            return
        # writeset / master mode: execute at the local replica only
        replica = self._local_write_replica(session, info)
        if replica is not None and replica.node is not None:
            yield from replica.node.execute(
                statement_cost, io_fraction=self.cost.io_fraction)
        if autocommit and replica is not None \
                and self.group_commit_window > 0 and not info.is_ddl \
                and config.replication == "writeset":
            # the autocommit write's commit joins the current gather; the
            # batch leader runs the state change at flush time
            def work():
                session.write_override = replica.name
                try:
                    session.execute_one_parsed(statement, sql, params)
                finally:
                    session.write_override = None
            yield from self._group_commit_run(session, replica, work)
            return
        if autocommit and replica is not None:
            yield from self._charge_writeset_commit(replica)
        if replica is not None:
            session.write_override = replica.name
        try:
            session.execute_one_parsed(statement, sql, params)
        finally:
            session.write_override = None

    # Middleware-side per-replica acknowledgement processing: collecting N
    # replies serializes at the coordinator, so broadcast cost grows
    # (slightly) with the cluster size even when replicas run in parallel.
    ACK_PROCESSING = 0.00008

    def _charge_statement_commit(self):
        """Commit IO forced in parallel at every replica (statement mode),
        plus coordinator-side acknowledgement collection."""
        tasks = []
        online = self.middleware.online_replicas()
        for replica in online:
            if replica.node is not None:
                tasks.append(self.env.process(replica.node.execute(
                    self.cost.commit_io, io_fraction=0.9)))
        if tasks:
            yield self.env.all_of(tasks)
        yield self.env.timeout(self.ACK_PROCESSING * len(online))

    def _coordinator_replicated(self) -> bool:
        """A replicated certifier and HA state shipping (repro.ha) both
        add one synchronous coordinator round-trip to every commit —
        the price of losing nothing on failover (E09 / E26)."""
        middleware = self.middleware
        ha = middleware.ha
        return middleware.certifier.replicated \
            or (ha is not None and ha.standby_name is not None)

    def _charge_writeset_commit(self, local):
        """Certification round, pending-prefix catch-up, local commit IO,
        and (under synchronous propagation) the remote applies."""
        middleware = self.middleware
        certification_rounds = 2 if self._coordinator_replicated() else 1
        yield from self._charge_certification(
            self.ordering_delay * certification_rounds
            + self.cost.certification)
        if local.node is not None:
            pending = len(local.apply_queue)
            if pending:
                yield from local.node.execute(
                    self.cost.writeset_apply * pending,
                    io_fraction=self.cost.io_fraction)
            yield from local.node.execute(self.cost.commit_io,
                                          io_fraction=0.9)
        if middleware.config.propagation == "sync":
            tasks = []
            for replica in middleware.online_replicas():
                if replica.name != local.name and replica.node is not None:
                    tasks.append(self.env.process(replica.node.execute(
                        self.cost.writeset_apply,
                        io_fraction=self.cost.io_fraction)))
            if tasks:
                yield self.env.all_of(tasks)

    def _charge_certification(self, service: float):
        """The ordering round + certification check.  When the serial
        total-order point is modeled, the whole round holds the certifier
        exclusively — concurrent commits queue behind it."""
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
        inside ``middleware.group_commit.batch()`` — one certifier batch,
        one propagation frame per replica.  Members park on a signal and
        re-raise their own outcome (e.g. a certification abort)."""
        gather = self._gc_current
        if gather is not None and not gather.closed \
                and len(gather.members) < self.group_commit_max:
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
            with middleware.group_commit.batch():
                for member in gather.members:
                    try:
                        member.work()
                    except Exception as exc:  # noqa: BLE001 — per-member outcome
                        member.error = exc
            yield from self._charge_group_postcommit()
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
        certification_rounds = 2 if self._coordinator_replicated() else 1
        yield from self._charge_certification(
            self.ordering_delay * certification_rounds
            + cost.certification
            + cost.certify_txn_cpu * (len(members) - 1))
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

    def _charge_group_postcommit(self):
        """Charge the frames the flush applied synchronously (all of them
        under sync propagation; under async, only the origins' prefix
        frames) with the dependency-parallel apply cost; async
        destinations pay in their own apply workers instead."""
        flush = self.middleware.group_commit.last_flush
        self.middleware.group_commit.last_flush = None
        if not flush:
            return
        tasks = []
        for name in flush["sync"]:
            units = flush["frames"].get(name)
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

    def _wait_for_freshness(self, session, max_wait: float = 2.0):
        """Freshness waits cost real (simulated) time: when no replica is
        eligible for this session's reads, wait for the apply workers to
        advance instead of draining queues for free.  Falls through after
        ``max_wait`` (the synchronous drain then models a forced sync)."""
        middleware = self.middleware
        protocol = middleware.config.consistency
        if session.pinned_replica is not None or session.in_transaction:
            return
        deadline = self.env.now + max_wait
        while self.env.now < deadline:
            cluster_view = middleware.cluster_view()
            eligible = any(
                protocol.read_eligible(r, session.view, cluster_view)
                for r in middleware.online_replicas()
            )
            if eligible:
                return
            middleware.stats["freshness_waits"] += 1
            yield self.env.timeout(0.002)

    def _local_write_replica(self, session, info):
        middleware = self.middleware
        if session._local_replica is not None:
            return middleware.replica_by_name(session._local_replica)
        if middleware.config.consistency.write_mode == "master":
            return middleware.master
        context = RoutingContext(tables=sorted(info.all_tables()),
                                 session_id=session.id, is_write=True)
        return middleware.config.balancer.choose(
            middleware.online_replicas(), context)

    def _timed_commit(self, session, statement, sql, params):
        middleware = self.middleware
        config = middleware.config
        if not session.in_transaction:
            return
        was_write = session._txn_is_write
        if was_write and config.replication == "statement" \
                and config.consistency.write_mode != "master":
            yield from self._charge_statement_commit()
        elif was_write:
            local_name = session._local_replica
            local = (middleware.replica_by_name(local_name)
                     if local_name else middleware.master)
            if self.group_commit_window > 0 \
                    and config.replication == "writeset":
                yield from self._group_commit_run(
                    session, local,
                    lambda: session.execute_one_parsed(statement, sql,
                                                       params))
                return
            yield from self._charge_writeset_commit(local)
        session.execute_one_parsed(statement, sql, params)


# ---------------------------------------------------------------------------
# load drivers
# ---------------------------------------------------------------------------

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


class ClosedLoopDriver:
    """N clients, each running transactions back-to-back with optional
    think time — the classic (criticized) academic load shape."""

    def __init__(self, cluster: TimedCluster, workload: Workload,
                 clients: int = 8, think_time: float = 0.0,
                 seed: int = 31, database: str = "shop",
                 retry_backoff: float = 0.05):
        self.cluster = cluster
        self.workload = workload
        self.clients = clients
        self.think_time = think_time
        self.seed = seed
        self.database = database
        # real clients back off after an error instead of hammering a
        # half-failed cluster
        self.retry_backoff = retry_backoff
        self.metrics = RunMetrics(cluster.env)

    def start(self, duration: float) -> None:
        env = self.cluster.env
        deadline = env.now + duration
        for client in range(self.clients):
            env.process(self._client_loop(client, deadline),
                        name=f"client{client}")

    def _client_loop(self, client_id: int, deadline: float):
        env = self.cluster.env
        rng = random.Random(self.seed + client_id * 101)
        session = self.cluster.middleware.connect(database=self.database)
        while env.now < deadline:
            spec = self.workload.next_transaction(rng)
            outcome = yield from self.cluster.run_transaction(session, spec)
            latency, ok, error_kind = outcome
            self.metrics.note(spec, latency, ok, error_kind)
            if not ok and self.retry_backoff > 0:
                yield env.timeout(self.retry_backoff)
            if session.closed:
                # middleware died under us: reconnect when it returns
                try:
                    session = self.cluster.middleware.connect(
                        database=self.database)
                except Exception:  # noqa: BLE001
                    yield env.timeout(0.5)
                    continue
            if self.think_time > 0:
                yield env.timeout(self.think_time)
        session.close()


class OpenLoopDriver:
    """Poisson arrivals at a fixed rate, independent of completions — the
    non-closed-loop generator the paper's agenda calls for (section 5.1).
    Under overload, latency grows without bound instead of the generator
    politely slowing down."""

    def __init__(self, cluster: TimedCluster, workload: Workload,
                 rate_tps: float = 100.0, seed: int = 37,
                 database: str = "shop", max_sessions: int = 256):
        self.cluster = cluster
        self.workload = workload
        self.rate = rate_tps
        self.seed = seed
        self.database = database
        self.max_sessions = max_sessions
        self.metrics = RunMetrics(cluster.env)
        self._free_sessions: List[MiddlewareSession] = []
        self._session_count = 0
        self.dropped_arrivals = 0

    def start(self, duration: float) -> None:
        self.cluster.env.process(self._arrivals(duration), name="arrivals")

    def _arrivals(self, duration: float):
        env = self.cluster.env
        rng = random.Random(self.seed)
        deadline = env.now + duration
        while env.now < deadline:
            yield env.timeout(rng.expovariate(self.rate))
            spec = self.workload.next_transaction(rng)
            session = self._acquire_session()
            if session is None:
                self.dropped_arrivals += 1
                continue
            env.process(self._one_transaction(session, spec))

    def _acquire_session(self) -> Optional[MiddlewareSession]:
        while self._free_sessions:
            session = self._free_sessions.pop()
            if not session.closed:
                return session
        if self._session_count >= self.max_sessions:
            return None
        try:
            session = self.cluster.middleware.connect(database=self.database)
        except Exception:  # noqa: BLE001 — middleware down
            return None
        self._session_count += 1
        return session

    def _one_transaction(self, session: MiddlewareSession, spec: TxnSpec):
        outcome = yield from self.cluster.run_transaction(session, spec)
        latency, ok, error_kind = outcome
        self.metrics.note(spec, latency, ok, error_kind)
        if not session.closed:
            self._free_sessions.append(session)
        else:
            self._session_count -= 1


class SessionArrivalDriver:
    """The million-user open-loop tier (ROADMAP item 4): *sessions*
    arrive per a :class:`RateCurve` (non-homogeneous Poisson, thinning),
    each runs a short Zipf-popular transaction sequence with think gaps,
    and an optional :class:`AdmissionGate` sheds excess arrivals at the
    door with labeled reasons.

    Unlike :class:`OpenLoopDriver`'s fixed-rate transaction stream, the
    unit of arrival is a session — the thing a flash crowd multiplies —
    and there is no pool cap: arrivals never politely wait.  Goodput
    accounting models impatient clients: a transaction that completes
    after ``txn_deadline`` simulated seconds still consumed server time
    (and an acked commit stays durable) but does not count as goodput —
    exactly the overload mode where shedding beats queueing.
    """

    def __init__(self, cluster: TimedCluster, workload: OpenLoopWorkload,
                 curve: RateCurve, seed: int = 41, database: str = "shop",
                 admission: Optional[AdmissionGate] = None,
                 txn_deadline: float = 0.75,
                 session_limit: int = 0):
        self.cluster = cluster
        self.workload = workload
        self.curve = curve
        self.seed = seed
        self.database = database
        self.gate = admission
        self.txn_deadline = txn_deadline
        self.session_limit = session_limit
        self.metrics = RunMetrics(cluster.env)
        self._pool: List[MiddlewareSession] = []
        self.peak_concurrency = 0
        self._active = 0
        # goodput / overload accounting
        self.sessions_arrived = 0
        self.sessions_completed = 0
        self.sessions_shed = 0
        self.shed_txns = 0
        self.goodput = 0
        self.deadline_misses = 0
        self.acked_commits = 0
        self.txns_issued = 0

    def start(self, duration: float) -> None:
        self.cluster.env.process(self._arrivals(duration),
                                 name="session_arrivals")

    def _arrivals(self, duration: float):
        env = self.cluster.env
        rng = random.Random(self.seed)
        start = env.now
        last = start
        for offset in arrival_times(self.curve, duration, rng,
                                    limit=self.session_limit):
            target = start + offset
            if target > last:
                yield env.timeout(target - last)
                last = target
            self.sessions_arrived += 1
            # independent per-session stream: workload content stays
            # identical across admission arms with the same seed
            session_rng = random.Random(
                (self.seed * 1_000_003) ^ (self.sessions_arrived * 2654435761))
            env.process(self._session(session_rng))

    def _session(self, rng: random.Random):
        env = self.cluster.env
        count = self.workload.session_length(rng)
        session = self._acquire_session()
        if session is None:
            self.metrics.errors["connect"] = \
                self.metrics.errors.get("connect", 0) + 1
            return
        self._active += 1
        if self._active > self.peak_concurrency:
            self.peak_concurrency = self._active
        try:
            for index in range(count):
                spec = self.workload.next_transaction(rng)
                kind = "read" if spec.is_read_only else "commit"
                ticket = None
                if self.gate is not None:
                    ticket, _reason = self.gate.try_admit(kind)
                    if ticket is None:
                        # a shed user goes away, not into a retry storm
                        self.shed_txns += 1
                        self.sessions_shed += 1
                        return
                self.txns_issued += 1
                outcome = yield from self.cluster.run_transaction(
                    session, spec)
                latency, ok, error_kind = outcome
                self.metrics.note(spec, latency, ok, error_kind)
                if ok and kind == "commit":
                    # the middleware acknowledged a durable commit — from
                    # here on it must never be shed or lost
                    self.acked_commits += 1
                    if ticket is not None:
                        ticket.ack()
                if ticket is not None:
                    ticket.finish(ok)
                if ok and latency <= self.txn_deadline:
                    self.goodput += 1
                elif ok:
                    self.deadline_misses += 1
                if not ok:
                    return
                if index + 1 < count:
                    yield env.timeout(self.workload.think_time(rng))
            self.sessions_completed += 1
        finally:
            self._active -= 1
            self._release_session(session)

    def _acquire_session(self) -> Optional[MiddlewareSession]:
        while self._pool:
            session = self._pool.pop()
            if not session.closed:
                return session
        try:
            return self.cluster.middleware.connect(database=self.database)
        except Exception:  # noqa: BLE001 — middleware down
            return None

    def _release_session(self, session: MiddlewareSession) -> None:
        if not session.closed:
            self._pool.append(session)

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
    simulation environment, duck-typing what the load drivers need
    (``env``, ``middleware.connect``, ``run_transaction``) so
    :class:`ClosedLoopDriver` and :class:`SessionArrivalDriver` drive the
    shard tier unchanged (E29 rides E28's open-loop session tier).

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

    @property
    def middleware(self):
        """Driver duck-typing: the connectable frontend is the shard
        tier itself."""
        return self.cluster

    # ------------------------------------------------------------------

    def run_transaction(self, session, spec: TxnSpec):
        """Generator: execute ``spec`` against the shard tier with
        simulated timing.  Returns (latency_seconds, ok, error_kind)."""
        start = self.env.now
        try:
            if len(spec.statements) == 1:
                sql, params = spec.statements[0]
                yield from self._timed_statement(session, sql, params)
            else:
                yield from self._timed_statement(session, "BEGIN", [])
                for sql, params in spec.statements:
                    yield from self._timed_statement(session, sql, params)
                yield from self._timed_statement(session, "COMMIT", [])
            return (self.env.now - start, True, "")
        except Exception as exc:  # noqa: BLE001 — abort accounting
            try:
                session.rollback()
            except Exception:  # noqa: BLE001
                pass
            return (self.env.now - start, False, type(exc).__name__)

    def _timed_statement(self, session, sql: str, params: list):
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
