"""Randomized chaos harness: seeded fault schedules against open-loop
load, with invariant checking (benchmark E22).

Section 5.1 of the paper calls for benchmarks that "integrate fault
injection or management operations" and measure "performance in the
presence of failures, performance of degraded modes".  This harness is
that benchmark: it drives the *same* seeded fault schedule (crashes with
repair, flapping nodes — see :func:`repro.cluster.failures.random_schedule`)
against a middleware cluster twice — once bare, once with a
:class:`~repro.core.resilience.ResiliencePolicy` — under identical
open-loop Poisson load, and reports goodput, client-visible error rate
and MTTR for both.

After every run three invariants are checked:

* **no lost acked commits** — every write the client saw succeed is
  present on every replica once the cluster has healed (under 2-safe
  synchronous propagation this must hold by construction);
* **no divergence** — all replicas converge to identical content
  signatures after repair + failback + drain;
* **bounded resolution** — every admitted request resolves (success or
  error) and, when a deadline is configured, within deadline + ε, where
  ε covers one freshness wait plus one in-flight service charge.

Two-level retry design (the repo-wide convention: state changes are
instantaneous, time is charged separately): the in-session resilience
layer (:mod:`repro.core.resilience`) retries instantly when an
alternative replica exists *right now* and accumulates its backoff in
``pending_backoff``; this harness charges that backoff as simulated time
and owns the *timed* retries — the ones that only succeed because
simulated time passes (a new master gets promoted, a crashed node
repairs).  ``NodeDown`` surfaces only here, because only the timed layer
charges service time on nodes.
"""

from __future__ import annotations

import random
from typing import Dict, List, Optional, Set

from ..cluster.failures import FaultInjector, random_schedule
from ..cluster.nodes import NodeDown
from ..cluster.sim import Environment
from ..core.errors import (
    RETRY_AFTER_FAILOVER, RETRY_SAFE, MiddlewareDown, Overloaded,
    RequestTimeout, RetryExhausted, retry_label,
)
from ..core.failover import FailoverManager, VirtualIP
from ..core.middleware import ReplicationMiddleware
from ..core.replica import ReplicaState
from ..core.resilience import ResiliencePolicy, RetryPolicy
from ..ha import HAPair, cold_restart, cold_restart_duration
from ..metrics.availability import AvailabilityTracker
from .harness import build_cluster
from .simdriver import TimedCluster

DATABASE = "shop"

#: resolution-bound slack: one freshness wait (max 2.0 s in the timed
#: driver) plus one in-flight service/commit charge
RESOLUTION_EPSILON = 2.5


class ChaosConfig:
    """One chaos experiment: cluster shape, load, faults, resilience."""

    def __init__(self,
                 replicas: int = 3,
                 seed: int = 1,
                 duration: float = 60.0,
                 rate_tps: float = 40.0,
                 read_fraction: float = 0.7,
                 txn_write_fraction: float = 0.4,
                 kv_rows: int = 50,
                 n_faults: int = 4,
                 fault_spec: Optional[dict] = None,
                 resilience: Optional[ResiliencePolicy] = None,
                 detection_delay: float = 0.5,
                 failback_delay: float = 0.5,
                 probe_interval: float = 0.25,
                 drain_grace: float = 30.0,
                 tracing: bool = True,
                 trace_retention: int = 2048,
                 middleware_kills: Optional[List[float]] = None,
                 ha_standby: bool = False,
                 mw_detection_delay: float = 0.3,
                 cold_restart_base: float = 0.5,
                 cold_restart_per_replica: float = 0.25):
        self.replicas = replicas
        self.seed = seed
        self.duration = duration
        self.rate_tps = rate_tps
        self.read_fraction = read_fraction
        # fraction of writes that run as a multi-statement transaction
        # (exercises transaction replay on a survivor)
        self.txn_write_fraction = txn_write_fraction
        self.kv_rows = kv_rows
        self.n_faults = n_faults
        self.fault_spec = fault_spec
        self.resilience = resilience
        # how long the "failure detector" takes before failover reacts
        self.detection_delay = detection_delay
        self.failback_delay = failback_delay
        self.probe_interval = probe_interval
        # extra simulated time after the load stops for in-flight
        # requests and repairs to resolve
        self.drain_grace = drain_grace
        # per-request tracing (repro.obs): every client request gets a
        # root span; retention is raised above the middleware default so
        # a whole run's requests survive for fault-timeline analysis
        self.tracing = tracing
        self.trace_retention = trace_retention
        # middleware-tier faults (E26): simulated times at which the
        # *active* middleware process is killed.  With ``ha_standby`` a
        # fenced promotion follows after ``mw_detection_delay``; without
        # one, a cold state-retrieval restart is charged via
        # :func:`repro.ha.promotion.cold_restart_duration`.
        self.middleware_kills = middleware_kills
        self.ha_standby = ha_standby
        self.mw_detection_delay = mw_detection_delay
        self.cold_restart_base = cold_restart_base
        self.cold_restart_per_replica = cold_restart_per_replica

    def resolved_fault_spec(self, node_names: List[str]) -> dict:
        if self.fault_spec is not None:
            return self.fault_spec
        return random_schedule(node_names, seed=self.seed,
                               horizon=self.duration,
                               n_faults=self.n_faults)


class RequestRecord:
    """One client request's fate."""

    __slots__ = ("id", "kind", "start", "end", "ok", "error", "write_id",
                 "trace_id")

    def __init__(self, id: int, kind: str, start: float,
                 write_id: Optional[int] = None):
        self.id = id
        self.kind = kind            # "read" | "write" | "txn"
        self.start = start
        self.end: Optional[float] = None
        self.ok = False
        self.error = ""
        self.write_id = write_id    # unique id INSERTed by this request
        self.trace_id: Optional[int] = None  # the request's trace

    @property
    def resolved(self) -> bool:
        return self.end is not None

    @property
    def latency(self) -> float:
        return (self.end if self.end is not None else float("inf")) - self.start


class ChaosResult:
    """Everything one chaos run produced."""

    def __init__(self, config: ChaosConfig):
        self.config = config
        self.records: List[RequestRecord] = []
        self.acked_ids: Set[int] = set()
        self.shed = 0
        self.fault_spec: Optional[dict] = None
        self.fault_events: List = []
        self.invariants: Dict[str, bool] = {}
        self.violations: List[str] = []
        self.mttr = 0.0
        self.availability = 1.0
        self.elapsed = 0.0
        self.resilience_stats: Dict[str, int] = {}
        self.middleware_stats: Dict[str, float] = {}
        # retained span traces (list of span lists) + tracer counters,
        # captured at run end for fault-timeline reconstruction (E25)
        self.traces: List[list] = []
        self.trace_stats: Dict[str, int] = {}
        # middleware-tier fault timeline (E26)
        self.mw_kills: List[float] = []
        self.mw_recoveries: List[float] = []
        self.promotions = 0
        self.dedup_commits = 0

    # -- headline numbers ----------------------------------------------------

    @property
    def total_requests(self) -> int:
        return len(self.records)

    @property
    def succeeded(self) -> int:
        return sum(1 for r in self.records if r.ok)

    @property
    def failed(self) -> int:
        return sum(1 for r in self.records if r.resolved and not r.ok)

    def goodput(self) -> float:
        if self.elapsed <= 0:
            return 0.0
        return self.succeeded / self.elapsed

    def error_rate(self) -> float:
        if not self.records:
            return 0.0
        return self.failed / len(self.records)

    def errors_by_kind(self) -> Dict[str, int]:
        kinds: Dict[str, int] = {}
        for record in self.records:
            if record.resolved and not record.ok:
                kinds[record.error] = kinds.get(record.error, 0) + 1
        return kinds

    @property
    def all_invariants_hold(self) -> bool:
        return bool(self.invariants) and all(self.invariants.values())


class ChaosRun:
    """Drives one seeded chaos experiment to completion."""

    def __init__(self, config: ChaosConfig):
        self.config = config
        self.env = Environment()
        self._mw = build_cluster(
            config.replicas, replication="writeset", consistency="rsi-pc",
            propagation="sync", env=self.env, resilience=config.resilience,
            name="chaos")
        self.pair: Optional[HAPair] = None
        self.cluster = TimedCluster(self.env, self.middleware)
        self.middleware.tracer.enabled = config.tracing
        self.middleware.tracer.max_traces = config.trace_retention
        self.result = ChaosResult(config)
        self.tracker = AvailabilityTracker(start_time=0.0)
        self._next_write_id = 0
        self._next_request = 0
        self._load_done = False
        self._setup_schema()
        if config.ha_standby:
            # built after the schema exists so the bootstrap transfer
            # ships the setup DDL's certifier/recovery state too
            self.pair = HAPair(self._mw)
            self.pair.on_switch(self._middleware_switched)
        self.manager = FailoverManager(
            self.middleware, VirtualIP("vip", self.middleware.master.name))
        self._wire_failover_reaction()
        self.injector = FaultInjector(self.env, seed=config.seed)
        self.spec = config.resolved_fault_spec(
            [r.name for r in self.middleware.replicas])

    @property
    def middleware(self) -> ReplicationMiddleware:
        """The instance the virtual IP resolves to right now — the HA
        pair's active leader when a standby is configured."""
        return self.pair.active if self.pair is not None else self._mw

    def _middleware_switched(self, new_mw: ReplicationMiddleware) -> None:
        """Promotion happened: repoint the timed cluster and the replica
        failover manager at the new leader (replica callbacks are wired
        on the shared replica objects, so they follow automatically)."""
        new_mw.tracer.enabled = self.config.tracing
        new_mw.tracer.max_traces = self.config.trace_retention
        self.cluster.middleware = new_mw
        self.manager = FailoverManager(new_mw, self.manager.virtual_ip)

    # -- setup ---------------------------------------------------------------

    def _setup_schema(self) -> None:
        session = self.middleware.connect(database=DATABASE)
        session.execute("CREATE TABLE kv (k INT PRIMARY KEY, v INT)")
        session.execute(
            "CREATE TABLE chaos_log (id INT PRIMARY KEY, client INT)")
        for key in range(self.config.kv_rows):
            session.execute(f"INSERT INTO kv (k, v) VALUES ({key}, 0)")
        session.close()

    # -- failover / failback automation --------------------------------------

    def _wire_failover_reaction(self) -> None:
        """Automatic operator: promote on master failure (after a
        detection delay), fail a repaired replica back (after a resync
        delay), and promote on failback if the master is still dark."""
        for replica in self.middleware.replicas:
            replica.on_state_change(self._replica_changed)

    def _replica_changed(self, replica, state) -> None:
        if state is ReplicaState.FAILED:
            if self.middleware.master.name == replica.name:
                self.env.process(self._promotion(replica.name),
                                 name=f"promote:{replica.name}")
        elif state is ReplicaState.RECOVERING:
            self.env.process(self._failback(replica.name),
                             name=f"failback:{replica.name}")

    def _promotion(self, failed_name: str):
        yield self.env.timeout(self.config.detection_delay)
        master = self.middleware.master
        if master.name != failed_name or master.is_online:
            return  # already handled, or it came back
        self.manager.handle_replica_failure(failed_name)

    def _failback(self, name: str):
        yield self.env.timeout(self.config.failback_delay)
        replica = self.middleware.replica_by_name(name)
        if replica.state is not ReplicaState.RECOVERING:
            return  # crashed again (flapping) or already handled
        if replica.node is not None and not replica.node.up:
            return
        self.manager.failback(name)
        if not self.middleware.master.is_online:
            # the cluster was dark; the returning replica becomes master
            self.manager.handle_replica_failure(self.middleware.master.name)

    # -- middleware-tier faults (E26) ----------------------------------------

    def _middleware_faults(self):
        """Kill the active middleware at each scheduled time; recover it
        the way the configuration allows.  HA: after the detection
        delay, fenced promotion to the standby (instant hydration), then
        an operator rebuilds a fresh standby so later kills still have a
        target.  No standby: the process restarts cold, paying one
        state-retrieval scan per replica on top of the restart."""
        for kill_at in sorted(self.config.middleware_kills or []):
            delay = kill_at - self.env.now
            if delay > 0:
                yield self.env.timeout(delay)
            if self.pair is not None:
                self.pair.kill_active()
            else:
                self._mw.fail()
            self.result.mw_kills.append(self.env.now)
            yield self.env.timeout(self.config.mw_detection_delay)
            if self.pair is not None:
                self.pair.promote()
                self.result.promotions += 1
                # operator rebuilds a standby behind the new leader; the
                # bootstrap transfer is state-copy only (instantaneous —
                # it does not block the already-promoted leader)
                self.pair = HAPair(self.middleware)
                self.pair.on_switch(self._middleware_switched)
            else:
                yield self.env.timeout(cold_restart_duration(
                    len(self._mw.replicas),
                    base=self.config.cold_restart_base,
                    per_replica=self.config.cold_restart_per_replica))
                cold_restart(self._mw)
            self.result.mw_recoveries.append(self.env.now)

    # -- load ----------------------------------------------------------------

    def _arrivals(self):
        env = self.env
        rng = random.Random(self.config.seed * 977 + 13)
        deadline = env.now + self.config.duration
        while env.now < deadline:
            yield env.timeout(rng.expovariate(self.config.rate_tps))
            record = self._make_request(rng)
            env.process(self._run_request(record),
                        name=f"req{record.id}")
        self._load_done = True

    def _make_request(self, rng: random.Random) -> RequestRecord:
        request_id = self._next_request
        self._next_request += 1
        if rng.random() < self.config.read_fraction:
            record = RequestRecord(request_id, "read", self.env.now)
        else:
            self._next_write_id += 1
            kind = ("txn" if rng.random() < self.config.txn_write_fraction
                    else "write")
            record = RequestRecord(request_id, kind, self.env.now,
                                   write_id=self._next_write_id)
        self.result.records.append(record)
        return record

    def _request_sql(self, record: RequestRecord,
                     rng: random.Random) -> List[str]:
        key = rng.randrange(self.config.kv_rows)
        if record.kind == "read":
            return [f"SELECT v FROM kv WHERE k = {key}"]
        insert = (f"INSERT INTO chaos_log (id, client) "
                  f"VALUES ({record.write_id}, {record.id})")
        if record.kind == "write":
            return [insert]
        return ["BEGIN", insert,
                f"UPDATE kv SET v = v + 1 WHERE k = {key}", "COMMIT"]

    # -- the resilient timed request loop ------------------------------------

    def _run_request(self, record: RequestRecord):
        resilience = self.middleware.resilience
        rng = random.Random(self.config.seed * 31 + record.id)
        statements = self._request_sql(record, rng)
        is_write = record.kind != "read"

        # One root span per client request; child spans (timed.statement,
        # mw.statement, ...) hang off it via session.trace_context.
        root = self.middleware.tracer.start_span(
            "request", kind=record.kind, request=record.id)
        if root:
            record.trace_id = root.trace_id

        session = None
        ticket = None
        try:
            if resilience is not None:
                ticket, _reason = resilience.admission.try_admit(
                    "commit" if is_write else "read")
                if ticket is None:
                    self.result.shed += 1
                    root.event("admission_shed")
                    self._resolve(record, ok=False, error="Overloaded")
                    return
            try:
                session = self.middleware.connect(database=DATABASE)
            except Exception as exc:  # noqa: BLE001 — middleware down
                self._resolve(record, ok=False, error=type(exc).__name__)
                return
            deadline = (resilience.deadline() if resilience is not None
                        else None)
            self._prepare_session(session, record, root, deadline)

            retry = (resilience.policy.retry if resilience is not None
                     else RetryPolicy(max_attempts=1))
            attempt = 1
            while True:
                if attempt > 1 and is_write \
                        and self._ledger_committed(record):
                    # exactly-once replay: the ledger proves the earlier
                    # attempt's commit landed — answer success without
                    # re-applying anything (repro.ha)
                    root.event("ha.dedup", txn=self._txn_key(record))
                    self.result.dedup_commits += 1
                    self._resolve(record, ok=True)
                    return
                try:
                    for sql in statements:
                        yield from self.cluster._timed_statement(
                            session, sql, [])
                        yield from self._charge_backoff(resilience, root)
                    self._resolve(record, ok=True)
                    return
                except (RequestTimeout, Overloaded) as exc:
                    self._abort_quietly(session)
                    self._resolve(record, ok=False,
                                  error=type(exc).__name__)
                    return
                except Exception as exc:  # noqa: BLE001 — by its label
                    self._abort_quietly(session)
                    ambiguous = isinstance(exc, RetryExhausted) \
                        and exc.ambiguous
                    if resilience is None or not (
                            ambiguous or self._timed_retryable(exc)):
                        self._resolve(record, ok=False,
                                      error=type(exc).__name__)
                        return
                    yield from self._charge_backoff(resilience, root)
                    # A commit ledger turns 'ambiguous' into 'resolvable':
                    # COMMITTED dedups on replay, PENDING is settled at
                    # promotion, and a commit that never reached prepare
                    # is provably un-applied — so keep retrying.
                    if ambiguous and not (is_write and
                                          self.middleware.ha is not None):
                        self._resolve(record, ok=False,
                                      error=type(exc).__name__)
                        return
                    # With a deadline, the deadline is the retry budget:
                    # keep backing off in simulated time (so the cluster
                    # can repair/promote underneath us) until it would
                    # expire.  Without one, the attempt cap bounds us.
                    if deadline is None and retry.spent(attempt):
                        self._resolve(record, ok=False,
                                      error=type(exc).__name__)
                        return
                    backoff = retry.backoff(attempt, key=record.id)
                    if deadline is not None \
                            and deadline.remaining() <= backoff:
                        self._resolve(record, ok=False,
                                      error="RequestTimeout")
                        return
                    root.event("backoff", duration=round(backoff, 9),
                               attempt=attempt, source="timed",
                               error=type(exc).__name__)
                    yield self.env.timeout(backoff)
                    attempt += 1
                    if session.closed \
                            or session.middleware is not self.middleware:
                        # the middleware died under us; re-resolve the
                        # virtual IP (the promoted standby or the
                        # restarted process) and check the commit ledger
                        # before replaying a write
                        try:
                            session = self.middleware.connect(
                                database=DATABASE)
                        except Exception:  # noqa: BLE001 — still down
                            continue  # next lap backs off again
                        self._prepare_session(session, record, root,
                                              deadline)
                        root.event("mw_reconnect",
                                   target=self.middleware.name)
        finally:
            if session is not None:
                session.deadline = None
                session.trace_context = None
                if not session.closed:
                    session.close()
            if ticket is not None:
                ticket.settle(record.ok)
            root.set_tag("ok", record.ok)
            if record.error:
                root.set_tag("error", record.error)
            root.end()

    @staticmethod
    def _timed_retryable(exc: Exception) -> bool:
        """May the timed layer go round again (resilient runs only)?
        What the error's label says, plus what only a harness knows:
        ``NodeDown`` is the simulator's broken connection, and a
        ``MiddlewareDown`` of *either* label is worth waiting out —
        simulated time passing is what fixes it (a standby is promoted,
        or this harness's operator completes the cold restart a
        ``fatal`` asks for) and the session reconnects through the VIP."""
        return isinstance(exc, (NodeDown, MiddlewareDown)) \
            or retry_label(exc) in (RETRY_SAFE, RETRY_AFTER_FAILOVER)

    def _charge_backoff(self, resilience, span=None):
        """Synchronous in-session retries accumulate their backoff; the
        timed layer charges it here as simulated delay.  The `backoff`
        event carries a `duration` attr because this is where the wait
        actually costs simulated time (breakdowns count it as a stage)."""
        if resilience is None:
            return
        delay = resilience.consume_backoff()
        if delay > 0:
            if span:
                span.event("backoff", duration=round(delay, 9),
                           source="resilience")
            yield self.env.timeout(delay)

    def _prepare_session(self, session, record: RequestRecord, root,
                         deadline) -> None:
        """Attach trace context, deadline and (for writes) the client
        transaction identity the exactly-once ledger keys on; the
        request's one admission ticket is ``_run_request``'s."""
        session.trace_context = root
        session.deadline = deadline
        session._admission_held = True
        if record.kind != "read":
            session.client_id = f"c{record.id}"
            session.client_txn_id = self._txn_key(record)

    @staticmethod
    def _txn_key(record: RequestRecord) -> str:
        return f"req{record.id}"

    def _ledger_committed(self, record: RequestRecord) -> bool:
        ha = self.middleware.ha
        return (ha is not None
                and ha.ledger.committed(self._txn_key(record)))

    def _abort_quietly(self, session) -> None:
        if session is None or session.closed:
            return
        try:
            session.execute("ROLLBACK")
        except Exception:  # noqa: BLE001
            pass

    def _resolve(self, record: RequestRecord, ok: bool,
                 error: str = "") -> None:
        record.end = self.env.now
        record.ok = ok
        record.error = error
        if ok and record.write_id is not None:
            self.result.acked_ids.add(record.write_id)

    # -- availability probe --------------------------------------------------

    def _probe(self):
        """A canary write on the instantaneous path drives the MTTR /
        availability timeline: the service is 'up' when a fresh client
        can commit a write right now."""
        probe_key = self.config.kv_rows  # a row the workload never touches
        session = self.middleware.connect(database=DATABASE)
        session._admission_held = True  # the canary is never shed
        session.execute(f"INSERT INTO kv (k, v) VALUES ({probe_key}, 0)")
        while not self._load_done:
            try:
                session.execute(
                    f"UPDATE kv SET v = v + 1 WHERE k = {probe_key}")
                self.tracker.service_up(self.env.now)
            except Exception:  # noqa: BLE001
                self.tracker.service_down(self.env.now)
                if session.closed:
                    try:
                        session = self.middleware.connect(database=DATABASE)
                        session._admission_held = True
                    except Exception:  # noqa: BLE001
                        pass
            yield self.env.timeout(self.config.probe_interval)
        session.close()

    # -- run + invariants ----------------------------------------------------

    def run(self) -> ChaosResult:
        config = self.config
        self.injector.schedule_from_spec(self.spec,
                                         [r.node for r in
                                          self.middleware.replicas
                                          if r.node is not None]
                                         or self.middleware.replicas)
        self.env.process(self._arrivals(), name="chaos_arrivals")
        self.env.process(self._probe(), name="chaos_probe")
        if config.middleware_kills:
            self.env.process(self._middleware_faults(), name="chaos_mw")
        self.env.run(until=config.duration + config.drain_grace)
        self.injector.stop()
        self.tracker.finish(min(self.env.now, config.duration))
        self.result.elapsed = config.duration
        self.result.mttr = self.tracker.mttr()
        self.result.availability = self.tracker.availability()
        self.result.fault_spec = self.spec
        self.result.fault_events = list(self.injector.events)
        if self.middleware.resilience is not None:
            self.result.resilience_stats = dict(
                self.middleware.resilience.stats)
        self.result.middleware_stats = dict(self.middleware.stats)
        self._heal_cluster()
        self.result.trace_stats = self.middleware.tracer.snapshot()
        self.result.traces = self.middleware.tracer.traces()
        self._check_invariants()
        return self.result

    def _heal_cluster(self) -> None:
        """Repair every node and fail every replica back, so the
        invariants are checked against a fully converged cluster."""
        if self.middleware.failed:
            # a kill scheduled too close to the end of the run; bring
            # the active instance back the slow way before checking
            cold_restart(self.middleware)
        for replica in self.middleware.replicas:
            if replica.node is not None and not replica.node.up:
                self.injector._repair(replica.node)
        for replica in self.middleware.replicas:
            if replica.state in (ReplicaState.FAILED,
                                 ReplicaState.RECOVERING):
                self.manager.failback(replica.name)
        if not self.middleware.master.is_online:
            self.manager.handle_replica_failure(self.middleware.master.name)
        self.middleware.drain_all()

    def _check_invariants(self) -> None:
        result = self.result
        # 1. no lost acked commits (2-safe: zero loss by construction)
        lost: Set[int] = set()
        for replica in self.middleware.replicas:
            present = self._log_ids(replica)
            lost |= result.acked_ids - present
        result.invariants["no_lost_acked_commits"] = not lost
        if lost:
            result.violations.append(
                f"{len(lost)} acked commit(s) missing from a replica "
                f"(e.g. ids {sorted(lost)[:5]})")
        # 2. no divergence after heal + drain
        signatures = set(self.middleware.content_signatures().values())
        result.invariants["no_divergence"] = len(signatures) == 1
        if len(signatures) > 1:
            result.violations.append(
                f"replicas diverged: {len(signatures)} distinct signatures")
        # 3. bounded resolution: every admitted request resolved, within
        # deadline + epsilon when a deadline was configured
        unresolved = [r for r in result.records if not r.resolved]
        bound = None
        policy = self.config.resilience
        if policy is not None and policy.request_timeout is not None:
            bound = policy.request_timeout + RESOLUTION_EPSILON
        overruns = []
        if bound is not None:
            overruns = [r for r in result.records
                        if r.resolved and r.latency > bound]
        result.invariants["bounded_resolution"] = (
            not unresolved and not overruns)
        if unresolved:
            result.violations.append(
                f"{len(unresolved)} request(s) never resolved")
        if overruns:
            worst = max(r.latency for r in overruns)
            result.violations.append(
                f"{len(overruns)} request(s) overran the {bound:.2f}s "
                f"resolution bound (worst {worst:.2f}s)")

    def _log_ids(self, replica) -> Set[int]:
        connection = replica.engine.connect("admin", "", database=DATABASE)
        try:
            result = connection.execute("SELECT id FROM chaos_log")
            return {row[0] for row in result.rows}
        finally:
            connection.close()


class GroupKillTrack:
    """Per-group middleware kill schedule for a composed sharded tier
    (E30): the E26 single-pair kill/promote/rebuild cycle, generalized
    so each shard group of a :class:`~repro.shard.router.ShardedCluster`
    can run its own fault track while the others stay up.

    At each scheduled time the track kills group ``index``'s active
    middleware, waits out the failure-detection delay, promotes the
    standby through the fenced path, and hands the router a freshly
    rebuilt pair (``attach_pair``) so later kills still have a target —
    exactly what an operator would do behind the virtual IP."""

    def __init__(self, env: Environment, cluster, index: int,
                 kill_times: List[float],
                 detection_delay: float = 0.3):
        if cluster.pairs[index] is None:
            raise ValueError(
                f"group {index} has no HA pair; a kill track needs one")
        self.env = env
        self.cluster = cluster
        self.index = index
        self.kill_times = sorted(kill_times)
        self.detection_delay = detection_delay
        self.kills: List[float] = []
        self.promotions: List[float] = []
        self.sessions_lost = 0

    def process(self):
        """The simulation process — ``env.process(track.process())``."""
        for kill_at in self.kill_times:
            delay = kill_at - self.env.now
            if delay > 0:
                yield self.env.timeout(delay)
            pair = self.cluster.pairs[self.index]
            self.sessions_lost += pair.kill_active()
            self.kills.append(self.env.now)
            yield self.env.timeout(self.detection_delay)
            pair.promote()
            self.promotions.append(self.env.now)
            # operator rebuilds a standby behind the new leader; the
            # bootstrap transfer is state-copy only (instantaneous — it
            # does not block the already-promoted leader)
            self.cluster.attach_pair(
                self.index, HAPair(self.cluster.groups[self.index]))


def run_chaos(config: ChaosConfig) -> ChaosResult:
    """Run one seeded chaos experiment and return its result."""
    return ChaosRun(config).run()


def default_resilience_policy(seed: int = 0) -> ResiliencePolicy:
    """The E22 resilient configuration: deadline, 4 retry attempts,
    breakers tuned to eject a flapper, generous admission."""
    return ResiliencePolicy(
        retry=RetryPolicy(max_attempts=4, base_backoff=0.1,
                          multiplier=2.0, max_backoff=1.5,
                          jitter=0.25, seed=seed),
        request_timeout=8.0,
        breaker_failure_threshold=3,
        breaker_recovery_time=4.0,
        breaker_half_open_probes=1,
        max_inflight=512,
        write_shed_fraction=0.9,
        degraded_reads=True,
        max_staleness=1000,
    )
