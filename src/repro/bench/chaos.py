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
alternative replica exists *right now* and accumulates its backoff on
the session (``pending_backoff``); the timed client loop the requests
run in (:class:`repro.bench.simdriver.ClientLoop`) charges that backoff
to the session's own request as simulated time and owns the *timed*
retries — the ones that only succeed because simulated time passes (a
new master gets promoted, a crashed node repairs).  ``NodeDown``
surfaces only there, because only the timed layer charges service time
on nodes.  This harness keeps the fault schedule, the healing, the
failover wiring and the invariant checks.
"""

from __future__ import annotations

import random
from typing import Dict, List, Optional, Set

from ..cluster.failures import FaultInjector, random_schedule
from ..cluster.sim import Environment
from ..core.failover import FailoverManager, VirtualIP
from ..core.middleware import ReplicationMiddleware
from ..core.replica import ReplicaState
from ..core.resilience import ResiliencePolicy, RetryPolicy
from ..ha import HAPair, cold_restart, cold_restart_duration
from ..metrics.availability import AvailabilityTracker
from ..workloads.generator import TxnSpec
from .harness import build_cluster
from .simdriver import DATABASE, ClientLoop, TimedCluster

#: resolution-bound slack: one freshness wait (max 2.0 s in the timed
#: driver) plus one in-flight service/commit charge
RESOLUTION_EPSILON = 2.5

# the load: a request is a read, else a write, which runs as a
# multi-statement transaction (exercising replay on a survivor) at
# TXN_WRITE_FRACTION; KV_ROWS keys
READ_FRACTION = 0.7
TXN_WRITE_FRACTION = 0.4
KV_ROWS = 50
# the automatic operator: how long the failure detector takes before
# failover reacts, and the resync delay before a repaired replica
# fails back; the availability canary's period
DETECTION_DELAY = 0.5
FAILBACK_DELAY = 0.5
PROBE_INTERVAL = 0.25
# per-request tracing (repro.obs): every client request gets a root
# span; retention is raised above the middleware default so a whole
# run's requests survive for fault-timeline analysis
TRACING = True
TRACE_RETENTION = 2048
# a middleware kill without a standby restarts cold
# (repro.ha.promotion.cold_restart_duration)
COLD_RESTART_BASE = 0.5
COLD_RESTART_PER_REPLICA = 0.25


class ChaosConfig:
    """One chaos experiment: cluster shape, load, faults, resilience."""

    def __init__(self,
                 replicas: int = 3,
                 seed: int = 1,
                 duration: float = 60.0,
                 rate_tps: float = 40.0,
                 n_faults: int = 4,
                 fault_spec: Optional[dict] = None,
                 resilience: Optional[ResiliencePolicy] = None,
                 drain_grace: float = 30.0,
                 middleware_kills: Optional[List[float]] = None,
                 ha_standby: bool = False,
                 mw_detection_delay: float = 0.3):
        self.replicas = replicas
        self.seed = seed
        self.duration = duration
        self.rate_tps = rate_tps
        self.n_faults = n_faults
        self.fault_spec = fault_spec
        self.resilience = resilience
        # extra simulated time after the load stops for in-flight
        # requests and repairs to resolve
        self.drain_grace = drain_grace
        # middleware-tier faults (E26): simulated times at which the
        # *active* middleware process is killed.  With ``ha_standby`` a
        # fenced promotion follows after ``mw_detection_delay``; without
        # one, a cold state-retrieval restart is charged.
        self.middleware_kills = middleware_kills
        self.ha_standby = ha_standby
        self.mw_detection_delay = mw_detection_delay

    def resolved_fault_spec(self, node_names: List[str]) -> dict:
        if self.fault_spec is not None:
            return self.fault_spec
        return random_schedule(node_names, seed=self.seed,
                               horizon=self.duration,
                               n_faults=self.n_faults)


class RequestRecord(TxnSpec):
    """One client request — the transaction the client loop runs — and
    its fate."""

    __slots__ = ("id", "start", "end", "ok", "error", "write_id",
                 "trace_id")

    def __init__(self, id: int, kind: str, start: float,
                 statements: List[str], write_id: Optional[int] = None):
        super().__init__([(sql, []) for sql in statements],
                         kind == "read", kind=kind)
        self.id = id
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
        self.middleware.tracer.enabled = TRACING
        self.middleware.tracer.max_traces = TRACE_RETENTION
        self.result = ChaosResult(config)
        self.tracker = AvailabilityTracker(start_time=0.0)
        self.load = ChaosLoad(self.cluster, config, self.result)
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
        new_mw.tracer.enabled = TRACING
        new_mw.tracer.max_traces = TRACE_RETENTION
        self.cluster.middleware = new_mw
        self.manager = FailoverManager(new_mw, self.manager.virtual_ip)

    # -- setup ---------------------------------------------------------------

    def _setup_schema(self) -> None:
        session = self.middleware.connect(database=DATABASE)
        session.execute("CREATE TABLE kv (k INT PRIMARY KEY, v INT)")
        session.execute(
            "CREATE TABLE chaos_log (id INT PRIMARY KEY, client INT)")
        for key in range(KV_ROWS):
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
        yield self.env.timeout(DETECTION_DELAY)
        master = self.middleware.master
        if master.name != failed_name or master.is_online:
            return  # already handled, or it came back
        self.manager.handle_replica_failure(failed_name)

    def _failback(self, name: str):
        yield self.env.timeout(FAILBACK_DELAY)
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
                    base=COLD_RESTART_BASE,
                    per_replica=COLD_RESTART_PER_REPLICA))
                cold_restart(self._mw)
            self.result.mw_recoveries.append(self.env.now)

    # -- availability probe --------------------------------------------------

    def _probe(self):
        """A canary write on the instantaneous path drives the MTTR /
        availability timeline: the service is 'up' when a fresh client
        can commit a write right now."""
        probe_key = KV_ROWS  # a row the workload never touches
        session = self.middleware.connect(database=DATABASE)
        session._admission_held = True  # the canary is never shed
        session.execute(f"INSERT INTO kv (k, v) VALUES ({probe_key}, 0)")
        while not self.load.done:
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
            yield self.env.timeout(PROBE_INTERVAL)
        session.close()

    # -- run + invariants ----------------------------------------------------

    def run(self) -> ChaosResult:
        config = self.config
        self.injector.schedule_from_spec(self.spec,
                                         [r.node for r in
                                          self.middleware.replicas
                                          if r.node is not None]
                                         or self.middleware.replicas)
        self.load.start(config.duration)
        self.env.process(self._probe(), name="chaos_probe")
        if config.middleware_kills:
            self.env.process(self._middleware_faults(), name="chaos_mw")
        self.env.run(until=config.duration + config.drain_grace)
        self.injector.stop()
        self.tracker.finish(min(self.env.now, config.duration))
        self.result.elapsed = config.duration
        self.result.shed = self.load.shed_txns
        self.result.dedup_commits = self.load.dedup_commits
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


class ChaosLoad(ClientLoop):
    """Open-loop Poisson requests into the one client loop: each arrival
    is one request on a fresh session, recorded for the invariant
    checks.  Records are numbered in arrival order, as the loop numbers
    its requests."""

    pooled = False
    traced = TRACING

    def __init__(self, cluster: TimedCluster, config: ChaosConfig,
                 result: ChaosResult):
        super().__init__(cluster, seed=config.seed)
        self.config = config
        self.result = result
        self.done = False
        self._writes = 0

    def start(self, duration: float) -> None:
        self.env.process(self._arrivals(duration), name="chaos_arrivals")

    def _arrivals(self, duration: float):
        env = self.env
        rng = random.Random(self.seed * 977 + 13)
        deadline = env.now + duration
        while env.now < deadline:
            yield env.timeout(rng.expovariate(self.config.rate_tps))
            record = self._request(rng)
            env.process(self._client(None, 1, spec=record),
                        name=f"req{record.id}")
        self.done = True

    def _request(self, rng: random.Random) -> RequestRecord:
        records = self.result.records
        request_id = len(records)
        key = random.Random(self.seed * 31 + request_id).randrange(KV_ROWS)
        kind, write_id = "read", None
        statements = [f"SELECT v FROM kv WHERE k = {key}"]
        if rng.random() >= READ_FRACTION:
            self._writes += 1
            write_id = self._writes
            statements = [f"INSERT INTO chaos_log (id, client) "
                          f"VALUES ({write_id}, {request_id})"]
            kind = "txn" if rng.random() < TXN_WRITE_FRACTION else "write"
            if kind == "txn":
                statements.append(f"UPDATE kv SET v = v + 1 WHERE k = {key}")
        records.append(RequestRecord(request_id, kind, self.env.now,
                                     statements, write_id))
        return records[-1]

    def _settle(self, record: RequestRecord, start: float, error: str,
                root, admitted: bool = True) -> None:
        record.end = self.env.now
        record.ok = not error
        record.error = error
        if root:
            record.trace_id = root.trace_id
        if record.ok and record.write_id is not None:
            self.result.acked_ids.add(record.write_id)
        super()._settle(record, start, error, root, admitted)


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
