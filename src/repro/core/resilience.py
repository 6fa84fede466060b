"""Request resilience: deadlines, retries, circuit breakers, admission
control and degraded-mode serving.

The paper's section 5.1 asks for "performance in the presence of
failures, performance of degraded modes" — which presupposes a middleware
that *has* a degraded mode instead of surfacing every replica hiccup to
the client.  This module is that layer.  It sits between
:class:`~repro.core.middleware.MiddlewareSession` and the dispatch path
and gives every client request:

* a **deadline** in simulated time — :class:`Deadline` raises
  :class:`~repro.core.errors.RequestTimeout` instead of hanging on a slow
  or degraded replica;
* **transparent retry** with exponential backoff and *deterministic*
  jitter (:class:`RetryPolicy`) plus safe-retry classification: autocommit
  statements and statement-logged transactions are replayed on a survivor
  through :class:`~repro.core.sessions.TransactionContext`; a commit whose
  outcome is ambiguous is never silently retried — the client gets
  :class:`~repro.core.errors.RetryExhausted`;
* a per-replica **circuit breaker** (:class:`CircuitBreaker`,
  CLOSED → OPEN → HALF_OPEN) that ejects flapping replicas from
  load-balancer candidacy before a heartbeat detector would fire;
* **admission control** — an :class:`~repro.core.admission.AdmissionGate`
  bounding in-flight requests, shedding writes first (the commit class's
  watermark), and a degraded-mode policy that serves possibly-stale
  reads from lagging slaves (bounded-staleness knob) when the gate is
  saturated or the master is down.

Everything is deterministic: backoff jitter is a hash of (seed, session,
attempt), clocks are injected (the simulation clock in timed runs, a
manual clock in unit tests), and no wall time is ever read.
"""

from __future__ import annotations

import enum
import hashlib
from typing import Any, Callable, Dict, List, Optional

from ..sqlengine import ast_nodes as ast
from ..sqlengine.errors import SQLError
from .admission import AdmissionGate
from .errors import (
    RETRY_AFTER_FAILOVER, RETRY_SAFE, CircuitOpen, MiddlewareDown,
    MiddlewareError, ReplicaUnavailable, RequestTimeout, RetryExhausted,
    retry_label,
)

Clock = Callable[[], float]


def _zero_clock() -> float:
    return 0.0


# ---------------------------------------------------------------------------
# deadlines
# ---------------------------------------------------------------------------

class Deadline:
    """A request deadline against an injected clock (simulated time)."""

    __slots__ = ("clock", "budget", "started_at", "expires_at")

    def __init__(self, clock: Clock, budget: float):
        self.clock = clock
        self.budget = budget
        self.started_at = clock()
        self.expires_at = self.started_at + budget

    @property
    def expired(self) -> bool:
        return self.clock() >= self.expires_at

    def remaining(self) -> float:
        return max(0.0, self.expires_at - self.clock())

    def check(self, what: str = "request") -> None:
        if self.expired:
            raise RequestTimeout(
                f"{what} exceeded its {self.budget:.3f}s deadline "
                f"(started at t={self.started_at:.3f})")

    def __repr__(self) -> str:
        return f"Deadline(budget={self.budget}, remaining={self.remaining():.3f})"


# ---------------------------------------------------------------------------
# retry policy
# ---------------------------------------------------------------------------

class RetryPolicy:
    """Exponential backoff with deterministic jitter.

    ``backoff(attempt, key)`` is a pure function of (seed, key, attempt):
    two runs with the same seed produce byte-identical schedules, which is
    what lets the chaos harness compare baseline vs resilient runs under
    an identical fault schedule.

    ``retry_commits`` is deliberately off by default: a commit that failed
    with a connection-class error has an *ambiguous* outcome in general
    (the paper's section 4.3.3 asymmetry), so retrying it risks a double
    apply.  Deployments whose engines guarantee failed-commit-means-
    rolled-back may opt in.
    """

    def __init__(self, max_attempts: int = 3, base_backoff: float = 0.05,
                 multiplier: float = 2.0, max_backoff: float = 2.0,
                 jitter: float = 0.25, seed: int = 0,
                 retry_commits: bool = False):
        if max_attempts < 1:
            raise ValueError("max_attempts must be >= 1")
        self.max_attempts = max_attempts
        self.base_backoff = base_backoff
        self.multiplier = multiplier
        self.max_backoff = max_backoff
        self.jitter = jitter
        self.seed = seed
        self.retry_commits = retry_commits

    def backoff(self, attempt: int, key: int = 0) -> float:
        """Delay before retry number ``attempt`` (1-based)."""
        raw = self.base_backoff * (self.multiplier ** (attempt - 1))
        raw = min(raw, self.max_backoff)
        if self.jitter <= 0:
            return raw
        digest = hashlib.sha256(
            f"{self.seed}:{key}:{attempt}".encode()).digest()
        unit = int.from_bytes(digest[:8], "big") / float(2 ** 64)
        # jitter in [1 - j, 1 + j], deterministic per (seed, key, attempt)
        return raw * (1.0 - self.jitter + 2.0 * self.jitter * unit)

    def spent(self, attempt: int) -> bool:
        return attempt >= self.max_attempts


# ---------------------------------------------------------------------------
# circuit breaker
# ---------------------------------------------------------------------------

class BreakerState(enum.Enum):
    CLOSED = "closed"
    OPEN = "open"
    HALF_OPEN = "half_open"


class CircuitBreaker:
    """Per-replica circuit breaker.

    CLOSED: requests flow; ``failure_threshold`` consecutive failures trip
    it OPEN.  OPEN: the replica is ejected from candidacy until
    ``recovery_time`` has elapsed on the injected clock.  HALF_OPEN: up to
    ``half_open_probes`` trial requests are admitted; one success closes
    the breaker, one failure re-opens it (and restarts the recovery
    clock).  A flapping replica therefore converges to OPEN and stops
    hurting clients even while its node reports "up".
    """

    def __init__(self, name: str, clock: Optional[Clock] = None,
                 failure_threshold: int = 3, recovery_time: float = 5.0,
                 half_open_probes: int = 1):
        self.name = name
        self.clock = clock or _zero_clock
        self.failure_threshold = failure_threshold
        self.recovery_time = recovery_time
        self.half_open_probes = half_open_probes
        self.state = BreakerState.CLOSED
        self.consecutive_failures = 0
        self.opened_at = 0.0
        self._probes_in_flight = 0
        self.stats = {"trips": 0, "rejections": 0, "probes": 0,
                      "closes": 0}
        self._listeners: List[Callable[["CircuitBreaker"], None]] = []

    def on_transition(self,
                      listener: Callable[["CircuitBreaker"], None]) -> None:
        self._listeners.append(listener)

    def _transition(self, state: BreakerState) -> None:
        if state is self.state:
            return
        self.state = state
        for listener in list(self._listeners):
            listener(self)

    def allow(self) -> bool:
        """May a request be routed to this replica right now?"""
        if self.state is BreakerState.CLOSED:
            return True
        if self.state is BreakerState.OPEN:
            if self.clock() - self.opened_at >= self.recovery_time:
                self._transition(BreakerState.HALF_OPEN)
                self._probes_in_flight = 0
            else:
                self.stats["rejections"] += 1
                return False
        # HALF_OPEN: admit a bounded number of trial requests
        if self._probes_in_flight < self.half_open_probes:
            self._probes_in_flight += 1
            self.stats["probes"] += 1
            return True
        self.stats["rejections"] += 1
        return False

    def record_success(self) -> None:
        self.consecutive_failures = 0
        if self.state is not BreakerState.CLOSED:
            self.stats["closes"] += 1
            self._transition(BreakerState.CLOSED)
        self._probes_in_flight = 0

    def record_failure(self) -> None:
        self.consecutive_failures += 1
        if self.state is BreakerState.HALF_OPEN \
                or (self.state is BreakerState.CLOSED
                    and self.consecutive_failures >= self.failure_threshold):
            self.opened_at = self.clock()
            self.stats["trips"] += 1
            self._transition(BreakerState.OPEN)
            self._probes_in_flight = 0

    def force_open(self) -> None:
        """Eject immediately (e.g. the failure detector beat us to it)."""
        if self.state is not BreakerState.OPEN:
            self.opened_at = self.clock()
            self.stats["trips"] += 1
            self._transition(BreakerState.OPEN)

    def __repr__(self) -> str:
        return (f"CircuitBreaker({self.name!r}, {self.state.value}, "
                f"failures={self.consecutive_failures})")


# ---------------------------------------------------------------------------
# policy + coordinator
# ---------------------------------------------------------------------------

class ResiliencePolicy:
    """Tunable resilience behaviour, attached to a
    :class:`~repro.core.middleware.MiddlewareConfig`.

    Attributes:
        retry: the :class:`RetryPolicy` for transient failures.
        request_timeout: default per-request deadline budget in seconds
            of injected-clock time (``None`` = no implicit deadline).
        breaker_failure_threshold / breaker_recovery_time /
        breaker_half_open_probes: per-replica circuit breaker knobs.
        max_inflight / write_shed_fraction: the admission gate's
            ``max_pending``, and the fraction of it at which commits are
            shed and the gate reports ``saturated`` (degraded reads on).
        degraded_reads: allow bounded-staleness reads when degraded.
        max_staleness: the bounded-staleness knob — how many global
            sequence numbers a slave may lag and still serve a degraded
            read.  ``None`` disables stale serving.
    """

    def __init__(self,
                 retry: Optional[RetryPolicy] = None,
                 request_timeout: Optional[float] = None,
                 breaker_failure_threshold: int = 3,
                 breaker_recovery_time: float = 5.0,
                 breaker_half_open_probes: int = 1,
                 max_inflight: int = 64,
                 write_shed_fraction: float = 0.75,
                 degraded_reads: bool = True,
                 max_staleness: Optional[int] = 1000):
        self.retry = retry or RetryPolicy()
        self.request_timeout = request_timeout
        self.breaker_failure_threshold = breaker_failure_threshold
        self.breaker_recovery_time = breaker_recovery_time
        self.breaker_half_open_probes = breaker_half_open_probes
        self.max_inflight = max_inflight
        self.write_shed_fraction = write_shed_fraction
        self.degraded_reads = degraded_reads
        self.max_staleness = max_staleness


class ResilienceCoordinator:
    """The live resilience state for one middleware instance.

    Owns the per-replica breakers and the admission gate, and wraps
    every statement dispatch (:meth:`execute_statement`) in the
    deadline/retry machinery.  State changes are instantaneous (the
    repo-wide simulation convention); the *time cost* of backoffs is
    accumulated in :attr:`pending_backoff` for the timed layer
    (``repro.bench.chaos``) to charge as simulated delay.
    """

    def __init__(self, middleware, policy: ResiliencePolicy,
                 clock: Optional[Clock] = None):
        self.middleware = middleware
        self.policy = policy
        self.clock: Clock = clock or middleware.monitor.peek
        self.breakers: Dict[str, CircuitBreaker] = {}
        for replica in middleware.replicas:
            self._make_breaker(replica.name)
        # writes give way at the watermark, reads only at the hard cap
        cap = policy.max_inflight
        self.admission = AdmissionGate(self.clock, max_pending=cap)
        self.admission.add_class("read", rate=None, lane_capacity=cap)
        self.admission.add_class(
            "commit", rate=None, lane_capacity=cap,
            watermark=max(1, int(cap * policy.write_shed_fraction)))
        self.pending_backoff = 0.0
        self._replaying = False
        # sheds are the gate's: ``admission.snapshot()["rejected"]``
        self.stats = {
            "retries": 0, "replays": 0, "timeouts": 0,
            "retry_exhausted": 0, "degraded_reads": 0,
            "failover_retries": 0, "stale_cache_served": 0,
        }

    # -- breakers -----------------------------------------------------------

    def _make_breaker(self, name: str) -> CircuitBreaker:
        breaker = CircuitBreaker(
            name, clock=self.clock,
            failure_threshold=self.policy.breaker_failure_threshold,
            recovery_time=self.policy.breaker_recovery_time,
            half_open_probes=self.policy.breaker_half_open_probes)
        breaker.on_transition(self._breaker_changed)
        self.breakers[name] = breaker
        return breaker

    def breaker(self, name: str) -> CircuitBreaker:
        existing = self.breakers.get(name)
        if existing is None:
            existing = self._make_breaker(name)
        return existing

    def _breaker_changed(self, breaker: CircuitBreaker) -> None:
        self.middleware.monitor.record(
            "breaker_" + breaker.state.value, breaker.name,
            failures=breaker.consecutive_failures)

    def allow_replica(self, name: str) -> bool:
        return self.breaker(name).allow()

    def record_success(self, name: str) -> None:
        self.breaker(name).record_success()

    def record_failure(self, name: str) -> None:
        self.breaker(name).record_failure()

    # -- deadlines ----------------------------------------------------------

    def deadline(self, budget: Optional[float] = None) -> Optional[Deadline]:
        budget = budget if budget is not None else self.policy.request_timeout
        if budget is None:
            return None
        return Deadline(self.clock, budget)

    # -- degraded-mode serving ----------------------------------------------

    def degraded(self) -> bool:
        """Is degraded-mode serving active (master saturated or down)?"""
        if self.admission.saturated:
            return True
        try:
            master = self.middleware.master
        except ReplicaUnavailable:
            return True
        return not master.is_online

    def serve_stale(self, lag: int) -> bool:
        """May a read be served from a replica lagging ``lag`` sequence
        numbers behind what the consistency protocol demands?"""
        if not self.policy.degraded_reads \
                or self.policy.max_staleness is None:
            return False
        if lag > self.policy.max_staleness:
            return False
        if not self.degraded():
            return False
        self.stats["degraded_reads"] += 1
        self.middleware.monitor.record("degraded_read",
                                       self.middleware.name, lag=lag)
        return True

    def note_stale_cache_served(self) -> None:
        """A degraded read was answered from the result cache (with an
        explicit staleness label) instead of a lagging replica — or
        instead of an error, when no replica could serve at all."""
        self.stats["stale_cache_served"] += 1

    # -- backoff accounting --------------------------------------------------

    def consume_backoff(self) -> float:
        """Hand the accumulated backoff delay to the timed layer."""
        delay, self.pending_backoff = self.pending_backoff, 0.0
        return delay

    # -- the resilient dispatch path -----------------------------------------

    def execute_statement(self, session, statement: "ast.Statement",
                          sql_text: str, params: List[Any]):
        """Wrap one statement dispatch in deadline + retry machinery."""
        if self._replaying:
            # statements re-issued by a replay run bare: the outer retry
            # loop owns attempt accounting, so nesting would compound it
            return session._dispatch_one(statement, sql_text, params)
        if isinstance(statement, ast.RollbackStatement):
            # a rollback must always succeed from the client's view
            return session._dispatch_one(statement, sql_text, params)
        deadline: Optional[Deadline] = session.deadline
        if deadline is not None:
            deadline.check("statement")
        is_commit = isinstance(statement, ast.CommitStatement)
        retry = self.policy.retry
        attempt = 1
        while True:
            # Snapshot the transaction log before a commit so a safe
            # replay is possible after the dispatch tears the state down.
            snapshot = None
            if is_commit and session.in_transaction and session._txn_is_write:
                snapshot = (list(session._txn_statements),
                            session._txn_isolation)
            # the mw.statement span opened by _execute_one — retry /
            # breaker / deadline decisions land on it as span events
            span = session.active_span
            try:
                return session._dispatch_one(statement, sql_text, params)
            except RequestTimeout:
                self.stats["timeouts"] += 1
                if span:
                    span.event("deadline_exceeded", attempt=attempt)
                raise
            except MiddlewareDown as exc:
                # The middleware process died or was fenced out; whoever
                # raised this said whether another instance will serve
                # (outer layers then re-resolve the virtual IP and replay).
                if exc.retry == RETRY_AFTER_FAILOVER:
                    self.stats["failover_retries"] += 1
                    if span:
                        ha = self.middleware.ha
                        span.event(
                            "failover_retry",
                            target=(ha.standby_name if ha is not None
                                    else None) or "promoted-leader")
                raise
            except (MiddlewareError, SQLError) as exc:
                if retry_label(exc) != RETRY_SAFE:
                    raise
                if span and isinstance(exc, CircuitOpen):
                    span.event("circuit_open", error=str(exc)[:120])
                mode = self._classify(session, statement, snapshot, exc)
                if mode == "exhaust":
                    self.stats["retry_exhausted"] += 1
                    if span:
                        span.event("retry_exhausted",
                                   reason="ambiguous_commit")
                    # ambiguous: outer (timed) retry layers must never
                    # retry this one either
                    raise RetryExhausted(
                        "commit outcome is ambiguous; refusing a non-"
                        "idempotent retry (set RetryPolicy.retry_commits "
                        "to opt in)", ambiguous=True) from exc
                if retry.spent(attempt):
                    self.stats["retry_exhausted"] += 1
                    if span:
                        span.event("retry_exhausted", attempts=attempt)
                    raise RetryExhausted(
                        f"request failed after {attempt} attempts: "
                        f"{exc}") from exc
                backoff = retry.backoff(attempt, key=session.id)
                if deadline is not None and deadline.remaining() <= backoff:
                    self.stats["timeouts"] += 1
                    if span:
                        span.event("deadline_exceeded", attempt=attempt,
                                   backoff=round(backoff, 6))
                    raise RequestTimeout(
                        f"deadline would expire during the {backoff:.3f}s "
                        f"retry backoff (attempt {attempt})") from exc
                self.pending_backoff += backoff
                self.stats["retries"] += 1
                if span:
                    # NOTE: the backoff here is *accumulated*, not yet
                    # charged — the attr is named ``backoff`` (not
                    # ``duration``) so latency breakdowns do not double-
                    # count it against the timed layer's charge
                    span.event("retry", attempt=attempt,
                               error=type(exc).__name__,
                               backoff=round(backoff, 6))
                self.middleware.monitor.record(
                    "retry", self.middleware.name, attempt=attempt,
                    error=type(exc).__name__, backoff=backoff)
                if mode == "replay":
                    self._replay(session, statement, snapshot)
                attempt += 1

    def _classify(self, session, statement, snapshot, exc) -> str:
        """Safe-retry classification: ``retry`` (re-dispatch as-is),
        ``replay`` (re-establish transaction state on a survivor first)
        or ``exhaust`` (no safe retry exists)."""
        if isinstance(statement, ast.CommitStatement):
            if snapshot is None:
                return "retry"  # read-only commit: harmless to reissue
            if self.policy.retry.retry_commits:
                return "replay"
            return "exhaust"
        if session.in_transaction:
            # mid-transaction statement failure: the transaction's state
            # (or its sole executing replica) is gone — replay the logged
            # statements on a survivor, then re-dispatch this one.
            return "replay"
        # autocommit statement: the implicit transaction rolled back on
        # failure, so re-dispatching starts a fresh, clean attempt
        return "retry"

    def _replay(self, session, statement, snapshot) -> None:
        """Re-establish transaction state on a surviving replica via a
        :class:`~repro.core.sessions.TransactionContext` (section 4.3.3
        made automatic)."""
        from .sessions import TransactionContext

        if snapshot is not None:
            statements, isolation = snapshot
        elif session.in_transaction:
            statements = list(session._txn_statements)
            isolation = session._txn_isolation
        else:
            return
        if session.in_transaction:
            # the old transaction is dead; roll its carcass away silently
            session._abort_everywhere(silent=True)
            session._end_transaction()
        context = TransactionContext.capture_for_retry(
            statements, isolation, session)
        self._replaying = True
        try:
            context.resume(session)
        finally:
            self._replaying = False
        self.stats["replays"] += 1
        session.failover_replays += 1
        span = session.active_span
        if span:
            span.event("txn_replayed", statements=len(statements))
        self.middleware.monitor.record(
            "txn_replayed", self.middleware.name,
            statements=len(statements))
