"""Admission control for the middleware tier: token buckets, bulkhead
lanes, and queue-depth shedding with labeled rejections.

Overload is where the paper says middleware replication dies in practice
(section 4.4): an *open-loop* arrival process does not slow down because
the middleware is busy, so queues grow without bound, every request
waits behind the backlog, and clients time out on work the servers still
dutifully perform — goodput collapses while utilisation stays at 100%.
The admission layer rejects excess work *at the door*, with a
machine-readable reason, so the work the cluster does accept still
completes within its deadline.

Three mechanisms compose:

* :class:`TokenBucket` — per-class sustained-rate limiting with a burst
  allowance (the classic throttling pattern).
* :class:`BulkheadLane` — a bounded concurrency compartment per request
  class, so a flood of reads cannot starve commits and vice versa.
* queue-depth shedding — when admitted-but-unfinished work exceeds a
  watermark, new arrivals are shed before they join the queue (the
  point past which added queueing only converts work into timeouts).

The composition is :class:`AdmissionGate`.  A successful
:meth:`AdmissionGate.admit` returns a :class:`Ticket`; a rejection
raises :class:`~repro.core.errors.Overloaded` carrying one of the
``REJECT_*`` labels.  The gate can only reject *before* a ticket exists
— there is deliberately no API to shed a ticketed request, so an
admitted and acknowledged commit can never be lost to load shedding
mid-pipeline (the invariant benchmark E28 and the hypothesis suite
assert).

It is the only admission mechanism, and it stands in two places: at the
driver's door, deciding whether a *transaction* enters the system at all
(``SessionArrivalDriver``, :func:`default_gate`), and inside each
group's resilience layer (``repro.core.resilience``), bucketless, where
a lower ``watermark`` on the commit class sheds writes first and
:attr:`AdmissionGate.saturated` turns on degraded-mode reads.
"""

from __future__ import annotations

from math import inf
from typing import Callable, Dict, Optional

from .errors import Overloaded

# Rejection labels — stable strings, used in metrics and BENCH artifacts.
REJECT_RATE = "rate_limit"
REJECT_BULKHEAD = "bulkhead_full"
REJECT_QUEUE = "queue_depth"
REJECT_UNKNOWN_CLASS = "unknown_class"

# Ticket lifecycle states.
ADMITTED = "admitted"
ACKED = "acked"
DONE = "done"
FAILED = "failed"


class TokenBucket:
    """Sustained-rate limiter: ``rate`` tokens/second refill up to a
    ``burst`` ceiling.  The caller supplies the current time, so the
    bucket works identically under the simulated clock and wall clock.
    """

    __slots__ = ("rate", "burst", "tokens", "_stamp")

    def __init__(self, rate: float, burst: float, now: float = 0.0):
        if rate <= 0:
            raise ValueError("token rate must be positive")
        self.rate = float(rate)
        self.burst = max(float(burst), 1.0)
        self.tokens = self.burst
        self._stamp = now

    def _refill(self, now: float) -> None:
        elapsed = now - self._stamp
        if elapsed > 0:
            self.tokens = min(self.burst, self.tokens + elapsed * self.rate)
        self._stamp = now

    def try_take(self, now: float, amount: float = 1.0) -> bool:
        self._refill(now)
        if self.tokens >= amount:
            self.tokens -= amount
            return True
        return False

    def available(self, now: float) -> float:
        self._refill(now)
        return self.tokens


class BulkheadLane:
    """A bounded concurrency compartment.  ``capacity`` is the maximum
    number of simultaneously in-flight requests of one class; when the
    lane is full new arrivals bounce instead of queueing behind a class
    that is slow for its own reasons (bulkhead pattern)."""

    __slots__ = ("name", "capacity", "in_flight", "peak_in_flight")

    def __init__(self, name: str, capacity: int):
        if capacity <= 0:
            raise ValueError("bulkhead capacity must be positive")
        self.name = name
        self.capacity = int(capacity)
        self.in_flight = 0
        self.peak_in_flight = 0

    def try_enter(self) -> bool:
        if self.in_flight >= self.capacity:
            return False
        self.in_flight += 1
        if self.in_flight > self.peak_in_flight:
            self.peak_in_flight = self.in_flight
        return True

    def leave(self) -> None:
        if self.in_flight <= 0:
            raise RuntimeError(f"lane {self.name!r}: leave() without enter")
        self.in_flight -= 1


class Ticket:
    """Proof of admission for one request.  Lifecycle::

        admitted --> acked --> done
                 \\-> failed

    ``ack()`` marks the point the middleware acknowledged the commit to
    the client; ``finish()`` releases the lane.  There is no ``shed()``:
    once a ticket exists the gate has no mechanism to revoke it, which
    is what makes "admitted-then-acked commits are never shed" hold by
    construction (and verifiable: the gate counts would diverge).
    """

    __slots__ = ("gate", "kind", "ticket_id", "state")

    def __init__(self, gate: "AdmissionGate", kind: str, ticket_id: int):
        self.gate = gate
        self.kind = kind
        self.ticket_id = ticket_id
        self.state = ADMITTED

    def ack(self) -> None:
        """The request's effect is durable and acknowledged."""
        if self.state not in (ADMITTED, ACKED):
            raise RuntimeError(
                f"ticket {self.ticket_id}: ack() in state {self.state!r}")
        if self.state == ADMITTED:
            self.state = ACKED
            self.gate._note_ack(self)

    def finish(self, ok: bool = True) -> None:
        """Release the lane.  Idempotent-hostile on purpose: finishing a
        finished ticket is a caller bug and raises."""
        if self.state in (DONE, FAILED):
            raise RuntimeError(
                f"ticket {self.ticket_id}: finish() in state {self.state!r}")
        acked = self.state == ACKED
        self.state = DONE if ok else FAILED
        self.gate._note_finish(self, ok=ok, was_acked=acked)

    def settle(self, ok: bool) -> None:
        """The whole request ran inside one call: acknowledge a commit
        that succeeded, then release the lane."""
        if ok and self.kind == "commit":
            self.ack()
        self.finish(ok)


class ClassPolicy:
    """Admission policy for one request class; ``pending_limit`` is the
    gate-wide pending count at which the class is shed."""

    __slots__ = ("kind", "bucket", "lane", "pending_limit")

    def __init__(self, kind: str, rate: Optional[float], burst: float,
                 lane_capacity: int, pending_limit: float,
                 now: float = 0.0):
        self.kind = kind
        self.bucket = None if rate is None \
            else TokenBucket(rate, burst, now=now)
        self.lane = BulkheadLane(kind, lane_capacity)
        self.pending_limit = pending_limit


class AdmissionGate:
    """Per-class token-bucket admission + bulkhead lanes + queue-depth
    shedding, with labeled rejections.

    ``clock`` is any zero-argument callable returning seconds — pass
    ``lambda: env.now`` under the simulator.  ``max_pending`` bounds the
    total admitted-but-unfinished population across all classes (the
    queue-depth watermark); ``None`` disables that check.  A class with
    a lower ``watermark`` of its own (:meth:`add_class`) is shed first.
    """

    def __init__(self, clock: Callable[[], float],
                 max_pending: Optional[int] = None):
        self._clock = clock
        self.max_pending = max_pending
        self.classes: Dict[str, ClassPolicy] = {}
        self.pending = 0
        self.peak_pending = 0
        # the lowest class pending_limit: at or past it, someone is shed
        self._saturated_at = inf if max_pending is None else max_pending
        self._next_ticket = 0
        # Counters, exported into BENCH artifacts — keep keys stable.
        self.admitted: Dict[str, int] = {}
        self.rejected: Dict[str, Dict[str, int]] = {}
        self.acked: Dict[str, int] = {}
        self.finished_ok = 0
        self.finished_failed = 0
        # By construction this stays 0; it exists so tests can assert the
        # invariant from the outside instead of trusting the docstring.
        self.acked_then_shed = 0

    # -- configuration --------------------------------------------------

    def add_class(self, kind: str, rate: Optional[float],
                  burst: Optional[float] = None, lane_capacity: int = 64,
                  watermark: Optional[int] = None) -> "AdmissionGate":
        """Register a request class.  ``rate=None``: no token bucket;
        ``watermark``: shed this class (as ``queue_depth``) once total
        pending reaches it.  Returns self for chaining."""
        if kind in self.classes:
            raise ValueError(f"class {kind!r} already registered")
        burst = rate if burst is None else burst
        limit = inf if self.max_pending is None else self.max_pending
        if watermark is not None:
            limit = min(limit, watermark)
        self._saturated_at = min(self._saturated_at, limit)
        self.classes[kind] = ClassPolicy(
            kind, rate, burst, lane_capacity, limit, now=self._clock())
        self.admitted[kind] = 0
        self.acked[kind] = 0
        self.rejected[kind] = {}
        return self

    # -- admission ------------------------------------------------------

    def try_admit(self, kind: str):
        """Returns ``(ticket, None)`` on admission or ``(None, reason)``
        on shed.  All rejection accounting happens here."""
        policy = self.classes.get(kind)
        if policy is None:
            return None, self._reject(kind, REJECT_UNKNOWN_CLASS)
        if self.pending >= policy.pending_limit:
            return None, self._reject(kind, REJECT_QUEUE)
        bucket = policy.bucket
        if bucket is not None and not bucket.try_take(self._clock()):
            return None, self._reject(kind, REJECT_RATE)
        if not policy.lane.try_enter():
            return None, self._reject(kind, REJECT_BULKHEAD)
        self._next_ticket += 1
        ticket = Ticket(self, kind, self._next_ticket)
        self.admitted[kind] += 1
        self.pending += 1
        if self.pending > self.peak_pending:
            self.peak_pending = self.pending
        return ticket, None

    def admit(self, kind: str) -> Ticket:
        """Admit or raise :class:`~repro.core.errors.Overloaded`."""
        ticket, reason = self.try_admit(kind)
        if ticket is None:
            raise Overloaded(kind, reason)
        return ticket

    def _reject(self, kind: str, reason: str) -> str:
        per_class = self.rejected.setdefault(kind, {})
        per_class[reason] = per_class.get(reason, 0) + 1
        return reason

    # -- ticket callbacks ----------------------------------------------

    def _note_ack(self, ticket: Ticket) -> None:
        self.acked[ticket.kind] = self.acked.get(ticket.kind, 0) + 1

    def _note_finish(self, ticket: Ticket, ok: bool, was_acked: bool) -> None:
        policy = self.classes[ticket.kind]
        policy.lane.leave()
        self.pending -= 1
        if ok:
            self.finished_ok += 1
        else:
            self.finished_failed += 1
            if was_acked:
                # An acked commit that later "fails" would be lost work;
                # record it where audits can see it.
                self.acked_then_shed += 1

    # -- introspection --------------------------------------------------

    @property
    def saturated(self) -> bool:
        """Is some class being shed for queue depth right now?"""
        return self.pending >= self._saturated_at

    def total_rejected(self, kind: Optional[str] = None) -> int:
        if kind is not None:
            return sum(self.rejected.get(kind, {}).values())
        return sum(sum(reasons.values()) for reasons in self.rejected.values())

    def total_admitted(self) -> int:
        return sum(self.admitted.values())

    def snapshot(self) -> dict:
        """Plain-dict counters for metrics export / BENCH artifacts."""
        return {
            "admitted": dict(self.admitted),
            "acked": dict(self.acked),
            "rejected": {kind: dict(reasons)
                         for kind, reasons in self.rejected.items()},
            "pending": self.pending,
            "peak_pending": self.peak_pending,
            "finished_ok": self.finished_ok,
            "finished_failed": self.finished_failed,
            "acked_then_shed": self.acked_then_shed,
            "lanes": {
                kind: {"in_flight": policy.lane.in_flight,
                       "capacity": policy.lane.capacity,
                       "peak_in_flight": policy.lane.peak_in_flight}
                for kind, policy in self.classes.items()
            },
        }


def default_gate(clock: Callable[[], float],
                 read_rate: float = 2000.0,
                 commit_rate: float = 600.0,
                 read_lane: int = 256,
                 commit_lane: int = 128,
                 max_pending: Optional[int] = 512) -> AdmissionGate:
    """The configuration E28 uses: reads throttled loosely, commits
    tightly, with separate lanes so neither starves the other."""
    gate = AdmissionGate(clock, max_pending=max_pending)
    gate.add_class("read", rate=read_rate, burst=read_rate * 0.25,
                   lane_capacity=read_lane)
    gate.add_class("commit", rate=commit_rate, burst=commit_rate * 0.25,
                   lane_capacity=commit_lane)
    return gate
