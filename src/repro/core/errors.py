"""Middleware-level errors — the client-visible error taxonomy.

The hierarchy below is what a client of the replication middleware can
observe.  The paper's complaint (section 5.1) is that prototypes are only
evaluated on the happy path; a resilient middleware must instead give the
client a *small, actionable* set of failure verdicts:

``MiddlewareError``
    Base class for every middleware failure.

    * ``MiddlewareDown`` — the middleware instance itself died (SPOF,
      section 3.2).  Nothing the client does on this session will work.
    * ``UnsupportedStatementError`` — deterministic refusal: the SQL can
      never replicate safely under the configured policy.  Retrying is
      pointless.
    * ``ClusterDivergence`` / ``QuorumLost`` — cluster-level safety
      refusals; operator intervention required.
    * ``ReplicaUnavailable`` — a *specific* replica the request needed
      cannot serve.  Transient: the resilience layer retries these.
    * ``LogTruncatedError`` — the recovery log no longer holds the tail
      after the requested seq (log maintenance, section 4.4.4, cut it).
      The reader needs a fresh snapshot, not a replay.

    **Resilience verdicts** (``repro.core.resilience``) — these four are
    what the client actually sees once the resilience layer is engaged;
    each one is final for the request that raised it:

    * ``RequestTimeout`` — the request's deadline (simulated time)
      expired before the cluster produced an answer.  The outcome of any
      in-flight work is *unknown*; read requests may simply be reissued.
    * ``RetryExhausted`` — the retry policy was spent, or the failure was
      classified non-idempotent (an ambiguous commit) so no safe retry
      exists.  ``__cause__`` carries the last underlying error.
    * ``CircuitOpen`` — every candidate replica is currently ejected by
      its circuit breaker; the request was refused *before* touching a
      backend.  Transient: breakers half-open after their recovery time.
    * ``Overloaded`` — admission control shed the request because the
      cluster is saturated (bounded queue).  Back off and retry later;
      under the degraded-mode policy reads are shed last.
"""

from __future__ import annotations


class MiddlewareError(Exception):
    """Base class for replication-middleware failures."""


class MiddlewareDown(MiddlewareError):
    """The middleware instance itself has failed — with a centralized
    design this is a total outage (paper section 3.2).  With an HA
    standby (``repro.ha``) the condition is transient: clients re-resolve
    the virtual IP and replay with exactly-once dedup."""


class FencedOut(MiddlewareDown):
    """This middleware instance was deposed by a fenced promotion: its
    epoch is older than the cluster's.  Raised instead of certifying a
    commit on a stale leader — the split-brain guard (``repro.ha``).
    Subclasses :class:`MiddlewareDown` because the client-side remedy is
    identical: re-resolve the virtual IP and talk to the new leader."""


class UnsupportedStatementError(MiddlewareError):
    """The statement cannot be replicated safely under the configured
    policy (e.g. ``UPDATE t SET x = RAND()`` under statement replication
    with the 'reject' non-determinism policy — section 4.3.2)."""


class ReplicaUnavailable(MiddlewareError):
    """The operation needs a specific replica that cannot serve."""


class LogTruncatedError(MiddlewareError):
    """The recovery-log entries after the requested seq were purged: a
    replay from there would skip committed updates.  Nothing registered
    (a replica, a checkpoint, a WAN cursor, a reshard) ever sees this —
    registering is what holds the log; the replica join answers it with
    a fresh snapshot (``BackupCoordinator.join``)."""


class ClusterDivergence(MiddlewareError):
    """Replicas no longer agree on committed data; manual reconciliation
    required (sections 4.3.2 / 4.3.4.3)."""


class QuorumLost(MiddlewareError):
    """This partition side does not hold a quorum; updates are refused to
    preserve consistency (CAP discussion, section 4.3.4.3)."""


class RequestTimeout(MiddlewareError):
    """The request's deadline expired before an answer was produced.

    Raised instead of hanging on a slow or degraded replica; the outcome
    of in-flight work is unknown to the client."""


class RetryExhausted(MiddlewareError):
    """The retry policy is spent (or no safe retry exists, e.g. an
    ambiguous commit outcome); ``__cause__`` holds the last error."""


class CircuitOpen(MiddlewareError):
    """Every candidate replica is ejected by its circuit breaker; the
    request was refused before reaching a backend."""


class Overloaded(MiddlewareError):
    """Admission control shed the request: the cluster is saturated and
    the bounded request queue is full."""
