"""Middleware-level errors — the client-visible error taxonomy.

Everything that can leave a front door (``MiddlewareSession.execute``,
``ShardedSession.execute``) is a :class:`MiddlewareError` or an engine
``SQLError``.  A middleware that cannot tell its client *whether a failed
request may be retried, and where* has no failover transparency
(sections 4.3.3, 5.1), so every class declares one **retry label**:

``retry-safe``
    Nothing durable happened and this service will take the request
    again: back off and reissue it.
``retry-after-failover``
    This *instance* will not serve, another will: re-resolve the virtual
    IP and replay the whole transaction; the commit ledger makes the
    replay exactly-once (``repro.ha``).
``client-error``
    The request is what is wrong.  Every engine ``SQLError`` but a broken
    connection is one: the engine's verdict passes through unchanged
    (section 4.1.2); re-running an aborted transaction is the
    application's decision, the middleware never does.
``fatal``
    No automatic retry is safe or useful: the outcome is unknown, or an
    operator has to act first.

The label is decided once, where the error is raised, by the instance
that knows, and is never edited afterwards; :func:`retry_label` reads
it.  Class by class — label, when raised, what the client does — the
reference is docs/ARCHITECTURE.md's "Error table", which
``tools/check_docs.py`` holds to these classes.
"""

from __future__ import annotations

from typing import Optional

from ..sqlengine.errors import ConnectionError_, SQLError

RETRY_SAFE = "retry-safe"
RETRY_AFTER_FAILOVER = "retry-after-failover"
CLIENT_ERROR = "client-error"
FATAL = "fatal"


class MiddlewareError(Exception):
    """Base class for replication-middleware failures."""

    retry = FATAL


def retry_label(exc: BaseException) -> str:
    """The one verdict on a failure that left a front door."""
    if isinstance(exc, MiddlewareError):
        return exc.retry
    if isinstance(exc, ConnectionError_):
        # a replica's availability fault, not the engine's answer
        return RETRY_SAFE
    return CLIENT_ERROR if isinstance(exc, SQLError) else FATAL


class MiddlewareDown(MiddlewareError):
    """The middleware instance itself has failed — with a centralized
    design a total outage (section 3.2), hence ``fatal``.  A raiser that
    knows of another instance of the service (an HA standby, the leader
    that deposed this one) passes ``retry-after-failover``."""

    def __init__(self, message: str = "", retry: Optional[str] = None):
        super().__init__(message)
        if retry is not None:
            self.retry = retry


class FencedOut(MiddlewareDown):
    """This instance was deposed by a fenced promotion: its epoch is
    older than the cluster's.  Raised instead of certifying a commit on
    a stale leader — the split-brain guard (``repro.ha``).  The new
    leader exists, or nothing could have advanced the fence."""

    retry = RETRY_AFTER_FAILOVER


class UnsupportedStatementError(MiddlewareError):
    """The statement cannot be replicated safely under the configured
    policy (e.g. ``UPDATE t SET x = RAND()`` under statement replication
    with the 'reject' non-determinism policy — section 4.3.2)."""

    retry = CLIENT_ERROR


class ReplicaUnavailable(MiddlewareError):
    """The operation needs a specific replica that cannot serve."""

    retry = RETRY_SAFE


class NoReplicaAvailable(MiddlewareError):
    """Every candidate replica is down or excluded; nothing was applied
    anywhere, and a repair or a failback brings one back."""

    retry = RETRY_SAFE


class CertifierDown(MiddlewareError):
    """The (centralized) certifier has failed — certification, and with it
    every update transaction, is unavailable (section 3.2)."""


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
    """The retry policy is spent: every attempt failed cleanly, a caller
    with a longer budget may go on.  ``ambiguous=True`` says instead
    that a commit's outcome is unknown and no layer may reissue it
    (``fatal``).  ``__cause__`` holds the last error."""

    retry = RETRY_SAFE

    def __init__(self, message: str = "", ambiguous: bool = False):
        super().__init__(message)
        self.ambiguous = ambiguous
        if ambiguous:
            self.retry = FATAL


class CircuitOpen(MiddlewareError):
    """Every candidate replica is ejected by its circuit breaker; the
    request was refused before reaching a backend."""

    retry = RETRY_SAFE


class Overloaded(MiddlewareError):
    """The admission gate (``repro.core.admission``) shed the request
    before any of it ran.  ``kind`` is the request class that was
    refused, ``reason`` one of the gate's ``REJECT_*`` labels."""

    retry = RETRY_SAFE

    def __init__(self, kind: str, reason: str):
        super().__init__(f"{kind} shed: {reason}")
        self.kind = kind
        self.reason = reason
