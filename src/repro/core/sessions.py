"""Connection pools, multipools and transferable transaction contexts
(paper section 4.3.3).

* :class:`ConnectionPool` — pools middleware sessions.  The failback
  problem is reproduced faithfully: "most database APIs do not provide
  information on the endpoint of a database connection", so after a
  failover the pool cannot tell which pooled sessions still point at the
  recovered replica; only aggressive recycling redistributes load, "but
  this defeats the advantages of a connection pool".
* :class:`MultiPool` — WebLogic-style: a primary pool with failover to a
  secondary pool when the primary's middleware is down.
* :class:`TransactionContext` — the missing industry API the paper calls
  for: pause a transaction, serialize its state, resume it on another
  connection.  Statement-mode transactions can be replayed exactly; the
  context carries the session view so consistency guarantees carry over.
"""

from __future__ import annotations

from typing import Any, Dict, List, Optional, Tuple

from .errors import MiddlewareDown, MiddlewareError
from .middleware import MiddlewareSession, ReplicationMiddleware
from .transaction import OpenTransaction


class ConnectionPool:
    """A fixed-size pool of middleware sessions."""

    def __init__(self, middleware: ReplicationMiddleware, size: int = 8,
                 user: str = "admin", password: str = "",
                 database: Optional[str] = None,
                 recycle_aggressively: bool = False):
        self.middleware = middleware
        self.size = size
        self.user = user
        self.password = password
        self.database = database
        # Aggressive recycling closes a session on every release so the
        # next acquire re-balances — the failback "fix" that forfeits
        # pooling benefits (section 4.3.3).
        self.recycle_aggressively = recycle_aggressively
        self._idle: List[MiddlewareSession] = []
        self._busy: List[MiddlewareSession] = []
        self.stats = {"opened": 0, "reused": 0, "recycled": 0,
                      "evicted_dead": 0}

    def acquire(self) -> MiddlewareSession:
        while self._idle:
            session = self._idle.pop()
            if session.closed:
                self.stats["evicted_dead"] += 1
                continue
            self._busy.append(session)
            self.stats["reused"] += 1
            return session
        if len(self._busy) >= self.size:
            raise MiddlewareError(f"pool exhausted ({self.size} sessions)")
        session = self.middleware.connect(self.user, self.password,
                                          self.database)
        self._busy.append(session)
        self.stats["opened"] += 1
        return session

    def release(self, session: MiddlewareSession) -> None:
        if session in self._busy:
            self._busy.remove(session)
        if session.closed:
            self.stats["evicted_dead"] += 1
            return
        if self.recycle_aggressively:
            session.close()
            self.stats["recycled"] += 1
            return
        self._idle.append(session)

    def close(self) -> None:
        for session in self._idle + self._busy:
            session.close()
        self._idle.clear()
        self._busy.clear()

    @property
    def idle_count(self) -> int:
        return len(self._idle)


class MultiPool:
    """Failover across pools (WebLogic multipool [5]): try the primary,
    fall back to the secondary when the primary middleware is down."""

    def __init__(self, pools: List[ConnectionPool]):
        if not pools:
            raise ValueError("need at least one pool")
        self.pools = pools
        self.stats = {"primary_hits": 0, "failovers": 0}

    def acquire(self) -> Tuple[MiddlewareSession, ConnectionPool]:
        last_error: Optional[Exception] = None
        for index, pool in enumerate(self.pools):
            if pool.middleware.failed:
                continue
            try:
                session = pool.acquire()
                if index == 0:
                    self.stats["primary_hits"] += 1
                else:
                    self.stats["failovers"] += 1
                return session, pool
            except (MiddlewareDown, MiddlewareError) as exc:
                last_error = exc
        raise MiddlewareDown(
            f"every pool is down ({last_error})")


class TransactionContext:
    """A paused, serialized, transferable transaction (the API the paper's
    industrial agenda asks for — section 5.2 'Transaction abstraction').

    Only statement-mode transactions can be resumed exactly: the context
    carries the ordered statement log; resuming replays it inside a new
    transaction on another session.  (Writeset-mode transactions live
    inside one replica's uncommitted state and cannot be externalized —
    the very asymmetry section 4.3.3 describes.)
    """

    def __init__(self, statements: List[Tuple[str, list]],
                 isolation: Optional[str],
                 last_commit_seq: int, last_seen_seq: int,
                 user: str, database: Optional[str]):
        self.statements = statements
        self.isolation = isolation
        self.last_commit_seq = last_commit_seq
        self.last_seen_seq = last_seen_seq
        self.user = user
        self.database = database

    @classmethod
    def pause(cls, session: MiddlewareSession) -> "TransactionContext":
        """Capture and abort the session's open transaction, returning a
        context that can resume it elsewhere."""
        txn = session.txn
        if txn is None:
            raise MiddlewareError("no transaction to pause")
        if session.middleware.config.replication != "statement" \
                and txn.is_write:
            raise MiddlewareError(
                "writeset-mode transactions cannot be externalized "
                "(section 4.3.3: the transaction lives at one replica)")
        context = cls.capture_for_retry(txn)
        session.rollback()
        return context

    @classmethod
    def capture_for_retry(cls, txn: OpenTransaction) -> "TransactionContext":
        """Build a context from a transaction's record: a live one for
        :meth:`pause`, an *already dead* one for the resilience layer's
        automatic replay-on-a-survivor.

        Unlike :meth:`pause`, this accepts writeset-mode transactions:
        the externalization refusal exists because a *live* writeset
        transaction's state cannot leave its replica — but a transaction
        whose replica died before commit left no state anywhere, so
        replaying its logged statements elsewhere is exact.
        """
        session = txn.session
        return cls(
            statements=[(sql, list(params)) for sql, params in txn.statements],
            isolation=txn.isolation,
            last_commit_seq=session.view.last_commit_seq,
            last_seen_seq=session.view.last_seen_seq,
            user=session.user, database=session.database,
        )

    def resume(self, session: MiddlewareSession) -> None:
        """Replay the paused transaction on ``session`` (left open — the
        caller continues issuing statements and finally commits)."""
        if session.in_transaction:
            raise MiddlewareError("target session already has a transaction")
        session.view.last_commit_seq = max(
            session.view.last_commit_seq, self.last_commit_seq)
        session.view.last_seen_seq = max(
            session.view.last_seen_seq, self.last_seen_seq)
        session.begin(self.isolation)
        for sql, params in self.statements:
            session.execute(sql, params)

    def to_dict(self) -> Dict[str, Any]:
        return {
            "statements": self.statements,
            "isolation": self.isolation,
            "last_commit_seq": self.last_commit_seq,
            "last_seen_seq": self.last_seen_seq,
            "user": self.user,
            "database": self.database,
        }

    @classmethod
    def from_dict(cls, data: Dict[str, Any]) -> "TransactionContext":
        return cls(
            statements=[(sql, list(params))
                        for sql, params in data["statements"]],
            isolation=data.get("isolation"),
            last_commit_seq=data.get("last_commit_seq", 0),
            last_seen_seq=data.get("last_seen_seq", 0),
            user=data.get("user", "admin"),
            database=data.get("database"),
        )
