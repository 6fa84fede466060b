"""Exactly-once client failover against an :class:`~repro.ha.pair.HAPair`.

The client side of the HA contract: a stable ``client_id``, a fresh
``client_txn_id`` per transaction, and a replay loop that on middleware
death (a) re-resolves the virtual IP, (b) restores the session's
consistency token from shipped state (read-your-writes survives the
failover), and (c) asks the new leader's commit ledger whether the
in-flight transaction already committed before replaying it.  The ledger
answer is authoritative because shipping is synchronous: COMMITTED means
durable, absent-or-dropped means no replica ever committed it.  Either
way the transaction's effects happen exactly once.
"""

from __future__ import annotations

import itertools
from typing import List, Optional, Sequence

from ..core.errors import MiddlewareDown

#: replay outcomes reported by :meth:`HAClient.run_transaction`
COMMITTED = "committed"
DEDUPED = "deduped"


def committed_before(middleware, txn_id: Optional[str]) -> bool:
    """The exactly-once replay check: did an earlier attempt of client
    transaction ``txn_id`` commit?  Asked before replaying a write after
    a failure; only a leader's commit ledger can answer, so without one
    the answer is no.  Both :class:`HAClient` and the timed client loop
    (``repro.bench.simdriver``) ask it."""
    ha = middleware.ha
    return ha is not None and ha.ledger.committed(txn_id)


class HAClient:
    """A client that survives middleware failover transparently."""

    def __init__(self, pair, client_id: str, user: str = "admin",
                 database: Optional[str] = None, max_failovers: int = 3):
        self.pair = pair
        self.client_id = client_id
        self.user = user
        self.database = database
        self.max_failovers = max_failovers
        self._txn_ids = itertools.count(1)
        self.session = None
        self.stats = {"transactions": 0, "failovers": 0, "dedup_hits": 0,
                      "replays": 0}

    # -- session management --------------------------------------------------

    def _ensure_session(self):
        if self.session is None or self.session.closed \
                or self.session.middleware is not self.pair.active:
            if self.session is not None and not self.session.closed:
                self.session.close()
            self.session = self.pair.connect(
                self.user, database=self.database,
                client_id=self.client_id)
        return self.session

    def close(self) -> None:
        if self.session is not None and not self.session.closed:
            self.session.close()
        self.session = None

    # -- the exactly-once transaction loop -----------------------------------

    def run_transaction(self, statements: Sequence[str],
                        txn_id: Optional[str] = None) -> str:
        """Run ``statements`` as one transaction with exactly-once
        semantics across middleware failover.  Returns ``"committed"``
        (this attempt applied it) or ``"deduped"`` (a previous attempt
        already committed; nothing was re-applied)."""
        if txn_id is None:
            txn_id = f"{self.client_id}:{next(self._txn_ids)}"
        self.stats["transactions"] += 1
        attempt = 0
        while True:
            try:
                session = self._ensure_session()
                if attempt > 0:
                    if committed_before(self.pair.active, txn_id):
                        self.stats["dedup_hits"] += 1
                        self.pair.active.monitor.record(
                            "ha_client_dedup", self.client_id,
                            txn_id=txn_id)
                        return DEDUPED
                    self.stats["replays"] += 1
                session.client_txn_id = txn_id
                try:
                    session.execute("BEGIN")
                    for sql in statements:
                        session.execute(sql)
                    session.execute("COMMIT")
                finally:
                    if not session.closed:
                        session.client_txn_id = None
                return COMMITTED
            except MiddlewareDown as exc:
                # FencedOut subclasses MiddlewareDown: both mean "this
                # instance can no longer serve me" — re-resolve the VIP
                attempt += 1
                self.stats["failovers"] += 1
                self.session = None
                if attempt > self.max_failovers:
                    raise
                if self.pair.active.failed:
                    # nobody to fail over to (yet) — surface the outage
                    raise MiddlewareDown(
                        f"no live middleware instance ({exc})") from exc

    def execute(self, sql: str, params: Optional[List] = None):
        """Autocommit convenience with the same failover handling."""
        attempt = 0
        while True:
            try:
                return self._ensure_session().execute(sql, params)
            except MiddlewareDown:
                attempt += 1
                self.stats["failovers"] += 1
                self.session = None
                if attempt > self.max_failovers or self.pair.active.failed:
                    raise

    def __repr__(self) -> str:
        return f"HAClient({self.client_id!r})"
