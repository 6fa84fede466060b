"""Shipped middleware state: the commit ledger, the epoch fence and the
standby's mirror of the leader's soft state.

The paper's section 3.2 diagnosis is that the middleware's *soft state*
(certifier log + sequence, session consistency tokens, balancer
affinity) dies with the process.  High availability therefore reduces to
answering one question precisely: which pieces of that state must reach
a standby *before* the client sees a commit acknowledgement, so that a
promotion loses nothing the client was told happened (RPO = 0)?

This module holds the answer's data structures, as plain data free of
any import from :mod:`repro.core` (the middleware reaches them only
through its :class:`~repro.ha.link.HALink`):

* :class:`CommitLedger` — client-transaction-id → outcome.  The leader
  records PENDING before anything global happens and COMMITTED before the
  client is acked; a promoted standby answers replay attempts from its
  shipped copy, which is what makes client failover *exactly-once*.
* :class:`EpochFence` — the monotonically increasing promotion epoch the
  replicas (conceptually) enforce.  A deposed leader still holding an old
  epoch is refused at commit time — the split-brain guard.
* :class:`ShippedCommit` — the wire format of one synchronous state
  shipment (see docs/HA.md for the field-by-field contract).
* :class:`StandbyState` — everything the standby accumulates; promotion
  (:mod:`repro.ha.promotion`) hydrates a middleware instance from it.
"""

from __future__ import annotations

from typing import Dict, FrozenSet, List, Optional, Tuple

PENDING = "pending"
COMMITTED = "committed"


class LedgerRecord:
    """One client transaction's fate, as the ledger knows it."""

    __slots__ = ("txn_id", "seq", "status")

    def __init__(self, txn_id: str, seq: int, status: str = PENDING):
        self.txn_id = txn_id
        self.seq = seq
        self.status = status

    def __repr__(self) -> str:
        return (f"LedgerRecord({self.txn_id!r}, seq={self.seq}, "
                f"{self.status})")


class CommitLedger:
    """Client-txn-id → outcome map with a two-phase discipline.

    ``prepare`` runs before any replica commits (outcome unknown);
    ``mark_committed`` runs once the commit is durable everywhere the
    propagation mode requires, and always *before* the client ack.  A
    replayed transaction whose id is already COMMITTED must not be
    re-applied — that is the exactly-once check.
    """

    def __init__(self):
        self._records: Dict[str, LedgerRecord] = {}
        self.stats = {"dropped_pending": 0}

    def prepare(self, txn_id: str, seq: int) -> LedgerRecord:
        record = LedgerRecord(txn_id, seq, PENDING)
        self._records[txn_id] = record
        return record

    def mark_committed(self, txn_id: str,
                       seq: Optional[int] = None) -> None:
        record = self._records.get(txn_id)
        if record is None:
            record = LedgerRecord(txn_id, seq or 0)
            self._records[txn_id] = record
        if seq is not None:
            record.seq = seq
        record.status = COMMITTED

    def committed(self, txn_id: str) -> bool:
        """Exactly-once check: ``True`` means a replay of ``txn_id`` must
        be answered as success without re-applying anything."""
        record = self._records.get(txn_id)
        return record is not None and record.status == COMMITTED

    def outcome(self, txn_id: str) -> Optional[LedgerRecord]:
        return self._records.get(txn_id)

    def pending_records(self) -> List[LedgerRecord]:
        return [r for r in self._records.values() if r.status == PENDING]

    def drop_pending(self, txn_id: str) -> bool:
        """Remove a PENDING record whose transaction aborted before the
        client ack (cross-shard 2PC presumed abort) — its replay must NOT
        dedup as success."""
        record = self._records.get(txn_id)
        if record is not None and record.status == PENDING:
            del self._records[txn_id]
            self.stats["dropped_pending"] += 1
            return True
        return False

    def resolve_pending(self, watermark: int
                        ) -> Tuple[List[LedgerRecord], List[LedgerRecord]]:
        """Settle every PENDING record against the replicas' applied
        watermark at promotion time.

        A pending commit with ``seq <= watermark`` physically committed at
        a replica before the leader died — it is durable, so it becomes
        COMMITTED (the client's replay will dedup).  A pending commit with
        ``seq > watermark`` never reached any replica — it is dropped, and
        its sequence number was never observed anywhere, so the new leader
        may reuse it.  Returns ``(now_committed, dropped)``.
        """
        resolved: List[LedgerRecord] = []
        dropped: List[LedgerRecord] = []
        for record in self.pending_records():
            if record.seq <= watermark:
                record.status = COMMITTED
                resolved.append(record)
            else:
                del self._records[record.txn_id]
                self.stats["dropped_pending"] += 1
                dropped.append(record)
        return resolved, dropped

    def __len__(self) -> int:
        return len(self._records)

    def __repr__(self) -> str:
        pending = len(self.pending_records())
        return (f"CommitLedger({len(self._records)} records, "
                f"{pending} pending)")


class EpochFence:
    """The monotonic promotion epoch (split-brain guard).

    Conceptually this lives *at the replicas*: a promotion advances the
    epoch cluster-wide, and a leader presenting an older epoch is refused
    (``admits`` returns False).  The simulation keeps it as one shared
    object, which models the same property — the deposed leader cannot
    win because the authority it would need to consult has moved on.
    """

    def __init__(self):
        self.epoch = 0
        self.history: List[int] = [0]

    def advance(self) -> int:
        self.epoch += 1
        self.history.append(self.epoch)
        return self.epoch

    def admits(self, epoch: int) -> bool:
        return epoch >= self.epoch

    def __repr__(self) -> str:
        return f"EpochFence(epoch={self.epoch})"


class ShippedCommit:
    """One synchronous shipment: everything the standby must know about
    one globally-ordered update unit before the client may be acked."""

    __slots__ = ("seq", "keys", "kind", "payload", "tables", "user",
                 "database", "txn_id", "client_id", "session_token",
                 "acked")

    def __init__(self, seq: int, keys: FrozenSet, kind: str, payload,
                 tables: Tuple[str, ...], user: str,
                 database: Optional[str],
                 txn_id: Optional[str] = None,
                 client_id: Optional[str] = None,
                 session_token: Optional[Tuple[int, int]] = None,
                 acked: bool = False):
        self.seq = seq
        self.keys = keys
        self.kind = kind              # "statements" | "writeset" | "ddl"
        self.payload = payload        # recovery-log payload, same shapes
        self.tables = tables
        self.user = user
        self.database = database
        self.txn_id = txn_id          # client transaction id (exactly-once)
        self.client_id = client_id
        self.session_token = session_token  # (last_commit_seq, last_seen_seq)
        # False until phase 2 (``StandbyState.apply_ack``): promotion
        # settles an unacked unit against the replicas' watermark.
        self.acked = acked

    def __repr__(self) -> str:
        return (f"ShippedCommit(seq={self.seq}, kind={self.kind!r}, "
                f"txn={self.txn_id!r})")


class StandbyState:
    """The standby's mirror of the leader's soft state.

    Updated synchronously by :class:`repro.ha.shipper.StateShipper` on
    every commit; read exactly once, at promotion, to hydrate the standby
    middleware.  Holding it as plain data (rather than poking the standby
    middleware live) keeps the shipping path cheap and makes the
    promotion-time resolution of the pending window explicit.
    """

    def __init__(self):
        self.certifier_log: List[Tuple[int, FrozenSet]] = []
        self.seq = 0
        self.commits: List[ShippedCommit] = []   # recovery-log mirror
        # the leader purged its logs up to here; so did this mirror
        self.purged_seq = 0
        self.ledger = CommitLedger()
        # client_id -> (last_commit_seq, last_seen_seq): reconnecting
        # clients restore read-your-writes across the failover
        self.session_tokens: Dict[str, Tuple[int, int]] = {}
        self.sticky: Dict[int, str] = {}         # balancer affinity
        self.master_name: Optional[str] = None

    def apply_prepare(self, shipped: ShippedCommit) -> None:
        """Phase 1 of a shipment: runs before any replica commits."""
        self.certifier_log.append((shipped.seq, shipped.keys))
        self.seq = max(self.seq, shipped.seq)
        self.commits.append(shipped)
        if shipped.txn_id is not None:
            self.ledger.prepare(shipped.txn_id, shipped.seq)

    def apply_ack(self, shipped: ShippedCommit) -> None:
        """Phase 2: the commit is durable; record outcome + tokens."""
        shipped.acked = True
        if shipped.txn_id is not None:
            self.ledger.mark_committed(shipped.txn_id, shipped.seq)
        if shipped.client_id is not None \
                and shipped.session_token is not None:
            self.session_tokens[shipped.client_id] = shipped.session_token

    def truncate(self, cut: int) -> None:
        """The leader's log maintenance, mirrored: drop every commit and
        certifier entry at or below ``cut``."""
        self.commits = [c for c in self.commits if c.seq > cut]
        self.certifier_log = [(seq, keys)
                              for seq, keys in self.certifier_log
                              if seq > cut]
        self.purged_seq = max(self.purged_seq, cut)

    def __repr__(self) -> str:
        return (f"StandbyState(seq={self.seq}, "
                f"log={len(self.certifier_log)}, "
                f"commits={len(self.commits)})")
