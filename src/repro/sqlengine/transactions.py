"""Transaction objects, writeset capture and commit/rollback bookkeeping.

A transaction tracks:

* the row versions it created or marked deleted (its undo log),
* a :class:`Writeset` — the logical changes, in order, keyed by primary
  key where available.  The writeset is what transaction-replication
  middleware propagates (paper footnote 2: "the set of data W updated by a
  transaction T, such that applying W to a replica is equivalent to
  executing T on it"),
* the set of tables read and written (readset/writeset table names), used
  by certification and by the memory-aware load balancer,
* sequence and auto-increment side effects, which are *not* undone by
  rollback and are *not* part of the writeset — reproducing the divergence
  gap of section 4.3.2.
"""

from __future__ import annotations

import enum
from typing import Any, Dict, List, Optional, Set, Tuple

from .mvcc import SNAPSHOT_LEVELS, Snapshot
from .storage import RowVersion, Table


class TransactionStatus(enum.Enum):
    ACTIVE = "active"
    COMMITTED = "committed"
    ABORTED = "aborted"
    # PostgreSQL-style dialects park a transaction here after any error;
    # further statements fail until ROLLBACK (paper section 4.1.2).
    FAILED = "failed"


class WritesetEntry:
    """One logical row change."""

    __slots__ = ("database", "table", "op", "primary_key", "old_values",
                 "new_values", "row_id")

    def __init__(self, database: str, table: str, op: str,
                 primary_key: Optional[Tuple], old_values: Optional[Dict[str, Any]],
                 new_values: Optional[Dict[str, Any]], row_id: int):
        self.database = database
        self.table = table
        self.op = op                  # "INSERT" | "UPDATE" | "DELETE"
        self.primary_key = primary_key
        self.old_values = old_values
        self.new_values = new_values
        self.row_id = row_id

    def __repr__(self) -> str:
        return f"WritesetEntry({self.op} {self.database}.{self.table} pk={self.primary_key})"

    def to_dict(self) -> Dict[str, Any]:
        return {
            "database": self.database,
            "table": self.table,
            "op": self.op,
            "primary_key": self.primary_key,
            "old_values": self.old_values,
            "new_values": self.new_values,
        }


class Writeset:
    """Ordered list of row changes made by one transaction."""

    __slots__ = ("entries",)

    def __init__(self):
        self.entries: List[WritesetEntry] = []

    def add(self, entry: WritesetEntry) -> None:
        self.entries.append(entry)

    def __len__(self) -> int:
        return len(self.entries)

    def __iter__(self):
        return iter(self.entries)

    def tables(self) -> Set[Tuple[str, str]]:
        return {(e.database, e.table) for e in self.entries}

    def keys(self) -> Set[Tuple[str, str, Optional[Tuple]]]:
        """(database, table, primary key) triples — the conflict footprint
        used by snapshot-isolation certification."""
        return {(e.database, e.table, e.primary_key) for e in self.entries}

    def is_empty(self) -> bool:
        return not self.entries


class Transaction:
    """A transaction running inside one engine."""

    __slots__ = ("id", "isolation", "snapshot", "user", "explicit",
                 "status", "start_ts", "commit_ts", "writeset",
                 "created_versions", "deleted_versions", "sequence_effects",
                 "auto_increment_effects", "temp_tables_created",
                 "_statement_error")

    def __init__(self, txn_id: int, isolation: str, snapshot: Snapshot,
                 user: str, explicit: bool = True):
        self.id = txn_id
        self.isolation = isolation
        self.snapshot = snapshot
        self.user = user
        self.explicit = explicit
        self.status = TransactionStatus.ACTIVE
        self.start_ts = snapshot.timestamp
        self.commit_ts: Optional[int] = None

        self.writeset = Writeset()

        # Undo information: versions created by this txn and versions this
        # txn marked deleted (so rollback can clear the marks).
        self.created_versions: List[Tuple[Table, RowVersion]] = []
        self.deleted_versions: List[RowVersion] = []

        # Side effects that survive rollback (section 4.2.3 / 4.3.2).
        self.sequence_effects: List[Tuple[str, str, int]] = []   # (db, seq, value)
        self.auto_increment_effects: List[Tuple[str, str, int]] = []

        # Temp tables created inside the transaction (Sybase-like dialects
        # forbid this; transaction-scoped temp tables are dropped at end).
        self.temp_tables_created: List[str] = []

        self._statement_error: Optional[str] = None

    # -- snapshots --------------------------------------------------------

    def read_snapshot(self, now: int) -> Snapshot:
        """The snapshot a statement should read at, the commit clock
        standing at ``now``: the transaction-wide one for snapshot-class
        isolation, else one at ``now`` — the transaction's own when
        nothing committed since it began (always so for an implicit
        transaction's one statement)."""
        snapshot = self.snapshot
        if snapshot.timestamp == now or self.isolation in SNAPSHOT_LEVELS:
            return snapshot
        return Snapshot(now)

    @property
    def uses_transaction_snapshot(self) -> bool:
        return self.isolation in SNAPSHOT_LEVELS

    # -- bookkeeping --------------------------------------------------------

    def note_created(self, table: Table, version: RowVersion) -> None:
        self.created_versions.append((table, version))

    def note_deleted(self, version: RowVersion) -> None:
        self.deleted_versions.append(version)

    def mark_failed(self, message: str) -> None:
        self.status = TransactionStatus.FAILED
        self._statement_error = message

    @property
    def is_active(self) -> bool:
        return self.status is TransactionStatus.ACTIVE

    def __repr__(self) -> str:
        return f"Transaction(id={self.id}, status={self.status.value}, iso={self.isolation!r})"
