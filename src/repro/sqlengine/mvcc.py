"""Multi-version concurrency control: snapshots and visibility.

The engine runs transactions under one of four isolation levels:

* ``READ UNCOMMITTED`` — the newest non-rolled-back version wins.
* ``READ COMMITTED``   — a fresh snapshot per statement (every engine's
  default, and what "most production applications use for performance
  reasons" per paper section 4.1.2).
* ``SNAPSHOT`` / ``REPEATABLE READ`` — one snapshot for the whole
  transaction plus first-updater-wins write-conflict detection.
* ``SERIALIZABLE`` — snapshot reads plus two-phase table locking
  (a pragmatic 1SR implementation; see locks.py).

Visibility is the classic MVCC rule: a version is visible to transaction T
with snapshot S when it was created by T itself or committed no later than
S, and not deleted by T or by a transaction that committed no later than S.
"""

from __future__ import annotations

from typing import Any, Dict, Iterable, List, Optional

from .storage import RowVersion, Table


# Isolation level constants (normalized spellings).
READ_UNCOMMITTED = "READ UNCOMMITTED"
READ_COMMITTED = "READ COMMITTED"
REPEATABLE_READ = "REPEATABLE READ"
SNAPSHOT = "SNAPSHOT"
SERIALIZABLE = "SERIALIZABLE"

SNAPSHOT_LEVELS = frozenset({SNAPSHOT, REPEATABLE_READ, SERIALIZABLE})


class Snapshot:
    """An immutable read timestamp: everything committed at or before
    ``timestamp`` is visible."""

    __slots__ = ("timestamp",)

    def __init__(self, timestamp: int):
        self.timestamp = timestamp

    def __repr__(self) -> str:
        return f"Snapshot({self.timestamp})"


def version_visible(version: RowVersion, snapshot: Snapshot,
                    txn_id: Optional[int]) -> bool:
    """True when ``version`` is visible to the transaction ``txn_id``
    reading at ``snapshot``."""
    created_by_me = txn_id is not None and version.creator_txn == txn_id
    if not created_by_me:
        if version.created_ts is None or version.created_ts > snapshot.timestamp:
            return False
    deleted_by_me = txn_id is not None and version.deleter_txn == txn_id
    if deleted_by_me:
        return False
    if version.deleted_ts is not None and version.deleted_ts <= snapshot.timestamp:
        return False
    return True


def version_visible_dirty(version: RowVersion) -> bool:
    """READ UNCOMMITTED visibility: any version that is neither deleted
    nor superseded — including uncommitted ones."""
    return version.deleter_txn is None and version.deleted_ts is None


def visible_rows(table: Table, snapshot: Snapshot,
                 txn_id: Optional[int],
                 dirty: bool = False) -> Iterable[RowVersion]:
    """Yield the visible version of every logical row in ``table``.  A
    chain of one version — every row nobody has updated since the last
    vacuum — is answered by the visibility test alone: with nothing to
    rank it against, :func:`visible_version` would return it or None."""
    for row_id, chain in list(table._rows.items()):
        if len(chain) > 1:
            version = visible_version(table, row_id, snapshot, txn_id,
                                      dirty=dirty)
            if version is not None:
                yield version
        elif version_visible_dirty(chain[0]) if dirty \
                else version_visible(chain[0], snapshot, txn_id):
            yield chain[0]


def visible_version(table: Table, row_id: int, snapshot: Snapshot,
                    txn_id: Optional[int],
                    dirty: bool = False) -> Optional[RowVersion]:
    """The visible version of one logical row, or None when the row does
    not exist for this reader.

    Among the versions passing the visibility test, the one with the
    highest commit timestamp wins (the reader's own uncommitted version
    ranks newest).  Chain position alone is not enough: concurrent
    writeset application can append an older-committed version after a
    local uncommitted one.
    """
    chain = table.version_chain(row_id)
    best = None
    best_key = None
    for index, version in enumerate(chain):
        if dirty:
            if not version_visible_dirty(version):
                continue
        elif not version_visible(version, snapshot, txn_id):
            continue
        own = txn_id is not None and version.creator_txn == txn_id \
            and version.created_ts is None
        key = (float("inf") if own else (version.created_ts or 0), index)
        if best_key is None or key > best_key:
            best = version
            best_key = key
    return best


def latest_committed_change(chain: List[RowVersion]) -> int:
    """The commit timestamp of the newest committed create/delete event on a
    version chain; 0 when nothing committed yet.  Used by first-updater-wins
    conflict detection."""
    newest = 0
    for version in chain:
        if version.created_ts is not None:
            newest = max(newest, version.created_ts)
        if version.deleted_ts is not None:
            newest = max(newest, version.deleted_ts)
    return newest


def uncommitted_writer(chain: List[RowVersion],
                       txn_id: Optional[int]) -> Optional[int]:
    """The id of another in-flight transaction that created or deleted a
    version on this chain, or None.  A non-None answer means a write-write
    conflict for MVCC writers."""
    for version in chain:
        if version.created_ts is None and version.creator_txn != txn_id:
            return version.creator_txn
        if (version.deleter_txn is not None and version.deleted_ts is None
                and version.deleter_txn != txn_id):
            return version.deleter_txn
    return None


class CommitClock:
    """Monotonic commit-timestamp source shared by all transactions of one
    engine.  Timestamps double as the global committed-state version."""

    def __init__(self):
        self._now = 0

    @property
    def now(self) -> int:
        return self._now

    def tick(self) -> int:
        self._now += 1
        return self._now

    def snapshot(self) -> Snapshot:
        return Snapshot(self._now)


def row_as_dict(version: RowVersion) -> Dict[str, Any]:
    """A defensive copy of the version's values."""
    return dict(version.values)
