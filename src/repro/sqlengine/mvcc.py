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

from typing import List, Optional, Tuple

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


# what a reader without a transaction compares creator / deleter ids with:
# equal to no id, and unlike ``None`` not to an unset ``deleter_txn``
_NOBODY = object()


def visible_rows(table: Table, snapshot: Snapshot,
                 txn_id: Optional[int],
                 dirty: bool = False) -> List[RowVersion]:
    """The visible version of every logical row in ``table``, in chain
    order.

    A chain of one version — every row nobody has updated since the last
    vacuum — is answered by the visibility test alone, written out in the
    loop (it is :func:`version_visible` / :func:`version_visible_dirty`):
    with nothing to rank it against, :func:`visible_version` would return
    it or None.  Longer chains are ranked."""
    ts = snapshot.timestamp
    me = _NOBODY if txn_id is None else txn_id
    rows = []
    for chain in table._rows.values():
        if len(chain) > 1:
            version = _newest_visible(chain, snapshot, txn_id, dirty)
            if version is not None:
                rows.append(version)
            continue
        version = chain[0]
        if dirty:
            if version.deleter_txn is None and version.deleted_ts is None:
                rows.append(version)
            continue
        created = version.created_ts
        if (created is not None and created <= ts
                or version.creator_txn == me) \
                and version.deleter_txn != me:
            deleted = version.deleted_ts
            if deleted is None or deleted > ts:
                rows.append(version)
    return rows


def visible_in_range(table: Table, index, positions: range,
                     snapshot: Snapshot, txn_id: Optional[int],
                     dirty: bool = False) -> Tuple[List[RowVersion], int]:
    """``(versions, rows)``: the visible versions of the rows an ordered
    index holds under the keys ``index.ordered[positions.start:
    positions.stop]``, in that order, and how many rows were looked at.

    A row counts only under its visible version's own key — once, and in
    true key order, whatever other versions of it sit under other keys
    of the walk.  A key held by one version whose chain is that version
    alone is answered by the visibility test written out, as in
    :func:`visible_rows`; any other key ranks each of its rows'
    chains."""
    chains, entries = table._rows, index.entries
    ts = snapshot.timestamp
    me = _NOBODY if txn_id is None else txn_id
    found = []
    looked_at = 0
    for key in index.ordered[positions.start:positions.stop]:
        candidates = entries[key]
        if len(candidates) == 1:
            version, = candidates
            if len(chains[version.row_id]) == 1:
                looked_at += 1
                if dirty:
                    if version.deleter_txn is None \
                            and version.deleted_ts is None:
                        found.append(version)
                    continue
                created = version.created_ts
                if (created is not None and created <= ts
                        or version.creator_txn == me) \
                        and version.deleter_txn != me:
                    deleted = version.deleted_ts
                    if deleted is None or deleted > ts:
                        found.append(version)
                continue
        row_ids = {candidate.row_id for candidate in candidates}
        looked_at += len(row_ids)
        for row_id in row_ids:
            version = _newest_visible(chains[row_id], snapshot, txn_id,
                                      dirty)
            if version in candidates:
                found.append(version)
    return found, looked_at


def visible_probed(table: Table, index, keys, snapshot: Snapshot,
                   txn_id: Optional[int],
                   dirty: bool = False) -> Tuple[List[RowVersion], int]:
    """``(versions, rows)``: the visible versions of the rows ``index``
    holds under any of ``keys`` (key tuples), and how many rows were
    looked at.

    One key held by one version whose chain is that version alone — a
    primary-key read of a row nobody has updated since the last vacuum
    — is answered by the visibility test written out, as in
    :func:`visible_rows`; anything else ranks each row's chain as
    :func:`visible_version` does, rows in the order of their ids' set."""
    chains, entries = table._rows, index.entries
    if len(keys) == 1:
        candidates = entries.get(keys[0], ())
        if len(candidates) == 1:
            version, = candidates
            if len(chains[version.row_id]) == 1:
                if dirty:
                    visible = version.deleter_txn is None \
                        and version.deleted_ts is None
                else:
                    ts = snapshot.timestamp
                    me = _NOBODY if txn_id is None else txn_id
                    created = version.created_ts
                    deleted = version.deleted_ts
                    visible = (created is not None and created <= ts
                               or version.creator_txn == me) \
                        and version.deleter_txn != me \
                        and (deleted is None or deleted > ts)
                return ([version] if visible else []), 1
    row_ids = set()
    for key in keys:
        for candidate in entries.get(key, ()):
            row_ids.add(candidate.row_id)
    versions = []
    for row_id in row_ids:
        version = _newest_visible(chains.get(row_id, ()), snapshot, txn_id,
                                  dirty)
        if version is not None:
            versions.append(version)
    return versions, len(row_ids)


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
    return _newest_visible(table.version_chain(row_id), snapshot, txn_id,
                           dirty)


def _newest_visible(chain: List[RowVersion], snapshot: Snapshot,
                    txn_id: Optional[int],
                    dirty: bool) -> Optional[RowVersion]:
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
    engine.  Timestamps double as the global committed-state version;
    ``now`` is the latest one handed out (only :meth:`tick` moves it)."""

    __slots__ = ("now",)

    def __init__(self):
        self.now = 0

    def tick(self) -> int:
        self.now += 1
        return self.now

    def snapshot(self) -> Snapshot:
        return Snapshot(self.now)
