"""Versioned row storage.

Each table keeps, per logical row, an append-only chain of
:class:`RowVersion` objects stamped with the creating / deleting
transaction and, once those transactions commit, with monotonically
increasing commit timestamps.  Snapshot visibility (``mvcc.py``) is
evaluated against these stamps, which gives the engine MVCC semantics for
snapshot isolation and read-committed, and lets rollback simply unlink the
versions a transaction created.

Indexes are *maintained* hash structures (:class:`IndexDef`): every row
version is entered under its key tuple on insert and removed on
unlink/GC, so equality probes touch only the versions carrying the
probed key instead of the whole table.  A single-column index also keeps
its distinct non-NULL keys in sorted order beside the hash map, which is
the ordered way in for range predicates and ``ORDER BY ... LIMIT``.
Primary keys and unique columns get an index automatically; ``CREATE
INDEX`` adds more.  Index entries carry versions, not rows — visibility
filtering stays the reader's job, exactly as for a scan.
"""

from __future__ import annotations

import itertools
from bisect import bisect_left, bisect_right, insort
from typing import (
    Any, Dict, Iterable, List, Optional, Sequence, Set, Tuple,
)

from .errors import IntegrityError, NameError_
from .stmtcache import Memo
from .types import Column, coerce


class RowVersion:
    """One version of one logical row.

    ``created_ts``/``deleted_ts`` are ``None`` while the creating/deleting
    transaction is still in flight and get stamped at commit time.
    """

    __slots__ = ("row_id", "values", "creator_txn", "created_ts",
                 "deleter_txn", "deleted_ts")

    def __init__(self, row_id: int, values: Dict[str, Any], creator_txn: int):
        self.row_id = row_id
        self.values = values
        self.creator_txn = creator_txn
        self.created_ts: Optional[int] = None
        self.deleter_txn: Optional[int] = None
        self.deleted_ts: Optional[int] = None

    def __repr__(self) -> str:
        return (
            f"RowVersion(row={self.row_id}, created_ts={self.created_ts}, "
            f"deleted_ts={self.deleted_ts}, values={self.values})"
        )


class Table:
    """A versioned table: schema + row version chains + indexes."""

    def __init__(self, name: str, columns: Sequence[Column], temporary: bool = False):
        self.name = name
        self.columns: List[Column] = list(columns)
        self.temporary = temporary
        self._column_map = {c.name.lower(): c for c in self.columns}
        self._rows: Dict[int, List[RowVersion]] = {}
        #: row ids whose chain holds a version with a deleter — every
        #: chain vacuum may have to visit, filled by :meth:`mark_deleted`
        self._dirty: Set[int] = set()
        #: all versions, those whose creator has not committed
        #: (``created_ts`` is None), and the newest ``created_ts`` ever
        #: stamped here: with ``_dirty`` they decide :meth:`settled_at`
        self._versions = 0
        self._unstamped = 0
        self._newest_ts = 0
        self._row_counter = itertools.count(1)
        # Auto-increment counters are deliberately *non-transactional*:
        # a rollback does not give numbers back (paper section 4.2.3 /
        # 4.3.2 — "an auto-incremented key ... is not decremented at
        # rollback time").
        self._auto_counters: Dict[str, int] = {
            c.name.lower(): 0 for c in self.columns if c.auto_increment
        }
        # Interleaved key generation (MySQL's auto_increment_increment /
        # auto_increment_offset) — the standard multi-master mitigation for
        # duplicate auto keys: replica k of n hands out k, k+n, k+2n, ...
        self.auto_step = 1
        self.auto_offset = 1
        # All indexes are maintained hash maps (key tuple -> versions),
        # single-column ones with their keys in sorted order beside.
        # Constraint-backed ones (primary key, UNIQUE columns) are created
        # here with ``auto=True`` and cannot be dropped by DROP INDEX.
        self.indexes: Dict[str, "IndexDef"] = {}
        # Bumped on any schema change (columns, indexes); compiled access
        # plans (repro.sqlengine.planner) revalidate against it.  The
        # first _schema_changed takes it to 0 and derives the facts.
        self.schema_epoch = -1
        self._schema_changed()
        #: the planner's compiled access shapes for this table; owned
        #: here so they die with the rows they describe
        self.access_shapes = Memo()
        self.last_inserted_id: Optional[int] = None
        pk_columns = tuple(
            c.name.lower() for c in self.columns if c.primary_key)
        if pk_columns:
            self.attach_index(IndexDef(
                f"{name.lower()}_pkey", pk_columns, unique=True, auto=True))
        for c in self.columns:
            if c.unique and not c.primary_key:
                self.attach_index(IndexDef(
                    f"{name.lower()}_{c.name.lower()}_key",
                    (c.name.lower(),), unique=True, auto=True))

    # -- schema ------------------------------------------------------------

    def column(self, name: str) -> Column:
        column = self._column_map.get(name.lower())
        if column is None:
            raise NameError_(f"no column {name!r} in table {self.name!r}")
        return column

    def has_column(self, name: str) -> bool:
        return name.lower() in self._column_map

    @property
    def column_names(self) -> List[str]:
        return [c.name for c in self.columns]

    @property
    def primary_key_columns(self) -> List[Column]:
        return [c for c in self.columns if c.primary_key]

    def _schema_changed(self) -> None:
        """Every change to the columns or the indexes ends here: bump
        ``schema_epoch`` and re-derive what the schema decides for every
        row, which the row paths read as plain attributes — the primary
        key's column names (``()`` when there is none) and its index,
        one unique index per distinct column tuple as ``(columns,
        index)``, the NOT NULL columns as ``(key, name)``, and the
        lower-cased column names a SELECT binds its rows under."""
        self.schema_epoch += 1
        self.column_keys: Tuple[str, ...] = tuple(
            c.name.lower() for c in self.columns)
        self.primary_key_names: Tuple[str, ...] = tuple(
            c.name.lower() for c in self.columns if c.primary_key)
        self.primary_key_index: Optional[IndexDef] = self.index_for_columns(
            self.primary_key_names) if self.primary_key_names else None
        unique: Dict[tuple, IndexDef] = {}
        for index in self.indexes.values():
            if index.unique:
                unique.setdefault(index.key_columns, index)
        self.unique_indexes: List[Tuple[tuple, IndexDef]] = \
            list(unique.items())
        self.not_null_columns: List[Tuple[str, str]] = [
            (c.name.lower(), c.name) for c in self.columns if not c.nullable]

    def add_column(self, column: Column) -> None:
        if self.has_column(column.name):
            raise IntegrityError(
                f"column {column.name!r} already exists in {self.name!r}")
        self.columns.append(column)
        self._column_map[column.name.lower()] = column
        self._schema_changed()
        default = None
        for versions in self._rows.values():
            for version in versions:
                version.values.setdefault(column.name.lower(), default)

    # -- auto increment ------------------------------------------------------

    def next_auto_value(self, column_name: str) -> int:
        key = column_name.lower()
        current = self._auto_counters.get(key, 0)
        candidate = current + 1
        # advance to the next value in this replica's congruence class
        remainder = (self.auto_offset - candidate) % self.auto_step
        candidate += remainder
        self._auto_counters[key] = candidate
        return candidate

    def set_auto_interleave(self, step: int, offset: int) -> None:
        """Configure interleaved auto-increment generation (offset must be
        in 1..step)."""
        if step < 1 or not (1 <= offset <= step):
            raise ValueError("need step >= 1 and 1 <= offset <= step")
        self.auto_step = step
        self.auto_offset = offset

    def bump_auto_value(self, column_name: str, value: int) -> None:
        """Move the counter past an explicitly supplied value."""
        key = column_name.lower()
        if value > self._auto_counters.get(key, 0):
            self._auto_counters[key] = value

    def auto_counter_state(self) -> Dict[str, int]:
        return dict(self._auto_counters)

    # -- rows -----------------------------------------------------------------

    def new_row_id(self) -> int:
        return next(self._row_counter)

    def insert_version(self, values: Dict[str, Any], creator_txn: int,
                       row_id: Optional[int] = None) -> RowVersion:
        if row_id is None:
            row_id = self.new_row_id()
        version = RowVersion(row_id, values, creator_txn)
        self._rows.setdefault(row_id, []).append(version)
        self._versions += 1
        self._unstamped += 1
        for index in self.indexes.values():
            index.add(version)
        return version

    def stamp_created(self, version: RowVersion, ts: int) -> None:
        """Stamp ``ts`` as the commit timestamp of ``version``'s creator
        — the one place a version gains one, as :meth:`mark_deleted` is
        for a deleter."""
        if version.created_ts is None:
            self._unstamped -= 1
        version.created_ts = ts
        if ts > self._newest_ts:
            self._newest_ts = ts

    def settled_at(self, ts: int) -> bool:
        """Whether every version of this table is visible, and the only
        one of its chain, to every reader at snapshot ``ts`` — the
        table's all-visible fact.

        It holds when every chain is one version, no version has a
        deleter (``_dirty`` is empty), none waits for its creator's
        commit, and the newest commit stamped here is at or before
        ``ts``: the per-version test then passes for every reader at
        ``ts`` — its own transaction, any other, or READ UNCOMMITTED —
        so a scan may skip it.  (A chain of two versions with no deleter
        is rare but real: a writeset's update applied over a local
        transaction's update of the same row, both committed.)"""
        return not self._dirty and not self._unstamped \
            and self._versions == len(self._rows) and self._newest_ts <= ts

    def versions(self) -> Iterable[RowVersion]:
        for chain in self._rows.values():
            yield from chain

    def version_chain(self, row_id: int) -> List[RowVersion]:
        return self._rows.get(row_id, [])

    def remove_version(self, version: RowVersion) -> None:
        chain = self._rows.get(version.row_id)
        if chain is None:
            return
        try:
            chain.remove(version)
        except ValueError:
            pass
        else:
            self._versions -= 1
            if version.created_ts is None:
                self._unstamped -= 1
        if not chain:
            del self._rows[version.row_id]
        for index in self.indexes.values():
            index.discard(version)

    def mark_deleted(self, version: RowVersion, txn_id: int) -> None:
        """Stamp ``txn_id`` as ``version``'s deleter and note its chain
        for :meth:`gc_versions` — the one place a version gains one."""
        version.deleter_txn = txn_id
        self._dirty.add(version.row_id)

    def gc_versions(self, horizon_ts: int) -> int:
        """Garbage-collect versions whose deletion committed at or before
        ``horizon_ts`` (no snapshot that old remains).  Unlinks them from
        the chains *and* from every index.

        Only chains :meth:`mark_deleted` noted are visited — a version
        nobody deleted is never collectable — so a vacuum after read-only
        commits looks at no chain.  A chain stays noted while a version
        of it still carries a deleter (a deletion in flight, or one above
        the horizon that an old snapshot holds); one whose deletions were
        all collected or rolled back, or that is gone, drops out."""
        removed = 0
        rows = self._rows
        indexes = list(self.indexes.values())
        keep: Set[int] = set()
        for row_id in self._dirty:
            chain = rows.get(row_id)
            if chain is None:
                continue
            # one pass: each version is kept, or unlinked from the
            # indexes and dropped with the rest of the chain's dead
            survivors = []
            held = False
            for version in chain:
                deleted_ts = version.deleted_ts
                if deleted_ts is not None and deleted_ts <= horizon_ts:
                    for index in indexes:
                        index.discard(version)
                    continue
                survivors.append(version)
                if version.deleter_txn is not None:
                    held = True
            dead = len(chain) - len(survivors)
            if dead:
                removed += dead
                if survivors:
                    chain[:] = survivors
                else:
                    del rows[row_id]
            if held:
                keep.add(row_id)
        self._dirty = keep
        self._versions -= removed
        return removed

    # -- indexes & unique constraints -----------------------------------------

    def attach_index(self, index: "IndexDef") -> "IndexDef":
        """Attach ``index`` and populate it from the existing versions."""
        index.rebuild(self.versions())
        self.indexes[index.name.lower()] = index
        self._schema_changed()
        return index

    def create_index(self, name: str, columns: Sequence[str],
                     unique: bool = False) -> "IndexDef":
        """CREATE INDEX entry point: build, populate and attach."""
        return self.attach_index(IndexDef(name, columns, unique))

    def drop_index(self, name: str) -> bool:
        """Drop a non-constraint index by name; returns True if dropped."""
        index = self.indexes.get(name.lower())
        if index is None or index.auto:
            return False
        del self.indexes[name.lower()]
        self._schema_changed()
        return True

    def index_for_columns(self, columns: Sequence[str]) -> Optional["IndexDef"]:
        """The first index whose key is exactly ``columns`` (unique indexes
        preferred), or None."""
        key_columns = tuple(c.lower() for c in columns)
        best = None
        for index in self.indexes.values():
            if index.key_columns == key_columns:
                if index.unique:
                    return index
                best = best or index
        return best

    def coerce_row(self, values: Dict[str, Any]) -> Dict[str, Any]:
        """Validate and coerce a column->value mapping into a full row dict
        keyed by lowercase column name."""
        row: Dict[str, Any] = {}
        for column in self.columns:
            key = column.name.lower()
            row[key] = coerce(values.get(key), column.type)
        return row

    def check_not_null(self, row: Dict[str, Any]) -> None:
        for key, name in self.not_null_columns:
            if row.get(key) is None:
                raise IntegrityError(
                    f"null value in column {name!r} of table "
                    f"{self.name!r} violates not-null constraint")

    # -- stats ------------------------------------------------------------------

    def version_count(self) -> int:
        return sum(len(chain) for chain in self._rows.values())

    def logical_row_count(self) -> int:
        """Number of row chains — what a sequential scan has to visit."""
        return len(self._rows)

    def clone_schema(self) -> "Table":
        """An empty table with the same columns *and live indexes*.

        The clone's indexes are fresh maintained structures: constraint
        indexes come from the column flags, the rest are re-attached here,
        and all of them repopulate as rows are inserted — a replica rebuilt
        from this clone enforces uniqueness and serves index probes, it
        does not carry dead metadata shells.
        """
        table = Table(self.name, [c.clone() for c in self.columns], self.temporary)
        for index in self.indexes.values():
            if index.name.lower() in table.indexes:
                continue  # constraint index already created from the schema
            table.attach_index(IndexDef(
                index.name, index.columns, index.unique, auto=index.auto))
        return table


_EMPTY_SET: frozenset = frozenset()


class IndexDef:
    """A maintained hash index: key tuple -> set of row versions.

    Every version of every row is entered under its key; readers probe
    with a full key tuple and apply MVCC visibility to the candidates,
    exactly as they would while scanning.  Unique indexes double as the
    enforcement structure for uniqueness checks.

    A single-column index also keeps ``ordered``: the distinct non-NULL
    keys of ``entries`` in sorted order, touched only when a key first
    appears or its last version goes (an update that keeps the key never
    does either).  A key that will not order against its neighbours
    drops the view (``ordered = None``) until the next :meth:`rebuild`:
    in doubt, readers scan."""

    __slots__ = ("name", "columns", "unique", "auto", "entries", "ordered")

    def __init__(self, name: str, columns: Sequence[str], unique: bool = False,
                 auto: bool = False):
        self.name = name
        self.columns = [c.lower() for c in columns]
        self.unique = unique
        # auto=True marks constraint-backed indexes (primary key / UNIQUE
        # column); they are created with the table and survive DROP INDEX.
        self.auto = auto
        self.entries: Dict[tuple, set] = {}
        self.ordered: Optional[List[tuple]] = \
            [] if len(self.columns) == 1 else None

    @property
    def key_columns(self) -> tuple:
        return tuple(self.columns)

    def key_for(self, row: Dict[str, Any]) -> tuple:
        return tuple(map(row.get, self.columns))

    def add(self, version: RowVersion) -> None:
        key = tuple(map(version.values.get, self.columns))
        versions = self.entries.get(key)
        if versions is not None:
            versions.add(version)
            return
        self.entries[key] = {version}
        ordered = self.ordered
        if ordered is None or key[0] is None:
            return
        try:
            if not ordered or ordered[-1] < key:
                ordered.append(key)     # ascending loads never shift
            else:
                insort(ordered, key)
        except TypeError:
            self.ordered = None
        if key[0] != key[0]:
            # NaN compares false against everything: wherever it went,
            # the list around it no longer bisects
            self.ordered = None

    def discard(self, version: RowVersion) -> None:
        key = tuple(map(version.values.get, self.columns))
        versions = self.entries.get(key)
        if versions is not None:
            versions.discard(version)
            if not versions:
                del self.entries[key]
                if self.ordered is not None and key[0] is not None:
                    del self.ordered[bisect_left(self.ordered, key)]

    def probe(self, key: Sequence[Any]):
        """All versions carrying ``key`` (no visibility filtering)."""
        return self.entries.get(tuple(key), _EMPTY_SET)

    def position(self, value: Any, after: bool) -> Optional[int]:
        """How many ordered keys sort before ``value`` — or, with
        ``after``, before or equal to it.  ``None`` when there is no
        ordered view or ``value`` will not order against the keys."""
        if self.ordered is None:
            return None
        try:
            return (bisect_right if after else bisect_left)(
                self.ordered, (value,))
        except TypeError:
            return None

    def rebuild(self, versions: Iterable[RowVersion]) -> None:
        self.entries.clear()
        self.ordered = [] if len(self.columns) == 1 else None
        for version in versions:
            self.add(version)

    def entry_count(self) -> int:
        return sum(len(versions) for versions in self.entries.values())

    def __repr__(self) -> str:
        return (f"IndexDef({self.name!r}, columns={self.columns}, "
                f"unique={self.unique}, keys={len(self.entries)})")
