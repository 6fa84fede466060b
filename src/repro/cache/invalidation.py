"""Writeset-driven cache invalidation.

The middleware publishes one :class:`CertifiedWrite` per committed update
unit — a certified writeset, a statement-mode transaction's derived
footprint, or a DDL broadcast.  The :class:`WritesetInvalidator` consumes
that stream and keeps two facts straight:

* **what is dead** — entries whose dependencies intersect the write's
  ``(db, table, pk)`` footprint are dropped at key granularity; non-keyed
  footprints (``pk=None``) kill everything on the table; DDL and opaque
  units (stored procedures, trigger-bearing tables, underivable
  statements — the paper's §4 pitfalls) flush the whole cache, because
  serving stale is the one failure mode a replication cache must never
  have;
* **how fresh the survivors are** — ``applied_seq`` is the highest
  sequence the invalidator has processed; a surviving entry is valid as
  of that watermark, which is what the consistency gate compares against
  the protocol's ``min_read_seq``.

A bounded history of recent footprints additionally answers the *fill
guard* question: a read executed on a replica lagging at sequence ``s``
may only be cached if no footprint in ``(s, applied_seq]`` overlaps its
dependencies — otherwise the fill would launder stale replica state into
a "fresh as of ``applied_seq``" entry.  Outside the history window the
answer is *unknown* and the fill is refused.
"""

from __future__ import annotations

from collections import deque
from typing import Deque, FrozenSet, Optional, Set, Tuple

from .dependencies import ReadDependencies

TableKey = Tuple[str, str]

#: kinds whose footprint cannot be trusted at key granularity
OPAQUE_KINDS = frozenset({"ddl", "opaque"})


class CertifiedWrite:
    """One committed update unit on the certified stream.

    ``keys`` is the invalidation footprint: ``(db, table, pk)`` triples
    with ``pk=None`` meaning whole-table.  ``kind`` is ``"writeset"``,
    ``"statements"``, ``"ddl"`` or ``"opaque"``.
    """

    __slots__ = ("seq", "keys", "tables", "kind", "database")

    def __init__(self, seq: int, keys: FrozenSet = frozenset(),
                 tables: FrozenSet[TableKey] = frozenset(),
                 kind: str = "writeset", database: Optional[str] = None):
        self.seq = seq
        self.keys = keys
        self.tables = tables
        self.kind = kind
        self.database = database

    def __repr__(self) -> str:
        return (f"CertifiedWrite(seq={self.seq}, kind={self.kind}, "
                f"keys={len(self.keys)})")


class _Footprint:
    """What one historical write touched, for the fill guard.  ``None``
    points/tables (an opaque unit) conflicts with everything."""

    __slots__ = ("seq", "points", "tables")

    def __init__(self, seq: int, points: Optional[Set],
                 tables: Optional[Set[TableKey]]):
        self.seq = seq
        self.points = points
        self.tables = tables

    @property
    def opaque(self) -> bool:
        return self.points is None

    def overlaps(self, deps: ReadDependencies) -> bool:
        if self.opaque:
            return True
        if self.tables and any(t in deps.tables for t in self.tables):
            return True
        if not self.points:
            return False
        broad = deps.tables - deps.point_tables
        for point in self.points:
            if point in deps.point_keys:
                return True
            if (point[0], point[1]) in broad:
                return True
        return False


class WritesetInvalidator:
    """Subscriber on the middleware's certified-write stream."""

    def __init__(self, cache, history_limit: int = 1024):
        self.cache = cache
        self.history_limit = history_limit
        self.applied_seq = 0
        # events with seq <= _floor_seq may be missing from history
        self._floor_seq = 0
        self._history: Deque[_Footprint] = deque()

    # ------------------------------------------------------------------
    # lifecycle
    # ------------------------------------------------------------------

    def attach(self, middleware) -> None:
        """Subscribe and align the watermark with the middleware's current
        global sequence (nothing is cached yet, so nothing is owed)."""
        self.reset(middleware.global_seq)
        middleware.on_certified(self.on_certified)

    def reset(self, seq: int) -> None:
        """Middleware recovery / (re)attachment: the stream may have
        gapped, so drop everything and restart the watermark."""
        if len(self.cache):
            self.cache.flush()
        self._history.clear()
        self.applied_seq = seq
        self._floor_seq = seq

    # ------------------------------------------------------------------
    # the stream
    # ------------------------------------------------------------------

    def on_certified(self, event: CertifiedWrite) -> None:
        cache = self.cache
        cache.stats["invalidation_events"] += 1
        if event.kind in OPAQUE_KINDS:
            cache.flush()
            footprint = _Footprint(event.seq, None, None)
        else:
            points: Set = set()
            tables: Set[TableKey] = set()
            for database, table, pk in event.keys:
                if pk is None:
                    tables.add((database, table))
                    cache.invalidate_table((database, table))
                else:
                    points.add((database, table, pk))
                    cache.invalidate_point((database, table, pk))
            footprint = _Footprint(event.seq, points, tables)
        self.applied_seq = max(self.applied_seq, event.seq)
        self._history.append(footprint)
        while len(self._history) > self.history_limit:
            dropped = self._history.popleft()
            self._floor_seq = max(self._floor_seq, dropped.seq)

    # ------------------------------------------------------------------
    # fill guard
    # ------------------------------------------------------------------

    def conflicts_since(self, after_seq: int,
                        deps: ReadDependencies) -> Optional[bool]:
        """Did any certified write in ``(after_seq, applied_seq]`` overlap
        ``deps``?  ``None`` means the window extends past the bounded
        history — the caller must treat it as a conflict."""
        if after_seq >= self.applied_seq:
            return False
        if after_seq < self._floor_seq:
            return None
        for footprint in reversed(self._history):
            if footprint.seq <= after_seq:
                break
            if footprint.overlaps(deps):
                return True
        return False

    def __repr__(self) -> str:
        return (f"WritesetInvalidator(applied_seq={self.applied_seq}, "
                f"history={len(self._history)})")
