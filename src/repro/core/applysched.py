"""Dependency-aware scheduling for batched writeset apply.

Replica apply is the scalability ceiling once reads are offloaded
(paper section 2.2): a serial applier caps sustainable write throughput
at one writeset at a time regardless of how parallel the origin load
was.  The ``(database, table, primary_key)`` conflict footprints that
certification already computes are exactly the dependency metadata
needed to do better: two writesets whose footprints do not overlap
commute, so a replica may apply them concurrently without risking a
different outcome than strict seq order.

This module is pure scheduling logic, shared by the untimed middleware
(correct application order) and the timed cost model (how much the
parallel apply lanes overlap):

- :class:`ApplyUnit` — one certified commit inside a propagation frame.
- :func:`conflict_groups` — partition a seq-ordered run of units into
  dependency groups.  Units in the same group conflict (directly or
  transitively) and must apply serially in seq order; distinct groups
  are pairwise disjoint and may run on concurrent apply lanes.
- :func:`lane_makespan` — longest-processing-time assignment of group
  costs onto ``lanes`` workers, for the simulated parallel-apply cost.

Conflict rules match the certifier exactly: point keys conflict on
equality, a table-level footprint (``pk is None``) conflicts with every
key of that table, and an *opaque* unit (``keys is None``: rows that
cannot be keyed) is a barrier that conflicts with everything.
"""

from __future__ import annotations

from typing import Any, Dict, FrozenSet, List, Optional, Sequence, Tuple


class ApplyUnit:
    """One certified commit inside a propagation frame."""

    __slots__ = ("seq", "entries", "keys", "origin", "enqueued_at",
                 "trace_ref")

    def __init__(self, seq: int, entries: Any,
                 keys: Optional[FrozenSet] = None,
                 origin: Optional[str] = None, enqueued_at: float = 0.0,
                 trace_ref: Optional[Tuple[int, int]] = None):
        self.seq = seq
        self.entries = entries
        # Conflict footprint: frozenset of (db, table, pk) triples, or
        # None for an opaque unit that must serialize with everything.
        self.keys = keys
        self.origin = origin
        self.enqueued_at = enqueued_at
        self.trace_ref = trace_ref

    def __repr__(self) -> str:
        kind = "opaque" if self.keys is None else f"{len(self.keys)} keys"
        return f"ApplyUnit(seq={self.seq}, {kind})"


class _UnionFind:
    def __init__(self) -> None:
        self._parent: Dict[int, int] = {}

    def add(self, item: int) -> None:
        self._parent.setdefault(item, item)

    def find(self, item: int) -> int:
        root = item
        while self._parent[root] != root:
            root = self._parent[root]
        while self._parent[item] != root:
            self._parent[item], item = root, self._parent[item]
        return root

    def union(self, a: int, b: int) -> None:
        ra, rb = self.find(a), self.find(b)
        if ra != rb:
            # anchor on the smaller index so group order follows seq order
            if ra > rb:
                ra, rb = rb, ra
            self._parent[rb] = ra


def conflict_groups(units: Sequence[ApplyUnit]) -> List[List[ApplyUnit]]:
    """Partition seq-ordered ``units`` into dependency groups.

    Within a group, units conflict (possibly transitively) and keep their
    seq order; across groups, footprints are disjoint, so groups can be
    applied on concurrent lanes without changing any row's final value.
    Returns groups ordered by their first unit's position.
    """
    if not units:
        return []
    if any(unit.keys is None for unit in units):
        # An opaque unit conflicts with everything: the whole run
        # collapses into one serial group (the conservative fallback).
        return [list(units)]
    uf = _UnionFind()
    point_owner: Dict[Tuple, int] = {}       # (db, table, pk) -> unit index
    table_lockers: Dict[Tuple, List[int]] = {}  # (db, table) -> indices with pk=None
    table_touchers: Dict[Tuple, List[int]] = {}  # (db, table) -> all indices
    for index, unit in enumerate(units):
        uf.add(index)
        for key in unit.keys:
            database, table, pk = key
            if pk is None:
                # table-granular: conflicts with every earlier toucher
                for other in table_touchers.get((database, table), ()):
                    uf.union(index, other)
                table_lockers.setdefault((database, table), []).append(index)
            else:
                owner = point_owner.get(key)
                if owner is not None:
                    uf.union(index, owner)
                point_owner[key] = index
                for locker in table_lockers.get((database, table), ()):
                    uf.union(index, locker)
            table_touchers.setdefault((database, table), []).append(index)
    grouped: Dict[int, List[ApplyUnit]] = {}
    order: List[int] = []
    for index, unit in enumerate(units):
        root = uf.find(index)
        if root not in grouped:
            grouped[root] = []
            order.append(root)
        grouped[root].append(unit)
    return [grouped[root] for root in order]


def lane_makespan(group_costs: Sequence[float], lanes: int) -> List[float]:
    """Longest-processing-time assignment of ``group_costs`` onto
    ``lanes`` parallel apply lanes; returns per-lane total costs (only
    non-empty lanes).  Groups are indivisible — their units serialize."""
    lanes = max(1, lanes)
    if not group_costs:
        return []
    loads = [0.0] * min(lanes, len(group_costs))
    for cost in sorted(group_costs, reverse=True):
        slot = loads.index(min(loads))
        loads[slot] += cost
    return loads
