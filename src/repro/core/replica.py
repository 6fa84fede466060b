"""Replica wrapper: one backend engine under middleware control.

Tracks the replication state machine (ONLINE / RECOVERING / FAILED /
OFFLINE / DONOR), the apply queue that asynchronous update propagation
feeds, and the applied-sequence watermark used by freshness-aware
consistency protocols and by slave-lag measurements (section 2.2).
"""

from __future__ import annotations

import enum
from collections import deque
from itertools import islice
from typing import Callable, Deque, Dict, List, Optional

from ..sqlengine import Engine
from ..cluster.nodes import Node
from .applysched import ApplyUnit


class ReplicaState(enum.Enum):
    ONLINE = "online"
    OFFLINE = "offline"          # administratively removed
    RECOVERING = "recovering"    # resynchronizing, not yet serving
    FAILED = "failed"            # crashed / declared dead
    DONOR = "donor"              # serving a state transfer (m/cluster style)


class ApplyItem:
    """One propagation frame queued for this replica: the certified
    commits it carries, in seq order (never empty)."""

    __slots__ = ("units",)

    def __init__(self, units: List[ApplyUnit]):
        self.units = units

    @property
    def seq(self) -> int:
        """The frame's last commit."""
        return self.units[-1].seq


class Replica:
    """One backend database replica."""

    def __init__(self, name: str, engine: Engine,
                 node: Optional[Node] = None, weight: float = 1.0):
        self.name = name
        self.engine = engine
        self.node = node
        self.weight = weight
        self.state = ReplicaState.ONLINE
        # Highest global update sequence number applied here.
        self.applied_seq = 0
        # Pending asynchronous apply work (deque: the apply pipeline pops
        # strictly from the head, which a plain list makes O(n)).
        self.apply_queue: Deque[ApplyItem] = deque()
        # Counters for reports.
        self.stats: Dict[str, float] = {
            "applied_items": 0, "apply_time": 0.0, "served_reads": 0,
            "served_writes": 0, "aborts": 0, "failures": 0,
        }
        self._state_listeners: List[Callable[["Replica", ReplicaState], None]] = []
        if node is not None:
            node.on_crash(lambda _n: self.mark_failed())
            node.on_recover(lambda _n: self._node_recovered())
        # Memory-aware balancing state (Tashkent+-like): tables assumed
        # resident in this replica's buffer pool.
        self.hot_tables: "OrderedSetLike" = OrderedSetLike()

    # -- state machine --------------------------------------------------------

    @property
    def is_online(self) -> bool:
        return self.state is ReplicaState.ONLINE and not self.engine.crashed \
            and (self.node is None or self.node.up)

    @property
    def can_serve(self) -> bool:
        return self.is_online or self.state is ReplicaState.DONOR

    def set_state(self, state: ReplicaState) -> None:
        if state is self.state:
            return
        self.state = state
        for listener in list(self._state_listeners):
            listener(self, state)

    def on_state_change(self, listener) -> None:
        self._state_listeners.append(listener)

    def mark_failed(self) -> None:
        self.stats["failures"] += 1
        self.set_state(ReplicaState.FAILED)

    def _node_recovered(self) -> None:
        """The host came back: the replica is *recovering*, not serving —
        it must be failed back (resynchronized) before going ONLINE.
        State listeners fire, so a failover manager can react."""
        if self.state is ReplicaState.FAILED:
            self.set_state(ReplicaState.RECOVERING)

    # -- apply pipeline -------------------------------------------------------

    def enqueue(self, item: ApplyItem) -> None:
        self.apply_queue.append(item)

    def peek_batch(self, n: int) -> List[ApplyItem]:
        """The first ``n`` queued items without consuming them — the apply
        scheduler peeks, charges simulated cost, then pops, so a racing
        commit-time drain always sees the full queue."""
        return list(islice(self.apply_queue, n))

    def drain(self, n: Optional[int] = None,
              up_to_seq: Optional[int] = None) -> List[ApplyItem]:
        """Pop up to ``n`` items (and/or every item with
        ``seq <= up_to_seq``) strictly from the head of the queue."""
        drained: List[ApplyItem] = []
        while self.apply_queue:
            if n is not None and len(drained) >= n:
                break
            if up_to_seq is not None and self.apply_queue[0].seq > up_to_seq:
                break
            drained.append(self.apply_queue.popleft())
        return drained

    @property
    def lag_items(self) -> int:
        return len(self.apply_queue)

    def lag_behind(self, global_seq: int) -> int:
        return max(0, global_seq - self.applied_seq)

    # -- load proxy -------------------------------------------------------------

    @property
    def load(self) -> float:
        if self.node is not None:
            return self.node.load
        return float(len(self.apply_queue))

    def note_hot_tables(self, tables, capacity: int = 8) -> None:
        """Record recently-touched tables (an LRU 'working set' stand-in
        for Tashkent+'s in-memory-execution awareness)."""
        for table in tables:
            self.hot_tables.touch(table, capacity)

    def hotness(self, tables) -> float:
        if not tables:
            return 0.0
        hits = sum(1 for t in tables if t in self.hot_tables)
        return hits / len(tables)

    def __repr__(self) -> str:
        return (f"Replica({self.name!r}, {self.state.value}, "
                f"applied={self.applied_seq}, queue={len(self.apply_queue)})")


class OrderedSetLike:
    """A tiny LRU set (insertion-ordered dict keys)."""

    def __init__(self):
        self._items: Dict[str, None] = {}

    def touch(self, item: str, capacity: int) -> None:
        if item in self._items:
            del self._items[item]
        self._items[item] = None
        while len(self._items) > capacity:
            oldest = next(iter(self._items))
            del self._items[oldest]

    def __contains__(self, item: str) -> bool:
        return item in self._items

    def __len__(self) -> int:
        return len(self._items)

    def __iter__(self):
        return iter(self._items)
