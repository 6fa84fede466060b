"""Sequoia-style recovery log with checkpoints (paper section 4.4.2).

"Sequoia uses a recovery log that records all update statements executed
by the system.  When a node is removed from the cluster, a checkpoint is
inserted ... When the node is re-added, the recovery log is replayed from
the checkpoint on."

The log records every globally-ordered update (statement batch or
writeset).  Replay supports two modes:

* **serial** — one entry after another (``BackupCoordinator.catch_up``,
  the tail step of the replica join); under a heavy update stream a
  recovering replica "may never catch up" (the paper's warning);
* **parallel** — entries are grouped into waves of non-overlapping table
  footprints that can be applied concurrently (the parallelism-extraction
  problem the paper calls unsolved; we implement the straightforward
  conflict-graph greedy schedule).

The log is bounded (section 4.4.4, log maintenance): the commit pipeline
purges what nobody needs any more (``GroupCommitCoordinator._truncate``).
A **named checkpoint** is how anything outside the middleware — a kept
backup, a reshard in progress, a WAN shipping cursor — says it still
needs the entries after a seq; :meth:`RecoveryLog.release` says it no
longer does.  A read below what was purged raises
:class:`~repro.core.errors.LogTruncatedError` instead of returning a
tail with a hole.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Sequence, Tuple

from ..sqlengine import Engine
from .errors import LogTruncatedError
from .writesets import apply_writeset


class RecoveryLogEntry:
    __slots__ = ("seq", "kind", "payload", "tables", "user", "database")

    def __init__(self, seq: int, kind: str, payload, tables: Tuple[str, ...],
                 user: str = "admin", database: Optional[str] = None):
        self.seq = seq
        self.kind = kind              # "statements" | "writeset"
        self.payload = payload        # [(sql, params)] | [writeset dicts]
        self.tables = tables
        self.user = user
        self.database = database

    def __repr__(self) -> str:
        return f"RecoveryLogEntry(seq={self.seq}, kind={self.kind})"


class RecoveryLog:
    """Globally-ordered update log + named checkpoints."""

    def __init__(self):
        self.entries: List[RecoveryLogEntry] = []
        self.checkpoints: Dict[str, int] = {}
        self._head = 0
        # everything at or below this seq is gone (purge_before)
        self.purged_seq = 0

    @property
    def head_seq(self) -> int:
        return self._head

    def append(self, seq: int, kind: str, payload,
               tables: Sequence[str] = (), user: str = "admin",
               database: Optional[str] = None) -> RecoveryLogEntry:
        entry = RecoveryLogEntry(seq, kind, payload, tuple(tables),
                                 user=user, database=database)
        self.entries.append(entry)
        self._head = max(self._head, seq)
        return entry

    def checkpoint(self, name: str, seq: Optional[int] = None) -> int:
        """Insert a named checkpoint at ``seq`` (default: current head).
        A replica removed at this point replays from here on re-add."""
        at = self._head if seq is None else seq
        self.checkpoints[name] = at
        return at

    def release(self, name: str) -> None:
        """Drop a named checkpoint: its holder no longer needs the log
        after it.  Reading from there later may cost a re-clone."""
        self.checkpoints.pop(name, None)

    def entries_since(self, seq: int) -> List[RecoveryLogEntry]:
        if seq < self.purged_seq:
            raise LogTruncatedError(
                f"recovery log purged up to seq {self.purged_seq}; the "
                f"tail after seq {seq} is incomplete")
        return [e for e in self.entries if e.seq > seq]

    def entries_since_checkpoint(self, name: str) -> List[RecoveryLogEntry]:
        if name not in self.checkpoints:
            raise KeyError(f"no checkpoint {name!r}")
        return self.entries_since(self.checkpoints[name])

    def truncate_after(self, seq: int) -> int:
        """Drop entries with sequence > ``seq`` — used when those updates
        physically died with a failed master (1-safe loss, section 2.2).
        Returns how many entries were lost."""
        before = len(self.entries)
        self.entries = [e for e in self.entries if e.seq <= seq]
        self._head = min(self._head, seq)
        return before - len(self.entries)

    def purge_before(self, seq: int) -> int:
        """Log maintenance (section 4.4.4): drop entries up to and
        including ``seq``.  The caller passes a seq at or below the
        retention floor (``ReplicationMiddleware.retention_floor``), so
        no checkpoint or replica still needs them.  A filter, not a
        prefix ``del``: a 2PC unit is appended after higher seqs."""
        before = len(self.entries)
        self.entries = [e for e in self.entries if e.seq > seq]
        self.purged_seq = max(self.purged_seq, seq)
        return before - len(self.entries)

    # -- replay ---------------------------------------------------------------

    def replay_entry(self, engine: Engine, entry: RecoveryLogEntry) -> None:
        """Apply one log entry to ``engine``."""
        if entry.kind == "writeset":
            apply_writeset(engine, entry.payload, compensate_counters=True)
            return
        connection = engine.connect("admin", "", database=entry.database)
        try:
            for sql, params in entry.payload:
                connection.execute(sql, params)
        finally:
            connection.close()

    def plan_parallel_replay(
            self, from_seq: int,
            max_wave: int = 8) -> List[List[RecoveryLogEntry]]:
        """Greedy wave scheduling: each wave holds entries whose table
        footprints are pairwise disjoint, preserving per-table order.

        An entry with an *empty* footprint (tables unknown — e.g. an opaque
        stored-procedure call) conflicts with everything: it closes the
        current wave and runs alone, which is exactly why opaque procedures
        hurt recovery parallelism (section 4.2.1).
        """
        waves: List[List[RecoveryLogEntry]] = []
        current: List[RecoveryLogEntry] = []
        current_tables: set = set()
        for entry in self.entries_since(from_seq):
            footprint = set(entry.tables)
            opaque = not footprint
            overlaps = opaque or bool(footprint & current_tables)
            if current and (overlaps or len(current) >= max_wave):
                waves.append(current)
                current = []
                current_tables = set()
            current.append(entry)
            current_tables |= footprint
            if opaque:
                waves.append(current)
                current = []
                current_tables = set()
        if current:
            waves.append(current)
        return waves

    def parallel_speedup(self, from_seq: int, max_wave: int = 8) -> float:
        """Ideal speedup of the parallel schedule over serial replay
        (entries per wave averaged)."""
        entries = self.entries_since(from_seq)
        if not entries:
            return 1.0
        waves = self.plan_parallel_replay(from_seq, max_wave=max_wave)
        return len(entries) / max(1, len(waves))
