"""Snapshot-isolation certification (first-committer-wins).

Writeset-based replication sends each transaction's writeset to a
certifier that checks it against all writesets committed since the
transaction's snapshot; overlap on any (database, table, primary-key)
means abort (paper section 3.3, Postgres-R/Middle-R lineage).

The certifier is the poster child of the paper's SPOF discussion
(section 3.2): a *centralized* certifier is fast but its failure takes the
whole system down and loses in-flight certification state; a *replicated*
certifier survives but pays a synchronization cost on every commit.  Both
variants are provided; benchmark E09 measures the trade-off.

Group commit (section 2.2) amortises that serial point without a second
log: a gather (``GroupCommitCoordinator.batch``) certifies its members
back to back against the one log here, and the timed layer charges the
whole gather one certification round
(``TimedCluster._charge_certification``).
"""

from __future__ import annotations

from typing import FrozenSet, List, Optional, Set, Tuple

from .errors import CertifierDown


class CertificationOutcome:
    __slots__ = ("ok", "seq", "conflict_seq")

    def __init__(self, ok: bool, seq: Optional[int] = None,
                 conflict_seq: Optional[int] = None):
        self.ok = ok
        self.seq = seq
        self.conflict_seq = conflict_seq

    def __repr__(self) -> str:
        if self.ok:
            return f"CertificationOutcome(ok, seq={self.seq})"
        return f"CertificationOutcome(ABORT, conflicts with seq={self.conflict_seq})"


class Certifier:
    """Global certification log.

    ``keys`` are conflict footprints: frozensets of
    (database, table, primary_key) triples; a ``None`` primary key is a
    table-level footprint that conflicts with everything in that table
    (the conservative fallback when a statement's rows cannot be keyed).
    One log: a group-commit gather (``GroupCommitCoordinator.batch``)
    certifies its members one after another against it, so an entry
    accepted earlier in the gather conflicts like any other.
    """

    def __init__(self, replicated: bool = False,
                 first_committer_wins: bool = True):
        self.replicated = replicated
        self.first_committer_wins = first_committer_wins
        self._log: List[Tuple[int, FrozenSet]] = []
        self._seq = 0
        self.failed = False
        # Extra state copies kept when replicated (survive failover).
        self._standby_log: Optional[List[Tuple[int, FrozenSet]]] = \
            [] if replicated else None

    @property
    def current_seq(self) -> int:
        return self._seq

    def certify(self, start_seq: int, keys: FrozenSet) -> CertificationOutcome:
        """First-committer-wins check; on success assigns and logs the next
        global sequence number."""
        if self.failed:
            raise CertifierDown("certifier is down")
        if self.first_committer_wins:
            conflict = self._find_conflict(start_seq, keys)
            if conflict is not None:
                return CertificationOutcome(False, conflict_seq=conflict)
        return CertificationOutcome(True, seq=self._append(keys))

    @staticmethod
    def _overlaps(logged: FrozenSet, keys: FrozenSet,
                  table_level: Set[Tuple[str, str]]) -> bool:
        if logged & keys:
            return True
        for database, table, pk in logged:
            if (database, table) in table_level:
                return True
            if pk is None and any(
                    k[0] == database and k[1] == table for k in keys):
                return True
        return False

    def _find_conflict(self, start_seq: int, keys: FrozenSet) -> Optional[int]:
        if not keys:
            return None
        table_level = {
            (database, table)
            for database, table, pk in keys if pk is None
        }
        for seq, logged in reversed(self._log):
            if seq <= start_seq:
                break
            if self._overlaps(logged, keys, table_level):
                return seq
        return None

    def assign_seq(self, keys: FrozenSet = frozenset()) -> int:
        """Order-only mode (no conflict check) — used by master-slave,
        eventual-consistency and statement-broadcast paths that still need
        a global order.  ``keys`` optionally records the write's derived
        ``(db, table, pk)`` footprint in the log, so downstream consumers
        (cache invalidation, log inspection) see statement-mode commits at
        the same granularity as certified writesets."""
        if self.failed:
            raise CertifierDown("certifier is down")
        return self._append(keys)

    def _append(self, keys: FrozenSet) -> int:
        """Log ``keys`` at the next global sequence number."""
        self._seq += 1
        entry = (self._seq, keys)
        self._log.append(entry)
        if self._standby_log is not None:
            self._standby_log.append(entry)
        return self._seq

    def rescind(self, seq: int) -> bool:
        """Erase the conflict footprint of a certified-but-aborted entry
        (cross-shard 2PC presumed abort, ``repro.shard.twopc``): the
        entry stays in the log at its seq — numbering and watermarks are
        untouched — but its keys become empty so it can never abort a
        later transaction against a write that never happened.  Returns
        True when the seq was found in any log copy."""
        found = False
        for log in (self._log, self._standby_log):
            if log is None:
                continue
            for index in range(len(log) - 1, -1, -1):
                if log[index][0] == seq:
                    log[index] = (seq, frozenset())
                    found = True
                    break
        return found

    def prune(self, up_to_seq: int) -> int:
        """Drop every entry at or below ``up_to_seq`` from both log
        copies.  The caller passes a seq at or below the retention
        floor, or certification could miss a conflict."""
        before = len(self._log)
        self._log = [(s, k) for s, k in self._log if s > up_to_seq]
        if self._standby_log is not None:
            self._standby_log = [(s, k) for s, k in self._standby_log
                                 if s > up_to_seq]
        return before - len(self._log)

    # -- failure / recovery ------------------------------------------------

    def fail(self) -> None:
        """The certifier process dies.  A centralized certifier loses its
        soft state; a replicated one keeps a standby copy."""
        self.failed = True
        if self._standby_log is None:
            self._log = []

    def recover(self, rebuild_from_replicas: Optional[int] = None) -> None:
        """Bring the certifier back.

        Centralized: the log must be rebuilt by querying every replica for
        its applied sequence (the expensive recovery the paper notes is
        'rarely described and almost never evaluated').  Pass the highest
        applied sequence as ``rebuild_from_replicas``.
        Replicated: the standby copy is promoted instantly.
        """
        if self._standby_log is not None:
            self._log = list(self._standby_log)
            if self._log:
                self._seq = max(self._seq, self._log[-1][0])
        elif rebuild_from_replicas is not None:
            self._seq = max(self._seq, rebuild_from_replicas)
            self._log = []
        self.failed = False

    def log_length(self) -> int:
        return len(self._log)

    # -- state shipping (repro.ha) -----------------------------------------

    def export_log(self) -> List[Tuple[int, FrozenSet]]:
        """A copy of the certification log for state shipping — the
        standby bootstrap (``repro.ha.shipper``) starts from this."""
        return list(self._log)

    def import_log(self, entries: List[Tuple[int, FrozenSet]],
                   seq: Optional[int] = None) -> None:
        """Hydrate this certifier from shipped state (fenced promotion,
        ``repro.ha.promotion``).  ``seq`` sets the sequence floor so the
        promoted certifier never reuses a number a replica has applied;
        it is clamped to never run backwards."""
        self._log = [(s, frozenset(k)) for s, k in entries]
        tail = self._log[-1][0] if self._log else 0
        self._seq = max(self._seq, tail, seq or 0)
        self.failed = False
