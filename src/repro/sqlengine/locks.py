"""Table-level lock manager with wait-die deadlock avoidance.

The paper (section 4.3.2) observes that middleware-level locking is
"usually at the table level, as table information can be obtained through
simple query parsing", and that finer granularity would mean re-implementing
database logic in the middleware.  The engine's SERIALIZABLE mode uses the
same granularity, which both keeps the implementation honest and lets the
statement-replication middleware mirror the engine's regime exactly.

Because the whole system runs in one OS thread (concurrency is interleaved
by the discrete-event simulator or by test code), a conflicting acquire
cannot block the thread.  Instead it raises :class:`LockConflict` carrying
the owner; callers either retry after the owner finishes (the simulator
does this) or treat it as a deadlock-avoidance abort.  Wait-die ordering
(older transactions may wait, younger ones die) guarantees progress.
"""

from __future__ import annotations

import enum
from typing import Dict, List, Optional, Set, Tuple

from .errors import DeadlockError


class LockMode(enum.Enum):
    SHARED = "S"
    EXCLUSIVE = "X"


class LockConflict(Exception):
    """Raised when a lock cannot be granted right now.  ``owner_txn`` is
    (one of) the conflicting holder(s); ``should_die`` tells the caller
    whether wait-die policy demands an abort rather than a wait."""

    def __init__(self, resource: str, owner_txn: int, should_die: bool):
        super().__init__(f"lock conflict on {resource} held by txn {owner_txn}")
        self.resource = resource
        self.owner_txn = owner_txn
        self.should_die = should_die


class LockManager:
    """Grants shared/exclusive locks on opaque string resources
    (``"db.table"`` by convention)."""

    def __init__(self):
        # resource -> {txn_id -> LockMode}
        self._held: Dict[str, Dict[int, LockMode]] = {}
        # txn_id -> set of resources (for release_all)
        self._by_txn: Dict[int, Set[str]] = {}

    def acquire(self, txn_id: int, resource: str, mode: LockMode) -> None:
        """Grant the lock or raise :class:`LockConflict` / :class:`DeadlockError`.

        Lock upgrades (S held, X requested) are supported when the requester
        is the only holder.
        """
        holders = self._held.setdefault(resource, {})
        current = holders.get(txn_id)
        if current is LockMode.EXCLUSIVE:
            return
        if current is LockMode.SHARED and mode is LockMode.SHARED:
            return

        conflicting = self._conflicting_holders(holders, txn_id, mode)
        if conflicting:
            owner = min(conflicting)
            # wait-die: an older (smaller id) requester may wait for a
            # younger holder; a younger requester dies immediately.
            should_die = txn_id > owner
            if should_die:
                raise DeadlockError(
                    f"txn {txn_id} aborted by wait-die on {resource} "
                    f"(held by older txn {owner})")
            raise LockConflict(resource, owner, should_die=False)

        holders[txn_id] = mode
        self._by_txn.setdefault(txn_id, set()).add(resource)

    def _conflicting_holders(self, holders: Dict[int, LockMode],
                             txn_id: int, mode: LockMode) -> List[int]:
        conflicting = []
        for holder, held_mode in holders.items():
            if holder == txn_id:
                continue
            if mode is LockMode.EXCLUSIVE or held_mode is LockMode.EXCLUSIVE:
                conflicting.append(holder)
        return conflicting

    def holds(self, txn_id: int, resource: str,
              mode: Optional[LockMode] = None) -> bool:
        held = self._held.get(resource, {}).get(txn_id)
        if held is None:
            return False
        return mode is None or held is mode or held is LockMode.EXCLUSIVE

    def release_all(self, txn_id: int) -> None:
        """Two-phase locking: everything is released at commit/abort."""
        resources = self._by_txn.pop(txn_id, None)
        if resources is None:
            return
        for resource in resources:
            holders = self._held.get(resource)
            if holders is not None:
                holders.pop(txn_id, None)
                if not holders:
                    del self._held[resource]

    def holders_of(self, resource: str) -> List[Tuple[int, LockMode]]:
        return list(self._held.get(resource, {}).items())

