"""Database sequences — deliberately non-transactional.

Paper section 4.2.3: sequences "are non-transactional database objects, so
they cannot be rolled back.  Sequence numbers generated for a failed query
or transaction are lost and generate 'holes'", they "bypass isolation
mechanisms such as MVCC", and they are typically *not* persisted in the
transactional log — so naive backup/restore misses them.

This module reproduces all three properties: ``next_value`` advances
immediately and permanently; values are handed out outside any snapshot;
and a counter is in no log — the middleware's recovery log holds
writesets and statements, not sequence state — so a replica rebuilt
from a dump plus a log replay can hand out duplicate keys unless the
middleware compensates (``MiddlewareConfig.compensate_counters``).
"""

from __future__ import annotations

from typing import Dict, Optional

from .errors import NameError_


class Sequence:
    """A named monotonic counter."""

    __slots__ = ("name", "start", "increment", "_current", "_called")

    def __init__(self, name: str, start: int = 1, increment: int = 1):
        self.name = name
        self.start = start
        self.increment = increment
        self._current = start - increment
        self._called = False

    def next_value(self) -> int:
        """Advance and return.  This happens *outside* transaction control:
        the caller's rollback will not undo it."""
        self._current += self.increment
        self._called = True
        return self._current

    def current_value(self) -> int:
        if not self._called:
            raise NameError_(
                f"currval of sequence {self.name!r} is not yet defined "
                "in this engine (nextval never called)")
        return self._current

    def set_value(self, value: int) -> None:
        self._current = value
        self._called = True

    @property
    def last_value(self) -> Optional[int]:
        return self._current if self._called else None

    def state(self) -> Dict[str, int]:
        """Counter state for backup tools that *do* know how to capture
        sequences (most don't — the section 4.2.3 gap)."""
        return {
            "start": self.start,
            "increment": self.increment,
            "current": self._current,
            "called": int(self._called),
        }

    @classmethod
    def from_state(cls, name: str, state: Dict[str, int]) -> "Sequence":
        sequence = cls(name, state["start"], state["increment"])
        sequence._current = state["current"]
        sequence._called = bool(state["called"])
        return sequence

    def __repr__(self) -> str:
        return f"Sequence({self.name!r}, current={self._current}, called={self._called})"
