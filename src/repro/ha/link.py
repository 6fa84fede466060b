"""The one thing a middleware knows about the pair it is in.

``ReplicationMiddleware.ha`` is ``None`` outside a pair and an
:class:`HALink` inside one.  :class:`~repro.ha.pair.HAPair` hands each
of its two middlewares a link once; a promotion re-roles the standby's
(:meth:`HALink.activate`) and takes the standby away from the deposed
leader's (:meth:`HALink.detach`).  ``repro.core`` never imports this
package: it asks the object in that field the questions below.
"""

from __future__ import annotations

from typing import Optional, Tuple

from ..core.errors import RETRY_AFTER_FAILOVER, FencedOut, MiddlewareDown
from .state import CommitLedger, EpochFence

STANDBY = "standby"
ACTIVE = "active"


class HALink:
    """Fence + epoch (who may serve), role, the commit ledger, and —
    while this side has a standby behind it — the shipper and the
    standby's name.

    The commit-pipeline stages (``repro.core.groupcommit``) move ledger
    and shipper together, in the order that makes failover lossless and
    exactly-once: ledger PENDING and ``ship_prepare`` before the unit is
    durable anywhere, ledger COMMITTED and ``ship_ack`` before the
    client hears.  ``perf/spans.py`` wraps ``StateShipper.ship_prepare``
    / ``ship_ack`` on the class while it measures, so both are looked up
    per call, never bound here."""

    __slots__ = ("fence", "epoch", "role", "ledger", "shipper",
                 "standby_name")

    def __init__(self, fence: EpochFence, role: str, ledger: CommitLedger,
                 shipper=None, standby_name: Optional[str] = None):
        self.fence = fence
        self.epoch = fence.epoch
        self.role = role
        self.ledger = ledger
        self.shipper = shipper
        self.standby_name = standby_name

    def check_serving(self, name: str) -> None:
        """Raise unless the middleware called ``name`` may take client
        work: a standby is addressed through the virtual IP only, and a
        leader whose epoch the fence has moved past was deposed."""
        if self.role == STANDBY:
            raise MiddlewareDown(
                f"middleware {name!r} is a standby; address the "
                "service through its virtual IP",
                retry=RETRY_AFTER_FAILOVER)
        if not self.fence.admits(self.epoch):
            raise FencedOut(
                f"middleware {name!r} holds epoch {self.epoch} but "
                f"the cluster advanced to {self.fence.epoch}; this "
                "instance was deposed")

    def elsewhere(self) -> bool:
        """Is there another instance for a client of this one to land
        on — the standby behind it, the active in front of it, or the
        leader that deposed it?  (A promoted leader nobody rebuilt a
        standby behind has none: its ``MiddlewareDown`` is ``fatal``.)"""
        return (self.standby_name is not None or self.role == STANDBY
                or not self.fence.admits(self.epoch))

    def activate(self, epoch: int) -> None:
        """The standby takes over at ``epoch`` (the last step of a
        promotion; the fence advanced first)."""
        self.role = ACTIVE
        self.epoch = epoch

    def detach(self) -> None:
        """No standby behind this side any more."""
        self.shipper = None
        self.standby_name = None

    def prepare(self, request) -> None:
        """Stage 2: ledger PENDING, then mirror the unit to the standby."""
        if request.txn_id is not None:
            self.ledger.prepare(request.txn_id, request.seq)
        if self.shipper is not None:
            self.shipper.ship_prepare(request)

    def acknowledge(self, request) -> None:
        """Stage 7: ledger COMMITTED, then the standby's ack — or, for
        the no-op that fills an aborted 2PC seq, its resolution, which
        never marks the client transaction committed."""
        shipper = self.shipper
        if request.noop:
            if shipper is not None:
                shipper.ship_resolve_noop(request)
            return
        if request.txn_id is not None:
            self.ledger.mark_committed(request.txn_id, request.seq)
        if shipper is not None:
            shipper.ship_ack(request)

    def truncate(self, cut: int) -> None:
        """Stage 9: the leader cut its logs at ``cut``; so does the
        standby's mirror."""
        if self.shipper is not None:
            self.shipper.ship_truncate(cut)

    def acked_seq(self) -> Optional[int]:
        """The standby's term of the retention floor, ``None`` with no
        standby."""
        return self.shipper.acked_seq() if self.shipper is not None \
            else None

    def mirror_sizes(self) -> Tuple[int, int]:
        """``(commits, certifier log entries)`` the standby mirrors."""
        if self.shipper is None:
            return 0, 0
        state = self.shipper.state
        return len(state.commits), len(state.certifier_log)
