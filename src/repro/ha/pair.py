"""The active/standby middleware pair.

:class:`HAPair` owns the whole arrangement: a leader middleware with a
:class:`~repro.ha.shipper.StateShipper` attached, a standby middleware
built over the *same* replicas (middleware replication replicates
coordinator state, not data — the replicas already hold the data), a
shared :class:`~repro.ha.state.EpochFence`, and the
:class:`~repro.core.failover.VirtualIP` clients resolve the service
through.  ``promote()`` is the Figure 3 switchover applied to the
middleware tier itself; ``arm_detector()`` wires a
:class:`~repro.cluster.heartbeat.HeartbeatDetector` so a suspected
leader triggers promotion automatically (fencing makes a *false*
suspicion safe: the deposed-but-alive leader is refused at commit).
"""

from __future__ import annotations

from copy import copy
from typing import Callable, List, Optional

from ..core.failover import VirtualIP
from ..core.loadbalancer import LoadBalancer
from ..core.middleware import ReplicationMiddleware
from .link import ACTIVE, STANDBY, HALink
from .promotion import PromotionReport, promote
from .shipper import StateShipper
from .state import CommitLedger, EpochFence, StandbyState


def build_standby(leader: ReplicationMiddleware,
                  name: Optional[str] = None) -> ReplicationMiddleware:
    """A standby twin of ``leader``: same replicas, same policies, its
    own balancer instance (affinity is shipped state, not shared state)
    and its own (empty) result cache — cached results are soft state
    that refills after promotion, so they are deliberately not shipped."""
    config = copy(leader.config)
    balancer = leader.config.balancer
    config.balancer = LoadBalancer(type(balancer.policy)(), balancer.level)
    return ReplicationMiddleware(
        leader.replicas, config, name=name or f"{leader.name}_standby",
        monitor=leader.monitor)


class HAPair:
    """Active/standby middleware with synchronous state shipping."""

    def __init__(self, leader: ReplicationMiddleware,
                 standby: Optional[ReplicationMiddleware] = None,
                 virtual_ip: Optional[VirtualIP] = None):
        self.leader = leader
        self.standby = standby or build_standby(leader)
        self.fence = EpochFence()
        self.state = StandbyState()
        self.shipper = StateShipper(leader, self.state)
        self.shipper.bootstrap()
        # the one hand-over: each side learns it is in a pair.  A leader
        # promoted out of an earlier pair keeps that pair's ledger — the
        # replays it must still deduplicate did not end with the pair.
        ledger = leader.ha.ledger if leader.ha is not None \
            else CommitLedger()
        leader.ha = HALink(self.fence, ACTIVE, ledger, self.shipper,
                           self.standby.name)
        self.standby.ha = HALink(self.fence, STANDBY, self.state.ledger)
        # a named checkpoint is a hold on the service, not on a process:
        # like the fence, the pair shares one registry, so a kept backup
        # or a reshard in progress still holds the log after a promotion
        self.standby.recovery_log.checkpoints = \
            leader.recovery_log.checkpoints
        self.virtual_ip = virtual_ip or VirtualIP("mw-vip", leader.name)
        self._active = leader
        self._on_switch: List[Callable[[ReplicationMiddleware], None]] = []
        self.promotions: List[PromotionReport] = []

    # -- addressing ----------------------------------------------------------

    @property
    def active(self) -> ReplicationMiddleware:
        """The instance the virtual IP currently points at."""
        return self._active

    def on_switch(self,
                  callback: Callable[[ReplicationMiddleware], None]) -> None:
        """Called with the new leader whenever the virtual IP moves
        (timed harnesses repoint their cluster handle here)."""
        self._on_switch.append(callback)

    def connect(self, user: str = "admin", password: str = "",
                database: Optional[str] = None,
                client_id: Optional[str] = None):
        """Resolve the virtual IP and open a session on the active
        leader, restoring the client's shipped consistency token."""
        session = self._active.connect(user, password, database)
        if client_id is not None:
            session.client_id = client_id
            token = self.session_token(client_id)
            if token is not None:
                session.view.last_commit_seq = max(
                    session.view.last_commit_seq, token[0])
                session.view.last_seen_seq = max(
                    session.view.last_seen_seq, token[1])
        return session

    def session_token(self, client_id: str):
        return self.state.session_tokens.get(client_id)

    # -- failure + promotion -------------------------------------------------

    def kill_active(self) -> int:
        """Crash the active instance (sessions die, soft state is lost).
        Returns the number of in-flight sessions lost."""
        return self._active.fail()

    def promote(self) -> PromotionReport:
        """Fence the leader and switch the virtual IP to the standby."""
        if self._active is self.standby:
            raise RuntimeError("standby is already the active instance")
        old = self._active
        report = promote(self.standby, self.state)
        # no further standby exists until an operator rebuilds one
        old.ha.detach()
        self._active = self.standby
        self.virtual_ip.switch(self.standby.name)
        self.promotions.append(report)
        for callback in list(self._on_switch):
            callback(self.standby)
        return report

    # -- failure detection ---------------------------------------------------

    def arm_detector(self, detector, node_name: Optional[str] = None) -> None:
        """Promote when ``detector`` suspects the leader's process node.
        Promotion on a false positive is safe — the fence advances before
        any state moves, so the still-alive old leader is refused."""
        target = node_name or self.leader.name

        def on_failure(name: str) -> None:
            if name == target and self._active is self.leader:
                self.promote()

        detector.on_failure(on_failure)

    def __repr__(self) -> str:
        return (f"HAPair(active={self._active.name!r}, "
                f"epoch={self.fence.epoch})")
