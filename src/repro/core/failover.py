"""Failover and failback (paper sections 2.2, 4.3.3).

* :class:`VirtualIP` — the Figure 3 switchover primitive: clients address
  one stable name; failover re-points it.
* :class:`FailoverManager` — reacts to replica failures: removes the
  replica from service, promotes a new master when the master died
  (measuring promotion work), and performs failback-with-resync when a
  replica returns.
* 1-safe vs 2-safe accounting: on a master failure the manager reports the
  transactions that were committed at the master but never reached any
  survivor — the "determining which transactions are lost ... remains a
  manual procedure" window of section 2.2.  Under 2-safe (synchronous)
  propagation that count is zero by construction.
"""

from __future__ import annotations

from typing import Callable, List, Optional

from .backup import BackupCoordinator
from .middleware import ReplicationMiddleware
from .replica import Replica


class VirtualIP:
    """A stable client-facing address re-pointable between targets [10]."""

    def __init__(self, name: str, target: str):
        self.name = name
        self.target = target
        self.switch_count = 0
        self.history: List[str] = [target]

    def switch(self, new_target: str) -> None:
        self.target = new_target
        self.switch_count += 1
        self.history.append(new_target)

    def __repr__(self) -> str:
        return f"VirtualIP({self.name!r} -> {self.target!r})"


class FailoverReport:
    """What one failover cost."""

    __slots__ = ("failed_replica", "new_master", "lost_transactions",
                 "promoted", "drained_items")

    def __init__(self, failed_replica: str,
                 new_master: Optional[str] = None,
                 lost_transactions: int = 0, promoted: bool = False,
                 drained_items: int = 0):
        self.failed_replica = failed_replica
        self.new_master = new_master
        self.lost_transactions = lost_transactions
        self.promoted = promoted
        self.drained_items = drained_items

    def __repr__(self) -> str:
        return (f"FailoverReport(failed={self.failed_replica!r}, "
                f"new_master={self.new_master!r}, "
                f"lost={self.lost_transactions})")


class FailoverManager:
    """Drives the middleware's reaction to replica failures."""

    def __init__(self, middleware: ReplicationMiddleware,
                 virtual_ip: Optional[VirtualIP] = None):
        self.middleware = middleware
        self.virtual_ip = virtual_ip
        self.reports: List[FailoverReport] = []
        self._callbacks: List[Callable[[FailoverReport], None]] = []

    def on_failover(self, callback: Callable[[FailoverReport], None]) -> None:
        self._callbacks.append(callback)

    # ------------------------------------------------------------------
    # failure handling
    # ------------------------------------------------------------------

    def handle_replica_failure(self, name: str,
                               discard_pending: bool = False) -> FailoverReport:
        """Declare ``name`` failed and reconfigure.

        If the failed replica was the master (master/slave or RSI-PC
        deployments), the most caught-up survivor is promoted; its pending
        apply queue is drained first so it starts from the freshest state
        it can reach.

        ``discard_pending`` models *master-driven log shipping* (MySQL
        replication, Slony): updates not yet applied at a survivor lived in
        the dead master's shipping pipeline and are gone — the 1-safe loss
        window.  Middleware-held queues (the default) survive the master.
        """
        middleware = self.middleware
        replica = middleware.replica_by_name(name)
        was_master = (middleware.master.name == name)
        master_seq = replica.applied_seq
        replica.mark_failed()
        if discard_pending:
            for survivor in middleware.replicas:
                if survivor.name != name:
                    survivor.apply_queue.clear()
        middleware.monitor.record("failover_started", name,
                                  was_master=was_master)

        report = FailoverReport(name)
        if was_master:
            survivor = self._most_caught_up()
            if survivor is None:
                middleware.monitor.record("failover_no_survivor", name)
                self.reports.append(report)
                return report
            report.drained_items = middleware.drain_replica(survivor.name)
            # 1-safe window: commits the master acknowledged that no
            # survivor ever received (section 2.2).
            report.lost_transactions = max(
                0, master_seq - survivor.applied_seq)
            if discard_pending and report.lost_transactions:
                # those updates lived only in the dead master's log
                middleware.group_commit.discard_after(survivor.applied_seq)
            middleware.set_master(survivor.name)
            report.new_master = survivor.name
            report.promoted = True
            if self.virtual_ip is not None:
                self.virtual_ip.switch(survivor.name)
        if discard_pending:
            # The survivors' queues went with the dead master's shipping
            # pipeline.  What one of them misses of what the cluster
            # still has is in the recovery log (every ONLINE replica
            # holds the retention floor): it replays that, or the next
            # commit's seq would carry its watermark over the hole.
            coordinator = BackupCoordinator(middleware)
            for survivor in middleware.online_replicas():
                coordinator.catch_up(survivor)
        middleware.monitor.record(
            "failover_completed", name,
            new_master=report.new_master,
            lost_transactions=report.lost_transactions)
        self.reports.append(report)
        for callback in self._callbacks:
            callback(report)
        return report

    def _most_caught_up(self) -> Optional[Replica]:
        candidates = self.middleware.online_replicas()
        if not candidates:
            return None
        return max(candidates, key=lambda r: (r.applied_seq, r.name))

    # ------------------------------------------------------------------
    # failback
    # ------------------------------------------------------------------

    def failback(self, name: str) -> int:
        """Bring a recovered replica back: it joins from its own state
        (``BackupCoordinator.join``) — everything in the recovery log
        after its applied watermark, then ONLINE.  Returns the number of
        log entries replayed.

        The paper's caveat applies: the middleware does not know which
        transactions the failed replica committed right before dying
        (section 4.4.2) — we trust its ``applied_seq`` watermark, which our
        replicas persist, and the join checks the result against a live
        peer; when that check fails (a 1-safe master returning with a tail
        the cluster lost) the join re-clones it, recorded here as
        ``failback_full_resync``.
        """
        middleware = self.middleware
        replica = middleware.replica_by_name(name)
        if replica.engine.crashed:
            replica.engine.recover()
        middleware.monitor.record("failback_started", name,
                                  from_seq=replica.applied_seq)
        replayed, recloned = BackupCoordinator(middleware).join(replica)
        if recloned:
            middleware.monitor.record("failback_full_resync", name)
        middleware.monitor.record("failback_completed", name,
                                  replayed=replayed)
        return replayed


def promote_and_switch(middleware: ReplicationMiddleware,
                       virtual_ip: VirtualIP,
                       manager: Optional[FailoverManager] = None
                       ) -> FailoverReport:
    """Convenience: fail the current master over to the best survivor and
    re-point the virtual IP (the Figure 3 hot-standby reaction).

    Pass an existing ``manager`` to keep one continuous failover history
    (reports, callbacks) across repeated incidents; a throwaway manager
    would silently discard the report log and never fire registered
    ``on_failover`` callbacks."""
    if manager is None:
        manager = FailoverManager(middleware, virtual_ip)
    elif manager.virtual_ip is None:
        manager.virtual_ip = virtual_ip
    return manager.handle_replica_failure(middleware.master.name)
