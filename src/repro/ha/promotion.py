"""Fenced promotion and the paper's cold-restart slow path.

Two ways to bring the middleware tier back after the active instance
dies (section 3.2):

* :func:`promote` — the standby takes over.  The epoch fence advances
  first (the deposed leader is refused from this instant, even if it is
  merely suspected dead — no split-brain), then the standby middleware
  is hydrated from the shipped :class:`~repro.ha.state.StandbyState` and
  the pending ledger window is settled against the replicas' applied
  watermark.  RTO is a detection delay plus this (cheap) hydration.

* :func:`cold_restart` — no standby: the restarted middleware rebuilds
  its certifier state "by retrieving state from every replica" (the
  recovery the paper notes is "rarely described and almost never
  evaluated").  Conflict history is unrecoverable, so the rebuilt
  certifier starts with an empty log at the replicas' watermark; RTO
  grows with the cluster size (every replica must answer a scan).
"""

from __future__ import annotations

from typing import Dict

from .state import StandbyState


class PromotionReport:
    """What one standby promotion did."""

    __slots__ = ("epoch", "watermark", "resolved_committed",
                 "dropped_pending", "certifier_entries",
                 "recovery_entries", "session_tokens", "new_leader")

    def __init__(self, epoch: int, watermark: int, resolved_committed: int,
                 dropped_pending: int, certifier_entries: int,
                 recovery_entries: int, session_tokens: int,
                 new_leader: str):
        self.epoch = epoch
        self.watermark = watermark
        self.resolved_committed = resolved_committed
        self.dropped_pending = dropped_pending
        self.certifier_entries = certifier_entries
        self.recovery_entries = recovery_entries
        self.session_tokens = session_tokens
        self.new_leader = new_leader

    def __repr__(self) -> str:
        return (f"PromotionReport(epoch={self.epoch}, "
                f"leader={self.new_leader!r}, "
                f"resolved={self.resolved_committed}, "
                f"dropped={self.dropped_pending})")


class ColdRestartReport:
    """What one cold (state-retrieval) restart did."""

    __slots__ = ("replicas_queried", "watermark", "watermarks",
                 "log_entries_lost")

    def __init__(self, replicas_queried: int, watermark: int,
                 watermarks: Dict[str, int], log_entries_lost: int):
        self.replicas_queried = replicas_queried
        self.watermark = watermark
        self.watermarks = watermarks
        self.log_entries_lost = log_entries_lost

    def __repr__(self) -> str:
        return (f"ColdRestartReport(queried={self.replicas_queried}, "
                f"watermark={self.watermark})")


def promote(standby, state: StandbyState) -> PromotionReport:
    """Fence the old leader and hydrate ``standby`` from ``state``.

    Order matters: the epoch advances *before* any state moves, so from
    the first instruction of a promotion the deposed leader can no
    longer certify a commit — even when the promotion was triggered by a
    false suspicion and the old leader is still alive.  The standby's
    link turns active last, once everything it serves from is in place.
    """
    link = standby.ha
    epoch = link.fence.advance()
    span = standby.tracer.start_span("ha.promote", epoch=epoch,
                                     leader=standby.name)
    span.event("ha.fence", epoch=epoch)

    # Settle the pending window against what physically committed: a
    # shipped unit that was never acked and lies above every replica's
    # watermark reached no replica.  It leaves the ledger, the certifier
    # log and the recovery log alike, with or without a client txn id —
    # the promoted log must hold exactly what a replica can hold, or the
    # next join replays a write nobody committed.
    watermark = max((r.applied_seq for r in standby.replicas
                     if r.is_online), default=0)
    resolved, _ = state.ledger.resolve_pending(watermark)
    dropped_seqs = {shipped.seq for shipped in state.commits
                    if not shipped.acked and shipped.seq > watermark}

    # Certifier: shipped log minus never-committed tails.  A dropped
    # sequence number was observed by no replica, so it may be reused.
    log = [(seq, keys) for seq, keys in state.certifier_log
           if seq not in dropped_seqs]
    seq_floor = max([watermark] + [seq for seq, _keys in log])
    standby.certifier.import_log(log, seq=seq_floor)

    # Recovery log: same filter, replayed into the standby's own log —
    # the leader's retained tail, with the leader's purge mark, so a
    # read below it is refused here exactly as it was there.
    standby.recovery_log.purged_seq = state.purged_seq
    recovered = 0
    for shipped in state.commits:
        if shipped.seq in dropped_seqs:
            continue
        standby.recovery_log.append(
            shipped.seq, shipped.kind, shipped.payload,
            tables=shipped.tables, user=shipped.user,
            database=shipped.database)
        recovered += 1

    # Balancer affinity, master designation, session tokens (the ledger
    # the link carries is ``state.ledger``, settled above).
    standby.config.balancer._sticky = dict(state.sticky)
    if state.master_name is not None:
        try:
            standby.set_master(state.master_name)
        except Exception:  # noqa: BLE001 — master may be gone; keep default
            pass
    if standby.cache_invalidator is not None:
        # the standby's cache never saw the leader's certified stream;
        # anything cached (there should be nothing) restarts cold
        standby.cache_invalidator.reset(standby.global_seq)

    link.activate(epoch)
    standby.failed = False

    report = PromotionReport(
        epoch=epoch, watermark=watermark,
        resolved_committed=len(resolved),
        dropped_pending=len(dropped_seqs),
        certifier_entries=len(log), recovery_entries=recovered,
        session_tokens=len(state.session_tokens),
        new_leader=standby.name)
    span.set_tag("resolved_committed", len(resolved))
    span.set_tag("dropped_pending", len(dropped_seqs))
    span.set_tag("certifier_entries", len(log))
    span.end()
    standby.monitor.record("ha_promoted", standby.name, epoch=epoch,
                           resolved=len(resolved),
                           dropped=len(dropped_seqs))
    return report


def cold_restart(middleware) -> ColdRestartReport:
    """The slow path: restart ``middleware`` in place, rebuilding its
    certifier by querying every reachable replica for its applied
    watermark.  Conflict history is gone — certification restarts with
    an empty window, which is safe (no in-flight transactions survived
    the crash, and the queued applies run first, so no replica serves a
    snapshot below the window) but loses the log a standby would have
    preserved."""
    span = middleware.tracer.start_span("ha.cold_restart",
                                        leader=middleware.name)
    middleware.pump()
    watermarks: Dict[str, int] = {}
    for replica in middleware.replicas:
        if replica.is_online:
            watermarks[replica.name] = replica.applied_seq
            span.event("ha.watermark", replica=replica.name,
                       seq=replica.applied_seq)
    watermark = max(watermarks.values(), default=0)
    lost = middleware.certifier.log_length()
    middleware.certifier.recover(rebuild_from_replicas=watermark)
    middleware.failed = False
    if middleware.cache_invalidator is not None:
        middleware.cache_invalidator.reset(middleware.global_seq)
    report = ColdRestartReport(
        replicas_queried=len(watermarks), watermark=watermark,
        watermarks=watermarks, log_entries_lost=lost)
    span.set_tag("replicas_queried", len(watermarks))
    span.set_tag("watermark", watermark)
    span.end()
    middleware.monitor.record("ha_cold_restart", middleware.name,
                              replicas=len(watermarks), watermark=watermark)
    return report


def cold_restart_duration(n_replicas: int, base: float = 0.5,
                          per_replica: float = 0.25) -> float:
    """The simulated-time cost model for a cold restart: a fixed process
    restart plus one state-retrieval scan per replica (the scans are
    sequential in the naive recovery the paper describes)."""
    return base + per_replica * max(0, n_replicas)
