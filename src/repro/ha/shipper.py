"""Synchronous state shipping from the active middleware to its standby.

The Hihooi design (PAPERS.md): the middleware tier itself replicates by
shipping its soft state to a standby *inside* the commit path, so the
standby is never behind an acknowledged commit.  Shipping is two-phase,
mirroring the commit's own danger windows:

``ship_prepare``
    After certification / sequence assignment, before any replica
    commits.  Carries the certifier log entry, the recovery-log payload
    and the client transaction id (PENDING in the shipped ledger).

``ship_ack``
    After the commit is durable everywhere the propagation mode
    requires, before the client acknowledgement.  Flips the ledger entry
    to COMMITTED and ships the session's consistency token.

``ship_truncate``
    Log maintenance: the leader cut its logs at a seq nobody needs any
    more, and the standby's mirror drops the same prefix — shipped state
    stays a tail, not a history.

Because the ack always precedes the client's, an acknowledged commit is
COMMITTED in the standby's ledger at promotion time — RPO = 0.  A crash
between the two phases leaves a PENDING entry that promotion resolves
against the replicas' applied watermark (see ``StandbyState.ledger``).

The wall-clock price of the synchronous round-trip is charged by the
timed layer (``repro.bench.simdriver`` adds a certification round when a
shipper is attached), preserving the repo convention that state changes
are instantaneous and time is charged separately.
"""

from __future__ import annotations

from .state import ShippedCommit, StandbyState


class StateShipper:
    """Attached to the active middleware; writes into a
    :class:`~repro.ha.state.StandbyState`."""

    def __init__(self, middleware, state: StandbyState):
        self.middleware = middleware
        self.state = state
        self._inflight: dict = {}   # seq -> ShippedCommit awaiting ack
        self.stats = {"prepares": 0, "acks": 0, "bootstrapped": 0}

    # -- initial full state transfer ----------------------------------------

    def bootstrap(self) -> int:
        """Full state transfer at attach time: certifier log + sequence,
        the recovery log so far, balancer affinity and the master name.
        Returns the number of recovery entries copied."""
        middleware = self.middleware
        self.state.certifier_log = middleware.certifier.export_log()
        self.state.seq = middleware.certifier.current_seq
        self.state.purged_seq = middleware.recovery_log.purged_seq
        self.state.commits = [
            ShippedCommit(entry.seq, frozenset(), entry.kind,
                          entry.payload, entry.tables, entry.user,
                          entry.database, acked=True)
            for entry in middleware.recovery_log.entries
        ]
        self.state.sticky = dict(middleware.config.balancer._sticky)
        self.state.master_name = middleware._master_name
        copied = len(self.state.commits)
        self.state.stats["bootstrap_entries"] = copied
        self.stats["bootstrapped"] = copied
        middleware.monitor.record("ha_bootstrap", middleware.name,
                                  entries=copied, seq=self.state.seq)
        return copied

    # -- the per-commit synchronous path ------------------------------------

    def ship_prepare(self, request) -> ShippedCommit:
        """``request`` is the unit's ``CommitRequest``
        (:mod:`repro.core.groupcommit`); a unit without a client session
        (reshard install, 2PC no-op) ships with no client id and no
        token."""
        session = request.session
        seq = request.seq
        shipped = ShippedCommit(
            seq, frozenset(request.keys), request.kind, request.entries,
            tuple(request.tables), user=request.user,
            database=request.database, txn_id=request.txn_id,
            client_id=session.client_id if session is not None else None)
        self.state.apply_prepare(shipped)
        self._inflight[seq] = shipped
        self.stats["prepares"] += 1
        span = request.span
        if span:
            span.event("ha.ship", phase="prepare", seq=seq)
        return shipped

    def ship_ack(self, request) -> None:
        seq = request.seq
        shipped = self._inflight.pop(seq, None)
        if shipped is None:
            return
        if request.session is not None:
            view = request.session.view
            shipped.session_token = (view.last_commit_seq,
                                     view.last_seen_seq)
        self.state.apply_ack(shipped)
        self.state.sticky = dict(self.middleware.config.balancer._sticky)
        self.state.master_name = self.middleware._master_name
        self.stats["acks"] += 1
        span = request.span
        if span:
            span.event("ha.ship", phase="ack", seq=seq)

    def ship_resolve_noop(self, request) -> None:
        """Resolve a prepared-but-aborted entry (cross-shard 2PC presumed
        abort, ``repro.shard.twopc``) as an empty no-op at the same seq:
        the shipped PENDING entry's keys/payload/tables are rewritten to
        empty, its ledger record is dropped (an aborted client txn must
        never dedup as success), and the entry is acked so the standby's
        watermark advances past the consumed seq.  A promotion after this
        point can never resurrect the aborted writeset — there is nothing
        left to resurrect."""
        seq = request.seq
        shipped = self._inflight.pop(seq, None)
        if shipped is None:
            return
        if shipped.txn_id is not None:
            self.state.ledger.drop_pending(shipped.txn_id)
        shipped.keys = frozenset()
        shipped.payload = []
        shipped.tables = ()
        shipped.txn_id = None
        shipped.client_id = None
        for index in range(len(self.state.certifier_log) - 1, -1, -1):
            if self.state.certifier_log[index][0] == seq:
                self.state.certifier_log[index] = (seq, frozenset())
                break
        self.state.apply_ack(shipped)
        self.stats["acks"] += 1

    # -- log maintenance ----------------------------------------------------

    def acked_seq(self) -> int:
        """The highest seq with no unacknowledged shipment at or below
        it — the standby's term of the retention floor."""
        return min(self._inflight, default=self.state.seq + 1) - 1

    def ship_truncate(self, cut: int) -> None:
        """The leader purged everything at or below ``cut`` (never above
        :meth:`acked_seq`, so never an unacknowledged unit)."""
        self.state.truncate(cut)

    def __repr__(self) -> str:
        return (f"StateShipper({self.middleware.name!r}, "
                f"prepares={self.stats['prepares']}, "
                f"acks={self.stats['acks']})")
