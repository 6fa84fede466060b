"""The commit pipeline, and group commit through it.

Every globally ordered unit — a DDL broadcast, a statement-mode commit,
a writeset commit, a cross-shard 2PC commit, a 2PC presumed-abort no-op
and a reshard install — runs a subset of ONE stage order, written once
in :class:`GroupCommitCoordinator` (docs/ARCHITECTURE.md has the table
of which kind runs which stage):

1. obtain the seq (``certify`` | ``assign_seq`` | handed over by a 2PC
   prepare | ``rescind`` for a no-op);
2. :meth:`~GroupCommitCoordinator.prepare` — commit ledger PENDING,
   ``ship_prepare`` to the HA standby;
3. make the unit durable on the replicas that hold it (the only
   path-specific stage: the origin drains its prefix and commits; under
   statement replication the replicas committed before sequencing);
4. ``RecoveryLog.append``;
5. propagate: one frame per destination replica;
6. ``consistency.note_commit`` for the client session, if there is one;
7. ledger COMMITTED + ``ship_ack`` (a no-op ships ``ship_resolve_noop``);
8. ``publish_certified``: one ``CertifiedWrite`` per seq — its
   footprint is built only while a listener is subscribed;
9. :meth:`~GroupCommitCoordinator._truncate` — log maintenance: past
   the retention watermark, cut the recovery log, the certifier log and
   the standby's mirror at the retention floor.

Stages 1-4 are the first half, 5-9 the second.  What differs between
unit kinds is data on the :class:`CommitRequest`, not a copy of the
sequence.  The subscribers are direct calls at the stage that owns
them; a new consumer of the commit stream is one more call there.

Group commit is the reason for the two halves.  The certifier is a
serial total-order point (paper section 2.2): every update transaction
pays an ordering round, a certification check, a log append and a
propagation enqueue *per transaction*.  The classic fix is to collect
the commit requests that arrive within a short window and push them
through the serial point as one batch:

* the members certify one after another against the certifier's one
  log, in arrival order, so an entry accepted earlier in the gather
  conflicts like any other and the outcomes are those of
  per-transaction certification by construction; the timed layer
  charges the whole gather one certification round (one standby-sync
  round when the certifier is replicated);
* one multi-writeset *frame* per destination replica carries the whole
  group instead of one queue entry per transaction;
* per-commit semantics that correctness depends on are preserved per
  contained transaction: every member runs its own first half inside
  the gather, and the flush runs the second half for all of them —
  ack before the client sees the result, one ``CertifiedWrite`` and one
  recovery-log entry per commit.

:class:`GroupCommitCoordinator` runs in two modes.  In *immediate* mode
(the default untimed path) every ``submit`` is a batch of one and the
observable behaviour is exactly the historical per-transaction pipeline.
The timed driver (``bench/simdriver.py``) opens a gather with
:meth:`batch` and submits every member's commit inside it, turning the
simulated gather window into real batches.

Watermark rule: a replica's ``applied_seq`` may only advance once every
lower seq has been applied there.  Frames deliver units in seq order and
queues are FIFO, so pure destinations advance monotonically; an *origin*
replica that committed its own transaction mid-batch gets its frame
applied synchronously at flush (the in-batch analogue of the commit-time
prefix drain), so its watermark never advertises a seq whose
predecessors are missing.  Freshness gates, session tokens and the E12
recovery join all read that watermark and stay correct.
"""

from __future__ import annotations

from contextlib import contextmanager
from typing import Any, Dict, List, Optional, Sequence, Set, Tuple

from ..sqlengine import SerializationError
from .applysched import ApplyUnit
from .certifier import CertifierDown
from .replica import ApplyItem
from .writesets import conflict_keys, invalidation_keys

#: a flush's frames (replica name -> units) and the replicas that
#: applied theirs before it returned
FrameLayout = Tuple[Dict[str, List[ApplyUnit]], Set[str]]


class CommitRequest:
    """One sequenced unit on its way through the commit pipeline.

    ``kind`` is the recovery-log / shipping kind (``"writeset"``:
    ``entries`` are writeset changes; ``"statements"``: ``entries`` are
    ``(sql, params)`` pairs).  ``origin`` + ``connection`` are the
    replica that executed a writeset transaction and its open
    connection; ``holders`` are the replicas that hold the unit's
    effects once it is durable and therefore receive no frame (the
    origin; under statement replication every replica that committed).
    A unit without a client session (install, no-op) passes ``user`` /
    ``database`` / ``txn_id`` itself.
    """

    __slots__ = ("session", "span_source", "origin", "connection",
                 "start_seq", "keys", "entries", "tables", "kind",
                 "publish_kind", "holders", "sync_apply", "noop", "user",
                 "database", "txn_id", "seq", "unit")

    def __init__(self, session=None, origin=None, connection=None,
                 start_seq: int = 0, keys=frozenset(), entries=(),
                 tables=(), kind: str = "writeset",
                 publish_kind: str = "writeset", holders: Sequence = (),
                 sync_apply: bool = False, noop: bool = False,
                 user: Optional[str] = None,
                 database: Optional[str] = None,
                 txn_id: Optional[str] = None):
        self.session = session
        # ``span_source.active_span`` is the committing session's live
        # statement span, read when a stage runs (a gather's flush runs
        # after the statement that submitted the unit has ended)
        self.span_source = _NO_SESSION if session is None else session
        self.origin = origin
        self.connection = connection
        self.start_seq = start_seq
        self.keys = keys
        self.entries = entries
        self.tables = tables
        self.kind = kind
        # kind of the published CertifiedWrite: "ddl" and "opaque"
        # invalidate everything cached, which the log kind cannot say
        self.publish_kind = publish_kind
        self.holders = holders if origin is None else (origin,)
        # frames are applied before the unit is acknowledged whatever
        # the propagation mode (see GroupCommitCoordinator.install)
        self.sync_apply = sync_apply
        # a prepared 2PC entry that aborted: acknowledged to the standby
        # with ship_resolve_noop instead of ship_ack
        self.noop = noop
        if session is not None:
            user, database = session.user, session.database
            txn_id = session.client_txn_id
        self.user = user
        self.database = database
        self.txn_id = txn_id
        self.seq = 0
        self.unit: Optional[ApplyUnit] = None


class _NoSession:
    """The span source of a unit without a client session."""

    active_span = None


_NO_SESSION = _NoSession()


class GroupCommitCoordinator:
    """Runs the commit sequence; batches writeset commits through it."""

    def __init__(self, middleware):
        self.middleware = middleware
        self._gathering = False
        self._requests: List[CommitRequest] = []  # first half done
        self.stats: Dict[str, int] = {
            "batches": 0, "batched_commits": 0, "max_batch": 0,
            "frames": 0, "frame_units": 0,
        }
        # Optional audit hook (E27): every certification decision.
        self.equivalence_log: Optional[List[Dict[str, Any]]] = None
        # the holder last reported by a retention_stalled event
        self._stalled_on: Optional[str] = None

    @contextmanager
    def batch(self):
        """Gather mode: every ``submit`` inside this context runs its
        first half, and propagation/acks happen once at exit.  Yields a
        dict that the exit fills with the frame layout the timed layer
        charges: ``frames`` (replica name -> units) and ``sync`` (the
        replicas that applied theirs before the exit returned)."""
        self._gathering = True
        self._requests = []
        flushed: Dict[str, Any] = {}
        try:
            yield flushed
        finally:
            requests = self._requests
            self._requests = []
            self._gathering = False
            flushed["frames"], flushed["sync"] = self._flush(requests)

    # ------------------------------------------------------------------
    # entry points, one per way of obtaining the seq
    # ------------------------------------------------------------------

    def submit(self, request: CommitRequest) -> int:
        """Certify and locally commit one transaction.  Outside a gather
        this is a batch of one — certification, durability, propagation,
        HA ack and cache publish all complete before returning, exactly
        like the historical per-transaction path.  Inside a gather,
        propagation and acks are deferred to the batch flush.

        Raises :class:`SerializationError` on certification conflict and
        :class:`CertifierDown` when the certifier is unavailable; both
        roll the local transaction back."""
        seq = self._certify_and_commit(request)
        if self._gathering:
            self._requests.append(request)
        else:
            self._flush([request])
        return seq

    def commit_sequenced(self, request: CommitRequest) -> int:
        """Order-only units, sequenced with ``assign_seq`` and no
        conflict check: a DDL broadcast or a statement-mode commit (the
        replicas in ``request.holders`` committed already) and an
        install (no replica holds it yet)."""
        middleware = self.middleware
        parent = request.span_source.active_span
        span = middleware.tracer.child_span(
            "certify", parent, kind=request.publish_kind,
            keys=len(request.keys)) if parent else None
        seq = middleware.certifier.assign_seq(request.keys)
        if span:
            span.set_tag("seq", seq)
            span.end()
        self.prepare(request, seq)
        self._harden(request)
        self._complete([request])
        return seq

    def commit_prepared(self, request: CommitRequest) -> int:
        """Phase 2 of a cross-shard 2PC commit (``repro.shard.twopc``):
        the transaction was already *prepared* — certified by this
        group's certifier and handed to :meth:`prepare` with the seq it
        won — and the coordinator decided commit.  Run the rest of the
        sequence."""
        self._harden(request)
        self._complete([request])
        return request.seq

    def abort_prepared(self, request: CommitRequest) -> None:
        """The other 2PC outcome (presumed abort) for a prepared entry:
        its certifier footprint is rescinded and the consumed seq is
        filled with an empty no-op unit — an empty recovery-log entry,
        an empty frame to every replica, ``ship_resolve_noop`` to the
        standby and an empty-footprint publish that moves the cache
        invalidator's watermark past the seq.  Watermarks stay gapless;
        the write disappears.  The caller rolls the session back."""
        self.middleware.certifier.rescind(request.seq)
        noop = CommitRequest(entries=[], noop=True, user=request.user,
                             database=request.database)
        noop.seq = request.seq
        self._harden(noop)
        self._complete([noop])

    def install(self, entries, tables, user: str = "reshard",
                database: Optional[str] = None,
                txn_id: Optional[str] = None) -> int:
        """Install already-committed facts (a reshard's snapshot copy,
        its recovery-log join batch, a replayed 2PC decision) as one
        ordered writeset unit.  Returns the assigned seq.

        Order-only sequencing is correct because the router never sends
        client writes for the moving keys to the destination group
        before the dual-write window, so nothing can race these installs
        on the same rows.  ``sync_apply``: no replica holds the rows yet
        and no client session carries a token that would make a later
        read wait for them, so every replica applies them before the
        install returns, also under asynchronous propagation."""
        return self.commit_sequenced(CommitRequest(
            keys=conflict_keys(entries), entries=entries,
            tables=sorted(tables), sync_apply=True, user=user,
            database=database, txn_id=txn_id))

    def changes_since(self, seq: int) -> Tuple[List[Dict[str, Any]], int]:
        """The read side of :meth:`install` (the E12 join): every
        writeset change sequenced after ``seq``, in order, and the seq
        of the last unit looked at.  Statement units are skipped — a DDL
        broadcast reaches every group directly."""
        changes: List[Dict[str, Any]] = []
        for entry in self.middleware.recovery_log.entries_since(seq):
            seq = max(seq, entry.seq)
            if entry.kind == "writeset":
                changes.extend(entry.payload)
        return changes, seq

    def hold_log(self, name: str, seq: int) -> None:
        """A reader of :meth:`changes_since` outside the group (a
        reshard) says where it will read from next: a named checkpoint,
        so log maintenance keeps the tail after ``seq`` until the reader
        moves on or calls :meth:`release_log`."""
        self.middleware.recovery_log.checkpoint(name, seq=seq)

    def release_log(self, name: str) -> None:
        self.middleware.recovery_log.release(name)

    def discard_after(self, seq: int) -> int:
        """Un-sequence every unit above ``seq``: they physically died
        with a failed master (1-safe loss, section 2.2) and no replica
        holds them.  The recovery log forgets them, and so does the
        certifier's conflict window — a later write to a key only they
        touched must not abort against a write nobody has.  Returns how
        many units were lost."""
        log = self.middleware.recovery_log
        for entry in log.entries_since(seq):
            self.middleware.certifier.rescind(entry.seq)
        return log.truncate_after(seq)

    # ------------------------------------------------------------------
    # the stages
    # ------------------------------------------------------------------

    def prepare(self, request: CommitRequest, seq: int) -> None:
        """Stage 2, HA phase 1: record the client txn as PENDING and
        mirror the unit to the standby, before the commit becomes
        durable (writeset mode; a 2PC prepare stops here until the
        decision) or at sequencing time (statement mode, where the
        replicas committed first)."""
        request.seq = seq
        ha = self.middleware.ha
        if ha is not None:
            ha.prepare(request)

    def _harden(self, request: CommitRequest) -> None:
        """Stages 3-4: durable on the replicas that hold the unit, then
        the recovery log; a writeset unit is staged for propagation."""
        middleware = self.middleware
        seq = request.seq
        origin = request.origin
        parent = request.span_source.active_span
        if request.connection is not None:
            # Prefix discipline: everything certified before this
            # transaction and already propagated must be applied at the
            # origin first.  Units staged in the *same* batch are
            # handled by the flush (the origin's frame applies
            # synchronously there).
            middleware.drain_replica(origin.name, up_to_seq=seq - 1)
            if parent:
                with middleware.tracer.child_span(
                        "replica.commit", parent, replica=origin.name):
                    request.connection.commit()
            else:
                request.connection.commit()
        for replica in request.holders:
            replica.applied_seq = max(replica.applied_seq, seq)
        middleware.recovery_log.append(
            seq, request.kind, request.entries, tables=request.tables,
            user=request.user, database=request.database)
        if request.kind != "writeset":
            return  # statement replication already ran it everywhere
        trace_ref = None
        if parent:
            prop_span = middleware.tracer.child_span(
                "propagate", parent, seq=seq,
                mode=middleware.config.propagation,
                batched=len(self._requests) > 0)
            if prop_span:
                trace_ref = (prop_span.trace_id, prop_span.span_id)
            prop_span.end()
        request.unit = ApplyUnit(
            seq, request.entries, keys=request.keys,
            origin=origin.name if origin is not None else None,
            enqueued_at=middleware.monitor.peek(), trace_ref=trace_ref)

    def _complete(self, requests: List[CommitRequest]) -> FrameLayout:
        """Stages 5-9 for units whose first half is done: one frame per
        destination for all of them, then per unit in seq order the
        session token, the HA ack and the certified stream — an acked
        commit can never be lost by a promotion, and the cache
        invalidator sees each commit's own keys and seq.  With nobody
        subscribed to that stream no footprint is built.  Returns the
        frame layout (see :meth:`batch`)."""
        middleware = self.middleware
        staged: List[ApplyUnit] = []
        sync = False
        for request in requests:
            if request.unit is not None:
                staged.append(request.unit)
            sync = sync or request.sync_apply
        layout: FrameLayout = ({}, set())
        if staged:
            layout = self._propagate(staged, sync)
        note_commit = middleware.config.consistency.note_commit
        listening = bool(middleware._certified_listeners)
        for request in requests:
            if request.session is not None:
                note_commit(request.session.view, request.seq)
            self._acknowledge(request)
            if not listening:
                continue
            if request.kind == "writeset":
                entries = request.entries
                holder = request.origin \
                    or next(iter(middleware.online_replicas()), None)
                keys = invalidation_keys(
                    entries, holder.engine if holder else None)
                tables = {(e["database"], e["table"]) for e in entries}
            else:
                # empty-footprint commits (e.g. SELECT FOR UPDATE only)
                # still publish: the event advances the invalidator's
                # freshness watermark
                keys = request.keys
                tables = _qualified(request.tables, request.database)
            middleware.publish_certified(
                request.seq, keys=keys, tables=tables,
                kind=request.publish_kind, database=request.database)
        self._truncate(requests)
        return layout

    def _truncate(self, requests: List[CommitRequest]) -> None:
        """Stage 9, log maintenance (section 4.4.4) — the one place
        anything per-commit is cut.  The trigger is a commit count: once
        the recovery log or the certifier log exceeds the retention
        watermark, everything at or below the retention floor goes,
        except that the newest half-watermark always stays (a snapshot
        just released still finds its tail) and that a cut must be worth
        half a watermark — so a log costs one filter per
        ``watermark // 2`` commits however slowly the floor moves.  The
        snapshots of the sessions committing ``requests`` hold nothing:
        their units are durable, and a lagging origin's would otherwise
        keep the cut one commit behind."""
        middleware = self.middleware
        watermark = middleware.config.retention_watermark
        log = middleware.recovery_log
        certifier = middleware.certifier
        length = max(len(log.entries), certifier.log_length())
        if watermark <= 0 or length <= watermark:
            return
        half = watermark // 2
        floor = middleware.retention_floor({r.session for r in requests})
        middleware.stats["retention_floor"] = floor
        cut = min(floor, log.head_seq - half)
        if cut - log.purged_seq < half:
            if length > 4 * watermark:
                self._report_stall(length)
            return
        middleware.stats["log_truncated"] += log.purge_before(cut)
        middleware.stats["certifier_pruned"] += certifier.prune(cut)
        if middleware.ha is not None:
            middleware.ha.truncate(cut)

    def _report_stall(self, length: int) -> None:
        """The floor will not move and the logs are four watermarks
        long: say who holds them — once per holder, never per commit
        (the monitor's event list is itself unbounded)."""
        retention = self.middleware.retention()
        if retention["holder"] == self._stalled_on:
            return
        self._stalled_on = retention["holder"]
        self.middleware.monitor.record(
            "retention_stalled", self.middleware.name,
            holder=retention["holder"], seq=retention["floor"],
            log_length=length)

    def _acknowledge(self, request: CommitRequest) -> None:
        """Stage 7, HA phase 2: the commit is durable everywhere the
        propagation mode requires — flip the ledger to COMMITTED and
        ship the session token.  Always precedes the client
        acknowledgement, so an acked commit can never be lost by a
        promotion (RPO = 0)."""
        ha = self.middleware.ha
        if ha is not None:
            ha.acknowledge(request)

    # ------------------------------------------------------------------
    # internals
    # ------------------------------------------------------------------

    def _certify_and_commit(self, request: CommitRequest) -> int:
        middleware = self.middleware
        parent = request.span_source.active_span
        span = middleware.tracer.child_span(
            "certify", parent, kind="writeset",
            keys=len(request.keys), start_seq=request.start_seq,
            batch_size=len(self._requests) + 1) if parent else None
        try:
            outcome = middleware.certifier.certify(request.start_seq,
                                                   request.keys)
        except CertifierDown:
            if span:
                span.set_tag("error", "CertifierDown")
                span.end()
            request.connection.rollback()
            middleware.stats["aborts"] += 1
            raise
        if self.equivalence_log is not None:
            self.equivalence_log.append({
                "start_seq": request.start_seq, "keys": request.keys,
                "ok": outcome.ok, "seq": outcome.seq,
                "conflict_seq": outcome.conflict_seq,
            })
        if span:
            span.set_tag("ok", outcome.ok)
        if not outcome.ok:
            if span:
                span.set_tag("conflict_seq", outcome.conflict_seq)
                span.end()
            request.connection.rollback()
            middleware.stats["aborts"] += 1
            middleware.stats["certification_aborts"] += 1
            request.origin.stats["aborts"] += 1
            raise SerializationError(
                f"certification failed: conflicts with global seq "
                f"{outcome.conflict_seq} (first-committer-wins)")
        if span:
            span.set_tag("seq", outcome.seq)
            span.end()
        self.prepare(request, outcome.seq)
        self._harden(request)
        return outcome.seq

    def _flush(self, requests: List[CommitRequest]) -> FrameLayout:
        """The second half of one batch: a gather's members, or one
        ``submit`` outside a gather."""
        if requests:
            self.stats["batches"] += 1
            self.stats["batched_commits"] += len(requests)
            self.stats["max_batch"] = max(self.stats["max_batch"],
                                          len(requests))
        return self._complete(requests)

    def _propagate(self, staged: List[ApplyUnit], sync: bool) -> FrameLayout:
        """One frame per destination replica for the whole batch;
        returns the frames and the replicas that applied theirs."""
        middleware = self.middleware
        sync = sync or middleware.config.propagation == "sync"
        frames: Dict[str, List[ApplyUnit]] = {}
        sync_applied: Set[str] = set()
        frame_units = 0
        for replica in middleware.replicas:
            if not replica.is_online:
                continue  # it will resynchronize from the recovery log
            name = replica.name
            units = [u for u in staged if u.origin != name]
            if not units:
                continue
            frames[name] = units
            frame_units += len(units)
            item = ApplyItem(units)
            # Origins committed mid-batch (a unit left out of this frame
            # as its own) already advertise their own seq; the watermark
            # rule requires their co-batch prefix to land before
            # anything else observes them (see module doc).
            if sync or len(units) < len(staged):
                sync_applied.add(name)
                middleware._apply_item(replica, item)
            else:
                replica.enqueue(item)
                if middleware.on_apply_enqueued is not None:
                    middleware.on_apply_enqueued(replica, item)
        self.stats["frames"] += len(frames)
        self.stats["frame_units"] += frame_units
        return frames, sync_applied


def _qualified(names, database: Optional[str]) -> set:
    """Raw ``table`` / ``db.table`` strings -> ``(db, table)`` pairs
    against the unit's default database."""
    keys = set()
    for name in names:
        name = str(name).lower()
        if "." in name:
            qualifier, _, table = name.partition(".")
            keys.add((qualifier, table))
        elif database is not None:
            keys.add((database.lower(), name))
    return keys
