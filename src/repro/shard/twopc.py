"""Cross-shard atomic commit, layered on each group's certifier and
group-commit pipeline.

The shard tier never invents a second commit protocol for the common
case: a transaction whose writes land on one shard commits through that
group's ordinary writeset pipeline (the documented fast path — see
``docs/SHARDING.md``).  Only a transaction that wrote on two or more
groups pays two-phase commit:

**Prepare**, per participant group in deterministic (index) order:
extract the local writeset, run the group's own SI certification
(first-committer-wins, exactly the check a single-group commit would
run) and ship the entry to the group's HA standby.  A prepared
transaction holds a certified sequence number but has not committed.

**Decide**: one record in the shard-map log
(``{"kind": "2pc_decision", "txn": ..., "decision": ...}``).  The log is
the coordinator's durable state, so recovery is deterministic: decision
record present -> replay it; absent -> presumed abort.

**Commit**, per prepared group: the rest of the group's own pipeline —
prefix drain, local commit, recovery-log append, propagation frame, HA
ack, cache publish — via ``GroupCommitCoordinator.commit_prepared``.

**Abort** (some participant failed certification), via
``GroupCommitCoordinator.abort_prepared``: prepared groups *rescind*
their certifier entries (the footprint becomes empty so it can never
abort a later transaction against a write that never happened) and the
consumed sequence number is filled with an **empty no-op commit** so
replica watermarks stay gapless; the HA standby's PENDING entry is
rewritten to the same no-op before the ack, so a promotion can never
resurrect the aborted writeset.

This module decides; every step that touches a group's certifier log,
recovery log, replicas or standby is the group's own commit sequence
(``repro.core.groupcommit``).

Because each group certifies with its own certifier against its own
local writeset, per-group outcomes are bit-identical to what a
single-group commit of the same writeset would decide — that equivalence
is asserted by E29 (seeded replay) and a hypothesis property in
``tests/shard``.
"""

from __future__ import annotations

import itertools
from typing import Any, Dict, List, Optional

from ..core.errors import MiddlewareDown
from ..sqlengine import SerializationError


class TwoPCCoordinator:
    """Coordinates cross-shard commits for one :class:`ShardedCluster`."""

    def __init__(self, cluster):
        self.cluster = cluster
        self._txn_counter = itertools.count(1)
        self.stats: Dict[str, int] = {
            "commits": 0, "aborts": 0, "prepares": 0, "rescinds": 0,
        }
        # E29 audit hook: every per-group prepare certification decision,
        # in coordinator order, for equivalence replay against a fresh
        # per-group certifier.
        self.equivalence_log: Optional[List[Dict[str, Any]]] = None

    # ------------------------------------------------------------------

    def commit(self, shard_session, write_groups, parent_span=None) -> None:
        """Atomically commit ``shard_session``'s open transaction across
        ``write_groups`` (group indices with writes).  Raises
        :class:`SerializationError` when any participant fails
        certification — in that case every participant rolled back."""
        cluster = self.cluster
        tracer = cluster.tracer
        txn_id = f"{cluster.name}-2pc-{next(self._txn_counter)}"

        prepared = []   # (index, middleware, group_session, request, seq)
        plain = []      # (index, group_session) with nothing to certify
        conflict = None
        participant_down = None
        for index in sorted(write_groups):
            middleware = cluster.groups[index]
            try:
                group_session = shard_session.group_session(index)
                request = group_session.stage_commit_request()
                if request is None:
                    # the writes matched zero rows here: nothing global
                    # to decide for this group, a plain local commit
                    # suffices
                    plain.append((index, group_session))
                    continue
                span = tracer.child_span(
                    "shard.2pc.prepare", parent_span, txn=txn_id,
                    shard=middleware.name, keys=len(request.keys),
                    start_seq=request.start_seq)
                outcome = middleware.certifier.certify(request.start_seq,
                                                       request.keys)
                self.stats["prepares"] += 1
                if self.equivalence_log is not None:
                    self.equivalence_log.append({
                        "shard": middleware.name, "txn": txn_id,
                        "start_seq": request.start_seq,
                        "keys": request.keys,
                        "ok": outcome.ok, "seq": outcome.seq,
                        "conflict_seq": outcome.conflict_seq,
                    })
                span.set_tag("ok", outcome.ok)
                if not outcome.ok:
                    span.set_tag("conflict_seq", outcome.conflict_seq)
                    span.end()
                    conflict = (middleware, outcome)
                    break
                span.set_tag("seq", outcome.seq)
                span.end()
                # a certified-but-unshipped entry must be resolvable, so
                # record the prepare *before* the ship call can fail
                prepared.append((index, middleware, group_session,
                                 request, outcome.seq))
                # prepare = certify + ship: the standby learns about the
                # in-doubt entry before any group commits it
                middleware.group_commit.prepare(request, outcome.seq)
            except MiddlewareDown as exc:
                # this participant's middleware died (or was fenced out)
                # mid-prepare: presumed abort.  Its own in-doubt state is
                # settled at promotion (a PENDING prepare above the
                # replica watermark is dropped and its seq reused); the
                # surviving participants' prepared entries are rescinded
                # below so a leaked certified slot can never block later
                # transactions against a write that never happened.
                participant_down = exc
                break

        decision = "abort" if conflict is not None \
            or participant_down is not None else "commit"
        record = cluster.map_log.append(
            "2pc_decision", txn=txn_id, decision=decision,
            shards=[cluster.groups[i].name
                    for i, *_ in prepared] if prepared else [],
            seqs={middleware.name: seq
                  for _, middleware, _, _, seq in prepared},
            reason=("participant_down" if participant_down is not None
                    else "conflict" if conflict is not None else None))
        decide_span = tracer.child_span(
            "shard.2pc.decide", parent_span, txn=txn_id,
            decision=decision, record_seq=record.seq,
            participants=len(prepared) + len(plain))
        decide_span.end()

        if decision == "commit":
            for index, middleware, group_session, request, seq in prepared:
                if middleware.failed \
                        or middleware is not cluster.groups[index]:
                    # this participant died (or was deposed) between its
                    # prepare and this commit round.  The decision record
                    # is durable and says COMMIT, so the transaction must
                    # not half-apply: replay the decided writeset on the
                    # group's promoted leader.
                    self._replay_decision(index, middleware, request,
                                          txn_id, parent_span=parent_span)
                    continue
                span = tracer.child_span(
                    "shard.2pc.commit", parent_span, txn=txn_id,
                    shard=middleware.name, seq=seq)
                with span:
                    middleware.group_commit.commit_prepared(request)
                middleware.stats["commits"] += 1
                group_session._end_transaction()
            for index, group_session in plain:
                group_session.commit()
            self.stats["commits"] += 1
            return

        # presumed abort: resolve the prepared groups' certified entries
        for index, middleware, group_session, request, seq in prepared:
            if middleware.failed or middleware is not cluster.groups[index]:
                # the dead instance's prepared entry resolves at
                # promotion: a PENDING prepare above the replicas'
                # applied watermark is dropped and its seq reused.
                # Resolving it here would apply a no-op at that seq to
                # the *shared* replicas, advancing the watermark and
                # making promotion resurrect the aborted txn as
                # committed — so leave it to the promotion path.
                continue
            span = tracer.child_span(
                "shard.2pc.abort", parent_span, txn=txn_id,
                shard=middleware.name, seq=seq)
            with span:
                middleware.group_commit.abort_prepared(request)
            self.stats["rescinds"] += 1
            if not group_session.closed:
                group_session._rollback_transaction()
        for index, group_session in plain:
            if not group_session.closed:
                group_session.rollback()
        self.stats["aborts"] += 1
        if participant_down is not None:
            raise participant_down
        conflicted_mw, outcome = conflict
        raise SerializationError(
            f"2pc certification failed on shard {conflicted_mw.name!r}: "
            f"conflicts with its seq {outcome.conflict_seq} "
            "(first-committer-wins)")

    # ------------------------------------------------------------------

    def _replay_decision(self, index: int, dead_middleware, request,
                         txn_id: str, parent_span=None) -> int:
        """Honour a durable COMMIT decision on a participant whose
        middleware died between prepare and commit: install the decided
        writeset on the group's promoted leader as one ordered unit (the
        promoted standby dropped the dead instance's PENDING prepare at
        promotion, so this is the first and only application), and mark
        the client transaction COMMITTED in the leader's ledger so a
        client-side replay dedups instead of double-applying."""
        cluster = self.cluster
        leader = cluster.groups[index]
        if leader is dead_middleware or not cluster.group_alive(index):
            raise leader.down_error(
                f"group {index} has no live leader to honour 2PC "
                f"decision for {txn_id!r}; the decision record in the "
                "shard-map log replays it at recovery")
        seq = leader.group_commit.install(
            request.entries, request.tables, user=request.user,
            database=request.database, txn_id=request.txn_id)
        self.stats.setdefault("decision_replays", 0)
        self.stats["decision_replays"] += 1
        span = cluster.tracer.child_span(
            "shard.2pc.commit", parent_span, txn=txn_id,
            shard=leader.name, seq=seq, replayed=True)
        span.end()
        return seq
