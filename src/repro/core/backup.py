"""Cluster-consistent backup and the replica join (paper sections 4.4.1,
4.4.2).

"It is necessary for the replication middleware to collaborate with the
replica and the backup tool, to make sure that the dumped data is
consistent with respect to the entire cluster ... the middleware must be
aware of exactly which transactions are contained in the dump and which
ones must be replayed."

A :class:`ClusterBackup` is an engine dump **tagged with the global
sequence number** it contains, so restore + recovery-log replay is exact.
That pair is also how any copy of the data joins the cluster, so the
join lives here, written once: :meth:`BackupCoordinator.take_snapshot`
(the state at S), :meth:`~BackupCoordinator.catch_up` (the log tail
after S) and :meth:`~BackupCoordinator.join` (snapshot → tail → verify
→ cut over).  Replica add, rolling-upgrade re-add, failback, restore and
donor resume (``core.management``, ``core.failover``) choose the source,
pay their availability cost and record their event; none of them moves
data itself.

Cold backup takes the donor offline first (cheap dump, capacity loss);
hot backup dumps a serving replica (no capacity loss; in the timed
benchmarks the donor is slowed while dumping — the Oracle redo-log
amplification effect the paper mentions).
"""

from __future__ import annotations

from typing import Optional, Tuple

from ..sqlengine.backup import BackupOptions, EngineDump, dump_engine, restore_engine
from .errors import LogTruncatedError, ReplicaUnavailable
from .middleware import ReplicationMiddleware
from .replica import Replica, ReplicaState


class ClusterBackup:
    """An engine dump plus the middleware checkpoint it corresponds to."""

    __slots__ = ("dump", "global_seq", "checkpoint_name", "mode",
                 "source_replica")

    def __init__(self, dump: EngineDump, global_seq: int,
                 checkpoint_name: str, mode: str, source_replica: str):
        self.dump = dump
        self.global_seq = global_seq
        self.checkpoint_name = checkpoint_name
        self.mode = mode                    # "cold" | "hot"
        self.source_replica = source_replica

    def __repr__(self) -> str:
        return (f"ClusterBackup(seq={self.global_seq}, mode={self.mode}, "
                f"rows={self.dump.size_rows()})")


class BackupCoordinator:
    """Middleware-coordinated backup, restore and replica join."""

    def __init__(self, middleware: ReplicationMiddleware):
        self.middleware = middleware

    # ------------------------------------------------------------------
    # the state at S
    # ------------------------------------------------------------------

    def most_caught_up(self) -> Optional[Replica]:
        """The online replica with the highest applied watermark: the
        default snapshot source and the join's verification reference.
        A joining replica is RECOVERING, so it is never its own peer."""
        return max(self.middleware.online_replicas(),
                   key=lambda r: r.applied_seq, default=None)

    def take_snapshot(self, source: Optional[Replica] = None,
                      offline: bool = False) -> ClusterBackup:
        """Dump ``source`` (default: the most caught-up online replica),
        tagged with the sequence number the dump contains.

        The source is drained first, so S is as close to the log head as
        the source can get and the tail a joiner replays is short; the tag
        is the source's applied watermark, so the dump holds exactly the
        units up to S.  ``offline`` takes the source OFFLINE before the
        dump (cold backup) and leaves it there — it comes back through
        :meth:`resume_offline_donor`.

        The checkpoint at S holds the recovery log until the snapshot is
        joined from or :meth:`release` d: a kept backup is a promise
        that the tail after it stays replayable.
        """
        middleware = self.middleware
        source = source or self.most_caught_up()
        if source is None:
            raise ReplicaUnavailable("no online replica to copy from")
        if not source.is_online:
            raise ReplicaUnavailable(f"replica {source.name!r} not online")
        middleware.drain_replica(source.name)
        mode = "cold" if offline else "hot"
        if offline:
            source.set_state(ReplicaState.OFFLINE)
        seq = source.applied_seq
        checkpoint = f"{mode}-{source.name}@{seq}"
        middleware.recovery_log.checkpoint(checkpoint, seq=seq)
        dump = dump_engine(source.engine, BackupOptions.full_clone())
        middleware.monitor.record(f"{mode}_backup", source.name,
                                  seq=seq, rows=dump.size_rows())
        return ClusterBackup(dump, seq, checkpoint, mode, source.name)

    def hot_backup(self, replica_name: str) -> ClusterBackup:
        """Dump a replica while it keeps serving."""
        return self.take_snapshot(
            self.middleware.replica_by_name(replica_name))

    def cold_backup(self, replica_name: str) -> ClusterBackup:
        """Take the donor offline, dump it, leave it OFFLINE."""
        return self.take_snapshot(
            self.middleware.replica_by_name(replica_name), offline=True)

    def release(self, backup: ClusterBackup) -> None:
        """Give up a snapshot that will not be restored: its checkpoint
        stops holding the recovery log.  Joining from it later still
        works, at the price of a re-clone once the tail is purged."""
        self.middleware.recovery_log.release(backup.checkpoint_name)

    # ------------------------------------------------------------------
    # the tail after S, and the join
    # ------------------------------------------------------------------

    def catch_up(self, replica: Replica) -> int:
        """Replay the recovery-log tail after ``replica.applied_seq`` into
        the replica, advancing its watermark entry by entry.  Returns the
        number of entries replayed."""
        log = self.middleware.recovery_log
        replayed = 0
        for entry in log.entries_since(replica.applied_seq):
            log.replay_entry(replica.engine, entry)
            replica.applied_seq = entry.seq
            replayed += 1
        return replayed

    def _restore(self, replica: Replica, snapshot: ClusterBackup) -> None:
        restore_engine(replica.engine, snapshot.dump)
        replica.applied_seq = snapshot.global_seq

    def join(self, replica: Replica,
             snapshot: Optional[ClusterBackup] = None) -> Tuple[int, bool]:
        """Bring ``replica`` to the cluster's state and put it ONLINE.

        The state at S (``snapshot``; without one the replica joins from
        its own state and its persisted ``applied_seq`` watermark), then
        every recovery-log entry after S, then a check against a live
        peer, then the cut-over.  Returns ``(entries replayed,
        recloned)``; ``recloned`` says the check failed — or the log no
        longer reaches back to S — and the replica was rebuilt from the
        peer; the caller records it.
        """
        middleware = self.middleware
        replica.set_state(ReplicaState.RECOVERING)
        if snapshot is not None:
            self._restore(replica, snapshot)
        try:
            replayed = self.catch_up(replica)
            recloned = False
        except LogTruncatedError:
            # S lies below what the log still holds (a released or
            # overtaken snapshot): the tail has a hole, start over
            replayed, recloned = 0, True
        # Global barrier: no in-flight update may be missed (section
        # 4.4.2) — the log head is authoritative, so anything still
        # queued for the joiner is already in it.
        replica.apply_queue.clear()
        peer = self.most_caught_up()
        if peer is not None and not recloned:
            middleware.drain_replica(peer.name)
            recloned = (replica.engine.content_signature()
                        != peer.engine.content_signature())
        if recloned:
            # The joiner holds state the cluster never saw (e.g. it was
            # a 1-safe master whose tail was lost), drifted otherwise or
            # could not be replayed forward: "usually a full recovery
            # has to be performed" (section 4.4.2) — re-clone it from
            # the peer.
            fresh = self.take_snapshot(peer)
            self._restore(replica, fresh)
            replayed += self.catch_up(replica)
            self.release(fresh)
        # the joiner holds the log itself now, by its applied_seq
        if snapshot is not None:
            self.release(snapshot)
        middleware.recovery_log.release(f"removed:{replica.name}")
        if replica not in middleware.replicas:
            middleware.replicas.append(replica)
            replica.on_state_change(middleware._replica_state_changed)
        replica.set_state(ReplicaState.ONLINE)
        return replayed, recloned

    def restore_to_replica(self, backup: ClusterBackup,
                           replica: Replica) -> int:
        """Join ``replica`` from ``backup``: load it, then replay the
        recovery log from the backup's checkpoint to the present.
        Returns the number of log entries replayed."""
        replayed, recloned = self.join(replica, backup)
        self.middleware.monitor.record("restore", replica.name,
                                       from_seq=backup.global_seq,
                                       replayed=replayed, recloned=recloned)
        return replayed

    def resume_offline_donor(self, backup: ClusterBackup) -> int:
        """After a cold backup, bring the donor back online by replaying
        what it missed while it was being dumped."""
        replica = self.middleware.replica_by_name(backup.source_replica)
        replayed, recloned = self.join(replica)
        self.middleware.monitor.record("donor_resumed", replica.name,
                                       replayed=replayed, recloned=recloned)
        return replayed
