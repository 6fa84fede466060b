"""A session's open transaction: one record, one lifetime (section 4.3.3).

BEGIN — explicit, or the implicit one around an autocommit write —
creates an :class:`OpenTransaction` as ``session.txn``, and
:meth:`OpenTransaction.end` is the one path that drops it (commit,
rollback, ``close``, the middleware's ``fail``).  It holds the
session connections it began a transaction on and the replica it is
anchored at, its snapshot's ``start_seq`` (certification window and
hold on the log), its statement log and the tables it wrote, and
statement replication's lock id and invalidation footprint.  A record
outlives its end: the resilience layer replays a failed commit's
statement log from it.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Dict, List, Optional, Sequence, Tuple

from ..sqlengine import Connection, SQLError
from .errors import ReplicaUnavailable
from .groupcommit import CommitRequest
from .loadbalancer import RoutingContext
from .replica import Replica
from .writesets import conflict_keys, extract_writeset_engine

if TYPE_CHECKING:
    from .middleware import MiddlewareSession


class OpenTransaction:
    """One session's open transaction (see the module docstring)."""

    __slots__ = ("session", "isolation", "connections", "statements",
                 "tables_written", "start_seq", "is_write", "local_replica",
                 "lock_id", "footprints", "had_opaque", "had_ddl")

    def __init__(self, session: "MiddlewareSession",
                 isolation: Optional[str]):
        self.session = session
        self.isolation = isolation
        self.connections: Dict[str, Connection] = {}
        self.statements: List[Tuple[str, list]] = []
        self.tables_written: set = set()
        self.start_seq = session.middleware.global_seq
        self.is_write = False
        self.local_replica: Optional[str] = None
        # statement replication's: wait-die lock owner id (taken on the
        # first lock) and the invalidation footprint of the writes
        self.lock_id: Optional[int] = None
        self.footprints = frozenset()
        self.had_opaque = False
        self.had_ddl = False

    def connection(self, replica: Replica) -> Connection:
        """The session's connection at ``replica``, begun for this
        transaction on first use."""
        connection = self.connections.get(replica.name)
        if connection is None:
            connection = self.session.connection(replica)
            isolation = self.isolation
            config = self.session.middleware.config
            if isolation is None and config.replication == "writeset" \
                    and config.consistency.name != "read-committed" \
                    and replica.engine.dialect.supports_snapshot_isolation:
                # SI-class protocols want snapshot transactions locally;
                # the engine default where the dialect lacks SI (the 4.1.2
                # heterogeneity headache)
                isolation = "SNAPSHOT"
            connection.begin(isolation)
            self.connections[replica.name] = connection
        return connection

    def anchor(self, replica: Replica) -> Connection:
        """Run the rest of this transaction at ``replica`` (writeset
        replication: its reads see one snapshot, its writes one writeset);
        returns the connection there."""
        self.local_replica = replica.name
        connection = self.connection(replica)
        # GSI-correct certification: the conflict window starts at the
        # snapshot this transaction actually reads — the local replica's
        # applied watermark, which may trail the global sequence under
        # asynchronous propagation.
        self.start_seq = min(self.start_seq, replica.applied_seq)
        return connection

    def local(self, tables: Sequence[str] = (),
              replica: Optional[Replica] = None
              ) -> Tuple[Replica, Connection]:
        """The replica this transaction executes at — ``replica`` if the
        caller already asked :func:`write_replica`, else its choice for
        the statement's ``tables`` — anchored, and the connection there."""
        if replica is None:
            replica = write_replica(self.session, tables)
        elif not replica.is_online:
            raise ReplicaUnavailable(
                f"replica {replica.name!r} chosen for this write is down")
        return replica, self.anchor(replica)

    def read_replica(self) -> Optional[Replica]:
        """Where this transaction's next read must run — a replica it
        already holds under statement replication, else its anchor — or
        ``None`` while the middleware's read choice may place it."""
        middleware = self.session.middleware
        if not middleware.config.statement_broadcast:
            if self.local_replica is None and not self.is_write:
                return None
            return write_replica(self.session)
        for name in self.connections:
            replica = middleware.replica_by_name(name)
            if replica.can_serve:
                return replica
        if self.connections:
            raise ReplicaUnavailable("no live replica holds this transaction")
        return None

    def read_connection(self, replica: Replica) -> Connection:
        """The connection a read at ``replica`` runs on: a writeset
        transaction anchors there (its later writes must see the read's
        snapshot) unless it is a master protocol's read-only one."""
        config = self.session.middleware.config
        if config.statement_broadcast or (
                config.consistency.write_mode == "master"
                and not self.is_write):
            return self.connection(replica)
        return self.anchor(replica)

    def note_write(self, sql_text: str, params: list, tables) -> None:
        """A write ran: log it for replay and sequencing, and remember
        the tables it wrote."""
        self.statements.append((sql_text, list(params)))
        self.tables_written |= tables
        self.is_write = True

    def stage_commit_request(self) -> Optional[CommitRequest]:
        """Build this transaction's :class:`CommitRequest` without
        certifying or committing anything — the cross-shard 2PC prepare
        hook (``repro.shard.twopc``): the coordinator certifies each
        participant itself and finishes the winners through
        :meth:`GroupCommitCoordinator.commit_prepared`.  Returns ``None``
        when there is nothing to certify here (read-only, or the writes
        matched zero rows) — the caller commits or rolls back plainly."""
        if not self.is_write:
            return None
        replica = self.session.middleware.replica_by_name(self.local_replica)
        if not replica.is_online or replica.engine.crashed:
            # The local replica died before certification: nothing global
            # has happened yet, so this failure is unambiguous — retry
            # layers may safely replay the transaction on a survivor.
            # (A crash *after* certify/commit stays ambiguous, 4.3.3.)
            raise ReplicaUnavailable(
                f"local replica {replica.name!r} died before commit")
        connection = self.connections[replica.name]
        txn = connection.txn
        entries = extract_writeset_engine(txn) if txn is not None else []
        if not entries:
            return None
        return CommitRequest(
            session=self.session, origin=replica, connection=connection,
            start_seq=self.start_seq, keys=conflict_keys(entries),
            entries=entries, tables=sorted(self.tables_written))

    def commit(self) -> None:
        """COMMIT, then end: a read-only transaction commits where it
        ran; a write commits through its replication protocol."""
        middleware = self.session.middleware
        try:
            if not self.is_write:
                for connection in self.connections.values():
                    connection.commit()
                return
            if middleware.config.statement_broadcast:
                middleware.statement_replication.commit(self)
            else:
                # certify ... publish: the group-commit coordinator's one
                # stage order (a batch of one outside a gather)
                request = self.stage_commit_request()
                if request is None:
                    self.connections[self.local_replica].commit()
                else:
                    middleware.group_commit.submit(request)
            middleware.stats["commits"] += 1
        finally:
            self.end()

    def rollback(self) -> None:
        """ROLLBACK: :meth:`end` uncommitted, counted as an abort."""
        self.end()
        self.session.middleware.stats["aborts"] += 1

    def end(self) -> None:
        """The one end path, committed or not: whatever is still open
        rolls back (the connections stay the session's), the table locks
        go (two-phase locking) and the record leaves its session.  Always
        succeeds: if a replica connection is broken, its transaction died
        with it, and the session drops it for a fresh one."""
        session = self.session
        for name, connection in self.connections.items():
            try:
                connection.rollback()
            except SQLError:
                session.connections.pop(name, None)
        middleware = session.middleware
        if self.lock_id is not None:
            middleware.statement_replication.table_locks.release_all(
                self.lock_id)
        session.txn = None
        middleware.config.balancer.end_transaction(session.id)


def write_replica(session: "MiddlewareSession",
                  tables: Sequence[str] = ()) -> Replica:
    """The one write choice: the master under a master protocol, else the
    open transaction's anchor, else the balancer's pick for the
    statement's ``tables`` (placed by its tables, as a read is).  The
    timed driver asks it before it charges and hands the answer back as
    ``execute_one_parsed(..., replica=)``."""
    middleware = session.middleware
    if middleware.config.consistency.write_mode == "master":
        replica = middleware.master
        if not replica.is_online:
            raise ReplicaUnavailable(
                f"master {replica.name!r} is down; promote a new master")
        return replica
    txn = session.txn
    if txn is not None and txn.local_replica is not None:
        replica = middleware.replica_by_name(txn.local_replica)
        if not replica.is_online:
            # Transaction replication cannot transparently fail over:
            # the transaction lived only here (section 4.3.3).
            raise ReplicaUnavailable(
                f"replica {replica.name!r} executing this transaction "
                "died; the transaction must be replayed by the client")
        return replica
    context = RoutingContext(tables=tables, session_id=session.id,
                             is_write=True)
    return middleware.config.balancer.choose(
        middleware.online_replicas(), context)
