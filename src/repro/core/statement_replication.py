"""Statement replication (section 4.3.2): every update statement runs at
every online replica, in one total order.

This is the ``statement`` half of the middleware's two replication
protocols, for every consistency protocol that does not route writes to
a master (:attr:`MiddlewareConfig.statement_broadcast
<repro.core.middleware.MiddlewareConfig.statement_broadcast>`).  Its
three rules are the paper's:

* **Determinism.** A statement whose outcome differs per replica
  (``NOW()``, ``RAND()``, ``LIMIT`` without ``ORDER BY``, an opaque
  stored procedure) is rewritten, rejected or knowingly broadcast, per
  the ``nondeterminism`` policy.
* **Coarse locking.** The middleware takes an exclusive lock on every
  written table, held to the end of the transaction — table granularity
  is all "simple query parsing" can see.  The locks live here, in one
  :class:`~repro.sqlengine.locks.LockManager` per middleware.
* **Same effect everywhere.** Each replica reports its rowcount; a
  mismatch means the replicas already differ: the transaction is rolled
  back at every replica and the write raises
  :class:`~repro.core.errors.ClusterDivergence` instead of widening the
  gap.

A replica that dies mid-broadcast is dropped and the survivors carry on
(transparent failover, section 4.3.3); at commit the statements are
sequenced as one unit of the commit pipeline.
"""

from __future__ import annotations

import itertools
from typing import TYPE_CHECKING, Any, List, Tuple

from ..sqlengine import ast_nodes as ast
from ..sqlengine import SQLError
from ..sqlengine.errors import ConnectionError_
from ..sqlengine.executor import Result
from ..sqlengine.locks import LockManager, LockMode
from .analysis import StatementInfo, rewrite_nondeterministic
from .errors import (
    ClusterDivergence, NoReplicaAvailable, UnsupportedStatementError,
)
from .groupcommit import CommitRequest
from .replica import Replica
from .writesets import statement_footprint

if TYPE_CHECKING:
    from .middleware import MiddlewareSession, ReplicationMiddleware
    from .transaction import OpenTransaction


class StatementReplication:
    """One middleware's statement-replication protocol: the broadcast
    write, the commit, and the middleware-level table locks."""

    def __init__(self, middleware: "ReplicationMiddleware"):
        self.middleware = middleware
        self.table_locks = LockManager()
        # lock owners are transactions, numbered in the order they first
        # lock: wait-die lets an older one wait and makes a younger one die
        self._lock_ids = itertools.count(1)

    def write(self, session: "MiddlewareSession", statement: ast.Statement,
              sql_text: str, params: List[Any],
              info: StatementInfo) -> Result:
        """Run one write at every online replica inside the session's
        transaction; returns the first replica's result."""
        middleware = self.middleware
        statement = self._handle_nondeterminism(session, statement, info)
        txn = session.txn
        if info.tables_written:
            self._acquire_table_locks(txn, info)

        targets = middleware.online_replicas()
        if not targets:
            raise NoReplicaAvailable("no online replica for the write")
        # A deterministic error (SQLError, LockConflict) would strike every
        # replica alike: it propagates from the first one.
        results: List[Tuple[Replica, Result]] = []
        for replica in targets:
            connection = txn.connection(replica)
            try:
                result = session._traced_execute(
                    replica, connection, statement, params)
                results.append((replica, result))
            except ConnectionError_:
                # Replica died mid-broadcast: statement replication keeps
                # full state on the survivors — transparent failover.
                session._note_replica_failure(replica)
                txn.connections.pop(replica.name, None)
        if not results:
            raise NoReplicaAvailable("every replica failed during the write")

        if len({result.rowcount for _r, result in results}) > 1:
            middleware.monitor.record(
                "divergence_detected", middleware.name,
                rowcounts={r.name: res.rowcount for r, res in results})
            # the statement already ran at every replica: the whole
            # transaction goes, so no COMMIT can apply it on top
            txn.rollback()
            raise ClusterDivergence(
                f"statement affected different row counts per replica: "
                f"{[(r.name, res.rowcount) for r, res in results]}")

        txn.note_write(sql_text, params, info.tables_written)
        if info.is_ddl:
            txn.had_ddl = True
        elif middleware._certified_listeners:
            # derive the invalidation footprint from the statement itself
            # (no writeset exists in this mode) against a surviving replica
            keys, opaque = statement_footprint(
                statement, info, results[0][0].engine, session.database,
                params)
            if opaque:
                txn.had_opaque = True
            else:
                txn.footprints |= keys
        for replica, _result in results:
            replica.stats["served_writes"] += 1
        return results[0][1]

    def commit(self, txn: "OpenTransaction") -> None:
        """Commit at every replica holding the transaction, then sequence
        its statements as one unit (recovery log, invalidation).  Its
        table locks go when it ends (:meth:`OpenTransaction.end`)."""
        middleware = self.middleware
        session = txn.session
        committed = []
        for name, connection in list(txn.connections.items()):
            replica = middleware.replica_by_name(name)
            try:
                connection.commit()
                committed.append(replica)
            except ConnectionError_:
                session._note_replica_failure(replica)
        if not committed:
            middleware.stats["aborts"] += 1
            raise NoReplicaAvailable("commit failed on every replica")
        kind = ("ddl" if txn.had_ddl
                else "opaque" if txn.had_opaque else "statements")
        middleware.group_commit.commit_sequenced(CommitRequest(
            session, keys=frozenset(txn.footprints),
            entries=list(txn.statements),
            tables=sorted(txn.tables_written),
            kind="statements", publish_kind=kind, holders=committed))

    # ------------------------------------------------------------------

    def _acquire_table_locks(self, txn: "OpenTransaction",
                             info: StatementInfo) -> None:
        """Exclusive locks on the written tables, held until the
        transaction ends (coarse table granularity, section 4.3.2)."""
        if txn.lock_id is None:
            txn.lock_id = next(self._lock_ids)
        for table in sorted(info.tables_written):
            self.table_locks.acquire(txn.lock_id, table, LockMode.EXCLUSIVE)

    def _handle_nondeterminism(self, session: "MiddlewareSession",
                               statement: ast.Statement,
                               info: StatementInfo) -> ast.Statement:
        """The statement to broadcast under the ``nondeterminism``
        policy: as sent, rewritten to constants, or refused."""
        policy = self.middleware.config.nondeterminism
        if policy == "broadcast" or (info.is_deterministic
                                     and info.safe_for_statement_replication):
            return statement
        if policy == "reject":
            reasons = (info.nondeterministic_calls
                       or (["LIMIT without ORDER BY"]
                           if info.limit_without_order_in_write else [])
                       or ["opaque stored procedure"])
            raise UnsupportedStatementError(
                f"non-deterministic write ({', '.join(reasons)}) refused "
                "under statement replication")
        # rewrite policy
        if info.is_procedure_call:
            return self._vet_procedure_call(session, statement)
        if info.rewritable_calls:
            now_value = self.middleware.monitor.now()
            statement, _count = rewrite_nondeterministic(statement, now_value)
        if info.unsafe_calls or info.limit_without_order_in_write:
            reason = (info.unsafe_calls
                      or ["LIMIT without ORDER BY"])
            raise UnsupportedStatementError(
                f"cannot make statement deterministic ({', '.join(map(str, reason))}); "
                "use writeset replication for this workload (section 4.3.2)")
        return statement

    def _vet_procedure_call(self, session: "MiddlewareSession",
                            statement: ast.Statement) -> ast.Statement:
        """Broadcast a stored-procedure call only when static analysis can
        prove it deterministic — the engine-cooperation capability the
        paper's agenda calls for (section 4.2.1); real middleware cannot
        see the body and must reject or risk divergence."""
        from ..sqlengine.procedures import analyze_procedure

        replica = next(iter(self.middleware.online_replicas()), None)
        if replica is None:
            raise NoReplicaAvailable("no online replica")
        database_name = (statement.name.database or session.database)
        try:
            database = replica.engine.database(database_name)
            procedure = database.procedure(statement.name.name)
        except SQLError as exc:
            raise UnsupportedStatementError(
                f"cannot analyze procedure: {exc}")
        analysis = analyze_procedure(procedure)
        if not analysis.deterministic:
            raise UnsupportedStatementError(
                f"stored procedure {procedure.name!r} is non-deterministic; "
                "broadcasting it would diverge the cluster (section 4.2.1)")
        return statement
