"""The engine: one simulated RDBMS hosting many database instances.

Public entry points:

* :class:`Engine` — create databases, accept connections, crash/recover
  for fault injection.
* :class:`Connection` — the client session: ``execute(sql, params)`` plus
  explicit ``begin``/``commit``/``rollback``.  Autocommit wraps each
  statement in an implicit transaction.

Dialect quirks (section 4 of the paper) surface here: error handling
poisons PostgreSQL-style transactions, temporary-table scoping follows the
dialect, snapshot isolation is refused by engines that lack it.
"""

from __future__ import annotations

import hashlib
import itertools
from typing import Any, Dict, List, Optional, Sequence

from . import ast_nodes as ast
from .auth import User, UserStore
from .catalog import Database
from .dialects import Dialect, generic
from .errors import (
    ConnectionError_, DuplicateObjectError, NameError_, SQLError,
    TransactionAbortedError, UnsupportedFeatureError,
)
from .executor import Executor, Result
from .functions import FunctionEnvironment
from .lobs import LobStore
from .locks import LockConflict, LockManager
from .mvcc import (
    CommitClock, READ_COMMITTED, READ_UNCOMMITTED, REPEATABLE_READ,
    SERIALIZABLE, SNAPSHOT,
)
from .stmtcache import CAPACITY, StatementCache, Unit
from .storage import Table
from .transactions import Transaction, TransactionStatus

_VALID_ISOLATION = {
    READ_UNCOMMITTED, READ_COMMITTED, REPEATABLE_READ, SNAPSHOT, SERIALIZABLE,
}


class TempSpace:
    """Per-connection temporary table namespace (section 4.1.4)."""

    def __init__(self):
        self._tables: Dict[str, Table] = {}

    def create(self, table: Table, if_not_exists: bool = False) -> None:
        key = table.name.lower()
        if key in self._tables and not if_not_exists:
            raise DuplicateObjectError(
                f"temporary table {table.name!r} already exists")
        self._tables.setdefault(key, table)

    def get(self, name: str) -> Optional[Table]:
        return self._tables.get(name.lower())

    def drop(self, name: str) -> None:
        self._tables.pop(name.lower(), None)

    def names(self) -> List[str]:
        return list(self._tables.keys())

    def clear(self) -> None:
        self._tables.clear()


class Connection:
    """One client session against one engine."""

    def __init__(self, engine: "Engine", user: User,
                 database: Optional[str] = None):
        self.engine = engine
        self.user = user
        self._database = database
        self.txn: Optional[Transaction] = None
        self.temp_space = TempSpace()
        self.variables: Dict[str, Any] = {}
        self.default_isolation = engine.dialect.default_isolation
        self.last_insert_id: Optional[int] = None
        self.closed = False

    # -- identity / catalog ------------------------------------------------

    @property
    def user_name(self) -> str:
        return self.user.name

    def current_database_name(self) -> str:
        if self._database is None:
            raise NameError_("no database selected (USE <db> first)")
        return self._database

    @property
    def database_or_none(self) -> Optional[str]:
        return self._database

    def use_database(self, name: str) -> None:
        self.engine.database(name)  # validate
        self._database = name

    # -- transaction control ----------------------------------------------

    def normalize_isolation(self, level: Optional[str]) -> str:
        if level is None:
            level = self.default_isolation
        level = level.upper()
        if level not in _VALID_ISOLATION:
            raise UnsupportedFeatureError(f"unknown isolation level {level!r}")
        dialect = self.engine.dialect
        if level in (SNAPSHOT, REPEATABLE_READ) \
                and not dialect.supports_snapshot_isolation:
            raise UnsupportedFeatureError(
                f"dialect {dialect.name!r} does not provide snapshot "
                "isolation (section 4.1.2)")
        if level == SERIALIZABLE and not dialect.supports_serializable:
            raise UnsupportedFeatureError(
                f"dialect {dialect.name!r} does not provide SERIALIZABLE")
        return level

    def begin(self, isolation: Optional[str] = None) -> Transaction:
        self._check_usable()
        if self.txn is not None and self.txn.is_active:
            raise SQLError("transaction already in progress")
        level = self.normalize_isolation(isolation)
        self.txn = self.engine.begin_transaction(self, level, explicit=True)
        return self.txn

    def commit(self) -> None:
        self._check_usable()
        txn = self.txn
        if txn is None:
            return  # commit outside a transaction is a no-op
        if txn.status is TransactionStatus.FAILED:
            # A poisoned transaction commits as a rollback.
            self.rollback()
            return
        self.engine.commit(txn)
        self.txn = None
        self._drop_transaction_temp_tables(txn)

    def rollback(self) -> None:
        self._check_usable()
        txn = self.txn
        if txn is None:
            return
        self.engine.rollback(txn)
        self.txn = None
        self._drop_transaction_temp_tables(txn)

    def _drop_transaction_temp_tables(self, txn: Transaction) -> None:
        if self.engine.dialect.temp_table_scope == "transaction":
            for name in txn.temp_tables_created:
                self.temp_space.drop(name)

    @property
    def in_transaction(self) -> bool:
        return self.txn is not None

    # -- statement execution ----------------------------------------------

    def execute(self, sql: str, params: Optional[List[Any]] = None) -> Result:
        """Parse and execute ``sql`` (one or more ``;``-separated
        statements); returns the result of the last one."""
        self._check_usable()
        result = Result()
        for statement, _text, values in self.engine.script(sql, params):
            result = self._execute_one(statement, list(values))
        return result

    def execute_statement(self, statement: ast.Statement,
                          params: Optional[List[Any]] = None) -> Result:
        """Execute an already-parsed statement (middleware fast path)."""
        self._check_usable()
        return self._execute_one(statement, params or [])

    def _execute_one(self, statement: ast.Statement,
                     params: List[Any]) -> Result:
        if isinstance(statement, ast.BeginStatement):
            self.begin(statement.isolation)
            return Result()
        if isinstance(statement, ast.CommitStatement):
            self.commit()
            return Result()
        if isinstance(statement, ast.RollbackStatement):
            self.rollback()
            return Result()

        implicit = self.txn is None
        if implicit:
            self.txn = self.engine.begin_transaction(
                self, self.normalize_isolation(None), explicit=False)
        txn = self.txn

        if txn.status is TransactionStatus.FAILED:
            raise TransactionAbortedError(
                "current transaction is aborted, commands ignored until "
                "end of transaction block (PostgreSQL-style dialect)")

        created_mark = len(txn.created_versions)
        deleted_mark = len(txn.deleted_versions)
        writeset_mark = len(txn.writeset.entries)
        try:
            result = self.engine.executor.execute(self, statement, params)
        except BaseException as exc:
            # Cleanup, not handling: whatever stopped the statement, it
            # leaves no row effect behind and an implicit transaction
            # does not outlive it (a leaked one would swallow every later
            # autocommit write of this connection).
            self._undo_statement(txn, created_mark, deleted_mark, writeset_mark)
            if implicit:
                self.rollback()
            elif not isinstance(exc, LockConflict) \
                    and self.engine.dialect.error_aborts_transaction:
                # Lock waits do not poison the transaction: conflicts
                # are detected before mutation.
                txn.mark_failed("statement failed")
            raise
        if result.lastrowid is not None:
            self.last_insert_id = result.lastrowid
        if implicit:
            self.commit()
        return result

    def _undo_statement(self, txn: Transaction, created_mark: int,
                        deleted_mark: int, writeset_mark: int) -> None:
        """Statement-level atomicity: roll back this statement's row effects
        (sequence and auto-increment side effects survive — the 4.2.3 gap)."""
        while len(txn.created_versions) > created_mark:
            table, version = txn.created_versions.pop()
            table.remove_version(version)
        while len(txn.deleted_versions) > deleted_mark:
            version = txn.deleted_versions.pop()
            if version.deleted_ts is None:
                version.deleter_txn = None
        del txn.writeset.entries[writeset_mark:]

    def close(self) -> None:
        if self.closed:
            return
        if self.txn is not None and self.txn.status in (
                TransactionStatus.ACTIVE, TransactionStatus.FAILED):
            self.engine.rollback(self.txn)
            self.txn = None
        self.temp_space.clear()
        self.closed = True

    def _check_usable(self) -> None:
        if self.closed:
            raise ConnectionError_("connection is closed")
        if self.engine.crashed:
            raise ConnectionError_(
                f"engine {self.engine.name!r} is down")

    def __enter__(self) -> "Connection":
        return self

    def __exit__(self, *exc) -> None:
        self.close()


class Engine:
    """One RDBMS instance."""

    def __init__(self, name: str = "engine", dialect: Optional[Dialect] = None,
                 seed: Optional[int] = None,
                 parse_cache_capacity: int = CAPACITY):
        self.name = name
        self.dialect = dialect or generic()
        self.databases: Dict[str, Database] = {}
        self.users = UserStore()
        self.locks = LockManager()
        self.clock = CommitClock()
        self.functions = FunctionEnvironment(seed=seed)
        self.lobs = LobStore()
        self.executor = Executor(self)
        self.enforce_privileges = True
        self.crashed = False
        self.disk_full = False
        self._txn_counter = itertools.count(1)
        self.active_transactions: Dict[int, Transaction] = {}
        # Parsed-statement cache with LRU eviction: long-running sessions
        # with churning SQL text keep their hot statements cached instead
        # of the cache freezing once it fills.
        self._parse_cache = StatementCache(parse_cache_capacity)
        # Index-backed access paths can be disabled to measure the
        # sequential-scan baseline (benchmark E23); results are identical.
        self.use_indexes = True
        # Autovacuum: run :meth:`vacuum` every N commits so update-heavy
        # runs keep version chains bounded (a hot Zipf key otherwise
        # accumulates one dead version per update and every read walks
        # the whole chain).  0 disables.
        self.autovacuum_interval = 512
        self._commits_since_vacuum = 0
        # Engine-observable statistics.
        self.stats = {
            "commits": 0, "rollbacks": 0, "statements": 0,
            "seq_scans": 0, "index_probes": 0, "rows_scanned": 0,
            "parse_cache_hits": 0, "parse_cache_misses": 0,
            "versions_gced": 0,
        }

    # -- catalog --------------------------------------------------------------

    def create_database(self, name: str, if_not_exists: bool = False) -> Database:
        key = name.lower()
        if key in self.databases:
            if if_not_exists:
                return self.databases[key]
            raise DuplicateObjectError(f"database {name!r} already exists")
        database = Database(name)
        self.databases[key] = database
        return database

    def drop_database(self, name: str, if_exists: bool = False) -> None:
        if name.lower() not in self.databases:
            if if_exists:
                return
            raise NameError_(f"no database {name!r}")
        del self.databases[name.lower()]

    def database(self, name: str) -> Database:
        database = self.databases.get(name.lower())
        if database is None:
            raise NameError_(f"no database {name!r} on engine {self.name!r}")
        return database

    def database_names(self) -> List[str]:
        return sorted(self.databases.keys())

    # -- connections ------------------------------------------------------------

    def connect(self, user: str = "admin", password: str = "",
                database: Optional[str] = None) -> Connection:
        if self.crashed:
            raise ConnectionError_(f"engine {self.name!r} is down")
        account = self.users.authenticate(user, password)
        if database is not None:
            self.database(database)  # validate
        return Connection(self, account, database)

    # -- parsing ----------------------------------------------------------------

    def parse(self, sql: str) -> List[ast.Statement]:
        """The trees of exactly ``sql``, counted into ``stats``."""
        misses = self._parse_cache.misses
        statements = self._parse_cache.parse(sql)
        self._count_parse(misses, statements)
        return statements

    def script(self, sql: str,
               params: Optional[Sequence[Any]] = None) -> Sequence[Unit]:
        """``StatementCache.script`` counted into ``stats``: literal-inlined
        point statements share their ``?`` template's trees, so text that
        differs only in key values parses once."""
        misses = self._parse_cache.misses
        units = self._parse_cache.script(sql, params)
        self._count_parse(misses, units)
        return units

    def _count_parse(self, misses_before: int,
                     statements: Sequence) -> None:
        # a text remembered with its values fronts the template's entry:
        # a hit there is a (cheaper) parse-cache hit and counts as one
        if self._parse_cache.misses == misses_before:
            self.stats["parse_cache_hits"] += 1
        else:
            self.stats["parse_cache_misses"] += 1
        self.stats["statements"] += len(statements)

    # -- transactions -------------------------------------------------------------

    def begin_transaction(self, session: Connection, isolation: str,
                          explicit: bool) -> Transaction:
        txn = Transaction(
            next(self._txn_counter), isolation, self.clock.snapshot(),
            session.user_name, explicit=explicit)
        self.active_transactions[txn.id] = txn
        return txn

    def commit(self, txn: Transaction) -> int:
        """Commit ``txn``: stamp versions, release locks.
        Returns the commit timestamp."""
        if txn.status is not TransactionStatus.ACTIVE:
            raise SQLError(f"cannot commit transaction in state {txn.status}")
        ts = self.clock.tick()
        for _table, version in txn.created_versions:
            version.created_ts = ts
        for version in txn.deleted_versions:
            if version.deleter_txn == txn.id:
                version.deleted_ts = ts
        txn.commit_ts = ts
        txn.status = TransactionStatus.COMMITTED
        self.locks.release_all(txn.id)
        self.active_transactions.pop(txn.id, None)
        self.stats["commits"] += 1
        if self.autovacuum_interval:
            self._commits_since_vacuum += 1
            if self._commits_since_vacuum >= self.autovacuum_interval:
                self._commits_since_vacuum = 0
                self.vacuum()
        return ts

    def rollback(self, txn: Transaction) -> None:
        if txn.status is TransactionStatus.COMMITTED:
            raise SQLError("cannot roll back a committed transaction")
        for table, version in txn.created_versions:
            table.remove_version(version)
        for version in txn.deleted_versions:
            if version.deleted_ts is None and version.deleter_txn == txn.id:
                version.deleter_txn = None
        txn.status = TransactionStatus.ABORTED
        self.locks.release_all(txn.id)
        self.active_transactions.pop(txn.id, None)
        self.stats["rollbacks"] += 1

    def vacuum(self) -> int:
        """Garbage-collect row versions no live snapshot can see, keeping
        chains and indexes bounded under churn.  Returns versions removed."""
        horizon = min(
            (txn.snapshot.timestamp
             for txn in self.active_transactions.values()),
            default=self.clock.now)
        removed = 0
        for database in self.databases.values():
            for table in database.tables.values():
                removed += table.gc_versions(horizon)
        self.stats["versions_gced"] += removed
        return removed

    # -- fault injection ---------------------------------------------------------

    def crash(self) -> None:
        """Hard crash: connections break and in-flight transactions are
        lost (rolled back on recovery, like a redo-less restart)."""
        self.crashed = True
        for txn in list(self.active_transactions.values()):
            self.rollback(txn)

    def recover(self) -> None:
        self.crashed = False

    def set_disk_full(self, full: bool = True) -> None:
        self.disk_full = full

    # -- state inspection ---------------------------------------------------------

    def content_signature(self, databases: Optional[List[str]] = None) -> str:
        """A digest of all committed data — equal signatures mean replicas
        converged; used throughout the divergence experiments (E10, E17)."""
        from .mvcc import visible_rows

        snapshot = self.clock.snapshot()
        digest = hashlib.sha256()
        for db_name in sorted(databases or self.databases.keys()):
            database = self.databases.get(db_name.lower())
            if database is None:
                digest.update(f"missing:{db_name}".encode())
                continue
            for table_name in sorted(database.tables.keys()):
                table = database.tables[table_name]
                digest.update(f"{db_name}.{table_name}".encode())
                rows = [
                    tuple(sorted(
                        (k, repr(v)) for k, v in version.values.items()))
                    for version in visible_rows(table, snapshot, None)
                ]
                for row in sorted(rows):
                    digest.update(repr(row).encode())
        return digest.hexdigest()

    def row_count(self, database: str, table: str) -> int:
        from .mvcc import visible_rows
        snapshot = self.clock.snapshot()
        return sum(1 for _ in visible_rows(
            self.database(database).table(table), snapshot, None))

    def __repr__(self) -> str:
        return f"Engine({self.name!r}, dialect={self.dialect.name!r})"
