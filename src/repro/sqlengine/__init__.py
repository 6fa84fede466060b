"""``repro.sqlengine`` — the in-memory multi-database SQL engine substrate.

This package stands in for the commercial/open-source RDBMS engines of the
paper (PostgreSQL, MySQL, Sybase, Oracle...).  It implements MVCC with
snapshot isolation, two-phase-locking serializability, triggers, stored
procedures, sequences, temporary tables, access control, large objects
and dump/restore — with per-dialect quirks that reproduce the gaps
catalogued in section 4 of the paper.  It keeps no transaction log of
its own: the one log a replica group replays is the middleware's
recovery log (``repro.core.recoverylog``).
"""

from .auth import User, UserStore
from .backup import BackupOptions, EngineDump, dump_engine, restore_engine
from .catalog import Database
from .dialects import Dialect, by_name, generic, mysql, oracle, postgresql, sybase
from .engine import Connection, Engine
from .errors import (
    AccessDeniedError, ConnectionError_, DeadlockError, DiskFullError,
    DuplicateObjectError, IntegrityError, LobError, NameError_, ParseError,
    SerializationError, SQLError, TransactionAbortedError, TypeError_,
    UnsupportedFeatureError,
)
from .executor import Result
from .information_schema import (
    DATABASE_NAME as INFORMATION_SCHEMA, build_view, view_names,
)
from .lobs import LobHandle, LobStore, LobStream
from .locks import LockConflict, LockManager, LockMode
from .mvcc import (
    READ_COMMITTED, READ_UNCOMMITTED, REPEATABLE_READ, SERIALIZABLE,
    SNAPSHOT, Snapshot,
)
from .parser import parse, parse_script
from .planner import AccessPlan, plan_table_access
from .procedures import Procedure, ProcedureAnalysis, analyze_procedure
from .sequences import Sequence
from .storage import IndexDef, Table
from .transactions import Transaction, TransactionStatus, Writeset, WritesetEntry
from .triggers import Trigger, TriggerEvent
from .types import Column, ColumnType

__all__ = [
    "AccessDeniedError", "AccessPlan", "BackupOptions", "Column",
    "IndexDef", "plan_table_access",
    "ColumnType", "Connection", "ConnectionError_", "Database",
    "DeadlockError", "Dialect", "DiskFullError", "DuplicateObjectError",
    "Engine", "EngineDump", "INFORMATION_SCHEMA", "IntegrityError", "LobError", "LobHandle",
    "LobStore", "LobStream", "LockConflict", "LockManager", "LockMode",
    "NameError_", "ParseError", "Procedure", "ProcedureAnalysis",
    "READ_COMMITTED", "READ_UNCOMMITTED", "REPEATABLE_READ", "Result",
    "SERIALIZABLE", "SNAPSHOT", "SQLError", "SerializationError", "Sequence",
    "Snapshot", "Table", "Transaction", "TransactionAbortedError",
    "TransactionStatus", "Trigger", "TriggerEvent", "TypeError_",
    "UnsupportedFeatureError", "User", "UserStore", "Writeset", "build_view", "view_names",
    "WritesetEntry", "analyze_procedure", "by_name", "dump_engine",
    "generic", "mysql", "oracle", "parse", "parse_script", "postgresql",
    "restore_engine", "sybase",
]
