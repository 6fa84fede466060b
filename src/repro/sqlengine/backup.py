"""Engine-level dump and restore.

Paper section 4.4.1 / 4.1.5: real backup tools "typically capture only
data, without user-related information", triggers and stored procedures
"are also rarely backed up", and sequences need workarounds because they
are not in the transaction log.  :class:`BackupOptions` makes every one of
those gaps an explicit switch, with the **defaults reproducing the lossy
behaviour of typical tools** — the cluster-level backup coordinator in
``repro.core.backup`` must opt in to a faithful clone.
"""

from __future__ import annotations

import copy
from typing import Any, Dict, List, Optional

from .auth import User
from .engine import Engine
from .errors import SQLError
from .mvcc import visible_rows
from .sequences import Sequence
from .storage import Table
from .triggers import Trigger


class BackupOptions:
    """What a dump captures.  Defaults mirror common (lossy) tools."""

    __slots__ = ("include_users", "include_triggers", "include_procedures",
                 "include_sequences", "include_auto_counters")

    def __init__(self, include_users: bool = False,
                 include_triggers: bool = False,
                 include_procedures: bool = False,
                 include_sequences: bool = False,
                 include_auto_counters: bool = False):
        self.include_users = include_users
        self.include_triggers = include_triggers
        self.include_procedures = include_procedures
        self.include_sequences = include_sequences
        self.include_auto_counters = include_auto_counters

    @classmethod
    def full_clone(cls) -> "BackupOptions":
        """Everything needed to properly clone a replica — what the paper's
        industrial agenda asks tools to support."""
        return cls(True, True, True, True, True)


class EngineDump:
    """A consistent dump of one engine's committed state."""

    def __init__(self, engine_name: str, commit_ts: int,
                 options: BackupOptions):
        self.engine_name = engine_name
        self.commit_ts = commit_ts
        self.options = options
        # db -> table -> list of row dicts
        self.data: Dict[str, Dict[str, List[Dict[str, Any]]]] = {}
        # db -> table -> schema Table (cloned, empty)
        self.schemas: Dict[str, Dict[str, Table]] = {}
        self.sequences: Dict[str, Dict[str, Dict[str, int]]] = {}
        self.auto_counters: Dict[str, Dict[str, Dict[str, int]]] = {}
        self.triggers: Dict[str, List[Trigger]] = {}
        self.procedures: Dict[str, list] = {}
        self.users: List[User] = []

    def size_rows(self) -> int:
        return sum(
            len(rows)
            for tables in self.data.values()
            for rows in tables.values()
        )


def dump_engine(engine: Engine, options: Optional[BackupOptions] = None,
                databases: Optional[List[str]] = None) -> EngineDump:
    """Take a read-consistent dump of committed data.

    Consistency note (section 4.1.1): the dump reads a single engine-wide
    snapshot, but *running transactions are not included* — this is the
    "read-consistent copy ... without handling active transactions" limit
    of real hot-backup tools.
    """
    if engine.crashed:
        raise SQLError(f"engine {engine.name!r} is down, cannot dump")
    options = options or BackupOptions()
    snapshot = engine.clock.snapshot()
    dump = EngineDump(engine.name, snapshot.timestamp, options)
    for db_name in sorted(databases or engine.databases.keys()):
        database = engine.database(db_name)
        dump.data[db_name] = {}
        dump.schemas[db_name] = {}
        for table_name, table in sorted(database.tables.items()):
            if table.temporary:
                continue  # temp tables never enter a dump (section 4.1.4)
            dump.schemas[db_name][table_name] = table.clone_schema()
            dump.data[db_name][table_name] = [
                dict(version.values)
                for version in visible_rows(table, snapshot, None)
            ]
            if options.include_auto_counters:
                dump.auto_counters.setdefault(db_name, {})[table_name] = \
                    table.auto_counter_state()
        if options.include_sequences:
            dump.sequences[db_name] = {
                name: sequence.state()
                for name, sequence in database.sequences.items()
            }
        if options.include_triggers:
            dump.triggers[db_name] = [
                copy.copy(trigger) for trigger in database.triggers.values()
            ]
        if options.include_procedures:
            dump.procedures[db_name] = list(database.procedures.values())
    if options.include_users:
        dump.users = [user.clone() for user in engine.users.all_users()]
    return dump


def restore_engine(engine: Engine, dump: EngineDump,
                   replace: bool = True) -> None:
    """Load ``dump`` into ``engine``.

    Whatever the dump did not capture simply is not restored — a dump made
    with default options produces a replica that has the data but lost its
    users, triggers, procedures and sequence positions (the paper's cloning
    gap).
    """
    for db_name, tables in dump.data.items():
        if replace and db_name.lower() in engine.databases:
            engine.drop_database(db_name)
        database = engine.create_database(db_name, if_not_exists=True)
        for table_name, rows in tables.items():
            schema = dump.schemas[db_name][table_name]
            table = schema.clone_schema()
            database.create_table(table)
            ts = engine.clock.tick()
            for row in rows:
                version = table.insert_version(dict(row), creator_txn=0)
                version.created_ts = ts
            counters = dump.auto_counters.get(db_name, {}).get(table_name)
            if counters:
                for column, value in counters.items():
                    table.bump_auto_value(column, value)
            elif not dump.options.include_auto_counters:
                # Best effort of real restore tools: push the counter past
                # the max existing value so the *next* insert does not
                # collide immediately.  Divergence risk remains for gaps.
                for column in list(table.auto_counter_state().keys()):
                    existing = [
                        row.get(column) for row in rows
                        if isinstance(row.get(column), int)
                    ]
                    if existing:
                        table.bump_auto_value(column, max(existing))
        for name, state in dump.sequences.get(db_name, {}).items():
            database.sequences[name] = Sequence.from_state(name, state)
        for trigger in dump.triggers.get(db_name, []):
            database.triggers[trigger.name.lower()] = trigger
        for procedure in dump.procedures.get(db_name, []):
            database.procedures[procedure.name.lower()] = procedure
    for user in dump.users:
        engine.users.restore_user(user)
