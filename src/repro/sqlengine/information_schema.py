"""A queryable ``information_schema`` (paper section 4.1.5).

"Despite the recent trend to store user data in the database information
schema, access control information is often considered orthogonal to
database content."  This engine follows that trend: catalog metadata —
tables, columns, sequences, triggers, procedures and users — is exposed as
read-only virtual tables under the ``information_schema`` database name,
so middleware and tools can discover schema without ad-hoc APIs:

    SELECT table_name FROM information_schema.tables WHERE table_db = 'shop'

The views are materialized per statement from live catalog state.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, List

from .errors import NameError_
from .storage import Table
from .types import Column, ColumnType

if TYPE_CHECKING:  # pragma: no cover
    from .engine import Engine

DATABASE_NAME = "information_schema"

_VIEWS = ("tables", "columns", "sequences", "triggers", "procedures",
          "users")


def view_names() -> List[str]:
    return list(_VIEWS)


def build_view(engine: "Engine", view_name: str) -> Table:
    """Materialize one information_schema view as an ordinary Table."""
    builder = _BUILDERS.get(view_name.lower())
    if builder is None:
        raise NameError_(
            f"no table {view_name!r} in database {DATABASE_NAME!r}")
    return builder(engine)


def _varchar(name: str) -> Column:
    return Column(name, ColumnType.VARCHAR)


def _int(name: str) -> Column:
    return Column(name, ColumnType.INT)


def _bool(name: str) -> Column:
    return Column(name, ColumnType.BOOLEAN)


def _fill(table: Table, rows) -> Table:
    for row in rows:
        version = table.insert_version(row, creator_txn=0)
        table.stamp_created(version, 0)     # visible to every snapshot
    return table


def _tables_view(engine: "Engine") -> Table:
    table = Table("tables", [
        _varchar("table_db"), _varchar("table_name"), _int("row_versions"),
        _bool("temporary"),
    ])
    rows = []
    for db_name in sorted(engine.databases):
        database = engine.databases[db_name]
        for name in sorted(database.tables):
            t = database.tables[name]
            rows.append({
                "table_db": db_name, "table_name": name,
                "row_versions": t.version_count(),
                "temporary": t.temporary,
            })
    return _fill(table, rows)


def _columns_view(engine: "Engine") -> Table:
    table = Table("columns", [
        _varchar("table_db"), _varchar("table_name"),
        _varchar("column_name"), _varchar("data_type"),
        _bool("nullable"), _bool("primary_key"), _bool("is_auto_increment"),
        _int("ordinal"),
    ])
    rows = []
    for db_name in sorted(engine.databases):
        database = engine.databases[db_name]
        for name in sorted(database.tables):
            for ordinal, column in enumerate(database.tables[name].columns):
                rows.append({
                    "table_db": db_name, "table_name": name,
                    "column_name": column.name.lower(),
                    "data_type": column.type.value,
                    "nullable": column.nullable,
                    "primary_key": column.primary_key,
                    "is_auto_increment": column.auto_increment,
                    "ordinal": ordinal,
                })
    return _fill(table, rows)


def _sequences_view(engine: "Engine") -> Table:
    table = Table("sequences", [
        _varchar("sequence_db"), _varchar("sequence_name"),
        _int("last_value"), _int("increment"),
    ])
    rows = []
    for db_name in sorted(engine.databases):
        database = engine.databases[db_name]
        for name in sorted(database.sequences):
            sequence = database.sequences[name]
            rows.append({
                "sequence_db": db_name, "sequence_name": name,
                "last_value": sequence.last_value,
                "increment": sequence.increment,
            })
    return _fill(table, rows)


def _triggers_view(engine: "Engine") -> Table:
    table = Table("triggers", [
        _varchar("trigger_db"), _varchar("trigger_name"),
        _varchar("table_name"), _varchar("timing"), _varchar("event"),
        _varchar("owner"), _bool("enabled"),
    ])
    rows = []
    for db_name in sorted(engine.databases):
        database = engine.databases[db_name]
        for name in sorted(database.triggers):
            trigger = database.triggers[name]
            rows.append({
                "trigger_db": db_name, "trigger_name": name,
                "table_name": trigger.table, "timing": trigger.timing,
                "event": trigger.event, "owner": trigger.owner,
                "enabled": trigger.enabled,
            })
    return _fill(table, rows)


def _procedures_view(engine: "Engine") -> Table:
    table = Table("procedures", [
        _varchar("procedure_db"), _varchar("procedure_name"),
        _int("parameter_count"), _varchar("owner"),
    ])
    rows = []
    for db_name in sorted(engine.databases):
        database = engine.databases[db_name]
        for name in sorted(database.procedures):
            procedure = database.procedures[name]
            rows.append({
                "procedure_db": db_name, "procedure_name": name,
                "parameter_count": len(procedure.params),
                "owner": procedure.owner,
            })
    return _fill(table, rows)


def _users_view(engine: "Engine") -> Table:
    table = Table("users", [
        _varchar("user_name"), _bool("superuser"), _int("grant_count"),
    ])
    rows = [
        {
            "user_name": user.name, "superuser": user.superuser,
            "grant_count": sum(len(g) for g in user.grants.values()),
        }
        for user in sorted(engine.users.all_users(), key=lambda u: u.name)
    ]
    return _fill(table, rows)


_BUILDERS = {
    "tables": _tables_view,
    "columns": _columns_view,
    "sequences": _sequences_view,
    "triggers": _triggers_view,
    "procedures": _procedures_view,
    "users": _users_view,
}
