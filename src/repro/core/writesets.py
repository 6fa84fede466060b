"""Writeset extraction and application (transaction replication).

Two extraction paths, mirroring section 4.3.2 of the paper:

* **engine-based** — read the writeset the engine already collected for
  the transaction (the Postgres-R-style integration that requires engine
  cooperation);
* **trigger-based** — install row triggers on every table and collect the
  images they report (the non-intrusive workaround real middleware uses).
  Its documented weaknesses are reproduced: triggers must be re-installed
  whenever the schema changes, tables created after installation are
  silently missed, and interplay with application triggers is fragile.

Application (:func:`apply_writeset`) installs the row images directly at a
replica.  What writesets do **not** carry — sequence positions and
auto-increment counters — is exactly what the paper says they do not
carry; the ``compensate_counters`` flag is the middleware-side fix, and
leaving it off reproduces the duplicate-key divergence of benchmark E10.
"""

from __future__ import annotations

from typing import Dict, FrozenSet, List, Optional, Tuple

from ..sqlengine import Engine
from ..sqlengine import ast_nodes as ast
from ..sqlengine.errors import NameError_, SQLError
from ..sqlengine.expressions import EvalContext
from ..sqlengine.mvcc import version_visible, visible_version
from ..sqlengine.planner import (
    _is_value_expr, evaluate_value, plan_table_access,
)
from ..sqlengine.storage import Table
from ..sqlengine.transactions import Transaction
from ..sqlengine.triggers import Trigger, TriggerEvent
from ..sqlengine.types import coerce


def extract_writeset_engine(txn: Transaction) -> List[Dict]:
    """Engine-integrated extraction: the transaction's own writeset."""
    return [entry.to_dict() for entry in txn.writeset]


def conflict_keys(entries: List[Dict]) -> FrozenSet:
    """The certification footprint of a writeset: (db, table, pk) triples,
    ``pk=None`` meaning whole-table granularity."""
    keys = set()
    for entry in entries:
        keys.add((entry["database"], entry["table"], entry["primary_key"]))
    return frozenset(keys)


def invalidation_keys(entries: List[Dict],
                      engine: Optional[Engine] = None) -> FrozenSet:
    """The *invalidation* footprint of a writeset: :func:`conflict_keys`
    plus, for pk-changing UPDATEs, the key the row moved *to*.  The
    certification footprint only carries the OLD primary key (that is what
    first-committer-wins conflicts on), but a cached read of the new key's
    row is just as dead.  Needs ``engine`` to learn pk column names."""
    keys = set(conflict_keys(entries))
    if engine is None:
        return frozenset(keys)
    for entry in entries:
        if entry["op"] != "UPDATE" or entry["primary_key"] is None \
                or not entry.get("new_values"):
            continue
        try:
            table = engine.database(entry["database"]).table(entry["table"])
        except NameError_:
            continue
        pk_columns = [c.name.lower() for c in table.primary_key_columns]
        if not pk_columns:
            continue
        new_values = entry["new_values"]
        new_pk = tuple(new_values.get(c) for c in pk_columns)
        if new_pk != tuple(entry["primary_key"]):
            keys.add((entry["database"], entry["table"], new_pk))
    return frozenset(keys)


def statement_footprint(statement, info, engine: Engine,
                        default_database: Optional[str],
                        params) -> Tuple[FrozenSet, bool]:
    """Derive a ``(db, table, pk)`` invalidation footprint for one
    statement-mode write, "through simple query parsing" (section 4.3.2).

    Returns ``(keys, opaque)``.  ``opaque=True`` means the statement's
    effects cannot be bounded by analysis — DDL, stored procedures,
    trigger-bearing tables (the trigger body writes rows the parser never
    sees), unknown statement shapes — and the caller must treat the whole
    commit as invalidate-everything.  Otherwise ``keys`` carries point
    keys where the planner proves the written rows (pk-equality WHERE,
    explicit-pk INSERT) and table-level ``pk=None`` keys for the rest.
    """
    if info.is_ddl or info.is_procedure_call:
        return frozenset(), True
    if not isinstance(statement, (ast.SelectStatement, ast.InsertStatement,
                                  ast.UpdateStatement, ast.DeleteStatement)):
        # unknown write shapes (section 4.3.2's "simple parsing" limit)
        return frozenset(), True
    keys: set = set()
    ctx = EvalContext(None, None, params=list(params or []))
    for name in info.tables_written:
        name = name.lower()
        if "." in name:
            database_name, _, table_name = name.partition(".")
        elif default_database is not None:
            database_name, table_name = default_database.lower(), name
        else:
            return frozenset(), True
        try:
            database = engine.database(database_name)
            table = database.table(table_name)
        except SQLError:
            keys.add((database_name, table_name, None))
            continue
        if any(t.table == table_name for t in database.triggers.values()):
            return frozenset(), True
        point = _statement_point_keys(statement, table, database_name,
                                      table_name, ctx)
        if point is None:
            keys.add((database_name, table_name, None))
        else:
            keys.update(point)
    return frozenset(keys), False


def _statement_point_keys(statement, table: Table, database_name: str,
                          table_name: str, ctx) -> Optional[set]:
    """Point keys for one written table, or ``None`` when the rows cannot
    be proven — the caller then falls back to a table-level key."""
    pk_index = table.primary_key_index
    if pk_index is None:
        return None
    pk_columns = [c.name.lower() for c in table.primary_key_columns]

    if isinstance(statement, (ast.UpdateStatement, ast.DeleteStatement)):
        if statement.table.name.lower() != table_name:
            return None
        binding = statement.table.name.lower()
        try:
            plan = plan_table_access(table, binding, statement.where, ctx)
        except SQLError:
            return None
        if not plan.is_index or plan.index is not pk_index:
            return None
        keys = {(database_name, table_name, key) for key in plan.keys}
        if isinstance(statement, ast.UpdateStatement):
            assigned = {}
            for column, expr in statement.assignments:
                column = column.lower()
                if column in pk_columns:
                    if not _is_value_expr(expr):
                        return None
                    try:
                        assigned[column] = coerce(
                            evaluate_value(expr, ctx),
                            table.column(column).type)
                    except SQLError:
                        return None
            if assigned:
                # the rows move: the destination keys die too
                positions = {c: i for i, c in enumerate(pk_columns)}
                for old in plan.keys:
                    new = list(old)
                    for column, value in assigned.items():
                        new[positions[column]] = value
                    keys.add((database_name, table_name, tuple(new)))
        return keys

    if isinstance(statement, ast.InsertStatement):
        if statement.table.name.lower() != table_name \
                or statement.select is not None or not statement.rows:
            return None
        columns = ([c.lower() for c in statement.columns]
                   if statement.columns
                   else [c.name.lower() for c in table.columns])
        positions = {}
        for pk_column in pk_columns:
            if pk_column not in columns:
                return None  # auto-increment fills it; value unknowable
            positions[pk_column] = columns.index(pk_column)
        if len(statement.rows) > 64:
            return None
        keys = set()
        for row in statement.rows:
            values = []
            for pk_column in pk_columns:
                index = positions[pk_column]
                if index >= len(row) or not _is_value_expr(row[index]):
                    return None
                try:
                    values.append(coerce(evaluate_value(row[index], ctx),
                                         table.column(pk_column).type))
                except SQLError:
                    return None
            keys.add((database_name, table_name, tuple(values)))
        return keys

    return None


class TriggerBasedExtractor:
    """Writeset extraction through per-table triggers.

    Call :meth:`install` once per database — and again after every schema
    change, or new tables go unreplicated (the administrative burden the
    paper describes).
    """

    def __init__(self, engine: Engine, prefix: str = "_ws_extract"):
        self.engine = engine
        self.prefix = prefix
        self._buffer: List[Dict] = []
        self._installed: Dict[str, set] = {}

    def install(self, database_name: str) -> int:
        """Install extraction triggers on every *current* table.  Returns
        the number of tables instrumented."""
        database = self.engine.database(database_name)
        installed = self._installed.setdefault(database_name, set())
        count = 0
        for table_name, table in list(database.tables.items()):
            if table_name in installed or table.temporary:
                continue
            for event in ("INSERT", "UPDATE", "DELETE"):
                trigger = Trigger(
                    f"{self.prefix}_{table_name}_{event.lower()}",
                    "AFTER", event, table_name,
                    callback=self._make_callback(database_name, table),
                )
                database.create_trigger(trigger)
            installed.add(table_name)
            count += 1
        return count

    def uninstrumented_tables(self, database_name: str) -> List[str]:
        """Tables that exist but carry no extraction triggers — writes to
        these are silently lost by trigger-based extraction."""
        database = self.engine.database(database_name)
        installed = self._installed.get(database_name, set())
        return [
            name for name, table in database.tables.items()
            if name not in installed and not table.temporary
        ]

    def _make_callback(self, database_name: str, table: Table):
        def callback(event: TriggerEvent, session) -> None:
            pk_columns = [c.name.lower() for c in table.primary_key_columns]
            image = event.new or event.old or {}
            primary_key = (tuple(image.get(c) for c in pk_columns)
                           if pk_columns else None)
            self._buffer.append({
                "database": database_name,
                "table": event.table.lower(),
                "op": event.event,
                "primary_key": primary_key,
                "old_values": dict(event.old) if event.old else None,
                "new_values": dict(event.new) if event.new else None,
            })
        return callback

    def drain(self) -> List[Dict]:
        entries, self._buffer = self._buffer, []
        return entries


class ApplyReport:
    """Outcome of applying one writeset at one replica."""

    __slots__ = ("applied", "conflicts", "missing_rows")

    def __init__(self):
        self.applied = 0
        self.conflicts: List[str] = []
        self.missing_rows = 0

    @property
    def clean(self) -> bool:
        return not self.conflicts and self.missing_rows == 0


def apply_writeset(engine: Engine, entries: List[Dict],
                   compensate_counters: bool = False) -> ApplyReport:
    """Install ``entries`` into ``engine`` as one atomic committed unit.

    The writeset was already certified, so entries are applied directly to
    storage.  Divergence symptoms (duplicate keys on INSERT, vanished rows
    on UPDATE/DELETE) are recorded in the report rather than raised — a
    replica that hits them has drifted and the middleware must decide what
    to do (usually: take it offline and resynchronize).
    """
    report = ApplyReport()
    ts = engine.clock.tick()
    for entry in entries:
        try:
            database = engine.database(entry["database"])
            table = database.table(entry["table"])
        except NameError_ as exc:
            report.conflicts.append(str(exc))
            continue
        op = entry["op"]
        if op == "INSERT":
            _apply_insert(engine, table, entry, ts, report,
                          compensate_counters)
        elif op == "UPDATE":
            _apply_update(engine, table, entry, ts, report)
        elif op == "DELETE":
            _apply_delete(engine, table, entry, ts, report)
        else:
            report.conflicts.append(f"unknown writeset op {op!r}")
    if compensate_counters:
        _compensate_sequences(engine, entries)
    return report


def _find_target(engine: Engine, table: Table, entry: Dict):
    """Locate the visible row a writeset UPDATE/DELETE refers to.

    This is the replication hot path every replica pays for every entry:
    with a primary key it is one hash probe into the PK index (O(1) per
    entry); only keyless tables fall back to the full old-value scan."""
    snapshot = engine.clock.snapshot()
    pk_index = table.primary_key_index
    if pk_index is not None and entry["primary_key"] is not None:
        engine.stats["index_probes"] += 1
        candidates = pk_index.probe(tuple(entry["primary_key"]))
        engine.stats["rows_scanned"] += len(candidates)
        for version in candidates:
            if version_visible(version, snapshot, None):
                return version
        return None
    old_values = entry.get("old_values") or {}
    engine.stats["seq_scans"] += 1
    engine.stats["rows_scanned"] += table.logical_row_count()
    for row_id in list(table._rows.keys()):
        version = visible_version(table, row_id, snapshot, None)
        if version is not None and all(
                version.values.get(k) == v for k, v in old_values.items()):
            return version
    return None


def _apply_insert(engine: Engine, table: Table, entry: Dict, ts: int,
                  report: ApplyReport, compensate_counters: bool) -> None:
    values = dict(entry["new_values"] or {})
    # Duplicate detection: the paper's endless-convergence hazard.
    snapshot = engine.clock.snapshot()
    for columns in table.unique_column_sets():
        key = tuple(values.get(c) for c in columns)
        if any(v is None for v in key):
            continue
        for candidate in table.unique_candidates(columns, key):
            if version_visible(candidate, snapshot, None):
                report.conflicts.append(
                    f"duplicate key {key} applying INSERT into "
                    f"{entry['database']}.{entry['table']}")
                return
    version = table.insert_version(values, creator_txn=0)
    version.created_ts = ts
    if compensate_counters:
        for column in table.columns:
            if column.auto_increment:
                value = values.get(column.name.lower())
                if isinstance(value, int):
                    table.bump_auto_value(column.name.lower(), value)
    report.applied += 1


def _apply_update(engine: Engine, table: Table, entry: Dict, ts: int,
                  report: ApplyReport) -> None:
    version = _find_target(engine, table, entry)
    if version is None:
        report.missing_rows += 1
        report.conflicts.append(
            f"row {entry['primary_key']} missing applying UPDATE to "
            f"{entry['database']}.{entry['table']}")
        return
    table.mark_deleted(version, 0)
    version.deleted_ts = ts
    new_version = table.insert_version(
        dict(entry["new_values"] or {}), creator_txn=0, row_id=version.row_id)
    new_version.created_ts = ts
    report.applied += 1


def _apply_delete(engine: Engine, table: Table, entry: Dict, ts: int,
                  report: ApplyReport) -> None:
    version = _find_target(engine, table, entry)
    if version is None:
        report.missing_rows += 1
        report.conflicts.append(
            f"row {entry['primary_key']} missing applying DELETE to "
            f"{entry['database']}.{entry['table']}")
        return
    table.mark_deleted(version, 0)
    version.deleted_ts = ts
    report.applied += 1


def _compensate_sequences(engine: Engine, entries: List[Dict]) -> None:
    """Middleware-side compensation for the 4.2.3 gap: push sequences past
    any values observed in the writeset (heuristic: integer primary keys)."""
    for entry in entries:
        if entry["op"] != "INSERT" or not entry.get("new_values"):
            continue
        try:
            database = engine.database(entry["database"])
        except NameError_:
            continue
        for sequence in database.sequences.values():
            for value in entry["new_values"].values():
                if isinstance(value, int) and value > (sequence.last_value or 0):
                    # conservative: only bump if the value looks like it
                    # came from this sequence's range
                    if sequence.last_value is not None and \
                            value - sequence.last_value <= 1000:
                        sequence.set_value(value)
