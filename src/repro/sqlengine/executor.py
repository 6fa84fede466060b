"""Statement execution.

The :class:`Executor` turns parsed statements into reads and writes against
the versioned storage, under the session's transaction and isolation level.
It enforces privileges, fires triggers, captures writesets, and implements
the dialect quirks the paper's gap analysis depends on.

Concurrency discipline: the engine never blocks the (single) OS thread.
A conflicting write raises :class:`~repro.sqlengine.locks.LockConflict`
(retry after the owner finishes) or a serialization/deadlock error
(abort and retry), and the caller — test code, the replication middleware
or the discrete-event simulator — decides what to do.
"""

from __future__ import annotations

from itertools import compress
from typing import Any, Dict, List, Optional

from . import ast_nodes as ast
from . import information_schema
from .errors import (
    AccessDeniedError, DiskFullError, IntegrityError, NameError_,
    SerializationError, SQLError, TypeError_, UnsupportedFeatureError,
)
from .expressions import (
    EvalContext, NO_ROW, combine_binary, combine_unary, compile_expression,
    compile_filter, compile_values, evaluate, evaluate_each, raising,
    sort_key, sort_keys,
)
from .functions import AGGREGATE_FUNCTIONS
from .locks import LockConflict, LockMode
from .mvcc import (
    READ_UNCOMMITTED, SERIALIZABLE,
    latest_committed_change, uncommitted_writer, version_visible,
    visible_in_range, visible_probed, visible_rows,
)
from .planner import (AccessPlan, INDEX_PROBE, INDEX_RANGE, SEQ_SCAN,
                      plan_table_access, plan_table_access_cached)
from .sequences import Sequence
from .procedures import Procedure
from .stmtcache import Memo
from .storage import RowVersion, Table
from .transactions import WritesetEntry
from .triggers import Trigger, TriggerEvent
from .types import Column, ColumnType, coerce

_MAX_TRIGGER_DEPTH = 8


class Result:
    """The outcome of one statement."""

    __slots__ = ("columns", "rows", "rowcount", "lastrowid")

    def __init__(self, columns: Optional[List[str]] = None,
                 rows: Optional[List[tuple]] = None,
                 rowcount: int = 0, lastrowid: Optional[int] = None):
        self.columns = columns or []
        self.rows = rows or []
        self.rowcount = rowcount
        self.lastrowid = lastrowid

    def scalar(self) -> Any:
        """First column of the first row (None when empty)."""
        if not self.rows:
            return None
        return self.rows[0][0]

    def first(self) -> Optional[tuple]:
        return self.rows[0] if self.rows else None

    def as_dicts(self) -> List[Dict[str, Any]]:
        return [dict(zip(self.columns, row)) for row in self.rows]

    def __repr__(self) -> str:
        return f"Result(rows={len(self.rows)}, rowcount={self.rowcount})"


class Executor:
    """Executes statements for one engine."""

    def __init__(self, engine):
        self.engine = engine
        self._trigger_depth = 0
        # Access plans chosen by the most recent statement, newest last —
        # EXPLAIN-style introspection for tests (last_access_paths).
        self.access_plans: List[AccessPlan] = []
        #: what each statement tree (and each column DEFAULT) compiles
        #: to, by tree identity; nothing in it reads the schema, so
        #: entries carry no stamp and live as long as the LRU keeps them
        self.compiled = Memo()

    @property
    def last_access_paths(self) -> List[str]:
        """The most recent statement's access paths, described when read."""
        return [plan.describe() for plan in self.access_plans]

    def _compile_once(self, tree, build):
        """``build(tree)``, built at the tree's first execution here —
        the one memo lookup a statement pays for all its closures."""
        parts = self.compiled.get_for(tree)
        if parts is None:
            parts = build(tree)
            self.compiled.put_for(tree, parts)
        return parts

    # ------------------------------------------------------------------
    # access paths
    # ------------------------------------------------------------------

    def _table_versions(self, session, table, binding, where, snapshot,
                        ctx, dirty: bool = False,
                        top: Optional[tuple] = None,
                        keep=None) -> List[RowVersion]:
        """The visible versions of ``table`` a statement works on,
        through the planned access path.

        An index probe or range walk yields a *superset* of the
        fully-matching rows, so routing here never changes results —
        only how many rows are touched, which the engine-level
        ``seq_scans`` / ``index_probes`` / ``rows_scanned`` counters
        record.  ``keep`` is the complete WHERE as
        :func:`~repro.sqlengine.expressions.compile_filter` builds it,
        given when the statement's rows are exactly this table's (not
        one side of a join): every path's candidates then go through it
        in one call and only the survivors are returned.  Without it the
        caller applies the WHERE to whatever comes back.

        ``top`` is ``(column, ascending, count)`` when the caller's answer
        is the first ``count`` matching rows in that column's order (see
        :func:`_top_shape`): a range walk over a unique index on exactly
        that column then stops fetching after ``count`` rows that pass
        ``keep`` (it comes with one) — the caller still sorts and slices
        what comes back.  Any other path ignores it.
        """
        txn_id = session.txn.id if session.txn else None
        stats = self.engine.stats
        plan = (plan_table_access_cached(table, binding, where, ctx)
                if self.engine.use_indexes else AccessPlan(SEQ_SCAN, table))
        self.access_plans.append(plan)
        kind = plan.kind
        if kind == INDEX_PROBE:
            stats["index_probes"] += 1
            versions, looked_at = visible_probed(
                table, plan.index, plan.keys, snapshot, txn_id, dirty)
            stats["rows_scanned"] += looked_at
        elif kind == INDEX_RANGE:
            stats["index_probes"] += 1
            index = plan.index
            if top is not None and index.unique \
                    and index.columns == [top[0]]:
                # as many keys at a time as rows are still wanted: a key
                # of a unique index holds one visible row at most, so
                # nothing past the last wanted row is looked at
                (_column, ascending, count), matches = top, []
                low, high = plan.keys.start, plan.keys.stop
                while len(matches) < count and low < high:
                    need = count - len(matches)
                    if ascending:
                        keys = range(low, min(low + need, high))
                        low = keys.stop
                    else:
                        keys = range(max(high - need, low), high)
                        high = keys.start
                    versions, looked_at = visible_in_range(
                        table, index, keys, snapshot, txn_id, dirty)
                    stats["rows_scanned"] += looked_at
                    matches += keep(versions if ascending
                                    else versions[::-1], ctx)
                return matches
            versions, looked_at = visible_in_range(
                table, index, plan.keys, snapshot, txn_id, dirty)
            stats["rows_scanned"] += looked_at
        else:
            stats["seq_scans"] += 1
            stats["rows_scanned"] += table.logical_row_count()
            versions = visible_rows(table, snapshot, txn_id, dirty=dirty)
        if keep is None:
            return versions
        return keep(versions, ctx)

    # ------------------------------------------------------------------
    # dispatch
    # ------------------------------------------------------------------

    def execute(self, session, statement: ast.Statement,
                params: Optional[List[Any]] = None,
                variables: Optional[Dict[str, Any]] = None) -> Result:
        """Run one statement for ``session``, always inside its open
        transaction: ``Connection._execute_one`` opens the implicit one
        first and is the only caller outside this class (trigger and
        procedure bodies run in their statement's transaction), so
        ``session.txn`` is never ``None`` here — every row change is
        stamped at that transaction's commit."""
        params = params or []
        if self._trigger_depth == 0:
            self.access_plans = []
        # Exact-type checks for the four DML classes that make up ~all of
        # any OLTP run; everything else (DDL, grants, subclasses) takes
        # the isinstance chain in _execute_cold.
        cls = statement.__class__
        if cls is ast.SelectStatement:
            return self._run_select(session, statement, EvalContext(
                self, session, params=params, variables=variables))
        if cls is ast.UpdateStatement:
            return self._execute_update(session, statement, params, variables)
        if cls is ast.InsertStatement:
            return self._execute_insert(session, statement, params, variables)
        if cls is ast.DeleteStatement:
            return self._execute_delete(session, statement, params, variables)
        return self._execute_cold(session, statement, params, variables)

    def _execute_cold(self, session, statement: ast.Statement,
                      params: List[Any],
                      variables: Optional[Dict[str, Any]]) -> Result:
        if isinstance(statement, ast.SelectStatement):
            return self._run_select(session, statement, EvalContext(
                self, session, params=params, variables=variables))
        if isinstance(statement, ast.ExplainStatement):
            return self._execute_explain(session, statement, params, variables)
        if isinstance(statement, ast.InsertStatement):
            return self._execute_insert(session, statement, params, variables)
        if isinstance(statement, ast.UpdateStatement):
            return self._execute_update(session, statement, params, variables)
        if isinstance(statement, ast.DeleteStatement):
            return self._execute_delete(session, statement, params, variables)
        if isinstance(statement, ast.CreateTableStatement):
            return self._execute_create_table(session, statement)
        if isinstance(statement, ast.CreateDatabaseStatement):
            return self._execute_create_database(session, statement)
        if isinstance(statement, ast.CreateSchemaStatement):
            return self._execute_create_schema(session, statement)
        if isinstance(statement, ast.CreateIndexStatement):
            return self._execute_create_index(session, statement)
        if isinstance(statement, ast.CreateSequenceStatement):
            return self._execute_create_sequence(session, statement)
        if isinstance(statement, ast.CreateTriggerStatement):
            return self._execute_create_trigger(session, statement)
        if isinstance(statement, ast.CreateProcedureStatement):
            return self._execute_create_procedure(session, statement)
        if isinstance(statement, ast.CreateUserStatement):
            self.engine.users.add_user(statement.name, statement.password)
            return Result()
        if isinstance(statement, ast.DropStatement):
            return self._execute_drop(session, statement)
        if isinstance(statement, ast.AlterTableStatement):
            return self._execute_alter(session, statement)
        if isinstance(statement, ast.SetStatement):
            return self._execute_set(session, statement, params)
        if isinstance(statement, ast.GrantStatement):
            return self._execute_grant(session, statement)
        if isinstance(statement, ast.RevokeStatement):
            return self._execute_revoke(session, statement)
        if isinstance(statement, ast.UseStatement):
            session.use_database(statement.database)
            return Result()
        if isinstance(statement, ast.CallStatement):
            return self._execute_call(session, statement, params, variables)
        if isinstance(statement, ast.LockTableStatement):
            return self._execute_lock(session, statement)
        if isinstance(statement, (ast.BeginStatement, ast.CommitStatement,
                                  ast.RollbackStatement)):
            raise TypeError_(
                "transaction control must go through the connection")
        raise TypeError_(f"unsupported statement {type(statement).__name__}")

    # ------------------------------------------------------------------
    # name resolution / privileges
    # ------------------------------------------------------------------

    def _resolve_table(self, session, name: ast.QualifiedName,
                       privilege: Optional[str] = None):
        """Return (database_name, table).  Unqualified names check the
        session's temp-table space first (section 4.1.4)."""
        table_name = name.name
        database_name = name.database
        if database_name is None:
            temp = session.temp_space.get(table_name)
            if temp is not None:
                return ("#temp", temp)
            database_name = session.current_database_name()
        if database_name.lower() == information_schema.DATABASE_NAME:
            if privilege not in (None, "SELECT"):
                raise AccessDeniedError(
                    "information_schema views are read-only")
            view = information_schema.build_view(self.engine, table_name)
            return (information_schema.DATABASE_NAME, view)
        table = self.engine.database(database_name).table(table_name)
        if privilege is not None:
            self._check_privilege(session, privilege, database_name,
                                  table_name)
        return (database_name, table)

    def _resolve_database(self, session, name: ast.QualifiedName):
        database_name = name.database or session.current_database_name()
        return database_name, self.engine.database(database_name)

    def _check_privilege(self, session, privilege: str,
                         database: str, table: str) -> None:
        if not self.engine.enforce_privileges:
            return
        if not session.user.has_privilege(privilege, database, table):
            raise AccessDeniedError(
                f"user {session.user_name!r} lacks {privilege} on "
                f"{database}.{table}")

    def _check_write_allowed(self) -> None:
        if self.engine.disk_full:
            raise DiskFullError(
                f"engine {self.engine.name!r}: data partition out of space")

    # ------------------------------------------------------------------
    # snapshots & locks
    # ------------------------------------------------------------------

    def _lock_for_write(self, session, database: str, table: Table) -> None:
        txn = session.txn
        if txn is not None and txn.isolation == SERIALIZABLE and not table.temporary:
            self.engine.locks.acquire(
                txn.id, f"{database}.{table.name}".lower(), LockMode.EXCLUSIVE)

    # ------------------------------------------------------------------
    # SELECT
    # ------------------------------------------------------------------

    def _run_select(self, session, statement: ast.SelectStatement,
                    outer_ctx: EvalContext) -> Result:
        parts = self._compile_once(statement, _SelectParts)
        txn = session.txn
        snapshot = txn.read_snapshot(self.engine.clock.now)
        dirty = txn.isolation == READ_UNCOMMITTED

        top = parts.top
        if top is not None:
            # (column, ascending) becomes (column, ascending, LIMIT + OFFSET)
            try:
                top += (sum(self._row_count(expr, outer_ctx, "LIMIT / OFFSET")
                            for expr in (statement.limit, statement.offset)
                            if expr is not None),)
            except SQLError:
                top = None      # _apply_limit raises it
        source_rows, source_columns = self._build_source(
            session, parts.conditions, statement.source, snapshot, dirty,
            outer_ctx, statement.where, parts.keep, top)

        if statement.for_update and isinstance(statement.source,
                                               ast.TableRef):
            database_name, table = self._resolve_table(
                session, statement.source.name, privilege="SELECT")
            txn = session.txn
            if txn is not None and not table.temporary:
                self.engine.locks.acquire(
                    txn.id, f"{database_name}.{table.name}".lower(),
                    LockMode.EXCLUSIVE)

        if parts.where is not None:     # a join's or a derived table's rows
            source_rows = list(compress(
                source_rows, parts.where(source_rows, outer_ctx)))

        row_bindings: Optional[List[Dict]] = None
        if parts.grouped:
            rows, columns = self._grouped_output(
                statement, parts, source_rows, outer_ctx)
        else:
            rows, columns = self._plain_output(
                statement, parts, source_rows, source_columns, outer_ctx)
            row_bindings = source_rows

        if statement.distinct:
            seen = set()
            unique_rows = []
            unique_bindings = []
            for index, row in enumerate(rows):
                key = tuple(sort_key(v) for v in row)
                if key not in seen:
                    seen.add(key)
                    unique_rows.append(row)
                    if row_bindings is not None:
                        unique_bindings.append(row_bindings[index])
            rows = unique_rows
            if row_bindings is not None:
                row_bindings = unique_bindings

        if statement.order_by:
            rows = self._order_rows(statement, parts, rows, columns,
                                    row_bindings, outer_ctx)

        if statement.limit is not None or statement.offset is not None:
            rows = self._apply_limit(statement, rows, outer_ctx)
        return Result(columns=columns, rows=rows, rowcount=len(rows))

    def _build_source(self, session, conditions, source, snapshot, dirty,
                      outer_ctx, where=None, keep=None, top=None):
        """Returns (list of binding dicts, ordered [(binding, column_names)]).

        ``where`` is the enclosing statement's predicate, pushed down so
        table references can serve equality conjuncts from an index probe
        and range conjuncts from an index range instead of a full scan.
        ``keep`` (its compiled filter) and ``top`` are only ever passed
        for a statement whose whole source is one table: its rows are
        filtered before they are bound.  In every other case the caller
        still applies the complete predicate to whatever comes back.

        A table's rows are bound as the versions' own value dicts, not
        copies: a SELECT writes to no row dict, and what it returns is
        tuples of values, so no dict outlives the statement.
        """
        if source is None:
            return [{}], []
        if isinstance(source, ast.TableRef):
            database_name, table = self._resolve_table(
                session, source.name, privilege="SELECT")
            txn = session.txn
            if txn is not None and txn.isolation == SERIALIZABLE \
                    and not table.temporary:
                self.engine.locks.acquire(
                    txn.id, f"{database_name}.{table.name}".lower(),
                    LockMode.SHARED)
            binding = source.binding
            rows = [
                {binding: version.values}
                for version in self._table_versions(
                    session, table, binding, where, snapshot, outer_ctx,
                    dirty, top, keep)
            ]
            return rows, [(binding, table.column_keys)]
        if isinstance(source, ast.SubquerySource):
            result = self._run_select(session, source.select, outer_ctx)
            binding = source.binding
            columns = [c.lower() for c in result.columns]
            rows = [
                {binding: dict(zip(columns, row))}
                for row in result.rows
            ]
            return rows, [(binding, columns)]
        if isinstance(source, ast.Join):
            return self._build_join(session, conditions, source, snapshot,
                                    dirty, outer_ctx, where=where)
        raise TypeError_(f"unsupported FROM clause {type(source).__name__}")

    def _build_join(self, session, conditions, join: ast.Join, snapshot,
                    dirty, outer_ctx, where=None):
        # WHERE conjuncts push through joins: a conjunct binding one side's
        # columns restricts only rows the full predicate would reject
        # anyway (null-extended LEFT JOIN rows fail the conjunct too).
        left_rows, left_columns = self._build_source(
            session, conditions, join.left, snapshot, dirty, outer_ctx, where)
        right_rows, right_columns = self._build_source(
            session, conditions, join.right, snapshot, dirty, outer_ctx, where)
        condition = conditions.get(id(join))
        combined: List[Dict[str, Dict]] = []
        for left in left_rows:
            matched = False
            for right in right_rows:
                bindings = {**left, **right}
                if condition is not None:
                    value = condition(bindings, outer_ctx)
                    if value is None or not value:
                        continue
                matched = True
                combined.append(bindings)
            if join.kind == "LEFT" and not matched:
                null_right: Dict[str, Dict] = {}
                for binding, columns in right_columns:
                    null_right[binding] = {c: None for c in columns}
                combined.append({**left, **null_right})
        return combined, left_columns + right_columns

    def _plain_output(self, statement, parts, source_rows, source_columns,
                      outer_ctx):
        columns = parts.names
        if columns is None:     # a ``*`` names what the sources hold
            columns = self._output_column_names(statement, source_columns)
        else:
            columns = list(columns)
        rows = []
        for bindings in source_rows:
            row = []
            for closure, (expr, _alias) in zip(parts.columns,
                                               statement.columns):
                if closure is None:
                    row.extend(self._expand_star(expr, bindings, source_columns))
                else:
                    row.append(closure(bindings, outer_ctx))
            rows.append(tuple(row))
        return rows, columns

    def _expand_star(self, star: ast.Star, bindings, source_columns):
        values = []
        for binding, columns in source_columns:
            if star.table is not None and binding != star.table.lower():
                continue
            row = bindings.get(binding, {})
            values.extend(row.get(c) for c in columns)
        return values

    def _output_column_names(self, statement, source_columns) -> List[str]:
        names: List[str] = []
        for index, (expr, alias) in enumerate(statement.columns):
            if isinstance(expr, ast.Star):
                for binding, columns in source_columns:
                    if expr.table is not None and binding != expr.table.lower():
                        continue
                    names.extend(columns)
            else:
                names.append(_output_name(index, expr, alias))
        return names

    def _grouped_output(self, statement, parts, source_rows, outer_ctx):
        groups: Dict[tuple, List[Dict]] = {}
        order: List[tuple] = []
        keys = parts.group_by
        if keys:
            key_columns = [sort_keys(values(source_rows, outer_ctx))
                           for values in keys]
            row_keys = key_columns[0] if len(keys) == 1 \
                else zip(*key_columns)
            for key, bindings in zip(row_keys, source_rows):
                group = groups.get(key)
                if group is None:
                    group = groups[key] = []
                    order.append(key)
                group.append(bindings)
        else:
            # implicit single group (aggregate without GROUP BY)
            groups[()] = list(source_rows)
            order.append(())

        columns = self._output_column_names(statement, [])
        having = parts.having
        rows = []
        for key in order:
            group_rows = groups[key]
            if having is not None:
                value = having(group_rows, outer_ctx)
                if value is None or not value:
                    continue
            rows.append(tuple([output(group_rows, outer_ctx)
                               for output in parts.columns]))
        return rows, columns

    def _order_rows(self, statement, parts, rows, columns, row_bindings,
                    outer_ctx):
        """Sort output rows.  When source bindings are available (plain
        queries), ORDER BY expressions may reference source columns that
        were not projected; otherwise they resolve against the output."""
        lowered = [c.lower() for c in columns]
        indexed = list(range(len(rows)))

        def value_for(index, expr, closure):
            row = rows[index]
            # alias / output column name
            if isinstance(expr, ast.ColumnRef) and expr.table is None:
                name = expr.name.lower()
                if name in lowered:
                    return row[lowered.index(name)]
            # ordinal: ORDER BY 2
            if isinstance(expr, ast.Literal) and isinstance(expr.value, int):
                ordinal = expr.value - 1
                if 0 <= ordinal < len(row):
                    return row[ordinal]
            if row_bindings is not None:
                try:
                    return closure(row_bindings[index], outer_ctx)
                except NameError_:
                    pass    # not a source column: an output column, then
            try:
                return closure({"__out__": dict(zip(lowered, row))},
                               outer_ctx)
            except NameError_:
                return None

        # Stable multi-key sort: apply keys from last to first.
        for (expr, ascending), closure in reversed(
                list(zip(statement.order_by, parts.order_by))):
            indexed = sorted(
                indexed,
                key=lambda i: sort_key(value_for(i, expr, closure)),
                reverse=not ascending,
            )
        return [rows[i] for i in indexed]

    def _row_count(self, expr, ctx, clause: str) -> int:
        """The value of a LIMIT / OFFSET expression: a non-negative
        integer or a typed error — never a slice that quietly means
        something else."""
        value = evaluate(expr, ctx)
        if type(value) is not int or value < 0:
            raise TypeError_(
                f"{clause} needs a non-negative integer, got {value!r}")
        return value

    def _apply_limit(self, statement, rows, outer_ctx):
        offset = 0
        if statement.offset is not None:
            offset = self._row_count(statement.offset, outer_ctx, "OFFSET")
        if statement.limit is not None:
            limit = self._row_count(statement.limit, outer_ctx, "LIMIT")
            return rows[offset:offset + limit]
        if offset:
            return rows[offset:]
        return rows

    # ------------------------------------------------------------------
    # EXPLAIN
    # ------------------------------------------------------------------

    def _execute_explain(self, session, statement: ast.ExplainStatement,
                         params, variables) -> Result:
        """Describe the access path the planner would choose, without
        executing the statement."""
        ctx = EvalContext(self, session, params=params,
                          variables=variables)
        inner = statement.statement
        rows: List[tuple] = []
        if isinstance(inner, ast.SelectStatement):
            self._explain_source(session, inner.source, inner.where, ctx, rows)
        elif isinstance(inner, ast.UpdateStatement):
            _db, table = self._resolve_table(session, inner.table)
            rows.append(self._explain_row(
                "UPDATE", table, inner.table.name.lower(), inner.where, ctx))
        elif isinstance(inner, ast.DeleteStatement):
            _db, table = self._resolve_table(session, inner.table)
            rows.append(self._explain_row(
                "DELETE", table, inner.table.name.lower(), inner.where, ctx))
        else:
            raise TypeError_(
                f"cannot EXPLAIN {type(inner).__name__}")
        return Result(columns=["operation", "table", "access_path", "keys"],
                      rows=rows, rowcount=len(rows))

    def _explain_source(self, session, source, where, ctx,
                        rows: List[tuple]) -> None:
        if isinstance(source, ast.TableRef):
            _db, table = self._resolve_table(session, source.name)
            rows.append(self._explain_row(
                "SELECT", table, source.binding, where, ctx))
        elif isinstance(source, ast.Join):
            self._explain_source(session, source.left, where, ctx, rows)
            self._explain_source(session, source.right, where, ctx, rows)
        elif isinstance(source, ast.SubquerySource):
            rows.append(("SELECT", source.binding, "derived-table", 0))

    def _explain_row(self, operation: str, table: Table, binding: str,
                     where, ctx) -> tuple:
        plan = (plan_table_access(table, binding, where, ctx)
                if self.engine.use_indexes else AccessPlan(SEQ_SCAN, table))
        access = (f"{plan.kind} ({plan.index.name})"
                  if plan.index is not None else plan.kind)
        return (operation, table.name, access, len(plan.keys))

    # -- subquery hooks (called from expressions.py) -----------------------

    def scalar_subquery(self, select: ast.SelectStatement, ctx: EvalContext):
        result = self._run_select(ctx.session, select, ctx)
        if not result.rows:
            return None
        return result.rows[0][0]

    def exists_subquery(self, select: ast.SelectStatement, ctx: EvalContext) -> bool:
        result = self._run_select(ctx.session, select, ctx)
        return bool(result.rows)

    def column_subquery(self, select: ast.SelectStatement, ctx: EvalContext):
        result = self._run_select(ctx.session, select, ctx)
        return [row[0] for row in result.rows]

    def sequence_function(self, call: ast.FunctionCall, ctx: EvalContext):
        session = ctx.session
        if not self.engine.dialect.supports_sequences:
            raise UnsupportedFeatureError(
                f"dialect {self.engine.dialect.name!r} has no sequences")
        if not call.args:
            raise TypeError_(f"{call.name} needs a sequence name")
        name = evaluate(call.args[0], ctx)
        database_name = session.current_database_name()
        database = self.engine.database(database_name)
        sequence = database.sequence(str(name))
        if call.name == "NEXTVAL":
            value = sequence.next_value()
            if session.txn is not None:
                session.txn.sequence_effects.append(
                    (database_name, sequence.name, value))
            return value
        if call.name == "CURRVAL":
            return sequence.current_value()
        if call.name == "SETVAL":
            if len(call.args) < 2:
                raise TypeError_("SETVAL needs (sequence, value)")
            raw = evaluate(call.args[1], ctx)
            try:
                value = int(raw)
            except (TypeError, ValueError, OverflowError):
                raise TypeError_(
                    f"SETVAL needs an integer value, not {raw!r}") from None
            sequence.set_value(value)
            return value
        raise TypeError_(f"unknown sequence function {call.name}")

    # ------------------------------------------------------------------
    # INSERT / UPDATE / DELETE
    # ------------------------------------------------------------------

    def _execute_insert(self, session, statement: ast.InsertStatement,
                        params, variables) -> Result:
        self._check_write_allowed()
        database_name, table = self._resolve_table(
            session, statement.table, privilege="INSERT")
        self._lock_for_write(session, database_name, table)
        ctx = EvalContext(self, session, params=params, variables=variables)

        if statement.select is not None:
            select_result = self._run_select(session, statement.select, ctx)
            value_rows = [list(row) for row in select_result.rows]
        else:
            value_rows = [evaluate_each(row, ctx) for row in statement.rows]

        column_names = statement.columns or table.column_names
        if any(not table.has_column(c) for c in column_names):
            missing = [c for c in column_names if not table.has_column(c)]
            raise NameError_(
                f"unknown column(s) {missing} in table {table.name!r}")

        lastrowid = None
        inserted = 0
        for values in value_rows:
            if len(values) != len(column_names):
                raise TypeError_(
                    f"INSERT has {len(column_names)} column(s) but "
                    f"{len(values)} value(s)")
            row = {c.lower(): v for c, v in zip(column_names, values)}
            lastrowid = self._insert_row(session, database_name, table, row)
            inserted += 1
        result = Result(rowcount=inserted, lastrowid=lastrowid)
        session.last_insert_id = lastrowid
        return result

    def _insert_row(self, session, database_name: str, table: Table,
                    row: Dict[str, Any]) -> Optional[int]:
        txn = session.txn
        lastrowid = None
        # defaults + auto increment (auto counters survive rollback: 4.2.3)
        for column in table.columns:
            key = column.name.lower()
            if row.get(key) is None:
                if column.auto_increment:
                    row[key] = table.next_auto_value(key)
                    lastrowid = row[key]
                    txn.auto_increment_effects.append(
                        (database_name, table.name, row[key]))
                elif column.default is not None and key not in row:
                    default = self._compile_once(column.default,
                                                 compile_expression)
                    row[key] = default(NO_ROW, EvalContext(self, session))
            elif column.auto_increment and row.get(key) is not None:
                table.bump_auto_value(key, int(row[key]))
                lastrowid = row[key]

        full_row = table.coerce_row(row)
        table.check_not_null(full_row)
        self._check_unique(session, database_name, table, full_row,
                           exclude_row_id=None)

        self._fire_triggers(session, database_name, table, "INSERT",
                            timing="BEFORE", old=None, new=full_row)

        version = table.insert_version(full_row, txn.id)
        table.last_inserted_id = lastrowid
        txn.note_created(table, version)
        if not table.temporary:
            txn.writeset.add(WritesetEntry(
                database_name, table.name.lower(), "INSERT",
                self._primary_key_of(table, full_row), None,
                dict(full_row), version.row_id))

        self._fire_triggers(session, database_name, table, "INSERT",
                            timing="AFTER", old=None, new=full_row)
        return lastrowid

    def _primary_key_of(self, table: Table, row: Dict[str, Any]):
        pk_names = table.primary_key_names
        if not pk_names:
            return None
        return tuple(map(row.get, pk_names))

    def _check_unique(self, session, database_name: str, table: Table,
                      row: Dict[str, Any], exclude_row_id: Optional[int]) -> None:
        txn = session.txn
        txn_id = txn.id if txn is not None else 0
        snapshot = None
        for columns, index in table.unique_indexes:
            key = tuple(map(row.get, columns))
            if None in key:
                continue
            for candidate in index.probe(key):
                if exclude_row_id is not None and candidate.row_id == exclude_row_id:
                    continue
                if candidate.creator_txn == txn_id and candidate.deleter_txn == txn_id:
                    continue  # superseded within this txn
                if candidate.created_ts is None and candidate.creator_txn != txn_id:
                    # Another in-flight transaction is inserting the same key:
                    # write-write conflict, the caller may retry later.
                    raise LockConflict(
                        f"unique:{database_name}.{table.name}:{key}",
                        candidate.creator_txn,
                        should_die=txn_id > candidate.creator_txn)
                # Committed or own version: visible -> duplicate.
                if snapshot is None:
                    snapshot = self.engine.clock.snapshot()
                if version_visible(candidate, snapshot, txn_id):
                    raise IntegrityError(
                        f"duplicate key {key} for unique columns "
                        f"{columns} in {database_name}.{table.name}")

    def _execute_update(self, session, statement: ast.UpdateStatement,
                        params, variables) -> Result:
        self._check_write_allowed()
        database_name, table = self._resolve_table(
            session, statement.table, privilege="UPDATE")
        self._lock_for_write(session, database_name, table)
        ctx = EvalContext(self, session, params=params, variables=variables)
        txn = session.txn
        txn_id = txn.id
        snapshot = txn.read_snapshot(self.engine.clock.now)
        binding = statement.table.name.lower()
        keep, assignments = self._compile_once(statement, _write_parts)

        targets = self._table_versions(
            session, table, binding, statement.where, snapshot, ctx,
            keep=keep)

        updated = 0
        for version in targets:
            self._check_write_conflict(session, database_name, table, version)
            old_values = dict(version.values)
            bindings = {binding: old_values}
            new_values = dict(old_values)
            for column_name, value_of in assignments:
                column = table.column(column_name)
                new_values[column.name.lower()] = coerce(
                    value_of(bindings, ctx), column.type)
            table.check_not_null(new_values)
            self._check_unique(session, database_name, table, new_values,
                               exclude_row_id=version.row_id)

            self._fire_triggers(session, database_name, table, "UPDATE",
                                timing="BEFORE", old=old_values, new=new_values)

            table.mark_deleted(version, txn_id)
            new_version = table.insert_version(
                new_values, txn_id, row_id=version.row_id)
            txn.note_deleted(version)
            txn.note_created(table, new_version)
            if not table.temporary:
                txn.writeset.add(WritesetEntry(
                    database_name, table.name.lower(), "UPDATE",
                    self._primary_key_of(table, old_values),
                    old_values, dict(new_values), version.row_id))

            self._fire_triggers(session, database_name, table, "UPDATE",
                                timing="AFTER", old=old_values, new=new_values)
            updated += 1
        return Result(rowcount=updated)

    def _execute_delete(self, session, statement: ast.DeleteStatement,
                        params, variables) -> Result:
        self._check_write_allowed()
        database_name, table = self._resolve_table(
            session, statement.table, privilege="DELETE")
        self._lock_for_write(session, database_name, table)
        ctx = EvalContext(self, session, params=params, variables=variables)
        txn = session.txn
        txn_id = txn.id
        snapshot = txn.read_snapshot(self.engine.clock.now)
        binding = statement.table.name.lower()
        keep, _ = self._compile_once(statement, _write_parts)

        targets = self._table_versions(
            session, table, binding, statement.where, snapshot, ctx,
            keep=keep)

        deleted = 0
        for version in targets:
            self._check_write_conflict(session, database_name, table, version)
            old_values = dict(version.values)
            self._fire_triggers(session, database_name, table, "DELETE",
                                timing="BEFORE", old=old_values, new=None)
            table.mark_deleted(version, txn_id)
            txn.note_deleted(version)
            if not table.temporary:
                txn.writeset.add(WritesetEntry(
                    database_name, table.name.lower(), "DELETE",
                    self._primary_key_of(table, old_values),
                    old_values, None, version.row_id))
            self._fire_triggers(session, database_name, table, "DELETE",
                                timing="AFTER", old=old_values, new=None)
            deleted += 1
        return Result(rowcount=deleted)

    def _check_write_conflict(self, session, database_name: str,
                              table: Table, version: RowVersion) -> None:
        """Write-write conflict detection.

        * another in-flight writer on the row chain -> LockConflict
          (wait or die, the caller decides using should_die);
        * under snapshot-class isolation, a *committed* change newer than
          our snapshot -> first-updater-wins serialization failure.
        """
        txn = session.txn
        txn_id = txn.id if txn is not None else 0
        chain = table.version_chain(version.row_id)
        other = uncommitted_writer(chain, txn_id)
        if other is not None:
            raise LockConflict(
                f"row:{database_name}.{table.name}:{version.row_id}",
                other, should_die=txn_id > other)
        if txn is not None and txn.uses_transaction_snapshot:
            newest = latest_committed_change(chain)
            if newest > txn.snapshot.timestamp:
                raise SerializationError(
                    f"could not serialize update of row {version.row_id} in "
                    f"{database_name}.{table.name}: concurrent committed "
                    f"update (first-updater-wins)")

    # ------------------------------------------------------------------
    # triggers
    # ------------------------------------------------------------------

    def _fire_triggers(self, session, database_name: str, table: Table,
                       event: str, timing: str,
                       old: Optional[Dict], new: Optional[Dict]) -> None:
        if table.temporary or database_name == "#temp":
            return
        database = self.engine.database(database_name)
        if not database.triggers:
            return
        triggers = database.triggers_for(table.name, timing, event,
                                         session.user_name)
        if not triggers:
            return
        if self._trigger_depth >= _MAX_TRIGGER_DEPTH:
            raise SQLError("trigger recursion depth exceeded")
        self._trigger_depth += 1
        try:
            for trigger in triggers:
                trigger_event = TriggerEvent(event, table.name, old, new,
                                             session.user_name)
                if trigger.callback is not None:
                    trigger.callback(trigger_event, session)
                if trigger.body:
                    variables = {}
                    for prefix, image in (("old_", old), ("new_", new)):
                        for key, value in (image or {}).items():
                            variables[prefix + key] = value
                    for body_statement in trigger.body:
                        self.execute(session, body_statement,
                                     variables=variables)
        finally:
            self._trigger_depth -= 1

    # ------------------------------------------------------------------
    # DDL
    # ------------------------------------------------------------------

    def _execute_create_table(self, session, statement) -> Result:
        self._check_write_allowed()
        columns = [
            Column(
                c.name,
                ColumnType.from_name(c.type_name),
                nullable=c.nullable,
                primary_key=c.primary_key,
                unique=c.unique,
                auto_increment=c.auto_increment,
                default=c.default,
            )
            for c in statement.columns
        ]
        if statement.temporary:
            return self._create_temp_table(session, statement, columns)
        database_name, database = self._resolve_database(session, statement.table)
        table = Table(statement.table.name, columns)
        database.create_table(table, if_not_exists=statement.if_not_exists)
        return Result()

    def _create_temp_table(self, session, statement, columns) -> Result:
        dialect = self.engine.dialect
        if session.txn is not None and session.txn.explicit \
                and not dialect.temp_tables_in_transaction:
            raise UnsupportedFeatureError(
                f"dialect {dialect.name!r} does not allow temporary tables "
                "inside transactions")
        table = Table(statement.table.name, columns, temporary=True)
        session.temp_space.create(table, if_not_exists=statement.if_not_exists)
        if session.txn is not None:
            session.txn.temp_tables_created.append(statement.table.name.lower())
        return Result()

    def _execute_create_database(self, session, statement) -> Result:
        self.engine.create_database(statement.name,
                                    if_not_exists=statement.if_not_exists)
        return Result()

    def _execute_create_schema(self, session, statement) -> Result:
        if not self.engine.dialect.supports_schemas:
            raise UnsupportedFeatureError(
                f"dialect {self.engine.dialect.name!r} has no schema support")
        database = self.engine.database(session.current_database_name())
        database.create_schema(statement.name,
                               if_not_exists=statement.if_not_exists)
        return Result()

    def _execute_create_index(self, session, statement) -> Result:
        database_name, table = self._resolve_table(session, statement.table)
        key_columns = [c.lower() for c in statement.columns]
        if statement.unique:
            # Reject if existing committed data already violates uniqueness.
            snapshot = self.engine.clock.snapshot()
            seen = set()
            for version in visible_rows(table, snapshot, None):
                key = tuple(version.values.get(c) for c in key_columns)
                if key in seen and not any(v is None for v in key):
                    raise IntegrityError(
                        f"cannot create unique index {statement.name!r}: "
                        f"duplicate key {key}")
                seen.add(key)
        table.create_index(statement.name, key_columns, statement.unique)
        return Result()

    def _execute_create_sequence(self, session, statement) -> Result:
        if not self.engine.dialect.supports_sequences:
            raise UnsupportedFeatureError(
                f"dialect {self.engine.dialect.name!r} has no sequences")
        database_name, database = self._resolve_database(session, statement.name)
        database.create_sequence(Sequence(
            statement.name.name, statement.start, statement.increment))
        return Result()

    def _execute_create_trigger(self, session, statement) -> Result:
        database_name, database = self._resolve_database(session, statement.table)
        trigger = Trigger(
            statement.name, statement.timing, statement.event,
            statement.table.name, body=statement.body,
            owner=session.user_name)
        database.create_trigger(trigger)
        return Result()

    def _execute_create_procedure(self, session, statement) -> Result:
        database_name, database = self._resolve_database(session, statement.name)
        database.create_procedure(Procedure(
            statement.name.name, statement.params, statement.body,
            owner=session.user_name))
        return Result()

    def _execute_drop(self, session, statement) -> Result:
        kind = statement.kind
        name = statement.name
        if kind == "TABLE":
            if name.database is None and session.temp_space.get(name.name):
                session.temp_space.drop(name.name)
                return Result()
            database_name, database = self._resolve_database(session, name)
            database.drop_table(name.name, if_exists=statement.if_exists)
            return Result()
        if kind == "DATABASE":
            self.engine.drop_database(name.name, if_exists=statement.if_exists)
            return Result()
        if kind == "SCHEMA":
            database = self.engine.database(session.current_database_name())
            database.drop_schema(name.name, if_exists=statement.if_exists)
            return Result()
        if kind == "SEQUENCE":
            database_name, database = self._resolve_database(session, name)
            database.drop_sequence(name.name, if_exists=statement.if_exists)
            return Result()
        if kind == "TRIGGER":
            database_name, database = self._resolve_database(session, name)
            database.drop_trigger(name.name, if_exists=statement.if_exists)
            return Result()
        if kind == "PROCEDURE":
            database_name, database = self._resolve_database(session, name)
            database.drop_procedure(name.name, if_exists=statement.if_exists)
            return Result()
        if kind == "USER":
            self.engine.users.drop_user(name.name)
            return Result()
        if kind == "INDEX":
            # find the index in the current database's tables; constraint
            # indexes (primary key / UNIQUE column) are not droppable
            database = self.engine.database(session.current_database_name())
            for table in database.tables.values():
                if table.drop_index(name.name):
                    return Result()
            if statement.if_exists:
                return Result()
            raise NameError_(f"no index {name.name!r}")
        raise TypeError_(f"unsupported DROP {kind}")

    def _execute_alter(self, session, statement) -> Result:
        database_name, table = self._resolve_table(session, statement.table)
        if statement.action == "ADD_COLUMN":
            c = statement.column
            table.add_column(Column(
                c.name, ColumnType.from_name(c.type_name),
                nullable=True, unique=c.unique,
                auto_increment=c.auto_increment, default=c.default))
            return Result()
        if statement.action == "RENAME":
            database = self.engine.database(
                statement.table.database or session.current_database_name())
            old_key = statement.table.name.lower()
            new_key = statement.new_name.lower()
            if new_key in database.tables:
                raise IntegrityError(
                    f"table {statement.new_name!r} already exists")
            database.tables[new_key] = database.tables.pop(old_key)
            database.tables[new_key].name = statement.new_name
            return Result()
        raise TypeError_(f"unsupported ALTER action {statement.action}")

    # ------------------------------------------------------------------
    # SET / GRANT / CALL / LOCK
    # ------------------------------------------------------------------

    def _execute_set(self, session, statement, params) -> Result:
        if statement.name == "isolation_level":
            # refused before anything changes: a level this dialect
            # lacks leaves the connection as it was
            level = session.normalize_isolation(statement.value)
            session.default_isolation = level
            if session.txn is not None and session.txn.is_active \
                    and session.txn.writeset.is_empty():
                session.txn.isolation = level
            return Result()
        ctx = EvalContext(self, session, params=params)
        value = statement.value
        if isinstance(value, ast.Expression):
            value = evaluate(value, ctx)
        session.variables[statement.name] = value
        return Result()

    def _execute_grant(self, session, statement) -> Result:
        user = self.engine.users.get(statement.user)
        object_name = self._privilege_object(session, statement.object_name)
        user.grant(statement.privileges, object_name)
        return Result()

    def _execute_revoke(self, session, statement) -> Result:
        user = self.engine.users.get(statement.user)
        object_name = self._privilege_object(session, statement.object_name)
        user.revoke(statement.privileges, object_name)
        return Result()

    def _privilege_object(self, session, name: ast.QualifiedName) -> str:
        if name.database is not None:
            return f"{name.database}.{name.name}"
        if name.name == "*":
            return "*.*"
        return f"{session.current_database_name()}.{name.name}"

    def _execute_call(self, session, statement, params, variables) -> Result:
        database_name = (statement.name.database
                         or session.current_database_name())
        database = self.engine.database(database_name)
        procedure = database.procedure(statement.name.name)
        self._check_privilege(session, "EXECUTE", database_name,
                              procedure.name)
        ctx = EvalContext(self, session, params=params,
                          variables=variables)
        args = evaluate_each(statement.args, ctx)
        if len(args) != len(procedure.params):
            raise TypeError_(
                f"procedure {procedure.name!r} takes {len(procedure.params)} "
                f"argument(s), got {len(args)}")
        call_variables = dict(zip((p.lower() for p in procedure.params), args))
        last_result = Result()
        total_rowcount = 0
        for body_statement in procedure.body:
            result = self.execute(session, body_statement,
                                  variables=call_variables)
            total_rowcount += result.rowcount
            if result.columns:
                last_result = result
        if last_result.columns:
            return last_result
        return Result(rowcount=total_rowcount)

    def _execute_lock(self, session, statement) -> Result:
        database_name, table = self._resolve_table(session, statement.table)
        txn = session.txn
        if txn is None:
            return Result()
        mode = LockMode.EXCLUSIVE if statement.mode == "EXCLUSIVE" else LockMode.SHARED
        self.engine.locks.acquire(
            txn.id, f"{database_name}.{table.name}".lower(), mode)
        return Result()


# -- what a statement compiles to ----------------------------------------------
#
# Built once per tree (``Executor._compile_once``) from nothing but the tree:
# closures ``fn(row_bindings, ctx)`` for everything evaluated per row, the
# batch forms (``compile_filter``, ``compile_values``) of what a scan
# evaluates over every row, and the shape facts that used to be re-derived
# per execution.


class _SelectParts:
    """One SELECT tree, compiled.

    The WHERE is ``keep`` (:func:`compile_filter`) over one table, else
    ``where`` (:func:`compile_values`: a verdict per row), as is each
    ``group_by`` entry; each ``order_by`` entry is a row closure;
    ``columns`` holds one row closure per select-list item (``None`` for
    a ``*``) or, when ``grouped``, one group closure ``fn(group_rows,
    ctx)``, as is ``having``; ``conditions`` maps ``id(join)`` to the
    join's compiled ON clause; ``top`` is :func:`_top_shape`."""

    __slots__ = ("keep", "where", "grouped", "columns", "names",
                 "group_by", "having", "order_by", "conditions", "top")

    def __init__(self, statement: ast.SelectStatement):
        source = statement.source
        # rows of a one-table source carry that one binding, so
        # unqualified names can be bound to it now
        binding = source.binding if isinstance(
            source, (ast.TableRef, ast.SubquerySource)) else None
        self.grouped = bool(statement.group_by) or _contains_aggregate(
            [statement.columns, statement.having])
        compiled = _group_closure if self.grouped else compile_expression
        self.columns = [
            None if isinstance(expr, ast.Star) and not self.grouped
            else compiled(expr, binding) for expr, _alias in statement.columns]
        # the output names, unless a ``*`` takes them from the source
        self.names = None if any(
            isinstance(expr, ast.Star) for expr, _alias in statement.columns
        ) else tuple(_output_name(index, expr, alias) for index, (expr, alias)
                     in enumerate(statement.columns))
        self.keep = self.where = None
        if statement.where is not None:
            if isinstance(source, ast.TableRef):
                self.keep = compile_filter(statement.where, binding)
            else:
                self.where = compile_values(statement.where, binding)
        self.having = None if statement.having is None \
            else compiled(statement.having, binding)
        self.group_by = [compile_values(expr, binding)
                         for expr in statement.group_by]
        self.order_by = [compile_expression(expr, binding)
                         for expr, _ascending in statement.order_by]
        self.conditions: Dict[int, Any] = {}
        pending = [source]
        while pending:
            node = pending.pop()
            if isinstance(node, ast.Join):
                if node.condition is not None:
                    self.conditions[id(node)] = compile_expression(
                        node.condition)
                pending += (node.left, node.right)
        self.top = _top_shape(statement)


def _top_shape(statement: ast.SelectStatement) -> Optional[tuple]:
    """``(column, ascending)`` when the statement's answer is the first
    LIMIT + OFFSET matching rows of its one table in ``column``'s order,
    whatever the two values turn out to be; else ``None``.

    That needs a single table source, no grouping, aggregate, DISTINCT,
    HAVING or FOR UPDATE, a literal or bound LIMIT, and exactly one
    ORDER BY term that is a bare column of the table — one
    ``_order_rows`` will not resolve against a select-list alias of the
    same name instead."""
    source = statement.source
    if statement.limit is None or len(statement.order_by) != 1 \
            or not isinstance(source, ast.TableRef) \
            or statement.group_by or statement.distinct \
            or statement.having is not None or statement.for_update:
        return None
    term, ascending = statement.order_by[0]
    if not isinstance(term, ast.ColumnRef) \
            or term.table_lower not in (None, source.binding):
        return None
    column = term.name_lower
    for index, (expr, alias) in enumerate(statement.columns):
        if _contains_aggregate(expr):
            return None
        if isinstance(expr, ast.Star):
            continue
        is_column = (isinstance(expr, ast.ColumnRef)
                     and expr.name_lower == column
                     and expr.table_lower in (None, source.binding))
        if not is_column \
                and _output_name(index, expr, alias).lower() == column:
            return None     # ORDER BY sorts by this output column
    for expr in (statement.limit, statement.offset):
        if expr is not None and not isinstance(expr, (ast.Literal, ast.Param)):
            return None
    return column, ascending


def _write_parts(statement) -> tuple:
    """``(keep or None, [(column name, value closure)])`` of an UPDATE or
    a DELETE (which assigns nothing): ``keep`` is the WHERE as
    :func:`compile_filter` builds it."""
    binding = statement.table.name.lower()
    keep = None if statement.where is None \
        else compile_filter(statement.where, binding)
    assignments = [(name, compile_expression(expr, binding))
                   for name, expr in (
                       statement.assignments
                       if isinstance(statement, ast.UpdateStatement) else ())]
    return keep, assignments


def _group_closure(expr, binding):
    """``fn(group_rows, ctx)`` for a select-list or HAVING expression
    that may contain aggregate calls.  Operators combine the closures of
    their operands; non-aggregate parts are evaluated on the first row of
    the group (they should be group-by expressions)."""
    if isinstance(expr, ast.FunctionCall) and expr.name in AGGREGATE_FUNCTIONS:
        return _aggregate_closure(expr, binding)
    if isinstance(expr, ast.BinaryOp):
        return combine_binary(expr.op, _group_closure(expr.left, binding),
                              _group_closure(expr.right, binding))
    if isinstance(expr, ast.UnaryOp):
        return combine_unary(expr.op, _group_closure(expr.operand, binding))
    if isinstance(expr, ast.Star):
        return raising("'*' not allowed with GROUP BY")
    first_row = compile_expression(expr, binding)
    return lambda group_rows, ctx: \
        first_row(group_rows[0], ctx) if group_rows else None


def _aggregate_closure(call: ast.FunctionCall, binding):
    name = call.name
    if name == "COUNT" and (not call.args or isinstance(call.args[0], ast.Star)):
        return lambda group_rows, ctx: len(group_rows)
    if not call.args:
        return raising(f"{name}() needs an argument")
    arguments = compile_values(call.args[0], binding)
    distinct = call.distinct

    def aggregate(group_rows, ctx):
        values = [value for value in arguments(group_rows, ctx)
                  if value is not None]
        if distinct:
            seen = set()
            distinct_values = []
            for value in values:
                key = sort_key(value)
                if key not in seen:
                    seen.add(key)
                    distinct_values.append(value)
            values = distinct_values
        if name == "COUNT":
            return len(values)
        if not values:
            return None
        try:
            if name == "SUM":
                return sum(values)
            if name == "AVG":
                return sum(values) / len(values)
        except TypeError as exc:
            kinds = sorted({type(value).__name__ for value in values})
            raise TypeError_(f"{name}() needs numbers, got "
                             f"{', '.join(kinds)}") from exc
        if name in ("MIN", "MAX"):
            # the first value under the least / greatest key, as
            # min(values, key=sort_key) picks it
            keys = sort_keys(values)
            return values[keys.index((min if name == "MIN" else max)(keys))]
        raise TypeError_(f"unknown aggregate {name}")
    return aggregate


def _output_name(index: int, expr, alias: Optional[str]) -> str:
    """The result-column name of one non-``*`` select-list item."""
    if alias:
        return alias
    if isinstance(expr, (ast.ColumnRef, ast.FunctionCall)):
        return expr.name.lower()
    return f"col{index}"


def _contains_aggregate(expr) -> bool:
    """Whether an aggregate call sits anywhere in ``expr`` — subqueries
    are statements of their own and are not looked into."""
    if isinstance(expr, (list, tuple)):
        return any(_contains_aggregate(item) for item in expr)
    if not isinstance(expr, ast.Expression):
        return False
    if isinstance(expr, ast.FunctionCall) and expr.name in AGGREGATE_FUNCTIONS:
        return True
    return any(_contains_aggregate(getattr(expr, slot))
               for slot in expr.__slots__)
