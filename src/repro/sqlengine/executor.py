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

from typing import Any, Dict, List, Optional

from . import ast_nodes as ast
from .errors import (
    AccessDeniedError, DiskFullError, IntegrityError, NameError_,
    SQLError, TypeError_, UnsupportedFeatureError,
)
from .expressions import EvalContext, evaluate, is_true, sort_key
from .functions import AGGREGATE_FUNCTIONS
from .locks import LockConflict, LockMode
from .mvcc import (
    READ_UNCOMMITTED, SERIALIZABLE, Snapshot, latest_committed_change,
    uncommitted_writer, visible_rows, visible_version,
)
from .planner import (AccessPlan, INDEX_RANGE, SEQ_SCAN, plan_table_access,
                      plan_table_access_cached)
from .sequences import Sequence
from .procedures import Procedure
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
        # Access paths chosen by the most recent statement, newest last —
        # EXPLAIN-style introspection for tests and benchmarks.
        self.last_access_paths: List[str] = []

    # ------------------------------------------------------------------
    # access paths
    # ------------------------------------------------------------------

    def _table_versions(self, session, table, binding, where, snapshot,
                        ctx, dirty: bool = False,
                        top: Optional[tuple] = None) -> List[RowVersion]:
        """The visible versions a statement must consider for ``table``,
        through the planned access path.

        An index probe or range walk yields a *superset* of the
        fully-matching rows (the caller still applies the complete
        WHERE), so routing here never changes results — only how many
        rows are touched, which the engine-level ``seq_scans`` /
        ``index_probes`` / ``rows_scanned`` counters record.

        ``top`` is ``(column, ascending, count)`` when the caller's answer
        is the first ``count`` matching rows in that column's order (see
        :meth:`_top_n`): a range walk over a unique index on exactly that
        column then stops fetching after ``count`` rows that pass the
        complete WHERE.  Any other path ignores it.
        """
        txn_id = session.txn.id if session.txn else None
        stats = self.engine.stats
        plan = (plan_table_access_cached(table, binding, where, ctx)
                if self.engine.use_indexes else AccessPlan(SEQ_SCAN, table))
        self.last_access_paths.append(plan.describe())
        if plan.is_index:
            stats["index_probes"] += 1
            row_ids = set()
            for key in plan.keys:
                for candidate in plan.index.probe(key):
                    row_ids.add(candidate.row_id)
            stats["rows_scanned"] += len(row_ids)
            versions = []
            for row_id in row_ids:
                version = visible_version(table, row_id, snapshot, txn_id,
                                          dirty=dirty)
                if version is not None:
                    versions.append(version)
            return versions
        if plan.kind == INDEX_RANGE:
            stats["index_probes"] += 1
            index = plan.index
            positions, wanted = plan.keys, None
            if top is not None and index.unique \
                    and index.columns == [top[0]]:
                wanted = top[2]
                if not top[1]:
                    positions = reversed(positions)
            versions = []
            scanned = 0
            for position in positions:
                if wanted is not None and len(versions) >= wanted:
                    break
                candidates = index.entries[index.ordered[position]]
                for row_id in {c.row_id for c in candidates}:
                    scanned += 1
                    version = visible_version(table, row_id, snapshot,
                                              txn_id, dirty=dirty)
                    # a row counts only under its visible version's own
                    # key: once each, and in true key order, whatever
                    # other versions of it sit elsewhere in the slice
                    if version not in candidates:
                        continue
                    if wanted is not None and not is_true(evaluate(
                            where, ctx.child({binding: version.values}))):
                        continue
                    versions.append(version)
            stats["rows_scanned"] += scanned
            return versions
        stats["seq_scans"] += 1
        stats["rows_scanned"] += table.logical_row_count()
        return list(visible_rows(table, snapshot, txn_id, dirty=dirty))

    # ------------------------------------------------------------------
    # dispatch
    # ------------------------------------------------------------------

    def execute(self, session, statement: ast.Statement,
                params: Optional[List[Any]] = None,
                variables: Optional[Dict[str, Any]] = None) -> Result:
        params = params or []
        if self._trigger_depth == 0:
            self.last_access_paths = []
        # Exact-type checks for the four DML classes that make up ~all of
        # any OLTP run; everything else (DDL, grants, subclasses) takes
        # the isinstance chain in _execute_cold.
        cls = statement.__class__
        if cls is ast.SelectStatement:
            return self._execute_select_statement(session, statement,
                                                  params, variables)
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
            return self._execute_select_statement(session, statement, params, variables)
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
        if name.database is None:
            temp = session.temp_space.get(name.name)
            if temp is not None:
                return ("#temp", temp)
        database_name = name.database or session.current_database_name()
        from . import information_schema
        if information_schema.is_information_schema(database_name):
            if privilege not in (None, "SELECT"):
                raise AccessDeniedError(
                    "information_schema views are read-only")
            view = information_schema.build_view(self.engine, name.name)
            return (information_schema.DATABASE_NAME, view)
        database = self.engine.database(database_name)
        table = database.table(name.name)
        if privilege is not None:
            self._check_privilege(session, privilege, database_name, name.name)
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

    def _read_snapshot(self, session) -> Snapshot:
        statement_snapshot = self.engine.clock.snapshot()
        txn = session.txn
        if txn is None:
            return statement_snapshot
        return txn.read_snapshot(statement_snapshot)

    def _lock_for_read(self, session, database: str, table: Table) -> None:
        txn = session.txn
        if txn is not None and txn.isolation == SERIALIZABLE and not table.temporary:
            self.engine.locks.acquire(
                txn.id, f"{database}.{table.name}".lower(), LockMode.SHARED)

    def _lock_for_write(self, session, database: str, table: Table) -> None:
        txn = session.txn
        if txn is not None and txn.isolation == SERIALIZABLE and not table.temporary:
            self.engine.locks.acquire(
                txn.id, f"{database}.{table.name}".lower(), LockMode.EXCLUSIVE)

    # ------------------------------------------------------------------
    # SELECT
    # ------------------------------------------------------------------

    def _execute_select_statement(self, session, statement, params,
                                  variables) -> Result:
        ctx = EvalContext(self, session, params=params, variables=variables or {})
        return self._run_select(session, statement, ctx)

    def _run_select(self, session, statement: ast.SelectStatement,
                    outer_ctx: EvalContext) -> Result:
        snapshot = self._read_snapshot(session)
        dirty = session.txn is not None and session.txn.isolation == READ_UNCOMMITTED

        top = None if statement.limit is None \
            else self._top_n(statement, outer_ctx)
        source_rows, source_columns = self._build_source(
            session, statement.source, snapshot, dirty, outer_ctx,
            statement.where, top)

        if statement.for_update and isinstance(statement.source, ast.TableRef):
            database_name, table = self._resolve_table(
                session, statement.source.name, privilege="SELECT")
            txn = session.txn
            if txn is not None and not table.temporary:
                self.engine.locks.acquire(
                    txn.id, f"{database_name}.{table.name}".lower(),
                    LockMode.EXCLUSIVE)

        if statement.where is not None:
            filtered = []
            for bindings in source_rows:
                ctx = outer_ctx.child(bindings)
                if is_true(evaluate(statement.where, ctx)):
                    filtered.append(bindings)
            source_rows = filtered

        has_aggregates = any(
            _contains_aggregate(expr) for expr, _ in statement.columns
        ) or (statement.having is not None and _contains_aggregate(statement.having))

        grouped = bool(statement.group_by) or has_aggregates
        row_bindings: Optional[List[Dict]] = None
        if grouped:
            rows, columns = self._grouped_output(
                session, statement, source_rows, outer_ctx)
        else:
            rows, columns = self._plain_output(
                session, statement, source_rows, source_columns, outer_ctx)
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
            rows = self._order_rows(statement, rows, columns, row_bindings,
                                    outer_ctx)

        rows = self._apply_limit(statement, rows, outer_ctx)
        return Result(columns=columns, rows=rows, rowcount=len(rows))

    def _top_n(self, statement: ast.SelectStatement,
               ctx: EvalContext) -> Optional[tuple]:
        """For a statement with a LIMIT: ``(column, ascending, count)``
        when its answer is provably the first ``count = LIMIT + OFFSET``
        matching rows of its one table in ``column``'s order, else
        ``None``.

        That needs a single table source, no grouping, aggregate,
        DISTINCT, HAVING or FOR UPDATE, and exactly one ORDER BY term
        that is a bare column of the table — one ``_order_rows`` will
        not resolve against a select-list alias of the same name
        instead.  Only *fetching* stops early: the caller still filters,
        sorts and slices what comes back."""
        source = statement.source
        if len(statement.order_by) != 1 \
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
        count = 0
        for expr in (statement.limit, statement.offset):
            if expr is None:
                continue
            if not isinstance(expr, (ast.Literal, ast.Param)):
                return None
            try:
                value = evaluate(expr, ctx)
            except SQLError:
                return None     # _apply_limit raises it
            if type(value) is not int or value < 0:
                return None
            count += value
        return column, ascending, count

    def _build_source(self, session, source, snapshot, dirty, outer_ctx,
                      where=None, top=None):
        """Returns (list of binding dicts, ordered [(binding, column_names)]).

        ``where`` is the enclosing statement's predicate, pushed down so
        table references can serve equality conjuncts from an index probe
        and range conjuncts from an index range instead of a full scan;
        the caller still applies the complete predicate to whatever comes
        back.  ``top`` (see :meth:`_top_n`) is only ever passed for a
        statement whose whole source is one table.
        """
        if source is None:
            return [{}], []
        if isinstance(source, ast.TableRef):
            database_name, table = self._resolve_table(
                session, source.name, privilege="SELECT")
            self._lock_for_read(session, database_name, table)
            binding = source.binding
            rows = [
                {binding: dict(version.values)}
                for version in self._table_versions(
                    session, table, binding, where, snapshot, outer_ctx,
                    dirty, top)
            ]
            if session.txn is not None:
                session.txn.tables_read.add((database_name, table.name.lower()))
            session.note_table_access(database_name, table.name, table.temporary)
            return rows, [(binding, [c.lower() for c in table.column_names])]
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
            return self._build_join(session, source, snapshot, dirty,
                                    outer_ctx, where=where)
        raise TypeError_(f"unsupported FROM clause {type(source).__name__}")

    def _build_join(self, session, join: ast.Join, snapshot, dirty, outer_ctx,
                    where=None):
        # WHERE conjuncts push through joins: a conjunct binding one side's
        # columns restricts only rows the full predicate would reject
        # anyway (null-extended LEFT JOIN rows fail the conjunct too).
        left_rows, left_columns = self._build_source(
            session, join.left, snapshot, dirty, outer_ctx, where=where)
        right_rows, right_columns = self._build_source(
            session, join.right, snapshot, dirty, outer_ctx, where=where)
        combined: List[Dict[str, Dict]] = []
        for left in left_rows:
            matched = False
            for right in right_rows:
                bindings = {**left, **right}
                if join.condition is not None:
                    ctx = outer_ctx.child(bindings)
                    if not is_true(evaluate(join.condition, ctx)):
                        continue
                matched = True
                combined.append(bindings)
            if join.kind == "LEFT" and not matched:
                null_right: Dict[str, Dict] = {}
                for binding, columns in right_columns:
                    null_right[binding] = {c: None for c in columns}
                combined.append({**left, **null_right})
        return combined, left_columns + right_columns

    def _plain_output(self, session, statement, source_rows, source_columns,
                      outer_ctx):
        columns = self._output_column_names(statement, source_columns)
        rows = []
        for bindings in source_rows:
            ctx = outer_ctx.child(bindings)
            row = []
            for expr, _alias in statement.columns:
                if isinstance(expr, ast.Star):
                    row.extend(self._expand_star(expr, bindings, source_columns))
                else:
                    row.append(evaluate(expr, ctx))
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

    def _grouped_output(self, session, statement, source_rows, outer_ctx):
        groups: Dict[tuple, List[Dict]] = {}
        order: List[tuple] = []
        if statement.group_by:
            for bindings in source_rows:
                ctx = outer_ctx.child(bindings)
                key = tuple(
                    sort_key(evaluate(expr, ctx)) for expr in statement.group_by)
                if key not in groups:
                    groups[key] = []
                    order.append(key)
                groups[key].append(bindings)
        else:
            # implicit single group (aggregate without GROUP BY)
            groups[()] = list(source_rows)
            order.append(())

        columns = self._output_column_names(statement, [])
        rows = []
        for key in order:
            group_rows = groups[key]
            if statement.having is not None:
                value = self._eval_aggregate_expr(
                    statement.having, group_rows, outer_ctx)
                if not is_true(value):
                    continue
            row = []
            for expr, _alias in statement.columns:
                if isinstance(expr, ast.Star):
                    raise TypeError_("'*' not allowed with GROUP BY")
                row.append(self._eval_aggregate_expr(expr, group_rows, outer_ctx))
            rows.append(tuple(row))
        return rows, columns

    def _eval_aggregate_expr(self, expr, group_rows, outer_ctx):
        """Evaluate an expression that may contain aggregate calls, over a
        group of rows.  Non-aggregate parts are evaluated on the first row
        of the group (they should be group-by expressions)."""
        if isinstance(expr, ast.FunctionCall) and expr.name in AGGREGATE_FUNCTIONS:
            return self._compute_aggregate(expr, group_rows, outer_ctx)
        if isinstance(expr, ast.BinaryOp):
            left = self._eval_aggregate_expr(expr.left, group_rows, outer_ctx)
            right = self._eval_aggregate_expr(expr.right, group_rows, outer_ctx)
            clone = ast.BinaryOp(expr.op, ast.Literal(left), ast.Literal(right))
            return evaluate(clone, outer_ctx.child(group_rows[0] if group_rows else {}))
        if isinstance(expr, ast.UnaryOp):
            operand = self._eval_aggregate_expr(expr.operand, group_rows, outer_ctx)
            clone = ast.UnaryOp(expr.op, ast.Literal(operand))
            return evaluate(clone, outer_ctx.child(group_rows[0] if group_rows else {}))
        if not group_rows:
            return None
        return evaluate(expr, outer_ctx.child(group_rows[0]))

    def _compute_aggregate(self, call: ast.FunctionCall, group_rows, outer_ctx):
        name = call.name
        if name == "COUNT" and (not call.args or isinstance(call.args[0], ast.Star)):
            return len(group_rows)
        if not call.args:
            raise TypeError_(f"{name}() needs an argument")
        values = []
        for bindings in group_rows:
            ctx = outer_ctx.child(bindings)
            value = evaluate(call.args[0], ctx)
            if value is not None:
                values.append(value)
        if call.distinct:
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
        if name == "SUM":
            return sum(values)
        if name == "AVG":
            return sum(values) / len(values)
        if name == "MIN":
            return min(values, key=sort_key)
        if name == "MAX":
            return max(values, key=sort_key)
        raise TypeError_(f"unknown aggregate {name}")

    def _order_rows(self, statement, rows, columns, row_bindings, outer_ctx):
        """Sort output rows.  When source bindings are available (plain
        queries), ORDER BY expressions may reference source columns that
        were not projected; otherwise they resolve against the output."""
        lowered = [c.lower() for c in columns]
        indexed = list(range(len(rows)))

        def value_for(index, expr):
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
                ctx = outer_ctx.child(row_bindings[index])
                try:
                    return evaluate(expr, ctx)
                except SQLError:
                    pass
            bindings = {"__out__": dict(zip(lowered, row))}
            ctx = outer_ctx.child(bindings)
            try:
                return evaluate(expr, ctx)
            except SQLError:
                return None

        # Stable multi-key sort: apply keys from last to first.
        for expr, ascending in reversed(statement.order_by):
            indexed = sorted(
                indexed,
                key=lambda i: sort_key(value_for(i, expr)),
                reverse=not ascending,
            )
        return [rows[i] for i in indexed]

    def _apply_limit(self, statement, rows, outer_ctx):
        offset = 0
        if statement.offset is not None:
            offset = int(evaluate(statement.offset, outer_ctx))
        if statement.limit is not None:
            limit = int(evaluate(statement.limit, outer_ctx))
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
                          variables=variables or {})
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
            value = int(evaluate(call.args[1], ctx))
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
        ctx = EvalContext(self, session, params=params, variables=variables or {})

        if statement.select is not None:
            select_result = self._run_select(session, statement.select, ctx)
            value_rows = [list(row) for row in select_result.rows]
        else:
            value_rows = [
                [evaluate(expr, ctx) for expr in row]
                for row in statement.rows
            ]

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
        ctx = EvalContext(self, session)
        lastrowid = None
        # defaults + auto increment (auto counters survive rollback: 4.2.3)
        for column in table.columns:
            key = column.name.lower()
            if row.get(key) is None:
                if column.auto_increment:
                    row[key] = table.next_auto_value(key)
                    lastrowid = row[key]
                    if txn is not None:
                        txn.auto_increment_effects.append(
                            (database_name, table.name, row[key]))
                elif column.default is not None and key not in row:
                    row[key] = evaluate(column.default, ctx)
            elif column.auto_increment and row.get(key) is not None:
                table.bump_auto_value(key, int(row[key]))
                lastrowid = row[key]

        full_row = table.coerce_row(row)
        table.check_not_null(full_row)
        self._check_unique(session, database_name, table, full_row,
                           exclude_row_id=None)

        self._fire_triggers(session, database_name, table, "INSERT",
                            timing="BEFORE", old=None, new=full_row)

        txn_id = txn.id if txn is not None else 0
        version = table.insert_version(full_row, txn_id)
        table.last_inserted_id = lastrowid
        if txn is not None:
            txn.note_created(table, version)
            if not table.temporary:
                txn.tables_written.add((database_name, table.name.lower()))
                txn.writeset.add(WritesetEntry(
                    database_name, table.name.lower(), "INSERT",
                    self._primary_key_of(table, full_row), None,
                    dict(full_row), version.row_id))

        self._fire_triggers(session, database_name, table, "INSERT",
                            timing="AFTER", old=None, new=full_row)
        return lastrowid

    def _primary_key_of(self, table: Table, row: Dict[str, Any]):
        pk_columns = table.primary_key_columns
        if not pk_columns:
            return None
        return tuple(row.get(c.name.lower()) for c in pk_columns)

    def _check_unique(self, session, database_name: str, table: Table,
                      row: Dict[str, Any], exclude_row_id: Optional[int]) -> None:
        txn = session.txn
        txn_id = txn.id if txn is not None else 0
        snapshot = self.engine.clock.snapshot()
        for columns in table.unique_column_sets():
            key = tuple(row.get(c) for c in columns)
            if any(v is None for v in key):
                continue
            for candidate in table.unique_candidates(columns, key):
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
                from .mvcc import version_visible
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
        ctx = EvalContext(self, session, params=params, variables=variables or {})
        txn = session.txn
        txn_id = txn.id if txn is not None else 0
        snapshot = self._read_snapshot(session)
        binding = statement.table.name.lower()

        targets = self._matching_versions(
            session, table, binding, statement.where, snapshot, ctx)

        updated = 0
        for version in targets:
            self._check_write_conflict(session, database_name, table, version)
            old_values = dict(version.values)
            bindings = {binding: old_values}
            row_ctx = ctx.with_bindings(bindings)
            new_values = dict(old_values)
            for column_name, expr in statement.assignments:
                column = table.column(column_name)
                new_values[column.name.lower()] = coerce(
                    evaluate(expr, row_ctx), column.type)
            table.check_not_null(new_values)
            self._check_unique(session, database_name, table, new_values,
                               exclude_row_id=version.row_id)

            self._fire_triggers(session, database_name, table, "UPDATE",
                                timing="BEFORE", old=old_values, new=new_values)

            version.deleter_txn = txn_id
            new_version = table.insert_version(
                new_values, txn_id, row_id=version.row_id)
            if txn is not None:
                txn.note_deleted(version)
                txn.note_created(table, new_version)
                if not table.temporary:
                    txn.tables_written.add((database_name, table.name.lower()))
                    txn.writeset.add(WritesetEntry(
                        database_name, table.name.lower(), "UPDATE",
                        self._primary_key_of(table, old_values),
                        old_values, dict(new_values), version.row_id))
            else:
                # autocommit single statement: stamp immediately
                self._stamp_autocommit(version, new_version)

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
        ctx = EvalContext(self, session, params=params, variables=variables or {})
        txn = session.txn
        txn_id = txn.id if txn is not None else 0
        snapshot = self._read_snapshot(session)
        binding = statement.table.name.lower()

        targets = self._matching_versions(
            session, table, binding, statement.where, snapshot, ctx)

        deleted = 0
        for version in targets:
            self._check_write_conflict(session, database_name, table, version)
            old_values = dict(version.values)
            self._fire_triggers(session, database_name, table, "DELETE",
                                timing="BEFORE", old=old_values, new=None)
            version.deleter_txn = txn_id
            if txn is not None:
                txn.note_deleted(version)
                if not table.temporary:
                    txn.tables_written.add((database_name, table.name.lower()))
                    txn.writeset.add(WritesetEntry(
                        database_name, table.name.lower(), "DELETE",
                        self._primary_key_of(table, old_values),
                        old_values, None, version.row_id))
            else:
                version.deleted_ts = self.engine.clock.tick()
            self._fire_triggers(session, database_name, table, "DELETE",
                                timing="AFTER", old=old_values, new=None)
            deleted += 1
        return Result(rowcount=deleted)

    def _stamp_autocommit(self, old_version: Optional[RowVersion],
                          new_version: Optional[RowVersion]) -> None:
        ts = self.engine.clock.tick()
        if old_version is not None:
            old_version.deleted_ts = ts
        if new_version is not None:
            new_version.created_ts = ts

    def _matching_versions(self, session, table: Table, binding: str,
                           where, snapshot, ctx) -> List[RowVersion]:
        candidates = self._table_versions(
            session, table, binding, where, snapshot, ctx)
        matches = []
        for version in candidates:
            if where is not None:
                row_ctx = ctx.with_bindings({binding: dict(version.values)})
                if not is_true(evaluate(where, row_ctx)):
                    continue
            matches.append(version)
        return matches

    def _check_write_conflict(self, session, database_name: str,
                              table: Table, version: RowVersion) -> None:
        """Write-write conflict detection.

        * another in-flight writer on the row chain -> LockConflict
          (wait or die, the caller decides using should_die);
        * under snapshot-class isolation, a *committed* change newer than
          our snapshot -> first-updater-wins serialization failure.
        """
        from .errors import SerializationError

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
            session.default_isolation = statement.value
            if session.txn is not None and session.txn.is_active \
                    and session.txn.writeset.is_empty():
                session.txn.isolation = session.normalize_isolation(
                    statement.value)
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
                          variables=variables or {})
        args = [evaluate(arg, ctx) for arg in statement.args]
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


def _output_name(index: int, expr, alias: Optional[str]) -> str:
    """The result-column name of one non-``*`` select-list item."""
    if alias:
        return alias
    if isinstance(expr, (ast.ColumnRef, ast.FunctionCall)):
        return expr.name.lower()
    return f"col{index}"


def _contains_aggregate(expr) -> bool:
    if isinstance(expr, ast.FunctionCall):
        if expr.name in AGGREGATE_FUNCTIONS:
            return True
        return any(_contains_aggregate(arg) for arg in expr.args)
    if isinstance(expr, ast.BinaryOp):
        return _contains_aggregate(expr.left) or _contains_aggregate(expr.right)
    if isinstance(expr, ast.UnaryOp):
        return _contains_aggregate(expr.operand)
    if isinstance(expr, ast.Case):
        for condition, result in expr.whens:
            if _contains_aggregate(condition) or _contains_aggregate(result):
                return True
        return expr.default is not None and _contains_aggregate(expr.default)
    if isinstance(expr, (ast.InList,)):
        if _contains_aggregate(expr.expr):
            return True
        return any(_contains_aggregate(i) for i in expr.items or [])
    if isinstance(expr, ast.Between):
        return any(_contains_aggregate(e) for e in (expr.expr, expr.low, expr.high))
    if isinstance(expr, ast.IsNull):
        return _contains_aggregate(expr.expr)
    if isinstance(expr, ast.Like):
        return _contains_aggregate(expr.expr) or _contains_aggregate(expr.pattern)
    return False
