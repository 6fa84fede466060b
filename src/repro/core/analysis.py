"""Statement analysis for the replication middleware.

Statement-based replication lives and dies by what the middleware can
learn "through simple query parsing" (paper section 4.3.2).  This module
is that analysis: read/write classification, accessed tables, detection of
the non-determinism hazards the paper enumerates (time macros, RAND,
LIMIT without ORDER BY feeding an update), and rewriting of the rewritable
ones (``NOW()`` -> a constant chosen once by the middleware).

The resulting :class:`StatementInfo` is the routing currency of the
whole request path: the load balancer consumes its table set (section
3.2's memory-aware policies), the certifier derives conflict footprints
from it (section 3.3), the result cache decides cacheability on its
determinism verdict (section 4.1 gaps), and the tracer's
``balancer.choose``/``mw.statement`` spans tag their decisions with what
was parsed here — so a trace shows not just *where* a statement went but
*why* the analysis sent it there.
"""

from __future__ import annotations

import copy
from typing import List, Optional, Set, Tuple

from ..sqlengine import ast_nodes as ast
from ..sqlengine.functions import NONDETERMINISTIC_FUNCTIONS
from ..sqlengine.stmtcache import Memo

# Functions a middleware can safely replace with a single value computed
# once (same value for every row and replica).
_REWRITABLE = frozenset({
    "NOW", "CURRENT_TIMESTAMP", "CURRENT_TIME", "CURRENT_DATE",
})
# Functions that are per-row non-deterministic: substituting one constant
# changes the semantics ("UPDATE t SET x=rand()", section 4.3.2).
_UNSAFE = frozenset({"RAND", "RANDOM", "UUID"})


class StatementInfo:
    """Everything the middleware needs to route one statement.
    ``is_read_only`` (neither a write nor DDL) is settled when
    :func:`analyze` returns."""

    __slots__ = (
        "statement", "is_write", "is_ddl", "is_read_only",
        "tables_read", "tables_written",
        "nondeterministic_calls", "rewritable_calls", "unsafe_calls",
        "limit_without_order_in_write", "is_procedure_call",
        "creates_temp_table", "touches_temp_names", "databases",
        "_sorted_tables",
    )

    def __init__(self, statement: ast.Statement):
        self.statement = statement
        self.is_write = False
        self.is_ddl = False
        self.is_read_only = True
        self.tables_read: Set[str] = set()
        self.tables_written: Set[str] = set()
        self.nondeterministic_calls: List[str] = []
        self.rewritable_calls: List[str] = []
        self.unsafe_calls: List[str] = []
        self.limit_without_order_in_write = False
        self.is_procedure_call = False
        self.creates_temp_table = False
        self.touches_temp_names: Set[str] = set()
        self.databases: Set[str] = set()
        self._sorted_tables: Optional[List[str]] = None

    @property
    def is_deterministic(self) -> bool:
        return not self.nondeterministic_calls

    @property
    def safe_for_statement_replication(self) -> bool:
        """Deterministic after rewriting — i.e. broadcastable."""
        return (not self.unsafe_calls
                and not self.limit_without_order_in_write
                and not self.is_procedure_call)

    @property
    def spans_multiple_databases(self) -> bool:
        return len(self.databases) > 1

    def all_tables(self) -> Set[str]:
        return self.tables_read | self.tables_written

    def sorted_tables(self) -> List[str]:
        """Sorted table list, cached — infos live in analysis caches and
        are consulted once per routed read, so sorting every time shows
        up in the million-session profile."""
        tables = self._sorted_tables
        if tables is None:
            tables = self._sorted_tables = sorted(self.all_tables())
        return tables


def analyze(statement: ast.Statement) -> StatementInfo:
    """Classify ``statement`` (see :class:`StatementInfo`)."""
    info = StatementInfo(statement)
    if isinstance(statement, ast.SelectStatement):
        _walk_select(statement, info, in_write=False)
        if statement.for_update:
            info.is_write = True
    elif isinstance(statement, ast.InsertStatement):
        info.is_write = True
        _note_table(info, statement.table, write=True)
        for row in statement.rows or []:
            for expr in row:
                _walk_expr(expr, info, in_write=True)
        if statement.select is not None:
            _walk_select(statement.select, info, in_write=True)
    elif isinstance(statement, ast.UpdateStatement):
        info.is_write = True
        _note_table(info, statement.table, write=True)
        for _column, expr in statement.assignments:
            _walk_expr(expr, info, in_write=True)
        _walk_expr(statement.where, info, in_write=True)
    elif isinstance(statement, ast.DeleteStatement):
        info.is_write = True
        _note_table(info, statement.table, write=True)
        _walk_expr(statement.where, info, in_write=True)
    elif isinstance(statement, ast.CallStatement):
        info.is_write = True          # must assume the worst (4.2.1)
        info.is_procedure_call = True
    elif isinstance(statement, ast.CreateTableStatement):
        info.is_ddl = True
        if statement.temporary:
            info.creates_temp_table = True
            info.touches_temp_names.add(statement.table.name.lower())
        else:
            _note_table(info, statement.table, write=True)
    elif isinstance(statement, (ast.CreateDatabaseStatement,
                                ast.CreateSchemaStatement,
                                ast.CreateIndexStatement,
                                ast.CreateSequenceStatement,
                                ast.CreateTriggerStatement,
                                ast.CreateProcedureStatement,
                                ast.CreateUserStatement,
                                ast.DropStatement,
                                ast.AlterTableStatement,
                                ast.GrantStatement,
                                ast.RevokeStatement)):
        info.is_ddl = True
    elif isinstance(statement, ast.ExplainStatement):
        # EXPLAIN never executes its inner statement: it is a read that
        # *references* the inner statement's tables (the planner needs
        # their schema), whatever the inner statement would have done.
        inner = analyze(statement.statement)
        info.tables_read |= inner.tables_read | inner.tables_written
        info.databases |= inner.databases
        info.touches_temp_names |= inner.touches_temp_names
    elif isinstance(statement, (ast.SetStatement, ast.UseStatement,
                                ast.BeginStatement, ast.CommitStatement,
                                ast.RollbackStatement,
                                ast.LockTableStatement)):
        pass
    else:
        info.is_write = True  # unknown statements are treated as writes
    info.is_read_only = not info.is_write and not info.is_ddl
    return info


# -- memoized analysis ------------------------------------------------------

#: statement identity -> :class:`StatementInfo`, for the shared read-only
#: trees the statement caches hand out
analyses = Memo()


def analyze_cached(statement: ast.Statement) -> StatementInfo:
    """:func:`analyze` memoized by statement identity.

    The composed request path walks every statement at the shard router
    *and again* inside the chosen group's middleware; for the cached
    trees the statement cache hands out, the second walk is pure
    overhead.  Sound because shared trees are never mutated
    (``rewrite_nondeterministic`` returns a copy)."""
    info = analyses.get_for(statement)
    if info is None:
        info = analyze(statement)
        analyses.put_for(statement, info)
    return info


def _note_table(info: StatementInfo, name: ast.QualifiedName,
                write: bool) -> None:
    table_key = str(name).lower()
    if name.database:
        info.databases.add(name.database.lower())
    if write:
        info.tables_written.add(table_key)
    else:
        info.tables_read.add(table_key)


def _walk_select(select: ast.SelectStatement, info: StatementInfo,
                 in_write: bool) -> None:
    _walk_source(select.source, info, in_write)
    for expr, _alias in select.columns:
        _walk_expr(expr, info, in_write)
    _walk_expr(select.where, info, in_write)
    for expr in select.group_by:
        _walk_expr(expr, info, in_write)
    _walk_expr(select.having, info, in_write)
    for expr, _asc in select.order_by:
        _walk_expr(expr, info, in_write)
    if in_write and select.limit is not None and not select.order_by:
        # SELECT ... LIMIT without ORDER BY feeding a write — replicas may
        # pick different rows (section 4.3.2).
        info.limit_without_order_in_write = True


def _walk_source(source, info: StatementInfo, in_write: bool) -> None:
    if source is None:
        return
    if isinstance(source, ast.TableRef):
        _note_table(info, source.name, write=False)
    elif isinstance(source, ast.Join):
        _walk_source(source.left, info, in_write)
        _walk_source(source.right, info, in_write)
        _walk_expr(source.condition, info, in_write)
    elif isinstance(source, ast.SubquerySource):
        _walk_select(source.select, info, in_write)


def _walk_expr(expr, info: StatementInfo, in_write: bool) -> None:
    if expr is None or isinstance(expr, (ast.Literal, ast.ColumnRef,
                                         ast.Param, ast.Star)):
        return
    if isinstance(expr, ast.FunctionCall):
        if expr.name in NONDETERMINISTIC_FUNCTIONS:
            info.nondeterministic_calls.append(expr.name)
            if expr.name in _REWRITABLE:
                info.rewritable_calls.append(expr.name)
            elif expr.name in _UNSAFE and in_write:
                info.unsafe_calls.append(expr.name)
            elif expr.name == "NEXTVAL":
                # sequence advancement is replica-local state (4.2.3)
                if in_write:
                    info.unsafe_calls.append(expr.name)
        for arg in expr.args:
            _walk_expr(arg, info, in_write)
        return
    if isinstance(expr, ast.BinaryOp):
        _walk_expr(expr.left, info, in_write)
        _walk_expr(expr.right, info, in_write)
        return
    if isinstance(expr, ast.UnaryOp):
        _walk_expr(expr.operand, info, in_write)
        return
    if isinstance(expr, ast.InList):
        _walk_expr(expr.expr, info, in_write)
        for item in expr.items or []:
            _walk_expr(item, info, in_write)
        if expr.subquery is not None:
            _walk_select(expr.subquery, info, in_write)
        return
    if isinstance(expr, ast.Between):
        for sub in (expr.expr, expr.low, expr.high):
            _walk_expr(sub, info, in_write)
        return
    if isinstance(expr, ast.Like):
        _walk_expr(expr.expr, info, in_write)
        _walk_expr(expr.pattern, info, in_write)
        return
    if isinstance(expr, ast.IsNull):
        _walk_expr(expr.expr, info, in_write)
        return
    if isinstance(expr, ast.Case):
        for condition, result in expr.whens:
            _walk_expr(condition, info, in_write)
            _walk_expr(result, info, in_write)
        _walk_expr(expr.default, info, in_write)
        return
    if isinstance(expr, (ast.ScalarSubquery, ast.ExistsSubquery)):
        _walk_select(expr.select, info, in_write)


def _rebuilt(node, **fields):
    """``node`` itself when every field already holds the given value,
    else a shallow copy carrying the new ones."""
    changed = {name: value for name, value in fields.items()
               if value is not getattr(node, name)}
    if not changed:
        return node
    clone = copy.copy(node)
    for name, value in changed.items():
        setattr(clone, name, value)
    return clone


def _each(items, rewrite):
    """``items`` itself when ``rewrite`` changed none of them."""
    if not items:
        return items
    out = [rewrite(item) for item in items]
    if all(new is old for new, old in zip(out, items)):
        return items
    return out


def rewrite_nondeterministic(statement: ast.Statement,
                             now_value: float) -> Tuple[ast.Statement, int]:
    """Replace rewritable time macros with ``now_value`` in place of the
    function call (the middleware chose the value once, so every replica
    computes identical rows).  Returns (rewritten statement, replacements).

    ``statement`` is left untouched — parsed trees are shared through the
    statement cache, and a tree rewritten in place would freeze ``NOW()``
    at its first value.  The result copies only the spine above each
    replaced call and shares every other node with the input.
    """
    count = [0]

    def rewrite(expr):
        if isinstance(expr, ast.FunctionCall):
            if expr.name in _REWRITABLE:
                count[0] += 1
                return ast.Literal(now_value)
            return _rebuilt(expr, args=_each(expr.args, rewrite))
        if isinstance(expr, ast.BinaryOp):
            return _rebuilt(expr, left=rewrite(expr.left),
                            right=rewrite(expr.right))
        if isinstance(expr, ast.UnaryOp):
            return _rebuilt(expr, operand=rewrite(expr.operand))
        if isinstance(expr, ast.InList):
            subquery = expr.subquery
            if subquery is not None:
                subquery = rewrite_select(subquery)
            return _rebuilt(expr, expr=rewrite(expr.expr),
                            items=_each(expr.items, rewrite),
                            subquery=subquery)
        if isinstance(expr, ast.Between):
            return _rebuilt(expr, expr=rewrite(expr.expr),
                            low=rewrite(expr.low), high=rewrite(expr.high))
        if isinstance(expr, ast.Like):
            return _rebuilt(expr, expr=rewrite(expr.expr),
                            pattern=rewrite(expr.pattern))
        if isinstance(expr, ast.IsNull):
            return _rebuilt(expr, expr=rewrite(expr.expr))
        if isinstance(expr, ast.Case):
            return _rebuilt(expr, whens=_each(expr.whens, rewrite_pair),
                            default=rewrite(expr.default))
        if isinstance(expr, (ast.ScalarSubquery, ast.ExistsSubquery)):
            return _rebuilt(expr, select=rewrite_select(expr.select))
        return expr

    def rewrite_pair(pair):
        # (expr, alias) / (expr, ascending) / (condition, result) /
        # (column, expr): non-expression members pass through
        out = tuple(rewrite(member) if isinstance(member, ast.Expression)
                    else member for member in pair)
        if all(new is old for new, old in zip(out, pair)):
            return pair
        return out

    def rewrite_select(select: ast.SelectStatement) -> ast.SelectStatement:
        return _rebuilt(
            select,
            columns=_each(select.columns, rewrite_pair),
            source=rewrite_source(select.source),
            where=rewrite(select.where),
            group_by=_each(select.group_by, rewrite),
            having=rewrite(select.having),
            order_by=_each(select.order_by, rewrite_pair))

    def rewrite_source(source):
        if isinstance(source, ast.Join):
            return _rebuilt(source, left=rewrite_source(source.left),
                            right=rewrite_source(source.right),
                            condition=rewrite(source.condition))
        if isinstance(source, ast.SubquerySource):
            return _rebuilt(source, select=rewrite_select(source.select))
        return source

    if isinstance(statement, ast.SelectStatement):
        statement = rewrite_select(statement)
    elif isinstance(statement, ast.InsertStatement):
        select = statement.select
        if select is not None:
            select = rewrite_select(select)
        statement = _rebuilt(
            statement,
            rows=_each(statement.rows, lambda row: _each(row, rewrite)),
            select=select)
    elif isinstance(statement, ast.UpdateStatement):
        statement = _rebuilt(
            statement,
            assignments=_each(statement.assignments, rewrite_pair),
            where=rewrite(statement.where))
    elif isinstance(statement, ast.DeleteStatement):
        statement = _rebuilt(statement, where=rewrite(statement.where))
    return statement, count[0]
