"""Scatter-gather planning and merge for cross-shard reads.

A statement that cannot be pinned to one shard executes on every target
group and the partial results are merged at the middleware.  Most merges
are mechanical (concatenate, sum rowcounts); the interesting cases are
the ones the paper's section 5.1 files under "intra-query parallelism":

* aggregates — COUNT/SUM/MIN/MAX merge directly; AVG is *not*
  decomposable, so the scattered statement is rewritten to ship
  SUM + COUNT per shard and the coordinator computes the weighted
  average (the classic two-step aggregation rewrite);
* GROUP BY — partial groups are re-grouped by the grouping columns and
  their aggregates merged per group;
* ORDER BY — each shard returns locally sorted rows; the union is
  re-sorted on the output columns at the coordinator;
* LIMIT/OFFSET — each shard is asked for the first ``limit + offset``
  rows (a shard cannot know which of its rows survive the global sort),
  and the coordinator re-applies OFFSET and LIMIT after the re-sort.

:func:`plan_scatter` builds a :class:`ScatterPlan` — the (possibly
rewritten) statement to run per shard plus the merge function — and
raises :class:`~repro.core.errors.UnsupportedStatementError` for shapes
that cannot be merged correctly (DISTINCT aggregates, HAVING,
expression-valued LIMIT without bound parameters): a wrong answer is
worse than an explicit limitation.  A plan holds no bound value in
its per-shard statement unless an OFFSET is scattered, so the router
keeps one per statement (:attr:`ScatterPlan.reusable`,
:meth:`ScatterPlan.bind`) and a rewritten statement is the same tree on
every execution.

This module imports no middleware: a plan is a statement, a text and a
merge function, testable against bare results.
"""

from __future__ import annotations

from copy import copy
from typing import Any, List, Optional, Sequence, Tuple

from ..core.errors import UnsupportedStatementError
from ..core.keyplan import literal_value
from ..sqlengine import ast_nodes as ast
from ..sqlengine.executor import Result
from ..sqlengine.expressions import sort_key

MERGEABLE_AGGREGATES = ("COUNT", "SUM", "MIN", "MAX", "AVG")


def _is_aggregate(expr) -> bool:
    return (isinstance(expr, ast.FunctionCall)
            and expr.name in MERGEABLE_AGGREGATES)


class _AggColumn:
    """One output column that is a mergeable aggregate.  ``count_index``
    points at the companion COUNT column appended for AVG."""

    __slots__ = ("index", "func", "count_index")

    def __init__(self, index: int, func: str,
                 count_index: Optional[int] = None):
        self.index = index
        self.func = func
        self.count_index = count_index


class ScatterPlan:
    """How to execute one statement on every target shard and merge the
    partial results into the client-visible answer."""

    __slots__ = ("statement", "sql_text", "rewritten", "mode", "_aggs",
                 "_group_indices", "_order_by", "_limit_expr", "_limit",
                 "_offset", "_distinct", "_arity", "_order_hidden")

    def __init__(self, statement, sql_text: str, mode: str,
                 rewritten: bool = False,
                 aggs: Optional[List[_AggColumn]] = None,
                 group_indices: Optional[List[int]] = None,
                 order_by=None, limit_expr=None, limit: Optional[int] = None,
                 offset: Optional[int] = None, distinct: bool = False,
                 arity: Optional[int] = None,
                 order_hidden: Optional[dict] = None):
        self.statement = statement
        self.sql_text = sql_text
        self.mode = mode          # rows | aggregate | grouped | write
        self.rewritten = rewritten
        self._aggs = aggs or []
        self._group_indices = group_indices or []
        self._order_by = order_by or []
        # the client statement's LIMIT node, re-read by bind()
        self._limit_expr = limit_expr
        self._limit = limit
        self._offset = offset
        self._distinct = distinct
        self._arity = arity
        # ORDER BY column name -> appended hidden-column index, for sort
        # keys that are not part of the client-visible select list
        self._order_hidden = order_hidden or {}

    # -- reuse across executions ----------------------------------------

    @property
    def reusable(self) -> bool:
        """Whether this plan serves every execution of its statement,
        through :meth:`bind`.  Not when the statement has an OFFSET: the
        per-shard statement then carries ``LIMIT + OFFSET`` as a literal,
        and whether it is rewritten at all depends on the offset's
        value — such a plan is built per execution."""
        return self._offset is None

    def bind(self, params: Sequence[Any]) -> "ScatterPlan":
        """This (reusable) plan for an execution with ``params``: the
        same per-shard statement and text, and the LIMIT value of this
        execution, checked as :func:`plan_scatter` checks it."""
        if self._limit_expr is None:
            return self
        limit = _row_count(self._limit_expr, params, "a LIMIT")
        if limit == self._limit:
            return self
        plan = copy(self)
        plan._limit = limit
        return plan

    # ------------------------------------------------------------------

    def merge(self, results: List[Result]) -> Result:
        if not results:
            return Result()
        if self.mode == "write":
            return Result(rowcount=sum(r.rowcount for r in results))
        if self.mode == "aggregate":
            return self._merge_aggregate(results)
        if self.mode == "grouped":
            return self._merge_grouped(results)
        return self._merge_rows(results)

    # -- plain row union ------------------------------------------------

    def _merge_rows(self, results: List[Result]) -> Result:
        rows: List[tuple] = []
        rowcount = 0
        for result in results:
            rows.extend(result.rows)
            rowcount += result.rowcount
        if self._distinct:
            seen = set()
            unique = []
            for row in rows:
                if row not in seen:
                    seen.add(row)
                    unique.append(row)
            rows = unique
        rows = self._resorted(rows, results[0].columns)
        rows = self._sliced(rows)
        columns = results[0].columns
        if self._order_hidden and self._arity is not None:
            # project the hidden sort-key columns back out
            rows = [row[:self._arity] for row in rows]
            columns = columns[:self._arity]
        return Result(columns=columns, rows=rows, rowcount=len(rows))

    def _resorted(self, rows: List[tuple],
                  columns: List[str]) -> List[tuple]:
        """Re-sort the union on ORDER BY output columns (stable, applied
        minor-key-first so major keys win).  Sort keys outside the select
        list ride along as appended hidden columns."""
        if not self._order_by:
            return rows
        lowered = [c.lower() for c in columns]
        for expr, ascending in reversed(self._order_by):
            if not isinstance(expr, ast.ColumnRef):
                continue
            name = expr.name.lower()
            if name in lowered:
                index = lowered.index(name)
            elif name in self._order_hidden:
                index = self._order_hidden[name]
            else:
                continue
            rows = sorted(rows, key=lambda r: sort_key(r[index]),
                          reverse=not ascending)
        return rows

    def _sliced(self, rows: List[tuple]) -> List[tuple]:
        if self._offset:
            rows = rows[self._offset:]
        if self._limit is not None:
            rows = rows[:self._limit]
        return rows

    # -- single-row aggregates ------------------------------------------

    def _merge_aggregate(self, results: List[Result]) -> Result:
        partials = [r.rows[0] for r in results if r.rows]
        merged = tuple(self._merge_agg_value(agg, partials)
                       for agg in self._aggs)
        columns = results[0].columns[:self._arity]
        return Result(columns=columns, rows=[merged], rowcount=1)

    @staticmethod
    def _merge_agg_value(agg: _AggColumn, partials: List[tuple]) -> Any:
        values = [row[agg.index] for row in partials]
        values = [v for v in values if v is not None]
        if agg.func == "COUNT":
            return sum(values) if values else 0
        if agg.func == "SUM":
            return sum(values) if values else None
        if agg.func == "MIN":
            return min(values) if values else None
        if agg.func == "MAX":
            return max(values) if values else None
        # AVG: weighted by the companion per-shard COUNT column
        total = 0
        count = 0
        for row in partials:
            shard_count = row[agg.count_index]
            if shard_count:
                total += row[agg.index] if row[agg.index] is not None else 0
                count += shard_count
        return total / count if count else None

    # -- GROUP BY regrouping --------------------------------------------

    def _merge_grouped(self, results: List[Result]) -> Result:
        groups = {}
        order: List[tuple] = []
        for result in results:
            for row in result.rows:
                key = tuple(sort_key(row[i]) for i in self._group_indices)
                bucket = groups.get(key)
                if bucket is None:
                    groups[key] = [row]
                    order.append(key)
                else:
                    bucket.append(row)
        agg_by_index = {agg.index: agg for agg in self._aggs}
        rows = []
        for key in order:
            bucket = groups[key]
            merged = []
            for index in range(self._arity):
                agg = agg_by_index.get(index)
                if agg is None:
                    merged.append(bucket[0][index])   # grouping column
                else:
                    merged.append(self._merge_agg_value(agg, bucket))
            rows.append(tuple(merged))
        columns = results[0].columns[:self._arity]
        rows = self._resorted(rows, columns)
        rows = self._sliced(rows)
        return Result(columns=columns, rows=rows, rowcount=len(rows))


# ---------------------------------------------------------------------------
# planning
# ---------------------------------------------------------------------------

def plan_scatter(statement: ast.Statement, sql_text: str,
                 params: Optional[Sequence[Any]] = None) -> ScatterPlan:
    """Build the scatter plan for ``statement``.

    Raises :class:`UnsupportedStatementError` when the partials cannot be
    merged into a correct global answer.
    """
    params = params or []
    if not isinstance(statement, ast.SelectStatement):
        return ScatterPlan(statement, sql_text, "write")

    has_aggregate = any(_is_aggregate(expr)
                        for expr, _alias in statement.columns)
    if not has_aggregate and not statement.group_by:
        return _plan_row_scatter(statement, sql_text, params)
    return _plan_aggregate_scatter(statement, sql_text, params,
                                   has_aggregate)


def _limit_offset(statement: ast.SelectStatement,
                  params: Sequence[Any]) -> Tuple[Optional[int],
                                                  Optional[int]]:
    limit = offset = None
    if statement.limit is not None:
        limit = _row_count(statement.limit, params, "a LIMIT")
    if statement.offset is not None:
        offset = _row_count(statement.offset, params, "an OFFSET")
    return limit, offset


def _row_count(expr, params: Sequence[Any], clause: str) -> int:
    value = literal_value(expr, params)
    if not isinstance(value, int) or value < 0:
        raise UnsupportedStatementError(
            f"cannot scatter {clause} whose value is not a bound "
            "non-negative integer")
    return value


def _shard_select(statement: ast.SelectStatement, columns,
                  limit: Optional[int],
                  offset: Optional[int]) -> ast.SelectStatement:
    """The per-shard variant: possibly rewritten columns, and LIMIT
    widened to ``limit + offset`` rows with OFFSET dropped (a shard
    cannot know which of its rows the global sort will skip)."""
    shard_limit = statement.limit
    if offset is not None and limit is not None:
        shard_limit = ast.Literal(limit + offset)
    return ast.SelectStatement(
        columns=columns, source=statement.source, where=statement.where,
        group_by=list(statement.group_by), having=statement.having,
        order_by=list(statement.order_by), limit=shard_limit,
        offset=None if offset is not None else statement.offset,
        distinct=statement.distinct, for_update=statement.for_update)


def _plan_row_scatter(statement: ast.SelectStatement, sql_text: str,
                      params: Sequence[Any]) -> ScatterPlan:
    limit, offset = _limit_offset(statement, params)
    visible = set()
    has_star = False
    for expr, alias in statement.columns:
        if isinstance(expr, ast.Star):
            has_star = True
        if alias:
            visible.add(alias.lower())
        elif isinstance(expr, ast.ColumnRef):
            visible.add(expr.name.lower())
    # a sort key outside the select list must ride along per shard as a
    # hidden column, or the coordinator cannot re-sort the union
    missing: List[str] = []
    if not has_star:
        for expr, _ascending in statement.order_by:
            if isinstance(expr, ast.ColumnRef) \
                    and expr.name.lower() not in visible \
                    and expr.name.lower() not in missing:
                missing.append(expr.name.lower())
    order_hidden = {}
    extra_columns: List[tuple] = []
    if missing:
        if statement.distinct:
            raise UnsupportedStatementError(
                "cannot scatter SELECT DISTINCT ordered by a column "
                "outside the select list (the hidden sort key would "
                "change what DISTINCT deduplicates)")
        arity = len(statement.columns)
        for index, name in enumerate(missing):
            order_hidden[name] = arity + index
            extra_columns.append(
                (ast.ColumnRef(name), f"__scatter_order_{index}"))
    rewritten = bool(extra_columns) or bool(offset)
    if rewritten:
        shard_statement = _shard_select(
            statement, list(statement.columns) + extra_columns, limit,
            offset)
    else:
        shard_statement = statement
    text = sql_text + " /*scatter:wide*/" if rewritten else sql_text
    return ScatterPlan(shard_statement, text, "rows", rewritten=rewritten,
                       order_by=statement.order_by,
                       limit_expr=statement.limit, limit=limit,
                       offset=offset, distinct=statement.distinct,
                       arity=len(statement.columns),
                       order_hidden=order_hidden)


def _plan_aggregate_scatter(statement: ast.SelectStatement, sql_text: str,
                            params: Sequence[Any],
                            has_aggregate: bool) -> ScatterPlan:
    if statement.having is not None:
        raise UnsupportedStatementError(
            "cannot scatter HAVING: shard-local groups are partial, so a "
            "local HAVING filter would discard rows the merged group needs")
    if statement.distinct:
        raise UnsupportedStatementError(
            "cannot scatter SELECT DISTINCT with aggregates")
    group_names = []
    for expr in statement.group_by:
        if not isinstance(expr, ast.ColumnRef):
            raise UnsupportedStatementError(
                "cannot scatter GROUP BY on a non-column expression")
        group_names.append(expr.name.lower())

    arity = len(statement.columns)
    aggs: List[_AggColumn] = []
    group_indices: List[int] = []
    new_columns: List[tuple] = []
    extra_columns: List[tuple] = []
    for index, (expr, alias) in enumerate(statement.columns):
        if _is_aggregate(expr):
            if expr.distinct:
                raise UnsupportedStatementError(
                    f"cannot merge {expr.name}(DISTINCT ...) across "
                    "shards: shard-local distinct sets may overlap")
            if expr.name == "AVG":
                # two-step aggregation: ship SUM + COUNT, divide at the
                # coordinator.  The alias pins the original column name.
                label = alias or "avg"
                new_columns.append(
                    (ast.FunctionCall("SUM", expr.args), label))
                count_index = arity + len(extra_columns)
                extra_columns.append(
                    (ast.FunctionCall("COUNT", expr.args),
                     f"__scatter_count_{index}"))
                aggs.append(_AggColumn(index, "AVG", count_index))
            else:
                new_columns.append((expr, alias))
                aggs.append(_AggColumn(index, expr.name))
        elif isinstance(expr, ast.ColumnRef) \
                and expr.name.lower() in group_names:
            new_columns.append((expr, alias))
            group_indices.append(index)
        else:
            raise UnsupportedStatementError(
                "cannot scatter a select mixing aggregates with "
                "non-grouped columns")

    rewritten = bool(extra_columns)
    limit, offset = _limit_offset(statement, params)
    if statement.group_by:
        mode = "grouped"
        if len(group_indices) != len(group_names):
            raise UnsupportedStatementError(
                "cannot scatter GROUP BY unless every grouping column "
                "appears in the select list (regrouping needs the keys)")
        # A shard-local LIMIT could drop a partial group whose merged
        # total belongs in the answer, so shards always return every
        # group; OFFSET/LIMIT are applied after the regroup + re-sort.
        needs_shard_rewrite = rewritten or limit is not None \
            or offset is not None
        if needs_shard_rewrite:
            rewritten = True
            shard_statement = ast.SelectStatement(
                columns=new_columns + extra_columns,
                source=statement.source, where=statement.where,
                group_by=list(statement.group_by),
                order_by=list(statement.order_by))
        else:
            shard_statement = statement
    else:
        mode = "aggregate"
        shard_statement = statement
        if rewritten:
            shard_statement = ast.SelectStatement(
                columns=new_columns + extra_columns,
                source=statement.source, where=statement.where)
    text = sql_text + " /*scatter:avg*/" if rewritten else sql_text
    return ScatterPlan(shard_statement, text, mode, rewritten=rewritten,
                       aggs=aggs, group_indices=group_indices,
                       order_by=statement.order_by,
                       limit_expr=statement.limit, limit=limit,
                       offset=offset, arity=arity)
