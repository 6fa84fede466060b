"""AST node classes produced by the SQL parser.

Nodes are deliberately plain (``__slots__`` + ``repr``) — the engine walks
them directly, and the replication middleware inspects them to classify
statements (read vs write, deterministic vs not, which tables are touched).
"""

from __future__ import annotations

from typing import Any, List, Optional, Sequence, Tuple


class Node:
    __slots__ = ()

    def __repr__(self) -> str:
        fields = ", ".join(
            f"{slot}={getattr(self, slot)!r}"
            for slot in self.__slots__
        )
        return f"{type(self).__name__}({fields})"


# ---------------------------------------------------------------------------
# Names
# ---------------------------------------------------------------------------

class QualifiedName(Node):
    """A possibly database- and schema-qualified object name.

    ``parts`` is 1-3 identifiers: ``table``, ``db.table`` or
    ``db.schema.table``.  Multi-part names are what make *multi-database
    queries* (paper section 4.1.1) expressible.
    """

    __slots__ = ("parts", "name", "database", "schema")

    def __init__(self, parts: Sequence[str]):
        # a name never changes after parsing: its pieces are read as
        # plain attributes on every statement that resolves it
        self.parts = tuple(parts)
        self.name: str = self.parts[-1]
        self.database: Optional[str] = \
            self.parts[0] if len(self.parts) >= 2 else None
        self.schema: Optional[str] = \
            self.parts[1] if len(self.parts) == 3 else None

    def __repr__(self) -> str:
        return f"QualifiedName(parts={self.parts!r})"

    def __str__(self) -> str:
        return ".".join(self.parts)

    def __eq__(self, other: object) -> bool:
        return (
            isinstance(other, QualifiedName)
            and tuple(p.lower() for p in self.parts)
            == tuple(p.lower() for p in other.parts)
        )

    def __hash__(self) -> int:
        return hash(tuple(p.lower() for p in self.parts))


# ---------------------------------------------------------------------------
# Expressions
# ---------------------------------------------------------------------------

class Expression(Node):
    __slots__ = ()


class Literal(Expression):
    __slots__ = ("value",)

    def __init__(self, value: Any):
        self.value = value


class Star(Expression):
    """``*`` in a select list or ``COUNT(*)``."""

    __slots__ = ("table",)

    def __init__(self, table: Optional[str] = None):
        self.table = table


class ColumnRef(Expression):
    # ``name_lower``/``table_lower`` are precomputed so the evaluator's
    # per-row column resolution does no string work on the hot path.
    __slots__ = ("table", "name", "name_lower", "table_lower")

    def __init__(self, name: str, table: Optional[str] = None):
        self.table = table
        self.name = name
        self.name_lower = name.lower()
        self.table_lower = table.lower() if table is not None else None


class Param(Expression):
    """A ``?`` placeholder, bound positionally at execution time."""

    __slots__ = ("index",)

    def __init__(self, index: int):
        self.index = index


class BinaryOp(Expression):
    __slots__ = ("op", "left", "right")

    def __init__(self, op: str, left: Expression, right: Expression):
        self.op = op
        self.left = left
        self.right = right


class UnaryOp(Expression):
    __slots__ = ("op", "operand")

    def __init__(self, op: str, operand: Expression):
        self.op = op
        self.operand = operand


class FunctionCall(Expression):
    """Scalar or aggregate function call; aggregates are resolved by the
    executor (COUNT/SUM/AVG/MIN/MAX)."""

    __slots__ = ("name", "args", "distinct")

    def __init__(self, name: str, args: List[Expression], distinct: bool = False):
        self.name = name.upper()
        self.args = args
        self.distinct = distinct


class InList(Expression):
    __slots__ = ("expr", "items", "subquery", "negated")

    def __init__(self, expr, items=None, subquery=None, negated=False):
        self.expr = expr
        self.items = items
        self.subquery = subquery
        self.negated = negated


class Between(Expression):
    __slots__ = ("expr", "low", "high", "negated")

    def __init__(self, expr, low, high, negated=False):
        self.expr = expr
        self.low = low
        self.high = high
        self.negated = negated


class Like(Expression):
    __slots__ = ("expr", "pattern", "negated")

    def __init__(self, expr, pattern, negated=False):
        self.expr = expr
        self.pattern = pattern
        self.negated = negated


class IsNull(Expression):
    __slots__ = ("expr", "negated")

    def __init__(self, expr, negated=False):
        self.expr = expr
        self.negated = negated


class Case(Expression):
    __slots__ = ("whens", "default")

    def __init__(self, whens: List[Tuple[Expression, Expression]], default):
        self.whens = whens
        self.default = default


class ScalarSubquery(Expression):
    __slots__ = ("select",)

    def __init__(self, select: "SelectStatement"):
        self.select = select


class ExistsSubquery(Expression):
    __slots__ = ("select", "negated")

    def __init__(self, select: "SelectStatement", negated: bool = False):
        self.select = select
        self.negated = negated


# ---------------------------------------------------------------------------
# Table references
# ---------------------------------------------------------------------------

class TableRef(Node):
    """``binding`` is the name the table's rows are bound under: the
    alias, else the table name, lower-cased."""

    __slots__ = ("name", "alias", "binding")

    def __init__(self, name: QualifiedName, alias: Optional[str] = None):
        self.name = name
        self.alias = alias
        self.binding = (alias or name.name).lower()

    def __repr__(self) -> str:
        return f"TableRef(name={self.name!r}, alias={self.alias!r})"


class Join(Node):
    __slots__ = ("left", "right", "kind", "condition")

    def __init__(self, left, right, kind: str, condition: Optional[Expression]):
        self.left = left
        self.right = right
        self.kind = kind  # "INNER" | "LEFT" | "CROSS"
        self.condition = condition


class SubquerySource(Node):
    """A derived table: ``FROM (SELECT ...) alias``."""

    __slots__ = ("select", "alias")

    def __init__(self, select: "SelectStatement", alias: str):
        self.select = select
        self.alias = alias

    @property
    def binding(self) -> str:
        return self.alias.lower()


# ---------------------------------------------------------------------------
# Statements
# ---------------------------------------------------------------------------

class Statement(Node):
    __slots__ = ()


class SelectStatement(Statement):
    __slots__ = (
        "columns", "source", "where", "group_by", "having",
        "order_by", "limit", "offset", "distinct", "for_update",
    )

    def __init__(
        self,
        columns: List[Tuple[Expression, Optional[str]]],
        source,
        where: Optional[Expression] = None,
        group_by: Optional[List[Expression]] = None,
        having: Optional[Expression] = None,
        order_by: Optional[List[Tuple[Expression, bool]]] = None,
        limit: Optional[Expression] = None,
        offset: Optional[Expression] = None,
        distinct: bool = False,
        for_update: bool = False,
    ):
        self.columns = columns
        self.source = source
        self.where = where
        self.group_by = group_by or []
        self.having = having
        self.order_by = order_by or []
        self.limit = limit
        self.offset = offset
        self.distinct = distinct
        self.for_update = for_update


class InsertStatement(Statement):
    __slots__ = ("table", "columns", "rows", "select")

    def __init__(self, table: QualifiedName, columns, rows=None, select=None):
        self.table = table
        self.columns = columns
        self.rows = rows
        self.select = select


class UpdateStatement(Statement):
    __slots__ = ("table", "assignments", "where")

    def __init__(self, table: QualifiedName, assignments, where=None):
        self.table = table
        self.assignments = assignments  # list of (column_name, Expression)
        self.where = where


class DeleteStatement(Statement):
    __slots__ = ("table", "where")

    def __init__(self, table: QualifiedName, where=None):
        self.table = table
        self.where = where


class ColumnDef(Node):
    __slots__ = ("name", "type_name", "nullable", "primary_key", "unique",
                 "auto_increment", "default")

    def __init__(self, name, type_name, nullable=True, primary_key=False,
                 unique=False, auto_increment=False, default=None):
        self.name = name
        self.type_name = type_name
        self.nullable = nullable
        self.primary_key = primary_key
        self.unique = unique
        self.auto_increment = auto_increment
        self.default = default


class CreateTableStatement(Statement):
    __slots__ = ("table", "columns", "temporary", "if_not_exists")

    def __init__(self, table, columns, temporary=False, if_not_exists=False):
        self.table = table
        self.columns = columns
        self.temporary = temporary
        self.if_not_exists = if_not_exists


class CreateDatabaseStatement(Statement):
    __slots__ = ("name", "if_not_exists")

    def __init__(self, name: str, if_not_exists: bool = False):
        self.name = name
        self.if_not_exists = if_not_exists


class CreateSchemaStatement(Statement):
    __slots__ = ("name", "if_not_exists")

    def __init__(self, name: str, if_not_exists: bool = False):
        self.name = name
        self.if_not_exists = if_not_exists


class CreateIndexStatement(Statement):
    __slots__ = ("name", "table", "columns", "unique")

    def __init__(self, name, table, columns, unique=False):
        self.name = name
        self.table = table
        self.columns = columns
        self.unique = unique


class CreateSequenceStatement(Statement):
    __slots__ = ("name", "start", "increment")

    def __init__(self, name, start=1, increment=1):
        self.name = name
        self.start = start
        self.increment = increment


class CreateTriggerStatement(Statement):
    __slots__ = ("name", "timing", "event", "table", "body")

    def __init__(self, name, timing, event, table, body):
        self.name = name
        self.timing = timing      # "BEFORE" | "AFTER"
        self.event = event        # "INSERT" | "UPDATE" | "DELETE"
        self.table = table
        self.body = body          # list of Statement


class CreateProcedureStatement(Statement):
    __slots__ = ("name", "params", "body")

    def __init__(self, name, params, body):
        self.name = name
        self.params = params      # list of parameter names
        self.body = body          # list of Statement


class CreateUserStatement(Statement):
    __slots__ = ("name", "password")

    def __init__(self, name, password):
        self.name = name
        self.password = password


class DropStatement(Statement):
    __slots__ = ("kind", "name", "if_exists")

    def __init__(self, kind: str, name, if_exists: bool = False):
        self.kind = kind          # TABLE | DATABASE | INDEX | SEQUENCE | ...
        self.name = name
        self.if_exists = if_exists


class AlterTableStatement(Statement):
    __slots__ = ("table", "action", "column", "new_name")

    def __init__(self, table, action, column=None, new_name=None):
        self.table = table
        self.action = action      # "ADD_COLUMN" | "RENAME"
        self.column = column      # ColumnDef for ADD_COLUMN
        self.new_name = new_name


class BeginStatement(Statement):
    __slots__ = ("isolation",)

    def __init__(self, isolation: Optional[str] = None):
        self.isolation = isolation


class CommitStatement(Statement):
    __slots__ = ()


class RollbackStatement(Statement):
    __slots__ = ()


class SetStatement(Statement):
    __slots__ = ("name", "value")

    def __init__(self, name: str, value):
        self.name = name
        self.value = value


class GrantStatement(Statement):
    __slots__ = ("privileges", "object_name", "user")

    def __init__(self, privileges, object_name, user):
        self.privileges = privileges  # list like ["SELECT", "INSERT"] or ["ALL"]
        self.object_name = object_name
        self.user = user


class RevokeStatement(Statement):
    __slots__ = ("privileges", "object_name", "user")

    def __init__(self, privileges, object_name, user):
        self.privileges = privileges
        self.object_name = object_name
        self.user = user


class UseStatement(Statement):
    __slots__ = ("database",)

    def __init__(self, database: str):
        self.database = database


class CallStatement(Statement):
    __slots__ = ("name", "args")

    def __init__(self, name, args):
        self.name = name
        self.args = args


class ExplainStatement(Statement):
    """``EXPLAIN <statement>`` — report the planned access path without
    executing."""

    __slots__ = ("statement",)

    def __init__(self, statement: Statement):
        self.statement = statement


class LockTableStatement(Statement):
    __slots__ = ("table", "mode")

    def __init__(self, table, mode: str):
        self.table = table
        self.mode = mode          # "SHARE" | "EXCLUSIVE"
