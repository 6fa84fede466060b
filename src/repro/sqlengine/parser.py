"""Recursive-descent parser for the engine's SQL subset.

The subset is chosen to cover everything the paper's gap analysis needs:
multi-database qualified names, transactions with isolation levels,
sequences, triggers, stored procedures, temporary tables, GRANT/REVOKE,
LIMIT without ORDER BY (the section 4.3.2 divergence hazard), and the
non-deterministic functions NOW()/RAND().
"""

from __future__ import annotations

import re
from typing import List, Optional, Tuple

from . import ast_nodes as ast
from .errors import ParseError
from .tokens import TokenStream, TokenType, tokenize


def parse(sql: str) -> ast.Statement:
    """Parse a single SQL statement (a trailing ``;`` is tolerated)."""
    statements = parse_script(sql)
    if len(statements) != 1:
        raise ParseError(f"expected a single statement, got {len(statements)}")
    return statements[0]


# Auto-parameterization (hot-path, ROADMAP item 4): OLTP traffic is the
# same few statement shapes with different key values, but a parse cache
# keyed on SQL text sees every key as a new statement.  Rewriting bare
# integer literals to positional params turns the whole key space into
# one cache entry.  Conservative on purpose: integers only (never inside
# identifiers, floats, or strings — the quote gate skips those
# statements entirely), single statements, DML verbs only, and nothing
# from the first ORDER BY on (``ORDER BY 2`` is an output-column
# ordinal, not a value — as a bound parameter it would sort by a
# constant).
_INT_LITERAL_RE = re.compile(r"(?<![\w.])(\d+)(?![\w.])")
_PARAM_VERB_RE = re.compile(r"^\s*(?:SELECT|UPDATE|DELETE|INSERT)\b",
                            re.IGNORECASE)
_ORDER_BY_RE = re.compile(r"\bORDER\s+BY\b", re.IGNORECASE)


def parameterize_literals(sql: str) -> Optional[Tuple[str, List[int]]]:
    """Rewrite bare integer literals in ``sql`` as ``?`` placeholders.

    Returns ``(template, values)``, or ``None`` when the statement is not
    safely rewritable (non-DML, contains strings or explicit params, is a
    multi-statement script, or simply has no integer literals).  The
    template executes identically to the original with ``values`` bound
    positionally — callers cache the parsed template.
    """
    if "?" in sql or "'" in sql or ";" in sql:
        return None
    if _PARAM_VERB_RE.match(sql) is None:
        return None
    values: List[int] = []

    def _sub(match: "re.Match") -> str:
        values.append(int(match.group(1)))
        return "?"

    order_by = _ORDER_BY_RE.search(sql)
    head = sql if order_by is None else sql[:order_by.start()]
    template = _INT_LITERAL_RE.sub(_sub, head)
    if not values:
        return None
    return template + sql[len(head):], values


def parse_script(sql: str,
                 texts: Optional[List[str]] = None) -> List[ast.Statement]:
    """Parse a ``;``-separated sequence of statements.  A list passed as
    ``texts`` receives, per statement, the stretch of ``sql`` it was
    parsed from: that statement's own text, which parses to it alone."""
    stream = TokenStream(tokenize(sql))
    statements: List[ast.Statement] = []
    while not stream.at_end():
        if stream.accept_operator(";"):
            continue
        start = stream.peek().position
        statements.append(_Parser(stream).parse_statement())
        if texts is not None:
            texts.append(sql[start:stream.peek().position].rstrip())
    return statements


class _Parser:
    def __init__(self, stream: TokenStream):
        self.stream = stream
        self._param_count = 0

    # -- statement dispatch ----------------------------------------------

    def parse_statement(self) -> ast.Statement:
        token = self.stream.peek()
        if token.type is not TokenType.KEYWORD:
            raise ParseError(f"unexpected token {token.value!r}")
        handlers = {
            "SELECT": self._parse_select,
            "INSERT": self._parse_insert,
            "UPDATE": self._parse_update,
            "DELETE": self._parse_delete,
            "CREATE": self._parse_create,
            "DROP": self._parse_drop,
            "ALTER": self._parse_alter,
            "BEGIN": self._parse_begin,
            "START": self._parse_begin,
            "COMMIT": self._parse_commit,
            "ROLLBACK": self._parse_rollback,
            "SET": self._parse_set,
            "GRANT": self._parse_grant,
            "REVOKE": self._parse_revoke,
            "USE": self._parse_use,
            "CALL": self._parse_call,
            "LOCK": self._parse_lock,
            "EXPLAIN": self._parse_explain,
        }
        handler = handlers.get(token.value)
        if handler is None:
            raise ParseError(f"unsupported statement starting with {token.value}")
        return handler()

    # -- EXPLAIN -----------------------------------------------------------

    def _parse_explain(self) -> ast.ExplainStatement:
        self.stream.expect_keyword("EXPLAIN")
        inner = self.parse_statement()
        if not isinstance(inner, (ast.SelectStatement, ast.UpdateStatement,
                                  ast.DeleteStatement)):
            raise ParseError("EXPLAIN supports SELECT, UPDATE and DELETE")
        return ast.ExplainStatement(inner)

    # -- SELECT ------------------------------------------------------------

    def _parse_select(self) -> ast.SelectStatement:
        self.stream.expect_keyword("SELECT")
        distinct = bool(self.stream.accept_keyword("DISTINCT"))
        if not distinct:
            self.stream.accept_keyword("ALL")
        columns = self._parse_select_columns()
        source = None
        if self.stream.accept_keyword("FROM"):
            source = self._parse_table_source()
        where = None
        if self.stream.accept_keyword("WHERE"):
            where = self._parse_expression()
        group_by: List[ast.Expression] = []
        if self.stream.accept_keyword("GROUP"):
            self.stream.expect_keyword("BY")
            group_by.append(self._parse_expression())
            while self.stream.accept_operator(","):
                group_by.append(self._parse_expression())
        having = None
        if self.stream.accept_keyword("HAVING"):
            having = self._parse_expression()
        order_by: List[Tuple[ast.Expression, bool]] = []
        if self.stream.accept_keyword("ORDER"):
            self.stream.expect_keyword("BY")
            order_by.append(self._parse_order_item())
            while self.stream.accept_operator(","):
                order_by.append(self._parse_order_item())
        limit = offset = None
        if self.stream.accept_keyword("LIMIT"):
            limit = self._parse_expression()
            if self.stream.accept_keyword("OFFSET"):
                offset = self._parse_expression()
        elif self.stream.accept_keyword("OFFSET"):
            offset = self._parse_expression()
        for_update = False
        if self.stream.accept_keyword("FOR"):
            self.stream.expect_keyword("UPDATE")
            for_update = True
        return ast.SelectStatement(
            columns, source, where=where, group_by=group_by, having=having,
            order_by=order_by, limit=limit, offset=offset,
            distinct=distinct, for_update=for_update,
        )

    def _parse_order_item(self) -> Tuple[ast.Expression, bool]:
        expr = self._parse_expression()
        ascending = True
        if self.stream.accept_keyword("DESC"):
            ascending = False
        else:
            self.stream.accept_keyword("ASC")
        return expr, ascending

    def _parse_select_columns(self):
        columns = [self._parse_select_column()]
        while self.stream.accept_operator(","):
            columns.append(self._parse_select_column())
        return columns

    def _parse_select_column(self):
        if self.stream.peek().is_operator("*"):
            self.stream.next()
            return (ast.Star(), None)
        # `alias.*`
        if (
            self.stream.peek().type is TokenType.IDENT
            and self.stream.peek(1).is_operator(".")
            and self.stream.peek(2).is_operator("*")
        ):
            table = self.stream.next().value
            self.stream.next()
            self.stream.next()
            return (ast.Star(table=table), None)
        expr = self._parse_expression()
        alias = None
        if self.stream.accept_keyword("AS"):
            alias = self.stream.expect_ident().value
        elif self.stream.peek().type is TokenType.IDENT:
            alias = self.stream.next().value
        return (expr, alias)

    def _parse_table_source(self):
        source = self._parse_table_primary()
        while True:
            kind = None
            if self.stream.accept_keyword("JOIN"):
                kind = "INNER"
            elif self.stream.peek().is_keyword("INNER"):
                self.stream.next()
                self.stream.expect_keyword("JOIN")
                kind = "INNER"
            elif self.stream.peek().is_keyword("LEFT"):
                self.stream.next()
                self.stream.accept_keyword("OUTER")
                self.stream.expect_keyword("JOIN")
                kind = "LEFT"
            elif self.stream.accept_operator(","):
                right = self._parse_table_primary()
                source = ast.Join(source, right, "CROSS", None)
                continue
            else:
                break
            right = self._parse_table_primary()
            condition = None
            if self.stream.accept_keyword("ON"):
                condition = self._parse_expression()
            source = ast.Join(source, right, kind, condition)
        return source

    def _parse_table_primary(self):
        if self.stream.peek().is_operator("("):
            self.stream.next()
            select = self._parse_select()
            self.stream.expect_operator(")")
            self.stream.accept_keyword("AS")
            alias = self.stream.expect_ident().value
            return ast.SubquerySource(select, alias)
        name = self._parse_qualified_name()
        alias = None
        if self.stream.accept_keyword("AS"):
            alias = self.stream.expect_ident().value
        elif self.stream.peek().type is TokenType.IDENT:
            alias = self.stream.next().value
        return ast.TableRef(name, alias)

    # -- INSERT / UPDATE / DELETE ------------------------------------------

    def _parse_insert(self) -> ast.InsertStatement:
        self.stream.expect_keyword("INSERT")
        self.stream.expect_keyword("INTO")
        table = self._parse_qualified_name()
        columns = None
        if self.stream.peek().is_operator("("):
            self.stream.next()
            columns = [self.stream.expect_ident().value]
            while self.stream.accept_operator(","):
                columns.append(self.stream.expect_ident().value)
            self.stream.expect_operator(")")
        if self.stream.peek().is_keyword("SELECT"):
            return ast.InsertStatement(table, columns, select=self._parse_select())
        self.stream.expect_keyword("VALUES")
        rows = [self._parse_value_row()]
        while self.stream.accept_operator(","):
            rows.append(self._parse_value_row())
        return ast.InsertStatement(table, columns, rows=rows)

    def _parse_value_row(self) -> List[ast.Expression]:
        self.stream.expect_operator("(")
        row = [self._parse_expression()]
        while self.stream.accept_operator(","):
            row.append(self._parse_expression())
        self.stream.expect_operator(")")
        return row

    def _parse_update(self) -> ast.UpdateStatement:
        self.stream.expect_keyword("UPDATE")
        table = self._parse_qualified_name()
        self.stream.expect_keyword("SET")
        assignments = [self._parse_assignment()]
        while self.stream.accept_operator(","):
            assignments.append(self._parse_assignment())
        where = None
        if self.stream.accept_keyword("WHERE"):
            where = self._parse_expression()
        return ast.UpdateStatement(table, assignments, where=where)

    def _parse_assignment(self) -> Tuple[str, ast.Expression]:
        column = self.stream.expect_ident().value
        self.stream.expect_operator("=")
        return column, self._parse_expression()

    def _parse_delete(self) -> ast.DeleteStatement:
        self.stream.expect_keyword("DELETE")
        self.stream.expect_keyword("FROM")
        table = self._parse_qualified_name()
        where = None
        if self.stream.accept_keyword("WHERE"):
            where = self._parse_expression()
        return ast.DeleteStatement(table, where=where)

    # -- CREATE -------------------------------------------------------------

    def _parse_create(self) -> ast.Statement:
        self.stream.expect_keyword("CREATE")
        if self.stream.accept_keyword("TEMPORARY") or self.stream.accept_keyword("TEMP"):
            self.stream.expect_keyword("TABLE")
            return self._parse_create_table(temporary=True)
        if self.stream.accept_keyword("UNIQUE"):
            self.stream.expect_keyword("INDEX")
            return self._parse_create_index(unique=True)
        token = self.stream.next()
        if token.is_keyword("TABLE"):
            return self._parse_create_table(temporary=False)
        if token.is_keyword("DATABASE"):
            if_not_exists = self._accept_if_not_exists()
            return ast.CreateDatabaseStatement(
                self.stream.expect_ident().value, if_not_exists)
        if token.is_keyword("SCHEMA"):
            if_not_exists = self._accept_if_not_exists()
            return ast.CreateSchemaStatement(
                self.stream.expect_ident().value, if_not_exists)
        if token.is_keyword("INDEX"):
            return self._parse_create_index(unique=False)
        if token.is_keyword("SEQUENCE"):
            return self._parse_create_sequence()
        if token.is_keyword("TRIGGER"):
            return self._parse_create_trigger()
        if token.is_keyword("PROCEDURE"):
            return self._parse_create_procedure()
        if token.is_keyword("USER"):
            name = self.stream.expect_ident().value
            password = ""
            if self.stream.accept_keyword("IDENTIFIED"):
                self.stream.expect_keyword("BY")
                password = self.stream.next().value
            elif self.stream.accept_keyword("WITH"):
                self.stream.expect_keyword("PASSWORD")
                password = self.stream.next().value
            return ast.CreateUserStatement(name, password)
        raise ParseError(f"unsupported CREATE {token.value}")

    def _accept_if_not_exists(self) -> bool:
        if self.stream.accept_keyword("IF"):
            self.stream.expect_keyword("NOT")
            self.stream.expect_keyword("EXISTS")
            return True
        return False

    def _parse_create_table(self, temporary: bool) -> ast.CreateTableStatement:
        if_not_exists = self._accept_if_not_exists()
        table = self._parse_qualified_name()
        self.stream.expect_operator("(")
        columns = [self._parse_column_def()]
        while self.stream.accept_operator(","):
            if self.stream.peek().is_keyword("PRIMARY"):
                # Table-level PRIMARY KEY (col, ...)
                self.stream.next()
                self.stream.expect_keyword("KEY")
                self.stream.expect_operator("(")
                names = [self.stream.expect_ident().value]
                while self.stream.accept_operator(","):
                    names.append(self.stream.expect_ident().value)
                self.stream.expect_operator(")")
                wanted = {n.lower() for n in names}
                for col in columns:
                    if col.name.lower() in wanted:
                        col.primary_key = True
                        col.nullable = False
                continue
            columns.append(self._parse_column_def())
        self.stream.expect_operator(")")
        return ast.CreateTableStatement(table, columns, temporary, if_not_exists)

    def _parse_column_def(self) -> ast.ColumnDef:
        name = self.stream.expect_ident().value
        type_token = self.stream.next()
        if type_token.type not in (TokenType.IDENT, TokenType.KEYWORD):
            raise ParseError(f"expected column type, got {type_token.value!r}")
        type_name = type_token.value
        # Optional (length) / (precision, scale) — parsed and ignored.
        if self.stream.peek().is_operator("("):
            self.stream.next()
            while not self.stream.peek().is_operator(")"):
                self.stream.next()
            self.stream.expect_operator(")")
        column = ast.ColumnDef(name, type_name)
        if type_name.upper() == "SERIAL":
            column.auto_increment = True
        while True:
            if self.stream.accept_keyword("PRIMARY"):
                self.stream.expect_keyword("KEY")
                column.primary_key = True
                column.nullable = False
            elif self.stream.accept_keyword("UNIQUE"):
                column.unique = True
            elif self.stream.accept_keyword("NOT"):
                self.stream.expect_keyword("NULL")
                column.nullable = False
            elif self.stream.accept_keyword("NULL"):
                column.nullable = True
            elif self.stream.accept_keyword("AUTO_INCREMENT"):
                column.auto_increment = True
            elif self.stream.accept_keyword("DEFAULT"):
                column.default = self._parse_expression()
            elif self.stream.accept_keyword("REFERENCES"):
                self._parse_qualified_name()
                if self.stream.peek().is_operator("("):
                    self.stream.next()
                    self.stream.expect_ident()
                    self.stream.expect_operator(")")
            else:
                break
        return column

    def _parse_create_index(self, unique: bool) -> ast.CreateIndexStatement:
        name = self.stream.expect_ident().value
        self.stream.expect_keyword("ON")
        table = self._parse_qualified_name()
        self.stream.expect_operator("(")
        columns = [self.stream.expect_ident().value]
        while self.stream.accept_operator(","):
            columns.append(self.stream.expect_ident().value)
        self.stream.expect_operator(")")
        return ast.CreateIndexStatement(name, table, columns, unique)

    def _parse_create_sequence(self) -> ast.CreateSequenceStatement:
        name = self._parse_qualified_name()
        start, increment = 1, 1
        while True:
            if self.stream.accept_keyword("START"):
                self.stream.accept_keyword("WITH")
                start = self._parse_signed_int()
            elif self.stream.accept_keyword("INCREMENT"):
                self.stream.accept_keyword("BY")
                increment = self._parse_signed_int()
            elif self.stream.accept_keyword("CACHE"):
                self._parse_signed_int()
            else:
                break
        return ast.CreateSequenceStatement(name, start, increment)

    def _parse_signed_int(self) -> int:
        negative = bool(self.stream.accept_operator("-"))
        token = self.stream.next()
        if token.type is not TokenType.NUMBER:
            raise ParseError(f"expected integer, got {token.value!r}")
        value = int(token.value)
        return -value if negative else value

    def _parse_create_trigger(self) -> ast.CreateTriggerStatement:
        name = self.stream.expect_ident().value
        timing_token = self.stream.next()
        if not timing_token.is_keyword("BEFORE", "AFTER"):
            raise ParseError("expected BEFORE or AFTER in CREATE TRIGGER")
        event_token = self.stream.next()
        if not event_token.is_keyword("INSERT", "UPDATE", "DELETE"):
            raise ParseError("expected INSERT/UPDATE/DELETE in CREATE TRIGGER")
        self.stream.expect_keyword("ON")
        table = self._parse_qualified_name()
        if self.stream.accept_keyword("FOR"):
            self.stream.expect_keyword("EACH")
            self.stream.expect_keyword("ROW")
        body = self._parse_block()
        return ast.CreateTriggerStatement(
            name, timing_token.value, event_token.value, table, body)

    def _parse_create_procedure(self) -> ast.CreateProcedureStatement:
        name = self._parse_qualified_name()
        params: List[str] = []
        if self.stream.accept_operator("("):
            if not self.stream.peek().is_operator(")"):
                params.append(self.stream.expect_ident().value)
                while self.stream.accept_operator(","):
                    params.append(self.stream.expect_ident().value)
            self.stream.expect_operator(")")
        body = self._parse_block()
        return ast.CreateProcedureStatement(name, params, body)

    def _parse_block(self) -> List[ast.Statement]:
        """``BEGIN stmt; stmt; ... END`` used by triggers and procedures."""
        self.stream.expect_keyword("BEGIN")
        body: List[ast.Statement] = []
        while not self.stream.peek().is_keyword("END"):
            if self.stream.accept_operator(";"):
                continue
            body.append(self.parse_statement())
            # statements inside a block are ';'-separated
            if not self.stream.peek().is_keyword("END"):
                self.stream.expect_operator(";")
        self.stream.expect_keyword("END")
        return body

    # -- DROP / ALTER ---------------------------------------------------------

    def _parse_drop(self) -> ast.DropStatement:
        self.stream.expect_keyword("DROP")
        self.stream.accept_keyword("TEMPORARY") or self.stream.accept_keyword("TEMP")
        kind_token = self.stream.next()
        if not kind_token.is_keyword(
            "TABLE", "DATABASE", "SCHEMA", "INDEX", "SEQUENCE",
            "TRIGGER", "PROCEDURE", "USER", "VIEW",
        ):
            raise ParseError(f"unsupported DROP {kind_token.value}")
        if_exists = False
        if self.stream.accept_keyword("IF"):
            self.stream.expect_keyword("EXISTS")
            if_exists = True
        name = self._parse_qualified_name()
        self.stream.accept_keyword("CASCADE") or self.stream.accept_keyword("RESTRICT")
        return ast.DropStatement(kind_token.value, name, if_exists)

    def _parse_alter(self) -> ast.AlterTableStatement:
        self.stream.expect_keyword("ALTER")
        self.stream.expect_keyword("TABLE")
        table = self._parse_qualified_name()
        if self.stream.accept_keyword("ADD"):
            self.stream.accept_keyword("COLUMN")
            column = self._parse_column_def()
            return ast.AlterTableStatement(table, "ADD_COLUMN", column=column)
        if self.stream.accept_keyword("RENAME"):
            self.stream.expect_keyword("TO")
            new_name = self.stream.expect_ident().value
            return ast.AlterTableStatement(table, "RENAME", new_name=new_name)
        raise ParseError("unsupported ALTER TABLE action")

    # -- transactions -----------------------------------------------------------

    def _parse_begin(self) -> ast.BeginStatement:
        token = self.stream.next()
        if token.is_keyword("START"):
            self.stream.expect_keyword("TRANSACTION")
        else:
            self.stream.accept_keyword("TRANSACTION") or self.stream.accept_keyword("WORK")
        isolation = None
        if self.stream.accept_keyword("ISOLATION"):
            self.stream.expect_keyword("LEVEL")
            isolation = self._parse_isolation_level()
        return ast.BeginStatement(isolation)

    def _parse_isolation_level(self) -> str:
        token = self.stream.next()
        if token.is_keyword("READ"):
            second = self.stream.next()
            if second.is_keyword("COMMITTED"):
                return "READ COMMITTED"
            if second.is_keyword("UNCOMMITTED"):
                return "READ UNCOMMITTED"
            raise ParseError("expected COMMITTED or UNCOMMITTED")
        if token.is_keyword("REPEATABLE"):
            self.stream.expect_keyword("READ")
            return "REPEATABLE READ"
        if token.is_keyword("SERIALIZABLE"):
            return "SERIALIZABLE"
        if token.is_keyword("SNAPSHOT"):
            return "SNAPSHOT"
        raise ParseError(f"unknown isolation level {token.value!r}")

    def _parse_commit(self) -> ast.CommitStatement:
        self.stream.expect_keyword("COMMIT")
        self.stream.accept_keyword("WORK")
        return ast.CommitStatement()

    def _parse_rollback(self) -> ast.RollbackStatement:
        self.stream.expect_keyword("ROLLBACK")
        self.stream.accept_keyword("WORK")
        return ast.RollbackStatement()

    def _parse_set(self) -> ast.SetStatement:
        self.stream.expect_keyword("SET")
        if self.stream.accept_keyword("TRANSACTION"):
            self.stream.expect_keyword("ISOLATION")
            self.stream.expect_keyword("LEVEL")
            return ast.SetStatement("isolation_level", self._parse_isolation_level())
        if self.stream.peek().is_keyword("ISOLATION"):
            self.stream.next()
            self.stream.expect_keyword("LEVEL")
            return ast.SetStatement("isolation_level", self._parse_isolation_level())
        name = self.stream.expect_ident().value
        self.stream.accept_operator("=") or self.stream.accept_keyword("TO")
        value = self._parse_expression()
        return ast.SetStatement(name.lower(), value)

    # -- privileges ---------------------------------------------------------------

    def _parse_grant(self) -> ast.GrantStatement:
        self.stream.expect_keyword("GRANT")
        privileges = self._parse_privilege_list()
        self.stream.expect_keyword("ON")
        object_name = self._parse_qualified_name()
        self.stream.expect_keyword("TO")
        user = self.stream.expect_ident().value
        return ast.GrantStatement(privileges, object_name, user)

    def _parse_revoke(self) -> ast.RevokeStatement:
        self.stream.expect_keyword("REVOKE")
        privileges = self._parse_privilege_list()
        self.stream.expect_keyword("ON")
        object_name = self._parse_qualified_name()
        self.stream.expect_keyword("FROM")
        user = self.stream.expect_ident().value
        return ast.RevokeStatement(privileges, object_name, user)

    def _parse_privilege_list(self) -> List[str]:
        if self.stream.accept_keyword("ALL"):
            self.stream.accept_keyword("PRIVILEGES")
            return ["ALL"]
        privileges = [self._parse_privilege()]
        while self.stream.accept_operator(","):
            privileges.append(self._parse_privilege())
        return privileges

    def _parse_privilege(self) -> str:
        token = self.stream.next()
        if token.value.upper() in ("SELECT", "INSERT", "UPDATE", "DELETE", "EXECUTE"):
            return token.value.upper()
        raise ParseError(f"unknown privilege {token.value!r}")

    # -- misc -------------------------------------------------------------------

    def _parse_use(self) -> ast.UseStatement:
        self.stream.expect_keyword("USE")
        return ast.UseStatement(self.stream.expect_ident().value)

    def _parse_call(self) -> ast.CallStatement:
        self.stream.expect_keyword("CALL")
        name = self._parse_qualified_name()
        args: List[ast.Expression] = []
        if self.stream.accept_operator("("):
            if not self.stream.peek().is_operator(")"):
                args.append(self._parse_expression())
                while self.stream.accept_operator(","):
                    args.append(self._parse_expression())
            self.stream.expect_operator(")")
        return ast.CallStatement(name, args)

    def _parse_lock(self) -> ast.LockTableStatement:
        self.stream.expect_keyword("LOCK")
        self.stream.expect_keyword("TABLE")
        table = self._parse_qualified_name()
        self.stream.expect_keyword("IN")
        mode_token = self.stream.next()
        if not mode_token.is_keyword("SHARE", "EXCLUSIVE"):
            raise ParseError("expected SHARE or EXCLUSIVE lock mode")
        self.stream.expect_keyword("MODE")
        return ast.LockTableStatement(table, mode_token.value)

    # -- names ------------------------------------------------------------

    def _parse_qualified_name(self) -> ast.QualifiedName:
        parts = [self.stream.expect_ident().value]
        while self.stream.peek().is_operator(".") and len(parts) < 3:
            self.stream.next()
            parts.append(self.stream.expect_ident().value)
        return ast.QualifiedName(parts)

    # -- expressions ---------------------------------------------------------

    def _parse_expression(self) -> ast.Expression:
        return self._parse_or()

    def _parse_or(self) -> ast.Expression:
        left = self._parse_and()
        while self.stream.accept_keyword("OR"):
            left = ast.BinaryOp("OR", left, self._parse_and())
        return left

    def _parse_and(self) -> ast.Expression:
        left = self._parse_not()
        while self.stream.accept_keyword("AND"):
            left = ast.BinaryOp("AND", left, self._parse_not())
        return left

    def _parse_not(self) -> ast.Expression:
        if self.stream.accept_keyword("NOT"):
            return ast.UnaryOp("NOT", self._parse_not())
        return self._parse_comparison()

    def _parse_comparison(self) -> ast.Expression:
        left = self._parse_additive()
        token = self.stream.peek()
        if token.is_operator("=", "<>", "!=", "<", "<=", ">", ">="):
            op = self.stream.next().value
            if op == "!=":
                op = "<>"
            return ast.BinaryOp(op, left, self._parse_additive())
        negated = False
        if token.is_keyword("NOT"):
            following = self.stream.peek(1)
            if following.is_keyword("IN", "LIKE", "BETWEEN"):
                self.stream.next()
                negated = True
                token = self.stream.peek()
        if token.is_keyword("IS"):
            self.stream.next()
            is_negated = bool(self.stream.accept_keyword("NOT"))
            self.stream.expect_keyword("NULL")
            return ast.IsNull(left, negated=is_negated)
        if token.is_keyword("IN"):
            self.stream.next()
            return self._parse_in_rhs(left, negated)
        if token.is_keyword("LIKE"):
            self.stream.next()
            return ast.Like(left, self._parse_additive(), negated=negated)
        if token.is_keyword("BETWEEN"):
            self.stream.next()
            low = self._parse_additive()
            self.stream.expect_keyword("AND")
            high = self._parse_additive()
            return ast.Between(left, low, high, negated=negated)
        return left

    def _parse_in_rhs(self, left: ast.Expression, negated: bool) -> ast.InList:
        self.stream.expect_operator("(")
        if self.stream.peek().is_keyword("SELECT"):
            select = self._parse_select()
            self.stream.expect_operator(")")
            return ast.InList(left, subquery=select, negated=negated)
        items = [self._parse_expression()]
        while self.stream.accept_operator(","):
            items.append(self._parse_expression())
        self.stream.expect_operator(")")
        return ast.InList(left, items=items, negated=negated)

    def _parse_additive(self) -> ast.Expression:
        left = self._parse_multiplicative()
        while True:
            token = self.stream.peek()
            if token.is_operator("+", "-", "||"):
                op = self.stream.next().value
                left = ast.BinaryOp(op, left, self._parse_multiplicative())
            else:
                return left

    def _parse_multiplicative(self) -> ast.Expression:
        left = self._parse_unary()
        while True:
            token = self.stream.peek()
            if token.is_operator("*", "/", "%"):
                op = self.stream.next().value
                left = ast.BinaryOp(op, left, self._parse_unary())
            else:
                return left

    def _parse_unary(self) -> ast.Expression:
        if self.stream.accept_operator("-"):
            return ast.UnaryOp("-", self._parse_unary())
        if self.stream.accept_operator("+"):
            return self._parse_unary()
        return self._parse_primary()

    def _parse_primary(self) -> ast.Expression:
        token = self.stream.peek()
        if token.type is TokenType.NUMBER:
            self.stream.next()
            text = token.value
            if "." in text or "e" in text or "E" in text:
                return ast.Literal(float(text))
            return ast.Literal(int(text))
        if token.type is TokenType.STRING:
            self.stream.next()
            return ast.Literal(token.value)
        if token.type is TokenType.PARAM:
            self.stream.next()
            param = ast.Param(self._param_count)
            self._param_count += 1
            return param
        if token.is_keyword("TRUE"):
            self.stream.next()
            return ast.Literal(True)
        if token.is_keyword("FALSE"):
            self.stream.next()
            return ast.Literal(False)
        if token.is_keyword("NULL"):
            self.stream.next()
            return ast.Literal(None)
        if token.is_keyword("CASE"):
            return self._parse_case()
        if token.is_keyword("EXISTS"):
            self.stream.next()
            self.stream.expect_operator("(")
            select = self._parse_select()
            self.stream.expect_operator(")")
            return ast.ExistsSubquery(select)
        if token.is_operator("("):
            self.stream.next()
            if self.stream.peek().is_keyword("SELECT"):
                select = self._parse_select()
                self.stream.expect_operator(")")
                return ast.ScalarSubquery(select)
            expr = self._parse_expression()
            self.stream.expect_operator(")")
            return expr
        if token.is_operator("*"):
            self.stream.next()
            return ast.Star()
        if token.type is TokenType.IDENT or (
            token.type is TokenType.KEYWORD
            and token.value in _EXPRESSION_KEYWORD_FUNCS
        ):
            return self._parse_name_or_call()
        raise ParseError(f"unexpected token {token.value!r} in expression")

    def _parse_case(self) -> ast.Case:
        self.stream.expect_keyword("CASE")
        whens: List[Tuple[ast.Expression, ast.Expression]] = []
        while self.stream.accept_keyword("WHEN"):
            condition = self._parse_expression()
            self.stream.expect_keyword("THEN")
            whens.append((condition, self._parse_expression()))
        default = None
        if self.stream.accept_keyword("ELSE"):
            default = self._parse_expression()
        self.stream.expect_keyword("END")
        return ast.Case(whens, default)

    def _parse_name_or_call(self) -> ast.Expression:
        first = self.stream.next().value
        # function call?
        if self.stream.peek().is_operator("("):
            self.stream.next()
            distinct = bool(self.stream.accept_keyword("DISTINCT"))
            args: List[ast.Expression] = []
            if not self.stream.peek().is_operator(")"):
                args.append(self._parse_expression())
                while self.stream.accept_operator(","):
                    args.append(self._parse_expression())
            self.stream.expect_operator(")")
            return ast.FunctionCall(first, args, distinct=distinct)
        # qualified column (table.column) or sequence pseudo-columns
        # (seq.NEXTVAL / seq.CURRVAL, Oracle style)
        if self.stream.peek().is_operator("."):
            self.stream.next()
            second_token = self.stream.next()
            if second_token.is_keyword("NEXTVAL"):
                return ast.FunctionCall("NEXTVAL", [ast.Literal(first)])
            if second_token.is_keyword("CURRVAL"):
                return ast.FunctionCall("CURRVAL", [ast.Literal(first)])
            if second_token.type in (TokenType.IDENT, TokenType.KEYWORD):
                return ast.ColumnRef(second_token.value, table=first)
            raise ParseError(f"unexpected token {second_token.value!r} after '.'")
        # SQL-standard niladic functions need no parentheses.
        if first.upper() in _NILADIC_FUNCTIONS:
            return ast.FunctionCall(first, [])
        return ast.ColumnRef(first)


# Keywords that may start an expression because they double as function
# names (`NEXTVAL('seq')`, `CURRVAL('seq')`, `USER()`).
_EXPRESSION_KEYWORD_FUNCS = frozenset({"NEXTVAL", "CURRVAL", "SETVAL", "USER"})

# Niladic functions callable without parentheses (SQL standard).
_NILADIC_FUNCTIONS = frozenset({
    "CURRENT_TIMESTAMP", "CURRENT_TIME", "CURRENT_DATE", "CURRENT_USER",
})
