"""A small SQL tokenizer.

Produces a flat list of :class:`Token` objects consumed by the recursive
descent parser in :mod:`repro.sqlengine.parser`.  Keywords are recognized
case-insensitively; identifiers keep their original spelling but compare
case-insensitively throughout the engine.
"""

from __future__ import annotations

import enum
import re
from typing import List, Optional

from .errors import ParseError


class TokenType(enum.Enum):
    KEYWORD = "KEYWORD"
    IDENT = "IDENT"
    NUMBER = "NUMBER"
    STRING = "STRING"
    OPERATOR = "OPERATOR"
    PARAM = "PARAM"          # a `?` placeholder
    EOF = "EOF"


KEYWORDS = frozenset("""
    SELECT FROM WHERE GROUP BY HAVING ORDER ASC DESC LIMIT OFFSET
    INSERT INTO VALUES UPDATE SET DELETE
    CREATE DROP ALTER TABLE DATABASE SCHEMA INDEX SEQUENCE TRIGGER PROCEDURE
    TEMPORARY TEMP VIEW USER IF EXISTS NOT NULL PRIMARY KEY UNIQUE DEFAULT
    AUTO_INCREMENT REFERENCES
    BEGIN START TRANSACTION COMMIT ROLLBACK WORK
    AND OR IN IS LIKE BETWEEN
    JOIN INNER LEFT RIGHT OUTER ON AS DISTINCT
    UNION ALL ANY
    GRANT REVOKE TO IDENTIFIED WITH PASSWORD PRIVILEGES
    CASE WHEN THEN ELSE END
    BEFORE AFTER FOR EACH ROW EXECUTE CALL RETURNS DECLARE
    USE ISOLATION LEVEL READ COMMITTED UNCOMMITTED REPEATABLE SERIALIZABLE SNAPSHOT
    TRUE FALSE
    ADD COLUMN RENAME
    LOCK SHARE EXCLUSIVE MODE
    NEXTVAL CURRVAL SETVAL
    CASCADE RESTRICT
    INCREMENT CACHE
    EXPLAIN
""".split())


class Token:
    __slots__ = ("type", "value", "position")

    def __init__(self, token_type: TokenType, value: str, position: int):
        self.type = token_type
        self.value = value
        self.position = position

    def __repr__(self) -> str:
        return f"Token({self.type.value}, {self.value!r})"

    def is_keyword(self, *names: str) -> bool:
        return self.type is TokenType.KEYWORD and self.value in names

    def is_operator(self, *ops: str) -> bool:
        return self.type is TokenType.OPERATOR and self.value in ops


#: a ``'…'`` string, ``''`` standing for one quote; group 1 is its body
#: (``parser.parameterize_literals`` reads strings with it too)
STRING_LITERAL = r"'([^']*(?:''[^']*)*)'"
_STRING_RE = re.compile(STRING_LITERAL)
_TWO_CHAR_OPERATORS = ("<=", ">=", "<>", "!=", "||", ":=")
_ONE_CHAR_OPERATORS = "=<>+-*/%(),.;"


def tokenize(sql: str) -> List[Token]:
    """Tokenize ``sql``; raises :class:`ParseError` on unexpected input."""
    tokens: List[Token] = []
    index = 0
    length = len(sql)
    while index < length:
        char = sql[index]
        if char in " \t\r\n":
            index += 1
            continue
        if sql.startswith("--", index):
            newline = sql.find("\n", index)
            index = length if newline < 0 else newline + 1
            continue
        if sql.startswith("/*", index):
            end = sql.find("*/", index + 2)
            if end < 0:
                raise ParseError("unterminated block comment")
            index = end + 2
            continue
        if char == "'":
            string = _STRING_RE.match(sql, index)
            if string is None:
                raise ParseError("unterminated string literal")
            tokens.append(Token(TokenType.STRING,
                                string[1].replace("''", "'"), index))
            index = string.end()
            continue
        if char == '"' or char == "`":
            token, index = _read_quoted_ident(sql, index, char)
            tokens.append(token)
            continue
        if char.isdigit() or (char == "." and index + 1 < length and sql[index + 1].isdigit()):
            token, index = _read_number(sql, index)
            tokens.append(token)
            continue
        if char.isalpha() or char == "_":
            token, index = _read_word(sql, index)
            tokens.append(token)
            continue
        if char == "?":
            tokens.append(Token(TokenType.PARAM, "?", index))
            index += 1
            continue
        two = sql[index:index + 2]
        if two in _TWO_CHAR_OPERATORS:
            tokens.append(Token(TokenType.OPERATOR, two, index))
            index += 2
            continue
        if char in _ONE_CHAR_OPERATORS:
            tokens.append(Token(TokenType.OPERATOR, char, index))
            index += 1
            continue
        raise ParseError(f"unexpected character {char!r} at position {index}")
    tokens.append(Token(TokenType.EOF, "", length))
    return tokens


def _read_quoted_ident(sql: str, start: int, quote: str) -> tuple:
    end = sql.find(quote, start + 1)
    if end < 0:
        raise ParseError("unterminated quoted identifier")
    return Token(TokenType.IDENT, sql[start + 1:end], start), end + 1


def _read_number(sql: str, start: int) -> tuple:
    index = start
    seen_dot = False
    seen_exp = False
    while index < len(sql):
        char = sql[index]
        if char.isdigit():
            index += 1
        elif char == "." and not seen_dot and not seen_exp:
            # Guard against `1.foo` style member access on numbers: a dot is
            # part of the number only when followed by a digit.
            if index + 1 < len(sql) and sql[index + 1].isdigit():
                seen_dot = True
                index += 1
            else:
                break
        elif char in "eE" and not seen_exp and index + 1 < len(sql) and (
            sql[index + 1].isdigit() or sql[index + 1] in "+-"
        ):
            seen_exp = True
            index += 2
        else:
            break
    return Token(TokenType.NUMBER, sql[start:index], start), index


def _read_word(sql: str, start: int) -> tuple:
    index = start
    while index < len(sql) and (sql[index].isalnum() or sql[index] == "_"):
        index += 1
    word = sql[start:index]
    upper = word.upper()
    if upper in KEYWORDS:
        return Token(TokenType.KEYWORD, upper, start), index
    return Token(TokenType.IDENT, word, start), index


class TokenStream:
    """Cursor over a token list with the usual peek/expect helpers."""

    def __init__(self, tokens: List[Token]):
        self._tokens = tokens
        self._index = 0

    def peek(self, ahead: int = 0) -> Token:
        return self._tokens[min(self._index + ahead, len(self._tokens) - 1)]

    def next(self) -> Token:
        token = self.peek()
        if token.type is not TokenType.EOF:
            self._index += 1
        return token

    def at_end(self) -> bool:
        return self.peek().type is TokenType.EOF

    def accept_keyword(self, *names: str) -> Optional[Token]:
        if self.peek().is_keyword(*names):
            return self.next()
        return None

    def accept_operator(self, *ops: str) -> Optional[Token]:
        if self.peek().is_operator(*ops):
            return self.next()
        return None

    def expect_keyword(self, *names: str) -> Token:
        token = self.accept_keyword(*names)
        if token is None:
            raise ParseError(
                f"expected {'/'.join(names)}, got {self.peek().value!r}"
            )
        return token

    def expect_operator(self, op: str) -> Token:
        token = self.accept_operator(op)
        if token is None:
            raise ParseError(f"expected {op!r}, got {self.peek().value!r}")
        return token

    def expect_ident(self) -> Token:
        token = self.peek()
        # Unreserved keywords may double as identifiers in a few spots
        # (e.g. a column called `level`); accept keywords where an
        # identifier is mandatory only if they are "soft".
        if token.type is TokenType.IDENT:
            return self.next()
        if token.type is TokenType.KEYWORD and token.value in _SOFT_KEYWORDS:
            return self.next()
        raise ParseError(f"expected identifier, got {token.value!r}")


_SOFT_KEYWORDS = frozenset({
    "LEVEL", "USER", "VIEW", "MODE", "KEY", "ROW", "WORK", "CACHE",
    "COLUMN", "SHARE", "READ", "ALL", "ANY", "SCHEMA", "DATABASE",
})
