"""The statement cache: the one way SQL *text* becomes executable trees.

Every entry point that accepts text — :class:`~repro.sqlengine.engine.Engine`,
``ReplicationMiddleware`` sessions, ``ShardedCluster`` sessions, the
timed drivers — owns one :class:`StatementCache` and asks it for
``(statements, text, values)``.  OLTP traffic is a few statement shapes
with different key values, so literal-inlined point statements are first
rewritten to a ``?`` template (:func:`parameterize_literals`) and share
that template's trees.

The cache hands out the *same* tree objects for the same shape.  That is
the point: the route-plan, analysis and access-plan memos downstream are
keyed by tree identity and only hit when the tree is reused.  It is also
the contract — cached trees are shared across sessions, groups and
replicas and must be treated as read-only.
"""

from __future__ import annotations

from collections import OrderedDict
from typing import Any, List, Optional, Sequence, Tuple

from . import ast_nodes as ast
from .errors import SQLError
from .parser import parameterize_literals, parse_script

#: the capacity every per-statement memo in the stack uses
CAPACITY = 4096

#: ``(statements, text, values)``: run ``statements`` with ``values``
#: bound and hand ``(text, values)`` to whatever keys, tags or ships the
#: statement — the pair re-executes identically to what the client sent.
#: ``values`` is an immutable tuple; callers bind their own list from it.
Prepared = Tuple[List[ast.Statement], str, Sequence[Any]]

# stored under a template that does not parse, so a pathological shape
# costs one attempt, not one per key; never returned to a caller
_UNPARSABLE = (None, "", ())


class StatementCache:
    """Bounded LRU from SQL text to parsed statements.

    A text maps either to its own trees (``values == ()``) or, when it
    is a literal-inlined point statement, to its template's trees plus
    the extracted values.  ``hits`` counts lookups that needed no parse,
    ``misses`` parses performed, ``evictions`` entries pushed out at
    capacity.  A text that fails to parse raises its ``ParseError`` on
    every call and is never stored as a success."""

    def __init__(self, capacity: int = CAPACITY):
        self.capacity = max(1, capacity)
        self._entries: "OrderedDict[str, Prepared]" = OrderedDict()
        self.hits = 0
        self.misses = 0
        self.evictions = 0

    def __len__(self) -> int:
        return len(self._entries)

    def __contains__(self, sql: str) -> bool:
        return sql in self._entries

    def parse(self, sql: str) -> List[ast.Statement]:
        """The trees of exactly ``sql`` (no literal rewriting)."""
        entry = self._entries.get(sql)
        if entry is not None and entry is not _UNPARSABLE and not entry[2]:
            self._entries.move_to_end(sql)
            self.hits += 1
            return entry[0]
        statements = parse_script(sql)
        self.misses += 1
        self._store(sql, (statements, sql, ()))
        return statements

    def lookup(self, sql: str,
               params: Optional[Sequence[Any]] = None) -> Prepared:
        """What to execute for ``sql`` as sent with ``params``.

        Literal rewriting applies only when the caller bound nothing:
        the result is then ``(template trees, template, extracted
        values)``.  Otherwise — explicit params, or a text that is not
        rewritable — it is ``(trees of sql, sql, params or ())``."""
        if not params:
            entry = self.rewritten(sql)
            if entry is not None:
                return entry
            params = ()
        return self.parse(sql), sql, params

    def rewritten(self, sql: str) -> Optional[Prepared]:
        """``(template trees, template, extracted values)`` when ``sql``
        is a literal-inlined point statement, else ``None`` — without
        parsing ``sql`` itself, which is then the caller's to parse."""
        entry = self._entries.get(sql)
        if entry is not None:
            if not entry[2]:
                return None    # known as its own trees, or unparsable
            self._entries.move_to_end(sql)
            self.hits += 1
            return entry
        prepared = parameterize_literals(sql)
        if prepared is None:
            return None
        template, values = prepared
        if self._entries.get(template) is _UNPARSABLE:
            return None
        try:
            statements = self.parse(template)
        except SQLError:
            self._store(template, _UNPARSABLE)
            return None
        entry = (statements, template, tuple(values))
        self._store(sql, entry)
        return entry

    def _store(self, sql: str, entry: Prepared) -> None:
        entries = self._entries
        entries[sql] = entry
        while len(entries) > self.capacity:
            entries.popitem(last=False)
            self.evictions += 1
