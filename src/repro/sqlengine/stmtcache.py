"""The statement cache: the one way SQL *text* becomes executable trees.

Every entry point that accepts text — :class:`~repro.sqlengine.engine.Engine`,
``ReplicationMiddleware`` sessions, ``ShardedCluster`` sessions, the
timed drivers — owns one :class:`StatementCache` and asks it for
``(statement, text, values)`` per statement of the text
(:meth:`StatementCache.script`).  OLTP traffic and bulk loads are a few
statement shapes with different values, so a DML text's integer and
string literals are first rewritten to a ``?`` template
(:func:`parameterize_literals`) and it shares that template's trees.

The cache hands out the *same* tree objects for the same shape.  That is
the point: the route-plan, analysis and access-shape memos downstream are
keyed by tree identity and only hit when the tree is reused.  It is also
the contract — cached trees are shared across sessions, groups and
replicas and must be treated as read-only.

Those memos, and this cache, are all one :class:`Memo`: one capacity,
LRU eviction, ``hits`` / ``misses`` / ``evictions`` on every instance.
"""

from __future__ import annotations

from collections import OrderedDict
from typing import Any, Hashable, List, Optional, Sequence, Tuple

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

#: ``(statement, text, values)``: one statement and *its own* pair, which
#: re-executes as that statement and nothing else
Unit = Tuple[ast.Statement, str, Sequence[Any]]

# stored under a template that does not parse, so a pathological shape
# costs one attempt, not one per key; never returned to a caller
_UNPARSABLE = (None, "", ())


class Memo:
    """A bounded LRU with ``hits`` / ``misses`` / ``evictions`` counters:
    the one mechanism behind every per-statement memo in the stack.

    ``get`` / ``put`` key by value.  ``get_for`` / ``put_for`` key by the
    *identity* of an object that cannot be hashed by value or carry the
    result itself (an AST node: ``__slots__``, shared, read-only), plus
    an optional hashable ``key``.  The entry keeps a strong reference to
    that object and a hit requires ``is``, so a recycled ``id()`` can
    never answer for a dead one; it also carries the caller's ``stamp``
    (a schema epoch, a map version) and a hit requires it unchanged, so
    a stale entry is a miss that the next ``put_for`` overwrites in
    place.  The least recently used entry is evicted at capacity."""

    __slots__ = ("capacity", "_entries", "hits", "misses", "evictions")

    def __init__(self, capacity: int = CAPACITY):
        self.capacity = max(1, capacity)
        self._entries: "OrderedDict[Hashable, Any]" = OrderedDict()
        self.hits = 0
        self.misses = 0
        self.evictions = 0

    def __len__(self) -> int:
        return len(self._entries)

    def __contains__(self, key: Hashable) -> bool:
        return key in self._entries

    def get(self, key: Hashable) -> Any:
        """The value stored under ``key``, or ``None`` (never a value)."""
        value = self._entries.get(key)
        if value is None:
            self.misses += 1
            return None
        self._entries.move_to_end(key)
        self.hits += 1
        return value

    def put(self, key: Hashable, value: Any) -> None:
        entries = self._entries
        entries[key] = value
        while len(entries) > self.capacity:
            entries.popitem(last=False)
            self.evictions += 1

    def get_for(self, anchor: object, stamp: Any = None,
                key: Hashable = None, default: Any = None) -> Any:
        """The value stored for the object ``anchor`` (and ``key``) under
        an unchanged ``stamp``, else ``default``."""
        slot_key = (id(anchor), key)
        slot = self._entries.get(slot_key)
        if slot is None or slot[0] is not anchor or slot[1] != stamp:
            self.misses += 1
            return default
        self._entries.move_to_end(slot_key)
        self.hits += 1
        return slot[2]

    def put_for(self, anchor: object, value: Any, stamp: Any = None,
                key: Hashable = None) -> None:
        self.put((id(anchor), key), (anchor, stamp, value))

    def clear(self) -> None:
        """Drop every entry (the counters keep counting)."""
        self._entries.clear()


class StatementCache(Memo):
    """Bounded LRU from SQL text to parsed statements.

    A text maps either to its own trees (``values == ()``, followed by
    each statement's own stretch of the text) or, when it is a DML
    statement with inlined literals, to its template's trees plus the
    extracted values.  ``hits`` counts lookups that needed no parse,
    ``misses`` parses performed, ``evictions`` entries pushed out at
    capacity.  A text that fails to parse raises its ``ParseError`` on
    every call and is never stored as a success."""

    __slots__ = ()

    def parse(self, sql: str) -> List[ast.Statement]:
        """The trees of exactly ``sql`` (no literal rewriting)."""
        entry = self._entries.get(sql)
        if entry is not None and entry is not _UNPARSABLE and not entry[2]:
            self._entries.move_to_end(sql)
            self.hits += 1
            return entry[0]
        texts: List[str] = []
        statements = parse_script(sql, texts)
        self.misses += 1
        self.put(sql, (statements, sql, (), texts))
        return statements

    def script(self, sql: str,
               params: Optional[Sequence[Any]] = None) -> Sequence[Unit]:
        """What to execute for ``sql`` as sent with ``params``, one
        :data:`Unit` per statement — what a front door iterates.

        The text of a unit is the identity of that one statement: the
        result cache keys on it, statement replication logs and replays
        it.  The text of a ``;``-script names no single statement, so
        each of its statements is resolved through :meth:`lookup` from
        its own stretch of the script, as if the client had sent it
        alone with the same ``params``."""
        statements, text, values = self.lookup(sql, params)
        if len(statements) == 1:
            return ((statements[0], text, values),)
        units = []
        for own in self._entries[sql][3]:
            (statement,), text, values = self.lookup(own, params)
            units.append((statement, text, values))
        return units

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
        is one DML statement with inlined literals, else ``None`` — without
        parsing ``sql`` itself, which is then the caller's to parse."""
        entry = self._entries.get(sql)
        if entry is not None:
            if not entry[2]:
                return None    # known as its own trees, or unparsable
            self._entries.move_to_end(sql)
            self.hits += 1
            return entry
        prepared = parameterize_literals(sql)
        if prepared is None or self._entries.get(prepared[0]) is _UNPARSABLE:
            return None
        template, values = prepared
        try:
            statements = self.parse(template)
        except SQLError:
            statements = ()
        if len(statements) != 1:    # unparsable, or statements without ';'
            self.put(template, _UNPARSABLE)
            return None
        entry = (statements, template, tuple(values))
        self.put(sql, entry)
        return entry
