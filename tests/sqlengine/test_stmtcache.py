"""The shared statement cache: one shape, one tree, bounded, honest
about parse errors — and the bounded, counted LRU under it and under
every other per-statement memo."""

import weakref

import pytest
from hypothesis import given, settings, strategies as st

from repro.sqlengine import Engine, ParseError, parse_script
from repro.sqlengine import ast_nodes as ast
from repro.sqlengine.parser import parameterize_literals
from repro.sqlengine.stmtcache import CAPACITY, Memo, StatementCache


def test_literal_texts_share_their_template():
    cache = StatementCache()
    first, text, values = cache.lookup("SELECT v FROM kv WHERE k = 7")
    second, _, other = cache.lookup("SELECT v FROM kv WHERE k = 4242")
    assert second is first
    assert text == "SELECT v FROM kv WHERE k = ?"
    assert (values, other) == ((7,), (4242,))
    assert (cache.hits, cache.misses) == (1, 1)
    # the template itself, as a client using explicit params sends it
    explicit, text, params = cache.lookup(text, [9])
    assert explicit is first and params == [9]


def test_explicit_params_and_unrewritable_texts_pass_through():
    cache = StatementCache()
    params = [3]
    # explicit params: never rewritten, even with a literal beside them
    _, text, out = cache.lookup(
        "SELECT v FROM kv WHERE k = ? LIMIT 10", params)
    assert text.endswith("LIMIT 10") and out is params
    for sql in ("SELECT v FROM kv WHERE v = 1.5",       # floats stay inline
                "UPDATE kv SET v = 1; SELECT 2",        # script gate
                "CREATE INDEX kv_v ON kv (v)",          # verb gate
                "BEGIN"):
        statements, text, values = cache.lookup(sql)
        assert text == sql and values == ()
        assert cache.lookup(sql)[0] is statements


def test_a_script_is_its_statements_each_under_its_own_text():
    """``script`` is what a front door iterates: one unit per statement,
    and the text of a unit parses to that statement alone — a stretch
    of the script resolved as if sent by itself, so it shares the
    standalone statement's template and a ``;`` inside a procedure body
    cuts nothing."""
    cache = StatementCache()
    alone, template, _ = cache.lookup("SELECT v FROM kv WHERE k = 7")
    procedure = ("CREATE PROCEDURE p(a) BEGIN UPDATE t SET x = a; "
                 "SELECT * FROM t; END")
    units = cache.script(
        f"SELECT v FROM kv WHERE k = 2 ;\n UPDATE kv SET s = 'a;b' "
        f"WHERE k = 4;{procedure};")
    assert [(text, values) for _, text, values in units] == [
        (template, (2,)),
        ("UPDATE kv SET s = 'a;b' WHERE k = 4", ()),
        (procedure, ()),
    ]
    assert units[0][0] is alone[0]
    for statement, text, _values in units:
        assert cache.parse(text) == [statement]
    # one statement, bound or not, is lookup's own triple; nothing is
    # the empty script
    assert cache.script(template, [9]) == ((alone[0], template, [9]),)
    assert list(cache.script(" ; ")) == []
    # the script binds the caller's params into every statement
    both = cache.script("SELECT 1 WHERE 1 = ?; SELECT 2 WHERE 2 = ?", [5])
    assert [values for _, _, values in both] == [[5], [5]]


def test_values_cannot_be_mutated_through_the_cache():
    cache = StatementCache()
    _, _, values = cache.lookup("SELECT v FROM kv WHERE k = 7")
    bound = list(values)
    bound.append(99)
    assert cache.lookup("SELECT v FROM kv WHERE k = 7")[2] == (7,)
    assert isinstance(values, tuple)


def test_parse_error_is_raised_every_time_and_never_cached():
    cache = StatementCache()
    for _ in range(3):
        with pytest.raises(ParseError):
            cache.lookup("SELEC v FROM kv WHERE k = 1")
        with pytest.raises(ParseError):
            cache.parse("SELEC 1")
    assert cache.hits == 0 and cache.misses == 0
    assert "SELEC 1" not in cache


def test_plain_parse_of_a_rewritable_text_keeps_its_literals():
    """``Engine.parse`` promises the trees of exactly the text."""
    cache = StatementCache()
    cache.lookup("SELECT 1")
    plain = cache.parse("SELECT 1")
    assert plain is not cache.lookup("SELECT 2")[0]
    assert cache.lookup("SELECT 1") == (plain, "SELECT 1", ())


def test_lru_bound_and_eviction_count():
    cache = StatementCache(capacity=8)
    for n in range(50):
        cache.lookup(f"SELECT v FROM kv WHERE v = {n}.5")
    assert len(cache) == 8
    assert cache.evictions == 42
    # a hot template survives any number of cold literal texts
    for n in range(50):
        cache.lookup(f"SELECT v FROM kv WHERE k = {n}")
    assert "SELECT v FROM kv WHERE k = ?" in cache
    assert len(cache) == 8


def test_order_by_ordinal_survives_literal_rewriting():
    """``ORDER BY 2`` names an output column; rewritten to a bound
    parameter it would sort by a constant."""
    assert parameterize_literals("SELECT a, b FROM t ORDER BY 2") is None
    assert parameterize_literals(
        "SELECT a, b FROM t WHERE a > 0 ORDER BY 2 DESC LIMIT 3") == (
            "SELECT a, b FROM t WHERE a > ? ORDER BY 2 DESC LIMIT 3", [0])
    engine = Engine("ordinal")
    engine.create_database("d")
    conn = engine.connect(database="d")
    conn.execute("CREATE TABLE t (a INT PRIMARY KEY, b INT)")
    for a, b in [(1, 30), (2, 10), (3, 20)]:
        conn.execute(f"INSERT INTO t VALUES ({a}, {b})")
    assert conn.execute("SELECT a, b FROM t WHERE a > 0 ORDER BY 2").rows \
        == [(2, 10), (3, 20), (1, 30)]


def test_statements_without_a_semicolon_are_never_one_template():
    """Each statement numbers its own params from 0, so one template for
    two statements would bind the first one's values into both."""
    cache = StatementCache()
    sql = "SELECT v FROM kv WHERE k = 1 DELETE FROM kv WHERE k = 2"
    statements, text, values = cache.lookup(sql)
    assert len(statements) == 2 and (text, values) == (sql, ())
    assert [(text, values) for _, text, values in cache.script(sql)] == [
        ("SELECT v FROM kv WHERE k = ?", (1,)),
        ("DELETE FROM kv WHERE k = ?", (2,)),
    ]


# -- the literal scanner reads text the way the tokenizer does --------------

def _tree(node, values=()):
    """``node`` as nested tuples of class names and typed field values,
    every ``Param(i)`` read as ``Literal(values[i])``."""
    if isinstance(node, ast.Param):
        node = ast.Literal(values[node.index])
    if isinstance(node, ast.Node):
        return (type(node).__name__,) + tuple(
            _tree(getattr(node, slot), values)
            for cls in type(node).__mro__
            for slot in getattr(cls, "__slots__", ()))
    if isinstance(node, (list, tuple)):
        return tuple(_tree(item, values) for item in node)
    return type(node).__name__, node


_INLINE = object()      # a literal the scan leaves in the text

# what the scan must step over between tokens: comments holding digits,
# quotes and ORDER BY
_GAPS = st.sampled_from([" ", "  ", "\n", "\t", " /* 3 */ ", " -- 4 'x\n",
                         "/**/", " /* ' ORDER BY 2 */ ", "\n-- 5\n"])
# string bodies: digits, doubled quotes, and everything the scan must not
# read inside a string (a ``?`` or ``;`` anywhere makes the text
# unrewritable)
_BODIES = st.lists(st.sampled_from(
    ["", "a", "it's", "'", "7", "-3", "1.5", " ", "--", "/*", "*/", '"',
     "`", "\n", "ORDER BY 2", "order", "x y", "?", ";"]),
    max_size=4).map("".join)
_LITERALS = st.one_of(
    st.integers(0, 10 ** 12).map(lambda n: (str(n), n)),
    st.integers(0, 99).map(lambda n: (f"-{n}", n)),
    st.sampled_from(["1.5", ".25", "3e2", "1.5e-3", "7E+2", "2.0", "NULL",
                     "TRUE"]).map(lambda text: (text, _INLINE)),
    _BODIES.map(lambda body: ("'" + body.replace("'", "''") + "'", body)),
)
_NAMES = st.sampled_from(["k", "v", "s", "kv.k", "c2", "kv.s_1", '"k 2"',
                          "`v3`", '"s"'])
_ORDER_BY = st.sampled_from(["ORDER BY", "order by", "ORDER /* 1 */ BY",
                             "Order\nBy"])
_UNTERMINATED = st.sampled_from([" AND s = 'oops", " /* 5", ' AND "k 1 = 2',
                                 " AND `v = 3"])


@st.composite
def _texts(draw):
    """``(sql, values)``: a DML text and the values the scan must take out
    of it in order (``None``: it must not rewrite the text)."""
    parts = []          # plain text, or a literal's (text, value)

    def gap():
        parts.append(draw(_GAPS))

    def literal():
        parts.append(draw(_LITERALS))

    def condition():
        parts.append(draw(_NAMES))
        form = draw(st.sampled_from(["=", "<>", "IN", "BETWEEN", "LIKE"]))
        if form == "IN":
            parts.append(" IN (")
            literal()
            parts.append(",")
            gap()
            literal()
            parts.append(")")
        elif form == "BETWEEN":
            parts.append(" BETWEEN ")
            literal()
            parts.append(" AND ")
            literal()
        else:
            gap()
            parts.append(form)
            gap()
            literal()

    def where():
        gap()
        parts.append("WHERE ")
        condition()
        for _ in range(draw(st.integers(0, 2))):
            parts.append(draw(st.sampled_from([" AND ", " OR "])))
            condition()

    verb = draw(st.sampled_from(["SELECT", "INSERT", "UPDATE", "DELETE"]))
    if verb == "SELECT":
        parts.append("SELECT ")
        parts.append(draw(_NAMES))
        if draw(st.booleans()):
            parts.append(draw(st.sampled_from([' AS "v 2"', " AS `x1`"])))
        parts.append(", ")
        literal()
        gap()
        parts.append("FROM kv")
        where()
    elif verb == "INSERT":
        parts.append("INSERT INTO kv (k, v, s) VALUES ")
        for row in range(draw(st.integers(1, 4))):
            parts.append(", (" if row else "(")
            literal()
            parts.append(", ")
            literal()
            parts.append(",")
            gap()
            literal()
            parts.append(")")
    elif verb == "UPDATE":
        parts.append("UPDATE kv SET v = ")
        literal()
        parts.append(", s =")
        gap()
        literal()
        where()
    else:
        parts.append("DELETE FROM kv")
        where()
    rewritten = [value for part in parts if isinstance(part, tuple)
                 for value in [part[1]] if value is not _INLINE]
    tail = draw(st.sampled_from(["", "order", "limit", "unterminated"]))
    if verb != "SELECT" and tail in ("order", "limit"):
        tail = ""
    if tail == "order":     # an ORDER BY and all after it stay as written
        gap()
        parts.append(draw(_ORDER_BY) + " ")
        for item in range(draw(st.integers(1, 3))):
            parts.append(", " if item else "")
            parts.append(draw(st.one_of(_NAMES, _LITERALS.map(
                lambda literal: literal[0]))))
            parts.append(draw(st.sampled_from(["", " DESC", " ASC"])))
        if draw(st.booleans()):
            parts.append(" LIMIT 3")
    elif tail == "limit":
        limit = draw(st.integers(0, 50))
        parts.append(f" LIMIT {limit}")
        rewritten.append(limit)
    elif tail == "unterminated":
        parts.append(draw(_UNTERMINATED))
        rewritten = []
    sql = "".join(part if isinstance(part, str) else part[0]
                  for part in parts)
    if "?" in sql or ";" in sql or not rewritten:
        return sql, None
    return sql, rewritten


def _scan_property(max_examples):
    """The property at ``max_examples`` (a fresh ``given`` each time:
    tier-1 and the soak run the same body)."""
    @settings(max_examples=max_examples, deadline=None)
    @given(case=_texts())
    def scan(case):
        sql, expected = case
        prepared = parameterize_literals(sql)
        try:
            fresh = _tree(parse_script(sql))
        except ParseError as error:
            # never rewritten into something that parses, and the text's
            # own error every time
            assert expected is None and prepared is None, sql
            cache = StatementCache()
            for _ in range(2):
                with pytest.raises(ParseError) as raised:
                    cache.lookup(sql)
                assert str(raised.value) == str(error)
            return
        if expected is None:
            assert prepared is None, sql
        else:
            template, values = prepared
            assert [(type(v), v) for v in values] \
                == [(type(v), v) for v in expected], sql
            assert _tree(parse_script(template), values) == fresh, sql
        statements, _text, values = StatementCache().lookup(sql)
        assert _tree(statements, values) == fresh, sql
    return scan


test_the_scan_rewrites_whole_tokens_only = _scan_property(300)
test_the_scan_rewrites_whole_tokens_only_soak = pytest.mark.soak(
    _scan_property(6000))


@pytest.mark.parametrize("sql, template, values", [
    ("UPDATE kv SET v = 1 -- 4\n WHERE k = 7",
     "UPDATE kv SET v = ? -- 4\n WHERE k = ?", [1, 7]),
    ("SELECT v FROM kv /* 3 */ WHERE k = 7",
     "SELECT v FROM kv /* 3 */ WHERE k = ?", [7]),
    ('SELECT v AS "v 2" FROM kv WHERE k = 7',
     'SELECT v AS "v 2" FROM kv WHERE k = ?', [7]),
    ("INSERT INTO kv VALUES (1, 'it''s 5'), (-2, 'x')",
     "INSERT INTO kv VALUES (?, ?), (-?, ?)", [1, "it's 5", 2, "x"]),
    # one number token each, left inline: never a ``1e-?``
    ("SELECT v FROM kv WHERE v > 1e-5 AND v < .5 AND k = t1.k2", None, None),
    ("SELECT s FROM kv WHERE s = 'a' ORDER BY 'b', 2",
     "SELECT s FROM kv WHERE s = ? ORDER BY 'b', 2", ["a"]),
    ("SELECT s FROM kv WHERE s = 'open", None, None),
    ("SELECT s FROM kv /* 5", None, None),
], ids=["line-comment", "block-comment", "quoted-alias", "strings",
        "number-tokens", "order-by-tail", "open-quote", "open-comment"])
def test_the_scan_on_the_cases_that_shifted_values(sql, template, values):
    expected = None if template is None else (template, values)
    assert parameterize_literals(sql) == expected


def test_engine_lookup_shares_templates_and_counts_by_increment():
    engine = Engine("contract")
    # not rewritable: its own trees, one parse, one count
    text = "SELECT v FROM kv WHERE s = 'x?'"
    [(statement, sql, values)] = engine.script(text)
    assert (sql, values) == (text, ()) and text in engine._parse_cache
    assert engine.stats["parse_cache_misses"] == 1
    assert engine.stats["statements"] == 1
    engine.stats.update(parse_cache_misses=0, statements=0)

    [(statement, template, values)] = engine.script(
        "SELECT v FROM kv WHERE k = 7")
    [(again, _template, other)] = engine.script(
        "SELECT v FROM kv WHERE k = 8")
    assert template == "SELECT v FROM kv WHERE k = ?"
    assert again is statement and (values, other) == ((7,), (8,))
    engine.script("SELECT v FROM kv WHERE k = 7")
    assert engine.stats["parse_cache_misses"] == 1
    assert engine.stats["parse_cache_hits"] == 2
    assert engine.stats["statements"] == 3
    # bound parameters: the text as sent, never rewritten
    assert engine.script("SELECT v FROM kv WHERE k = 7", [1])[0][1:] \
        == ("SELECT v FROM kv WHERE k = 7", [1])

    # the entries are counters of their own, not a mirror of the cache's
    engine.stats["parse_cache_hits"] = 0
    engine.parse("SELECT v FROM kv WHERE k = ?")
    assert engine.stats["parse_cache_hits"] == 1


# -- the Memo every per-statement memo is an instance of --------------------

def test_memo_evicts_least_recently_used_and_counts():
    memo = Memo(capacity=3)
    for key in "abc":
        assert memo.get(key) is None
        memo.put(key, key.upper())
    assert (memo.hits, memo.misses, memo.evictions) == (0, 3, 0)
    assert memo.get("a") == "A"         # refresh a: b is now the oldest
    memo.put("d", "D")
    assert "b" not in memo and "a" in memo and len(memo) == 3
    assert (memo.hits, memo.misses, memo.evictions) == (1, 3, 1)
    # one entry goes per entry over capacity: full, never reset to empty
    for n in range(100):
        memo.put(n, n)
        assert len(memo) == 3
    assert memo.evictions == 101
    memo.put(99, "again")               # overwriting evicts nothing
    assert memo.evictions == 101 and memo.get(99) == "again"
    assert Memo().capacity == CAPACITY and Memo(0).capacity == 1
    memo.clear()
    assert len(memo) == 0 and memo.evictions == 101


class _Node:
    __slots__ = ("__weakref__",)


def test_memo_identity_keys_guard_stamp_and_sub_key():
    memo = Memo(capacity=4)
    node, other = _Node(), _Node()
    assert memo.get_for(node) is None
    memo.put_for(node, "plain")
    memo.put_for(node, "left", key="a")
    memo.put_for(node, None, stamp=7, key="none")
    assert memo.get_for(node) == "plain"
    assert memo.get_for(node, key="a") == "left"
    assert memo.get_for(other) is None and memo.get_for(node, key="b") is None
    # a stored None is a hit, told from a miss by the caller's default
    missing = object()
    assert memo.get_for(node, 7, "none", missing) is None
    assert memo.get_for(node, 8, "none", missing) is missing
    assert (memo.hits, memo.misses) == (3, 4)
    # a moved stamp is a miss, and the refill takes the same slot
    memo.put_for(node, "fresh", stamp=8, key="none")
    assert len(memo) == 3 and memo.get_for(node, 8, "none") == "fresh"


def test_memo_identity_keys_survive_id_reuse():
    memo = Memo()
    node = _Node()
    memo.put_for(node, "mine")
    # the entry pins its anchor, so its id cannot be recycled while cached
    alive = weakref.ref(node)
    recorded = id(node)
    del node
    assert alive() is not None
    # and were an id ever to collide, the ``is`` check refuses the entry
    impostor = _Node()
    memo._entries[(id(impostor), None)] = memo._entries.pop((recorded, None))
    assert memo.get_for(impostor) is None
    assert memo.get_for(alive()) is None     # moved away above
