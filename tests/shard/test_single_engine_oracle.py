"""A sharded cluster answers like one engine.

The differential test that replaces the routing "compat arms": generated
statements run on a 3-group :class:`ShardedCluster` and on one bare
:class:`Engine` holding the same rows must return the same row multisets
— the same rows in the same order under ``ORDER BY k`` — fail together,
and leave the same table contents, whatever the router decided to pin,
prune to a key range's owners, scatter or split.
"""

import pytest
from hypothesis import example, given, settings, strategies as st

from repro.bench.harness import build_sharded_cluster
from repro.core.errors import MiddlewareError
from repro.shard import HashSharder, RangeSharder
from repro.sqlengine import Engine, SQLError

KEYS = 12
SCHEMA = (
    "CREATE TABLE kv (k INT PRIMARY KEY, g INT, v INT)",
    "CREATE TABLE dim (id INT PRIMARY KEY, k INT, name VARCHAR(8))",
)
SEED = [f"INSERT INTO kv (k, g, v) VALUES ({k}, {k % 2}, {k * 10})"
        for k in range(KEYS)] + [
    "INSERT INTO dim (id, k, name) VALUES (0, 5, 'a')",
    "INSERT INTO dim (id, k, name) VALUES (1, 5, 'b')",
]
SHARDERS = {
    "hash": lambda: HashSharder(3),
    "range": lambda: RangeSharder([3, 7]),
}
# the range arm also runs with one key placed outside its segment
OVERRIDES = {"hash": {}, "range": {5: 2}}
JOIN = ("SELECT kv.k, kv.v, dim.name FROM kv JOIN dim ON kv.g = dim.id "
        "WHERE {}")

# -- generated statements ----------------------------------------------------

# a key spelled as the engine's ``=`` also accepts it: 10, '10', 10.0;
# and a bool, which ``=`` compares by truth value
_KEY_VALUES = st.one_of(st.integers(0, KEYS + 2).map(str),
                        st.integers(0, KEYS + 2).map("'{}'".format),
                        st.integers(0, KEYS + 2).map("{}.0".format),
                        st.just("?"), st.just("NULL"),
                        st.sampled_from(("TRUE", "FALSE")))


_BOUNDS = st.one_of(_KEY_VALUES, st.sampled_from(("2.5", "'6'")))
_COMPARISONS = st.sampled_from(("<", "<=", ">", ">="))


def _key_atoms(columns):
    column = st.sampled_from(columns)
    return st.one_of(
        st.builds("{} = {}".format, column, _KEY_VALUES),
        st.builds("{} = {}".format, _KEY_VALUES, column),
        st.builds("{} IN ({})".format, column,
                  st.lists(_KEY_VALUES, min_size=1, max_size=3)
                  .map(", ".join)),
        _range_atoms(columns))


def _range_atoms(columns):
    column = st.sampled_from(columns)
    return st.one_of(
        st.builds("{} {} {}".format, column, _COMPARISONS, _BOUNDS),
        st.builds("{} {} {}".format, _BOUNDS, _COMPARISONS, column),
        st.builds("{} {}BETWEEN {} AND {}".format, column,
                  st.sampled_from(("", "", "NOT ")), _BOUNDS, _BOUNDS))


def _predicates(key_columns, other_atoms):
    atoms = st.one_of(_key_atoms(key_columns), _key_atoms(key_columns),
                      st.sampled_from(other_atoms))
    return st.recursive(
        atoms,
        lambda inner: st.builds("({} {} {})".format, inner,
                                st.sampled_from(("AND", "OR")), inner),
        max_leaves=4)


_ONE_TABLE = _predicates(("k", "kv.k"), ("v >= 50", "g = 1", "kv.g = 0"))
_TWO_TABLES = _predicates(("kv.k", "dim.k"), ("dim.id = 1", "kv.v >= 50"))
_TOP = st.builds(
    "SELECT k, v FROM kv WHERE {} ORDER BY k{} LIMIT {}{}".format,
    _range_atoms(("k", "kv.k")), st.sampled_from(("", " DESC")),
    st.integers(0, 5), st.sampled_from(("", " OFFSET 1", " OFFSET 3")))
_TEXTS = st.one_of(
    _ONE_TABLE.map("SELECT k, g, v FROM kv WHERE {}".format),
    _TOP,
    _TWO_TABLES.map(JOIN.format),
    _ONE_TABLE.map("UPDATE kv SET v = v + 1 WHERE {}".format),
    _ONE_TABLE.map("DELETE FROM kv WHERE {}".format),
    st.sampled_from(("UPDATE kv SET v = v + 100 WHERE g = 1",
                     "DELETE FROM kv WHERE v >= 90",
                     "SELECT COUNT(*), SUM(v) FROM kv",
                     "SELECT MAX(v), MIN(v) FROM kv")),
)
# a ``;``-script: every statement runs once, the last one answers
_SCRIPTS = st.builds("{}; {}".format, _TEXTS, _TEXTS)


@st.composite
def _statements(draw):
    sql = draw(st.one_of(_TEXTS, _TEXTS, _TEXTS, _SCRIPTS))
    params = draw(st.lists(
        st.one_of(st.integers(0, KEYS + 2), st.none(),
                  st.integers(0, KEYS + 2).map(str),
                  st.integers(0, KEYS + 2).map(float), st.booleans()),
        min_size=sql.count("?"), max_size=sql.count("?")))
    if params and draw(st.integers(0, 7)) == 0:
        params.pop()        # a parameter the client forgot to bind
    return sql, params


# -- the two systems ---------------------------------------------------------

def _sharded(kind):
    cluster = build_sharded_cluster(shards=3, replicas=1)
    session = cluster.connect(database="shop")
    for ddl in SCHEMA:
        session.execute(ddl)
    spec = cluster.register_table("kv", "k", SHARDERS[kind]())
    spec.overrides.update(OVERRIDES[kind])
    for sql in SEED:
        session.execute(sql)
    return session


def _single():
    engine = Engine("oracle")
    engine.create_database("shop")
    conn = engine.connect(database="shop")
    for sql in SCHEMA + tuple(SEED):
        conn.execute(sql)
    return conn


def _outcome(front, sql, params):
    try:
        result = front.execute(sql, list(params))
    except (SQLError, MiddlewareError):
        return "error"
    # k is unique: the order is the answer (of a script's last statement)
    if "ORDER BY k" in sql.rsplit(";", 1)[-1]:
        return result.rows, result.rowcount
    return sorted(result.rows, key=repr), result.rowcount


@pytest.mark.parametrize("kind", sorted(SHARDERS))
@settings(max_examples=50, deadline=None)
@given(statements=st.lists(_statements(), min_size=1, max_size=6))
@example(statements=[(JOIN.format("dim.k = 5"), [])])
@example(statements=[(JOIN.format("dim.k IN (?, 5) AND kv.v >= 0"), [5])])
@example(statements=[("DELETE FROM kv WHERE kv.k = ? OR 3 = k", [None]),
                     ("UPDATE kv SET v = v + 1 WHERE k IN (1, ?)", [])])
# a key spelled as a string or a float hashes where the integer does
@example(statements=[("SELECT k, v FROM kv WHERE k = '10'", []),
                     ("SELECT k, v FROM kv WHERE k = ?", ["10"]),
                     ("SELECT k, v FROM kv WHERE k IN (10.0, '11', ?)",
                      [5.0]),
                     ("UPDATE kv SET v = v + 1 WHERE k = '10'; "
                      "UPDATE kv SET v = v + 1 WHERE '10' = k", []),
                     ("DELETE FROM kv WHERE k = 11.0", []),
                     ("SELECT MAX(v), MIN(v) FROM kv", [])])
# a key value the range bounds cannot order pins nothing
@example(statements=[("SELECT k, v FROM kv WHERE k = '7'", []),
                     ("SELECT k, v FROM kv WHERE k = ?", ["7"]),
                     ("UPDATE kv SET v = v WHERE k = 'abc'", [])])
# a bool matches every non-zero key: it pins no key and bounds no range
@example(statements=[("SELECT k FROM kv WHERE k = ?", [True]),
                     ("SELECT k, v FROM kv WHERE k IN (FALSE, 7)", []),
                     ("SELECT k FROM kv WHERE k <= TRUE ORDER BY k LIMIT 3",
                      []),
                     ("UPDATE kv SET v = v + 1 WHERE k = TRUE", [])])
# a range straddling a bound, the overridden key inside and outside it
@example(statements=[("SELECT k, v FROM kv WHERE k BETWEEN 3 AND 5 "
                      "ORDER BY k DESC LIMIT 5 OFFSET 1", []),
                     ("SELECT COUNT(*), SUM(v) FROM kv WHERE 4 < k", []),
                     ("SELECT k, g, v FROM kv WHERE k < 5 OR k >= ?", [11]),
                     ("SELECT k, g, v FROM kv WHERE k > 'x' AND k < 3", [])])
def test_a_sharded_cluster_answers_like_one_engine(kind, statements):
    sharded, single = _sharded(kind), _single()
    for sql, params in statements:
        got = _outcome(sharded, sql, params)
        expected = _outcome(single, sql, params)
        if len(params) < sql.count("?") and "error" in (got, expected):
            # an unbound parameter is an error only where a row reaches
            # it, and which rows are looked at is each planner's
            # business; that neither side kept an effect is checked below
            continue
        assert got == expected, (sql, params)
    for table in ("kv", "dim"):
        contents = f"SELECT * FROM {table}"
        assert _outcome(sharded, contents, []) \
            == _outcome(single, contents, []), table


# -- integers past 2**53 order and group by their own value ------------------

BIG = 2 ** 53
BIG_QUERIES = {
    "SELECT DISTINCT v FROM big ORDER BY v": [(BIG,), (BIG + 1,)],
    "SELECT v, COUNT(*) FROM big GROUP BY v ORDER BY v":
        [(BIG, 2), (BIG + 1, 1)],
    "SELECT v FROM big ORDER BY v DESC": [(BIG + 1,), (BIG,), (BIG,)],
    "SELECT MAX(v), MIN(v) FROM big": [(BIG + 1, BIG)],
}


@pytest.mark.parametrize("front", ["engine", "sharded"])
def test_integers_past_2_53_are_ordered_and_grouped_exactly(front):
    """``float(2**53 + 1) == float(2**53)``: a sort key that converts
    merges the two into one DISTINCT row and one group and cannot order
    them; the shard merge re-sorts with the same key."""
    if front == "engine":
        engine = Engine("oracle")
        engine.create_database("shop")
        session = engine.connect(database="shop")
        session.execute("CREATE TABLE big (id INT PRIMARY KEY, v BIGINT)")
    else:
        session = build_sharded_cluster(shards=3, replicas=1).connect(
            database="shop")
        session.execute("CREATE TABLE big (id INT PRIMARY KEY, v BIGINT)")
        session.cluster.register_table("big", "id", HashSharder(3))
    for key, value in ((1, BIG + 1), (2, BIG), (3, BIG)):
        session.execute("INSERT INTO big (id, v) VALUES (?, ?)",
                        [key, value])
    for sql, rows in BIG_QUERIES.items():
        assert session.execute(sql).rows == rows, sql
