"""The planner against the scan, and the ordered index against its map.

Two engines are fed one generated schedule — inserts, key-changing
updates, range deletes, rollbacks, ``vacuum()``, then a second session's
open transaction that moved one key and inserted another — and differ in
one thing: ``use_indexes`` (E23's scan-baseline arm).  Whatever access
path the planner picks, every statement must answer like the scan: the
same row multisets from inside and outside the open transaction at READ
COMMITTED, SNAPSHOT and READ UNCOMMITTED, the same order wherever ORDER
BY is on a unique key, and the same sort-column sequence where ties make
the rest the engine's choice.

Errors may differ in one direction only.  A candidate set is a superset
of the matching rows, not of the table, so an error that only a row
*outside* it would raise can disappear (``s <= 70 AND w = 1`` over a
VARCHAR ``s`` errors on a scan and not through the ``w`` index); an
error the scan does not raise must never appear.

The second property pins the structure underneath: after any such
schedule — and after ``CREATE INDEX`` on the populated table and a
``clone_schema`` + restore — every single-column index's ``ordered`` is
exactly the sorted non-NULL keys of its ``entries``.
"""

from hypothesis import example, given, settings, strategies as st

from repro.sqlengine import (
    BackupOptions, Engine, SQLError, dump_engine, generic, restore_engine,
)

SCHEMA = (
    "CREATE TABLE t (id INT PRIMARY KEY, u INT UNIQUE, w INT, s VARCHAR)",
    "CREATE INDEX idx_w ON t (w)",
    "CREATE INDEX idx_s ON t (s)",
)
COLUMNS = ("id", "u", "w", "s")
_IDS = st.integers(0, 19)
_US = st.one_of(st.none(), st.integers(0, 19))
_WS = st.one_of(st.none(), st.integers(0, 3))
_SS = st.one_of(st.none(), st.sampled_from(("a", "b", "ab", "", "10", "9")))
_VALUES = {"id": _IDS, "u": _US, "w": _WS, "s": _SS}

# -- schedules ---------------------------------------------------------------

_INSERT = st.tuples(st.just("INSERT INTO t VALUES (?, ?, ?, ?)"),
                    st.tuples(_IDS, _US, _WS, _SS))
_UPDATE = st.sampled_from(COLUMNS).flatmap(
    lambda c: st.tuples(st.just(f"UPDATE t SET {c} = ? WHERE id = ?"),
                        st.tuples(_VALUES[c], _IDS)))
# a key-changing range update whose new keys leave the range: whether it
# collides never depends on the order its rows are visited in
_SHIFT = st.tuples(
    st.just("UPDATE t SET id = id + 20 WHERE id BETWEEN ? AND ?"),
    st.tuples(_IDS, _IDS))
_RANGE_WRITE = st.tuples(
    st.sampled_from((
        "DELETE FROM t WHERE w >= ?", "DELETE FROM t WHERE u < ?",
        "DELETE FROM t WHERE ? < id AND w = 1",
        "UPDATE t SET w = 0 WHERE u BETWEEN ? AND 12",
        "UPDATE t SET u = NULL WHERE id <= ?")),
    st.tuples(st.integers(0, 19)))
_DELETE = st.tuples(st.just("DELETE FROM t WHERE id = ?"), st.tuples(_IDS))
_WRITE = st.one_of(_INSERT, _INSERT, _UPDATE, _SHIFT, _RANGE_WRITE, _DELETE)
_STEP = st.one_of(
    _WRITE, _WRITE,
    st.tuples(st.just("rollback"), st.lists(_WRITE, min_size=1, max_size=3)),
    st.tuples(st.just("vacuum"), st.none()))

# -- queries -----------------------------------------------------------------

_INT_BOUNDS = st.sampled_from(
    ("0", "3", "7", "12", "19", "25", "-1", "2.5", "NULL", "'5'", "TRUE"))
_STR_BOUNDS = st.sampled_from(("'a'", "'ab'", "'b'", "'10'", "''", "NULL",
                               "70"))
_OPS = st.sampled_from(("<", "<=", ">", ">="))


def _range_atoms(column, bounds):
    return st.one_of(
        st.builds("{} {} {}".format, st.just(column), _OPS, bounds),
        st.builds("{} {} {}".format, bounds, _OPS, st.just(column)),
        st.builds("{} {}BETWEEN {} AND {}".format, st.just(column),
                  st.sampled_from(("", "", "NOT ")), bounds, bounds))


_ATOMS = st.one_of(
    _range_atoms("id", _INT_BOUNDS), _range_atoms("u", _INT_BOUNDS),
    _range_atoms("w", _INT_BOUNDS), _range_atoms("s", _STR_BOUNDS),
    _range_atoms("t.id", _INT_BOUNDS),
    st.sampled_from(("w = 1", "u IS NULL", "id IN (1, 2, 30)", "id <> 4",
                     "s = 'a'")))
_WHERES = st.recursive(
    _ATOMS,
    lambda inner: st.builds("({} {} {})".format, inner,
                            st.sampled_from(("AND", "AND", "OR")), inner),
    max_leaves=4)


@st.composite
def _queries(draw):
    """``(sql, sort column index or None, unique sort key)``."""
    where = draw(_WHERES)
    kind = draw(st.integers(0, 5))
    if kind == 0:
        return f"SELECT id, u, w, s FROM t WHERE {where}", None, False
    if kind == 1:
        return f"SELECT COUNT(*), SUM(id), MIN(u) FROM t WHERE {where}", \
            None, False
    if kind == 2:
        return ("SELECT a.id, b.id FROM t a JOIN t b ON a.w = b.w "
                f"WHERE a.id <= {draw(_IDS)} AND b.id > {draw(_IDS)}"), \
            None, False
    column = draw(st.sampled_from(COLUMNS + ("t.id",)))
    direction = draw(st.sampled_from(("", " ASC", " DESC")))
    limit = f" LIMIT {draw(st.integers(0, 6))}"
    if draw(st.booleans()):
        limit += f" OFFSET {draw(st.integers(0, 3))}"
    return (f"SELECT id, u, w, s FROM t WHERE {where} "
            f"ORDER BY {column}{direction}{limit}",
            COLUMNS.index(column.split(".")[-1]), column.endswith("id"))


# -- the two arms ------------------------------------------------------------

class _Arm:
    def __init__(self, use_indexes: bool):
        self.engine = Engine("arm", dialect=generic(), seed=7)
        self.engine.use_indexes = use_indexes
        self.engine.create_database("shop")
        self.writer = self.connect()
        for ddl in SCHEMA:
            self.writer.execute(ddl)

    def connect(self):
        return self.engine.connect(database="shop")

    @staticmethod
    def run(conn, sql, params=()):
        try:
            result = conn.execute(sql, list(params))
        except SQLError:
            return "error"
        return result.rows, result.rowcount

    def step(self, step):
        kind, payload = step
        if kind == "vacuum":
            return self.engine.vacuum()
        if kind == "rollback":
            self.writer.execute("BEGIN")
            outcomes = [self.run(self.writer, sql, params)
                        for sql, params in payload]
            self.writer.execute("ROLLBACK")
            return outcomes
        return self.run(self.writer, kind, payload)


def _agree(indexed, scan, sort_index, unique, query):
    if scan == "error":
        return          # the planner may have skipped the offending row
    assert indexed != "error", query
    (got, got_count), (want, want_count) = indexed, scan
    assert got_count == want_count, query
    if sort_index is None:
        assert sorted(got, key=repr) == sorted(want, key=repr), query
    elif unique:
        assert got == want, query
    else:
        assert [row[sort_index] for row in got] \
            == [row[sort_index] for row in want], query


@settings(max_examples=120, deadline=None)
@given(before=st.lists(_STEP, max_size=14),
       after=st.lists(_STEP, max_size=5),
       moved=_IDS, inserted=st.tuples(st.integers(40, 45), _US, _WS, _SS),
       queries=st.lists(_queries(), min_size=1, max_size=6))
@example(before=[("INSERT INTO t VALUES (?, ?, ?, ?)", (k, 19 - k, 1, "a"))
                 for k in (17, 18, 19)],
         after=[], moved=0, inserted=(40, None, None, None),
         # ORDER BY id sorts by the *output* id, which is u
         queries=[("SELECT id AS u, u AS id FROM t WHERE id > 16 "
                   "ORDER BY id LIMIT 2", 1, True)])
@example(before=[("INSERT INTO t VALUES (?, ?, ?, ?)", (1, 1, 1, "a")),
                 ("INSERT INTO t VALUES (?, ?, ?, ?)", (2, 2, 2, "9"))],
         after=[], moved=0, inserted=(40, None, None, None),
         queries=[("SELECT id, u, w, s FROM t WHERE s <= 70 AND w = 2",
                   None, False)])
def test_every_access_path_answers_like_the_scan(before, after, moved,
                                                 inserted, queries):
    arms = (_Arm(True), _Arm(False))
    for step in before:
        indexed, scan = (arm.step(step) for arm in arms)
        assert indexed == scan, step
    # a reader whose snapshot predates everything below
    old = [arm.connect() for arm in arms]
    for conn in old:
        conn.execute("BEGIN ISOLATION LEVEL SNAPSHOT")
    for step in after:
        indexed, scan = (arm.step(step) for arm in arms)
        assert indexed == scan, step
    # a second session's open transaction: one key moved, one inserted
    inside = [arm.connect() for arm in arms]
    for conn in inside:
        conn.execute("BEGIN")
        _Arm.run(conn, "UPDATE t SET id = id + 100 WHERE id = ?", [moved])
        _Arm.run(conn, "INSERT INTO t VALUES (?, ?, ?, ?)", inserted)
    dirty = [arm.connect() for arm in arms]
    for conn in dirty:
        conn.execute("BEGIN ISOLATION LEVEL READ UNCOMMITTED")
    readers = {"committed": [arm.writer for arm in arms], "snapshot": old,
               "inside": inside, "dirty": dirty}
    for sql, sort_index, unique in queries:
        for name, (indexed, scan) in readers.items():
            _agree(_Arm.run(indexed, sql), _Arm.run(scan, sql),
                   sort_index, unique, (name, sql))
    for arm in arms:
        _assert_ordered_views(arm.engine)


def test_a_scan_only_error_may_disappear_but_never_appear():
    """The one allowed difference, both directions shown."""
    arms = (_Arm(True), _Arm(False))
    for arm in arms:
        arm.writer.execute("INSERT INTO t VALUES (1, 1, 1, 'a')")
        arm.writer.execute("INSERT INTO t VALUES (2, 2, 2, '9')")
    sql = "SELECT id FROM t WHERE s <= 70 AND w = 2"
    assert _Arm.run(arms[0].writer, sql) == ([(2,)], 1)
    assert _Arm.run(arms[1].writer, sql) == "error"
    # inside the candidate set the error is everybody's
    sql = "SELECT id FROM t WHERE s <= 70 AND w >= 1"
    assert _Arm.run(arms[0].writer, sql) == "error"
    assert arms[0].engine.executor.last_access_paths[0].startswith(
        "index-range t.idx_w")


# -- the ordered view --------------------------------------------------------

def _assert_ordered_views(engine):
    table = engine.database("shop").table("t")
    for index in table.indexes.values():
        if len(index.columns) != 1:
            assert index.ordered is None
            continue
        assert index.ordered == sorted(
            key for key in index.entries if key[0] is not None), index


@settings(max_examples=60, deadline=None)
@given(steps=st.lists(_STEP, max_size=20), open_write=_INSERT)
def test_ordered_view_is_the_sorted_keys_of_the_map(steps, open_write):
    arm = _Arm(True)
    for step in steps:
        arm.step(step)
        _assert_ordered_views(arm.engine)
    other = arm.connect()
    other.execute("BEGIN")
    _Arm.run(other, *open_write)
    # CREATE INDEX on the populated table, single- and multi-column
    arm.writer.execute("CREATE INDEX idx_u2 ON t (u)")
    arm.writer.execute("CREATE INDEX idx_ws ON t (w, s)")
    _assert_ordered_views(arm.engine)
    other.execute("ROLLBACK")
    arm.engine.vacuum()
    _assert_ordered_views(arm.engine)
    # clone_schema + restore: a rebuilt replica's views repopulate
    clone = Engine("clone", dialect=generic())
    restore_engine(clone, dump_engine(arm.engine, BackupOptions.full_clone()))
    _assert_ordered_views(clone)
    rebuilt = clone.database("shop").table("t")
    assert set(rebuilt.indexes) \
        == set(arm.engine.database("shop").table("t").indexes)
    for name, index in rebuilt.indexes.items():
        assert index.ordered == arm.engine.database("shop") \
            .table("t").indexes[name].ordered


def test_a_key_that_will_not_order_drops_the_view_for_good():
    engine = Engine("nan", dialect=generic())
    engine.create_database("shop")
    conn = engine.connect(database="shop")
    conn.execute("CREATE TABLE f (x FLOAT UNIQUE, y INT)")
    for x in (1.0, 3.0):
        conn.execute("INSERT INTO f VALUES (?, 0)", [x])
    index = engine.database("shop").table("f").index_for_columns(("x",))
    assert index.ordered == [(1.0,), (3.0,)]
    conn.execute("INSERT INTO f VALUES ('nan', 0)")
    assert index.ordered is None
    conn.execute("INSERT INTO f VALUES (0.5, 0)")
    conn.execute("DELETE FROM f WHERE x <> x")
    engine.vacuum()
    assert index.ordered is None
    # in doubt, scan — and answer
    assert sorted(conn.execute(
        "SELECT x FROM f WHERE x < 2").rows) == [(0.5,), (1.0,)]
    assert engine.executor.last_access_paths == ["seq-scan f"]
