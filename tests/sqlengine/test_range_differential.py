"""The planner against the scan, the scan against brute force, and the
ordered index against its map.

Two engines are fed one generated schedule — inserts, key-changing
updates, range deletes, rollbacks, ``vacuum()``, then a second session's
open transaction that moved one key, inserted another, deleted a third
and updated a fourth in place — and differ in one thing: ``use_indexes``
(E23's scan-baseline arm).  Whatever access path the planner picks,
every statement must answer like the scan: the same row multisets from
inside and outside the open transaction at READ COMMITTED, SNAPSHOT,
READ UNCOMMITTED and SERIALIZABLE, the same order wherever ORDER BY is
on a unique key, and the same sort-column sequence where ties make the
rest the engine's choice.  Point reads (``id = ?``, ``u = ?``) of every
key that transaction touched run from each of those readers, and again
right after the closing ``vacuum()``: a probe that meets one candidate
on a one-version chain answers it by the visibility test written out,
and must agree with the scan's.  The statements are the shapes of the
``scan_range`` workload and more: row reads, ``ORDER BY … LIMIT``,
``COUNT`` / ``SUM`` / ``AVG`` / ``MIN`` / ``MAX`` with and without a
``GROUP BY``, over literal ranges and over ``col = ?`` / ``col BETWEEN ?
AND ?`` bound to NULL, to text and to numbers alike.

A third arm answers every statement the scan answers, errors included,
by brute force over ``table.versions()`` (see its section below).  Every
``vacuum()`` — one more once the old reader commits, which collects what
it held above the horizon — must remove exactly the versions a walk of
every chain would.

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

import pytest
from hypothesis import example, given, settings, strategies as st

from repro.sqlengine import (
    BackupOptions, Engine, SQLError, TransactionStatus, TypeError_,
    dump_engine, generic, parse_script, restore_engine,
)
from repro.sqlengine import ast_nodes as ast
from repro.sqlengine.mvcc import READ_UNCOMMITTED

from . import reference_interpreter as reference
from .reference_interpreter import sort_key

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

# what a client can bind beside a number: NULL, text that is a number and
# text that is not, a float, a bool
_PARAMS = st.sampled_from((None, 0, 3, 7, 12, 19, -1, 2.5, "5", "a", "",
                           "10", True))
_BOUND = st.sampled_from(COLUMNS).flatmap(lambda column: st.one_of(
    st.tuples(st.just(f"{column} = ?"), st.tuples(_PARAMS)),
    st.tuples(st.just(f"{column} BETWEEN ? AND ?"),
              st.tuples(_PARAMS, _PARAMS))))
#: ``(where, params)``: ranges of literals, a bound ``col = ?`` or
#: ``col BETWEEN ? AND ?``, or a bound atom ANDed with a range
_PREDICATES = st.one_of(
    _WHERES.map(lambda where: (where, ())), _BOUND,
    st.builds(lambda bound, where: (f"({bound[0]} AND {where})", bound[1]),
              _BOUND, _WHERES))
_AGGREGATES = st.one_of(
    st.just("COUNT(*)"),
    st.builds("{}({})".format, st.sampled_from(("SUM", "AVG", "MIN", "MAX")),
              st.sampled_from(COLUMNS)))


@st.composite
def _queries(draw):
    """``(sql, params, sort column index or None, unique sort key)``."""
    where, params = draw(_PREDICATES)
    kind = draw(st.integers(0, 5))
    if kind == 0:
        return f"SELECT id, u, w, s FROM t WHERE {where}", params, None, \
            False
    if kind == 1:
        # the range and aggregate reads: with or without a group column
        group = draw(st.sampled_from((None, "w", "s")))
        columns = ([group] if group else []) \
            + draw(st.lists(_AGGREGATES, min_size=1, max_size=3))
        grouped = f" GROUP BY {group}" if group else ""
        return (f"SELECT {', '.join(columns)} FROM t WHERE {where}{grouped}",
                params, None, False)
    if kind == 2:
        return ("SELECT a.id, b.id FROM t a JOIN t b ON a.w = b.w "
                f"WHERE a.id <= {draw(_IDS)} AND b.id > {draw(_IDS)}"), \
            (), None, False
    column = draw(st.sampled_from(COLUMNS + ("t.id",)))
    direction = draw(st.sampled_from(("", " ASC", " DESC")))
    limit = f" LIMIT {draw(st.integers(0, 6))}"
    if draw(st.booleans()):
        limit += f" OFFSET {draw(st.integers(0, 3))}"
    return (f"SELECT id, u, w, s FROM t WHERE {where} "
            f"ORDER BY {column}{direction}{limit}", params,
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
            return self.vacuum()
        if kind == "rollback":
            self.writer.execute("BEGIN")
            outcomes = [self.run(self.writer, sql, params)
                        for sql, params in payload]
            self.writer.execute("ROLLBACK")
            return outcomes
        return self.run(self.writer, kind, payload)

    def vacuum(self):
        """``engine.vacuum()``, which must remove exactly what a walk of
        every version would."""
        table = self.engine.database("shop").table("t")
        expected = _full_walk_dead(self.engine, table)
        before = list(table.versions())
        removed = self.engine.vacuum()
        after = set(map(id, table.versions()))
        gone = [version for version in before if id(version) not in after]
        assert gone == expected and removed == len(expected)
        return removed


def _full_walk_dead(engine, table):
    """What a vacuum that visits every chain removes: every version whose
    deletion committed at or before the oldest active snapshot, in
    ``table.versions()`` order."""
    horizon = min((txn.snapshot.timestamp
                   for txn in engine.active_transactions.values()),
                  default=engine.clock.now)
    return [version for version in table.versions()
            if version.deleted_ts is not None
            and version.deleted_ts <= horizon]


def _agree(indexed, scan, sort_index, unique, query, exact=False):
    """``indexed`` answers like ``scan`` — or, unless ``exact``, fails
    to raise an error only ``scan`` raises."""
    if scan == "error":
        # the planner may have skipped the offending row
        assert not exact or indexed == "error", query
        return
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


# -- the third arm: brute force over every version ---------------------------
#
# The scan and the range walk both answer through ``mvcc``'s fast paths,
# so their agreement alone could hide a bug they share.  This arm reads
# ``table.versions()`` and nothing else of the engine's read path: the
# visibility rule is a copy of ``mvcc.version_visible`` /
# ``visible_version`` as they stood before the fast paths, expressions go
# through the reference interpreter, and grouping, aggregates, ORDER BY
# and LIMIT are spelled out below.

def _version_visible(version, timestamp, txn_id):
    created_by_me = txn_id is not None and version.creator_txn == txn_id
    if not created_by_me:
        if version.created_ts is None or version.created_ts > timestamp:
            return False
    if txn_id is not None and version.deleter_txn == txn_id:
        return False
    if version.deleted_ts is not None and version.deleted_ts <= timestamp:
        return False
    return True


def _visible_version(chain, timestamp, txn_id, dirty):
    best = best_key = None
    for index, version in enumerate(chain):
        if dirty:
            if version.deleter_txn is not None \
                    or version.deleted_ts is not None:
                continue
        elif not _version_visible(version, timestamp, txn_id):
            continue
        own = txn_id is not None and version.creator_txn == txn_id \
            and version.created_ts is None
        key = (float("inf") if own else (version.created_ts or 0), index)
        if best_key is None or key > best_key:
            best, best_key = version, key
    return best


def _visible_values(engine, conn):
    """The value dict of every row of ``t`` that ``conn``'s next
    statement reads."""
    txn = conn.txn
    timestamp, txn_id, dirty = engine.clock.now, None, False
    if txn is not None:
        timestamp = txn.read_snapshot(timestamp).timestamp
        txn_id, dirty = txn.id, txn.isolation == READ_UNCOMMITTED
    chains = {}
    for version in engine.database("shop").table("t").versions():
        chains.setdefault(version.row_id, []).append(version)
    return [version.values for version in (
        _visible_version(chain, timestamp, txn_id, dirty)
        for chain in chains.values()) if version is not None]


def _brute(engine, conn, sql, params):
    """What ``conn`` should answer for ``sql``, in ``_Arm.run``'s form."""
    if conn.txn is not None and conn.txn.status is TransactionStatus.FAILED:
        return "error"
    try:
        rows = _brute_select(parse_script(sql)[0],
                             _visible_values(engine, conn), list(params))
    except SQLError:
        return "error"
    return rows, len(rows)


def _brute_select(statement, rows, params):
    def value(expr, bindings):
        return reference.evaluate(
            expr, reference.EvalContext(None, None, bindings, params))

    def holds(expr, bindings):
        return expr is None or reference.is_true(value(expr, bindings))

    source = statement.source
    if isinstance(source, ast.Join):
        left, right = source.left.binding, source.right.binding
        sources = [{left: a, right: b} for a in rows for b in rows
                   if holds(source.condition, {left: a, right: b})]
    else:
        sources = [{source.binding: row} for row in rows]
    sources = [bindings for bindings in sources
               if holds(statement.where, bindings)]

    columns = [expr for expr, _alias in statement.columns]
    if statement.group_by or any(
            isinstance(expr, ast.FunctionCall) for expr in columns):
        if not statement.group_by:
            groups = {(): sources}      # one group, even of no rows
        else:
            groups = {}
            for bindings in sources:
                key = tuple(sort_key(value(expr, bindings))
                            for expr in statement.group_by)
                groups.setdefault(key, []).append(bindings)
        return [tuple(_aggregate(expr, group, value)
                      if isinstance(expr, ast.FunctionCall)
                      else value(expr, group[0]) for expr in columns)
                for group in groups.values()]

    out = [tuple(value(expr, bindings) for expr in columns)
           for bindings in sources]
    names = [(alias or getattr(expr, "name", "")).lower()
             for expr, alias in statement.columns]
    order = list(range(len(out)))
    for expr, ascending in reversed(statement.order_by):
        # an unqualified name is an output column first
        def sort_value(i, expr=expr):
            if expr.table is None and expr.name_lower in names:
                return out[i][names.index(expr.name_lower)]
            return value(expr, sources[i])
        order.sort(key=lambda i: sort_key(sort_value(i)),
                   reverse=not ascending)
    out = [out[i] for i in order]
    offset = statement.offset.value if statement.offset is not None else 0
    if statement.limit is not None:
        return out[offset:offset + statement.limit.value]
    return out[offset:]


def _aggregate(call, group, value):
    if call.name == "COUNT" and (not call.args
                                 or isinstance(call.args[0], ast.Star)):
        return len(group)
    values = [v for v in (value(call.args[0], bindings) for bindings in group)
              if v is not None]
    if call.name == "COUNT":
        return len(values)
    if not values:
        return None
    if call.name in ("SUM", "AVG"):
        try:
            total = sum(values)
        except TypeError:
            raise TypeError_(f"{call.name}() needs numbers") from None
        return total if call.name == "SUM" else total / len(values)
    return (min if call.name == "MIN" else max)(values, key=sort_key)


def _property(max_examples):
    """The three-arm property at ``max_examples`` (a fresh ``given``
    each time: tier-1 and the soak run the same body)."""
    @settings(max_examples=max_examples, deadline=None)
    @given(before=st.lists(_STEP, max_size=14),
           after=st.lists(_STEP, max_size=5),
           moved=_IDS, inserted=st.tuples(st.integers(40, 45), _US, _WS, _SS),
           queries=st.lists(_queries(), min_size=1, max_size=6))
    @example(before=[("INSERT INTO t VALUES (?, ?, ?, ?)", (k, 19 - k, 1, "a"))
                     for k in (17, 18, 19)],
             after=[], moved=0, inserted=(40, None, None, None),
             # ORDER BY id sorts by the *output* id, which is u
             queries=[("SELECT id AS u, u AS id FROM t WHERE id > 16 "
                       "ORDER BY id LIMIT 2", (), 1, True)])
    @example(before=[("INSERT INTO t VALUES (?, ?, ?, ?)", (1, 1, 1, "a")),
                     ("INSERT INTO t VALUES (?, ?, ?, ?)", (2, 2, 2, "9"))],
             after=[], moved=0, inserted=(40, None, None, None),
             queries=[("SELECT id, u, w, s FROM t WHERE s <= 70 AND w = 2",
                       (), None, False)])
    @example(before=[("INSERT INTO t VALUES (?, ?, ?, ?)", (k, k, k % 3, "a"))
                     for k in range(8)]
             + [("UPDATE t SET w = ? WHERE id = ?", (3, 2)), ("vacuum", None),
                ("UPDATE t SET s = ? WHERE id = ?", ("b", 5))],
             after=[("UPDATE t SET u = ? WHERE id = ?", (None, 6))],
             moved=3, inserted=(40, 1, 1, "b"),
             # multi-version chains under a range walk, and the type-confused
             # bounds of a bound BETWEEN
             queries=[("SELECT w, COUNT(*), AVG(u), MAX(s) FROM t "
                       "WHERE id BETWEEN ? AND ? GROUP BY w", (1, 40), None,
                       False),
                      ("SELECT SUM(id), MIN(s) FROM t WHERE u BETWEEN ? AND ?",
                       ("5", 2.5), None, False),
                      ("SELECT id, u, w, s FROM t WHERE w = ? ORDER BY id",
                       (None,), 0, True)])
    @example(before=[("INSERT INTO t VALUES (?, ?, ?, ?)", (1, 1, 1, "5")),
                     ("INSERT INTO t VALUES (?, ?, ?, ?)", (12, 2, 2, "05"))],
             after=[], moved=0, inserted=(40, None, None, None),
             # = compares a bool by truth value and text with a number by the
             # number it spells: no probe key stands for either
             queries=[("SELECT id, u, w, s FROM t WHERE id = ?", (True,), None,
                       False),
                      ("SELECT id FROM t WHERE s = ?", (5,), None, False),
                      ("SELECT COUNT(*) FROM t WHERE u = ? AND w = ?",
                       (True, 2), None, False)])
    @example(before=[("INSERT INTO t VALUES (?, ?, ?, ?)", (k, k, k, "a"))
                     for k in range(4)],
             after=[("DELETE FROM t WHERE id = ?", (1,)),
                    ("UPDATE t SET w = ? WHERE id = ?", (0, 2)),
                    ("vacuum", None)],
             moved=3, inserted=(40, None, None, None),
             # the old reader holds both deletions above the horizon through
             # that vacuum; the one after it commits collects them
             queries=[("SELECT id, u, w, s FROM t WHERE id <= ?", (3,), None,
                       False)])
    def answers_like_the_scan(before, after, moved, inserted, queries):
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
        # a second session's open transaction: one key moved, one
        # inserted, one deleted and one updated in place
        deleted, updated = (moved + 1) % 20, (moved + 2) % 20
        ids = (moved, moved + 100, inserted[0], deleted, updated)
        found = _Arm.run(arms[1].writer, "SELECT u FROM t WHERE id IN "
                         "(?, ?, ?, ?, ?)", ids)
        points = _point_reads(ids, {inserted[1]} | {u for u, in found[0]})
        inside = [arm.connect() for arm in arms]
        for conn in inside:
            conn.execute("BEGIN")
            _Arm.run(conn, "UPDATE t SET id = id + 100 WHERE id = ?", [moved])
            _Arm.run(conn, "INSERT INTO t VALUES (?, ?, ?, ?)", inserted)
            _Arm.run(conn, "DELETE FROM t WHERE id = ?", [deleted])
            _Arm.run(conn, "UPDATE t SET u = NULL, w = 3 WHERE id = ?",
                     [updated])
        dirty = [arm.connect() for arm in arms]
        for conn in dirty:
            conn.execute("BEGIN ISOLATION LEVEL READ UNCOMMITTED")
        serial = [arm.connect() for arm in arms]
        for conn in serial:
            conn.execute("BEGIN ISOLATION LEVEL SERIALIZABLE")
        readers = {"committed": [arm.writer for arm in arms], "snapshot": old,
                   "inside": inside, "dirty": dirty, "serializable": serial}
        _answer_alike(arms, readers, queries + points)
        # the old reader held the deletions of ``after`` above the horizon;
        # once it commits, the next vacuum collects them
        for conn in old:
            conn.execute("COMMIT")
        indexed, scan = (arm.step(("vacuum", None)) for arm in arms)
        assert indexed == scan
        _answer_alike(arms, readers, points)
        for arm in arms:
            _assert_ordered_views(arm.engine)
    return answers_like_the_scan


def _point_reads(ids, us):
    """``id = ?`` of each of ``ids`` and ``u = ?`` of each of ``us``, as
    ``_queries`` items."""
    return [(f"SELECT id, u, w, s FROM t WHERE {column} = ?", (key,), None,
             False)
            for column, keys in (("id", ids), ("u", us)) for key in keys]


def _answer_alike(arms, readers, queries):
    """Every query from every reader: the scan arm answers like brute
    force, the indexed arm like the scan."""
    for sql, params, sort_index, unique in queries:
        for name, (indexed, scan) in readers.items():
            brute = _brute(arms[1].engine, scan, sql, params)
            answer = _Arm.run(scan, sql, params)
            _agree(answer, brute, sort_index, unique, (name, sql, params),
                   exact=True)
            _agree(_Arm.run(indexed, sql, params), answer, sort_index,
                   unique, (name, sql, params))


test_every_access_path_answers_like_the_scan = _property(120)
test_every_access_path_answers_like_the_scan_soak = pytest.mark.soak(
    _property(2400))


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
    arm.vacuum()
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
