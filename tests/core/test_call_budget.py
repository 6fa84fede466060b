"""What a composed statement costs, counted in Python frames.

Wall-clock pairs on a shared machine no longer resolve a change of a
few per cent; the number of Python functions a statement enters
repeats exactly from run to run (paper section 5.1: report what the
middleware costs at low load).  The rig is the benchmark's composed
entry point: 2 shards, each an HA pair over 2 replicas (writeset / GSI,
synchronous propagation), a hash-sharded ``kv`` table loaded through
its own front door, tracing off.

Only frames whose code lives in ``src/repro`` are counted, and no C
calls: C calls and comprehension frames differ between interpreter
versions, and the ceilings hold on every version CI runs.  A dark
trace costs a flag test per statement door and nothing below it, so
``repro/obs`` enters no frame at all.  The same point SELECT through a
bare ``Engine.connect()`` pins the engine's share apart from the tiers
above it.  A statement over its ceiling fails with its frames per
package and its ten hottest functions.

The scan path is pinned on the bare engine too, with ``scan_range``'s
four shapes over its 4 000-row table: frames per statement, and C calls
per scanned row, where the work of a scan is.  Those C counts were the
same on 3.10, 3.11 and 3.12, and halved when a settled table stopped
testing each version and a grouped SELECT stopped binding each row.
"""

import os
import random
import sys
from collections import Counter

import pytest

import repro
from repro.bench.harness import build_composed_cluster
from repro.shard import HashSharder
from repro.sqlengine import Engine
from repro.sqlengine.dialects import postgresql

#: a composed autocommit point UPDATE and a point SELECT, and the point
#: SELECT through a bare engine connection, per statement: the counts
#: measured in this order on Python 3.11 (192.4, 101.2 and 49.0; 3.12
#: inlines comprehensions and counts fewer) plus the margins
#: the first ceilings had (8.5 % for the UPDATE, 6 % for a read),
#: rounded up; the composed SELECT's is held at its count, 96.2 since
#: the balancer stopped re-filtering the online candidates it is handed
UPDATE_CEILING = 209
SELECT_CEILING = 97
ENGINE_SELECT_CEILING = 52

#: scan_range's shapes on a bare engine: (SQL, the span its key is drawn
#: from, its parameters from that key, frames per statement, C calls per
#: scanned row).  The ceilings are the counts on 3.10 / 3.11 (3.12
#: enters fewer frames) plus about 5 % of frames and 10 % of C calls,
#: rounded up; before the settled-table scan and the one-pass GROUP BY
#: the counts were 58 / 6.02, 112 / 17.71, 138 / 7.26 and 60 / 4.01
SCAN_ROWS = 4000
SCAN_SHAPES = {
    "count_sum": ("SELECT COUNT(*), SUM(v) FROM ev WHERE k BETWEEN ? AND ?",
                  SCAN_ROWS - 50, lambda key: [key, key + 49], 64, 3.5),
    "top": ("SELECT k, v FROM ev WHERE k >= ? ORDER BY k LIMIT 10",
            SCAN_ROWS, lambda key: [key], 95, 12.6),
    "grouped": ("SELECT grp, COUNT(*), AVG(v) FROM ev "
                "WHERE k BETWEEN ? AND ? GROUP BY grp",
                SCAN_ROWS - 400, lambda key: [key, key + 399], 112, 3.7),
    "min_max": ("SELECT MIN(k), MAX(k) FROM ev WHERE v = ?",
                1000, lambda key: [key], 64, 2.3),
}

ROWS = 2000
WARMUP = 50
MEASURED = 200
PACKAGE = os.path.dirname(os.path.abspath(repro.__file__)) + os.sep


@pytest.fixture(scope="module")
def session():
    front = build_composed_cluster(2, 2)
    tracers = [front.tracer] + [mw.tracer for mw in front.groups]
    tracers += [pair.standby.tracer for pair in front.pairs if pair]
    for tracer in tracers:
        tracer.enabled = False
    loader = front.connect(database="shop")
    loader.execute("CREATE TABLE kv (k INT PRIMARY KEY, v INT, "
                   "pad VARCHAR(64))")
    front.register_table("kv", "k", HashSharder(2))
    for base in range(0, ROWS, 100):
        loader.execute("INSERT INTO kv (k, v, pad) VALUES " + ", ".join(
            f"({k}, {k}, '{k:064d}')" for k in range(base, base + 100)))
    loader.close()
    session = front.connect(database="shop")
    yield session
    session.close()


@pytest.fixture(scope="module")
def connection():
    engine = Engine("bare", dialect=postgresql(), seed=1000)
    engine.create_database("shop")
    connection = engine.connect(database="shop")
    connection.execute("CREATE TABLE kv (k INT PRIMARY KEY, v INT, "
                       "pad VARCHAR(64))")
    for base in range(0, ROWS, 100):
        connection.execute("INSERT INTO kv (k, v, pad) VALUES " + ", ".join(
            f"({k}, {k}, '{k:064d}')" for k in range(base, base + 100)))
    yield connection
    connection.close()


@pytest.fixture(scope="module")
def scan_connection():
    engine = Engine("bare", dialect=postgresql(), seed=1000)
    engine.create_database("shop")
    connection = engine.connect(database="shop")
    connection.execute("CREATE TABLE ev (k INT PRIMARY KEY, grp INT, v INT)")
    for base in range(0, SCAN_ROWS, 100):
        connection.execute("INSERT INTO ev (k, grp, v) VALUES " + ", ".join(
            f"({k}, {k % 10}, {(k * 17 + 1) % 1000})"
            for k in range(base, base + 100)))
    engine.vacuum()
    yield connection
    connection.close()


class Frames:
    """The frames under ``src/repro`` that statements entered, by
    function (``package/module.py:line name``), and the C calls."""

    def __init__(self, functions: Counter, statements: int, c_calls: int):
        self.functions = functions
        self.statements = statements
        self.c_calls = c_calls

    def per_statement(self, package: str = "") -> float:
        return sum(count for name, count in self.functions.items()
                   if name.startswith(package)) / self.statements

    def report(self) -> str:
        """Frames per package, then the ten hottest functions, per
        statement."""
        packages = Counter()
        for name, count in self.functions.items():
            packages[name.split(os.sep)[0]] += count
        lines = [f"{self.per_statement():.2f} frames per statement"]
        lines += [f"  {package:<10} {count / self.statements:7.2f}"
                  for package, count in packages.most_common()]
        lines += [f"  {count / self.statements:7.2f}  {name}"
                  for name, count in self.functions.most_common(10)]
        return "\n".join(lines)


def frames_per_statement(session, sql, params=None) -> Frames:
    """What ``MEASURED`` executions of ``sql`` entered, after a warm-up,
    on parameters ``params(keys)`` (a key of ``kv`` by default) from a
    fixed seed."""
    params = params or (lambda keys: [keys.randrange(ROWS)])
    keys = random.Random(3)
    for _ in range(WARMUP):
        session.execute(sql, params(keys))
    functions = Counter()
    c_calls = 0

    def profile(frame, event, _arg):
        nonlocal c_calls
        if event == "call":
            code = frame.f_code
            path = code.co_filename
            if path.startswith(PACKAGE):
                functions[f"{path[len(PACKAGE):]}:{code.co_firstlineno} "
                          f"{code.co_name}"] += 1
        elif event == "c_call":
            c_calls += 1

    sys.setprofile(profile)
    try:
        for _ in range(MEASURED):
            session.execute(sql, params(keys))
    finally:
        sys.setprofile(None)
    return Frames(functions, MEASURED, c_calls)


def test_a_composed_update_stays_within_its_call_budget(session):
    frames = frames_per_statement(
        session, "UPDATE kv SET v = v + 1 WHERE k = ?")
    assert frames.per_statement() <= UPDATE_CEILING, frames.report()
    assert frames.per_statement("obs" + os.sep) == 0, frames.report()


def test_a_composed_point_read_stays_within_its_call_budget(session):
    frames = frames_per_statement(
        session, "SELECT v FROM kv WHERE k = ?")
    assert frames.per_statement() <= SELECT_CEILING, frames.report()
    assert frames.per_statement("obs" + os.sep) == 0, frames.report()


def test_an_engine_point_read_stays_within_its_call_budget(connection):
    frames = frames_per_statement(
        connection, "SELECT v FROM kv WHERE k = ?")
    assert frames.per_statement() <= ENGINE_SELECT_CEILING, frames.report()


@pytest.mark.parametrize("shape", sorted(SCAN_SHAPES))
def test_a_scan_stays_within_its_call_budget(scan_connection, shape):
    sql, span, params, frame_ceiling, c_ceiling = SCAN_SHAPES[shape]
    stats = scan_connection.engine.stats
    scanned = stats["rows_scanned"]
    frames = frames_per_statement(
        scan_connection, sql, lambda keys: params(keys.randrange(span)))
    scanned = stats["rows_scanned"] - scanned
    assert frames.per_statement() <= frame_ceiling, frames.report()
    # rows_scanned counts the warm-up too: per measured statement, the
    # same number of rows each
    rows = scanned / (WARMUP + MEASURED)
    assert rows == {"count_sum": 50, "top": 10, "grouped": 400,
                    "min_max": SCAN_ROWS}[shape]
    per_row = frames.c_calls / (MEASURED * rows)
    assert per_row <= c_ceiling, (per_row, frames.report())
