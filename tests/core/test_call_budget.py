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
``repro/obs`` enters no frame at all.
"""

import os
import random
import sys

import pytest

import repro
from repro.bench.harness import build_composed_cluster
from repro.shard import HashSharder

#: a composed autocommit point UPDATE and a point SELECT, per statement
UPDATE_CEILING = 230
SELECT_CEILING = 140

ROWS = 2000
WARMUP = 50
MEASURED = 200
PACKAGE = os.path.dirname(os.path.abspath(repro.__file__)) + os.sep
OBS = PACKAGE + "obs" + os.sep


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


def frames_per_statement(session, sql):
    """``(frames under src/repro, frames under repro/obs)`` per
    statement, after a warm-up, on keys from a fixed seed."""
    keys = random.Random(3)
    for _ in range(WARMUP):
        session.execute(sql, [keys.randrange(ROWS)])
    counts = {"repro": 0, "obs": 0}

    def profile(frame, event, _arg):
        if event == "call":
            path = frame.f_code.co_filename
            if path.startswith(PACKAGE):
                counts["repro"] += 1
                if path.startswith(OBS):
                    counts["obs"] += 1

    sys.setprofile(profile)
    try:
        for _ in range(MEASURED):
            session.execute(sql, [keys.randrange(ROWS)])
    finally:
        sys.setprofile(None)
    return counts["repro"] / MEASURED, counts["obs"] / MEASURED


def test_a_composed_update_stays_within_its_call_budget(session):
    frames, obs = frames_per_statement(
        session, "UPDATE kv SET v = v + 1 WHERE k = ?")
    assert frames <= UPDATE_CEILING, frames
    assert obs == 0


def test_a_composed_point_read_stays_within_its_call_budget(session):
    frames, obs = frames_per_statement(
        session, "SELECT v FROM kv WHERE k = ?")
    assert frames <= SELECT_CEILING, frames
    assert obs == 0
