"""E23 — §3.4/§5: the index-backed execution hot path.

The paper's critique of middleware evaluations is that they measure toy
workloads at peak throughput, where any O(n) cost hides inside the noise.
Before this experiment, every equality lookup, uniqueness check and
writeset apply in this engine was a full table scan — so the scale-out
numbers of E01/E06/E10 partly measured scan cost, not replication cost.
E23 pins the fix: with maintained hash indexes and predicate pushdown,
point lookups, update-heavy traffic and replica-side writeset apply touch
O(1) rows per operation while the sequential baseline touches O(n); with
the sorted keys beside the hash map, a range aggregate touches the rows
of its range and ``ORDER BY pk LIMIT n`` touches n.

Five microbenchmarks, each run index-backed and scan-baseline at two
table sizes:

* **point-lookup** — ``SELECT ... WHERE pk = ?``;
* **update-heavy** — ``UPDATE ... WHERE pk = ?`` (autocommit, the E06
  multi-master per-statement shape);
* **writeset-apply** — :func:`repro.core.writesets.apply_writeset` of
  UPDATE entries captured from a master's transactions at a replica (the
  hot path every replica pays for every committed transaction in the
  cluster);
* **range-count** — ``SELECT COUNT(*), SUM(qty) ... WHERE pk BETWEEN ?
  AND ?`` over a span of 50 keys;
* **top-n** — ``SELECT ... WHERE pk >= ? ORDER BY pk LIMIT 10``.

Results land in ``BENCH_e23.json`` (ops/sec and rows-scanned-per-op) for
regression tracking; the assertions pin only the deterministic
rows-scanned shape, never wall-clock time.  The indexed point lookup on
the large table is also timed in us at reference speed, as E24 times its
hit path (``perf/driver.Machine``, imported read-only): the fastest of
ten laps over the fastest calibration kernel between them.
``tools/bench_gate.py`` gates that time; the indexed/scan ratio is
reported only, since the scan arm gets faster on purpose.
"""

import json
import random
import sys
import time
from pathlib import Path

from repro.bench import Report
from repro.core.writesets import apply_writeset, extract_writeset_engine
from repro.sqlengine import Engine

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "perf"))

import driver  # noqa: E402

SIZES = (1_000, 10_000)
OPS = 300
SEED = 23
BENCH_PATH = ROOT / "BENCH_e23.json"
LAPS = 10       # timed laps of the indexed point lookup

SPAN = 50       # keys per range_count
TOP = 10        # LIMIT of top_n
# Rows the index-backed arm may touch per operation.  "Index-backed point
# lookups scan O(1)-O(log n) rows per op": with short version chains a
# probe should touch a handful of versions at most; a range walk touches
# the rows of its range, and an early-stopped one the rows it returns.
MAX_INDEXED_ROWS_PER_OP = {
    "point_lookup": 4.0, "update_heavy": 4.0, "writeset_apply": 4.0,
    "range_count": float(SPAN), "top_n": float(TOP),
}


def build_engine(rows: int, use_indexes: bool) -> Engine:
    engine = Engine(f"e23_{rows}_{int(use_indexes)}")
    engine.use_indexes = use_indexes
    engine.create_database("shop")
    conn = engine.connect(database="shop")
    conn.execute(
        "CREATE TABLE items (id INT PRIMARY KEY AUTO_INCREMENT, "
        "sku VARCHAR NOT NULL, qty INT)")
    for i in range(rows):
        conn.execute("INSERT INTO items (sku, qty) VALUES (?, ?)",
                     [f"sku{i}", i])
    conn.close()
    return engine


def _measure(engine: Engine, op, count: int):
    """Run ``op`` ``count`` times; return (ops/sec, rows scanned per op)."""
    before = engine.stats["rows_scanned"]
    start = time.perf_counter()
    for index in range(count):
        op(index)
    elapsed = time.perf_counter() - start
    scanned = engine.stats["rows_scanned"] - before
    return count / elapsed if elapsed > 0 else float("inf"), scanned / count


def run_point_lookup(rows: int, use_indexes: bool):
    engine = build_engine(rows, use_indexes)
    conn = engine.connect(database="shop")
    rng = random.Random(SEED)
    ids = [rng.randrange(1, rows + 1) for _ in range(OPS)]

    def op(index):
        result = conn.execute("SELECT qty FROM items WHERE id = ?",
                              [ids[index]])
        assert result.rows, "point lookup missed an existing row"

    return _measure(engine, op, OPS)


def point_lookup_us_at_reference(rows: int, laps: int = LAPS) -> dict:
    """One indexed point lookup in us, and at reference speed: laps of
    the point-lookup operations alternate with calibration kernels and
    the fastest of each is kept, so a slow spell of the machine lands on
    all or on none."""
    engine = build_engine(rows, True)
    conn = engine.connect(database="shop")
    rng = random.Random(SEED)
    ids = [rng.randrange(1, rows + 1) for _ in range(OPS)]
    machine = driver.Machine()
    lookup_us = speed = float("inf")
    for _ in range(laps):
        speed = min(speed, machine.speed())
        start = time.perf_counter()
        for key in ids:
            conn.execute("SELECT qty FROM items WHERE id = ?", [key])
        lookup_us = min(lookup_us,
                        (time.perf_counter() - start) / len(ids) * 1e6)
    conn.close()
    return {"us": lookup_us, "machine_speed": speed,
            "us_at_reference": lookup_us / speed}


def run_update_heavy(rows: int, use_indexes: bool):
    engine = build_engine(rows, use_indexes)
    conn = engine.connect(database="shop")
    rng = random.Random(SEED + 1)
    ids = [rng.randrange(1, rows + 1) for _ in range(OPS)]

    def op(index):
        result = conn.execute(
            "UPDATE items SET qty = qty + 1 WHERE id = ?", [ids[index]])
        assert result.rowcount == 1

    return _measure(engine, op, OPS)


def run_writeset_apply(rows: int, use_indexes: bool):
    # Capture real writesets from a master, then measure replica-side apply.
    master = build_engine(rows, True)
    conn = master.connect(database="shop")
    rng = random.Random(SEED + 2)
    entries = []
    for i in range(OPS):
        conn.execute("BEGIN")
        conn.execute("UPDATE items SET qty = ? WHERE id = ?",
                     [1000 + i, rng.randrange(1, rows + 1)])
        entries.extend(extract_writeset_engine(conn.txn))
        conn.execute("COMMIT")
    assert len(entries) == OPS

    replica = build_engine(rows, use_indexes)
    # apply_writeset probes the PK index directly; mimic the scan baseline
    # by hiding the index from the keyless fallback path.
    if not use_indexes:
        entries = [dict(entry, primary_key=None) for entry in entries]
    before = replica.stats["rows_scanned"]
    start = time.perf_counter()
    report = apply_writeset(replica, entries)
    elapsed = time.perf_counter() - start
    assert report.clean, f"replica diverged: {report.conflicts}"
    scanned = replica.stats["rows_scanned"] - before
    return (len(entries) / elapsed if elapsed > 0 else float("inf"),
            scanned / len(entries))


def run_range_count(rows: int, use_indexes: bool):
    engine = build_engine(rows, use_indexes)
    conn = engine.connect(database="shop")
    rng = random.Random(SEED + 3)
    lows = [rng.randrange(1, rows - SPAN + 2) for _ in range(OPS)]

    def op(index):
        low = lows[index]
        result = conn.execute(
            "SELECT COUNT(*), SUM(qty) FROM items WHERE id BETWEEN ? AND ?",
            [low, low + SPAN - 1])
        # qty = id - 1, so the sum is an arithmetic series
        assert result.rows == [(SPAN, SPAN * (2 * low + SPAN - 3) // 2)]

    return _measure(engine, op, OPS)


def run_top_n(rows: int, use_indexes: bool):
    engine = build_engine(rows, use_indexes)
    conn = engine.connect(database="shop")
    rng = random.Random(SEED + 4)
    lows = [rng.randrange(1, rows - TOP + 2) for _ in range(OPS)]

    def op(index):
        low = lows[index]
        result = conn.execute(
            "SELECT id FROM items WHERE id >= ? ORDER BY id LIMIT 10", [low])
        assert result.rows == [(low + i,) for i in range(TOP)]

    return _measure(engine, op, OPS)


SCENARIOS = {
    "point_lookup": run_point_lookup,
    "update_heavy": run_update_heavy,
    "writeset_apply": run_writeset_apply,
    "range_count": run_range_count,
    "top_n": run_top_n,
}


def test_e23_index_hotpath(benchmark):
    def experiment():
        results = {}
        for scenario, runner in SCENARIOS.items():
            for rows in SIZES:
                for variant, use_indexes in (("indexed", True),
                                             ("scan", False)):
                    ops_per_sec, rows_per_op = runner(rows, use_indexes)
                    results[(scenario, rows, variant)] = {
                        "ops_per_sec": ops_per_sec,
                        "rows_scanned_per_op": rows_per_op,
                    }
        results[("point_lookup", SIZES[-1], "indexed")].update(
            point_lookup_us_at_reference(SIZES[-1]))
        return results

    results = benchmark.pedantic(experiment, rounds=1, iterations=1)

    report = Report(
        "E23  Index-backed execution hot path (sections 3.4, 5)",
        ["scenario", "rows", "variant", "ops/sec", "rows scanned/op",
         "speedup"])
    for scenario in SCENARIOS:
        for rows in SIZES:
            indexed = results[(scenario, rows, "indexed")]
            scan = results[(scenario, rows, "scan")]
            for variant, metrics in (("indexed", indexed), ("scan", scan)):
                report.add_row(
                    scenario, rows, variant,
                    round(metrics["ops_per_sec"], 1),
                    round(metrics["rows_scanned_per_op"], 2),
                    round(indexed["ops_per_sec"] / scan["ops_per_sec"], 2)
                    if variant == "indexed" else "")
    report.note(f"{OPS} seeded operations per cell; rows-scanned is "
                "deterministic, ops/sec is wall-clock")
    timed = results[("point_lookup", SIZES[-1], "indexed")]
    report.note(f"indexed point lookup at {SIZES[-1]} rows: "
                f"{timed['us_at_reference']:.2f} us at reference speed "
                f"({timed['us']:.2f} us, machine speed "
                f"{timed['machine_speed']:.2f})")
    report.show()

    for scenario in SCENARIOS:
        small, large = SIZES
        for rows in SIZES:
            indexed = results[(scenario, rows, "indexed")]
            scan = results[(scenario, rows, "scan")]
            # index-backed: rows per op bounded by the answer, independent
            # of table size
            assert indexed["rows_scanned_per_op"] \
                <= MAX_INDEXED_ROWS_PER_OP[scenario], \
                (f"{scenario}@{rows}: index path scans "
                 f"{indexed['rows_scanned_per_op']} rows/op — regressed "
                 "toward O(n)")
            # sequential baseline: O(n) rows per op
            assert scan["rows_scanned_per_op"] >= rows * 0.9, \
                f"{scenario}@{rows}: scan baseline unexpectedly cheap"
        growth = (results[(scenario, large, "indexed")]["rows_scanned_per_op"]
                  / max(results[(scenario, small, "indexed")]
                        ["rows_scanned_per_op"], 1e-9))
        assert growth <= 2.0, \
            f"{scenario}: indexed rows/op grew {growth:.1f}x with table size"

    payload = {
        "experiment": "e23_index_hotpath",
        "ops": OPS,
        "sizes": list(SIZES),
        "results": {
            f"{scenario}/{rows}/{variant}": metrics
            for (scenario, rows, variant), metrics in results.items()
        },
    }
    BENCH_PATH.write_text(json.dumps(payload, indent=2) + "\n")

    large = SIZES[-1]
    for scenario in SCENARIOS:
        benchmark.extra_info[f"{scenario}_indexed_rows_per_op"] = \
            results[(scenario, large, "indexed")]["rows_scanned_per_op"]
        benchmark.extra_info[f"{scenario}_scan_rows_per_op"] = \
            results[(scenario, large, "scan")]["rows_scanned_per_op"]
