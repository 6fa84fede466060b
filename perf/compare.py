#!/usr/bin/env python3
"""Compare two result files written by ``perf/run.py --out``.

    python3 perf/compare.py A.json B.json

For end-to-end results (``--trace 0``) prints one row per workload x
end-to-end metric: both values, by how much B is worse than A as a share
of A, the bound ``BENCHMARK.json`` fixes for the metric, the metric's
spread inside either run, and a verdict.  A metric whose spread inside a
run exceeds its bound is reported as ``unresolved``, never as unchanged;
a metric with one value per run (``ok_frac``, ``peak_rss_mb``) has no
spread and the column says so.

For per-layer results (``--trace 1``) of one seed it gates what repeats
exactly under a seed — every count and the simulated ``sim.*`` numbers —
at the bounds in :data:`SIMULATED` (``BENCHMARK.json`` has no place for
a per-layer bound), and prints the rows that moved.

Two single runs cannot carry a claim of a gain (see README: ten
alternating pairs); this only shows where to look.  Exits 1 when any row
is a regression.
"""

from __future__ import annotations

import json
import sys
from pathlib import Path
from typing import Dict, Optional

MANIFEST = Path(__file__).resolve().parent.parent / "BENCHMARK.json"

# simulated time is exact under a seed; the bounds are ISSUE 11's
SIMULATED = {
    "sim.txn_ms_p50": 0.01, "sim.txn_ms_p99": 0.01,
    "sim.goodput_frac": 0.01, "sim.max_rate": 0.0, "sim.outage_s": 0.01,
}
# ratios of two counts (unit "frac" is shared with measured time shares)
COUNT_RATIOS = {
    "sqlengine.parse_hit_rate", "core.cert_abort_frac", "cache.hit_rate",
    "shard.single_shard_frac", "shard.scatter_frac", "shard.twopc_frac",
}


def load(path: str) -> Dict[str, dict]:
    """``{workload: run}`` from a combined or a single-workload file."""
    document = json.loads(Path(path).read_text(encoding="utf-8"))
    if "result" in document:
        return {document["workload"]: document}
    return document


def worse_by(a: float, b: float, better: str) -> float:
    """By how much ``b`` is worse than ``a``, as a share of ``a``."""
    if a == b:
        return 0.0
    delta = b - a if better == "lower" else a - b
    return delta / abs(a) if a else float("inf") * delta


def verdict(worse: float, bound: float, spread: Optional[float]) -> str:
    if spread is not None and spread > bound:
        return "unresolved"
    if worse > bound:
        return "REGRESSION"
    if worse < -bound:
        return "better"
    return "within bound"


def end_to_end_rows(workload: str, a: dict, b: dict, metrics) -> int:
    regressions = 0
    for metric in metrics:
        name, bound = metric["name"], metric["bound"]
        x, y = (run["result"]["metrics"][name]["value"] for run in (a, b))
        worse = worse_by(x, y, metric["better"])
        spreads = [run["notes"].get("spread", {}).get(name)
                   for run in (a, b)]
        spread = None if None in spreads else max(spreads)
        row = verdict(worse, bound, spread)
        regressions += row == "REGRESSION"
        shown = "      -" if spread is None else f"{spread:7.3f}"
        print(f"{workload:13s} {name:16s} {x:14.4f} {y:14.4f} "
              f"{worse:+10.3f} {bound:6.3f} {shown}  {row}")
    return regressions


def repeating_rows(workload: str, a: dict, b: dict, metrics) -> int:
    """Counts and simulated numbers of two traced runs of one seed."""
    if a["seed"] != b["seed"]:
        print(f"{workload:13s} seeds differ ({a['seed']}, {b['seed']}): "
              "counts and simulated numbers repeat only under one seed")
        return 0
    skipped = set(a["notes"].get("not_exercised", ())) \
        | set(b["notes"].get("not_exercised", ()))
    regressions = same = 0
    for metric in metrics:
        name = metric["name"]
        if name in SIMULATED:
            bound = SIMULATED[name]
        elif metric["unit"] == "count" or name in COUNT_RATIOS:
            bound = 0.0
        else:
            continue
        if name in skipped:
            continue
        x, y = (run["result"]["metrics"][name]["value"] for run in (a, b))
        if x == y:
            same += 1
            continue
        row = verdict(worse_by(x, y, metric["better"]), bound, None)
        regressions += row == "REGRESSION"
        print(f"{workload:13s} {name:34s} {x:14.6f} {y:14.6f} "
              f"bound {bound:5.3f}  {row}")
    print(f"{workload:13s} {same} repeating per-layer metrics identical")
    return regressions


def main(argv) -> int:
    if len(argv) != 2:
        sys.exit(__doc__)
    before, after = load(argv[0]), load(argv[1])
    manifest = json.loads(MANIFEST.read_text(encoding="utf-8"))
    regressions = 0
    headed = False
    for workload, a in before.items():
        b = after.get(workload)
        if b is None or a["trace"] != b["trace"]:
            print(f"{workload:13s} no run of the same kind in {argv[1]}")
        elif a["trace"]:
            regressions += repeating_rows(workload, a, b,
                                          manifest["per_layer"])
        else:
            if not headed:
                print(f"{'workload':13s} {'metric':16s} {'A':>14s} "
                      f"{'B':>14s} {'B worse by':>10s} {'bound':>6s} "
                      f"{'spread':>7s}  verdict")
                headed = True
            regressions += end_to_end_rows(workload, a, b,
                                           manifest["end_to_end"])
    if headed:
        print("spread '-': one value per run, so no spread inside it")
    return 1 if regressions else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
