#!/usr/bin/env python3
"""Compare fresh BENCH_*.json results against committed baselines.

Each perf-smoke benchmark writes a ``BENCH_<exp>.json`` artifact.  This
tool reads ``tools/bench_baselines.json`` — a list of checks per
artifact — and fails (exit 1) when any gated metric regresses past its
tolerance band.  Only robust metrics are gated: ratios between arms
measured in the same process, deterministic simulation outputs,
invariant counters, and times a benchmark has already divided by the
machine's speed (E24's hit path).  Raw wall-clock throughput is
deliberately NOT gated — CI runners vary too much for that to be
signal.

Check forms (entries in a baseline's ``checks`` list):

  {"metric": "a.b.c", "op": "gte", "value": 1.3}
      fresh value at dotted path ``a.b.c`` must be >= 1.3 (after the
      optional ``rel_tol`` slack: value * (1 - rel_tol)).

  {"metric": "a.b", "op": "lte", "value": 10, "rel_tol": 0.1}
      fresh value must be <= 10 * 1.1.

  {"metric": "a.b", "op": "eq", "value": 0}
      exact match for ints/bools, ``math.isclose`` for floats.

  {"metric_ratio": ["fast.ops", "slow.ops"], "op": "gte", "value": 2.0}
      the ratio of two fresh values is gated instead of either one.

Dotted paths descend dicts by key and lists by integer index.  A path
that does not resolve is itself a failure — a benchmark silently
dropping a gated metric must not pass.  So is an artifact older than
the newest ``*.py`` under ``src/repro`` or ``benchmarks/`` (``STALE``):
it measured other code, and the message names the benchmark to re-run.

Usage:
  python tools/bench_gate.py                 # gate every baselined file
  python tools/bench_gate.py --only BENCH_e28.json
  python tools/bench_gate.py --allow-missing # skip absent artifacts
"""

from __future__ import annotations

import argparse
import json
import math
import sys
from pathlib import Path

REPO_ROOT = Path(__file__).resolve().parent.parent
DEFAULT_BASELINES = Path(__file__).resolve().parent / "bench_baselines.json"


def resolve(doc, path: str):
    """Walk ``doc`` along a dotted path; integer segments index lists."""
    node = doc
    for segment in path.split("."):
        if isinstance(node, list):
            node = node[int(segment)]
        elif isinstance(node, dict):
            node = node[segment]
        else:
            raise KeyError(segment)
    return node


def _values_equal(fresh, expected) -> bool:
    if isinstance(expected, bool) or isinstance(fresh, bool):
        return fresh is expected
    if isinstance(expected, float) or isinstance(fresh, float):
        return math.isclose(float(fresh), float(expected),
                            rel_tol=1e-9, abs_tol=1e-9)
    return fresh == expected


def evaluate_check(doc, check: dict):
    """Return (ok, label, detail) for one check against one document."""
    rel_tol = float(check.get("rel_tol", 0.0))
    op = check["op"]
    if "metric_ratio" in check:
        num_path, den_path = check["metric_ratio"]
        label = "{} / {}".format(num_path, den_path)
        num = float(resolve(doc, num_path))
        den = float(resolve(doc, den_path))
        if den == 0.0:
            return False, label, "denominator is zero"
        fresh = num / den
    else:
        label = check["metric"]
        fresh = resolve(doc, label)

    expected = check["value"]
    if op == "gte":
        floor = float(expected) * (1.0 - rel_tol)
        ok = float(fresh) >= floor
        detail = "{:.6g} >= {:.6g}".format(float(fresh), floor)
    elif op == "lte":
        ceiling = float(expected) * (1.0 + rel_tol)
        ok = float(fresh) <= ceiling
        detail = "{:.6g} <= {:.6g}".format(float(fresh), ceiling)
    elif op == "eq":
        ok = _values_equal(fresh, expected)
        detail = "{!r} == {!r}".format(fresh, expected)
    else:
        raise ValueError("unknown op: {!r}".format(op))
    return ok, label, detail


def newest_source() -> Path:
    """The most recently modified ``*.py`` the artifacts measure."""
    sources = [path for folder in ("src/repro", "benchmarks")
               for path in (REPO_ROOT / folder).rglob("*.py")]
    return max(sources, key=lambda path: path.stat().st_mtime)


def benchmark_for(name: str) -> str:
    """``BENCH_e23.json`` -> the benchmark file that writes it."""
    experiment = name[len("BENCH_"):-len(".json")]
    found = sorted((REPO_ROOT / "benchmarks").glob(
        "test_{}_*.py".format(experiment)))
    return found[0].relative_to(REPO_ROOT).as_posix() if found \
        else "the {} benchmark".format(experiment)


def gate_file(bench_path: Path, checks: list) -> list:
    """Evaluate every check for one artifact; returns result rows."""
    doc = json.loads(bench_path.read_text())
    rows = []
    for check in checks:
        try:
            ok, label, detail = evaluate_check(doc, check)
        except (KeyError, IndexError, TypeError, ValueError) as exc:
            label = check.get("metric") or " / ".join(
                check.get("metric_ratio", ["?"]))
            rows.append((False, label, "unresolvable: {!r}".format(exc)))
            continue
        rows.append((ok, label, detail))
    return rows


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        description="Gate fresh BENCH_*.json files against baselines.")
    parser.add_argument("--baselines", type=Path, default=DEFAULT_BASELINES,
                        help="baseline spec (default: %(default)s)")
    parser.add_argument("--root", type=Path, default=REPO_ROOT,
                        help="directory holding fresh BENCH_*.json files")
    parser.add_argument("--only", action="append", default=None,
                        metavar="FILE", help="gate only these artifacts "
                        "(repeatable, e.g. --only BENCH_e28.json)")
    parser.add_argument("--allow-missing", action="store_true",
                        help="skip artifacts that were not produced "
                        "instead of failing")
    args = parser.parse_args(argv)

    baselines = json.loads(args.baselines.read_text())
    selected = args.only or sorted(baselines)
    source = newest_source()
    failures = 0
    checked = 0
    for name in selected:
        if name not in baselines:
            print("FAIL {}: no baseline entry".format(name))
            failures += 1
            continue
        bench_path = args.root / name
        if not bench_path.exists():
            if args.allow_missing:
                print("SKIP {}: artifact not present".format(name))
                continue
            print("FAIL {}: artifact not present (run the benchmark "
                  "first)".format(name))
            failures += 1
            continue
        if bench_path.stat().st_mtime < source.stat().st_mtime:
            print("STALE {}: older than {}; re-run {}".format(
                name, source.relative_to(REPO_ROOT).as_posix(),
                benchmark_for(name)))
            failures += 1
            continue
        for ok, label, detail in gate_file(
                bench_path, baselines[name]["checks"]):
            checked += 1
            status = "PASS" if ok else "FAIL"
            if not ok:
                failures += 1
            print("{} {}: {}  [{}]".format(status, name, label, detail))

    print("-" * 60)
    print("{} checks, {} failures".format(checked, failures))
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
