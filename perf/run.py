#!/usr/bin/env python3
"""The repository's benchmark: five workloads through the public SQL
entry points, end to end (``--trace 0``) or layer by layer
(``--trace 1``).

    python3 perf/run.py                                  # every workload
    python3 perf/run.py --workload read_point --seed 7 --seconds 10
    python3 perf/run.py --workload write_point --trace 1

Each workload runs in a fresh process with ``PYTHONHASHSEED=0``, one
client thread, ``repro.obs`` tracing off.  Every metric is printed by
name with its unit; the last line of standard output is one JSON object
``{"correct", "attempted", "failed", "metrics"}``.  Gated times are at
reference speed (see ``driver.Machine``).  The exit code is non-zero
when a correctness check failed.  See ``perf/README.md``.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import platform
import statistics
import subprocess
import sys
from pathlib import Path
from typing import Dict, List, Optional

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
MANIFEST = ROOT / "BENCHMARK.json"
OUT_DIR = HERE / "out"
LEDGER = HERE / "ledger.jsonl"
# setup_s is the median of at least 3 set-ups, and of as many more (up
# to 9) as fit in 2 s: a 0.2 s set-up needs more samples to hold still
SETUP_REPEATS = (3, 9)
SETUP_FILL_S = 2.0
UNTRACED_SEGMENTS = 2   # traced run: segments re-timed with spans off

if not (ROOT / "src" / "repro").is_dir() or not MANIFEST.is_file():
    sys.exit("perf/run.py: needs src/repro and BENCHMARK.json beside "
             "perf/ (run it from a checkout of the repository)")
sys.path[:0] = [str(HERE), str(ROOT / "src")]

import driver  # noqa: E402
import layers  # noqa: E402
import spans  # noqa: E402
import stacks  # noqa: E402
from simload import OpenLoopSim  # noqa: E402
from workloads import CLOSED_LOOP  # noqa: E402

WORKLOADS = {cls.name: cls for cls in CLOSED_LOOP + (OpenLoopSim,)}


def manifest() -> dict:
    return json.loads(MANIFEST.read_text(encoding="utf-8"))


# ---------------------------------------------------------------------------
# metrics
# ---------------------------------------------------------------------------

def timing_series(m: driver.Measurement) -> Dict[str, List[float]]:
    """The per-segment values the timing metrics are aggregated from,
    all at reference speed (each slice of the segment divided by the
    machine speed measured beside it)."""
    return {
        "stmt_per_s": [s.statements / s.reference_wall_ns * 1e9
                       for s in m.segments],
        "stmt_us_p50": [statistics.median(s.latencies()) / 1e3
                        for s in m.segments],
        "cpu_us_per_stmt": [s.reference_cpu_s / s.statements * 1e6
                            for s in m.segments],
    }


def end_to_end(m: driver.Measurement, series: Dict[str, List[float]],
               setup_times: List[float]) -> Dict[str, float]:
    return {
        "setup_s": statistics.median(setup_times),
        "stmt_per_s": driver.midmean(series["stmt_per_s"]),
        "stmt_us_p50": statistics.median(series["stmt_us_p50"]),
        "cpu_us_per_stmt": driver.midmean(series["cpu_us_per_stmt"]),
        "ok_frac": 1.0 - m.failed / m.attempted,
        "peak_rss_mb": m.window_rss_mb,
    }


def spread(values: List[float]) -> float:
    """Distance between the quartiles as a share of the median — what
    ``compare.py`` calls unresolved when, inside one run, it exceeds
    the metric's bound."""
    q1, _q2, q3 = statistics.quantiles(values, n=4)
    return (q3 - q1) / statistics.median(values)


def machine_speed(m: driver.Measurement) -> float:
    """Median over the run's slices of the calibration kernel's time
    over its reference: a gated timing times this is the raw one."""
    return statistics.median(s.speed for s in m.slices())


def counts(m: driver.Measurement) -> Dict[str, float]:
    """Per-layer counts over the fixed window of the run."""
    after, before = m.window_counters, m.start_counters
    ratio = stacks.ratio

    def d(key: str) -> float:
        return after[key] - before[key]
    statements = m.window_statements
    commits = d("mw.commits")
    parses = d("engine.parse_cache_hits") + d("engine.parse_cache_misses")
    lookups = d("cache.hits") + d("cache.misses")
    routed = (d("shard.single_shard") + d("shard.scatter_reads")
              + d("shard.multi_shard_writes") + d("shard.broadcast"))
    explicit = d("shard.twopc_commits") + d("shard.single_shard_commits")
    return {
        "sqlengine.rows_scanned_per_stmt":
            ratio(d("engine.rows_scanned"), statements),
        "sqlengine.seq_scans_per_stmt":
            ratio(d("engine.seq_scans"), statements),
        "sqlengine.index_probes_per_stmt":
            ratio(d("engine.index_probes"), statements),
        "sqlengine.parse_hit_rate":
            ratio(d("engine.parse_cache_hits"), parses),
        "sqlengine.versions_gced_per_commit":
            ratio(d("engine.versions_gced"), commits),
        "core.cert_abort_frac":
            ratio(d("mw.certification_aborts"),
                  commits + d("mw.certification_aborts")),
        "core.commits_per_stmt": ratio(commits, statements),
        "core.certifier_log_len": after["mw.certifier_log_len"],
        "core.recovery_log_len": after["mw.recovery_log_len"],
        "cache.hit_rate": ratio(d("cache.hits"), lookups),
        "cache.evictions_per_stmt":
            ratio(d("cache.evictions"), statements),
        "cache.invalidated_per_commit":
            ratio(d("cache.invalidated_entries"), commits),
        "ha.ship_prepares_per_commit": ratio(d("ha.prepares"), commits),
        "ha.ship_acks_per_commit": ratio(d("ha.acks"), commits),
        "ha.ledger_len": after["ha.ledger_len"],
        "ha.promotions": d("shard.group_promotions"),
        "shard.single_shard_frac": ratio(d("shard.single_shard"), routed),
        "shard.scatter_frac": ratio(d("shard.scatter_reads"), routed),
        "shard.twopc_frac": ratio(d("shard.twopc_commits"), explicit),
        "shard.failover_reroutes": d("shard.failover_reroutes"),
    }


def client_side(m: driver.Measurement) -> Dict[str, float]:
    """As measured, not at reference speed: what this machine did."""
    pooled = sorted(ns for segment in m.segments
                    for ns in segment.latencies(at_reference_speed=False))
    return {
        "client.machine_speed": machine_speed(m),
        "client.stmt_us_p95": driver.percentile(pooled, 95) / 1e3,
        "client.stmt_us_p99": driver.percentile(pooled, 99) / 1e3,
        "client.stmt_us_max": pooled[-1] / 1e3,
        "client.gc_pause_frac":
            sum(s.gc_ns for s in m.segments) / m.wall_ns,
        "client.rss_growth_mb": m.window_rss_mb - m.rss_start_mb,
    }


def span_metrics(recorder: spans.Recorder, traced: driver.Measurement,
                 untraced: driver.Measurement) -> Dict[str, float]:
    statements = traced.window_statements
    out = {f"span.{layer}_self_us": value / 1e3 / statements
           for layer, value in recorder.layer_self_ns().items()}

    # median latency, not rate: the collector's phases differ between
    # the two sets of segments and would drown the difference
    def p50(m: driver.Measurement) -> float:
        return statistics.median(timing_series(m)["stmt_us_p50"])
    out["perf.span_overhead_frac"] = p50(traced) / p50(untraced) - 1.0
    return out


# per-layer metrics only ``OpenLoopSim.drills`` measures
DRILL_METRICS = (
    "sim.txn_ms_p50", "sim.txn_ms_p99", "sim.goodput_frac", "sim.max_rate",
    "sim.outage_s", "core.shed_rate_limit", "core.shed_bulkhead",
    "core.shed_queue_depth",
)


# ---------------------------------------------------------------------------
# one workload
# ---------------------------------------------------------------------------

def run_workload(name: str, seed: int, seconds: float, trace: bool,
                 scale: float = 1.0, trace_dir: Optional[Path] = None):
    """Run one workload in this process.  Returns ``(result, notes)``:
    the four-key result the contract asks for and, for ``--out``, what
    does not fit in it.  ``scale`` shrinks rows and segments for the
    smoke tests."""
    workload = WORKLOADS[name](scale)
    if trace:
        values, m, notes = _traced(workload, seed, trace_dir)
        wanted = manifest()["per_layer"]
        # the contract wants a number for every per-layer metric from
        # every workload; a layer this workload never reaches reads 0
        # there and is named here, so that nobody takes it for a
        # measurement (the report prints "-", the ledger leaves it out)
        notes["not_exercised"] = sorted(
            entry["name"] for entry in wanted
            if entry["name"] not in values)
        values.update(dict.fromkeys(notes["not_exercised"], 0.0))
    else:
        state, first_setup = workload.timed_setup(seed)
        m = workload.measure(state, seed, seconds)
        # the repeats that steady setup_s come after the timed run, so
        # that peak_rss_mb is one set-up plus the run, not three
        del state
        setup_times = [first_setup]
        while len(setup_times) < SETUP_REPEATS[0] or (
                len(setup_times) < SETUP_REPEATS[1]
                and sum(setup_times) < SETUP_FILL_S * min(1.0, scale)):
            setup_times.append(workload.timed_setup(seed)[1])
        series = timing_series(m)
        values = end_to_end(m, series, setup_times)
        series["setup_s"] = setup_times
        speeds = [s.speed for s in m.slices()]
        notes = {"segments": len(m.segments),
                 "machine_speed": machine_speed(m),
                 "machine_speed_range": [min(speeds), max(speeds)],
                 "spread": {k: spread(v) for k, v in series.items()},
                 "series": series}
        wanted = manifest()["end_to_end"]
    units = {entry["name"]: entry["unit"] for entry in wanted}
    if set(units) != set(values):
        raise RuntimeError(
            "BENCHMARK.json and perf/run.py disagree on metrics: "
            f"{sorted(set(units) ^ set(values))}")
    bad = [k for k, v in values.items() if not math.isfinite(v)]
    problems = list(m.problems) + [f"{k} is not finite" for k in bad]
    result = {
        "correct": not problems,
        "attempted": m.attempted,
        "failed": m.failed,
        "metrics": {k: {"value": values[k], "unit": units[k]}
                    for k in units},
    }
    notes.update(problems=problems, errors=m.errors)
    return result, notes


def _traced(workload, seed: int, trace_dir: Optional[Path]):
    """The per-layer run: benchmark-owned spans over the fixed window,
    the same segments again with spans off (their difference is the
    benchmark's own tracing overhead), then the direct calls, the
    ladder and, for the open-loop workload, its drills."""
    recorder = spans.Recorder()
    state = workload.setup_main(seed)
    marks = layers.log_marks(state.front)
    with spans.installed(recorder):
        m = workload.measure(state, seed, 0.0, recorder,
                             segments=driver.WINDOW)
    untraced = workload.measure(state, seed, 0.0,
                                segments=UNTRACED_SEGMENTS,
                                first=driver.WINDOW)
    m.problems += untraced.problems
    values = counts(m)
    values.update(client_side(m))
    values.update(span_metrics(recorder, m, untraced))
    values.update(layers.direct_calls(
        workload, state, seed, marks,
        m.window_counters["shard.scatter_reads"]
        - m.start_counters["shard.scatter_reads"]))
    del state
    rungs, wrong = layers.ladder(workload, seed)
    values.update(rungs)
    m.problems += wrong
    drills = workload.drills(seed) if hasattr(workload, "drills") else {}
    for metric in DRILL_METRICS:
        if metric in drills:
            values[metric] = float(drills[metric])
    for key in ("ha.promotions", "shard.failover_reroutes"):
        values[key] += drills.get(key, 0)
    m.problems += drills.get("problems", [])
    notes = {"spans": {"kept": len(recorder.rows),
                       "dropped": recorder.dropped},
             "latency_samples": sum(s.statements for s in m.segments),
             "sim_latency_samples": drills.get("sim.txn_samples", 0)}
    if trace_dir is not None:
        trace_dir.mkdir(parents=True, exist_ok=True)
        path = trace_dir / f"trace-{workload.name}.jsonl"
        recorder.write(path)
        notes["trace_file"] = str(path.relative_to(ROOT))
    return values, m, notes


# ---------------------------------------------------------------------------
# output
# ---------------------------------------------------------------------------

def report(name: str, seed: int, trace: bool, result: dict,
           notes: dict) -> None:
    mode = "per-layer (traced)" if trace else "end-to-end"
    print(f"== {name}  seed {seed}  {mode} ==")
    skipped = notes.get("not_exercised", ())
    for metric, entry in result["metrics"].items():
        value = f"{'-':>16s}" if metric in skipped \
            else f"{entry['value']:>16.6f}"
        print(f"{metric:36s} {value} {entry['unit']}")
    for key, value in notes.items():
        if key != "series" and value not in ([], {}, None):
            print(f"# {key}: {value}")
    print(json.dumps(result))


def fingerprint() -> str:
    """Python, platform and nproc of the machine the numbers are from."""
    return (f"py{platform.python_version()} {platform.system()}-"
            f"{platform.machine()} nproc={os.cpu_count()}")


def commit_id() -> str:
    try:
        return subprocess.run(
            ["git", "describe", "--always", "--dirty"], cwd=ROOT,
            capture_output=True, text=True, check=True,
            timeout=10).stdout.strip()
    except (OSError, subprocess.SubprocessError):
        return "unknown"


def append_ledger(label: str, name: str, seed: int, trace: bool,
                  seconds: float, result: dict, notes: dict) -> None:
    """One row per metric the workload exercised.  ``set`` names the
    run set the row belongs to, ``seconds`` is the run length asked for
    (the traced run is a fixed window and takes none) and ``speed`` the
    machine's speed during the run (gated timing x speed = raw)."""
    commit, runner = commit_id(), fingerprint()
    speed = notes.get("machine_speed",
                      result["metrics"].get("client.machine_speed",
                                            {}).get("value"))
    with open(LEDGER, "a", encoding="utf-8") as handle:
        for metric, entry in result["metrics"].items():
            if metric in notes.get("not_exercised", ()):
                continue
            handle.write(json.dumps({
                "set": label, "commit": commit, "workload": name,
                "metric": metric, "value": entry["value"],
                "unit": entry["unit"], "seed": seed, "trace": int(trace),
                "seconds": None if trace else seconds, "speed": speed,
                "runner": runner,
            }) + "\n")


# ---------------------------------------------------------------------------
# command line
# ---------------------------------------------------------------------------

def parse_args(argv: List[str]) -> argparse.Namespace:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=sorted(WORKLOADS),
                        help="default: each one, in its own process")
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=None,
                        help="timed wall clock per run "
                             "(default: BENCHMARK.json run_seconds)")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0,
                        help="1: per-layer metrics and the span trace")
    parser.add_argument("--out", type=Path,
                        help="also write results and notes as JSON")
    parser.add_argument("--ledger", metavar="SET",
                        help="append every metric to perf/ledger.jsonl "
                             "as part of run set SET")
    return parser.parse_args(argv)


def run_all(args: argparse.Namespace) -> int:
    """Every workload, each in a fresh process; the children print."""
    OUT_DIR.mkdir(parents=True, exist_ok=True)
    status = 0
    combined = {}
    passthrough = ["--seed", str(args.seed), "--trace", str(args.trace)]
    if args.seconds is not None:
        passthrough += ["--seconds", str(args.seconds)]
    if args.ledger:
        passthrough += ["--ledger", args.ledger]
    for name in WORKLOADS:
        part = OUT_DIR / f"result-{name}-trace{args.trace}.json"
        child = subprocess.run(
            [sys.executable, str(HERE / "run.py"), "--workload", name,
             "--out", str(part)] + passthrough,
            env=dict(os.environ, PYTHONHASHSEED="0"), check=False)
        status = status or child.returncode
        if part.is_file():
            combined[name] = json.loads(part.read_text(encoding="utf-8"))
    if args.out is not None:
        args.out.write_text(json.dumps(combined, indent=1) + "\n",
                            encoding="utf-8")
    return status


def main(argv: List[str]) -> int:
    args = parse_args(argv)
    if args.workload is None:
        return run_all(args)
    if os.environ.get("PYTHONHASHSEED") != "0":
        # string hashing decides set order inside the program; pin it so
        # two runs of one seed execute the same instructions
        os.execve(sys.executable,
                  [sys.executable, str(HERE / "run.py")] + argv,
                  dict(os.environ, PYTHONHASHSEED="0"))
    seconds = args.seconds if args.seconds is not None \
        else float(manifest()["run_seconds"])
    result, notes = run_workload(
        args.workload, args.seed, seconds, bool(args.trace),
        trace_dir=OUT_DIR)
    report(args.workload, args.seed, bool(args.trace), result, notes)
    if args.out is not None:
        args.out.write_text(json.dumps({
            "workload": args.workload, "seed": args.seed,
            "trace": args.trace, "seconds": seconds,
            "runner": fingerprint(), "result": result, "notes": notes,
        }, indent=1) + "\n", encoding="utf-8")
    if args.ledger:
        append_ledger(args.ledger, args.workload, args.seed,
                      bool(args.trace), seconds, result, notes)
    return 0 if result["correct"] else 1


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
