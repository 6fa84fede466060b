"""Smoke tests of the benchmark itself, at 1/50 scale.

    python -m pytest perf -q

Outside tier-1 ``testpaths``; they check that the benchmark keeps its
own contract, not how fast anything is.
"""

import json
import math
import re
import sys
from functools import lru_cache
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

import driver  # noqa: E402
import run  # noqa: E402
from workloads import ReadPoint  # noqa: E402

SCALE = 0.02
SEED = 11
NAME = re.compile(r"[A-Za-z0-9][A-Za-z0-9_.-]{0,63}")
MANIFEST = json.loads((HERE.parent / "BENCHMARK.json").read_text())
# the traced run adds what its drills counted to these two
DRILL_COUNTS = {"ha.promotions", "shard.failover_reroutes"}


@lru_cache(maxsize=None)
def run_of(name: str, trace: bool):
    return run.run_workload(name, SEED, 0.0, trace, SCALE)


def result_of(name: str, trace: bool):
    return run_of(name, trace)[0]


def test_manifest_and_registry_agree():
    assert [w["name"] for w in MANIFEST["workloads"]] == list(run.WORKLOADS)
    for entry in MANIFEST["workloads"]:
        assert entry["why"] == run.WORKLOADS[entry["name"]].why
    assert MANIFEST["paths"] == ["perf"]
    assert MANIFEST["command"] == ["python3", "perf/run.py"]
    names = [m["name"] for m in MANIFEST["end_to_end"] + MANIFEST["per_layer"]]
    assert len(names) == len(set(names))
    assert all(NAME.fullmatch(n) for n in names)
    setup = next(m for m in MANIFEST["end_to_end"] if m["name"] == "setup_s")
    assert (setup["unit"], setup["better"]) == ("s", "lower")


@pytest.mark.parametrize("trace", [False, True], ids=["e2e", "traced"])
@pytest.mark.parametrize("name", list(run.WORKLOADS))
def test_every_workload_emits_every_metric(name, trace):
    result = result_of(name, trace)
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True
    assert result["attempted"] >= 1 and result["failed"] == 0
    wanted = MANIFEST["per_layer" if trace else "end_to_end"]
    assert list(result["metrics"]) == [m["name"] for m in wanted]
    for metric in wanted:
        entry = result["metrics"][metric["name"]]
        assert entry["unit"] == metric["unit"]
        assert math.isfinite(entry["value"]), metric["name"]
    if not trace:
        assert all(e["value"] > 0 for e in result["metrics"].values())


def test_layers_a_workload_never_reaches_are_named():
    """The contract wants a number for every per-layer metric; where a
    workload has nothing to measure the notes say so."""
    unreached = {name: set(run_of(name, True)[1]["not_exercised"])
                 for name in run.WORKLOADS}
    commit_path = {"core.certify_us", "core.apply_us", "sqlengine.vacuum_ms"}
    assert commit_path | {"shard.merge_us"} <= unreached["read_point"]
    assert not commit_path & unreached["write_point"]
    assert "shard.merge_us" not in unreached["scan_range"]
    assert commit_path <= unreached["scan_range"]
    assert not set(run.DRILL_METRICS) & unreached["openloop_sim"]
    for name in run.WORKLOADS:
        if name != "openloop_sim":
            assert set(run.DRILL_METRICS) <= unreached[name]
        for metric in unreached[name]:
            assert result_of(name, True)["metrics"][metric]["value"] == 0.0


class WrongModel(ReadPoint):
    def model(self, seed):
        return {k: v + 1 for k, v in super().model(seed).items()}


class BrokenWarmUp(ReadPoint):
    def stream(self, seed, segment, count=None):
        stream = super().stream(seed, segment, count)
        if segment == -1:
            stream[0] = (0, "SELECT v FROM no_such_table", None, "read", 0)
        return stream


@pytest.mark.parametrize("broken", [WrongModel, BrokenWarmUp])
def test_a_warm_up_that_goes_wrong_fails_the_run(broken):
    workload = broken(SCALE)
    state = workload.setup_main(SEED)
    assert state.problems
    measurement = workload.measure(state, SEED, 0.0, segments=1)
    assert set(state.problems) <= set(measurement.problems)


def test_times_are_divided_by_the_machine_speed():
    class HalfSpeed(driver.Machine):
        def speed(self):
            return 2.0
    watch = driver.Stopwatch(HalfSpeed(), lap_ns=0)
    for _ in range(3):
        sum(range(20_000))
        watch.tick()
    assert watch.stop() == pytest.approx(watch.raw_ns / 2 / 1e9)
    workload = ReadPoint(SCALE)
    workload.machine = HalfSpeed()
    state = workload.setup_main(SEED)
    segment = workload.measure(state, SEED, 0.0, segments=1).segments[0]
    assert len(segment.slices) == driver.SLICES
    assert segment.reference_wall_ns == pytest.approx(segment.wall_ns / 2)
    assert segment.latencies() == [
        ns / 2 for ns in segment.latencies(at_reference_speed=False)]


@pytest.mark.parametrize("name", list(run.WORKLOADS))
def test_same_seed_same_counts(name):
    """A second run of the seed, this one without spans, counts exactly
    what the traced run counted: counts repeat, and spans observe
    without changing what the program does."""
    traced = result_of(name, True)["metrics"]
    workload = run.WORKLOADS[name](SCALE)
    state = workload.setup_main(SEED)
    m = workload.measure(state, SEED, 0.0, segments=driver.WINDOW)
    assert m.problems == [] and m.failed == 0
    for metric, value in run.counts(m).items():
        if metric not in DRILL_COUNTS:
            assert traced[metric]["value"] == value, metric


def test_same_seed_same_simulated_numbers():
    traced = result_of("openloop_sim", True)["metrics"]
    again = run.WORKLOADS["openloop_sim"](SCALE).drills(SEED)
    assert again["problems"] == []
    assert again["ha.promotions"] == 1
    for metric in run.DRILL_METRICS:
        assert traced[metric]["value"] == again[metric], metric


@pytest.mark.parametrize("name", list(run.WORKLOADS))
def test_other_seed_other_stream(name):
    workload = run.WORKLOADS[name](SCALE)
    assert workload.stream(SEED, 0) == workload.stream(SEED, 0)
    assert workload.stream(SEED, 0) != workload.stream(SEED + 1, 0)
    assert workload.stream(SEED, 0) != workload.stream(SEED, 1)
