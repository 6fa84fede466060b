"""``tools/bench_gate.py`` judges only artifacts of the code at hand."""

import importlib.util
import json
import os
from pathlib import Path

ROOT = Path(__file__).resolve().parents[2]
SPEC = importlib.util.spec_from_file_location(
    "bench_gate", ROOT / "tools" / "bench_gate.py")
bench_gate = importlib.util.module_from_spec(SPEC)
SPEC.loader.exec_module(bench_gate)


def _artifact(tmp_path, mtime):
    baselines = tmp_path / "baselines.json"
    baselines.write_text(json.dumps({"BENCH_e27.json": {"checks": [
        {"metric": "equivalence.violations", "op": "eq", "value": 0}]}}))
    artifact = tmp_path / "BENCH_e27.json"
    artifact.write_text(json.dumps({"equivalence": {"violations": 0}}))
    os.utime(artifact, (mtime, mtime))
    return ["--root", str(tmp_path), "--baselines", str(baselines)]


def test_an_artifact_older_than_the_code_is_stale(tmp_path, capsys):
    assert bench_gate.main(_artifact(tmp_path, mtime=0)) == 1
    out = capsys.readouterr().out
    assert "STALE BENCH_e27.json" in out
    assert "re-run benchmarks/test_e27_writeset_pipeline.py" in out


def test_a_fresh_artifact_is_gated(tmp_path, capsys):
    newest = bench_gate.newest_source().stat().st_mtime
    assert bench_gate.main(_artifact(tmp_path, mtime=newest + 1)) == 0
    assert "PASS BENCH_e27.json" in capsys.readouterr().out
