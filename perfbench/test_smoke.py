"""Smoke test of the benchmark itself, at tiny stream sizes (a few seconds).

    python3 -m pytest perfbench/test_smoke.py -q
"""

import json
import shutil
import subprocess
import sys
from pathlib import Path

import run

HERE = Path(__file__).resolve().parent
SPEC = json.loads((HERE.parent / "BENCHMARK.json").read_text())


def _results(capsys, trace: int) -> list[dict]:
    assert run.main(["--workload", "all", "--size", "tiny", "--seconds", "1",
                     "--trace", str(trace)]) == 0
    out = capsys.readouterr().out
    return [json.loads(line) for line in out.splitlines() if line.startswith("{")]


def _check(results, names):
    assert len(results) == len(SPEC["workloads"])
    for result in results:
        assert set(result) == {"correct", "attempted", "failed", "metrics"}
        assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1
        assert list(result["metrics"]) == names
        for metric in result["metrics"].values():
            assert isinstance(metric["value"], (int, float))


def test_end_to_end_metrics(capsys):
    results = _results(capsys, 0)
    _check(results, [m["name"] for m in SPEC["end_to_end"]])
    for result in results:
        assert all(m["value"] > 0 for m in result["metrics"].values())


def test_traced_run(capsys):
    _check(_results(capsys, 1), [m["name"] for m in SPEC["per_layer"]])


def test_fails_without_the_program():
    """With only BENCHMARK.json and the benchmark, it exits nonzero, no result."""
    bare = run.WORK / "bare"
    shutil.rmtree(bare, ignore_errors=True)
    shutil.copytree(HERE, bare / HERE.name, ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(HERE.parent / "BENCHMARK.json", bare)
    try:
        proc = subprocess.run([sys.executable, *SPEC["command"][1:], "--workload", "serve",
                               "--seed", "1", "--seconds", "1", "--trace", "0"],
                              cwd=bare, capture_output=True, text=True, timeout=180)
    finally:
        shutil.rmtree(bare)
    assert proc.returncode != 0
    assert not any(line.startswith("{") for line in proc.stdout.splitlines())
