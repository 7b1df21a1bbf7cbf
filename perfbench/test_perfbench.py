"""Tests of the benchmark itself: python3 -m pytest perfbench -q

The smoke runs are reduced-length (--seconds 0.1, so one pass each) and
check the output contract against BENCHMARK.json.
"""

import json
import shutil
import subprocess
import sys
import time
from pathlib import Path

import numpy as np
import pytest

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
sys.path.insert(0, str(BENCH_DIR))

from tracer import Tracer, self_times  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())


def test_self_times_subtract_direct_children_only():
    # root [0, 10] > a [1, 4], b [5, 9] > c [6, 7]
    parent = np.array([-1, 0, 0, 2])
    duration = np.array([10.0, 3.0, 4.0, 1.0])
    assert self_times(parent, duration).tolist() == [3.0, 3.0, 3.0, 1.0]


def test_tracer_records_nesting_and_self_time(monkeypatch):
    ticks = iter(range(100))
    monkeypatch.setattr(time, "perf_counter", lambda: float(next(ticks)))
    tracer = Tracer()
    leaf = tracer.wrap("leaf", lambda: None)
    outer = tracer.wrap("outer", lambda: (leaf(), leaf()))
    mark = tracer.mark()
    outer()   # outer [0, 5], leaf [1, 2], leaf [3, 4]
    outer()   # a second request: outer [6, 11]
    assert list(tracer.parent) == [-1, 0, 0, -1, 3, 3]
    assert list(tracer.run_id) == [0, 0, 0, 3, 3, 3]
    duration = np.subtract(tracer.end, tracer.start)
    assert self_times(tracer.parent, duration).tolist() == [3.0, 1.0, 1.0, 3.0, 1.0, 1.0]
    assert tracer.mark()[0] - mark[0] == 6


def _run(workload: str, trace: int, cwd: Path = ROOT) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", "3",
         "--seconds", "0.1", "--trace", str(trace)],
        cwd=cwd, capture_output=True, text=True, timeout=170)


@pytest.mark.parametrize("workload,trace", [("presets-64", 0), ("posterior-moments", 0),
                                            ("presets-64", 1)])
def test_smoke_prints_every_metric_with_its_unit(workload, trace):
    done = _run(workload, trace)
    assert done.returncode == 0, done.stderr
    result = json.loads(done.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True and result["failed"] == 0
    assert result["attempted"] >= 1
    declared = SPEC["per_layer" if trace else "end_to_end"]
    assert {m["name"]: m["unit"] for m in declared} == {
        name: m["unit"] for name, m in result["metrics"].items()}
    if not trace:
        assert all(m["value"] > 0 for m in result["metrics"].values())


def test_fails_without_the_program(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(BENCH_DIR, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("_out", "__pycache__"))
    done = _run("presets-64", 0, cwd=tmp_path)
    assert done.returncode != 0
    assert '"correct"' not in done.stdout
