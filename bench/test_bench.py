"""Tests of the benchmark itself, on its smoke mode.

    python -m pytest bench

Every workload prints every metric of BENCHMARK.json with its unit, traced
counts repeat exactly, a wrong fit target is counted as a failed op, and the
benchmark refuses to run without the sources.
"""

from __future__ import annotations

import functools
import json
import re
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
# Every workload run.py offers; BENCHMARK.json gates a subset of them.
WORKLOADS = ("sweep", "exact_train", "fit", "sampled_train")


def _run(cwd: Path, workload: str, trace: int) -> subprocess.CompletedProcess:
    cmd = [sys.executable, "bench/run.py", "--workload", workload, "--seed", "3",
           "--seconds", "1", "--trace", str(trace), "--smoke"]
    return subprocess.run(cmd, capture_output=True, text=True, timeout=300, cwd=cwd)


@functools.lru_cache(maxsize=None)
def smoke(workload: str, trace: int, attempt: int = 0) -> tuple[dict, str]:
    proc = _run(ROOT, workload, trace)
    assert proc.returncode == 0, proc.stderr
    lines = proc.stdout.strip().splitlines()
    return json.loads(lines[-1]), "\n".join(lines[:-1])


def test_gated_workloads_exist():
    assert {w["name"] for w in SPEC["workloads"]} <= set(WORKLOADS)


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", WORKLOADS)
def test_smoke_prints_every_metric_with_its_unit(workload, trace):
    result, text = smoke(workload, trace)
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1
    wanted = SPEC["end_to_end"] if trace == 0 else SPEC["per_layer"]
    assert {k: v["unit"] for k, v in result["metrics"].items()} == {m["name"]: m["unit"] for m in wanted}
    assert text.startswith("env ")
    for name, unit in [(m["name"], m["unit"]) for m in wanted] + [("error_rate", "ratio")]:
        assert re.search(rf"^{re.escape(name)}\s+\S+\s+{re.escape(unit)}\b", text, re.M), name


@pytest.mark.parametrize("workload", WORKLOADS)
def test_traced_counts_repeat_exactly(workload):
    counts = [
        {k: v["value"] for k, v in smoke(workload, 1, attempt)[0]["metrics"].items() if v["unit"] == "count"}
        for attempt in (0, 1)
    ]
    assert counts[0] == counts[1]


def test_wrong_fit_target_counts_as_failed_op():
    sys.path[:0] = [str(ROOT / "src"), str(HERE)]
    from workloads import Fit, Recorder

    wl = Fit(seed=3, smoke=True)
    wl.gibbs_target = 6.0
    wl.setup()
    rec = Recorder()
    try:
        wl.cycle(rec)
    finally:
        wl.close()
    assert rec.attempted == 11
    assert rec.failed == 6  # every Gibbs fit; the mock fits keep their own target


def test_refuses_to_run_without_the_sources(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / "bench", ignore=shutil.ignore_patterns("out", "__pycache__"))
    proc = _run(tmp_path, WORKLOADS[0], 0)
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout
