"""scripts/bench_pairs.py on one smoke seed: the BENCH file it writes."""

import json
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]


def test_smoke_pair_writes_every_key(tmp_path):
    cmd = [sys.executable, str(ROOT / "scripts" / "bench_pairs.py"), "--base", str(ROOT), "--change", str(ROOT),
           "--workload", "sweep", "--seeds", "7", "--smoke", "--out-dir", str(tmp_path)]
    proc = subprocess.run(cmd, capture_output=True, text=True, timeout=300)
    assert proc.returncode == 0, proc.stderr
    (out,) = tmp_path.glob("BENCH_*.json")
    assert proc.stdout.strip() == str(out)
    doc = json.loads(out.read_text())
    assert set(doc) == {"base", "change", "environment", "workloads"}
    assert set(doc["base"]) == set(doc["change"]) == {"sha", "dirty"}
    assert {"python", "numpy", "blas", "cpu_count", "platform"} <= set(doc["environment"])
    run = doc["workloads"]["sweep"]
    assert set(run) == {"command", "seeds", "pairs", "summary"}
    assert run["seeds"] == [7]
    (pair,) = run["pairs"]
    assert pair["seed"] == 7 and pair["first"] == "base"
    end_to_end = {m["name"] for m in json.loads((ROOT / "BENCHMARK.json").read_text())["end_to_end"]}
    for side in ("base", "change"):
        assert set(pair[side]) == {"metrics", "minflt", "attempted", "failed", "correct"}
        assert isinstance(pair[side]["minflt"], int) and pair[side]["minflt"] > 0
        assert set(pair[side]["metrics"]) == end_to_end | {"error_rate"}
        assert pair[side]["correct"] and pair[side]["metrics"]["error_rate"] == 0.0
    assert set(run["summary"]) == end_to_end | {"error_rate"}
    for summary in run["summary"].values():
        assert set(summary) == {"better", "base", "change", "change_wins", "pairs", "ratio_of_medians"}
        assert set(summary["base"]) == set(summary["change"]) == {"median", "q1", "q3"}
        assert summary["pairs"] == 1 and 0 <= summary["change_wins"] <= 1
    assert run["summary"]["ops_per_s"]["better"] == "higher"
