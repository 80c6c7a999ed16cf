"""scripts/wall_times.py once, without the tier-1 suite: the JSON it prints."""

import json
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]


def test_one_round_without_tier1_prints_every_key():
    cmd = [sys.executable, str(ROOT / "scripts" / "wall_times.py"), "--repeat", "1", "--skip-tier1"]
    proc = subprocess.run(cmd, capture_output=True, text=True, timeout=300)
    assert proc.returncode == 0, proc.stderr
    doc = json.loads(proc.stdout)
    assert set(doc) == {"repeat", "commands", "environment"} and doc["repeat"] == 1
    assert set(doc["commands"]) == {"reproduce", "sweep_beta", "gibbs_18"}
    assert doc["commands"]["sweep_beta"]["argv"][-4:] == ["--beta-grid", "0.5:6:56", "--out", "<tmp>/two_phase.csv"]
    for timing in doc["commands"].values():
        assert set(timing) == {"argv", "seconds", "median", "q1", "q3"}
        (seconds,) = timing["seconds"]
        assert seconds > 0 and timing["median"] == timing["q1"] == timing["q3"] == seconds
