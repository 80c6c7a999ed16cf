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
    assert set(doc["commands"]) == {"reproduce", "sweep_beta", "sweep_beta_500", "gibbs_18", "train_exact_18",
                                    "train_sampled_18"}
    assert doc["commands"]["sweep_beta"]["argv"][-4:] == ["--beta-grid", "0.5:6:56", "--out", "<tmp>/two_phase.csv"]
    assert doc["commands"]["sweep_beta_500"]["argv"][-4:] == ["--beta-grid", "0.5:6:500", "--out",
                                                              "<tmp>/two_phase_500.csv"]
    for timing in doc["commands"].values():
        assert set(timing) == {"argv", "seconds", "median", "q1", "q3"}
        (seconds,) = timing["seconds"]
        assert seconds > 0 and timing["median"] == timing["q1"] == timing["q3"] == seconds


def test_base_checkout_runs_each_command_in_alternation(monkeypatch, capsys, tmp_path):
    # main() in process, with two cheap commands in place of the real ones
    monkeypatch.syspath_prepend(str(ROOT / "scripts"))
    import wall_times

    ran = []
    monkeypatch.setattr(wall_times, "commands", lambda out, skip_tier1: {"a": ["a"], "b": ["b"]})
    monkeypatch.setattr(wall_times, "run", lambda name, argv, root: ran.append((name, root)) or 1.0 + len(ran))
    assert wall_times.main(["--repeat", "2", "--base", str(tmp_path)]) == 0
    doc = json.loads(capsys.readouterr().out)
    assert set(doc) == {"repeat", "commands", "environment", "checkouts"} and doc["repeat"] == 2
    assert set(doc["checkouts"]) == {"change", "base"}
    for side in doc["checkouts"].values():
        assert set(side) == {"sha", "dirty"}
    base, change = tmp_path.resolve(), ROOT
    # the side that runs first alternates from pair to pair
    assert ran == [("a", base), ("a", change), ("b", change), ("b", base),
                   ("a", base), ("a", change), ("b", change), ("b", base)]
    assert doc["commands"]["a"]["seconds"] == [3.0, 7.0] and doc["commands"]["a"]["base"]["seconds"] == [2.0, 6.0]
    for timing in doc["commands"].values():
        assert set(timing) == {"argv", "seconds", "median", "q1", "q3", "base"}
        assert set(timing["base"]) == {"seconds", "median", "q1", "q3"}
