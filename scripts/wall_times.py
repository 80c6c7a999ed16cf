#!/usr/bin/env python3
"""Wall times of the end-to-end commands, as medians and quartiles in JSON.

    python3 scripts/wall_times.py --repeat 5 [--skip-tier1]

Times, each in a fresh process run from the checkout this script sits in,
with its ``src`` first on ``PYTHONPATH``:

* ``reproduce``: ``isingbm reproduce --quick`` into a temporary directory;
* ``sweep_beta``: ``isingbm sweep-beta --model two_phase_trained --dataset
  two_phase --beta-grid 0.5:6:56`` (18 nodes) into a temporary file;
* ``gibbs_18``: ``isingbm sample --model two_phase_trained --backend gibbs
  --reads 20000 --chains 10 --burn-in 1000 --thinning 10`` (18 nodes, 3.8 M
  site updates, so the draw and not process start-up dominates) into a
  temporary file;
* ``tier1``: ``python -m pytest -q --continue-on-collection-errors``, the
  tier-1 suite, unless ``--skip-tier1`` is given (the suite's own smoke test
  of this script skips it, so the suite does not run itself).

``--repeat N`` runs the commands N times, one after the other in turn, so a
drift of the host touches each command alike. The JSON on stdout holds each
command's argv, its run times in seconds and their median and quartiles,
and the environment. A command that exits non-zero stops the script.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import subprocess
import sys
import tempfile
import time
from pathlib import Path

from bench_pairs import quartiles

ROOT = Path(__file__).resolve().parents[1]
CLI = [sys.executable, "-m", "isingbm.cli"]


def commands(out: Path, skip_tier1: bool) -> dict[str, list[str]]:
    cmds = {
        "reproduce": CLI + ["reproduce", "--quick", "--out", str(out / "reproduce")],
        "sweep_beta": CLI + ["sweep-beta", "--model", "two_phase_trained", "--dataset", "two_phase",
                             "--beta-grid", "0.5:6:56", "--out", str(out / "two_phase.csv")],
        "gibbs_18": CLI + ["sample", "--model", "two_phase_trained", "--backend", "gibbs", "--reads", "20000",
                           "--chains", "10", "--burn-in", "1000", "--thinning", "10", "--out", str(out / "gibbs_18.json")],
    }
    if not skip_tier1:
        cmds["tier1"] = [sys.executable, "-m", "pytest", "-q", "--continue-on-collection-errors"]
    return cmds


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--repeat", type=int, default=3, help="runs of each command")
    ap.add_argument("--skip-tier1", action="store_true", help="leave out the tier-1 suite")
    args = ap.parse_args(argv)
    if args.repeat < 1:
        ap.error("--repeat must be >= 1")

    env = {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, [str(ROOT / "src"), os.environ.get("PYTHONPATH")]))}
    with tempfile.TemporaryDirectory() as tmp:
        cmds = commands(Path(tmp), args.skip_tier1)
        seconds: dict[str, list[float]] = {name: [] for name in cmds}
        for _ in range(args.repeat):
            for name, argv_ in cmds.items():
                start = time.perf_counter()
                proc = subprocess.run(argv_, cwd=ROOT, env=env, capture_output=True, text=True)
                elapsed = time.perf_counter() - start
                if proc.returncode != 0:
                    raise SystemExit(f"{name} exited {proc.returncode}\n{proc.stdout[-2000:]}{proc.stderr[-2000:]}")
                seconds[name].append(elapsed)
        shown = {name: ["python" if a == sys.executable else a.replace(tmp, "<tmp>") for a in argv_]
                 for name, argv_ in cmds.items()}

    doc = {
        "repeat": args.repeat,
        "commands": {name: {"argv": shown[name], "seconds": seconds[name], **quartiles(seconds[name])}
                     for name in cmds},
        "environment": {"python": platform.python_version(), "platform": platform.platform(),
                        "cpu_count": os.cpu_count()},
    }
    print(json.dumps(doc, indent=1))
    return 0


if __name__ == "__main__":
    sys.exit(main())
