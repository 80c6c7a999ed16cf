#!/usr/bin/env python3
"""Wall times of the end-to-end commands, as medians and quartiles in JSON.

    python3 scripts/wall_times.py --repeat 5 [--skip-tier1]

Times, each in a fresh process run from the checkout this script sits in,
with its ``src`` first on ``PYTHONPATH``:

* ``reproduce``: ``isingbm reproduce --quick`` into a temporary directory;
* ``sweep_beta``: ``isingbm sweep-beta --model two_phase_trained --dataset
  two_phase --beta-grid 0.5:6:56`` (18 nodes) into a temporary file;
* ``sweep_beta_500``: the same sweep over ``0.5:6:500``, so that the beta
  points and not process start-up and the table build dominate;
* ``gibbs_18``: ``isingbm sample --model two_phase_trained --backend gibbs
  --reads 20000 --chains 10 --burn-in 1000 --thinning 10`` (18 nodes, 3.8 M
  site updates, so the draw and not process start-up dominates) into a
  temporary file;
* ``train_exact_18``: ``isingbm train --dataset two_phase --arch 10v8h --beta
  3 --loss-every 1 --max-steps 150`` (18 nodes, exact gradients, the loss
  every step) into a temporary directory;
* ``train_sampled_18``: ``isingbm train --dataset two_phase --arch 10v8h
  --gradient sampled --backend gibbs --beta 3 --reads 200 --chains 10
  --max-steps 20 --loss-every 20`` (an 18-node full draw in two chunks and
  8-node clamped lanes per step, a path no gated workload reaches) into a
  temporary directory;
* ``tier1``: ``python -m pytest -q --continue-on-collection-errors``, the
  tier-1 suite, unless ``--skip-tier1`` is given (the suite's own smoke test
  of this script skips it, so the suite does not run itself).

``--repeat N`` runs the commands N times, one after the other in turn, so a
drift of the host touches each command alike. ``--base PATH`` names a second
checkout, say of the parent commit: each command then runs in both, one
right after the other, with that checkout's ``src`` first on ``PYTHONPATH``
and the side that runs first alternating from pair to pair, as in
``bench_pairs.py``. The JSON on stdout holds each command's argv, its run
times in seconds and their median and quartiles, and the environment; with
``--base``, each command also holds the base checkout's times under
``base``, and ``checkouts`` gives both checkouts' short sha and whether they
had uncommitted changes. A command that exits non-zero stops the script.
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

from bench_pairs import is_dirty, quartiles, short_sha

ROOT = Path(__file__).resolve().parents[1]
CLI = [sys.executable, "-m", "isingbm.cli"]


def commands(out: Path, skip_tier1: bool) -> dict[str, list[str]]:
    cmds = {
        "reproduce": CLI + ["reproduce", "--quick", "--out", str(out / "reproduce")],
        "sweep_beta": CLI + ["sweep-beta", "--model", "two_phase_trained", "--dataset", "two_phase",
                             "--beta-grid", "0.5:6:56", "--out", str(out / "two_phase.csv")],
        "sweep_beta_500": CLI + ["sweep-beta", "--model", "two_phase_trained", "--dataset", "two_phase",
                                 "--beta-grid", "0.5:6:500", "--out", str(out / "two_phase_500.csv")],
        "gibbs_18": CLI + ["sample", "--model", "two_phase_trained", "--backend", "gibbs", "--reads", "20000",
                           "--chains", "10", "--burn-in", "1000", "--thinning", "10", "--out", str(out / "gibbs_18.json")],
        "train_exact_18": CLI + ["train", "--dataset", "two_phase", "--arch", "10v8h", "--beta", "3",
                                 "--loss-every", "1", "--max-steps", "150", "--out", str(out / "train_exact_18")],
        "train_sampled_18": CLI + ["train", "--dataset", "two_phase", "--arch", "10v8h", "--gradient", "sampled",
                                   "--backend", "gibbs", "--beta", "3", "--reads", "200", "--chains", "10",
                                   "--max-steps", "20", "--loss-every", "20", "--out", str(out / "train_sampled_18")],
    }
    if not skip_tier1:
        cmds["tier1"] = [sys.executable, "-m", "pytest", "-q", "--continue-on-collection-errors"]
    return cmds


def run(name: str, argv: list[str], root: Path) -> float:
    """Seconds of one run of ``argv`` in ``root`` with its ``src`` first on ``PYTHONPATH``."""
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, [str(root / "src"), os.environ.get("PYTHONPATH")]))}
    start = time.perf_counter()
    proc = subprocess.run(argv, cwd=root, env=env, capture_output=True, text=True)
    elapsed = time.perf_counter() - start
    if proc.returncode != 0:
        raise SystemExit(f"{name} exited {proc.returncode} in {root}\n{proc.stdout[-2000:]}{proc.stderr[-2000:]}")
    return elapsed


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--repeat", type=int, default=3, help="runs of each command")
    ap.add_argument("--skip-tier1", action="store_true", help="leave out the tier-1 suite")
    ap.add_argument("--base", type=Path, help="a second checkout to run each command in, in alternation")
    args = ap.parse_args(argv)
    if args.repeat < 1:
        ap.error("--repeat must be >= 1")
    sides = {"change": ROOT} if args.base is None else {"change": ROOT, "base": args.base.resolve()}

    with tempfile.TemporaryDirectory() as tmp:
        cmds = commands(Path(tmp), args.skip_tier1)
        seconds: dict[str, dict[str, list[float]]] = {side: {name: [] for name in cmds} for side in sides}
        for pair, (name, argv_) in enumerate(list(cmds.items()) * args.repeat):
            for side in list(sides)[::1 if pair % 2 else -1]:  # the base first in even pairs
                seconds[side][name].append(run(name, argv_, sides[side]))
        shown = {name: ["python" if a == sys.executable else a.replace(tmp, "<tmp>") for a in argv_]
                 for name, argv_ in cmds.items()}

    def timing(side: str, name: str) -> dict:
        return {"seconds": seconds[side][name], **quartiles(seconds[side][name])}

    doc = {
        "repeat": args.repeat,
        "commands": {name: {"argv": shown[name], **timing("change", name)} for name in cmds},
        "environment": {"python": platform.python_version(), "platform": platform.platform(),
                        "cpu_count": os.cpu_count()},
    }
    if "base" in sides:
        for name, entry in doc["commands"].items():
            entry["base"] = timing("base", name)
        doc["checkouts"] = {side: {"sha": short_sha(root), "dirty": is_dirty(root)} for side, root in sides.items()}
    print(json.dumps(doc, indent=1))
    return 0


if __name__ == "__main__":
    sys.exit(main())
