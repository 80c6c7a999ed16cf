#!/usr/bin/env python3
"""Run the benchmark in base/change pairs and write one BENCH_<sha>.json.

    python3 scripts/bench_pairs.py --base ../parent --change . --workload sweep \
        --seeds 101 102 103 104 105 106 107 108 109 110 --seconds 55

``--base`` and ``--change`` are two checkouts of the repository. For each seed
the script runs ``python3 bench/run.py --workload W --seed S --seconds T
--trace 0`` once in each checkout, one after the other; the side that runs
first alternates from pair to pair, so a drift of the host does not favour
either side. Each run is a fresh process.

The output file, ``BENCH_<short sha of the change checkout>.json`` in
``--out-dir``, holds the two shas, the host and, under ``workloads``, every
run's end-to-end metrics and error rate, its minor page faults (``minflt``,
from ``getrusage``; compare them before trusting a ``sweep`` difference, which
the heap layout a process inherits can cause alone), and per metric the
median and quartiles of each side, the number of pairs the change won and the
ratio of the medians. A metric's direction comes from the change checkout's
BENCHMARK.json. A run for another workload is added to an existing file of
the same name; one for the same workload replaces its entry. ``--smoke``
passes ``--smoke`` to each run (one short cycle), for testing this script.
"""

from __future__ import annotations

import argparse
import json
import platform
import resource
import statistics
import subprocess
import sys
from pathlib import Path

# Fields of run.py's environment line that describe one run, not the host.
PER_RUN_ENV = ("git_sha", "workload", "seed", "seconds", "trace", "smoke")


def parse_args(argv):
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--base", type=Path, required=True, help="checkout of the parent")
    ap.add_argument("--change", type=Path, required=True, help="checkout of the change")
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seeds", type=int, nargs="+", required=True)
    ap.add_argument("--seconds", type=float, default=55.0)
    ap.add_argument("--out-dir", type=Path, default=Path("."))
    ap.add_argument("--smoke", action="store_true", help="one short cycle per run")
    return ap.parse_args(argv)


def short_sha(checkout: Path) -> str:
    proc = subprocess.run(["git", "-C", str(checkout), "rev-parse", "--short", "HEAD"],
                          capture_output=True, text=True)
    return proc.stdout.strip() if proc.returncode == 0 else "unknown"


def is_dirty(checkout: Path) -> bool | None:
    """Whether the checkout has uncommitted changes (None outside git)."""
    proc = subprocess.run(["git", "-C", str(checkout), "status", "--porcelain", "--untracked-files=no"],
                          capture_output=True, text=True)
    return bool(proc.stdout.strip()) if proc.returncode == 0 else None


def run_once(checkout: Path, args, seed: int) -> dict:
    cmd = [sys.executable, "bench/run.py", "--workload", args.workload, "--seed", str(seed),
           "--seconds", str(args.seconds), "--trace", "0"] + (["--smoke"] if args.smoke else [])
    minflt = resource.getrusage(resource.RUSAGE_CHILDREN).ru_minflt
    proc = subprocess.run(cmd, cwd=checkout, capture_output=True, text=True)
    minflt = resource.getrusage(resource.RUSAGE_CHILDREN).ru_minflt - minflt
    lines = proc.stdout.strip().splitlines()
    env = next((json.loads(line[4:]) for line in lines if line.startswith("env ")), {})
    try:
        result = json.loads(lines[-1])
    except (IndexError, ValueError):
        raise SystemExit(f"{checkout}: bench/run.py gave no result (exit {proc.returncode})\n{proc.stderr}")
    values = {name: m["value"] for name, m in result["metrics"].items()}
    values["error_rate"] = result["failed"] / result["attempted"] if result["attempted"] else 1.0
    return {"metrics": values, "minflt": minflt, "attempted": result["attempted"], "failed": result["failed"],
            "correct": result["correct"], "env": env}


def quartiles(values: list[float]) -> dict:
    if len(values) < 2:
        return {"median": values[0], "q1": values[0], "q3": values[0]}
    q1, median, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return {"median": median, "q1": q1, "q3": q3}


def summarize(pairs: list[dict], spec: dict) -> dict:
    better = {m["name"]: m["better"] for m in spec.get("end_to_end", [])}
    better["error_rate"] = "lower"
    out = {}
    for name in pairs[0]["base"]["metrics"]:
        direction = better.get(name, "lower")
        base = [p["base"]["metrics"][name] for p in pairs]
        change = [p["change"]["metrics"][name] for p in pairs]
        wins = sum((c > b) if direction == "higher" else (c < b) for b, c in zip(base, change))
        b, c = quartiles(base), quartiles(change)
        out[name] = {
            "better": direction,
            "base": b,
            "change": c,
            "change_wins": wins,
            "pairs": len(pairs),
            "ratio_of_medians": c["median"] / b["median"] if b["median"] else None,
        }
    return out


def main(argv=None) -> int:
    args = parse_args(argv)
    sides = {"base": args.base.resolve(), "change": args.change.resolve()}
    pairs, env = [], {}
    for i, seed in enumerate(args.seeds):
        order = ("base", "change") if i % 2 == 0 else ("change", "base")
        pair = {"seed": seed, "first": order[0]}
        for side in order:
            run = run_once(sides[side], args, seed)
            run_env = run.pop("env")
            env = env or {k: v for k, v in run_env.items() if k not in PER_RUN_ENV}
            pair[side] = run
            m = run["metrics"]
            print(f"seed {seed} {side:<6} ops_per_s {m.get('ops_per_s', float('nan')):10.2f}  "
                  f"error_rate {m['error_rate']:.3g}", file=sys.stderr)
        pairs.append(pair)

    spec_path = sides["change"] / "BENCHMARK.json"
    spec = json.loads(spec_path.read_text()) if spec_path.is_file() else {}
    sha = short_sha(sides["change"])
    out = args.out_dir / f"BENCH_{sha}.json"
    doc = json.loads(out.read_text()) if out.is_file() else {"workloads": {}}
    doc.update({
        "base": {"sha": short_sha(sides["base"]), "dirty": is_dirty(sides["base"])},
        "change": {"sha": sha, "dirty": is_dirty(sides["change"])},
        "environment": {**env, "platform": platform.platform(), "machine": platform.machine()},
    })
    summary = summarize(pairs, spec)
    doc["workloads"][args.workload] = {
        "command": f"python3 bench/run.py --workload {args.workload} --seed S --seconds {args.seconds:g} --trace 0"
                   + (" --smoke" if args.smoke else ""),
        "seeds": args.seeds,
        "pairs": pairs,
        "summary": summary,
    }
    args.out_dir.mkdir(parents=True, exist_ok=True)
    out.write_text(json.dumps(doc, indent=1) + "\n")
    for name, s in summary.items():
        print(f"{name:<14} base {s['base']['median']:>12.4g}  change {s['change']['median']:>12.4g}  "
              f"wins {s['change_wins']}/{s['pairs']}", file=sys.stderr)
    print(out)
    return 0


if __name__ == "__main__":
    sys.exit(main())
