#!/usr/bin/env python3
"""Benchmark of isingbm: four closed-loop workloads on the public API.

    python3 bench/run.py --workload sweep --seed 1 --seconds 55 --trace 0
    python3 bench/run.py --workload all --seed 1 --seconds 55 --trace 0

Workloads (see ``workloads.py``): ``sweep`` (exact beta points on the 18- and
17-node fixtures), ``exact_train`` (exact-gradient training steps),
``fit`` (Gibbs and mock-server draws, each followed by ``fit_beta``) and
``sampled_train`` (sampled-gradient training steps through Gibbs and the
mock server). The workload seed makes every input; one op is one beta point,
one training step or one (draw, fit) pair, and every op's output is checked.
BENCHMARK.json gates sweep and sampled_train, which between them reach every
layer; fit and exact_train are as runnable but not gated, so that the two
gated workloads get runs long enough to be steady on a shared 2-vCPU host.

``--trace 0`` runs cycles of the workload until ``--seconds`` have passed and
at least 100 ops are done, stopping at a whole cycle, and prints:

    setup_s      median over fresh processes of import + inputs + warm-up
    ops_per_s    passed ops per second spent inside library calls
    op_ms_p50    median op latency of each cycle, averaged over the cycles
    op_ms_p90    90th percentile of the latency of all ops
    cpu_s        process CPU seconds of the timed loop, scaled to --seconds of wall
    peak_rss_mb  peak resident set of this process
    error_rate   failed / attempted ops (also the result's attempted/failed)

``--trace 1`` runs a fixed number of cycles twice, untraced and then with the
span recorder of ``tracing.py`` installed, and prints the per-layer metrics;
spans are written to ``bench/out/``. ``--smoke`` runs one short cycle.
The last line of output is the JSON result; the exit code is 0 when every op
passed its check.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
from pathlib import Path

# Pinned before numpy loads so that both sides of a comparison run the same
# BLAS setting; 1 is within nproc on any machine and keeps a shared box steady.
BLAS_THREADS = 1
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = str(BLAS_THREADS)

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
WORKLOAD_NAMES = ("sweep", "exact_train", "fit", "sampled_train")
MIN_OPS = 100
SETUP_SAMPLES = 5

END_TO_END_UNITS = {
    "setup_s": "s", "ops_per_s": "1/s", "op_ms_p50": "ms", "op_ms_p90": "ms",
    "cpu_s": "s", "peak_rss_mb": "MB",
}

SELF_MS = (
    "model.all_energies", "model.energies", "model.clamp_visible", "metrics.visible_marginal",
    "metrics.dkl_beta_derivatives", "metrics.conditional_probability", "metrics.kl_divergence",
    "metrics.Distribution.prob", "metrics.negative_conditional_log_likelihood", "metrics.fit_beta",
    "training.grad_dkl", "training.grad_ncll", "samplers.gibbs_sample", "samplers.SampleSet.init",
)
# Inclusive time, for names whose work mostly happens in traced callees.
TOTAL_MS = (
    "model.all_energies", "metrics.visible_marginal", "metrics.conditional_probability",
    "metrics.dkl_beta_derivatives", "metrics.negative_conditional_log_likelihood", "metrics.fit_beta",
    "samplers.gibbs_sample", "samplers.remote_sample",
)
CALLS = (
    "model.all_energies", "model.clamp_visible", "metrics.fit_beta",
    "samplers.gibbs_sample", "samplers.remote_sample",
)
LAYERS = ("model", "metrics", "samplers", "training", "mock_server", "datasets")


def parse_args(argv):
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=WORKLOAD_NAMES + ("all",))
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=float, default=30.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--smoke", action="store_true", help="one short cycle, one set-up sample")
    ap.add_argument("--setup-only", action="store_true", help=argparse.SUPPRESS)
    return ap.parse_args(argv)


# -- environment ---------------------------------------------------------------


def blas_threads() -> int | None:
    """Thread count the loaded OpenBLAS reports, when it can be asked."""
    import ctypes
    import glob

    import numpy as np

    libs = glob.glob(os.path.join(os.path.dirname(np.__file__), os.pardir, "numpy.libs", "*openblas*"))
    for path in libs:
        lib = ctypes.CDLL(path)
        for symbol in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_", "openblas_get_num_threads"):
            fn = getattr(lib, symbol, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                return int(fn())
    return None


def git_sha() -> str:
    head = ROOT / ".git" / "HEAD"
    try:
        ref = head.read_text().strip()
        if ref.startswith("ref: "):
            return (ROOT / ".git" / ref[5:]).read_text().strip()
        return ref
    except OSError:
        return "unknown"


def environment(args) -> dict:
    import numpy as np

    try:
        blas = np.show_config(mode="dicts").get("Build Dependencies", {}).get("blas", {})
    except TypeError:  # numpy before 1.25 prints its config only
        blas = {}
    return {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": f"{blas.get('name', 'unknown')} {blas.get('version', '')}".strip(),
        "blas_threads_pinned": BLAS_THREADS,
        "blas_threads_reported": blas_threads(),
        "cpu_count": os.cpu_count(),
        "git_sha": git_sha(),
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "smoke": args.smoke,
    }


# -- measurement ---------------------------------------------------------------


def setup_sample_in_subprocess(args) -> float:
    cmd = [sys.executable, str(Path(__file__)), "--workload", args.workload, "--seed", str(args.seed), "--setup-only"]
    out = subprocess.run(cmd, capture_output=True, text=True, timeout=120, check=True)
    return float(json.loads(out.stdout.strip().splitlines()[-1])["setup_s"])


def run_cycles(wl, rec, seconds: float, min_ops: int, cycles: int | None = None) -> tuple[float, float]:
    """Whole cycles until ``cycles`` are done, or until ``seconds`` of wall and
    ``min_ops`` ops; returns (wall seconds, process CPU seconds).

    Each cycle's median op latency goes to ``rec.cycle_medians``. A shared
    host switches between a fast and a slow state for seconds at a time, and
    short Gibbs calls differ almost twofold between them; the mean of the
    cycle medians moves in proportion to the share of the run spent in each
    state, where the median of all ops jumps from one state to the other."""
    wall0, cpu0 = time.perf_counter(), time.process_time()
    done = 0
    while True:
        first = len(rec.latencies)
        wl.cycle(rec)
        if len(rec.latencies) > first:
            rec.cycle_medians.append(statistics.median(rec.latencies[first:]))
        done += 1
        wall = time.perf_counter() - wall0
        if cycles is not None:
            if done >= cycles:
                break
        elif wall >= seconds and rec.attempted >= min_ops:
            break
    return time.perf_counter() - wall0, time.process_time() - cpu0


def ops_per_s(rec) -> float:
    return (rec.attempted - rec.failed) / rec.busy


def end_to_end(rec, setup_s: float, seconds: float, wall: float, cpu: float) -> dict:
    lat_ms = sorted(x * 1e3 for x in rec.latencies)
    p90 = statistics.quantiles(lat_ms, n=10)[8] if len(lat_ms) >= 2 else float("nan")
    return {
        "setup_s": setup_s,
        "ops_per_s": ops_per_s(rec),
        "op_ms_p50": statistics.fmean(rec.cycle_medians) * 1e3 if rec.cycle_medians else float("nan"),
        "op_ms_p90": p90,
        "cpu_s": cpu * (seconds / wall) if seconds > 0 else cpu,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
    }


def percentile_ms(seconds: list[float], q: int) -> float:
    """The q-th percentile in ms; 0 for a name that was never called."""
    ms = [x * 1e3 for x in seconds]
    if len(ms) < 2:
        return ms[0] if ms else 0.0
    return statistics.quantiles(ms, n=100)[q - 1]


def per_layer(tracer, rec, overhead_ops_per_s: float) -> dict[str, tuple[float, str]]:
    summ = tracer.summary()
    empty = {"calls": 0, "errors": 0, "self_s": 0.0, "durations": [], "work": 0}
    get = lambda name: summ.get(name, empty)  # noqa: E731
    out: dict[str, tuple[float, str]] = {}
    for name in CALLS:
        out[f"{name}.calls"] = (get(name)["calls"], "count")
    for name in SELF_MS:
        out[f"{name}.self_ms"] = (get(name)["self_s"] * 1e3, "ms")
    for name in TOTAL_MS:
        out[f"{name}.total_ms"] = (sum(get(name)["durations"]) * 1e3, "ms")
    out["model.all_energies.states"] = (get("model.all_energies")["work"], "count")
    for name in ("training.grad_dkl", "training.grad_ncll"):
        out[f"{name}.ms_p50"] = (percentile_ms(get(name)["durations"], 50), "ms")

    gibbs = get("samplers.gibbs_sample")
    out["samplers.gibbs.site_updates"] = (gibbs["work"], "count")
    out["samplers.gibbs.site_updates_per_s"] = (gibbs["work"] / gibbs["self_s"] if gibbs["self_s"] else 0.0, "1/s")

    remote = get("samplers.remote_sample")
    compute_s, overheads = tracer.remote_breakdown()
    out["samplers.remote_sample.failures"] = (remote["errors"], "count")
    out["samplers.remote_sample.ms_p50"] = (percentile_ms(remote["durations"], 50), "ms")
    out["samplers.remote_sample.ms_p90"] = (percentile_ms(remote["durations"], 90), "ms")
    out["samplers.remote_sample.overhead_ms"] = (percentile_ms(overheads, 50), "ms")
    out["mock_server.requests"] = (get("mock_server.request")["calls"], "count")
    out["mock_server.compute_ms"] = (compute_s * 1e3, "ms")

    c = rec.counters
    out["training.sampler_calls_full"] = (c["sampler_calls_full"], "count")
    out["training.sampler_calls_clamped"] = (c["sampler_calls_clamped"], "count")
    base = c["reuse_base"]
    out["training.clamped_reuse_base"] = (base, "count")
    out["training.clamped_reuse_ratio"] = ((base - c["reuse_clamped"]) / base if base else 0.0, "ratio")

    for layer in LAYERS:
        out[f"{layer}.self_ms"] = (sum(v["self_s"] for k, v in summ.items() if k.startswith(layer + ".")) * 1e3, "ms")
    out["trace.spans"] = (len(tracer.spans), "count")
    out["trace.absent_names"] = (len(tracer.absent), "count")
    out["trace.overhead_ops_per_s"] = (overhead_ops_per_s, "1/s")
    return out


# -- commands ----------------------------------------------------------------------


def run_one(args) -> int:
    t0 = time.perf_counter()
    if not (SRC / "isingbm" / "__init__.py").is_file():
        print(f"isingbm sources not found under {SRC}", file=sys.stderr)
        return 2
    sys.path[:0] = [str(SRC), str(HERE)]
    from workloads import WORKLOADS, Recorder

    wl = WORKLOADS[args.workload](args.seed, smoke=args.smoke)
    wl.setup()
    setup_main = time.perf_counter() - t0
    if args.setup_only:
        wl.close()
        print(json.dumps({"setup_s": setup_main}))
        return 0

    env = environment(args)
    print("env " + json.dumps(env))
    cycles = 1 if args.smoke else None
    if args.trace == 0:
        samples = [setup_main]
        if not args.smoke:
            samples += [setup_sample_in_subprocess(args) for _ in range(SETUP_SAMPLES - 1)]
        rec = Recorder()
        wall, cpu = run_cycles(wl, rec, args.seconds, 0 if args.smoke else MIN_OPS, cycles)
        wl.close()
        values = end_to_end(rec, statistics.median(samples), args.seconds, wall, cpu)
        metrics = {k: (v, END_TO_END_UNITS[k]) for k, v in values.items()}
        print(f"setup samples (s): {', '.join(f'{s:.4f}' for s in samples)}")
        print(f"ops: {len(rec.latencies)} passed in {wall:.2f}s wall, {rec.busy:.2f}s in library calls")
    else:
        from tracing import Tracer

        trace_cycles = 1 if args.smoke else wl.trace_cycles
        untraced = Recorder()
        run_cycles(wl, untraced, 0, 0, trace_cycles)
        wl.close()
        tracer = Tracer()
        tracer.install()
        try:
            wl.setup()  # again, so the mock server is built with the traced handler
            tracer.reset()
            rec = Recorder(tracer)
            run_cycles(wl, rec, 0, 0, trace_cycles)
            wl.close()
        finally:
            tracer.uninstall()
        metrics = per_layer(tracer, rec, ops_per_s(untraced) - ops_per_s(rec))
        rec.attempted += untraced.attempted
        rec.failed += untraced.failed
        out = HERE / "out" / f"spans-{args.workload}-seed{args.seed}.jsonl"
        tracer.dump(out, env)
        print(f"absent names: {', '.join(tracer.absent) or 'none'}")
        print(f"spans: {len(tracer.spans)} written to {out.relative_to(ROOT)}")

    error_rate = rec.failed / rec.attempted if rec.attempted else 1.0
    for name, (value, unit) in metrics.items():
        print(f"{name:<52} {value:>16.6g} {unit}")
    print(f"{'error_rate':<52} {error_rate:>16.6g} ratio  ({rec.failed} of {rec.attempted} ops failed)")
    correct = rec.attempted > 0 and rec.failed == 0 and all(math.isfinite(v) for v, _ in metrics.values())
    print(json.dumps({
        "correct": correct,
        "attempted": rec.attempted,
        "failed": rec.failed,
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
    }))
    return 0 if correct else 1


def run_all(args) -> int:
    """Each workload in a fresh process, then one table of every metric."""
    results = {}
    for name in WORKLOAD_NAMES:
        cmd = [sys.executable, str(Path(__file__)), "--workload", name, "--seed", str(args.seed),
               "--seconds", str(args.seconds), "--trace", str(args.trace)] + (["--smoke"] if args.smoke else [])
        proc = subprocess.run(cmd, capture_output=True, text=True, timeout=900)
        sys.stderr.write(proc.stderr)
        lines = proc.stdout.strip().splitlines()
        if not lines:
            print(f"{name}: no result (exit {proc.returncode})", file=sys.stderr)
            return 1
        results[name] = json.loads(lines[-1])
    names = list(next(iter(results.values()))["metrics"])
    print(f"{'metric':<52}" + "".join(f"{w:>16}" for w in results) + "  unit")
    for metric in names:
        unit = next(iter(results.values()))["metrics"][metric]["unit"]
        print(f"{metric:<52}" + "".join(f"{r['metrics'][metric]['value']:>16.6g}" for r in results.values()) + f"  {unit}")
    rates = [r["failed"] / r["attempted"] for r in results.values()]
    print(f"{'error_rate':<52}" + "".join(f"{x:>16.6g}" for x in rates) + "  ratio")
    return 0 if all(r["correct"] for r in results.values()) else 1


def main(argv=None) -> int:
    args = parse_args(argv)
    return run_all(args) if args.workload == "all" else run_one(args)


if __name__ == "__main__":
    sys.exit(main())
