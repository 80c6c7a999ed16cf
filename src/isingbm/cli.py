"""Experiment runner: train machines, sweep and fit temperatures, verify the
monotonicity propositions, and drive sampling backends from the shell.

Every command writes plain CSV/JSON artifacts plus a manifest recording the
exact invocation, config, input hashes, and outputs, so deterministic runs can
be reproduced bit-for-bit (wall-clock fields aside). Exit codes: 0 success,
1 internal error, 2 usage or input error, 3 remote sampling failure.
"""

from __future__ import annotations

import csv
import hashlib
import json
import math
import re
import sys
import time
from dataclasses import replace
from datetime import datetime, timezone
from pathlib import Path

import click
import numpy as np
from click.core import ParameterSource

from . import __version__
from .datasets import (
    _BUILTIN_NAME,
    FIXTURE_NAMES,
    Dataset,
    builtin_dataset,
    load_dataset,
    load_fixture_entry,
)
from .errors import CapacityError, DatasetFormatError, ProtocolError, TransportError
from .metrics import (
    DEFAULT_BETA_GRID,
    dataset_distribution,
    dkl_beta_derivatives,
    _check_excited_decrease,
    _check_ground_monotone,
    _row_conditionals,
    fit_beta,
    kl_divergence,
    visible_marginal,
)
from .model import (
    BoltzmannMachine,
    _replacing,
    _write_json,
    ground_set,
    load_model_entry,
    random_machine,
    save_model,
)
from .samplers import (
    Backend,
    SamplerConfig,
    draw_samples,
    save_sample_set,
    load_sample_set,
)
from .training import (
    Architecture,
    GradientMode,
    TrainingConfig,
    train_distribution,
    train_function_approximator,
)

EXIT_INTERNAL = 1
EXIT_INPUT = 2
EXIT_TRANSPORT = 3


# The error boundary: what a command raises, its exit code and its kind.
_EXIT_CODES = {
    CapacityError: (EXIT_INPUT, "capacity"),
    DatasetFormatError: (EXIT_INPUT, "input"),
    ValueError: (EXIT_INPUT, "input"),
    TransportError: (EXIT_TRANSPORT, "transport"),
    ProtocolError: (EXIT_TRANSPORT, "protocol"),
}


def _fail(code: int, kind: str, message: str) -> "SystemExit":
    sys.stderr.write(json.dumps({"error": {"kind": kind, "message": message}}) + "\n")
    return SystemExit(code)


class _ErrorBoundary(click.Group):
    """Turns the failures in ``_EXIT_CODES``, raised by any command, into an
    exit code and one JSON error line on stderr; anything else is exit 1."""

    def invoke(self, ctx):
        try:
            return super().invoke(ctx)
        except tuple(_EXIT_CODES) as exc:
            code, kind = next(v for t, v in _EXIT_CODES.items() if isinstance(exc, t))
            raise _fail(code, kind, str(exc))


def _utc_now() -> str:
    return datetime.now(timezone.utc).isoformat()


def _sha256(path: Path) -> str:
    return hashlib.sha256(path.read_bytes()).hexdigest()


def _echo_result(doc: dict) -> None:
    """A command's result line on stdout, as strict JSON: a value that is not
    finite is refused (a ValueError, exit 2) unless the command wrote it as
    null on purpose."""
    click.echo(json.dumps(doc, allow_nan=False))


def _write_manifest(
    path: Path,
    command: str,
    config: dict,
    seeds: list[int],
    inputs: list[Path],
    outputs: list[Path],
    started: str,
) -> None:
    doc = {
        "command": command,
        "argv": sys.argv,
        "version": __version__,
        "config": config,
        "seeds": seeds,
        "inputs": {str(p): _sha256(p) for p in inputs if p.is_file()},
        "outputs": [str(p) for p in outputs],
        "started_at": started,
        "finished_at": _utc_now(),
    }
    _write_json(path, doc)


def _parse_beta_grid(spec: str | None) -> np.ndarray:
    """Parse 'lo:hi:n' (linear) or 'lo:hi:nlog' (log-spaced)."""
    if spec is None:
        return DEFAULT_BETA_GRID
    m = re.fullmatch(r"([0-9eE.+-]+):([0-9eE.+-]+):(\d+)(log)?", spec.strip())
    if not m:
        raise _fail(EXIT_INPUT, "usage", f"bad --beta-grid {spec!r}; expected lo:hi:n or lo:hi:nlog")
    lo, hi, n = float(m.group(1)), float(m.group(2)), int(m.group(3))
    if lo <= 0 or hi <= lo or n < 2:
        raise _fail(EXIT_INPUT, "usage", f"bad --beta-grid bounds {spec!r}")
    return np.geomspace(lo, hi, n) if m.group(4) else np.linspace(lo, hi, n)


def _parse_arch(spec: str, connectivity: str = "complete") -> Architecture:
    """Parse '3v1h' (visible+hidden) or '4i3o10h' (input/output/hidden)."""
    m = re.fullmatch(r"(?:(\d+)v)?(?:(\d+)i)?(?:(\d+)o)?(\d+)h", spec.strip())
    if not m or (m.group(1) and (m.group(2) or m.group(3))):
        raise _fail(EXIT_INPUT, "usage", f"bad --arch {spec!r}; expected like 3v1h or 4i3o10h")
    if m.group(1):
        m_i, m_o = int(m.group(1)), 0
    else:
        m_i, m_o = int(m.group(2) or 0), int(m.group(3) or 0)
    n_h = int(m.group(4))
    pairs = None
    if connectivity == "bipartite":
        m_v = m_i + m_o
        pairs = tuple((v, m_v + h) for v in range(m_v) for h in range(n_h))
    return Architecture(m_i, m_o, n_h, pairs=pairs)


def _resolve_dataset(spec: str) -> tuple[Dataset, str, Path | None]:
    if _BUILTIN_NAME.fullmatch(spec):
        return builtin_dataset(spec), spec.lower(), None
    path = Path(spec)
    if not path.is_file():
        raise _fail(EXIT_INPUT, "input", f"dataset {spec!r} is neither a built-in name nor a file")
    try:
        return load_dataset(path), path.stem, path
    except DatasetFormatError as exc:
        raise _fail(EXIT_INPUT, "input", f"cannot parse dataset {spec!r}: {exc}")


def _resolve_model(spec: str) -> tuple[BoltzmannMachine, dict, Path | None]:
    if spec in FIXTURE_NAMES:
        bm, meta = load_fixture_entry(spec)
        return bm, meta, None
    path = Path(spec)
    if not path.is_file():
        raise _fail(EXIT_INPUT, "input", f"model {spec!r} is neither a fixture name nor a file")
    try:
        bm, meta = load_model_entry(path)
    except ValueError as exc:
        raise _fail(EXIT_INPUT, "input", f"cannot parse model {spec!r}: {exc}")
    return bm, meta, path


def _state_label(state) -> str:
    return "".join("1" if int(v) > 0 else "0" for v in state)


@click.group(cls=_ErrorBoundary)
@click.version_option(__version__)
def main():
    """Train and analyze Boltzmann machines over Ising graphs."""


# ---------------------------------------------------------------- train


# The ``train`` flags that build its TrainingConfig; the others (seed, seeds,
# dataset, arch, connectivity, mode, out) are honoured beside --config.
_CONFIG_FLAGS = ("gradient", "backend", "beta", "reads", "chains", "endpoint", "eta", "weight_decay", "momentum",
                 "max_steps", "delta_min", "h_max", "j_max", "init_range", "loss_every")


@main.command("train")
@click.option("--dataset", "dataset_spec", required=True, help="built-in name or CSV path")
@click.option("--arch", "arch_spec", required=True, help="e.g. 3v1h or 4i3o10h")
@click.option("--connectivity", type=click.Choice(["complete", "bipartite"]), default="complete")
@click.option("--mode", type=click.Choice(["distribution", "function"]), default="distribution")
@click.option("--gradient", type=click.Choice(["exact", "sampled"]), default="exact")
@click.option("--backend", type=click.Choice(["exact", "gibbs", "remote"]), default="exact")
@click.option("--beta", default=SamplerConfig.beta, show_default=True, help="sampler inverse temperature")
@click.option("--reads", default=SamplerConfig.num_reads, show_default=True)
@click.option("--chains", default=SamplerConfig.num_chains, show_default=True)
@click.option("--endpoint", default=None, help="remote backend URL")
@click.option("--eta", default=TrainingConfig.eta, show_default=True)
@click.option("--weight-decay", default=TrainingConfig.weight_decay, show_default=True)
@click.option("--momentum", default=TrainingConfig.momentum, show_default=True)
@click.option("--max-steps", default=TrainingConfig.max_steps, show_default=True)
@click.option("--delta-min", default=TrainingConfig.delta_theta_min, show_default=True)
@click.option("--h-max", default=TrainingConfig.h_max, show_default=True)
@click.option("--j-max", default=TrainingConfig.j_max, show_default=True)
@click.option("--init-range", default=TrainingConfig.init_range, show_default=True)
@click.option("--loss-every", default=TrainingConfig.loss_every, show_default=True)
@click.option("--seeds", default=1, show_default=True, type=click.IntRange(min=1),
              help="number of seeded restarts")
@click.option("--seed", default=TrainingConfig.seed, show_default=True, help="base seed")
@click.option("--config", "config_path", type=click.Path(path_type=Path), default=None,
              help="training-config JSON, such as a train manifest's training_config; "
                   "it sets every hyperparameter, so no hyperparameter flag may be given beside it")
@click.option("--out", "out_dir", type=click.Path(path_type=Path), required=True)
def cmd_train(dataset_spec, arch_spec, connectivity, mode, gradient, backend, beta, reads,
              chains, endpoint, eta, weight_decay, momentum, max_steps, delta_min,
              h_max, j_max, init_range, loss_every, seeds, seed, config_path, out_dir):
    """Run seeded training restarts and keep the best model."""
    started = _utc_now()
    if config_path is not None:
        ctx = click.get_current_context()
        typed = [f"--{name.replace('_', '-')}" for name in _CONFIG_FLAGS
                 if ctx.get_parameter_source(name) is ParameterSource.COMMANDLINE]
        if typed:
            raise _fail(EXIT_INPUT, "usage", f"{', '.join(typed)} cannot be combined with --config")
    dataset, dataset_id, dataset_path = _resolve_dataset(dataset_spec)
    arch = _parse_arch(arch_spec, connectivity)
    out_dir.mkdir(parents=True, exist_ok=True)

    if config_path is not None:
        try:
            base_cfg = TrainingConfig.from_dict(json.loads(config_path.read_text()))
        except (OSError, ValueError, TypeError) as exc:
            raise _fail(EXIT_INPUT, "input", f"cannot load training config: {exc}")
    else:
        base_cfg = TrainingConfig(
            eta=eta, weight_decay=weight_decay, momentum=momentum,
            max_steps=max_steps, delta_theta_min=delta_min,
            h_max=h_max, j_max=j_max,
            gradient_mode=GradientMode(gradient),
            sampler=SamplerConfig(beta=beta, num_reads=reads, seed=seed, backend=Backend(backend),
                                  num_chains=chains, endpoint=endpoint),
            init_range=init_range, seed=seed, loss_every=loss_every,
        )

    # Only the best machine so far is kept: each machine holds its energy table.
    best = None
    outputs = []
    for run_seed in range(seed, seed + seeds):
        cfg = replace(base_cfg, seed=run_seed, sampler=replace(base_cfg.sampler, seed=run_seed))
        if mode == "distribution":
            bm, trace = train_distribution(dataset, arch, cfg)
        else:
            bm, trace = train_function_approximator(dataset, arch, cfg)
        trace_path = out_dir / f"trace_seed{run_seed}.csv"
        trace.to_csv(trace_path)
        outputs.append(trace_path)
        if best is None or trace.final_loss < best[2].final_loss:
            best = (run_seed, bm, trace)
        del bm
        click.echo(f"seed {run_seed}: final loss {trace.final_loss:.6g} after {trace.num_steps} steps")

    best_seed, best_bm, best_trace = best
    # NaN when no loss could be evaluated (past the cap): JSON null
    final_loss = best_trace.final_loss if math.isfinite(best_trace.final_loss) else None
    config_snapshot = {
        "dataset": dataset_id, "arch": arch_spec, "connectivity": connectivity,
        "mode": mode, "seeds": seeds, "seed": seed,
        "training_config": base_cfg.to_dict(),
    }
    config_hash = hashlib.sha256(json.dumps(config_snapshot, sort_keys=True).encode()).hexdigest()[:16]
    model_path = out_dir / "model_best.json"
    save_model(
        best_bm, model_path,
        metadata={
            "dataset": dataset_id,
            "config_hash": config_hash,
            "seed": best_seed,
            "training_beta": base_cfg.sampler.beta,
            "final_loss": final_loss,
        },
    )
    outputs.append(model_path)
    _write_manifest(out_dir / "manifest.json", "train", config_snapshot,
                    list(range(seed, seed + seeds)),
                    [p for p in [dataset_path] if p], outputs, started)
    _echo_result({
        "best_seed": best_seed,
        "best_final_loss": final_loss,
        "model": str(model_path),
    })


# ---------------------------------------------------------------- sweep-beta


@main.command("sweep-beta")
@click.option("--model", "model_spec", required=True, help="fixture name or model JSON path")
@click.option("--dataset", "dataset_spec", required=True)
@click.option("--beta-grid", "grid_spec", default=None, help="lo:hi:n or lo:hi:nlog")
@click.option("--out", "out_path", type=click.Path(path_type=Path), required=True)
def cmd_sweep_beta(model_spec, dataset_spec, grid_spec, out_path):
    """Divergence, per-data-state probabilities, and conditionals across beta."""
    started = _utc_now()
    bm, _, model_path = _resolve_model(model_spec)
    dataset, _, dataset_path = _resolve_dataset(dataset_spec)
    grid = _parse_beta_grid(grid_spec)

    q = dataset_distribution(dataset)
    conds = dataset.io_split is not None and bm.num_visible_output >= 1
    header = ["beta", "dkl", "dkl_dbeta", "d2kl_dbeta2"] + [f"p_state_{_state_label(r)}" for r in dataset.rows]
    if conds:
        header += [f"cond_prob_{_state_label(r[:dataset.io_split[0]])}" for r in dataset.rows]

    rows = []
    for beta in grid:
        # first: it refuses a dataset that does not fit the machine before the table is built
        d1, d2 = dkl_beta_derivatives(bm, float(beta), dataset)
        marginal = visible_marginal(bm, float(beta))
        record = [float(beta), kl_divergence(q, marginal), d1, d2]
        record += marginal.probs[dataset._indices].tolist()  # a row's index is its position
        if conds:
            record += _row_conditionals(bm, float(beta), dataset).tolist()
        rows.append(record)

    out_path.parent.mkdir(parents=True, exist_ok=True)
    with _replacing(out_path) as fh:
        writer = csv.writer(fh)
        writer.writerow(header)
        for record in rows:
            writer.writerow([repr(float(x)) for x in record])

    dkls = [r[1] for r in rows]
    argmin = int(np.argmin(dkls))
    # every point's divergence infinite (a data row at probability 0): no minimum, JSON null
    found = math.isfinite(dkls[argmin])
    _write_manifest(out_path.with_suffix(out_path.suffix + ".manifest.json"), "sweep-beta",
                    {"model": model_spec, "dataset": dataset_spec, "beta_grid": grid_spec},
                    [], [p for p in [model_path, dataset_path] if p], [out_path], started)
    _echo_result({
        "out": str(out_path),
        "argmin_beta": rows[argmin][0] if found else None,
        "min_dkl": dkls[argmin] if found else None,
    })


# ---------------------------------------------------------------- fit-beta


@main.command("fit-beta")
@click.option("--model", "model_spec", default=None, help="machine a --sample-file was drawn from")
@click.option("--sample-file", type=click.Path(path_type=Path), default=None)
@click.option("--backend", type=click.Choice(["exact", "gibbs", "remote"]), default="gibbs")
@click.option("--beta", default=3.0, show_default=True, help="generating beta for live backends")
@click.option("--sizes", default="4:10", show_default=True, help="node range lo:hi for live backends")
@click.option("--reads", default=100000, show_default=True)
@click.option("--chains", default=50, show_default=True)
@click.option("--exhaustive", is_flag=True, default=False)
@click.option("--endpoint", default=None)
@click.option("--beta-grid", "grid_spec", default=None)
@click.option("--seed", default=0, show_default=True)
@click.option("--out", "out_path", type=click.Path(path_type=Path), required=True)
def cmd_fit_beta(model_spec, sample_file, backend, beta, sizes, reads, chains,
                 exhaustive, endpoint, grid_spec, seed, out_path):
    """Estimate the inverse temperature a sample set was drawn at.

    With --sample-file and --model, fits that stored sample set. Otherwise
    samples random complete graphs of each size with the chosen backend and
    reports the fitted beta per size.
    """
    started = _utc_now()
    grid = _parse_beta_grid(grid_spec)
    report: dict = {"backend": backend, "entries": []}
    inputs: list[Path] = []

    if sample_file is not None:
        if model_spec is None:
            raise _fail(EXIT_INPUT, "usage", "--sample-file requires --model")
        bm, _, model_path = _resolve_model(model_spec)
        ss = load_sample_set(sample_file)
        beta_star, curve = fit_beta(ss, bm, grid)
        report["entries"].append({
            "source": str(sample_file),
            "beta_star": beta_star,
            "curve": [[b, d] for b, d in curve],
        })
        inputs = [p for p in [model_path, sample_file] if p]
    else:
        m = re.fullmatch(r"(\d+):(\d+)", sizes.strip())
        if not m or int(m.group(1)) > int(m.group(2)):
            raise _fail(EXIT_INPUT, "usage", f"bad --sizes {sizes!r}; expected lo:hi")
        lo, hi = int(m.group(1)), int(m.group(2))
        for size in range(lo, hi + 1):
            rng = np.random.default_rng(seed + size)
            bm = random_machine(size, 0, 0, rng)
            cfg = SamplerConfig(beta=beta, num_reads=reads, burn_in=500, seed=seed + size, backend=Backend(backend),
                                exhaustive=exhaustive, num_chains=chains, endpoint=endpoint)
            ss = draw_samples(bm, cfg)
            beta_star, _ = fit_beta(ss, bm, grid)
            # the service's name, not its URL: reproduce's mock has a new port each run
            report["entries"].append({"size": size, "beta_star": beta_star, "backend_id": ss.backend_id})
            click.echo(f"size {size}: beta* = {beta_star:.4f}")
        report["generating_beta"] = beta

    out_path.parent.mkdir(parents=True, exist_ok=True)
    _write_json(out_path, report)
    _write_manifest(out_path.with_suffix(out_path.suffix + ".manifest.json"), "fit-beta",
                    # no endpoint: reproduce's in-process mock listens on a new port each run
                    {"backend": backend, "beta": beta, "sizes": sizes, "reads": reads, "chains": chains,
                     "exhaustive": exhaustive, "beta_grid": grid_spec, "seed": seed},
                    [seed], inputs, [out_path], started)
    _echo_result({"out": str(out_path), "entries": len(report["entries"])})


# ---------------------------------------------------------------- verify-propositions


@main.command("verify-propositions")
@click.option("--machines", default=200, show_default=True)
@click.option("--max-nodes", default=8, show_default=True)
@click.option("--seed", default=0, show_default=True)
@click.option("--out", "out_path", type=click.Path(path_type=Path), required=True)
def cmd_verify_propositions(machines, max_nodes, seed, out_path):
    """Check the temperature-monotonicity facts on a random machine ensemble.

    Fact 1: total ground-state probability strictly increases with beta
    (constant when every state is a ground state). Fact 2: past some critical
    beta, found by scanning upward, every excited state's probability is
    nonincreasing. Failures land in the report, not the exit code.
    """
    started = _utc_now()
    rng = np.random.default_rng(seed)
    betas = np.asarray(DEFAULT_BETA_GRID)
    report = {
        "machines": machines, "max_nodes": max_nodes, "seed": seed,
        "ground_state_monotone": {"pass": 0, "fail": 0, "non_strict": 0},
        "excited_eventual_decrease": {"pass": 0, "fail": 0, "beta_c_max": 0.0},
        "counterexamples": [],
    }
    out_path.parent.mkdir(parents=True, exist_ok=True)

    for idx in range(machines):
        total = int(rng.integers(2, max_nodes + 1))
        n_h = int(rng.integers(0, total))
        bm = random_machine(total - n_h, 0, n_h, rng)
        ground = ground_set(bm)  # both checks read the one ground set
        ok1, strict = _check_ground_monotone(bm, betas, ground)
        ok2, beta_c = _check_excited_decrease(bm, betas, ground)
        report["ground_state_monotone"]["pass" if ok1 else "fail"] += 1
        if ok1 and not strict:
            report["ground_state_monotone"]["non_strict"] += 1
        report["excited_eventual_decrease"]["pass" if ok2 else "fail"] += 1
        if ok2 and beta_c is not None:
            report["excited_eventual_decrease"]["beta_c_max"] = max(
                report["excited_eventual_decrease"]["beta_c_max"], beta_c)
        if not (ok1 and ok2):
            ce_path = out_path.parent / f"counterexample_{idx}.json"
            save_model(bm, ce_path, metadata={"ensemble_index": idx})
            report["counterexamples"].append(str(ce_path))

    _write_json(out_path, report)
    _write_manifest(out_path.with_suffix(out_path.suffix + ".manifest.json"),
                    "verify-propositions",
                    {"machines": machines, "max_nodes": max_nodes, "seed": seed},
                    [seed], [], [out_path], started)
    _echo_result({
        "out": str(out_path),
        "ground_state_monotone": report["ground_state_monotone"],
        "excited_eventual_decrease": {
            k: v for k, v in report["excited_eventual_decrease"].items()
        },
    })


# ---------------------------------------------------------------- sample


@main.command("sample")
@click.option("--model", "model_spec", required=True)
@click.option("--backend", type=click.Choice(["exact", "gibbs", "remote"]), default="exact")
@click.option("--beta", default=SamplerConfig.beta, show_default=True)
@click.option("--reads", default=SamplerConfig.num_reads, show_default=True)
@click.option("--chains", default=SamplerConfig.num_chains, show_default=True)
@click.option("--burn-in", default=SamplerConfig.burn_in, show_default=True)
@click.option("--thinning", default=SamplerConfig.thinning, show_default=True)
@click.option("--exhaustive", is_flag=True, default=False)
@click.option("--endpoint", default=None)
@click.option("--seed", default=SamplerConfig.seed, show_default=True)
@click.option("--out", "out_path", type=click.Path(path_type=Path), required=True)
def cmd_sample(model_spec, backend, beta, reads, chains, burn_in, thinning,
               exhaustive, endpoint, seed, out_path):
    """Draw a sample set from a model file and store it as JSON."""
    started = _utc_now()
    bm, _, model_path = _resolve_model(model_spec)
    cfg = SamplerConfig(beta=beta, num_reads=reads, burn_in=burn_in, thinning=thinning, seed=seed,
                        backend=Backend(backend), exhaustive=exhaustive, num_chains=chains, endpoint=endpoint)
    ss = draw_samples(bm, cfg)

    out_path.parent.mkdir(parents=True, exist_ok=True)
    save_sample_set(ss, out_path)
    _write_manifest(out_path.with_suffix(out_path.suffix + ".manifest.json"), "sample",
                    {"model": model_spec, "backend": backend, "beta": beta, "reads": reads, "chains": chains,
                     "burn_in": burn_in, "thinning": thinning, "exhaustive": exhaustive, "endpoint": endpoint,
                     "seed": seed},
                    [seed], [p for p in [model_path] if p], [out_path], started)
    _echo_result({
        "out": str(out_path),
        "distinct_states": int(ss.states.shape[0]),
        "total_weight": float(ss.counts.sum()),
        "backend_id": ss.backend_id,
    })


# ---------------------------------------------------------------- serve-mock


@main.command("serve-mock")
@click.option("--host", default="127.0.0.1", show_default=True)
@click.option("--port", default=8768, show_default=True)
@click.option("--beta", default=3.0, show_default=True)
@click.option("--beta-drift", default=0.0, show_default=True,
              help="synthetic size-dependent cooling: beta/(1 + drift * nodes)")
@click.option("--max-nodes", default=20, show_default=True)
@click.option("--seed", default=0, show_default=True)
def cmd_serve_mock(host, port, beta, beta_drift, max_nodes, seed):
    """Run the bundled mock sampling service in the foreground."""
    from .mock_server import MockAnnealerServer

    server = MockAnnealerServer(host=host, port=port, beta=beta,
                                beta_drift=beta_drift, seed=seed, max_nodes=max_nodes)
    click.echo(f"mock sampling service listening on {server.url} "
               f"(beta={beta}, drift={beta_drift})")
    try:
        server.serve_forever()
    except KeyboardInterrupt:
        pass


# ---------------------------------------------------------------- reproduce


@main.command("reproduce")
@click.option("--out", "out_dir", type=click.Path(path_type=Path), required=True)
@click.option("--quick", is_flag=True, default=False, help="trim read counts and steps")
def cmd_reproduce(out_dir, quick):
    """Run the full desk-scale experiment pipeline into one directory.

    Produces: the step-pattern divergence sweep, XOR sweeps for the
    hand-designed and trained machines, AND-gate conditional sweep, the
    5-restart AND training comparison, the OR-gate hidden-node comparison,
    temperature fits against the local Gibbs sampler and the drifting mock
    service, and the adder conditional table.
    """
    from .mock_server import MockAnnealerServer

    started = _utc_now()
    out_dir.mkdir(parents=True, exist_ok=True)
    summary: dict = {}
    outputs: list[Path] = []
    t0 = time.time()
    # ctx.invoke fills every option left out with its default.
    invoke = click.get_current_context().invoke

    # 1. step-pattern machine: divergence across beta (expects a minimum
    #    inside roughly [1.5, 3])
    invoke(cmd_sweep_beta, model_spec="two_phase_trained", dataset_spec="two_phase",
           grid_spec="0.5:6:56", out_path=out_dir / "two_phase_sweep.csv")
    outputs.append(out_dir / "two_phase_sweep.csv")

    # 2. XOR machines: ground-state vs trained
    for name in ("xor_ground_state", "xor_trained"):
        invoke(cmd_sweep_beta, model_spec=name, dataset_spec="xor",
               grid_spec="0.5:10:25log", out_path=out_dir / f"{name}_sweep.csv")
        outputs.append(out_dir / f"{name}_sweep.csv")

    # 3. AND-gate conditional probabilities across beta
    invoke(cmd_sweep_beta, model_spec="and_gate", dataset_spec="and",
           grid_spec="0.5:10:25log", out_path=out_dir / "and_gate_sweep.csv")
    outputs.append(out_dir / "and_gate_sweep.csv")

    # 4. AND training with 5 restarts (init dependence)
    invoke(cmd_train, dataset_spec="and", arch_spec="3v2h", connectivity="bipartite",
           beta=15.0, max_steps=200 if quick else 1000, loss_every=50, seeds=5,
           out_dir=out_dir / "and_training")
    outputs.append(out_dir / "and_training" / "model_best.json")

    # 5. OR-gate hidden-node comparison (2, 5, 10 hidden)
    or_dir = out_dir / "or_hidden"
    for n_h in (2, 5, 10):
        invoke(cmd_train, dataset_spec="or", arch_spec=f"3v{n_h}h", beta=3.0,
               max_steps=200 if quick else 1000, loss_every=50, out_dir=or_dir / f"h{n_h}")
        invoke(cmd_sweep_beta, model_spec=str(or_dir / f"h{n_h}" / "model_best.json"),
               dataset_spec="or", grid_spec="0.5:10:25log",
               out_path=or_dir / f"or_sweep_h{n_h}.csv")
        outputs.append(or_dir / f"or_sweep_h{n_h}.csv")

    # 6. temperature fits: local Gibbs sampler stays flat; the drifting mock
    #    service cools as problems grow (synthetic shape)
    reads = 20000 if quick else 50000
    invoke(cmd_fit_beta, sizes="4:8", reads=reads, out_path=out_dir / "fit_beta_gibbs.json")
    outputs.append(out_dir / "fit_beta_gibbs.json")
    with MockAnnealerServer(beta=3.0, beta_drift=0.05, seed=0) as server:
        invoke(cmd_fit_beta, backend="remote", sizes="4:8", reads=reads, chains=1,
               endpoint=server.url, out_path=out_dir / "fit_beta_mock_drift.json")
    outputs.append(out_dir / "fit_beta_mock_drift.json")

    # 7. adder conditional table at beta = 5 for both shipped labels
    from .datasets import adder2, load_fixture

    ds = adder2()
    adder_rows = []
    for name in ("adder_function", "adder_distribution"):
        conds = _row_conditionals(load_fixture(name), 5.0, ds).tolist()
        adder_rows.append({"fixture": name, "min_conditional": min(conds), "conditionals": conds})
    summary["adder_conditionals"] = adder_rows
    _write_json(out_dir / "adder_conditionals.json", {"beta": 5.0, "entries": adder_rows})
    outputs.append(out_dir / "adder_conditionals.json")

    summary["elapsed_seconds"] = round(time.time() - t0, 1)
    _write_json(out_dir / "summary.json", summary)
    _write_manifest(out_dir / "manifest.json", "reproduce", {"quick": quick}, [0],
                    [], outputs + [out_dir / "summary.json"], started)
    _echo_result({"out": str(out_dir), "elapsed_seconds": summary["elapsed_seconds"]})


if __name__ == "__main__":
    main()
