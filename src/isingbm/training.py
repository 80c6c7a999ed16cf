"""Gradient estimation and momentum training for both learning modes.

Generative training matches the visible Boltzmann marginal to a target
distribution by relative-entropy descent; discriminative training minimizes
the negative conditional log-likelihood of (input -> output) data. Both
gradients reduce to differences of configuration moments:

    d/d(bias_i)      ->  <s_i>        under the data phase minus the model phase
    d/d(coupling_kl) ->  <s_k * s_l>  likewise

where the "data phase" clamps some nodes to data values and the "model phase"
is freer. Expectations come either from exact enumeration or from a sampling
backend. The overall inverse-temperature prefactor of the analytic gradient
is deliberately dropped: it only rescales the learning rate, while the
expectations themselves are taken at the sampler's temperature.
"""

from __future__ import annotations

import time
from dataclasses import asdict, dataclass, field, replace
from enum import Enum
from typing import Callable, Mapping, Sequence

import numpy as np

from .datasets import Dataset
from .errors import CapacityError
from .metrics import (
    kl_divergence,
    dataset_distribution,
    negative_conditional_log_likelihood,
    visible_marginal,
)
from .model import (
    ENUMERATION_CAP,
    Basis,
    BoltzmannMachine,
    all_energies,
    cached_state_table,
    check_capacity,
    clamp_visible,
    complete_pairs,
)
from .samplers import Backend, SampleSet, SamplerConfig, draw_samples

_BLOCK_BITS = 20


class GradientMode(str, Enum):
    EXACT = "exact"
    SAMPLED = "sampled"


@dataclass(frozen=True)
class GradientEstimate:
    """Partial derivatives for every bias and every coupling pair."""

    d_bias: np.ndarray
    pairs: tuple[tuple[int, int], ...]
    d_pair: np.ndarray

    def __post_init__(self):
        d_bias = np.asarray(self.d_bias, dtype=np.float64)
        d_pair = np.asarray(self.d_pair, dtype=np.float64)
        if d_pair.shape != (len(self.pairs),):
            raise ValueError("one entry per pair required")
        if not (np.all(np.isfinite(d_bias)) and np.all(np.isfinite(d_pair))):
            raise ValueError("gradient entries must be finite")
        object.__setattr__(self, "d_bias", d_bias)
        object.__setattr__(self, "pairs", tuple((int(k), int(l)) for k, l in self.pairs))
        object.__setattr__(self, "d_pair", d_pair)

    def coupling_dict(self) -> dict[tuple[int, int], float]:
        return {pair: float(v) for pair, v in zip(self.pairs, self.d_pair)}

    def to_vector(self) -> np.ndarray:
        return np.concatenate([self.d_bias, self.d_pair])

    def linf(self) -> float:
        return float(max(np.abs(self.d_bias).max(initial=0.0), np.abs(self.d_pair).max(initial=0.0)))


@dataclass(frozen=True)
class TrainingConfig:
    """Update-rule constants, stopping rule, bounds, and sampler selection.

    ``eta`` is the learning rate, ``weight_decay`` the parameter shrinkage
    applied directly (not scaled by eta), and ``momentum`` the fraction of the
    previous update carried over. The stopping rule ends training once the
    max-norm of the update vector drops to ``delta_theta_min``, or after
    ``max_steps`` steps.
    """

    eta: float = 0.1
    weight_decay: float = 1e-5
    momentum: float = 0.6
    max_steps: int = 1000
    delta_theta_min: float = 1e-6
    h_max: float = 1.0
    j_max: float = 1.0
    gradient_mode: GradientMode = GradientMode.EXACT
    sampler: SamplerConfig = field(default_factory=SamplerConfig)
    init_range: float = 0.5
    init_model: BoltzmannMachine | None = None
    seed: int = 0
    clamped_resample: str = "auto"   # "auto": only for rows unseen in the model draw
    loss_every: int = 1
    enforce_recommended_ranges: bool = False

    def __post_init__(self):
        if self.eta <= 0:
            raise ValueError("eta must be positive")
        if not 0 <= self.weight_decay < 1:
            raise ValueError("weight_decay must lie in [0, 1)")
        if not 0 <= self.momentum < 1:
            raise ValueError("momentum must lie in [0, 1)")
        if self.max_steps < 1 or self.delta_theta_min < 0:
            raise ValueError("bad stopping rule")
        if self.clamped_resample not in ("auto", "always"):
            raise ValueError("clamped_resample must be 'auto' or 'always'")
        if self.loss_every < 1:
            raise ValueError("loss_every must be >= 1")
        if self.enforce_recommended_ranges:
            if not 1e-5 <= self.weight_decay <= 1e-2:
                raise ValueError("weight_decay outside the recommended 1e-5..1e-2 range")
            if self.momentum > 0.9:
                raise ValueError("momentum above the recommended 0.9 cap")

    def to_dict(self) -> dict:
        # init_model is carried in memory only (machines have their own format)
        doc = asdict(replace(self, init_model=None))
        doc["gradient_mode"] = self.gradient_mode.value
        doc["sampler"]["backend"] = self.sampler.backend.value
        del doc["init_model"]
        return doc

    @classmethod
    def from_dict(cls, doc: dict) -> "TrainingConfig":
        doc = dict(doc)
        sampler = dict(doc.pop("sampler", {}))
        if "backend" in sampler:
            sampler["backend"] = Backend(sampler["backend"])
        if "gradient_mode" in doc:
            doc["gradient_mode"] = GradientMode(doc["gradient_mode"])
        doc.pop("init_model", None)
        return cls(sampler=SamplerConfig(**sampler), **doc)


@dataclass(frozen=True)
class Architecture:
    """Node partition plus connectivity (complete graph when pairs is None)."""

    num_visible_input: int
    num_visible_output: int = 0
    num_hidden: int = 0
    pairs: tuple[tuple[int, int], ...] | None = None

    @property
    def num_nodes(self) -> int:
        return self.num_visible_input + self.num_visible_output + self.num_hidden

    def pair_list(self) -> list[tuple[int, int]]:
        if self.pairs is None:
            return complete_pairs(self.num_nodes)
        return [(min(k, l), max(k, l)) for k, l in self.pairs]


@dataclass(frozen=True)
class TraceRecord:
    step: int
    loss: float
    delta_inf: float
    seconds: float
    sampler_calls_full: int = 0
    sampler_calls_clamped: int = 0


@dataclass(frozen=True)
class TrainingTrace:
    """Per-step log of a training run; steps are strictly increasing."""

    records: tuple[TraceRecord, ...]

    def __post_init__(self):
        records = tuple(self.records)
        steps = [r.step for r in records]
        if any(b <= a for a, b in zip(steps, steps[1:])):
            raise ValueError("trace steps must be strictly increasing")
        object.__setattr__(self, "records", records)

    @property
    def initial_loss(self) -> float:
        return self.records[0].loss

    @property
    def final_loss(self) -> float:
        losses = [r.loss for r in self.records if np.isfinite(r.loss)]
        return losses[-1] if losses else float("nan")

    @property
    def num_steps(self) -> int:
        return self.records[-1].step

    def to_csv(self, path) -> None:
        import csv
        import os

        tmp = f"{path}.tmp"
        with open(tmp, "w", newline="") as fh:
            writer = csv.writer(fh)
            writer.writerow(["step", "loss", "delta_inf", "seconds"])
            for r in self.records:
                writer.writerow([r.step, repr(float(r.loss)), repr(float(r.delta_inf)), f"{r.seconds:.6f}"])
        os.replace(tmp, path)


# -- moment engines ----------------------------------------------------------


def _moments_from_probs(
    S: np.ndarray, probs: np.ndarray
) -> tuple[np.ndarray, np.ndarray]:
    """First moments and the full second-moment matrix under given weights."""
    Sf = np.asarray(S, dtype=np.float64)
    mean = probs @ Sf
    second = (Sf * probs[:, None]).T @ Sf
    return mean, second


def _model_moments_exact(
    bm: BoltzmannMachine, beta: float, cap: int = ENUMERATION_CAP
) -> tuple[np.ndarray, np.ndarray]:
    """<s_i> and <s_i s_j> under the full Boltzmann distribution, blockwise."""
    n = bm.num_nodes
    E = all_energies(bm, cap)
    w = np.exp(-beta * (E - E.min()))
    probs = w / w.sum()
    if n <= _BLOCK_BITS:
        return _moments_from_probs(cached_state_table(n, bm.basis), probs)
    mean = np.zeros(n)
    second = np.zeros((n, n))
    for start in range(0, 1 << n, 1 << _BLOCK_BITS):
        stop = min(start + (1 << _BLOCK_BITS), 1 << n)
        S = state_matrix(n, bm.basis, start, stop)
        m, s2 = _moments_from_probs(S, probs[start:stop])
        mean += m
        second += s2
    return mean, second


def _moments_from_samples(
    states: np.ndarray, weights: np.ndarray
) -> tuple[np.ndarray, np.ndarray]:
    total = float(weights.sum())
    return _moments_from_probs(states, np.asarray(weights, dtype=np.float64) / total)


def _fill_clamped(
    bm: BoltzmannMachine,
    assignment: Mapping[int, int],
    free: Sequence[int],
    free_mean: np.ndarray,
    free_second: np.ndarray,
    pairs: Sequence[tuple[int, int]],
) -> tuple[np.ndarray, np.ndarray]:
    """Lift reduced-subgraph moments back to full-machine node/pair moments."""
    n = bm.num_nodes
    mean = np.zeros(n)
    for k, v in assignment.items():
        mean[k] = float(v)
    pos = {k: i for i, k in enumerate(free)}
    for k in free:
        mean[k] = free_mean[pos[k]]
    pair_mean = np.empty(len(pairs))
    for i, (k, l) in enumerate(pairs):
        k_free, l_free = k in pos, l in pos
        if k_free and l_free:
            pair_mean[i] = free_second[pos[k], pos[l]]
        elif k_free:
            pair_mean[i] = mean[l] * free_mean[pos[k]]
        elif l_free:
            pair_mean[i] = mean[k] * free_mean[pos[l]]
        else:
            pair_mean[i] = mean[k] * mean[l]
    return mean, pair_mean


def _conditional_moments_exact(
    bm: BoltzmannMachine,
    beta: float,
    assignment: Mapping[int, int],
    pairs: Sequence[tuple[int, int]],
    cap: int = ENUMERATION_CAP,
) -> tuple[np.ndarray, np.ndarray]:
    """Exact <s_i> and <s_k s_l> with the given nodes clamped to data."""
    reduced, _ = clamp_visible(bm, assignment)
    check_capacity(reduced.num_nodes, cap)
    S = cached_state_table(reduced.num_nodes, bm.basis)
    E = S @ reduced.biases + np.einsum("sk,sk->s", S @ reduced.coupling_matrix, S)
    w = np.exp(-beta * (E - E.min()))
    probs = w / w.sum()
    free_mean, free_second = _moments_from_probs(S, probs)
    free = [k for k in range(bm.num_nodes) if k not in assignment]
    return _fill_clamped(bm, assignment, free, free_mean, free_second, pairs)


def _conditional_moments_sampled(
    bm: BoltzmannMachine,
    assignment: Mapping[int, int],
    pairs: Sequence[tuple[int, int]],
    cfg: SamplerConfig,
) -> tuple[np.ndarray, np.ndarray]:
    """Clamped-subgraph sampling estimate of the conditional moments."""
    reduced, _ = clamp_visible(bm, assignment)
    ss = draw_samples(reduced, cfg)
    free_mean, free_second = _moments_from_samples(ss.states, ss.counts)
    free = [k for k in range(bm.num_nodes) if k not in assignment]
    return _fill_clamped(bm, assignment, free, free_mean, free_second, pairs)


def _conditional_moments_from_sample_set(
    bm: BoltzmannMachine,
    ss: SampleSet,
    assignment: Mapping[int, int],
    pairs: Sequence[tuple[int, int]],
) -> tuple[np.ndarray, np.ndarray] | None:
    """Reuse full-graph samples whose clamped nodes match; None when unseen."""
    keys = sorted(assignment)
    target = np.array([assignment[k] for k in keys], dtype=ss.states.dtype)
    mask = np.all(ss.states[:, keys] == target, axis=1)
    if not mask.any():
        return None
    states = ss.states[mask]
    weights = ss.counts[mask]
    mean, second = _moments_from_samples(states, weights)
    pair_mean = np.array([second[k, l] for k, l in pairs])
    return mean, pair_mean


def _derived_seed(*parts: int) -> int:
    return int(np.random.SeedSequence([int(p) & 0x7FFFFFFF for p in parts]).generate_state(1)[0])


# -- gradients ---------------------------------------------------------------


def grad_dkl(
    bm: BoltzmannMachine,
    dataset: Dataset,
    mode: GradientMode = GradientMode.EXACT,
    sampler_cfg: SamplerConfig | None = None,
    clamped_resample: str = "auto",
    call_counter: dict | None = None,
    cap: int = ENUMERATION_CAP,
) -> GradientEstimate:
    """Relative-entropy gradient: data-phase moments minus model-phase moments.

    The data phase clamps each data row onto the visible nodes and takes
    hidden-node expectations; the model phase is the unclamped machine. In
    sampled mode the model phase comes from one full-graph draw, and a row's
    conditional falls back to a clamped-subgraph draw when (policy "auto") the
    row never showed up in the full draw, or (policy "always") for every row.
    """
    if dataset.num_bits != bm.num_visible:
        raise ValueError(
            f"dataset rows have {dataset.num_bits} bits, machine has {bm.num_visible} visible nodes"
        )
    cfg = sampler_cfg or SamplerConfig()
    pairs = sorted(bm.couplings)

    if mode is GradientMode.EXACT:
        model_mean, model_second = _model_moments_exact(bm, cfg.beta, cap)
        model_pair = np.array([model_second[k, l] for k, l in pairs])
        full_ss = None
    else:
        full_ss = draw_samples(bm, cfg)
        if call_counter is not None:
            call_counter["full"] = call_counter.get("full", 0) + 1
        model_mean, model_second = _moments_from_samples(full_ss.states, full_ss.counts)
        model_pair = np.array([model_second[k, l] for k, l in pairs])

    data_mean = np.zeros(bm.num_nodes)
    data_pair = np.zeros(len(pairs))
    for d in range(dataset.num_rows):
        assignment = dict(zip(bm.visible_indices, dataset.row(d)))
        if mode is GradientMode.EXACT:
            mean, pair_mean = _conditional_moments_exact(bm, cfg.beta, assignment, pairs, cap)
        else:
            reuse = None
            if clamped_resample == "auto":
                reuse = _conditional_moments_from_sample_set(bm, full_ss, assignment, pairs)
            if reuse is None:
                row_cfg = replace(cfg, seed=_derived_seed(cfg.seed, d, 1))
                mean, pair_mean = _conditional_moments_sampled(bm, assignment, pairs, row_cfg)
                if call_counter is not None:
                    call_counter["clamped"] = call_counter.get("clamped", 0) + 1
            else:
                mean, pair_mean = reuse
        q = float(dataset.weights[d])
        data_mean += q * mean
        data_pair += q * pair_mean

    return GradientEstimate(data_mean - model_mean, tuple(pairs), data_pair - model_pair)


def grad_ncll(
    bm: BoltzmannMachine,
    dataset: Dataset,
    mode: GradientMode = GradientMode.EXACT,
    sampler_cfg: SamplerConfig | None = None,
    call_counter: dict | None = None,
    cap: int = ENUMERATION_CAP,
) -> GradientEstimate:
    """Gradient of the negative conditional log-likelihood, summed over rows.

    Per row this is the fully-clamped expectation (inputs and outputs at data
    values, hidden subgraph free) minus the input-clamped expectation (hidden
    and output nodes free). Parameters touching only clamped nodes cancel
    exactly. Sampled mode draws both clamped subgraphs for every row.
    """
    if dataset.io_split is None:
        raise ValueError("dataset has no input/output split")
    if dataset.io_split != (bm.num_visible_input, bm.num_visible_output):
        raise ValueError(
            f"dataset split {dataset.io_split} does not match machine partition "
            f"({bm.num_visible_input}, {bm.num_visible_output})"
        )
    cfg = sampler_cfg or SamplerConfig()
    pairs = sorted(bm.couplings)

    g_mean = np.zeros(bm.num_nodes)
    g_pair = np.zeros(len(pairs))
    for d in range(dataset.num_rows):
        input_clamp = dict(zip(bm.input_indices, dataset.input_part(d)))
        full_clamp = {**input_clamp, **dict(zip(bm.output_indices, dataset.output_part(d)))}
        if mode is GradientMode.EXACT:
            mean_data, pair_data = _conditional_moments_exact(bm, cfg.beta, full_clamp, pairs, cap)
            mean_model, pair_model = _conditional_moments_exact(bm, cfg.beta, input_clamp, pairs, cap)
        else:
            cfg_a = replace(cfg, seed=_derived_seed(cfg.seed, d, 2))
            cfg_b = replace(cfg, seed=_derived_seed(cfg.seed, d, 3))
            mean_data, pair_data = _conditional_moments_sampled(bm, full_clamp, pairs, cfg_a)
            mean_model, pair_model = _conditional_moments_sampled(bm, input_clamp, pairs, cfg_b)
            if call_counter is not None:
                call_counter["clamped"] = call_counter.get("clamped", 0) + 2
        g_mean += mean_data - mean_model
        g_pair += pair_data - pair_model

    return GradientEstimate(g_mean, tuple(pairs), g_pair)


def finite_difference_gradient(
    loss_fn: Callable[[BoltzmannMachine], float],
    bm: BoltzmannMachine,
    step: float = 1e-5,
) -> GradientEstimate:
    """Central differences over every bias and coupling; the gradient oracle."""
    pairs = sorted(bm.couplings)
    d_bias = np.empty(bm.num_nodes)
    for i in range(bm.num_nodes):
        for sign in (+1, -1):
            biases = bm.biases.copy()
            biases[i] += sign * step
            value = loss_fn(bm.with_parameters(biases, dict(bm.couplings)))
            d_bias[i] = value if sign > 0 else (d_bias[i] - value)
        d_bias[i] /= 2 * step
    d_pair = np.empty(len(pairs))
    for j, pair in enumerate(pairs):
        for sign in (+1, -1):
            couplings = dict(bm.couplings)
            couplings[pair] += sign * step
            value = loss_fn(bm.with_parameters(bm.biases, couplings))
            d_pair[j] = value if sign > 0 else (d_pair[j] - value)
        d_pair[j] /= 2 * step
    return GradientEstimate(d_bias, tuple(pairs), d_pair)


# -- updates ------------------------------------------------------------------


def momentum_update(
    theta: np.ndarray,
    grad: np.ndarray,
    prev_delta: np.ndarray,
    cfg: TrainingConfig,
    bound: np.ndarray | float | None = None,
) -> tuple[np.ndarray, np.ndarray]:
    """One momentum step with decoupled weight decay and parameter clipping.

    delta = -eta * grad - weight_decay * theta + momentum * prev_delta

    Parameters are clipped to [-bound, bound] after the step, but the returned
    delta is the unclipped update: clipping the momentum memory would pin the
    trajectory at the boundary.
    """
    theta = np.asarray(theta, dtype=np.float64)
    delta = -cfg.eta * np.asarray(grad, dtype=np.float64) - cfg.weight_decay * theta
    delta = delta + cfg.momentum * np.asarray(prev_delta, dtype=np.float64)
    theta_new = theta + delta
    if bound is not None:
        theta_new = np.clip(theta_new, -np.asarray(bound), np.asarray(bound))
    return theta_new, delta


# -- training loops -----------------------------------------------------------


def _initial_machine(arch: Architecture, cfg: TrainingConfig) -> BoltzmannMachine:
    if cfg.init_model is not None:
        return cfg.init_model
    rng = np.random.default_rng(cfg.seed)
    pairs = arch.pair_list()
    biases = rng.uniform(-cfg.init_range, cfg.init_range, size=arch.num_nodes)
    couplings = {pair: float(v) for pair, v in zip(pairs, rng.uniform(-cfg.init_range, cfg.init_range, size=len(pairs)))}
    return BoltzmannMachine(
        num_visible_input=arch.num_visible_input,
        num_visible_output=arch.num_visible_output,
        num_hidden=arch.num_hidden,
        biases=biases,
        couplings=couplings,
        basis=Basis.ZERO_ONE,
        h_max=cfg.h_max,
        j_max=cfg.j_max,
    )


def _run_training(
    dataset: Dataset,
    arch: Architecture,
    cfg: TrainingConfig,
    grad_fn: Callable,
    loss_fn: Callable[[BoltzmannMachine], float],
) -> tuple[BoltzmannMachine, TrainingTrace]:
    bm = _initial_machine(arch, cfg)
    pairs = sorted(bm.couplings)
    bound = np.concatenate(
        [np.full(bm.num_nodes, cfg.h_max), np.full(len(pairs), cfg.j_max)]
    )
    theta = np.concatenate([bm.biases, np.array([bm.couplings[p] for p in pairs])])
    prev_delta = np.zeros_like(theta)

    start = time.perf_counter()
    records = [TraceRecord(0, loss_fn(bm), float("nan"), 0.0)]
    for step in range(1, cfg.max_steps + 1):
        counter: dict[str, int] = {}
        step_sampler = replace(cfg.sampler, seed=_derived_seed(cfg.seed, step))
        grad = grad_fn(bm, dataset, cfg.gradient_mode, step_sampler, counter)
        theta, delta = momentum_update(theta, grad.to_vector(), prev_delta, cfg, bound)
        prev_delta = delta
        bm = bm.with_parameters(
            theta[: bm.num_nodes],
            dict(zip(pairs, theta[bm.num_nodes:])),
        )
        delta_inf = float(np.abs(delta).max())
        stopping = delta_inf <= cfg.delta_theta_min or step == cfg.max_steps
        loss = loss_fn(bm) if (step % cfg.loss_every == 0 or stopping) else float("nan")
        records.append(
            TraceRecord(
                step,
                loss,
                delta_inf,
                time.perf_counter() - start,
                counter.get("full", 0),
                counter.get("clamped", 0),
            )
        )
        if delta_inf <= cfg.delta_theta_min:
            break
    return bm, TrainingTrace(tuple(records))


def train_distribution(
    dataset: Dataset, arch: Architecture, cfg: TrainingConfig, cap: int = ENUMERATION_CAP
) -> tuple[BoltzmannMachine, TrainingTrace]:
    """Generative training loop; the trace records the relative entropy of the
    visible marginal against the dataset at the sampler's temperature."""
    q = dataset_distribution(dataset)

    def loss(bm: BoltzmannMachine) -> float:
        try:
            return kl_divergence(q, visible_marginal(bm, cfg.sampler.beta, cap))
        except CapacityError:  # past the cap the loss is not evaluated
            return float("nan")

    def grad(bm, ds, mode, sampler_cfg, counter):
        return grad_dkl(bm, ds, mode, sampler_cfg, cfg.clamped_resample, counter, cap)

    return _run_training(dataset, arch, cfg, grad, loss)


def train_function_approximator(
    dataset: Dataset, arch: Architecture, cfg: TrainingConfig, cap: int = ENUMERATION_CAP
) -> tuple[BoltzmannMachine, TrainingTrace]:
    """Discriminative training loop; the trace records the negative conditional
    log-likelihood at the sampler's temperature."""
    if dataset.io_split is None:
        raise ValueError("function approximation requires an input/output split")
    if dataset.io_split != (arch.num_visible_input, arch.num_visible_output):
        raise ValueError("architecture partition must match the dataset split")

    def loss(bm: BoltzmannMachine) -> float:
        try:
            return negative_conditional_log_likelihood(bm, cfg.sampler.beta, dataset, cap)
        except CapacityError:  # past the cap the loss is not evaluated
            return float("nan")

    def grad(bm, ds, mode, sampler_cfg, counter):
        return grad_ncll(bm, ds, mode, sampler_cfg, counter, cap)

    return _run_training(dataset, arch, cfg, grad, loss)
