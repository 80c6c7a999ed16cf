"""Gradient estimation and momentum training for both learning modes.

Generative training matches the visible Boltzmann marginal to a target
distribution by relative-entropy descent; discriminative training minimizes
the negative conditional log-likelihood of (input -> output) data. Both
gradients reduce to differences of configuration moments:

    d/d(bias_i)      ->  <s_i>        under the data phase minus the model phase
    d/d(coupling_kl) ->  <s_k * s_l>  likewise

where the "data phase" clamps some nodes to data values and the "model phase"
is freer. Every moment comes from one reduction, ``_moments``: signed weights
on states split into leading and trailing nodes give the mean vector from the
row and column sums of the weights and the cross block of the second moments
from one matrix product. Exact mode weighs the cached energy table or an
input's slice (``prefix_energies``) in one exp pass that gives both phases
and the loss (``_exact_phases``), clamping and re-enumerating nothing;
sampled mode clamps a step's rows in one array op (``_clamped_rows``), draws
them as lanes of one Gibbs kernel call per width and takes the moments from
each lane's tallied (state index, count) arrays (``_clamped_draws``).
The overall inverse-temperature prefactor of the analytic gradient
is deliberately dropped: it only rescales the learning rate, while the
expectations themselves are taken at the sampler's temperature.
"""

from __future__ import annotations

import csv
import sys
import time
from dataclasses import asdict, dataclass, field, fields, replace
from enum import Enum
from typing import Callable, Sequence

import numpy as np

from .datasets import Dataset
from .errors import CapacityError
from .metrics import _check_fit, _ncll_sum, _relative_entropy
from .model import (
    Basis,
    BoltzmannMachine,
    _clamped_rows,
    _json,
    _replacing,
    _row_indices,
    _row_pass,
    _state_rows,
    all_energies,
    cached_state_table,
    clamp_visible,
    complete_pairs,
    prefix_energies,
)
from .samplers import Backend, SamplerConfig, _gibbs_arrays, draw_samples


class GradientMode(str, Enum):
    EXACT = "exact"
    SAMPLED = "sampled"


@dataclass(frozen=True, eq=False)
class GradientEstimate:
    """Partial derivatives for every bias and every coupling pair, and in exact
    mode the loss there; estimates compare by identity (fields hold arrays)."""

    d_bias: np.ndarray
    pairs: tuple[tuple[int, int], ...]
    d_pair: np.ndarray
    loss: float | None = None

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

    def to_vector(self) -> np.ndarray:
        return np.concatenate([self.d_bias, self.d_pair])


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
        for name in ("eta", "delta_theta_min", "init_range", "h_max", "j_max"):
            if not abs(getattr(self, name)) <= sys.float_info.max:  # NaN fails too; an int cannot overflow
                raise ValueError(f"{name} must be finite, got {getattr(self, name)}")
        if not self.eta > 0:
            raise ValueError("eta must be positive")
        if not 0 <= self.weight_decay < 1:
            raise ValueError("weight_decay must lie in [0, 1)")
        if not 0 <= self.momentum < 1:
            raise ValueError("momentum must lie in [0, 1)")
        if self.max_steps < 1 or not self.delta_theta_min >= 0:
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
        doc = _json_fields(cls, _json(doc, "a training config", dict))
        sampler = _json_fields(SamplerConfig, doc.pop("sampler", {}))
        if "backend" in sampler:
            sampler["backend"] = Backend(sampler["backend"])
        if "gradient_mode" in doc:
            doc["gradient_mode"] = GradientMode(doc["gradient_mode"])
        return cls(sampler=SamplerConfig(**sampler), **doc)


# The JSON kinds a config field's annotation admits: a float field also takes
# an integer, read as a float; an enum field its string value; sampler an object.
_JSON_KINDS = {"int": (int,), "float": (int, float), "bool": (bool,), "str": (str,), "str | None": (str, type(None)),
               "Backend": (str,), "GradientMode": (str,), "SamplerConfig": (dict,)}


def _json_fields(cls, doc: dict) -> dict:
    """A copy of ``doc``, each field checked by ``_json`` for the kinds its annotation in dataclass
    ``cls`` admits; a field ``cls`` lacks or holds in memory only (``init_model``) is a ValueError."""
    types = {f.name: f.type for f in fields(cls) if f.type in _JSON_KINDS}
    for k in doc.keys() - types.keys():
        raise ValueError(f"{cls.__name__} has no JSON field {k!r}")
    return {k: _json(v, k, *_JSON_KINDS[types[k]]) for k, v in doc.items()}


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
    def final_loss(self) -> float:
        losses = [r.loss for r in self.records if np.isfinite(r.loss)]
        return losses[-1] if losses else float("nan")

    @property
    def num_steps(self) -> int:
        return self.records[-1].step

    def to_csv(self, path) -> None:
        with _replacing(path) as fh:
            writer = csv.writer(fh)
            writer.writerow(["step", "loss", "delta_inf", "seconds", "sampler_calls_full", "sampler_calls_clamped"])
            for r in self.records:
                writer.writerow([r.step, repr(float(r.loss)), repr(float(r.delta_inf)), f"{r.seconds:.6f}",
                                 r.sampler_calls_full, r.sampler_calls_clamped])


# -- moments -----------------------------------------------------------------


def _moments(W: np.ndarray, S_a: np.ndarray, S_b: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """<s_i> and the full <s_k s_l> matrix under signed weights on joined states.

    ``W[a, b]`` weighs the state whose leading nodes are ``S_a[a]`` and whose
    trailing nodes are ``S_b[b]``. Moments are linear in the weights, so a
    data phase (positive) and a model phase (negative) can share one call.
    """
    r, c = W.sum(axis=1), W.sum(axis=0)
    cross = S_a.T @ (W @ S_b)
    mean = np.concatenate([r @ S_a, c @ S_b])
    second = np.vstack([np.hstack([S_a.T @ (r[:, None] * S_a), cross]),
                        np.hstack([cross.T, S_b.T @ (c[:, None] * S_b)])])
    return mean, second


def _sample_moments(bm: BoltzmannMachine, segments) -> tuple[np.ndarray, np.ndarray]:
    """Moments of drawn states, stacked in order, under signed weights: a
    segment (state indices over all nodes, counts, weight) shares its weight
    in proportion to its counts."""
    index, counts, weights = zip(*segments)
    S = _state_rows(np.concatenate(index), bm.num_nodes, bm.basis).astype(np.float64)
    W = np.concatenate([w * c / c.sum() for c, w in zip(counts, weights)])
    return _moments(W[:, None], S, np.zeros((1, 0)))


def _estimate(bm: BoltzmannMachine, mean: np.ndarray, second: np.ndarray, loss=None) -> GradientEstimate:
    pairs = sorted(bm.couplings)
    k, l = np.array(pairs, dtype=np.int64).reshape(-1, 2).T
    return GradientEstimate(mean, tuple(pairs), second[k, l], loss)


def _exact_phases(E: np.ndarray, rows: np.ndarray, q: np.ndarray, beta: float, S_a: np.ndarray, S_b: np.ndarray):
    """Data-minus-model moments of an energy slice and its data rows'
    probabilities, from one ``model._row_pass`` over the rows of ``E``: the
    model phase weighs a state by -w u / (r Z), data row ``rows[d]`` adds
    q_d w / r, and ``_moments`` reads the weights split as ``S_a`` x
    ``S_b``. u[rows] / Z are the probabilities, bit for bit ``metrics``'
    own."""
    w, r, u, Z = _row_pass(E, beta)
    data = q[:, None] * (w[rows] / r[rows, None])
    w *= (-(u / (r * Z)))[:, None]
    w[rows] += data
    mean, second = _moments(w.reshape(S_a.shape[0], S_b.shape[0]), S_a, S_b)
    return mean, second, u[rows] / Z


def _derived_seed(*parts: int) -> int:
    return int(np.random.SeedSequence([int(p) & 0x7FFFFFFF for p in parts]).generate_state(1)[0])


def _clamped_draws(
    bm: BoltzmannMachine, cfg: SamplerConfig, fixed: Sequence[np.ndarray], seeds: Sequence[int],
    call_counter: dict | None, kind: str,
) -> list[tuple[np.ndarray, np.ndarray]]:
    """One draw per row of fixed leading values (none: the whole machine),
    with ``cfg`` under the row's seed, counted as ``kind`` sampler calls:
    per row, its distinct state indices over all nodes, ascending, and their
    counts. On Gibbs, rows of one width are clamped at once and run as
    ``_gibbs_arrays`` lanes on their shared free couplings; other backends
    draw a machine per row in the given order, as a service saw them."""
    if call_counter is not None and fixed:
        call_counter[kind] = call_counter.get(kind, 0) + len(fixed)
    n, widths, out = bm.num_nodes, np.array([len(v) for v in fixed]), [None] * len(fixed)
    if cfg.backend is not Backend.GIBBS:
        for j, (v, seed) in enumerate(zip(fixed, seeds)):
            ss = draw_samples(clamp_visible(bm, dict(enumerate(v)))[0] if len(v) else bm, replace(cfg, seed=seed))
            out[j] = (_row_indices(np.hstack([np.broadcast_to(v, (len(ss.counts), len(v))), ss.states])), ss.counts)
        return out
    for c in sorted(set(widths.tolist())):
        js = np.flatnonzero(widths == c)
        V = np.array([fixed[j] for j in js], dtype=np.float64).reshape(len(js), c)
        _, J_free, biases = _clamped_rows(bm, range(c), V)
        prefix = _row_indices(V).astype(np.int64 if n <= 62 else object) << (n - c)
        lanes = _gibbs_arrays(J_free[None], biases, bm.basis, cfg, [seeds[j] for j in js])
        for j, p, (index, count) in zip(js, prefix[:, None], lanes):
            out[j] = (p + index, count)
    return out


# -- gradients ---------------------------------------------------------------


def grad_dkl(
    bm: BoltzmannMachine,
    dataset: Dataset,
    mode: GradientMode = GradientMode.EXACT,
    sampler_cfg: SamplerConfig | None = None,
    clamped_resample: str = "auto",
    call_counter: dict | None = None,
) -> GradientEstimate:
    """Relative-entropy gradient: data-phase moments minus model-phase moments.

    The data phase weighs each data row's hidden states by q(v) p(h | v); the
    model phase is the unclamped machine. Exact mode reads both off the
    energy table. In sampled mode the model phase comes from one full-graph
    draw, and a row's conditional falls back to a clamped-subgraph draw when
    (policy "auto") the row never showed up in the full draw, or (policy
    "always") for every row.
    """
    _check_fit(bm, dataset)
    cfg = sampler_cfg or SamplerConfig()
    V = dataset.rows.astype(np.float64)
    n, m, basis = bm.num_nodes, bm.num_visible, bm.basis

    if mode is GradientMode.EXACT:
        h, q = n // 2, dataset.weights  # moments over the halves: no state table wider than n - h
        mean, second, p = _exact_phases(all_energies(bm).reshape(1 << m, -1), dataset._indices, q, cfg.beta,
                                        cached_state_table(h, basis), cached_state_table(n - h, basis))
        return _estimate(bm, mean, second, _relative_entropy(q, p))

    [(full, full_counts)] = _clamped_draws(bm, cfg, [np.zeros(0)], [cfg.seed], call_counter, "full")
    seen = [full >> (n - m) == v for v in _row_indices(V)]
    redraw = [d for d in range(len(V)) if clamped_resample == "always" or not seen[d].any()]
    draws = dict(zip(redraw, _clamped_draws(bm, cfg, [V[d] for d in redraw],
                                            [_derived_seed(cfg.seed, d, 1) for d in redraw], call_counter, "clamped")))
    segments = [(full, full_counts, -1.0)]
    for d, q in enumerate(dataset.weights.tolist()):
        segments.append(draws[d] + (q,) if d in draws else (full[seen[d]], full_counts[seen[d]], q))
    return _estimate(bm, *_sample_moments(bm, segments))


def grad_ncll(
    bm: BoltzmannMachine,
    dataset: Dataset,
    mode: GradientMode = GradientMode.EXACT,
    sampler_cfg: SamplerConfig | None = None,
    call_counter: dict | None = None,
) -> GradientEstimate:
    """Gradient of the negative conditional log-likelihood, summed over rows.

    Per row this is the fully-clamped expectation (inputs and outputs at data
    values, hidden subgraph free) minus the input-clamped expectation (hidden
    and output nodes free). Exact mode reads both phases off the row input's
    slice of the energy table (``prefix_energies``, so the cap applies to the
    n - m_I free nodes). Parameters touching only clamped inputs cancel
    exactly. Sampled mode draws both clamped subgraphs for every row.
    """
    _check_fit(bm, dataset, split=True)
    cfg = sampler_cfg or SamplerConfig()
    V = dataset.rows.astype(np.float64)
    m_i, m_o, basis = bm.num_visible_input, bm.num_visible_output, bm.basis

    if mode is GradientMode.EXACT:
        S_out = cached_state_table(m_o, basis)
        S_hidden = cached_state_table(bm.num_hidden, basis)
        mean, second, p = np.zeros(bm.num_nodes), np.zeros((bm.num_nodes, bm.num_nodes)), []
        for v, y in zip(V, dataset._indices % (1 << m_o)):  # per row: a shared input counts once per row
            E = prefix_energies(bm, v[:m_i]).reshape(1 << m_o, -1)  # rows (x, o) for every output o
            S_a = np.hstack([np.broadcast_to(v[:m_i], (1 << m_o, m_i)), S_out])
            row_mean, row_second, row_p = _exact_phases(E, y[None], np.ones(1), cfg.beta, S_a, S_hidden)
            mean += row_mean
            second += row_second
            p.append(row_p)
        loss = _ncll_sum(np.concatenate(p))
    else:
        # per row: all visible nodes clamped (sign +1), then the inputs only (sign -1)
        fixed = [f for v in V for f in (v, v[:m_i])]
        seeds = [_derived_seed(cfg.seed, j // 2, 2 + j % 2) for j in range(len(fixed))]
        draws = _clamped_draws(bm, cfg, fixed, seeds, call_counter, "clamped")
        mean, second = _sample_moments(bm, [draw + (1.0 - 2 * (j % 2),) for j, draw in enumerate(draws)])
    # Both phases fix the inputs, so their terms are the same constants.
    mean[:m_i] = 0.0
    second[:m_i, :m_i] = 0.0
    return _estimate(bm, mean, second, loss if mode is GradientMode.EXACT else None)


def finite_difference_gradient(
    loss_fn: Callable[[BoltzmannMachine], float],
    bm: BoltzmannMachine,
    step: float = 1e-5,
) -> GradientEstimate:
    """Central differences over every bias and coupling; the gradient oracle."""
    n, pairs = bm.num_nodes, sorted(bm.couplings)
    theta = np.concatenate([bm.biases, [bm.couplings[p] for p in pairs]])
    grad = np.empty_like(theta)
    for i in range(theta.size):
        plus, minus = theta.copy(), theta.copy()
        plus[i] += step
        minus[i] -= step
        value = loss_fn(bm.with_parameters(plus[:n], dict(zip(pairs, plus[n:]))))
        grad[i] = (value - loss_fn(bm.with_parameters(minus[:n], dict(zip(pairs, minus[n:]))))) / (2 * step)
    return GradientEstimate(grad[:n], tuple(pairs), grad[n:])


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
    return BoltzmannMachine(arch.num_visible_input, arch.num_visible_output, arch.num_hidden, biases, couplings,
                            Basis.ZERO_ONE, cfg.h_max, cfg.j_max)


def _run_training(
    dataset: Dataset,
    arch: Architecture,
    cfg: TrainingConfig,
    grad_fn: Callable,
) -> tuple[BoltzmannMachine, TrainingTrace]:
    """A step's loss, that of the exact ``grad_fn`` at the machine the step
    leaves, is filled in at the next step's gradient call, the last one's
    after the loop."""

    def loss(bm: BoltzmannMachine, known: float | None = None) -> float:
        try:  # a sampled step's gradient holds no loss: one exact call gives it
            return grad_fn(bm, dataset, GradientMode.EXACT, cfg.sampler, {}).loss if known is None else known
        except CapacityError:  # past the cap the loss is not evaluated
            return float("nan")

    bm = _initial_machine(arch, cfg)
    pairs = sorted(bm.couplings)
    bound = np.concatenate([np.full(bm.num_nodes, cfg.h_max), np.full(len(pairs), cfg.j_max)])
    theta = np.concatenate([bm.biases, np.array([bm.couplings[p] for p in pairs])])
    prev_delta = np.zeros_like(theta)

    start = time.perf_counter()
    records = [TraceRecord(0, float("nan"), float("nan"), 0.0)]
    for step in range(1, cfg.max_steps + 1):
        counter: dict[str, int] = {}
        step_sampler = replace(cfg.sampler, seed=_derived_seed(cfg.seed, step))
        grad = grad_fn(bm, dataset, cfg.gradient_mode, step_sampler, counter)
        if records[-1].step % cfg.loss_every == 0:
            records[-1] = replace(records[-1], loss=loss(bm, grad.loss))
        theta, delta = momentum_update(theta, grad.to_vector(), prev_delta, cfg, bound)
        prev_delta = delta
        bm = bm.with_parameters(theta[: bm.num_nodes], dict(zip(pairs, theta[bm.num_nodes:])))
        delta_inf = float(np.abs(delta).max())
        records.append(TraceRecord(step, float("nan"), delta_inf, time.perf_counter() - start,
                                   counter.get("full", 0), counter.get("clamped", 0)))
        if delta_inf <= cfg.delta_theta_min:
            break
    records[-1] = replace(records[-1], loss=loss(bm))
    return bm, TrainingTrace(tuple(records))


def train_distribution(
    dataset: Dataset, arch: Architecture, cfg: TrainingConfig
) -> tuple[BoltzmannMachine, TrainingTrace]:
    """Generative training loop; the trace records the relative entropy of the
    visible marginal against the dataset at the sampler's temperature."""

    def grad(bm, ds, mode, sampler_cfg, counter):
        return grad_dkl(bm, ds, mode, sampler_cfg, cfg.clamped_resample, counter)

    return _run_training(dataset, arch, cfg, grad)


def train_function_approximator(
    dataset: Dataset, arch: Architecture, cfg: TrainingConfig
) -> tuple[BoltzmannMachine, TrainingTrace]:
    """Discriminative training loop; the trace records the negative conditional
    log-likelihood at the sampler's temperature; ``grad_ncll`` refuses a
    dataset whose split is not the architecture's at the first step, before
    any update."""
    return _run_training(dataset, arch, cfg, grad_ncll)
