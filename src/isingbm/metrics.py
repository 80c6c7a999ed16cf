"""Exact distributions, divergences, conditionals, and inverse-temperature fits.

Everything here is computed by full enumeration of the state space, so these
functions double as the oracle that sampling backends are checked against.
They are pure functions of immutable inputs.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from typing import TYPE_CHECKING, Sequence

import numpy as np

from .datasets import Dataset
from .model import (
    ENUMERATION_CAP,
    BoltzmannMachine,
    all_energies,
    check_capacity,
    ground_set,
    prefix_energies,
    state_index,
    state_matrix,
)

if TYPE_CHECKING:  # avoid a runtime cycle with samplers
    from .samplers import SampleSet

DEFAULT_BETA_GRID = np.geomspace(0.1, 10.0, 40)


@dataclass(frozen=True)
class Distribution:
    """Probabilities over an explicit support of configurations."""

    support: tuple[tuple[int, ...], ...]
    probs: np.ndarray

    def __post_init__(self):
        support = tuple(tuple(map(int, s)) for s in self.support)
        probs = np.asarray(self.probs, dtype=np.float64).reshape(-1)
        if len(support) != probs.shape[0]:
            raise ValueError("support and probs must have equal length")
        if np.any(probs < 0):
            raise ValueError("probabilities must be nonnegative")
        if abs(float(probs.sum()) - 1.0) > 1e-9:
            raise ValueError(f"probabilities sum to {probs.sum()}, expected 1")
        if len(set(support)) != len(support):
            raise ValueError("support entries must be distinct")
        probs.flags.writeable = False
        object.__setattr__(self, "support", support)
        object.__setattr__(self, "probs", probs)

    @cached_property
    def _prob_map(self) -> dict[tuple[int, ...], float]:
        return {s: float(p) for s, p in zip(self.support, self.probs)}

    def as_dict(self) -> dict[tuple[int, ...], float]:
        return dict(self._prob_map)

    def prob(self, state: Sequence[int]) -> float:
        return self._prob_map.get(tuple(int(v) for v in state), 0.0)


def boltzmann_probabilities(bm: BoltzmannMachine, beta: float, cap: int = ENUMERATION_CAP) -> np.ndarray:
    """exp(-beta*E)/Z over the lexicographic state order, shifted for stability."""
    E = all_energies(bm, cap)
    w = np.exp(-beta * (E - E.min()))
    return w / w.sum()


def _project_probs(
    probs: np.ndarray, num_nodes: int, projection: Sequence[int]
) -> np.ndarray:
    """Marginalize a full-state probability vector onto a node subset."""
    proj = list(projection)
    if proj == list(range(len(proj))):
        # Prefix projections reduce to a reshape: trailing nodes vary fastest.
        return probs.reshape(1 << len(proj), -1).sum(axis=1)
    shifts = {k: len(proj) - 1 - i for i, k in enumerate(proj)}
    idx = np.zeros(probs.shape[0], dtype=np.int64)
    full = np.arange(probs.shape[0], dtype=np.int64)
    for k, shift in shifts.items():
        bit = (full >> (num_nodes - 1 - k)) & 1
        idx |= bit << shift
    return np.bincount(idx, weights=probs, minlength=1 << len(proj))


def model_probability(
    bm: BoltzmannMachine,
    beta: float,
    projection: Sequence[int] | None = None,
    cap: int = ENUMERATION_CAP,
) -> Distribution:
    """Exact Boltzmann marginal over a node subset (all nodes when omitted)."""
    probs = boltzmann_probabilities(bm, beta, cap)
    if projection is None:
        projection = range(bm.num_nodes)
    proj = [int(k) for k in projection]
    if any(not 0 <= k < bm.num_nodes for k in proj):
        raise ValueError("projection indices out of range")
    marginal = _project_probs(probs, bm.num_nodes, proj)
    support = state_matrix(len(proj), bm.basis)
    return Distribution(tuple(map(tuple, support.tolist())), marginal)


def visible_marginal(bm: BoltzmannMachine, beta: float, cap: int = ENUMERATION_CAP) -> Distribution:
    return model_probability(bm, beta, bm.visible_indices, cap)


def dataset_distribution(ds: Dataset) -> Distribution:
    return Distribution(tuple(ds.row(d) for d in range(ds.num_rows)), ds.weights)


def kl_divergence(q: Distribution, p: Distribution) -> float:
    """D(q || p) = sum q ln(q/p); +inf when p misses mass where q has some."""
    p_map = p._prob_map
    total = 0.0
    for state, q_v in zip(q.support, q.probs):
        if q_v == 0.0:
            continue
        p_v = p_map.get(state, 0.0)
        if p_v <= 0.0:
            return float("inf")
        total += q_v * np.log(q_v / p_v)
    # Clip the tiny negative float residue that appears when q == p.
    return float(max(total, 0.0))


def hellinger(p_s: Distribution, p_a: Distribution) -> float:
    """(1/2) * sqrt( sum_i (sqrt(p_s_i) - sqrt(p_a_i))^2 ) over the joint support."""
    states = set(p_s.support) | set(p_a.support)
    a, b = p_s._prob_map, p_a._prob_map
    total = sum((np.sqrt(a.get(s, 0.0)) - np.sqrt(b.get(s, 0.0))) ** 2 for s in states)
    return 0.5 * float(np.sqrt(total))


# -- conditionals -------------------------------------------------------------


def conditional_probability(
    bm: BoltzmannMachine,
    beta: float,
    v_input: Sequence[int],
    cap: int = ENUMERATION_CAP,
) -> Distribution:
    """p(output | input): the input's slice of the energy table
    (``prefix_energies``, so the cap applies to the n - m_I free nodes),
    hidden nodes summed out."""
    if bm.num_visible_output < 1:
        raise ValueError("machine has no output nodes")
    if len(v_input) != bm.num_visible_input:
        raise ValueError(f"expected {bm.num_visible_input} input values, got {len(v_input)}")
    E = prefix_energies(bm, v_input, cap)
    w = np.exp(-beta * (E - E.min())).reshape(1 << bm.num_visible_output, -1).sum(axis=1)
    support = state_matrix(bm.num_visible_output, bm.basis)
    return Distribution(tuple(map(tuple, support.tolist())), w / w.sum())


def negative_conditional_log_likelihood(
    bm: BoltzmannMachine, beta: float, ds: Dataset, cap: int = ENUMERATION_CAP
) -> float:
    """Sum over rows of -ln p(row output | row input)."""
    if ds.io_split is None:
        raise ValueError("dataset has no input/output split")
    total = 0.0
    for d in range(ds.num_rows):
        cond = conditional_probability(bm, beta, ds.input_part(d), cap)
        p = cond.prob(ds.output_part(d))
        if p <= 0.0:
            return float("inf")
        total -= float(np.log(p))
    return total


# -- temperature analysis ------------------------------------------------------


def dkl_beta_derivatives(
    bm: BoltzmannMachine, beta: float, ds: Dataset, cap: int = ENUMERATION_CAP
) -> tuple[float, float]:
    """Exact first and second derivatives of D(q || p_beta) with respect to beta.

    first  = -E[E] + sum_v q(v) E[E | v]
    second = sum_v q(v) (Var(E) - Var(E | v))

    where the unconditional moments are under the full Boltzmann distribution
    and the conditional ones under p(hidden | v) at the same beta.
    """
    n_hidden = bm.num_hidden
    E = all_energies(bm, cap)
    w = np.exp(-beta * (E - E.min()))
    probs = w / w.sum()
    mean_E = float(probs @ E)
    var_E = float(probs @ (E - mean_E) ** 2)

    E_by_visible = E.reshape(1 << bm.num_visible, 1 << n_hidden)
    first = -mean_E
    second = 0.0
    for d in range(ds.num_rows):
        q_v = float(ds.weights[d])
        row = E_by_visible[state_index(ds.row(d), bm.basis)]
        w_row = np.exp(-beta * (row - row.min()))
        p_cond = w_row / w_row.sum()
        cond_mean = float(p_cond @ row)
        cond_var = float(p_cond @ (row - cond_mean) ** 2)
        first += q_v * cond_mean
        second += q_v * (var_E - cond_var)
    return first, second


def ground_state_probability_curve(
    bm: BoltzmannMachine,
    beta_grid: Sequence[float] | None = None,
    cap: int = ENUMERATION_CAP,
) -> list[tuple[float, float]]:
    """Total probability mass on the energy minimizers at each grid beta."""
    betas = DEFAULT_BETA_GRID if beta_grid is None else np.asarray(beta_grid, dtype=np.float64)
    excited = excited_mass_curve(bm, betas, cap)
    return [(float(b), 1.0 - m) for b, m in zip(betas, excited)]


def excited_mass_curve(
    bm: BoltzmannMachine, betas: np.ndarray, cap: int = ENUMERATION_CAP
) -> np.ndarray:
    """1 - P(ground) per beta, computed without cancellation.

    With gaps d_s = E_s - E_min > 0 and g ground states,
    excited mass = S / (g + S) where S = sum_s exp(-beta d_s); this stays
    strictly decreasing in floating point whenever any gap is positive.
    """
    ground, _, gaps = ground_set(bm, cap)
    g = float(len(ground))
    out = np.empty(len(betas))
    for i, b in enumerate(np.asarray(betas, dtype=np.float64)):
        S = float(np.exp(-b * gaps).sum())
        out[i] = S / (g + S)
    return out


def _golden_section(f, lo: float, hi: float, tol: float = 1e-6, max_iter: int = 200) -> float:
    """Minimize a unimodal scalar function on [lo, hi]."""
    inv_phi = (np.sqrt(5.0) - 1.0) / 2.0
    a, b = float(lo), float(hi)
    c = b - inv_phi * (b - a)
    d = a + inv_phi * (b - a)
    fc, fd = f(c), f(d)
    for _ in range(max_iter):
        if b - a <= tol:
            break
        if fc < fd:
            b, d, fd = d, c, fc
            c = b - inv_phi * (b - a)
            fc = f(c)
        else:
            a, c, fc = c, d, fd
            d = a + inv_phi * (b - a)
            fd = f(d)
    return (a + b) / 2.0


def fit_beta(
    sample_set: "SampleSet",
    bm: BoltzmannMachine,
    beta_grid: Sequence[float] | None = None,
    cap: int = ENUMERATION_CAP,
) -> tuple[float, list[tuple[float, float]]]:
    """Inverse temperature whose exact Boltzmann table best matches the samples.

    Scans the grid with the root-probability distance used throughout
    (``hellinger``), then refines inside the bracketing cell by golden-section
    search. Grid ties break toward the smallest beta.
    """
    betas = DEFAULT_BETA_GRID if beta_grid is None else np.asarray(beta_grid, dtype=np.float64)
    if len(betas) == 0:
        raise ValueError("beta grid is empty")
    check_capacity(bm.num_nodes, cap)

    E = all_energies(bm, cap)
    E = E - E.min()
    # Empirical weights aligned to the lexicographic state order.
    emp = np.zeros(E.shape[0])
    total = float(sample_set.counts.sum())
    for state, count in zip(sample_set.states, sample_set.counts):
        emp[state_index(state, bm.basis)] += count / total
    sqrt_emp = np.sqrt(emp)

    def distance(beta: float) -> float:
        w = np.exp(-beta * E)
        p = w / w.sum()
        return 0.5 * float(np.sqrt(np.sum((sqrt_emp - np.sqrt(p)) ** 2)))

    curve = [(float(b), distance(float(b))) for b in betas]
    values = np.array([v for _, v in curve])
    best = int(np.argmin(values))  # argmin takes the first (smallest beta) on ties
    lo = betas[max(best - 1, 0)]
    hi = betas[min(best + 1, len(betas) - 1)]
    if lo == hi:
        return float(betas[best]), curve
    beta_star = _golden_section(distance, lo, hi, tol=1e-4 * float(hi))
    # Keep the grid point if refinement did not actually improve on it.
    if distance(beta_star) > values[best]:
        beta_star = float(betas[best])
    return float(beta_star), curve
