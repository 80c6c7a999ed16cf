"""Exact distributions, divergences, conditionals, and inverse-temperature fits.

Everything here is computed by full enumeration of the state space, so these
functions double as the oracle that sampling backends are checked against.
They are pure functions of immutable inputs. The Boltzmann weights come from
``model._weighting`` or ``model._row_pass``; per-row readouts gather from them.
"""

from __future__ import annotations

from functools import cached_property, lru_cache
from typing import TYPE_CHECKING, Sequence

import numpy as np

from .datasets import Dataset
from .errors import CapacityError
from .model import (
    Basis,
    BoltzmannMachine,
    _SYMBOLS,
    _basis_of,
    _check_probabilities,
    _check_symbols,
    _row_indices,
    _row_pass,
    _state_rows,
    _weighting,
    all_energies,
    ground_set,
    prefix_energies,
    state_index,
)

if TYPE_CHECKING:  # avoid a runtime cycle with samplers
    from .samplers import SampleSet

DEFAULT_BETA_GRID = np.geomspace(0.1, 10.0, 40)

@lru_cache(maxsize=8)
def _every_index(width: int) -> np.ndarray:
    """Read-only 0..2^width - 1: the index of every support that holds all
    states of ``width`` nodes in order, shared by all of them."""
    index = np.arange(1 << width, dtype=np.int64)
    index.flags.writeable = False
    return index


class Distribution:
    """Probabilities over an explicit support of configurations.

    The support is kept as the states' lexicographic indices (``_index``, in
    the given order) with their width and basis, so equal indices mean equal
    states; ``support`` as tuples is built on first use. The {0,1} and
    {-1,+1} alphabets share one state, all ones, and lookups across them
    match it alone, as equal tuples would. ``_every`` marks a support of
    every state in order (``_indexed`` without an index), where a state's
    index is its position.
    """

    _every = False

    def __init__(self, support: Sequence[Sequence[int]], probs: Sequence[float]):
        support = list(support)
        probs = np.array(probs, dtype=np.float64).reshape(-1)  # a copy: the caller's array stays its own
        if len(support) != probs.shape[0]:
            raise ValueError("support and probs must have equal length")
        _check_probabilities(probs, "probabilities")
        if len({len(s) for s in support}) != 1:
            raise ValueError("support entries must be states of one width in one basis")
        rows = np.array(support, dtype=np.int64)
        self._set(_row_indices(rows), probs, rows.shape[1], _basis_of(rows))
        keys = self._sorted[0]
        if np.any(keys[1:] == keys[:-1]):
            raise ValueError("support entries must be distinct")

    @classmethod
    def _indexed(cls, probs: np.ndarray, width: int, basis: Basis, index: np.ndarray | None = None):
        """Unchecked constructor, for a probability vector over distinct state
        indices (every state of ``width`` nodes, in order, when omitted)."""
        dist = cls.__new__(cls)
        if index is None:
            index = _every_index(width)
            dist._sorted = (index, index)  # already in order
            dist._every = True
        dist._set(index, np.asarray(probs, dtype=np.float64), width, basis)
        return dist

    def _set(self, index: np.ndarray, probs: np.ndarray, width: int, basis: Basis) -> None:
        probs.flags.writeable = False
        self._index, self.probs, self._width, self._basis = index, probs, width, basis

    @cached_property
    def support(self) -> tuple[tuple[int, ...], ...]:
        return tuple(map(tuple, _state_rows(self._index, self._width, self._basis).tolist()))

    @cached_property
    def _sorted(self) -> tuple[np.ndarray, np.ndarray]:
        order = np.argsort(self._index, kind="stable")
        return self._index[order], order

    def _find(self, index: np.ndarray, width: int, basis: Basis) -> np.ndarray:
        """Position in this support of each given state, -1 where absent."""
        if width != self._width:
            return np.full(index.shape[0], -1)
        if basis is not self._basis:  # the alphabets share one state: all ones
            index = np.where(index == (1 << width) - 1, index, -1)
        keys, order = self._sorted
        at = np.searchsorted(keys, index).clip(max=keys.shape[0] - 1)
        return np.where(keys[at] == index, order[at], -1)

    def as_dict(self) -> dict[tuple[int, ...], float]:
        return {s: float(p) for s, p in zip(self.support, self.probs)}

    def prob(self, state: Sequence[int]) -> float:
        values = tuple(map(int, state))
        if len(values) != self._width or not _SYMBOLS[self._basis].issuperset(values):
            return 0.0
        i = state_index(values, self._basis)
        if self._every:
            return float(self.probs[i])
        keys, order = self._sorted
        k = int(np.searchsorted(keys, i))
        return float(self.probs[order[k]]) if k < keys.shape[0] and keys[k] == i else 0.0


def boltzmann_probabilities(bm: BoltzmannMachine, beta: float) -> np.ndarray:
    """exp(-beta*E)/Z over the lexicographic state order (one ``_row_pass`` row)."""
    w, _, _, Z = _row_pass(all_energies(bm)[None], beta)
    return w[0] / Z


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
    bm: BoltzmannMachine, beta: float, projection: Sequence[int] | None = None
) -> Distribution:
    """Exact Boltzmann marginal over a node subset (all nodes when omitted)."""
    probs = boltzmann_probabilities(bm, beta)
    if projection is None:
        projection = range(bm.num_nodes)
    proj = [int(k) for k in projection]
    if any(not 0 <= k < bm.num_nodes for k in proj):
        raise ValueError("projection indices out of range")
    return Distribution._indexed(_project_probs(probs, bm.num_nodes, proj), len(proj), bm.basis)


def visible_marginal(bm: BoltzmannMachine, beta: float) -> Distribution:
    """Exact Boltzmann marginal over the visible nodes, u / Z of the weighting."""
    wt = _weighting(bm, beta)
    return Distribution._indexed(wt.u / wt.Z, bm.num_visible, bm.basis)


def dataset_distribution(ds: Dataset) -> Distribution:
    return Distribution._indexed(ds.weights, ds.num_bits, ds._basis, ds._indices)


def _probs_of(p: Distribution, q: Distribution) -> tuple[np.ndarray, np.ndarray]:
    """p's probability of each state in q's support (0 where p lacks it), and
    the positions in p's support that q lacks."""
    at = p._find(q._index, q._width, q._basis)
    found = at >= 0
    p_on_q = np.where(found, p.probs[at], 0.0)
    missing = np.ones(p.probs.shape[0], dtype=bool)
    missing[at[found]] = False
    return p_on_q, missing


def _relative_entropy(q: np.ndarray, p: np.ndarray) -> float:
    """sum q ln(q/p) where q > 0, +inf where p is 0 there: ``kl_divergence``'s and ``grad_dkl``'s."""
    has = q > 0.0
    q, p = q[has], p[has]
    if np.any(p <= 0.0):
        return float("inf")
    return max(float(np.sum(q * np.log(q / p))), 0.0)  # clip the tiny negative residue when q == p


def kl_divergence(q: Distribution, p: Distribution) -> float:
    """D(q || p) = sum q ln(q/p); +inf when p misses mass where q has some."""
    if p._every and p._width == q._width and p._basis is q._basis:
        return _relative_entropy(q.probs, p.probs[q._index])  # a state's index is its position in p
    return _relative_entropy(q.probs, _probs_of(p, q)[0])


def hellinger(p_s: Distribution, p_a: Distribution) -> float:
    """(1/2) * sqrt( sum_i (sqrt(p_s_i) - sqrt(p_a_i))^2 ) over the joint support."""
    p_a_on_s, only_a = _probs_of(p_a, p_s)
    total = np.sum((np.sqrt(p_s.probs) - np.sqrt(p_a_on_s)) ** 2) + np.sum(p_a.probs[only_a])
    return 0.5 * float(np.sqrt(total))


# -- conditionals -------------------------------------------------------------


def conditional_probability(
    bm: BoltzmannMachine, beta: float, v_input: Sequence[int]
) -> Distribution:
    """p(output | input), hidden nodes summed out.

    When the whole machine can be enumerated it is the input's row of the
    weighting's conditional table. Past the cap, it is u / Z of a ``_row_pass``
    over the input's ``prefix_energies`` slice: the cap is on the n - m_I free nodes.
    """
    m_o = bm.num_visible_output
    if m_o < 1:
        raise ValueError("machine has no output nodes")
    if len(v_input) != bm.num_visible_input:
        raise ValueError(f"expected {bm.num_visible_input} input values, got {len(v_input)}")
    try:
        wt = _weighting(bm, beta)
    except CapacityError:
        _, _, u, Z = _row_pass(prefix_energies(bm, v_input).reshape(1 << m_o, -1), beta)
        return Distribution._indexed(u / Z, m_o, bm.basis)
    values = tuple(map(int, v_input))
    _check_symbols(values, bm.basis)
    return Distribution._indexed(wt.c[state_index(values, bm.basis)], m_o, bm.basis)


def _row_conditionals(bm: BoltzmannMachine, beta: float, ds: Dataset) -> np.ndarray:
    """p(row output | row input) of every data row, in row order: one gather of
    the conditional table's elements that ``conditional_probability`` reads;
    past the cap, u / Z of each row input's slice, as it and ``grad_ncll`` do."""
    _check_fit(bm, ds, split=True)
    m_i, m_o = ds.io_split
    y = ds._indices % (1 << m_o)
    try:
        return _weighting(bm, beta).c[ds._indices >> m_o, y]
    except CapacityError:
        passes = (_row_pass(prefix_energies(bm, x[:m_i]).reshape(1 << m_o, -1), beta) for x in ds.rows)
        return np.array([u[j] / Z for (_, _, u, Z), j in zip(passes, y)])


def _ncll_sum(p: np.ndarray) -> float:
    """sum -ln p added one row at a time, +inf where p is 0: the NCLL of both metric and gradient."""
    if np.any(p <= 0.0):
        return float("inf")
    total = 0.0
    for log_p in np.log(p).tolist():
        total -= log_p
    return total


def negative_conditional_log_likelihood(bm: BoltzmannMachine, beta: float, ds: Dataset) -> float:
    """Sum over rows of -ln p(row output | row input), added in row order."""
    return _ncll_sum(_row_conditionals(bm, beta, ds))


# -- temperature analysis ------------------------------------------------------


def dkl_beta_derivatives(bm: BoltzmannMachine, beta: float, ds: Dataset) -> tuple[float, float]:
    """Exact first and second derivatives of D(q || p_beta) with respect to beta.

    first  = -E[E] + sum_v q(v) E[E | v]
    second = sum_v q(v) (Var(E) - Var(E | v))

    where the unconditional moments are under the full Boltzmann distribution
    and the conditional ones under p(hidden | v) at the same beta. The
    weighting holds each visible row's conditional mean and variance, so
    the full ones follow by the law of total variance (Chan, Golub and
    LeVeque, Amer. Statist. 37, 1983): with p(v) the visible marginal,
    E[E] = sum_v p(v) mean[v] and Var(E) = sum_v p(v) (var[v] + (mean[v] -
    E[E])^2).
    """
    _check_fit(bm, ds)
    wt = _weighting(bm, beta)
    p = wt.u / wt.Z
    mean_E = float(p @ wt.mean)
    var_E = float(p @ (wt.var + (wt.mean - mean_E) ** 2))
    v = ds._indices
    return float(ds.weights @ wt.mean[v]) - mean_E, float(ds.weights @ (var_E - wt.var[v]))


def _check_fit(bm: BoltzmannMachine, ds: Dataset, split: bool = False) -> None:
    """Refuse a dataset whose rows are not states of the machine's visible
    nodes: of another width, or in the other basis (all-ones rows fit
    either); with ``split``, also one whose input/output split is not the
    machine's partition. The one fit check of every quantity over a machine
    and a dataset, made once per call, in O(1) when the bases agree."""
    if ds.num_bits != bm.num_visible:
        raise ValueError(f"dataset rows have {ds.num_bits} bits, machine has {bm.num_visible} visible nodes")
    if ds._basis is not bm.basis and not np.all(ds.rows == 1):
        raise ValueError(f"dataset rows are in basis {ds._basis.value}, machine is in basis {bm.basis.value}")
    if split and ds.io_split != (bm.num_visible_input, bm.num_visible_output):
        raise ValueError(f"dataset split {ds.io_split} does not match machine partition "
                         f"({bm.num_visible_input}, {bm.num_visible_output})")


def ground_state_probability_curve(
    bm: BoltzmannMachine, beta_grid: Sequence[float] | None = None
) -> list[tuple[float, float]]:
    """Total probability mass on the energy minimizers at each grid beta."""
    betas = DEFAULT_BETA_GRID if beta_grid is None else np.asarray(beta_grid, dtype=np.float64)
    excited = excited_mass_curve(bm, betas)
    return [(float(b), 1.0 - m) for b, m in zip(betas, excited)]


def excited_mass_curve(bm: BoltzmannMachine, betas: np.ndarray) -> np.ndarray:
    """1 - P(ground) per beta, computed without cancellation.

    With gaps d_s = E_s - E_min > 0 and g ground states,
    excited mass = S / (g + S) where S = sum_s exp(-beta d_s); this stays
    strictly decreasing in floating point whenever any gap is positive.
    """
    ground, _, gaps = ground_set(bm)
    return _excited_mass(len(ground), gaps, betas)


def _excited_weights(num_ground: int, gaps: np.ndarray, betas: np.ndarray):
    """Per beta, the excited states' weights w_s = exp(-beta d_s), their sum
    S and the normaliser g + S, from the size and gaps of a ``ground_set``:
    state s has probability w_s / (g + S), and all of them S / (g + S)."""
    g = float(num_ground)
    for b in np.asarray(betas, dtype=np.float64):
        w = np.exp(-b * gaps)
        S = float(w.sum())
        yield w, S, g + S


def _excited_mass(num_ground: int, gaps: np.ndarray, betas: np.ndarray) -> np.ndarray:
    """``excited_mass_curve`` from the size and gaps of a ``ground_set``."""
    return np.array([S / z for _, S, z in _excited_weights(num_ground, gaps, betas)], dtype=np.float64)


def _check_ground_monotone(ground: tuple, betas: np.ndarray) -> tuple[bool, bool]:
    """(passes, strictly_increasing) for the machine whose ``ground_set`` is
    ``ground``. Constant probability 1 counts as a pass for all-ground-state
    machines."""
    minimizers, _, gaps = ground
    excited = _excited_mass(len(minimizers), gaps, betas)
    if np.all(excited == 0.0):
        return True, False
    return bool(np.all(np.diff(excited) < 0)), True


def _check_excited_decrease(ground: tuple, betas: np.ndarray) -> tuple[bool, float | None]:
    """Scan for a beta past which every excited-state probability is
    nonincreasing, for the machine whose ``ground_set`` is ``ground``,
    extending the grid upward when the critical point lies beyond it.
    Returns (found, beta_c)."""
    minimizers, _, gaps = ground
    if gaps.size == 0:
        return True, None
    grid = np.asarray(betas, dtype=np.float64)
    for _ in range(8):
        probs = np.array([w / z for w, _, z in _excited_weights(len(minimizers), gaps, grid)])
        diffs = np.diff(probs, axis=0)
        tol = 1e-13 * np.maximum(probs[:-1], probs[1:])
        increases = np.any(diffs > tol, axis=1)
        if not increases[-1]:
            last = int(np.max(np.nonzero(increases)[0])) + 1 if increases.any() else 0
            return True, float(grid[last])
        # Critical beta beyond the grid: extend by a decade and rescan the tail.
        grid = np.geomspace(grid[-1], grid[-1] * 10, 20)
        if grid[-1] > 1e7:
            break
    return False, None


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
) -> tuple[float, list[tuple[float, float]]]:
    """Inverse temperature whose exact Boltzmann table best matches the samples.

    Scans the grid with the root-probability distance used throughout
    (``hellinger``), then refines inside the bracketing cell by golden-section
    search. Grid ties break toward the smallest beta.
    """
    betas = DEFAULT_BETA_GRID if beta_grid is None else np.asarray(beta_grid, dtype=np.float64)
    if len(betas) == 0:
        raise ValueError("beta grid is empty")
    if sample_set.num_nodes != bm.num_nodes or sample_set.basis is not bm.basis:
        raise ValueError("sample set does not match the machine's nodes and basis")
    E = all_energies(bm)
    # Empirical weights aligned to the lexicographic state order.
    total = float(sample_set.counts.sum())
    emp = np.bincount(_row_indices(sample_set.states), weights=sample_set.counts / total,
                      minlength=E.shape[0])
    sqrt_emp = np.sqrt(emp)

    def distance(beta: float) -> float:
        w, _, _, Z = _row_pass(E[None], beta)
        return 0.5 * float(np.sqrt(np.sum((sqrt_emp - np.sqrt(w[0] / Z)) ** 2)))

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
