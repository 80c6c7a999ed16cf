"""Ising graph model: energy evaluation, clamping, basis conversion, enumeration.

A machine is a complete or sparse graph of binary nodes partitioned into
[visible-input | visible-output | hidden], in that index order. The energy of
a configuration s is

    E(s) = sum_i bias_i * s_i + sum_{(k,l)} coupling_kl * s_k * s_l

with each unordered pair counted once. Probabilities follow the Boltzmann
distribution exp(-beta * E) / Z.

Two node alphabets are supported: {0,1} (the default working basis) and
{-1,+1} (the convention of annealer hardware). ``convert_basis`` maps the
parameters between the two so that the Boltzmann distribution is unchanged.
"""

from __future__ import annotations

import json
import math
import os
import sys
from collections import Counter
from contextlib import contextmanager, suppress
from dataclasses import dataclass, replace
from enum import Enum
from functools import cached_property, lru_cache
from types import MappingProxyType
from typing import Mapping, NamedTuple, Sequence

import numpy as np

from .errors import CapacityError

# Full enumeration is used as the exact oracle; 2^24 states is the ceiling
# beyond which operations refuse to enumerate. Only this module reads it, at
# call time, through ``check_capacity`` and ``prefix_energies``.
ENUMERATION_CAP = 24


class Basis(str, Enum):
    """Node alphabet. ZERO_ONE uses {0,1}; PLUS_MINUS uses {-1,+1}."""

    ZERO_ONE = "01"
    PLUS_MINUS = "pm1"

    @property
    def symbols(self) -> tuple[int, int]:
        return (0, 1) if self is Basis.ZERO_ONE else (-1, 1)


# Each basis's symbols as a set, for the per-call membership checks.
_SYMBOLS = {basis: frozenset(basis.symbols) for basis in Basis}


def _check_symbols(values: tuple[int, ...], basis: Basis) -> None:
    """Refuse int values that are not all symbols of ``basis``."""
    if not _SYMBOLS[basis].issuperset(values):
        bad = [v for v in values if v not in _SYMBOLS[basis]]
        raise ValueError(f"state values {bad} not in basis {basis.value}")


def _check_probabilities(p: np.ndarray, what: str, positive: bool = False) -> None:
    """Refuse ``p`` unless it is a probability vector: every entry finite and
    nonnegative (positive with ``positive``), summing to 1 within 1e-9."""
    if not np.all(np.isfinite(p)):
        raise ValueError(f"{what} must be finite")
    if np.any(p <= 0 if positive else p < 0):
        raise ValueError(f"{what} must be {'positive' if positive else 'nonnegative'}")
    if abs(float(p.sum()) - 1.0) > 1e-9:
        raise ValueError(f"{what} sum to {p.sum()}, expected 1")


@dataclass(frozen=True)
class SpinState:
    """One configuration of every node, in a declared basis."""

    values: tuple[int, ...]
    basis: Basis = Basis.ZERO_ONE

    def __post_init__(self):
        object.__setattr__(self, "values", tuple(int(v) for v in self.values))
        _check_symbols(self.values, self.basis)

    def __len__(self) -> int:
        return len(self.values)

    def as_array(self) -> np.ndarray:
        return np.asarray(self.values, dtype=np.float64)


@dataclass(frozen=True, eq=False)
class BoltzmannMachine:
    """Node partition, biases and symmetric pairwise couplings.

    Couplings, a mapping or a sequence of ((k, l), value) terms, are stored
    sparsely, keyed by the (min, max) index pair; lookup is symmetric, and a
    pair given twice, in either order, is refused. Every parameter must be
    finite. ``h_max``/``j_max`` record the intended parameter bounds but are
    only *checked* on demand (``assert_within_bounds``); training clips to
    them, and bundled reference machines may sit exactly on or slightly past
    the caps. Machines compare by identity: their fields hold arrays.
    """

    num_visible_input: int
    num_visible_output: int
    num_hidden: int
    biases: np.ndarray
    couplings: Mapping[tuple[int, int], float] | Sequence[tuple[tuple[int, int], float]]
    basis: Basis = Basis.ZERO_ONE
    h_max: float = 1.0
    j_max: float = 1.0

    def __post_init__(self):
        n = self.num_nodes
        if min(self.num_visible_input, self.num_visible_output, self.num_hidden) < 0:
            raise ValueError("partition sizes must be nonnegative")
        biases = np.array(self.biases, dtype=np.float64).reshape(-1)
        if biases.shape != (n,):
            raise ValueError(f"expected {n} biases, got {biases.shape}")
        if not np.isfinite(biases).all():
            raise ValueError("biases must be finite")
        biases.flags.writeable = False
        object.__setattr__(self, "biases", biases)

        normalized: dict[tuple[int, int], float] = {}
        terms = self.couplings.items() if isinstance(self.couplings, Mapping) else self.couplings
        for pair, value in terms:
            k, l = int(pair[0]), int(pair[1])
            if k == l:
                raise ValueError(f"self-coupling ({k},{k}) is not allowed")
            if not (0 <= k < n and 0 <= l < n):
                raise ValueError(f"coupling ({k},{l}) out of range for {n} nodes")
            key = (min(k, l), max(k, l))
            if key in normalized:
                raise ValueError(f"duplicate coupling entry for pair {key}")
            normalized[key] = float(value)
            if not math.isfinite(normalized[key]):
                raise ValueError(f"coupling {key} must be finite, got {normalized[key]}")
        object.__setattr__(self, "couplings", MappingProxyType(normalized))

        if not (self.h_max > 0 and self.j_max > 0):  # NaN fails too
            raise ValueError("h_max and j_max must be positive")

    # -- structure ------------------------------------------------------

    @property
    def num_visible(self) -> int:
        return self.num_visible_input + self.num_visible_output

    @property
    def num_nodes(self) -> int:
        return self.num_visible + self.num_hidden

    def coupling(self, k: int, l: int) -> float:
        """Symmetric lookup; absent pairs couple with strength 0."""
        return self.couplings.get((min(k, l), max(k, l)), 0.0)

    @cached_property
    def coupling_matrix(self) -> np.ndarray:
        """Upper-triangular dense matrix J with J[k,l] for k<l, zeros elsewhere."""
        J = np.zeros((self.num_nodes, self.num_nodes))
        for (k, l), v in self.couplings.items():
            J[k, l] = v
        J.flags.writeable = False
        return J

    @cached_property
    def _energy_table(self) -> np.ndarray:
        """Read-only energy of every state; parameters are immutable, so it is
        built at most once per machine, on the first read. Read it through
        ``all_energies``, which enforces the enumeration cap. The exact beta
        points read ``_row_gaps`` instead, so a machine that is only swept
        never holds it."""
        E = _split_energies(self.biases, self.coupling_matrix, self.basis)
        E.flags.writeable = False
        return E

    @cached_property
    def _row_gaps(self) -> tuple[np.ndarray, np.ndarray]:
        """Read-only (m, D) of the energy table as E[v, h], visible rows v:
        m[v] = min_h E[v, h] and D = E - m[:, None], the gaps every beta
        point of ``_weighting`` exponentiates. They do not depend on beta,
        so they are built at most once per machine: from a table of their
        own, shifted in place, so they hold its 8·2^n bytes and no more.
        ``_energy_table`` is neither read nor kept; a machine also read
        through ``all_energies`` holds both, at one more split sum. Read
        them after ``check_capacity``, as ``_weighting`` does."""
        D = _split_energies(self.biases, self.coupling_matrix, self.basis).reshape(1 << self.num_visible, -1)
        m = D.min(axis=1)
        D -= m[:, None]
        m.flags.writeable = False
        D.flags.writeable = False
        return m, D

    def with_parameters(
        self, biases: np.ndarray, couplings: Mapping[tuple[int, int], float]
    ) -> "BoltzmannMachine":
        """Same graph metadata, new parameter values."""
        return replace(self, biases=biases, couplings=dict(couplings))

    def assert_within_bounds(self) -> None:
        """Raise if any |bias| > h_max or |coupling| > j_max."""
        if np.any(np.abs(self.biases) > self.h_max):
            worst = float(np.max(np.abs(self.biases)))
            raise ValueError(f"bias magnitude {worst} exceeds h_max={self.h_max}")
        for pair, v in self.couplings.items():
            if abs(v) > self.j_max:
                raise ValueError(f"coupling {pair}={v} exceeds j_max={self.j_max}")


def complete_pairs(num_nodes: int) -> list[tuple[int, int]]:
    """All unordered pairs (k, l) with k < l."""
    return [(k, l) for k in range(num_nodes) for l in range(k + 1, num_nodes)]


def random_machine(
    num_visible_input: int,
    num_visible_output: int,
    num_hidden: int,
    rng: np.random.Generator,
    scale: float = 1.0,
    basis: Basis = Basis.ZERO_ONE,
    h_max: float = 1.0,
    j_max: float = 1.0,
) -> BoltzmannMachine:
    """Complete-graph machine with parameters i.i.d. uniform on [-scale, scale]."""
    n = num_visible_input + num_visible_output + num_hidden
    biases = rng.uniform(-scale, scale, size=n)
    couplings = {pair: float(rng.uniform(-scale, scale)) for pair in complete_pairs(n)}
    return BoltzmannMachine(
        num_visible_input=num_visible_input,
        num_visible_output=num_visible_output,
        num_hidden=num_hidden,
        biases=biases,
        couplings=couplings,
        basis=basis,
        h_max=h_max,
        j_max=j_max,
    )


# -- energy ---------------------------------------------------------------


def energy(bm: BoltzmannMachine, state: SpinState) -> float:
    """Energy of one configuration: bias terms plus each pair counted once."""
    if state.basis is not bm.basis:
        raise ValueError(f"state basis {state.basis.value} != machine basis {bm.basis.value}")
    if len(state) != bm.num_nodes:
        raise ValueError(f"state has {len(state)} values, machine has {bm.num_nodes} nodes")
    s = state.as_array()
    total = float(bm.biases @ s)
    for (k, l), v in bm.couplings.items():
        total += v * s[k] * s[l]
    return total


def energies(bm: BoltzmannMachine, states: np.ndarray) -> np.ndarray:
    """Vectorized energy for a (M, N) matrix of configurations."""
    return _table_energies(np.asarray(states, dtype=np.float64), bm.biases, bm.coupling_matrix)


def _table_energies(S: np.ndarray, biases: np.ndarray, J: np.ndarray) -> np.ndarray:
    return S @ biases + np.einsum("sk,sk->s", S @ J, S)


def check_capacity(num_nodes: int) -> None:
    if num_nodes > ENUMERATION_CAP:
        raise CapacityError(f"{num_nodes} nodes exceeds the enumeration cap of {ENUMERATION_CAP}")


@lru_cache(maxsize=8)
def cached_state_table(num_nodes: int, basis: Basis) -> np.ndarray:
    """Float64 copy of the full state table; cached because sweeps and training
    loops reuse the same table thousands of times. It is built for subsets
    of a machine's nodes: the halves of the split sum, and the output or
    hidden nodes of the training moments."""
    table = state_matrix(num_nodes, basis).astype(np.float64)
    table.flags.writeable = False
    return table


def state_matrix(num_nodes: int, basis: Basis = Basis.ZERO_ONE) -> np.ndarray:
    """Every row of the lexicographic state table.

    Node 0 is the most significant bit, so row index and bit pattern agree:
    index 5 of a 3-node table is (1, 0, 1).
    """
    return _state_rows(np.arange(1 << num_nodes), num_nodes, basis)


def _state_rows(idx: np.ndarray, num_nodes: int, basis: Basis) -> np.ndarray:
    """Rows of the state table at the given lexicographic indices."""
    shifts = np.arange(num_nodes - 1, -1, -1, dtype=object if idx.dtype == object else np.int64)
    bits = (idx[:, None] >> shifts) & 1
    if basis is Basis.PLUS_MINUS:
        return (2 * bits - 1).astype(np.int8)
    return bits.astype(np.int8)


def _row_indices(rows: np.ndarray) -> np.ndarray:
    """Lexicographic index of each state row, the inverse of ``_state_rows``.

    The upper symbol, 1, is the set bit in either basis, so rows of valid
    states map one to one. The indices are int64 up to 62 nodes and Python
    ints (an object array) past that.
    """
    rows = np.asarray(rows)
    n = rows.shape[1]
    weights = 1 << np.arange(n - 1, -1, -1, dtype=np.int64 if n <= 62 else object)
    return (rows == 1) @ weights


def _basis_of(rows: np.ndarray) -> Basis:
    """The alphabet a matrix of states is written in; all ones reads as {0,1}."""
    for basis in Basis:
        lo, hi = basis.symbols
        if np.all((rows == lo) | (rows == hi)):
            return basis
    raise ValueError("rows must be states of one width in one basis")


def all_energies(bm: BoltzmannMachine) -> np.ndarray:
    """Read-only energy of every state, indexed lexicographically.

    Built by ``_split_energies`` on the first call and kept on the machine;
    the cap is checked on every call.
    """
    check_capacity(bm.num_nodes)
    return bm._energy_table


class _Weighting(NamedTuple):
    """Per-visible-row statistics of one machine's Boltzmann weights at one beta.

    With the table as E[v, h], m[v] = min_h E[v, h] and the gaps D = E -
    m[:, None] (``_row_gaps``), the weights w[v, h] = exp(-beta D[v, h])
    give r[v] = sum_h w[v, h], the row masses u[v] = r[v] exp(-beta (m[v] -
    min m)) and Z = sum u; the visible marginal is u / Z. Under p(h | v) =
    w[v] / r[v], E has mean ``mean[v]`` and variance ``var[v]``. ``c[i]``
    is p(output | input i): input i's 2^m_O row masses, reshifted to their
    own minimum and normalised. The weights themselves are not kept.
    """

    beta: float
    r: np.ndarray
    m: np.ndarray
    u: np.ndarray
    Z: float
    mean: np.ndarray
    var: np.ndarray
    c: np.ndarray


# ``_weighting`` passes over the gaps in blocks of whole rows of about this
# many entries (120 KB), so its two block buffers stay in cache and below
# glibc's 128 KB mmap threshold: larger ones can be mapped, or trimmed off
# the heap top, and page-fault afresh at every beta point. A longer row is
# a block alone.
_WEIGHT_BLOCK = 15 << 10


def _weighting(bm: BoltzmannMachine, beta: float) -> _Weighting:
    """The machine's weighting at ``beta``, by one blocked pass over its row gaps.

    Each block's weights w = exp(-beta D) give its rows' r = sum_h w, and
    two batched row dot products the raw moments s1 = sum_h w D and s2 =
    sum_h (w D) D: the mean gap is a = s1 / r and the variance max(s2 / r -
    a^2, 0). A row's sums see only its own entries, so the blocking does
    not change a bit. The one-pass variance cancels only mildly (Chan,
    Golub and LeVeque, Amer. Statist. 37, 1983): a row's smallest gap is 0,
    with weight 1, so var >= a^2 / r, and its relative error is at most
    about 1 + 2 r times that of the dot products, (1 + 2 r)(2^n_h + 2) eps
    in the worst case. The slot is kept read-only on the immutable machine,
    keyed by beta: the quantities of one beta point share it, and a new
    beta replaces it. The cap is checked on every call.
    """
    check_capacity(bm.num_nodes)
    beta = float(beta)
    if not math.isfinite(beta):
        raise ValueError(f"beta must be finite, got {beta}")
    slot = bm.__dict__.get("_weighting")
    if slot is not None and slot.beta == beta:
        return slot
    m, D = bm._row_gaps
    rows, cols = D.shape
    step = max(1, _WEIGHT_BLOCK // cols)
    w_buf, t_buf = np.empty((min(step, rows), cols)), np.empty((min(step, rows), cols))
    r, s1, s2 = np.empty(rows), np.empty((rows, 1, 1)), np.empty((rows, 1, 1))
    for start in range(0, rows, step):
        rows_b = slice(start, start + step)
        D_b = D[rows_b]
        w, t = w_buf[:D_b.shape[0]], t_buf[:D_b.shape[0]]
        np.exp(np.multiply(D_b, -beta, out=w), out=w)
        w.sum(axis=1, out=r[rows_b])
        np.matmul(w[:, None, :], D_b[:, :, None], out=s1[rows_b])
        np.matmul(np.multiply(w, D_b, out=t)[:, None, :], D_b[:, :, None], out=s2[rows_b])
    a = s1.reshape(rows) / r
    var = s2.reshape(rows) / r
    var -= a * a
    np.maximum(var, 0.0, out=var)
    u = _masses(r, m, beta)
    m_in = m.reshape(1 << bm.num_visible_input, -1)
    c = _masses(r.reshape(m_in.shape), m_in, beta)
    c /= c.sum(axis=1, keepdims=True)
    mean = m + a
    for x in (r, u, mean, var, c):
        x.flags.writeable = False
    slot = _Weighting(beta, r, m, u, float(u.sum()), mean, var, c)
    object.__setattr__(bm, "_weighting", slot)
    return slot


def _masses(r: np.ndarray, m: np.ndarray, beta: float) -> np.ndarray:
    """r exp(-beta (m - min m)) along the last axis: row sums r taken with
    each row shifted by its own minimum m, put back on one shift, min m."""
    return r * np.exp(-beta * (m - m.min(axis=-1, keepdims=True)))


def _row_pass(E: np.ndarray, beta: float):
    """(w = exp(-beta (E - m)), r = sum w, u = ``_masses``, Z = sum u), each
    row of ``E`` shifted by its minimum m: row v has mass u[v] / Z, and a
    table passed as one row is w / Z. Every exact normalisation outside
    ``_weighting``'s blocked pass."""
    if not math.isfinite(beta):
        raise ValueError(f"beta must be finite, got {beta}")
    m = E.min(axis=1)
    w = np.subtract(E, m[:, None])
    np.exp(np.multiply(w, -beta, out=w), out=w)
    r = w.sum(axis=1)
    u = _masses(r, m, beta)
    return w, r, u, float(u.sum())


def prefix_energies(bm: BoltzmannMachine, prefix: Sequence[int]) -> np.ndarray:
    """Energy of every state whose leading nodes take the values ``prefix``,
    indexed lexicographically by the remaining nodes.

    The cap applies to the n - k free nodes. Within the cap on all n nodes
    this is the prefix's read-only slice of ``all_energies``; past it, only
    the 2^(n-k) free states are enumerated by the same split sum (equal to
    the slice up to rounding), with the fixed nodes folded into the free
    biases as in ``clamp_visible``.
    """
    state = SpinState(prefix, bm.basis)
    k = len(state)
    if k > bm.num_nodes:
        raise ValueError(f"prefix has {k} values, machine has {bm.num_nodes} nodes")
    check_capacity(bm.num_nodes - k)
    if bm.num_nodes <= ENUMERATION_CAP:
        return all_energies(bm).reshape(1 << k, -1)[state_index(state.values, bm.basis)]
    p = state.as_array()
    J, b = bm.coupling_matrix, bm.biases
    offset = p @ b[:k] + p @ J[:k, :k] @ p
    return offset + _split_energies(b[k:] + p @ J[:k, k:], J[k:, k:], bm.basis)


def _split_energies(biases: np.ndarray, J: np.ndarray, basis: Basis) -> np.ndarray:
    """Energy table of the biases and upper-triangular couplings ``J`` as a
    sum over a high/low split of the nodes.

    With the leading h nodes as the high half and the rest as the low half,
    E[hi, lo] = E_hi[hi] + E_lo[lo] + S_hi[hi] @ J[:h, h:] @ S_lo[lo], and the
    row-major flattening of E is the lexicographic order. The cross term is
    one GEMM over two half-size state tables. Rounding differs from
    ``energies`` in the last bits (the sums are grouped differently).
    """
    n = biases.shape[0]
    h = n // 2
    S_hi = cached_state_table(h, basis)
    S_lo = cached_state_table(n - h, basis)
    E = (S_hi @ J[:h, h:]) @ S_lo.T
    E += _table_energies(S_hi, biases[:h], J[:h, :h])[:, None]
    E += _table_energies(S_lo, biases[h:], J[h:, h:])[None, :]
    return E.reshape(-1)


def state_index(values: Sequence[int], basis: Basis = Basis.ZERO_ONE) -> int:
    """Lexicographic index of a configuration (inverse of ``state_matrix`` rows)."""
    idx = 0
    if basis is Basis.ZERO_ONE:
        for v in values:
            idx = (idx << 1) | int(v)
    else:
        for v in values:
            idx = (idx << 1) | (int(v) + 1) // 2
    return idx


# Candidates for the ground set are rechecked in blocks of this many rows.
_RECHECK_ROWS = 1 << 16


def ground_set(bm: BoltzmannMachine) -> tuple[np.ndarray, float, np.ndarray]:
    """Energy minimizers with exact ties, their energy, and every other gap.

    Returns ``(ground, e_min, gaps)``: the lexicographic indices of the
    minimizers, the minimum energy, and E_s - e_min for every other state in
    index order (all strictly positive).

    Ties are exact float equality under ``energies``, which sums every state
    in the same order, so states related by symmetry tie. The table from
    ``all_energies`` groups the sums differently and can split such ties in
    the last bits; so every state within a rounding bound of the table's
    minimum is re-evaluated with ``energies``, and those values decide the
    ties and the gaps of the near-minimal states.
    """
    E = all_energies(bm)
    # Both paths sum at most n + 1 terms bounded in total by ``scale``, so each
    # is within about 25 * eps * scale of the true energy; 1e-12 * scale covers
    # both paths' errors at the minimum with a wide margin.
    scale = float(np.abs(bm.biases).sum() + np.abs(bm.coupling_matrix).sum())
    candidates = np.flatnonzero(E <= E.min() + 1e-12 * max(scale, 1.0))
    exact = np.concatenate([
        energies(bm, _state_rows(candidates[i:i + _RECHECK_ROWS], bm.num_nodes, bm.basis))
        for i in range(0, candidates.shape[0], _RECHECK_ROWS)
    ])
    e_min = float(exact.min())
    is_ground = exact == e_min
    ground, rest = candidates[is_ground], candidates[~is_ground]
    # one table-sized copy: the ground states go first, then every gap is
    # shifted in place and the other candidates' rechecked gaps are written
    # where the deletion moved them, down by the ground states before them
    gaps = np.delete(E, ground)
    gaps -= e_min
    gaps[rest - np.searchsorted(ground, rest)] = exact[~is_ground] - e_min
    return ground, e_min, gaps


def ground_states(bm: BoltzmannMachine) -> tuple[list[SpinState], float]:
    """Exact energy minimizers by full enumeration; ties all included (see
    ``ground_set``)."""
    ground, e_min, _ = ground_set(bm)
    rows = _state_rows(ground, bm.num_nodes, bm.basis)
    return [SpinState(tuple(int(v) for v in row), bm.basis) for row in rows], e_min


# -- clamping ---------------------------------------------------------------


def clamp_visible(
    bm: BoltzmannMachine, assignment: Mapping[int, int]
) -> tuple[BoltzmannMachine, float]:
    """Fix a subset of nodes and fold their effect into the free subgraph.

    Every free node j picks up ``sum_i coupling_ij * value_i`` on its bias
    (``_clamped_rows``); couplings among free nodes are untouched. The
    returned offset collects the clamped biases and clamped-pair couplings,
    so that for any free configuration h:

        energy(bm, assignment + h) == offset + energy(reduced, h)

    Energy gaps among free-node configurations are therefore unchanged.
    """
    clamped = dict(sorted((int(k), v) for k, v in assignment.items()))
    if any(not 0 <= k < bm.num_nodes for k in clamped):
        raise ValueError(f"clamped nodes {list(clamped)} out of range for {bm.num_nodes} nodes")
    _check_symbols(tuple(int(v) for v in clamped.values()), bm.basis)
    nodes, p = list(clamped), np.array([float(v) for v in clamped.values()])
    free, _, biases = _clamped_rows(bm, nodes, p[None])
    pos = {int(k): i for i, k in enumerate(free)}
    inputs, visible = (int(i) for i in np.searchsorted(free, [bm.num_visible_input, bm.num_visible]))
    reduced = BoltzmannMachine(inputs, visible - inputs, len(free) - visible, biases[0],
                               {(pos[k], pos[l]): v for (k, l), v in bm.couplings.items() if k in pos and l in pos},
                               bm.basis, bm.h_max, bm.j_max)
    return reduced, float(p @ bm.biases[nodes] + p @ bm.coupling_matrix[np.ix_(nodes, nodes)] @ p)


def _clamped_rows(
    bm: BoltzmannMachine, nodes: Sequence[int], values: np.ndarray
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Clamp ``nodes`` (ascending) to each row of ``values`` at once: the free
    nodes (ascending), their symmetric couplings J_sym[free, free] and one
    bias row per row of values, b_free + sum_k v_k J_sym[k, free], added one
    clamped node at a time in ascending order. A loop over a coupling dict in
    sorted pair order adds in that order, so machines whose dict is sorted,
    as training builds them, get the bits it gave."""
    free = np.array(sorted(set(range(bm.num_nodes)) - set(nodes)), dtype=np.int64)
    J_sym = (bm.coupling_matrix + bm.coupling_matrix.T)[:, free]
    biases = np.repeat(bm.biases[None, free], values.shape[0], axis=0)
    for col, k in enumerate(nodes):
        biases += values[:, col, None] * J_sym[k]
    return free, J_sym[free], biases


# -- basis conversion -------------------------------------------------------


def convert_state(state: SpinState) -> SpinState:
    """Map {0,1} values to {-1,+1} via S = 2s - 1, or back via s = (S + 1) / 2."""
    if state.basis is Basis.ZERO_ONE:
        return SpinState(tuple(2 * v - 1 for v in state.values), Basis.PLUS_MINUS)
    return SpinState(tuple((v + 1) // 2 for v in state.values), Basis.ZERO_ONE)


def convert_basis(bm: BoltzmannMachine) -> BoltzmannMachine:
    """Re-express the parameters in the other node alphabet.

    {0,1} -> {-1,+1}:  J' = J/4 and b'_k = b_k/2 + (1/4) sum_l J_kl.
    The reverse direction inverts those relations. State-by-state energies
    shift by a constant, so Boltzmann probabilities are preserved; applying
    the conversion twice returns the original parameters.
    """
    n = bm.num_nodes
    neighbor_sum = np.zeros(n)
    for (k, l), v in bm.couplings.items():
        neighbor_sum[k] += v
        neighbor_sum[l] += v

    if bm.basis is Basis.ZERO_ONE:
        new_couplings = {pair: v / 4.0 for pair, v in bm.couplings.items()}
        new_biases = bm.biases / 2.0 + neighbor_sum / 4.0
        new_basis = Basis.PLUS_MINUS
    else:
        new_couplings = {pair: 4.0 * v for pair, v in bm.couplings.items()}
        new_biases = 2.0 * bm.biases - 2.0 * neighbor_sum
        new_basis = Basis.ZERO_ONE

    return replace(bm, biases=new_biases, couplings=new_couplings, basis=new_basis)


# -- model files ------------------------------------------------------------


def model_to_dict(bm: BoltzmannMachine, metadata: dict | None = None) -> dict:
    doc = {
        "basis": bm.basis.value,
        "m_I": bm.num_visible_input,
        "m_O": bm.num_visible_output,
        "n": bm.num_hidden,
        **_terms_to_dict(bm),
        "h_max": bm.h_max,
        "j_max": bm.j_max,
    }
    if metadata:
        doc["metadata"] = metadata
    return doc


def model_from_dict(doc: dict) -> tuple[BoltzmannMachine, dict]:
    doc = _json(doc, "a model document", dict)
    bm = BoltzmannMachine(
        _json(doc.get("m_I", _MISSING), "m_I", int),
        _json(doc.get("m_O", _MISSING), "m_O", int),
        _json(doc.get("n", _MISSING), "n", int),
        *_terms_from_dict(doc),
        basis=Basis(_json(doc.get("basis", _MISSING), "basis", str)),
        h_max=_json(doc.get("h_max", 1.0), "h_max", int, float),
        j_max=_json(doc.get("j_max", 1.0), "j_max", int, float),
    )
    return bm, _json(doc.get("metadata", {}), "metadata", dict)


def _terms_to_dict(bm: BoltzmannMachine) -> dict:
    """The machine's ``biases`` and ``couplings`` ([k, l, v] per pair, in
    pair order) as JSON values. The one writer of a machine's terms, for
    model files and the remote client's requests."""
    return {
        "biases": [float(b) for b in bm.biases],
        "couplings": [[k, l, v] for (k, l), v in sorted(bm.couplings.items())],
    }


def _terms_from_dict(doc: dict) -> tuple[list, list]:
    """The biases and the ((k, l), v) coupling terms of ``doc``, each value
    checked by ``_json``; ``BoltzmannMachine`` checks the rest, so a pair
    given twice is refused there. The one reader of a machine's terms, for
    model files and the mock's requests."""
    biases = [_json(b, "a bias", int, float) for b in _json(doc.get("biases", _MISSING), "biases", list)]
    terms = (_json(term, "a coupling", list) for term in _json(doc.get("couplings", _MISSING), "couplings", list))
    return biases, [((_json(k, "index", int), _json(l, "index", int)), _json(v, "a value", int, float))
                    for k, l, v in terms]


@contextmanager
def _replacing(path: str | os.PathLike):
    """Text file on ``<path>.tmp`` (newlines untranslated), renamed over
    ``path`` once the block completes: no reader sees a half-written file.
    A block that raises leaves ``path`` as it was and removes the temporary."""
    tmp = f"{path}.tmp"
    try:
        with open(tmp, "w", newline="") as fh:
            yield fh
        os.replace(tmp, path)
    except BaseException:
        with suppress(FileNotFoundError):
            os.remove(tmp)
        raise


def _write_json(path: str | os.PathLike, doc: dict, indent: int | None = 1) -> None:
    """``doc`` as strict JSON and a newline, through ``_replacing``: a value
    that is not finite is a ValueError and one JSON cannot hold a TypeError,
    and either leaves ``path`` as it was. The one writer of JSON files."""
    with _replacing(path) as fh:
        json.dump(doc, fh, indent=indent, allow_nan=False)
        fh.write("\n")


# A required field's default in ``doc.get(key, _MISSING)``: ``_json`` names it
# missing, where a field given as null reads as None.
_MISSING = object()

# A refused value is written out to this many characters and an ellipsis.
_GOT_CHARS = 40


def _json(value, what: str, *kinds: type):
    """``value`` if ``json`` read it as one of ``kinds``, else a ValueError; a JSON
    boolean reads as bool, not int, and ``_MISSING`` is refused as missing. An
    integer read for a number (``int, float``) is returned as a float within float
    range, any other lies within int64. The one type and range check of every JSON
    value read; a list or object is named by its type, as a deep one cannot be
    dumped, and a long string or integer is cut short."""
    if type(value) not in kinds:
        if value is _MISSING:
            raise ValueError(f"{what} is missing")
        finite = "" if type(value) is not float or math.isfinite(value) else "finite "  # NaN, Infinity
        got = json.dumps(value) if isinstance(value, (str, int, float, type(None))) else type(value).__name__
        if len(got) > _GOT_CHARS:
            got = got[:_GOT_CHARS] + "..."
        raise ValueError(f"{what} must be {finite}JSON of type {'/'.join(k.__name__ for k in kinds)}, got {got}")
    number = float in kinds
    if type(value) is int and not (abs(value) <= sys.float_info.max if number else -2**63 <= value < 2**63):
        raise ValueError(f"{what} must lie within {'float' if number else 'int64'} range")
    return float(value) if number and type(value) is int else value


def _unique_keys(pairs: list) -> dict:
    """A JSON object's ``pairs`` as a dict; a key given twice is a ValueError."""
    doc = dict(pairs)
    if len(doc) < len(pairs):
        raise ValueError(f"repeated key {json.dumps(Counter(k for k, _ in pairs).most_common(1)[0][0])}")
    return doc


def _read_json(text: str | bytes, what: str) -> dict:
    """The JSON object ``text`` holds, else a ValueError: the parser's own for text
    that is not JSON or repeats a key, one naming ``what`` for a non-object or one
    nested past the recursion limit. ``NaN`` and ``Infinity`` parse, for the finite
    checks to refuse by name. The one JSON parser of files, configs and the wire."""
    try:
        doc = json.loads(text, object_pairs_hook=_unique_keys)
    except RecursionError as exc:
        raise ValueError(f"{what} nests too deeply to parse") from exc
    return _json(doc, what, dict)


def save_model(bm: BoltzmannMachine, path: str | os.PathLike, metadata: dict | None = None) -> None:
    _write_json(path, model_to_dict(bm, metadata))


def load_model(path: str | os.PathLike) -> BoltzmannMachine:
    return load_model_entry(path)[0]


def load_model_entry(path: str | os.PathLike) -> tuple[BoltzmannMachine, dict]:
    with open(path) as fh:
        return model_from_dict(_read_json(fh.read(), "a model document"))
