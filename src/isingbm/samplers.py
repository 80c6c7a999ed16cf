"""Boltzmann sampling backends and the sample-set container.

Three backends produce the same currency, a ``SampleSet``:

* ``exact_sample``, the oracle, enumerates the Boltzmann table and draws
  i.i.d. states (or, in exhaustive mode, returns the whole table as weights).
* ``gibbs_sample`` runs single-site heat-bath sweeps, optionally over several
  independent chains with derived seeds.
* ``remote_sample`` talks HTTP to an annealer-style sampling service; a mock
  implementation ships in ``isingbm.mock_server``.

All backends are deterministic for a fixed (machine, config, seed).
"""

from __future__ import annotations

import json
import os
from dataclasses import dataclass
from enum import Enum
from typing import Sequence

import numpy as np
import requests

from .errors import CapacityError, ProtocolError, TransportError
from .metrics import Distribution, boltzmann_probabilities
from .model import (
    ENUMERATION_CAP,
    Basis,
    BoltzmannMachine,
    _row_indices,
    _state_rows,
    cached_state_table,
    convert_basis,
    state_matrix,
)

# Gibbs tabulates every site's conditional for every state up to this many
# nodes: the probabilities (float64) and the next-state rows (two int64 per
# site) take about 24·n·2^n bytes: 5.5 MB at 14 nodes, 25 MB at 16.
# Larger machines compute each site's field from the chains' states.
_TABLE_BITS = 14
# Gibbs draws its uniforms about this many at a time (512 KB), in whole sweeps.
_UNIFORM_BLOCK = 1 << 16


class Backend(str, Enum):
    EXACT = "exact"
    GIBBS = "gibbs"
    REMOTE = "remote"


@dataclass(frozen=True)
class SamplerConfig:
    """How to draw: assumed inverse temperature, read count, chain controls."""

    beta: float = 1.0
    num_reads: int = 1000
    burn_in: int = 1000          # sweeps discarded per chain (Gibbs)
    thinning: int = 10           # keep every thinning-th sweep (Gibbs)
    seed: int = 0
    backend: Backend = Backend.EXACT
    exhaustive: bool = False     # exact backend: return the full table as weights
    num_chains: int = 1          # Gibbs chains run in parallel with derived seeds
    endpoint: str | None = None  # remote backend; falls back to $ISINGBM_ENDPOINT

    def __post_init__(self):
        if self.beta <= 0:
            raise ValueError("beta must be positive")
        if self.num_reads < 1:
            raise ValueError("num_reads must be >= 1")
        if self.burn_in < 0 or self.thinning < 1 or self.num_chains < 1:
            raise ValueError("invalid chain controls")


@dataclass(frozen=True)
class SampleSet:
    """Distinct drawn states with multiplicities (or exact weights).

    ``counts`` are positive integers summing to ``num_reads`` unless
    ``exhaustive`` is set, in which case they are the exact Boltzmann
    probabilities of every state. ``beta`` is the inverse temperature the
    backend reports or the caller assumes.
    """

    states: np.ndarray          # (K, N) in `basis`
    counts: np.ndarray          # (K,) int draws, or float weights if exhaustive
    beta: float
    num_reads: int
    backend_id: str
    basis: Basis = Basis.ZERO_ONE
    exhaustive: bool = False

    def __post_init__(self):
        states = np.asarray(self.states, dtype=np.int8)
        if states.ndim != 2:
            raise ValueError("states must be a 2-D array")
        counts = np.asarray(self.counts, dtype=np.float64).reshape(-1)
        if counts.shape[0] != states.shape[0]:
            raise ValueError("one count per state required")
        if self.exhaustive:
            if np.any(counts < 0) or abs(counts.sum() - 1.0) > 1e-9:
                raise ValueError("exhaustive weights must be a probability vector")
        else:
            if np.any(counts < 1) or np.any(counts != np.round(counts)):
                raise ValueError("counts must be positive integers")
            if int(counts.sum()) != self.num_reads:
                raise ValueError("counts must sum to num_reads")
        lo, hi = self.basis.symbols
        if not np.all((states == lo) | (states == hi)):
            raise ValueError(f"state values not in basis {self.basis.value}")
        index = np.sort(_row_indices(states))
        if np.any(index[1:] == index[:-1]):
            raise ValueError("states must be distinct")
        states.flags.writeable = False
        counts.flags.writeable = False
        object.__setattr__(self, "states", states)
        object.__setattr__(self, "counts", counts)

    @property
    def num_nodes(self) -> int:
        return self.states.shape[1]


def _compress(raw_states: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Collapse repeated rows into (distinct states, counts)."""
    return np.unique(np.asarray(raw_states, dtype=np.int8), axis=0, return_counts=True)


def exact_sample(
    bm: BoltzmannMachine, cfg: SamplerConfig, cap: int = ENUMERATION_CAP
) -> SampleSet:
    """Draw from the exact Boltzmann table computed by enumeration.

    With ``cfg.exhaustive`` the table itself is returned: every state appears
    once, weighted by its exact probability.
    """
    probs = boltzmann_probabilities(bm, cfg.beta, cap)
    n = bm.num_nodes
    if cfg.exhaustive:
        states = state_matrix(n, bm.basis)
        return SampleSet(
            states=states,
            counts=probs,
            beta=cfg.beta,
            num_reads=0,
            backend_id="exact/exhaustive",
            basis=bm.basis,
            exhaustive=True,
        )
    rng = np.random.default_rng(cfg.seed)
    draws = rng.choice(probs.shape[0], size=cfg.num_reads, p=probs)
    return _index_sample_set(draws, bm, cfg, "exact")


def _index_sample_set(
    draws: np.ndarray, bm: BoltzmannMachine, cfg: SamplerConfig, backend_id: str
) -> SampleSet:
    """Sample set of ``cfg.num_reads`` lexicographic state indices."""
    idx, counts = np.unique(draws, return_counts=True)
    return SampleSet(
        states=_state_rows(idx, bm.num_nodes, bm.basis),
        counts=counts,
        beta=cfg.beta,
        num_reads=cfg.num_reads,
        backend_id=backend_id,
        basis=bm.basis,
    )


def gibbs_sample(bm: BoltzmannMachine, cfg: SamplerConfig) -> SampleSet:
    """Single-site heat-bath sampling with a fixed sequential scan order.

    Each sweep visits sites 0..N-1 in order and resamples site k from its
    conditional: the site takes its upper symbol with probability
    sigmoid(-beta * dE_k), where dE_k is the energy change from the lower to
    the upper symbol given the current neighbors. Chains are initialized from
    fair coins, burned in, then thinned until the read quota is met.

    Up to ``_TABLE_BITS`` nodes each chain is carried as its state index and
    every conditional is read off a table built once per call; past that the
    fields are computed from the chains' states. Both read the same uniforms
    in the same order, so they return the same draws.
    """
    n = bm.num_nodes
    chains = cfg.num_chains
    per_chain = -(-cfg.num_reads // chains)  # ceil
    total_sweeps = cfg.burn_in + per_chain * cfg.thinning
    keep = range(cfg.burn_in + cfg.thinning - 1, total_sweeps, cfg.thinning)

    rng = np.random.default_rng(cfg.seed)
    start_hi = rng.random((chains, n)) >= 0.5
    sweeps = enumerate(_sweep_uniforms(rng, total_sweeps, n, chains))
    backend_id = f"gibbs/chains={chains}"

    lo, hi = bm.basis.symbols
    J = bm.coupling_matrix
    J_sym = J + J.T

    def p_hi(S: np.ndarray, k: int) -> np.ndarray:
        """Probability that site k takes its upper symbol given each row of S."""
        # dE = E(site=hi) - E(site=lo); J_sym has a zero diagonal, so the
        # site's own value drops out of the neighbor sum.
        d_e = (hi - lo) * (bm.biases[k] + S @ J_sym[:, k])
        return 1.0 / (1.0 + np.exp(np.clip(cfg.beta * d_e, -500, 500)))

    if n <= _TABLE_BITS:
        masks = 1 << np.arange(n - 1, -1, -1, dtype=np.int64)
        every = np.arange(1 << n, dtype=np.int64)
        S = cached_state_table(n, bm.basis)
        tables = [
            (np.stack([every & ~m, every | m]), p_hi(S, k))
            for k, m in enumerate(masks)
        ]
        idx = start_hi @ masks
        kept = np.empty((per_chain, chains), dtype=np.int64)
        for sweep, u in sweeps:
            for (step_k, p_k), u_k in zip(tables, u):
                idx = step_k[(u_k < p_k[idx]).view(np.int8), idx]
            if sweep in keep:
                kept[keep.index(sweep)] = idx
        return _index_sample_set(kept.reshape(-1)[: cfg.num_reads], bm, cfg, backend_id)

    state = np.where(start_hi, hi, lo).astype(np.float64)
    kept = np.empty((per_chain, chains, n), dtype=np.int8)
    for sweep, u in sweeps:
        for k, u_k in enumerate(u):
            state[:, k] = np.where(u_k < p_hi(state, k), hi, lo)
        if sweep in keep:
            kept[keep.index(sweep)] = state
    states, counts = _compress(kept.reshape(per_chain * chains, n)[: cfg.num_reads])
    return SampleSet(
        states=states,
        counts=counts,
        beta=cfg.beta,
        num_reads=cfg.num_reads,
        backend_id=backend_id,
        basis=bm.basis,
    )


def _sweep_uniforms(rng: np.random.Generator, sweeps: int, n: int, chains: int):
    """Yield each sweep's (n, chains) uniforms. They are drawn in blocks of
    whole sweeps, in the stream order of one ``rng.random(chains)`` per site."""
    block = max(1, _UNIFORM_BLOCK // max(1, n * chains))
    for start in range(0, sweeps, block):
        yield from rng.random((min(block, sweeps - start), n, chains))


# -- remote backend -----------------------------------------------------------

ENDPOINT_ENV_VAR = "ISINGBM_ENDPOINT"
SAMPLE_ROUTE = "/v1/sample"


def remote_sample(
    bm: BoltzmannMachine, cfg: SamplerConfig, endpoint: str | None = None
) -> SampleSet:
    """Submit the machine to a sampling service and collect its reads.

    The wire format is fixed to the {-1,+1} basis, so the machine is converted
    on the way out and the returned states are mapped back. The service does
    not know the caller's temperature; the returned ``beta`` is whatever the
    caller assumed in ``cfg``. A machine with no nodes (a fully clamped
    subgraph) has one state; it gets every read without a request.
    """
    endpoint = endpoint or cfg.endpoint or os.environ.get(ENDPOINT_ENV_VAR)
    if not endpoint:
        raise ValueError(f"no endpoint given and {ENDPOINT_ENV_VAR} is unset")
    if bm.num_nodes == 0:
        return _index_sample_set(np.zeros(cfg.num_reads, dtype=np.int64), bm, cfg, f"remote({endpoint})")

    wire_bm = bm if bm.basis is Basis.PLUS_MINUS else convert_basis(bm)
    payload = {
        "basis": Basis.PLUS_MINUS.value,
        "biases": [float(b) for b in wire_bm.biases],
        "couplings": [[k, l, v] for (k, l), v in sorted(wire_bm.couplings.items())],
        "num_reads": cfg.num_reads,
    }
    url = endpoint.rstrip("/") + SAMPLE_ROUTE
    try:
        resp = requests.post(url, json=payload, timeout=60)
    except (requests.ConnectionError, requests.Timeout) as exc:
        raise TransportError(f"sampling service unreachable: {exc}") from exc

    if resp.status_code == 413:
        raise CapacityError(f"service rejected problem size: {resp.text.strip()}")
    if resp.status_code >= 500:
        raise TransportError(f"service error {resp.status_code}: {resp.text.strip()}")
    if resp.status_code != 200:
        raise ProtocolError(f"unexpected status {resp.status_code}: {resp.text.strip()}")
    try:
        doc = resp.json()
        samples = np.asarray(doc["samples"], dtype=np.int64)
        counts = np.asarray(doc["counts"], dtype=np.int64)
    except (ValueError, KeyError, TypeError) as exc:
        raise ProtocolError(f"malformed response: {exc}") from exc

    if samples.ndim != 2 or samples.shape[1] != bm.num_nodes:
        raise ProtocolError(
            f"samples have shape {samples.shape}, expected (*, {bm.num_nodes})"
        )
    if counts.shape != (samples.shape[0],) or np.any(counts < 1):
        raise ProtocolError("counts must be positive and match the sample rows")
    if not np.all(np.isin(samples, (-1, 1))):
        raise ProtocolError("sample values must be -1/+1")

    if bm.basis is Basis.ZERO_ONE:
        samples = (samples + 1) // 2
    # Merge duplicate rows while preserving the reported multiplicities.
    uniq, inverse = np.unique(samples.astype(np.int8), axis=0, return_inverse=True)
    merged = np.bincount(inverse, weights=counts.astype(np.float64)).astype(np.int64)
    return SampleSet(
        states=uniq,
        counts=merged,
        beta=cfg.beta,
        num_reads=int(merged.sum()),
        backend_id=str(doc.get("backend_id", f"remote({endpoint})")),
        basis=bm.basis,
    )


def draw_samples(
    bm: BoltzmannMachine, cfg: SamplerConfig, endpoint: str | None = None
) -> SampleSet:
    """Dispatch on the configured backend."""
    if cfg.backend is Backend.EXACT:
        return exact_sample(bm, cfg)
    if cfg.backend is Backend.GIBBS:
        return gibbs_sample(bm, cfg)
    return remote_sample(bm, cfg, endpoint)


# -- derived quantities ---------------------------------------------------------


def empirical_distribution(
    ss: SampleSet, projection: Sequence[int] | None = None
) -> Distribution:
    """Normalized counts over (optionally projected) states; unseen states are
    implicitly zero."""
    if projection is None:
        projection = range(ss.num_nodes)
    proj = [int(k) for k in projection]
    if any(not 0 <= k < ss.num_nodes for k in proj):
        raise ValueError("projection indices out of range")
    index, inverse = np.unique(_row_indices(ss.states[:, proj]), return_inverse=True)
    agg = np.bincount(inverse.reshape(-1), weights=ss.counts)
    return Distribution._indexed(agg / agg.sum(), len(proj), ss.basis, index)


def merge_sample_sets(sets: Sequence[SampleSet]) -> SampleSet:
    """Combine draws from independent chains; order-insensitive."""
    if not sets:
        raise ValueError("nothing to merge")
    first = sets[0]
    if any(s.exhaustive for s in sets):
        raise ValueError("exhaustive sample sets cannot be merged")
    if any(s.basis is not first.basis or s.num_nodes != first.num_nodes for s in sets):
        raise ValueError("sample sets disagree on basis or node count")
    agg: dict[tuple[int, ...], int] = {}
    for s in sets:
        for state, count in zip(s.states, s.counts):
            key = tuple(int(b) for b in state)
            agg[key] = agg.get(key, 0) + int(count)
    keys = sorted(agg)
    return SampleSet(
        states=np.array(keys, dtype=np.int8),
        counts=np.array([agg[k] for k in keys]),
        beta=first.beta,
        num_reads=int(sum(agg.values())),
        backend_id=first.backend_id,
        basis=first.basis,
    )


# -- files ----------------------------------------------------------------------


def save_sample_set(ss: SampleSet, path: str | os.PathLike) -> None:
    doc = {
        "beta": ss.beta,
        "num_reads": ss.num_reads,
        "states": [[int(b) for b in s] for s in ss.states],
        "counts": [float(c) if ss.exhaustive else int(c) for c in ss.counts],
        "backend_id": ss.backend_id,
        "basis": ss.basis.value,
        "exhaustive": ss.exhaustive,
    }
    tmp = f"{path}.tmp"
    with open(tmp, "w") as fh:
        json.dump(doc, fh)
        fh.write("\n")
    os.replace(tmp, path)


def load_sample_set(path: str | os.PathLike) -> SampleSet:
    with open(path) as fh:
        doc = json.load(fh)
    return SampleSet(
        states=np.asarray(doc["states"], dtype=np.int8),
        counts=np.asarray(doc["counts"], dtype=np.float64),
        beta=float(doc["beta"]),
        num_reads=int(doc["num_reads"]),
        backend_id=str(doc.get("backend_id", "file")),
        basis=Basis(doc.get("basis", Basis.ZERO_ONE.value)),
        exhaustive=bool(doc.get("exhaustive", False)),
    )
