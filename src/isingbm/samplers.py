"""Boltzmann sampling backends and the sample-set container.

Three backends produce the same currency, a ``SampleSet``:

* ``exact_sample``, the oracle, enumerates the Boltzmann table and draws
  i.i.d. states (or, in exhaustive mode, returns the whole table as weights).
* ``gibbs_sample`` runs single-site heat-bath sweeps, optionally over several
  independent chains with derived seeds; ``draw_many`` runs the chains of
  many small machines through one kernel.
* ``remote_sample`` talks HTTP to an annealer-style sampling service; a mock
  implementation ships in ``isingbm.mock_server``.

All backends are deterministic for a fixed (machine, config, seed).
"""

from __future__ import annotations

import json
import math
import os
import urllib.parse
from dataclasses import dataclass, replace
from enum import Enum
from typing import Sequence

import numpy as np

from .errors import CapacityError, ProtocolError, TransportError
from .metrics import Distribution, boltzmann_probabilities
from .model import (
    Basis,
    BoltzmannMachine,
    _replacing,
    _row_indices,
    _state_rows,
    cached_state_table,
    convert_basis,
    state_matrix,
)

# Gibbs tabulates every site's conditional for every state up to this many
# nodes: the probabilities (float64) and the next-state rows (two int64 per
# site) take about 24·n·2^n bytes: 5.5 MB at 14 nodes, 25 MB at 16. Machines
# batched by ``draw_many`` share one kernel of at most 2^_TABLE_BITS states.
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
        if not (math.isfinite(self.beta) and self.beta > 0):
            raise ValueError(f"beta must be finite and positive, got {self.beta}")
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


def exact_sample(bm: BoltzmannMachine, cfg: SamplerConfig) -> SampleSet:
    """Draw from the exact Boltzmann table computed by enumeration.

    With ``cfg.exhaustive`` the table itself is returned: every state appears
    once, weighted by its exact probability.
    """
    probs = boltzmann_probabilities(bm, cfg.beta)
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
    draws: np.ndarray, bm: BoltzmannMachine, cfg: SamplerConfig, backend_id: str,
    weights: np.ndarray | None = None,
) -> SampleSet:
    """Sample set of lexicographic state indices, each read once or ``weights`` times."""
    if weights is None:
        idx, counts = np.unique(draws, return_counts=True)
    else:
        idx, inverse = np.unique(draws, return_inverse=True)
        counts = np.bincount(inverse, weights=weights)
    return SampleSet(
        states=_state_rows(idx, bm.num_nodes, bm.basis),
        counts=counts,
        beta=cfg.beta,
        num_reads=int(counts.sum()),
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
    every conditional is read off a table built once per call
    (``_gibbs_lanes`` with one machine); past that the fields are computed
    from the chains' states. Both read the same uniforms in the same order,
    so they return the same draws.
    """
    n = bm.num_nodes
    if n <= _TABLE_BITS:
        return _gibbs_lanes([bm], [cfg])[0]
    chains = cfg.num_chains
    per_chain, total_sweeps, keep = _chain_plan(cfg)
    rng = np.random.default_rng(cfg.seed)
    lo, hi = bm.basis.symbols
    state = np.where(rng.random((chains, n)) >= 0.5, hi, lo).astype(np.float64)
    p_hi = _heat_bath(bm, cfg.beta)
    kept = np.empty((per_chain, chains, n), dtype=np.int8)
    for sweep, u in enumerate(_sweep_uniforms([rng], total_sweeps, n, chains)):
        for k, u_k in enumerate(u):
            state[:, k] = np.where(u_k < p_hi(state, k), hi, lo)
        if sweep in keep:
            kept[keep.index(sweep)] = state
    draws = _row_indices(kept.reshape(per_chain * chains, n)[: cfg.num_reads])
    return _index_sample_set(draws, bm, cfg, f"gibbs/chains={chains}")


def _gibbs_lanes(
    machines: Sequence[BoltzmannMachine], cfgs: Sequence[SamplerConfig]
) -> list[SampleSet]:
    """Table-path Gibbs for machines of one size and basis whose configs
    differ only in ``seed``, run as lanes of one kernel.

    Machine g's chains are the lanes g*C .. g*C + C - 1, each carried as the
    global index g * 2^n + idx into tables that put every machine's
    conditionals side by side, so the per-site numpy calls are shared. Each
    machine keeps its own ``default_rng(seed)`` start and uniform stream, so
    its draws are byte-identical to drawing it alone. The tables hold
    ``len(machines) * 2^n`` states; callers keep that within
    ``2^_TABLE_BITS``.
    """
    n, basis = machines[0].num_nodes, machines[0].basis
    chains = cfgs[0].num_chains
    per_chain, total_sweeps, keep = _chain_plan(cfgs[0])
    masks = 1 << np.arange(n - 1, -1, -1, dtype=np.int64)
    every = np.arange(len(machines) << n, dtype=np.int64)
    S = cached_state_table(n, basis)
    heat = [_heat_bath(bm, cfg.beta) for bm, cfg in zip(machines, cfgs)]
    tables = [
        (np.stack([every & ~m, every | m]), np.concatenate([p_hi(S, k) for p_hi in heat]))
        for k, m in enumerate(masks)
    ]
    rngs = [np.random.default_rng(cfg.seed) for cfg in cfgs]
    idx = np.concatenate([((rng.random((chains, n)) >= 0.5) @ masks) + (g << n) for g, rng in enumerate(rngs)])
    kept = np.empty((per_chain, idx.shape[0]), dtype=np.int64)
    for sweep, u in enumerate(_sweep_uniforms(rngs, total_sweeps, n, chains)):
        for (step_k, p_k), u_k in zip(tables, u):
            idx = step_k[(u_k < p_k[idx]).view(np.int8), idx]
        if sweep in keep:
            kept[keep.index(sweep)] = idx
    backend_id = f"gibbs/chains={chains}"
    return [
        _index_sample_set(
            kept[:, g * chains:(g + 1) * chains].reshape(-1)[: cfg.num_reads] - (g << n), bm, cfg, backend_id
        )
        for g, (bm, cfg) in enumerate(zip(machines, cfgs))
    ]


def _chain_plan(cfg: SamplerConfig) -> tuple[int, int, range]:
    """Reads per chain, sweeps per chain, and the sweeps whose states are kept."""
    per_chain = -(-cfg.num_reads // cfg.num_chains)  # ceil
    total_sweeps = cfg.burn_in + per_chain * cfg.thinning
    return per_chain, total_sweeps, range(cfg.burn_in + cfg.thinning - 1, total_sweeps, cfg.thinning)


def _heat_bath(bm: BoltzmannMachine, beta: float):
    """``p_hi(S, k)``: the probability that site k takes its upper symbol
    given each row of S."""
    lo, hi = bm.basis.symbols
    J_sym = bm.coupling_matrix + bm.coupling_matrix.T

    def p_hi(S: np.ndarray, k: int) -> np.ndarray:
        # dE = E(site=hi) - E(site=lo); J_sym has a zero diagonal, so the
        # site's own value drops out of the neighbor sum.
        d_e = (hi - lo) * (bm.biases[k] + S @ J_sym[:, k])
        return 1.0 / (1.0 + np.exp(np.clip(beta * d_e, -500, 500)))

    return p_hi


def _sweep_uniforms(rngs: Sequence[np.random.Generator], sweeps: int, n: int, chains: int):
    """Yield each sweep's (n, len(rngs) * chains) uniforms, one generator's
    chains after another's. Each generator's are drawn in blocks of whole
    sweeps, in the stream order of one ``rng.random(chains)`` per site."""
    block = max(1, _UNIFORM_BLOCK // max(1, n * chains * len(rngs)))
    for start in range(0, sweeps, block):
        size = (min(block, sweeps - start), n, chains)
        yield from np.concatenate([rng.random(size) for rng in rngs], axis=2)


# -- remote backend -----------------------------------------------------------

ENDPOINT_ENV_VAR = "ISINGBM_ENDPOINT"
SAMPLE_ROUTE = "/v1/sample"
_TIMEOUT_S = 60.0  # per socket operation: connect, send, each read


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
    # The HTTP stack loads here, not at import: only this backend uses it.
    import http.client
    import urllib.error
    import urllib.request

    endpoint = endpoint or cfg.endpoint or os.environ.get(ENDPOINT_ENV_VAR)
    if not endpoint:
        raise ValueError(f"no endpoint given and {ENDPOINT_ENV_VAR} is unset")
    if urllib.parse.urlsplit(endpoint).scheme not in ("http", "https"):
        raise ValueError(f"endpoint {endpoint!r} is not an http(s) URL")
    if bm.num_nodes == 0:
        return _index_sample_set(np.zeros(cfg.num_reads, dtype=np.int64), bm, cfg, f"remote({endpoint})")

    wire_bm = bm if bm.basis is Basis.PLUS_MINUS else convert_basis(bm)
    payload = {
        "basis": Basis.PLUS_MINUS.value,
        "biases": [float(b) for b in wire_bm.biases],
        "couplings": [[k, l, v] for (k, l), v in sorted(wire_bm.couplings.items())],
        "num_reads": cfg.num_reads,
    }
    # Proxies come from the environment, as for any urllib request.
    request = urllib.request.Request(
        endpoint.rstrip("/") + SAMPLE_ROUTE, data=json.dumps(payload, allow_nan=False).encode(),
        headers={"Content-Type": "application/json"},
    )
    try:
        try:
            reply = urllib.request.urlopen(request, timeout=_TIMEOUT_S)
        except urllib.error.HTTPError as exc:  # any status outside 2xx; read its body too
            reply = exc
        with reply:
            status, body = reply.status, reply.read()
    except (OSError, http.client.HTTPException) as exc:  # URLError is an OSError
        reason = getattr(exc, "reason", exc)
        raise TransportError(f"sampling service unreachable: {request.full_url}: {reason}") from exc
    text = body.decode("utf-8", "replace").strip()
    if status == 413:
        raise CapacityError(f"service rejected problem size: {text}")
    if status >= 500:
        raise TransportError(f"service error {status}: {text}")
    if status != 200:
        raise ProtocolError(f"unexpected status {status}: {text}")
    try:
        doc = json.loads(body)
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

    # Duplicate rows are merged, keeping the reported multiplicities.
    backend_id = str(doc.get("backend_id", f"remote({endpoint})"))
    return _index_sample_set(_row_indices(samples), bm, cfg, backend_id, counts)


def draw_samples(
    bm: BoltzmannMachine, cfg: SamplerConfig, endpoint: str | None = None
) -> SampleSet:
    """Dispatch on the configured backend."""
    if cfg.backend is Backend.EXACT:
        return exact_sample(bm, cfg)
    if cfg.backend is Backend.GIBBS:
        return gibbs_sample(bm, cfg)
    return remote_sample(bm, cfg, endpoint)


def draw_many(
    machines: Sequence[BoltzmannMachine], cfgs: Sequence[SamplerConfig]
) -> list[SampleSet]:
    """``[draw_samples(bm, cfg) for bm, cfg in zip(machines, cfgs)]``, with
    the table-path Gibbs draws batched.

    Gibbs draws on at most ``_TABLE_BITS`` nodes are grouped by node count,
    basis and config apart from ``seed``; each group runs through
    ``_gibbs_lanes`` in chunks of at most 2^``_TABLE_BITS`` tabulated states,
    with draws byte-identical to drawing each machine alone. Every other draw
    (exact, remote, larger Gibbs) goes through ``draw_samples`` in the given
    order, so a remote service sees the same requests in the same order.
    """
    if len(machines) != len(cfgs):
        raise ValueError("one config per machine required")
    out: list[SampleSet | None] = [None] * len(machines)
    groups: dict[tuple, list[int]] = {}
    for i, (bm, cfg) in enumerate(zip(machines, cfgs)):
        if cfg.backend is Backend.GIBBS and bm.num_nodes <= _TABLE_BITS:
            groups.setdefault((bm.num_nodes, bm.basis, replace(cfg, seed=0)), []).append(i)
        else:
            out[i] = draw_samples(bm, cfg)
    for (n, _, _), members in groups.items():
        size = 1 << (_TABLE_BITS - n)
        for start in range(0, len(members), size):
            chunk = members[start:start + size]
            sets = _gibbs_lanes([machines[i] for i in chunk], [cfgs[i] for i in chunk])
            for i, ss in zip(chunk, sets):
                out[i] = ss
    return out


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
    index, inverse = np.unique(
        np.concatenate([_row_indices(s.states) for s in sets]), return_inverse=True
    )
    counts = np.bincount(inverse, weights=np.concatenate([s.counts for s in sets]))
    return SampleSet(
        states=_state_rows(index, first.num_nodes, first.basis),
        counts=counts,
        beta=first.beta,
        num_reads=int(counts.sum()),
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
    with _replacing(path) as fh:
        json.dump(doc, fh)
        fh.write("\n")


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
