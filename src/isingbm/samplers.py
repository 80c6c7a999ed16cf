"""Boltzmann sampling backends and the sample-set container.

Three backends produce the same currency, a ``SampleSet``:

* ``exact_sample``, the oracle, enumerates the Boltzmann table and draws
  i.i.d. states (or, in exhaustive mode, returns the whole table as weights).
* ``gibbs_sample`` runs single-site heat-bath sweeps, optionally over several
  independent chains with derived seeds; ``draw_many`` runs the chains of
  many machines through one kernel.
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
from itertools import accumulate
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

# Gibbs tabulates each site's conditional over chunks of at most this many
# nodes; machines batched by ``draw_many`` share a kernel whose chunks hold at
# most 2^_TABLE_BITS states each (``_gibbs_lanes`` gives the memory).
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
    fair coins, burned in, then thinned until the read quota is met. Every
    size runs the one kernel, ``_gibbs_lanes`` with one machine.
    """
    return _gibbs_lanes([bm], [cfg])[0]


def _chunk_widths(n: int) -> list[int]:
    """Widths of ceil(n / _TABLE_BITS) chunks of n nodes, balanced, widest first."""
    c = max(1, -(-n // _TABLE_BITS))
    return [n // c + (i < n % c) for i in range(c)]


def _gibbs_lanes(
    machines: Sequence[BoltzmannMachine], cfgs: Sequence[SamplerConfig]
) -> list[SampleSet]:
    """Gibbs for machines of one size and basis whose configs differ only in
    ``seed``, run as lanes of one kernel; each machine keeps its own
    ``default_rng(seed)`` start and stream, so it draws as it would alone.

    A chain is one index per chunk of ``_chunk_widths(n)``: in a chunk of w
    nodes, machine g's lanes hold g * 2^w plus the index of the chunk's
    nodes. Chunk by chunk, site k compares v_k with its table at the chunk's
    index and steps that index to k's bit set or cleared. With one chunk the
    table is the probability of the upper symbol and v_k the uniform u_k.
    With several, the field -beta*dE_k is the sum over chunks d of
    G_d[k][x_d] (one GEMM per chunk); the other chunks hold still in a
    chunk's pass, so v_k is log u_k - log1p(-u_k) less their fields and the
    table is G_c[k], deciding alike unless u_k is within rounding of the
    probability. For L machines and c chunks of widest w the tables take at
    most 8·n·(c + 2)·L·2^w bytes (24·n·2^n for one chunk: 5.5 MB at 14
    nodes), the kept states 8·c bytes a read; callers keep L·2^w within
    2^_TABLE_BITS.
    """
    n, basis, cfg0 = machines[0].num_nodes, machines[0].basis, cfgs[0]
    lo, hi = basis.symbols
    chains, per_chain = cfg0.num_chains, -(-cfg0.num_reads // cfg0.num_chains)
    keep = range(cfg0.burn_in + cfg0.thinning - 1, cfg0.burn_in + per_chain * cfg0.thinning, cfg0.thinning)
    widths = _chunk_widths(n)
    ends = list(accumulate(widths))
    J_syms = [bm.coupling_matrix + bm.coupling_matrix.T for bm in machines]
    if len(widths) == 1:
        S, P = cached_state_table(n, basis), np.empty((n, len(machines) << n))
        for g, (bm, cfg, J_sym) in enumerate(zip(machines, cfgs, J_syms)):
            # 1 / (1 + exp(clip(beta * dE))) in place, dE = (hi - lo) * (b_k + S @ J_sym[:, k]);
            # J_sym's zero diagonal drops site k, and hi - lo = 1 or 2 scales exactly
            p = P[:, g << n:(g + 1) << n]
            for k in range(n):
                np.matmul(S, J_sym[:, k], out=p[k])
            p += bm.biases[:, None]
            p *= cfg.beta * (hi - lo)
            np.exp(np.clip(p, -500, 500, out=p), out=p)
            np.divide(1.0, np.add(p, 1.0, out=p), out=p)
        tables = [[P]]
    else:
        fields = [np.concatenate([
            (-cfg.beta * (hi - lo)) * (cached_state_table(w, basis) @ J_sym[end - w:end] + bm.biases * (d == 0)).T
            for bm, cfg, J_sym in zip(machines, cfgs, J_syms)
        ], axis=1) for d, (w, end) in enumerate(zip(widths, ends))]
        tables = [[G[end - w:end] for G in fields] for w, end in zip(widths, ends)]
    rngs = [np.random.default_rng(cfg.seed) for cfg in cfgs]
    coins = [rng.random((chains, n)) >= 0.5 for rng in rngs]
    x, chunks = [], []  # each chunk's lane indices; its sites and the other chunks' fields
    for c, (w, end) in enumerate(zip(widths, ends)):
        masks = 1 << np.arange(w - 1, -1, -1, dtype=np.int64)
        every = np.arange(len(machines) << w, dtype=np.int64)
        x.append(np.concatenate([(coin[:, end - w:end] @ masks) + (g << w) for g, coin in enumerate(coins)]))
        sites = [(np.stack([every & ~m, every | m]), t_k) for m, t_k in zip(masks, tables[c][c])]
        chunks.append((c, sites, [(G, d) for d, G in enumerate(tables[c]) if d != c]))
    kept = np.empty((per_chain, len(x), x[0].shape[0]), dtype=np.int64 if n <= 62 else object)
    for sweep, us in enumerate(_sweep_uniforms(rngs, keep.stop, widths, chains)):
        for (c, sites, others), v in zip(chunks, us):
            idx = x[c]
            for G, d in others:
                v = v - G[:, x[d]]
            for (step_k, t_k), v_k in zip(sites, v):
                idx = step_k[(v_k < t_k[idx]).view(np.int8), idx]
            x[c] = idx
        if sweep in keep:
            kept[keep.index(sweep)] = x
    # chunk c is the index's bits from n - ends[c] up; lane offsets add alike
    draws = kept[:, 0]
    for c, w in enumerate(widths[1:], 1):
        draws = (draws << w) + kept[:, c]
    offset = sum(1 << (n - end + w) for w, end in zip(widths, ends))
    return [
        _index_sample_set(draws[:, g * chains:(g + 1) * chains].reshape(-1)[: cfg.num_reads] - g * offset,
                          bm, cfg, f"gibbs/chains={chains}")
        for g, (bm, cfg) in enumerate(zip(machines, cfgs))
    ]


def _sweep_uniforms(rngs: Sequence[np.random.Generator], sweeps: int, widths: Sequence[int], chains: int):
    """Yield each sweep's (n, len(rngs) * chains) uniforms, one generator's chains
    after another's, in rows split by ``widths`` (log-odds if several); drawn in
    blocks of whole sweeps, in the stream order of one ``rng.random(chains)`` per site."""
    n, ends = sum(widths), list(accumulate(widths))
    block = max(1, _UNIFORM_BLOCK // max(1, n * chains * len(rngs)))
    for start in range(0, sweeps, block):
        size = (min(block, sweeps - start), n, chains)
        u = np.concatenate([rng.random(size) for rng in rngs], axis=2)
        if len(widths) > 1:
            with np.errstate(divide="ignore"):  # u = 0 has log-odds -inf
                u = np.log(u) - np.log1p(-u)
        yield from zip(*(u[:, end - w:end] for w, end in zip(widths, ends)))


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
    """``[draw_samples(bm, cfg) for bm, cfg in zip(machines, cfgs)]``, byte
    for byte, with the Gibbs draws batched: grouped by node count, basis and
    config apart from ``seed``, each group runs through ``_gibbs_lanes`` in
    runs of 2^(_TABLE_BITS - w) machines, w the widest of ``_chunk_widths(n)``.
    Exact and remote draws go through ``draw_samples`` in the given order, so
    a remote service sees the same requests in the same order.
    """
    if len(machines) != len(cfgs):
        raise ValueError("one config per machine required")
    out: list[SampleSet | None] = [None] * len(machines)
    groups: dict[tuple, list[int]] = {}
    for i, (bm, cfg) in enumerate(zip(machines, cfgs)):
        if cfg.backend is Backend.GIBBS:
            groups.setdefault((bm.num_nodes, bm.basis, replace(cfg, seed=0)), []).append(i)
        else:
            out[i] = draw_samples(bm, cfg)
    for (n, _, _), members in groups.items():
        size = 1 << (_TABLE_BITS - _chunk_widths(n)[0])
        for start in range(0, len(members), size):
            run = members[start:start + size]
            for i, ss in zip(run, _gibbs_lanes([machines[i] for i in run], [cfgs[i] for i in run])):
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
