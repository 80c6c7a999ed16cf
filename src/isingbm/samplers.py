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

import functools
import json
import os
import sys
import threading
import urllib.parse
import weakref
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
    _MISSING,
    _check_probabilities,
    _json,
    _read_json,
    _row_indices,
    _state_rows,
    _terms_to_dict,
    _write_json,
    cached_state_table,
    convert_basis,
    state_matrix,
)

# Gibbs tabulates each site's field over chunks of at most this many nodes,
# one GEMM per chunk; lanes batched into one kernel run share chunks that hold
# at most 2^_TABLE_BITS states each (``_gibbs_run`` gives the memory).
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
        if not 0 < self.beta <= sys.float_info.max:  # NaN fails too; an int cannot overflow
            raise ValueError(f"beta must be finite and positive, got {self.beta}")
        if self.num_reads < 1:
            raise ValueError("num_reads must be >= 1")
        if self.burn_in < 0 or self.thinning < 1 or self.num_chains < 1:
            raise ValueError("invalid chain controls")
        if self.exhaustive and self.backend is not Backend.EXACT:
            raise ValueError(f"exhaustive draws need the exact backend, not {self.backend.value}")


@dataclass(frozen=True, eq=False)
class SampleSet:
    """Distinct drawn states with multiplicities (or exact weights).

    ``counts`` are positive integers summing to ``num_reads`` unless
    ``exhaustive`` is set, in which case they are the exact Boltzmann
    probabilities of every state. ``beta`` is the inverse temperature the
    backend reports or the caller assumes. Sets compare by identity: their
    fields hold arrays.
    """

    states: np.ndarray          # (K, N) in `basis`
    counts: np.ndarray          # (K,) int draws, or float weights if exhaustive
    beta: float
    num_reads: int
    backend_id: str
    basis: Basis = Basis.ZERO_ONE
    exhaustive: bool = False

    def __post_init__(self):
        if not 0 < self.beta <= sys.float_info.max:  # NaN fails too; an int cannot overflow
            raise ValueError(f"beta must be finite and positive, got {self.beta}")
        states = np.array(self.states)  # copies: freezing them leaves the caller's arrays alone
        if states.ndim != 2:
            raise ValueError("states must be a 2-D array")
        counts = np.array(self.counts, dtype=np.float64).reshape(-1)
        if counts.shape[0] != states.shape[0]:
            raise ValueError("one count per state required")
        if self.exhaustive:
            _check_probabilities(counts, "exhaustive weights")
        else:
            if not np.all(np.isfinite(counts)) or np.any(counts < 1) or np.any(counts != np.round(counts)):
                raise ValueError("counts must be finite positive integers")
            if int(counts.sum()) != self.num_reads:
                raise ValueError("counts must sum to num_reads")
        lo, hi = self.basis.symbols
        if not np.all((states == lo) | (states == hi)):  # before int8, which would wrap 257 to 1
            raise ValueError(f"state values not in basis {self.basis.value}")
        states = states.astype(np.int8, copy=False)
        index = np.sort(_row_indices(states))
        if np.any(index[1:] == index[:-1]):
            raise ValueError("states must be distinct")
        self._freeze(states, counts)

    @classmethod
    def _indexed(
        cls, index: np.ndarray, counts: np.ndarray, num_nodes: int, basis: Basis, beta: float, backend_id: str
    ) -> "SampleSet":
        """Unchecked constructor, for sets tallied here (``_tally``): distinct
        lexicographic state indices of ``num_nodes`` nodes with positive
        integer counts."""
        ss = cls.__new__(cls)
        for name, value in (("beta", beta), ("num_reads", int(counts.sum())), ("backend_id", backend_id),
                            ("basis", basis), ("exhaustive", False)):
            object.__setattr__(ss, name, value)
        ss._freeze(_state_rows(index, num_nodes, basis), counts.astype(np.float64))
        return ss

    def _freeze(self, states: np.ndarray, counts: np.ndarray) -> None:
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
        return SampleSet(state_matrix(n, bm.basis), probs, cfg.beta, 0, "exact/exhaustive", bm.basis, exhaustive=True)
    rng = np.random.default_rng(cfg.seed)
    draws = rng.choice(probs.shape[0], size=cfg.num_reads, p=probs)
    return _tally(draws, n, bm.basis, cfg.beta, "exact")


def _tally(
    index: np.ndarray, num_nodes: int, basis: Basis, beta: float, backend_id: str, weights: np.ndarray | None = None
) -> SampleSet:
    """Sample set of lexicographic state indices, each read once or ``weights``
    times (positive integers), equal indices merged; ``np.unique`` makes them
    distinct, so the set skips re-validation."""
    idx, inverse = np.unique(index, return_inverse=True)
    return SampleSet._indexed(idx, np.bincount(inverse, weights), num_nodes, basis, beta, backend_id)


def gibbs_sample(bm: BoltzmannMachine, cfg: SamplerConfig) -> SampleSet:
    """Single-site heat-bath sampling with a fixed sequential scan order.

    Each sweep visits sites 0..N-1 in order and resamples site k from its
    conditional: the site takes its upper symbol with probability
    sigmoid(-beta * dE_k), where dE_k is the energy change from the lower to
    the upper symbol given the current neighbors. Chains are initialized from
    fair coins, burned in, then thinned until the read quota is met. Every
    size runs the one kernel, ``_gibbs_arrays``, with one lane.
    """
    return _gibbs_lanes([bm], cfg, [cfg.seed])[0]


def _chunk_widths(n: int) -> list[int]:
    """Widths of ceil(n / _TABLE_BITS) chunks of n nodes, balanced, widest first."""
    c = max(1, -(-n // _TABLE_BITS))
    return [n // c + (i < n % c) for i in range(c)]


def _gibbs_lanes(
    machines: Sequence[BoltzmannMachine], cfg: SamplerConfig, seeds: Sequence[int]
) -> list[SampleSet]:
    """Machines of one basis, machine g seeded with ``seeds[g]``, drawn as the
    lanes of ``_gibbs_arrays`` in one group per node count: one set per
    machine."""
    sizes: dict[int, list[int]] = {}
    for i, bm in enumerate(machines):
        sizes.setdefault(bm.num_nodes, []).append(i)
    order = [i for members in sizes.values() for i in members]
    groups = [(np.stack([machines[i].coupling_matrix + machines[i].coupling_matrix.T for i in members]),
               np.stack([machines[i].biases for i in members])) for members in sizes.values()]
    out: list[SampleSet | None] = [None] * len(machines)
    for i, (index, count) in zip(order, _gibbs_arrays(groups, machines[0].basis, cfg, [seeds[i] for i in order])):
        out[i] = SampleSet._indexed(index, count, machines[i].num_nodes, machines[i].basis, cfg.beta,
                                    f"gibbs/chains={cfg.num_chains}")
    return out


def _gibbs_arrays(
    groups: Sequence[tuple[np.ndarray, np.ndarray]], basis: Basis, cfg: SamplerConfig, seeds: Sequence[int]
) -> list[tuple[np.ndarray, np.ndarray]]:
    """Gibbs under ``cfg`` for any number of lanes in one basis, given in
    groups (J_syms, biases) of one node count each: a group's lane g has the
    symmetric couplings ``J_syms[g]`` (or the one matrix every lane of the
    group shares) and the biases ``biases[g]``. Counted across the groups in
    order, lane i takes ``default_rng(seeds[i])`` as its start and stream,
    so it draws as such a machine alone. Returns each lane's distinct draws
    as (state index, count), index-sorted, in lane order.

    Lanes of one chunk (at most _TABLE_BITS nodes), of any node counts,
    share ``_gibbs_run`` calls in order: a run is cut where the sum of their
    2^n would pass 2^_TABLE_BITS. A group of several chunks runs on its own,
    2^(_TABLE_BITS - widest chunk) lanes at a time. A lane's stream yields
    the same values in any run, so its draws do not depend on the lanes
    beside it.
    """
    runs, room = [], 0  # room: the states left in the last run if it takes one-chunk lanes
    for J_syms, biases in groups:
        lanes, n = biases.shape
        w, a = _chunk_widths(n)[0], 0
        while a < lanes:
            if n > _TABLE_BITS or room < 1 << n:
                runs.append([])
                room = 1 << _TABLE_BITS
            b = min(lanes, a + (room >> w))
            runs[-1].append((J_syms if len(J_syms) == 1 else J_syms[a:b], biases[a:b]))
            room = 0 if n > _TABLE_BITS else room - ((b - a) << n)
            a = b
    out: list[tuple[np.ndarray, np.ndarray]] = []
    for run in runs:
        out += _gibbs_run(run, basis, cfg, seeds[len(out):len(out) + sum(len(biases) for _, biases in run)])
    return out


def _gibbs_run(
    groups: Sequence[tuple[np.ndarray, np.ndarray]], basis: Basis, cfg: SamplerConfig, seeds: Sequence[int]
) -> list[tuple[np.ndarray, np.ndarray]]:
    """One kernel run of ``_gibbs_arrays``, with its arguments and result:
    lanes of one chunk each, or one group of n nodes, whose chunks hold at
    most 2^_TABLE_BITS states together.

    A chain is one index per chunk of ``_chunk_widths(n)``, for the widest
    lane's n, and holds it doubled. With one chunk, lane g's chains hold
    off_g plus their index, where off_g is the sum of 2^n_h over the earlier
    lanes; a lane of fewer nodes is right-aligned, its nodes the last sites,
    and a site it lacks steps to itself. With several, off_g is g * 2^w in
    a chunk of w nodes. Chunk by chunk, site k gathers its table at the
    chain's doubled index (the table holds each entry at 2i and 2i + 1),
    compares v_k with it, adds the outcome and gathers the next doubled
    index from its steps, which hold the index with k's bit cleared at 2i
    and set at 2i + 1. The field -beta*dE_k is the sum over chunks d of
    G_d[k][x_d], built by one GEMM per chunk and matrix at each group's own
    width. With one chunk, G is mapped in place to the probability of the
    upper symbol and v_k is the uniform u_k. With several, the other chunks
    hold still in a chunk's pass and their fields are gathered at x_d >> 1
    once per pass: v_k is log u_k - log1p(-u_k) less those fields and the
    table is G_c[k], deciding alike unless u_k is within rounding of the
    probability. Only a chunk's own sites' tables are doubled. For c chunks
    of widest w holding S states each, the tables take at most
    8·n·(c + 3)·S bytes, the kept states 8·c bytes a read.
    """
    sizes = [biases.shape[1] for _, biases in groups for _ in biases]
    lanes, n = len(sizes), max(sizes)
    chains, per_chain = cfg.num_chains, -(-cfg.num_reads // cfg.num_chains)
    widths = _chunk_widths(n)
    ends = list(accumulate(widths))
    several = len(widths) > 1
    # each lane's width in each chunk (with one chunk, its own node count) and its first state there
    spans = [[w] * lanes for w in widths] if several else [sizes]
    offsets = [np.cumsum([0] + [1 << s for s in span]) for span in spans]
    # per chunk, its sites' doubled tables and the other sites' tables, then its sites' steps: all
    # tables before any steps kept a 70-node draw's peak RSS 10 MB lower
    own, rest = zip(*(_chunk_tables(groups, basis, cfg.beta, d, w, end, n, offs[-1], several)
                      for d, (w, end, offs) in enumerate(zip(widths, ends, offsets))))
    steps = [_chunk_steps(w, span, offs) for w, span, offs in zip(widths, spans, offsets)]
    rngs = [np.random.default_rng(seed) for seed in seeds]
    coins = np.zeros((lanes, chains, n), dtype=bool)
    for g, (rng, m) in enumerate(zip(rngs, sizes)):
        coins[g, :, n - m:] = rng.random((chains, m)) >= 0.5
    # each chain's doubled index in each chunk
    x = [((coins[:, :, end - w:end] @ (1 << np.arange(w - 1, -1, -1, dtype=np.int64)) + offs[:-1, None])
          << 1).reshape(-1) for w, end, offs in zip(widths, ends, offsets)]
    chunks = [(c, list(zip(steps[c], own[c])),
               [(rest[d][end - w - widths[d] * (d < c):end - widths[d] * (d < c)], d)
                for d in range(len(widths)) if d != c])
              for c, (w, end) in enumerate(zip(widths, ends))]
    kept = np.empty((per_chain, len(widths), lanes * chains), dtype=np.int64)
    slot, at = 0, cfg.burn_in + cfg.thinning - 1  # the next kept slot and its sweep
    for sweep, us in enumerate(_sweep_uniforms(rngs, sizes, cfg.burn_in + per_chain * cfg.thinning, widths, chains)):
        for (c, sites, others), v in zip(chunks, us):
            idx = x[c]
            if others:  # fixed during this chunk's pass
                for G, d in others:
                    v = v - G[:, x[d] >> 1]
            for (step_k, t_k), v_k in zip(sites, v):
                idx = step_k[idx + (v_k < t_k[idx])]
            x[c] = idx
        if sweep == at:
            for c, x_c in enumerate(x):
                kept[slot, c] = x_c
            slot, at = slot + 1, at + cfg.thinning
    kept >>= 1
    # chunk c is the index's bits from n - ends[c] up; one sort tallies every lane (an np.unique per lane
    # was slower: four clamped lanes 555 -> 575 us)
    draws = kept[:, 0] if n <= 62 else kept[:, 0].astype(object)
    for c, w in enumerate(widths[1:], 1):
        draws = (draws << w) + kept[:, c]
    reads = draws.reshape(per_chain, lanes, chains).transpose(1, 0, 2).reshape(lanes, -1)[:, :cfg.num_reads]
    if several:  # lane g's reads start at g * offset: move them to g * 2^n (int64 wraps, and wraps back)
        offset = sum(1 << (n - end + w) for w, end in zip(widths, ends))
        reads = reads - np.arange(lanes, dtype=draws.dtype)[:, None] * (offset - (1 << n))
        starts = [g << n for g in range(lanes)]
    else:
        starts = np.cumsum([0] + [1 << m for m in sizes[:-1]])
    keys, count = np.unique(reads, return_counts=True)
    bounds = [*np.searchsorted(keys, starts).tolist(), len(keys)]
    return [(keys[a:b] - s, count[a:b]) for s, a, b in zip(starts, bounds, bounds[1:])]


def _chunk_tables(
    groups: Sequence[tuple[np.ndarray, np.ndarray]], basis: Basis, beta: float, d: int, w: int, end: int,
    n: int, states: int, several: bool
) -> tuple[np.ndarray, np.ndarray]:
    """``_gibbs_run``'s field tables of chunk d, its w sites ending at
    ``end`` of n: those of its own sites, each entry at 2i and 2i + 1, and
    those of the other sites, by one GEMM per group and matrix. A group's
    lanes follow the earlier groups' lanes; with one chunk, the tables hold
    probabilities of the upper symbol, and a group of fewer nodes fills the
    last rows at its own width, leaving a zero field where it lacks a site."""
    lo, hi = basis.symbols
    blocks = []
    for J_syms, biases in groups:
        m = biases.shape[1]
        gw, ge = (w, end) if several else (m, m)
        # b_k joins chunk 0; J_sym's zero diagonal drops site k, and hi - lo = 1 or 2 scales exactly
        blocks.append(((-beta * (hi - lo)) * (
            np.stack([cached_state_table(gw, basis) @ J_sym[ge - gw:ge] for J_sym in J_syms])
            + (biases * (d == 0))[:, None, :])).transpose(2, 0, 1).reshape(m, len(biases) << gw))
    if len(blocks) == 1 and blocks[0].shape[0] == n:
        G = blocks[0]
    else:
        G = np.zeros((n, states))
        for block, a in zip(blocks, accumulate([0] + [block.shape[1] for block in blocks])):
            G[n - block.shape[0]:, a:a + block.shape[1]] = block
    if not several:
        # log-odds here too, a log and a log1p per uniform, made a 10-node, 50-chain draw 20-43 % slower
        np.exp(np.clip(np.negative(G, out=G), -500, 500, out=G), out=G)
        np.divide(1.0, np.add(G, 1.0, out=G), out=G)
    return np.repeat(G[end - w:end], 2, axis=1), np.concatenate([G[:end - w], G[end:]])


def _chunk_steps(w: int, span: Sequence[int], offs: np.ndarray) -> np.ndarray:
    """``_gibbs_run``'s steps in a chunk of w sites where lane g's states
    start at ``offs[g]`` and it has the last ``span[g]`` sites: site k's row
    takes 2i to 2·(i with k's bit cleared) and 2i + 1 to 2·(i with it set),
    and keeps i in a lane without site k."""
    states = np.diff(offs)
    start = np.repeat(offs[:-1], states)
    bits = np.arange(w - 1, -1, -1, dtype=np.int64)[:, None]
    local = np.arange(offs[-1], dtype=np.int64) - start
    flip = np.where(bits < np.repeat(span, states), 1 << bits, 0)
    step = np.empty((w, offs[-1], 2), dtype=np.int64)
    np.bitwise_and(local, ~flip, out=step[:, :, 0])
    np.bitwise_or(local, flip, out=step[:, :, 1])
    step += start[:, None]
    step <<= 1
    return step.reshape(w, 2 * offs[-1])


def _sweep_uniforms(
    rngs: Sequence[np.random.Generator], sizes: Sequence[int], sweeps: int, widths: Sequence[int], chains: int
):
    """Yield each sweep's (n, len(rngs) * chains) uniforms, one generator's
    chains after another's, in rows split by ``widths`` (log-odds if
    several); generator g fills the last ``sizes[g]`` rows, its lane's
    sites, and zeros lie above them. Drawn in blocks of whole sweeps, in the
    stream order of one ``rng.random(chains)`` per site."""
    n, ends = sum(widths), list(accumulate(widths))
    block = max(1, _UNIFORM_BLOCK // max(1, n * chains * len(rngs)))
    for start in range(0, sweeps, block):
        size = min(block, sweeps - start)
        u = np.zeros((size, n, len(rngs) * chains))
        for g, (rng, m) in enumerate(zip(rngs, sizes)):
            u[:, n - m:, g * chains:(g + 1) * chains] = rng.random((size, m, chains))
        if len(widths) > 1:
            with np.errstate(divide="ignore"):  # u = 0 has log-odds -inf
                u = np.log(u) - np.log1p(-u)
        yield from zip(*(u[:, end - w:end] for w, end in zip(widths, ends)))


# -- remote backend -----------------------------------------------------------

ENDPOINT_ENV_VAR = "ISINGBM_ENDPOINT"
SAMPLE_ROUTE = "/v1/sample"
_TIMEOUT_S = 60.0  # per socket operation: connect, send, each read


# This thread's keep-alive connection to a sampling service, as ``_post``
# keeps it: (scheme, host, port), the connection, the request target and the
# request headers.
_link = threading.local()


def _post(endpoint: str, body: bytes) -> tuple[int, bytes]:
    """POST ``body`` to the endpoint's sample route; return the reply's status
    and body.

    Each thread keeps one HTTP/1.1 connection open from one request to the
    next. It is replaced when the endpoint's scheme, host or port changes,
    and dropped after an exception, a status other than 200 or a reply that
    closes it. An idle socket that reads as readable has been closed by the
    peer, so it is reopened before sending. A request once sent is never sent
    again: whatever fails after it raises.
    """
    url = urllib.parse.urlsplit(endpoint)
    key = (url.scheme, url.hostname, url.port)
    link = getattr(_link, "current", None)
    if link is not None and (link[0] != key or _readable(link[1].sock)):
        _drop_link()
        link = None
    if link is None:
        link = _link.current = (key, *_open(url))
    _, conn, target, headers = link
    try:
        conn.sock.settimeout(_TIMEOUT_S)
        conn.request("POST", target, body, headers)
        reply = conn.getresponse()
        status, data = reply.status, reply.read()
    except BaseException:  # the exchange stopped part way: the connection is unusable
        _drop_link()
        raise
    if reply.will_close or status != 200:
        _drop_link()
    return status, data


def _open(url: urllib.parse.SplitResult) -> tuple:
    """A connection to ``url``'s host, through the proxy the environment
    names for it unless ``NO_PROXY`` covers the host, with its request target
    and headers.

    An http proxy gets the absolute-form target; https goes through a CONNECT
    tunnel. A request's head and body go out in one write (``_one_write``),
    and ``connect`` sets TCP_NODELAY, so a request does not wait for the
    peer's delayed ACK. The socket is closed when the connection is collected
    (as it is when its thread ends) or at the latest at interpreter exit.
    """
    import base64
    import http.client
    import urllib.request

    proxy = urllib.request.getproxies().get(url.scheme)
    if proxy and urllib.request.proxy_bypass(url.netloc):
        proxy = None
    cls = _one_write(http.client.HTTPSConnection if url.scheme == "https" else http.client.HTTPConnection)
    target = url.path.rstrip("/") + SAMPLE_ROUTE
    headers = {"Host": url.netloc, "Content-Type": "application/json"}
    if proxy is None:
        conn = cls(url.hostname, url.port, timeout=_TIMEOUT_S)
    else:
        proxy_url = urllib.parse.urlsplit(proxy if "://" in proxy else "//" + proxy)
        auth = {}
        if proxy_url.username is not None and proxy_url.password is not None:
            user_pass = f"{urllib.parse.unquote(proxy_url.username)}:{urllib.parse.unquote(proxy_url.password)}"
            auth["Proxy-Authorization"] = "Basic " + base64.b64encode(user_pass.encode()).decode("ascii")
        conn = cls(proxy_url.hostname, proxy_url.port, timeout=_TIMEOUT_S)
        if url.scheme == "https":
            conn.set_tunnel(url.hostname, url.port, headers=auth)
        else:
            target = f"http://{url.netloc}{target}"
            headers.update(auth)
    try:
        conn.connect()
    except BaseException:  # a failed TLS handshake or tunnel leaves a socket open
        conn.close()
        raise
    weakref.finalize(conn, conn.sock.close)
    return conn, target, headers


@functools.cache
def _one_write(base: type) -> type:
    """``base``, an ``http.client`` connection class, writing a request's
    head and body with one ``send``: ``endheaders`` holds the body back and
    ``send`` adds it to the head, the one write ``endheaders`` makes without
    a body. A CONNECT request, sent while no body is held, goes out as it
    is."""

    class OneWrite(base):
        _body = None

        def endheaders(self, message_body=None, **kwargs):
            self._body = message_body
            try:
                super().endheaders(**kwargs)
            finally:
                self._body = None

        def send(self, data):
            body, self._body = self._body, None
            super().send(data if body is None else data + body)

    return OneWrite


def _readable(sock) -> bool:
    """Whether the socket can be read without waiting."""
    import select

    if not hasattr(select, "poll"):  # Windows, where select() takes any socket
        return bool(select.select([sock], [], [], 0)[0])
    poller = select.poll()  # select() refuses descriptors past FD_SETSIZE (1024)
    poller.register(sock, select.POLLIN)
    return bool(poller.poll(0))


def _drop_link() -> None:
    """Close this thread's connection, if it has one."""
    link, _link.current = getattr(_link, "current", None), None
    if link is not None:
        link[1].close()


def remote_sample(
    bm: BoltzmannMachine, cfg: SamplerConfig, endpoint: str | None = None
) -> SampleSet:
    """Submit the machine to a sampling service and collect its reads.

    The wire format is fixed to the {-1,+1} basis, so the machine is converted
    on the way out and the returned states are mapped back. The service does
    not know the caller's temperature; the returned ``beta`` is whatever the
    caller assumed in ``cfg``. A machine with no nodes (a fully clamped
    subgraph) has one state; it gets every read without a request. Requests
    go over this thread's keep-alive connection (``_post``), and honour
    ``HTTP_PROXY``, ``HTTPS_PROXY`` and ``NO_PROXY`` as read when it opened.
    """
    # The HTTP stack loads here, not at import: only this backend uses it.
    import http.client

    endpoint = endpoint or cfg.endpoint or os.environ.get(ENDPOINT_ENV_VAR)
    if not endpoint:
        raise ValueError(f"no endpoint given and {ENDPOINT_ENV_VAR} is unset")
    if urllib.parse.urlsplit(endpoint).scheme not in ("http", "https"):
        raise ValueError(f"endpoint {endpoint!r} is not an http(s) URL")
    if bm.num_nodes == 0:
        return _tally(np.zeros(cfg.num_reads, dtype=np.int64), 0, bm.basis, cfg.beta, f"remote({endpoint})")

    wire_bm = bm if bm.basis is Basis.PLUS_MINUS else convert_basis(bm)
    payload = {"basis": Basis.PLUS_MINUS.value, **_terms_to_dict(wire_bm), "num_reads": cfg.num_reads}
    try:
        status, body = _post(endpoint, json.dumps(payload, allow_nan=False).encode())
    except (OSError, http.client.HTTPException) as exc:
        raise TransportError(f"sampling service unreachable: {endpoint.rstrip('/')}{SAMPLE_ROUTE}: {exc}") from exc
    text = body.decode("utf-8", "replace").strip()
    if status == 413:
        raise CapacityError(f"service rejected problem size: {text}")
    if status >= 500:
        raise TransportError(f"service error {status}: {text}")
    if status != 200:
        raise ProtocolError(f"unexpected status {status}: {text}")
    try:
        doc = _read_json(body, "the reply")
        samples = np.array([[_json(s, "a sample value", int) for s in _json(row, "a sample", list)]
                            for row in _json(doc.get("samples", _MISSING), "samples", list)], dtype=np.int64)
        counts = np.array([_json(c, "a count", int) for c in _json(doc.get("counts", _MISSING), "counts", list)],
                          np.int64)
        backend_id = _json(doc.get("backend_id", f"remote({endpoint})"), "backend_id", str)
    except ValueError as exc:
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
    return _tally(_row_indices(samples), bm.num_nodes, bm.basis, cfg.beta, backend_id, counts)


def draw_samples(bm: BoltzmannMachine, cfg: SamplerConfig) -> SampleSet:
    """Dispatch on the configured backend."""
    if cfg.backend is Backend.EXACT:
        return exact_sample(bm, cfg)
    if cfg.backend is Backend.GIBBS:
        return gibbs_sample(bm, cfg)
    return remote_sample(bm, cfg)


def draw_many(
    machines: Sequence[BoltzmannMachine], cfg: SamplerConfig, seeds: Sequence[int]
) -> list[SampleSet]:
    """``[draw_samples(bm, replace(cfg, seed=s)) for bm, s in zip(machines,
    seeds)]``, byte for byte, with the Gibbs draws batched: grouped by basis,
    each group's machines are the lanes of one ``_gibbs_lanes`` call, where
    machines of one chunk share kernel runs whatever their node counts.
    Exact and remote draws go through ``draw_samples`` in the given order, so
    a remote service sees the same requests in the same order.
    """
    if len(machines) != len(seeds):
        raise ValueError("one seed per machine required")
    if cfg.backend is not Backend.GIBBS:
        return [draw_samples(bm, replace(cfg, seed=s)) for bm, s in zip(machines, seeds)]
    out: list[SampleSet | None] = [None] * len(machines)
    groups: dict[Basis, list[int]] = {}
    for i, bm in enumerate(machines):
        groups.setdefault(bm.basis, []).append(i)
    for members in groups.values():
        for i, ss in zip(members, _gibbs_lanes([machines[i] for i in members], cfg, [seeds[i] for i in members])):
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
    return _tally(np.concatenate([_row_indices(s.states) for s in sets]), first.num_nodes, first.basis, first.beta,
                  first.backend_id, np.concatenate([s.counts for s in sets]))


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
    _write_json(path, doc, indent=None)


def load_sample_set(path: str | os.PathLike) -> SampleSet:
    with open(path) as fh:
        doc = _read_json(fh.read(), "a sample file")
    exhaustive = _json(doc.get("exhaustive", False), "exhaustive", bool)
    count_kinds = (int, float) if exhaustive else (int,)  # exhaustive counts are probabilities
    return SampleSet(
        states=np.array([[_json(b, "a state value", int) for b in _json(s, "a state", list)]
                         for s in _json(doc.get("states", _MISSING), "states", list)], dtype=np.int64),
        counts=np.array([_json(c, "a count", *count_kinds) for c in _json(doc.get("counts", _MISSING), "counts", list)],
                        dtype=np.float64),
        beta=_json(doc.get("beta", _MISSING), "beta", int, float),
        num_reads=_json(doc.get("num_reads", _MISSING), "num_reads", int),
        backend_id=_json(doc.get("backend_id", "file"), "backend_id", str),
        basis=Basis(_json(doc.get("basis", Basis.ZERO_ONE.value), "basis", str)),
        exhaustive=exhaustive,
    )
