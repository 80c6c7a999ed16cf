"""In-process HTTP stand-in for a remote annealer sampling service.

Implements the wire protocol of ``samplers.remote_sample``: POST /v1/sample
with {basis, biases, couplings, num_reads} returns {samples, counts,
energies}. Sampling is backed by exact enumeration, so small problems come
back Boltzmann-distributed at the server's configured temperature: each
request is answered by ``samplers.exact_sample``.

The optional ``beta_drift`` knob lowers the effective inverse temperature as
problems grow (beta / (1 + drift * nodes)). This is a synthetic shape, not a
hardware model: it exists so that temperature-estimation pipelines can be
exercised against a service whose beta visibly depends on problem size.
"""

from __future__ import annotations

import json
import math
import threading
from http.server import BaseHTTPRequestHandler, ThreadingHTTPServer

import numpy as np

from .model import Basis, BoltzmannMachine, _row_indices, all_energies
from .samplers import SAMPLE_ROUTE, SamplerConfig, exact_sample

# A request body is bounded by what the node limit allows: every bias and every
# coupling triple of a complete graph, each in at most this many bytes of JSON
# (a float's repr takes at most 24), plus the rest of the document.
_BYTES_PER_TERM = 64
_BODY_OVERHEAD = 4096


class MockAnnealerServer:
    """Threaded HTTP server; use as a context manager or start()/stop()."""

    def __init__(
        self,
        host: str = "127.0.0.1",
        port: int = 0,
        beta: float = 3.0,
        beta_drift: float = 0.0,
        seed: int = 0,
        max_nodes: int = 20,
    ):
        # every request samples at beta / (1 + drift * nodes): refused here, not per request
        SamplerConfig(beta=beta)
        if not (math.isfinite(beta_drift) and beta_drift >= 0):
            raise ValueError(f"beta_drift must be finite and nonnegative, got {beta_drift}")
        self.beta = beta
        self.beta_drift = beta_drift
        self.seed = seed
        self.max_nodes = max_nodes
        self._max_body = _BODY_OVERHEAD + _BYTES_PER_TERM * (max_nodes + max_nodes * (max_nodes - 1) // 2)
        self._request_counter = 0
        self._lock = threading.Lock()
        self._httpd = ThreadingHTTPServer((host, port), _make_handler(self))
        self._thread: threading.Thread | None = None

    @property
    def url(self) -> str:
        host, port = self._httpd.server_address[:2]
        return f"http://{host}:{port}"

    def effective_beta(self, num_nodes: int) -> float:
        return self.beta / (1.0 + self.beta_drift * num_nodes)

    def next_seed(self) -> int:
        with self._lock:
            self._request_counter += 1
            return (self.seed * 1_000_003 + self._request_counter) & 0x7FFFFFFF

    def start(self) -> "MockAnnealerServer":
        self._thread = threading.Thread(target=self._httpd.serve_forever, daemon=True)
        self._thread.start()
        return self

    def stop(self) -> None:
        """End the loop ``start`` began, if any, and close the socket."""
        if self._thread is not None:  # shutdown() waits for a running loop
            self._httpd.shutdown()
            self._thread.join(timeout=5)
        self._httpd.server_close()

    def serve_forever(self) -> None:
        self._httpd.serve_forever()

    def __enter__(self) -> "MockAnnealerServer":
        return self.start()

    def __exit__(self, *exc) -> None:
        self.stop()


def _make_handler(server: MockAnnealerServer):
    class Handler(BaseHTTPRequestHandler):
        def log_message(self, *args):  # keep test output quiet
            pass

        def _reply(self, status: int, doc: dict) -> None:
            body = json.dumps(doc).encode()
            self.send_response(status)
            self.send_header("Content-Type", "application/json")
            self.send_header("Content-Length", str(len(body)))
            self.end_headers()
            self.wfile.write(body)

        def do_POST(self):
            if self.path != SAMPLE_ROUTE:
                self._reply(404, {"error": f"unknown route {self.path}"})
                return
            try:
                length = int(self.headers.get("Content-Length", "0"))
                if length < 0:
                    raise ValueError
            except ValueError:
                self._reply(400, {"error": "Content-Length must be a nonnegative integer"})
                return
            if length > server._max_body:
                self._reply(413, {"error": f"{length}-byte body exceeds service limit {server._max_body}"})
                return
            try:
                doc = json.loads(self.rfile.read(length))
                if doc.get("basis") != Basis.PLUS_MINUS.value:
                    raise ValueError(f"basis must be {Basis.PLUS_MINUS.value!r}")
                biases = np.asarray(doc["biases"], dtype=np.float64)
                couplings = {(int(k), int(l)): float(v) for k, l, v in doc["couplings"]}
                num_reads = int(doc["num_reads"])
                if num_reads < 1:
                    raise ValueError("num_reads must be >= 1")
            except (ValueError, KeyError, TypeError, json.JSONDecodeError) as exc:
                self._reply(400, {"error": str(exc)})
                return

            n = biases.shape[0]
            if n > server.max_nodes:
                self._reply(413, {"error": f"{n} nodes exceeds service limit {server.max_nodes}"})
                return
            try:
                bm = BoltzmannMachine(
                    num_visible_input=n,
                    num_visible_output=0,
                    num_hidden=0,
                    biases=biases,
                    couplings=couplings,
                    basis=Basis.PLUS_MINUS,
                )
            except ValueError as exc:
                self._reply(400, {"error": str(exc)})
                return

            beta = server.effective_beta(n)
            ss = exact_sample(bm, SamplerConfig(beta=beta, num_reads=num_reads, seed=server.next_seed()))
            self._reply(
                200,
                {
                    "samples": ss.states.tolist(),
                    "counts": [int(c) for c in ss.counts],
                    "energies": all_energies(bm)[_row_indices(ss.states)].tolist(),
                    "backend_id": f"mock-annealer(beta={beta:.4g})",
                },
            )

    return Handler
