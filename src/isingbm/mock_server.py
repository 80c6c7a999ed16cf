"""In-process HTTP stand-in for a remote annealer sampling service.

Implements the wire protocol of ``samplers.remote_sample``: POST /v1/sample
with {basis, biases, couplings, num_reads} returns {samples, counts,
energies}. Sampling is backed by exact enumeration, so small problems come
back Boltzmann-distributed at the server's configured temperature: each
request is answered by ``samplers.exact_sample``. It answers HTTP/1.1, so a
client can keep one connection open for many requests.

The optional ``beta_drift`` knob lowers the effective inverse temperature as
problems grow (beta / (1 + drift * nodes)). This is a synthetic shape, not a
hardware model: it exists so that temperature-estimation pipelines can be
exercised against a service whose beta visibly depends on problem size.
"""

from __future__ import annotations

import json
import math
import socket
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
        self._httpd = _Server((host, port), _make_handler(self))
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
        """End the loop ``start`` began, if any, and close the socket and the
        connections still open; returns once their handler threads ended."""
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


class _Server(ThreadingHTTPServer):
    """A threaded server whose ``server_close`` also ends the connections
    still open and waits for their handler threads: on a kept-alive
    connection a handler waits for the next request until the client closes."""

    def __init__(self, *args):
        self._connections: set[socket.socket] = set()
        self._handlers: list[threading.Thread] = []
        self._lock = threading.Lock()
        super().__init__(*args)

    def process_request(self, request, client_address):
        thread = threading.Thread(target=self.process_request_thread, args=(request, client_address), daemon=True)
        with self._lock:
            self._connections.add(request)
            self._handlers = [t for t in self._handlers if t.is_alive()] + [thread]
        thread.start()

    def shutdown_request(self, request):
        with self._lock:  # so server_close never shuts down a closed socket
            self._connections.discard(request)
            super().shutdown_request(request)

    def server_close(self):
        super().server_close()
        with self._lock:
            for request in self._connections:
                try:
                    request.shutdown(socket.SHUT_RDWR)  # its handler reads end of file
                except OSError:  # the peer reset it first
                    pass
            handlers = self._handlers
        for thread in handlers:
            thread.join()


def _json(value, what: str, *kinds: type):
    """``value`` if ``json`` read it as one of ``kinds``; a JSON boolean reads as bool, not int."""
    if type(value) not in kinds:
        raise ValueError(f"{what} must be JSON of type {'/'.join(k.__name__ for k in kinds)}, got {json.dumps(value)}")
    return value


def _make_handler(server: MockAnnealerServer):
    class Handler(BaseHTTPRequestHandler):
        protocol_version = "HTTP/1.1"  # a client keeps one connection open
        disable_nagle_algorithm = True  # a reply is not held back for the peer's delayed ACK
        wbufsize = -1  # buffered: a reply leaves in one send when the request ends

        def log_message(self, *args):  # keep test output quiet
            pass

        def _reply(self, status: int, doc: dict, close: bool = False) -> None:
            """Send ``doc``; ``close`` for a request whose body was left
            unread, which must not be parsed as the next request."""
            body = json.dumps(doc).encode()
            self.send_response(status)
            self.send_header("Content-Type", "application/json")
            self.send_header("Content-Length", str(len(body)))
            if close:
                self.send_header("Connection", "close")  # also sets close_connection
            self.end_headers()
            self.wfile.write(body)

        def do_POST(self):
            if self.path != SAMPLE_ROUTE:
                self._reply(404, {"error": f"unknown route {self.path}"}, close=True)
                return
            try:
                length = int(self.headers.get("Content-Length", "0"))
                if length < 0:
                    raise ValueError
            except ValueError:
                self._reply(400, {"error": "Content-Length must be a nonnegative integer"}, close=True)
                return
            if length > server._max_body:
                self._reply(413, {"error": f"{length}-byte body exceeds service limit {server._max_body}"}, close=True)
                return
            try:
                doc = _json(json.loads(self.rfile.read(length)), "the request", dict)
                if doc.get("basis") != Basis.PLUS_MINUS.value:
                    raise ValueError(f"basis must be {Basis.PLUS_MINUS.value!r}")
                biases = np.array([_json(b, "a bias", int, float) for b in _json(doc["biases"], "biases", list)], float)
                terms = [_json(term, "a coupling", list) for term in _json(doc["couplings"], "couplings", list)]
                couplings = {(_json(k, "index", int), _json(l, "index", int)): float(_json(v, "a value", int, float))
                             for k, l, v in terms}
                num_reads = _json(doc["num_reads"], "num_reads", int)
                if num_reads < 1:
                    raise ValueError("num_reads must be >= 1")
            except (ValueError, KeyError, TypeError, RecursionError) as exc:  # a JSONDecodeError is a ValueError
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
