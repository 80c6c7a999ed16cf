import base64
import copy
import gc
import json
import os
import socket
import subprocess
import sys
import threading
import time
import warnings
from http.server import BaseHTTPRequestHandler, ThreadingHTTPServer
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from isingbm import samplers
from isingbm.errors import CapacityError, ProtocolError, TransportError
from isingbm.metrics import fit_beta, hellinger, model_probability
from isingbm.model import Basis, BoltzmannMachine, random_machine
from isingbm.mock_server import MockAnnealerServer
from isingbm.samplers import SamplerConfig, empirical_distribution, remote_sample


def test_mock_round_trip_matches_exact_distribution(mock_server, rng):
    bm = random_machine(2, 0, 2, rng)
    ss = remote_sample(bm, SamplerConfig(beta=2.0, num_reads=150_000, seed=0), mock_server.url)
    assert ss.basis is Basis.ZERO_ONE
    assert ss.backend_id.startswith("mock-annealer")
    exact = model_probability(bm, 2.0)
    assert hellinger(empirical_distribution(ss), exact) <= 0.01


def test_remote_keeps_plus_minus_basis(mock_server, rng):
    bm = random_machine(3, 0, 0, rng, basis=Basis.PLUS_MINUS)
    ss = remote_sample(bm, SamplerConfig(beta=2.0, num_reads=20_000, seed=0), mock_server.url)
    assert ss.basis is Basis.PLUS_MINUS
    assert set(np.unique(ss.states)) <= {-1, 1}
    exact = model_probability(bm, 2.0)
    assert hellinger(empirical_distribution(ss), exact) <= 0.03


def test_remote_empty_machine_answered_before_network(monkeypatch):
    # one empty state carrying every read, as the exact and Gibbs backends
    # return; the endpoint is dead, so a request would raise TransportError
    empty = BoltzmannMachine(0, 0, 0, np.zeros(0), {})
    ss = remote_sample(empty, SamplerConfig(num_reads=10), "http://127.0.0.1:1")
    assert ss.states.shape == (1, 0)
    assert ss.counts.tolist() == [10.0]
    assert ss.num_reads == 10
    monkeypatch.delenv("ISINGBM_ENDPOINT", raising=False)
    with pytest.raises(ValueError):  # an endpoint is still required
        remote_sample(empty, SamplerConfig(num_reads=10))


def test_sampled_function_training_without_hidden_nodes(mock_server):
    # the NCLL data phase fixes every node of a machine with no hidden ones
    from isingbm.datasets import logic_gate
    from isingbm.samplers import Backend
    from isingbm.training import Architecture, GradientMode, TrainingConfig, train_function_approximator

    ds = logic_gate("AND")
    cfg = TrainingConfig(max_steps=3, delta_theta_min=0.0, gradient_mode=GradientMode.SAMPLED, seed=0,
                         sampler=SamplerConfig(beta=2.0, num_reads=200, backend=Backend.REMOTE,
                                               endpoint=mock_server.url))
    bm, trace = train_function_approximator(ds, Architecture(2, 1, 0), cfg)
    assert trace.num_steps == 3
    assert [r.sampler_calls_clamped for r in trace.records[1:]] == [2 * ds.num_rows] * 3
    assert np.all(np.isfinite(bm.biases))
    assert np.isfinite(trace.final_loss)


def test_remote_dead_endpoint_is_transport_error(rng):
    bm = random_machine(2, 0, 0, rng)
    with pytest.raises(TransportError):
        remote_sample(bm, SamplerConfig(num_reads=10), "http://127.0.0.1:45987")


def test_remote_oversize_is_capacity_error(mock_server, rng):
    bm = random_machine(mock_server.max_nodes + 1, 0, 0, rng)
    with pytest.raises(CapacityError):
        remote_sample(bm, SamplerConfig(num_reads=10), mock_server.url)


class _BrokenHandler(BaseHTTPRequestHandler):
    """Replies with sample rows of the wrong length, over HTTP/1.0, so each
    connection carries one request; ``_replying`` makes variants with another
    status, body, promised length or delay, or with a list of its own that
    records each request's target and headers."""

    status = 200
    body = json.dumps({"samples": [[1, -1, 1]], "counts": [5]}).encode()
    missing = 0     # bytes the Content-Length header promises but are not sent
    delay = 0.0     # seconds before replying
    requests: list = []

    def log_message(self, *args):
        pass

    def do_POST(self):
        self.requests.append((self.path, dict(self.headers)))
        length = int(self.headers.get("Content-Length", "0"))
        self.rfile.read(length)
        time.sleep(self.delay)
        self.send_response(self.status)
        self.send_header("Content-Length", str(len(self.body) + self.missing))
        self.end_headers()
        self.wfile.write(self.body)


def _replying(**attrs) -> type:
    return type("FaultHandler", (_BrokenHandler,), attrs)


@pytest.fixture
def broken_server(request):
    """A server whose handler is ``_BrokenHandler`` or the test's parameter."""
    handler = getattr(request, "param", _BrokenHandler)
    httpd = ThreadingHTTPServer(("127.0.0.1", 0), handler)
    thread = threading.Thread(target=httpd.serve_forever, daemon=True)
    thread.start()
    host, port = httpd.server_address[:2]
    yield f"http://{host}:{port}"
    httpd.shutdown()
    httpd.server_close()


def test_remote_malformed_sample_length_is_protocol_error(broken_server, rng):
    bm = random_machine(2, 0, 0, rng)
    with pytest.raises(ProtocolError):
        remote_sample(bm, SamplerConfig(num_reads=5), broken_server)


def _reply_counts(counts: list, samples: list | None = None) -> type:
    """A well-shaped reply for a 2-node machine with the given counts."""
    samples = samples or [[1, -1]] * len(counts)
    return _replying(body=json.dumps({"samples": samples, "counts": counts}).encode())


@pytest.mark.parametrize("broken_server, error", [
    (_replying(status=503, body=b"overloaded"), TransportError),
    (_replying(status=404, body=b"no such route"), ProtocolError),
    (_replying(body=b"<html>not json</html>"), ProtocolError),
    (_replying(missing=100), TransportError),  # body cut short of its length
    (_replying(delay=1.0), TransportError),     # slower than the timeout below
    (_reply_counts([1e300]), ProtocolError),    # past int64: was an OverflowError
    (_reply_counts([2.5]), ProtocolError),      # was truncated to 2
    (_reply_counts(["3"]), ProtocolError),      # was read as 3
    (_reply_counts([True]), ProtocolError),
    (_reply_counts([10**30]), ProtocolError),
    (_replying(body=b'{"samples": [[1, -1]], "counts": [Infinity]}'), ProtocolError),
    (_reply_counts([5], [[1, -1.0]]), ProtocolError),  # a float state value
    (_reply_counts([5], [[1, 0.5]]), ProtocolError),
    (_reply_counts([4, True], [[1, -1], [-1, True]]), ProtocolError),  # was read as spins and counts
    (_replying(body=b"[" * 5000 + b"]" * 5000), ProtocolError),  # was a RecursionError
    (_replying(body=json.dumps({"samples": [[1, -1]], "counts": [5], "backend_id": [1]}).encode()),
     ProtocolError),  # was written into the set as "[1]"
], indirect=["broken_server"], ids=["503", "404", "non-json", "truncated", "slow", "count-1e300", "count-2.5",
                                    "count-string", "count-true", "count-past-int64", "count-infinity",
                                    "sample-float", "sample-fraction", "mixed-true", "nested-too-deep",
                                    "backend-id-list"])
def test_remote_faults_map_to_typed_errors(broken_server, error, rng, monkeypatch):
    monkeypatch.setattr(samplers, "_TIMEOUT_S", 0.2)
    bm = random_machine(2, 0, 0, rng)
    with pytest.raises(error):
        remote_sample(bm, SamplerConfig(num_reads=5), broken_server)


@pytest.mark.parametrize("broken_server", [_reply_counts([2, 3, 4], [[1, -1], [-1, 1], [1, -1]])],
                         indirect=True)
def test_remote_duplicate_rows_merge_their_counts(broken_server, rng):
    bm = random_machine(2, 0, 0, rng)  # {0,1}: +1 -> 1, -1 -> 0
    ss = remote_sample(bm, SamplerConfig(num_reads=9), broken_server)
    assert ss.states.tolist() == [[0, 1], [1, 0]]
    assert ss.counts.tolist() == [3, 6] and ss.num_reads == 9


def test_remote_endpoint_must_be_http(rng):
    bm = random_machine(2, 0, 0, rng)
    for endpoint in ("localhost:1", "file:///dev/null"):
        with pytest.raises(ValueError, match="not an http"):
            remote_sample(bm, SamplerConfig(num_reads=5), endpoint)


def test_drift_lowers_effective_beta_with_size():
    server = MockAnnealerServer(beta=3.0, beta_drift=0.05)
    betas = [server.effective_beta(n) for n in range(4, 11)]
    server.stop()
    assert all(b1 > b2 for b1, b2 in zip(betas, betas[1:]))
    flat = MockAnnealerServer(beta=3.0, beta_drift=0.0)
    flat.stop()
    assert flat.effective_beta(4) == flat.effective_beta(10) == 3.0


@pytest.mark.parametrize("kwargs", [{"beta": 0.0}, {"beta": -1.0}, {"beta": float("nan")}, {"beta": float("inf")},
                                    {"beta": 10**400}, {"beta_drift": -0.1}, {"beta_drift": float("nan")},
                                    {"beta_drift": 10**400}])  # 10**400 raised OverflowError
def test_mock_refuses_a_temperature_no_request_could_sample_at(kwargs):
    with pytest.raises(ValueError):
        MockAnnealerServer(**kwargs)


def test_mock_answers_400_to_non_finite_parameters(mock_server):
    # json reads NaN and Infinity; the machine refuses them
    for biases, couplings in (("[NaN, 0.5]", "[]"), ("[0.5, 0.5]", "[[0, 1, Infinity]]")):
        body = f'{{"basis": "pm1", "biases": {biases}, "couplings": {couplings}, "num_reads": 5}}'.encode()
        status, doc = _post_with_length(mock_server, str(len(body)), body)
        assert status == 400 and "finite" in doc["error"]


_GOOD_TERMS = {"basis": "pm1", "biases": [0.5, -0.5], "couplings": [[0, 1, 0.25]], "num_reads": 7}
_BAD_BODIES = {
    # JSON, but not an object
    "array": "[1, 2]", "string": '"x"', "null": "null", "number": "3",
    "nested past the parser's recursion limit": "[" * 5000 + "]" * 5000,
    # counts and indices are JSON integers, values JSON numbers; a boolean is neither
    **{f"num_reads {reads}": json.dumps({**_GOOD_TERMS, "num_reads": reads}) for reads in (True, 10.0, "7")},
    **{f"coupling {term}": json.dumps({**_GOOD_TERMS, "couplings": [term]})
       for term in ([0.5, 1, 0.25], [0, True, 0.25], [0, 1, "0.25"], [0, 1])},
    "couplings object": json.dumps({**_GOOD_TERMS, "couplings": {"0": [0, 1, 0.25]}}),
    **{f"biases {biases}": json.dumps({**_GOOD_TERMS, "biases": biases})
       for biases in (["0.1", 0.2], [False, 0.2], "0.1")},
    # a pair given twice, in either order: the verbatim repeat kept its last value
    **{f"couplings {terms}": json.dumps({**_GOOD_TERMS, "couplings": terms})
       for terms in ([[0, 1, 0.25], [0, 1, 0.5]], [[0, 1, 0.25], [1, 0, 0.5]])},
    # an integer past float range: the handler died and dropped the connection
    "bias past float range": json.dumps({**_GOOD_TERMS, "biases": [10**400, 0.2]}),
    "coupling past float range": json.dumps({**_GOOD_TERMS, "couplings": [[0, 1, 10**400]]}),
}


@pytest.mark.parametrize("body", _BAD_BODIES.values(), ids=_BAD_BODIES.keys())
def test_mock_answers_400_to_a_body_the_protocol_does_not_allow(mock_server, body, capfd):
    # the body was read, so the connection serves the next request
    import http.client
    from urllib.parse import urlsplit

    from isingbm.samplers import SAMPLE_ROUTE

    url = urlsplit(mock_server.url)
    conn = http.client.HTTPConnection(url.hostname, url.port, timeout=10)
    try:
        conn.request("POST", SAMPLE_ROUTE, body.encode())
        reply = conn.getresponse()
        assert (reply.status, reply.will_close) == (400, False)
        assert "error" in json.loads(reply.read())
        conn.request("POST", SAMPLE_ROUTE, json.dumps(_GOOD_TERMS).encode())
        reply = conn.getresponse()
        assert reply.status == 200 and sum(json.loads(reply.read())["counts"]) == 7
    finally:
        conn.close()
    assert "Traceback" not in capfd.readouterr().err


def test_stop_returns_on_a_server_never_started():
    # in a daemon thread, so a stop() that waits for a loop fails the test
    # instead of hanging the suite
    server = MockAnnealerServer()
    stopper = threading.Thread(target=server.stop, daemon=True)
    stopper.start()
    stopper.join(timeout=5)
    assert not stopper.is_alive()


def test_fitted_beta_decreases_against_drifting_mock(rng):
    with MockAnnealerServer(beta=3.0, beta_drift=0.08, seed=4) as server:
        fitted = []
        for size in (3, 5, 7):
            bm = random_machine(size, 0, 0, rng)
            ss = remote_sample(bm, SamplerConfig(beta=3.0, num_reads=60_000, seed=size), server.url)
            beta_star, _ = fit_beta(ss, bm)
            fitted.append(beta_star)
        assert fitted[0] > fitted[1] > fitted[2]


def test_sampled_gradient_through_remote_backend(mock_server, rng):
    # the training stack can use the remote service for both gradient phases
    from isingbm.datasets import from_rows
    from isingbm.samplers import Backend
    from isingbm.training import GradientMode, grad_dkl

    bm = random_machine(2, 0, 1, rng)
    ds = from_rows([(0, 0), (1, 1)])
    cfg = SamplerConfig(beta=2.0, num_reads=40_000, seed=0,
                        backend=Backend.REMOTE, endpoint=mock_server.url)
    counter: dict = {}
    sampled = grad_dkl(bm, ds, GradientMode.SAMPLED, cfg,
                       clamped_resample="always", call_counter=counter)
    exact = grad_dkl(bm, ds, GradientMode.EXACT, SamplerConfig(beta=2.0))
    assert counter == {"full": 1, "clamped": 2}
    assert np.max(np.abs(sampled.d_bias - exact.d_bias)) < 0.05
    assert np.max(np.abs(sampled.d_pair - exact.d_pair)) < 0.05


def test_sampled_function_training_against_a_fresh_mock_is_unchanged(monkeypatch):
    # the mock seeds each request from a counter, so the trained machine
    # depends on the order of the requests: per step, for each row in
    # dataset order, the data phase and then the input phase
    from isingbm import training
    from isingbm.datasets import logic_gate
    from isingbm.model import clamp_visible
    from isingbm.samplers import Backend

    models, requests = [], []
    grad_ncll, sample = training.grad_ncll, samplers.remote_sample
    sampled = training.GradientMode.SAMPLED  # the loss's exact calls send no requests

    def record(bm, ds, mode, *a):
        if mode is sampled:
            models.append(bm)
        return grad_ncll(bm, ds, mode, *a)

    monkeypatch.setattr(training, "grad_ncll", record)
    monkeypatch.setattr(samplers, "remote_sample", lambda bm, *a: requests.append(bm) or sample(bm, *a))
    ds = logic_gate("AND")
    with MockAnnealerServer(beta=3.0, seed=5) as server:
        sampler = SamplerConfig(beta=3.0, num_reads=200, backend=Backend.REMOTE, endpoint=server.url,
                                seed=20261018)
        cfg = training.TrainingConfig(max_steps=4, delta_theta_min=0.0, seed=sampler.seed, sampler=sampler,
                                      gradient_mode=sampled)
        bm, trace = training.train_function_approximator(ds, training.Architecture(2, 1, 1), cfg)

    expected = [clamp_visible(model, dict(enumerate(fixed)))[0]
                for model in models for d in range(ds.num_rows) for fixed in (ds.row(d), ds.input_part(d))]
    assert [(r.num_nodes, r.biases.tolist(), r.couplings) for r in requests] == [
        (r.num_nodes, r.biases.tolist(), r.couplings) for r in expected]
    assert len(requests) == 4 * 2 * ds.num_rows
    np.testing.assert_array_equal(
        bm.biases, [0.37460227317740236, -0.11388876089364308, 0.3023687635427205, 0.07667609929534196])
    np.testing.assert_array_equal([v for _, v in sorted(bm.couplings.items())], [
        0.35900133134928625, 0.20437787028470922, 0.24980321774646658, -0.34558848530423253,
        -0.5284191390996893, 0.5930324566076115])
    np.testing.assert_array_equal(
        [(r.step, r.loss, r.delta_inf, r.sampler_calls_full, r.sampler_calls_clamped) for r in trace.records],
        [(0, 4.736555031908013, np.nan, 0, 0), (1, 3.4023249767956463, 0.20750465944655103, 0, 8),
         (2, 2.624186058432942, 0.2500053800678872, 0, 8), (3, 2.4403717527215254, 0.20050331238688823, 0, 8),
         (4, 2.215925593811914, 0.11030006674516497, 0, 8)])


def _post_with_length(server, length: str, body: bytes = b"") -> tuple[int, dict]:
    import http.client
    from urllib.parse import urlsplit

    from isingbm.samplers import SAMPLE_ROUTE

    url = urlsplit(server.url)
    conn = http.client.HTTPConnection(url.hostname, url.port, timeout=10)
    try:
        conn.putrequest("POST", SAMPLE_ROUTE)
        conn.putheader("Content-Type", "application/json")
        conn.putheader("Content-Length", length)
        conn.endheaders(body)
        resp = conn.getresponse()
        return resp.status, json.loads(resp.read())
    finally:
        conn.close()


@pytest.mark.parametrize("length", ["-1", "-4096", "12.5", "many"])
def test_mock_rejects_negative_or_non_integer_length(mock_server, length):
    # a negative length would read to EOF and wait for the client to close
    status, doc = _post_with_length(mock_server, length, b"{}")
    assert status == 400
    assert "Content-Length" in doc["error"]


def test_mock_answers_413_to_a_body_past_its_node_limit(mock_server):
    # the body is neither read nor waited for: only the header is sent
    status, doc = _post_with_length(mock_server, str(10**12))
    assert status == 413
    assert "exceeds service limit" in doc["error"]
    # a full machine at the node limit still fits, and is served
    n = mock_server.max_nodes
    bm = random_machine(n, 0, 0, np.random.default_rng(0), basis=Basis.PLUS_MINUS)
    body = json.dumps({"basis": "pm1", "biases": [float(b) for b in bm.biases],
                       "couplings": [[k, l, v] for (k, l), v in sorted(bm.couplings.items())],
                       "num_reads": 5}).encode()
    status, doc = _post_with_length(mock_server, str(len(body)), body)
    assert status == 200 and sum(doc["counts"]) == 5
    # past the limit, a machine its terms would refuse is still too large
    body = json.dumps({"basis": "pm1", "biases": [0.5] * (n + 1), "couplings": [[0, 1, 0.25], [1, 0, 0.5]],
                       "num_reads": 5}).encode()
    status, doc = _post_with_length(mock_server, str(len(body)), body)
    assert status == 413 and "exceeds service limit" in doc["error"]



def test_mock_closes_a_connection_whose_request_body_it_left_unread(mock_server):
    # on a kept-alive connection, an unread body would be parsed as the next
    # request, and the reply to that read as the next request's reply
    import http.client
    from urllib.parse import urlsplit

    from isingbm.samplers import SAMPLE_ROUTE

    url = urlsplit(mock_server.url)
    body = json.dumps({"basis": "pm1", "biases": [0.5, -0.5], "couplings": [[0, 1, 0.25]],
                       "num_reads": 7}).encode()
    conn = http.client.HTTPConnection(url.hostname, url.port, timeout=10)
    try:
        for route, length, sent, status in ((SAMPLE_ROUTE, str(10**12), b"", 413),  # only the header is sent
                                            ("/v1/other", str(len(body)), body, 404),
                                            (SAMPLE_ROUTE, "-1", body, 400)):
            conn.putrequest("POST", route)
            conn.putheader("Content-Length", length)
            conn.endheaders(sent)
            reply = conn.getresponse()
            assert (reply.status, reply.will_close) == (status, True)
            reply.read()
            conn.request("POST", SAMPLE_ROUTE, body)  # the same connection object reopens
            reply = conn.getresponse()
            assert (reply.status, reply.will_close) == (200, False)
            assert sum(json.loads(reply.read())["counts"]) == 7
    finally:
        conn.close()


def test_stop_ends_the_kept_alive_connections_and_their_handler_threads(rng, monkeypatch):
    bm = random_machine(2, 0, 0, rng)
    before = set(threading.enumerate())
    server = MockAnnealerServer().start()
    remote_sample(bm, SamplerConfig(num_reads=5), server.url)  # leaves this thread's connection open
    started = set(threading.enumerate()) - before
    assert len(started) == 2  # the server loop and the handler of that connection
    # in a daemon thread, so a stop() that waits on the open connection fails
    # the test instead of hanging the suite
    stopper = threading.Thread(target=server.stop, daemon=True)
    stopper.start()
    stopper.join(timeout=10)
    assert not stopper.is_alive()
    assert not any(t.is_alive() for t in started)
    monkeypatch.setattr(samplers, "_TIMEOUT_S", 2.0)
    start = time.perf_counter()
    with pytest.raises(TransportError):  # the cached connection to the stopped server
        remote_sample(bm, SamplerConfig(num_reads=5), server.url)
    assert time.perf_counter() - start < 2.0


class _OneReplyPerConnection(BaseHTTPRequestHandler):
    """An HTTP/1.1 service that answers only the first request on a
    connection: it reads the next one and closes the connection without a
    reply. With ``hang_up`` it closes the connection right after the first
    reply, without a ``Connection: close``, as a server ends an idle one."""

    protocol_version = "HTTP/1.1"
    hang_up = False
    requests: list = []
    hung_up = threading.Event()

    def log_message(self, *args):
        pass

    def do_POST(self):
        self.rfile.read(int(self.headers["Content-Length"]))
        self.requests.append(self.path)
        if getattr(self, "answered", False):
            self.close_connection = True
            return
        self.answered = True
        body = json.dumps({"samples": [[1, -1]], "counts": [5]}).encode()
        self.send_response(200)
        self.send_header("Content-Length", str(len(body)))
        self.end_headers()
        self.wfile.write(body)
        if self.hang_up:
            self.close_connection = True
            self.connection.shutdown(socket.SHUT_WR)
            self.hung_up.set()


_HANGS_UP = type("HangsUp", (_OneReplyPerConnection,), {"hang_up": True, "requests": [],
                                                        "hung_up": threading.Event()})


@pytest.mark.parametrize("broken_server", [_OneReplyPerConnection], indirect=True)
def test_a_request_sent_on_a_kept_alive_connection_is_never_sent_again(broken_server, rng):
    _OneReplyPerConnection.requests.clear()
    bm = random_machine(2, 0, 0, rng)
    assert remote_sample(bm, SamplerConfig(num_reads=5), broken_server).num_reads == 5
    with pytest.raises(TransportError):  # the service read the request and said nothing
        remote_sample(bm, SamplerConfig(num_reads=5), broken_server)
    assert len(_OneReplyPerConnection.requests) == 2  # not resent on a new connection
    # the failed connection was dropped: the next request opens a new one
    assert remote_sample(bm, SamplerConfig(num_reads=5), broken_server).num_reads == 5
    assert len(_OneReplyPerConnection.requests) == 3


@pytest.mark.parametrize("broken_server", [_HANGS_UP], indirect=True)
def test_an_idle_connection_the_service_closed_is_reopened_before_sending(broken_server, rng):
    _HANGS_UP.requests.clear()
    bm = random_machine(2, 0, 0, rng)
    assert remote_sample(bm, SamplerConfig(num_reads=5), broken_server).num_reads == 5
    assert _HANGS_UP.hung_up.wait(timeout=10)
    assert remote_sample(bm, SamplerConfig(num_reads=5), broken_server).num_reads == 5
    assert len(_HANGS_UP.requests) == 2


def test_a_connection_on_a_descriptor_past_1024_is_reused(mock_server, rng):
    # select() refuses descriptors past FD_SETSIZE; the idle check must not
    import resource

    if resource.getrlimit(resource.RLIMIT_NOFILE)[0] < 1200:
        pytest.skip("the descriptor limit is too low to open a socket past 1024")
    bm = random_machine(2, 0, 0, rng)
    samplers._drop_link()  # so that the descriptor of this thread's connection is not freed below the fillers
    read_end, write_end = os.pipe()
    fillers = [os.dup(read_end) for _ in range(1100)]
    try:
        with MockAnnealerServer() as server:  # a new endpoint, so a new connection past the fillers
            for _ in range(2):
                assert remote_sample(bm, SamplerConfig(num_reads=5), server.url).num_reads == 5
            assert samplers._link.current[1].sock.fileno() >= 1024
    finally:
        for fd in fillers + [read_end, write_end]:
            os.close(fd)


def test_interpreter_exit_leaves_no_unclosed_socket():
    import isingbm

    src = str(Path(isingbm.__file__).parents[1])
    probe = ("import numpy as np\n"
             "from isingbm.mock_server import MockAnnealerServer\n"
             "from isingbm.model import random_machine\n"
             "from isingbm.samplers import SamplerConfig, remote_sample\n"
             "with MockAnnealerServer() as server:\n"
             "    remote_sample(random_machine(2, 0, 0, np.random.default_rng(0)), SamplerConfig(num_reads=5),"
             " server.url)\n")
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))}
    out = subprocess.run([sys.executable, "-W", "error::ResourceWarning", "-c", probe], env=env,
                         capture_output=True, text=True, timeout=60)
    assert out.returncode == 0, out.stderr
    assert "ResourceWarning" not in out.stderr


def test_a_thread_closes_its_connection_when_it_ends(mock_server, rng):
    bm = random_machine(2, 0, 0, rng)
    sockets = []

    def draw():
        remote_sample(bm, SamplerConfig(num_reads=5), mock_server.url)
        sockets.append(samplers._link.current[1].sock)

    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always", ResourceWarning)
        worker = threading.Thread(target=draw)
        worker.start()
        worker.join(timeout=30)
        assert not worker.is_alive()
        gc.collect()
    assert len(sockets) == 1 and sockets[0].fileno() == -1
    assert not [w for w in caught if issubclass(w.category, ResourceWarning)]


@pytest.fixture
def no_proxy_env(monkeypatch):
    for name in ("http_proxy", "https_proxy", "no_proxy"):
        monkeypatch.delenv(name, raising=False)
        monkeypatch.delenv(name.upper(), raising=False)
    return monkeypatch


_PROXY = _replying(body=json.dumps({"samples": [[1, -1]], "counts": [5]}).encode(), requests=[])


@pytest.mark.parametrize("broken_server", [_PROXY], indirect=True)
def test_http_proxy_gets_the_absolute_form_target(broken_server, no_proxy_env, rng):
    _PROXY.requests.clear()
    no_proxy_env.setenv("HTTP_PROXY", broken_server.replace("http://", "http://user:pa%20ss@"))
    endpoint = "http://127.0.0.1:9"  # nothing listens there: only the proxy can answer
    ss = remote_sample(random_machine(2, 0, 0, rng), SamplerConfig(num_reads=5), endpoint)
    assert ss.num_reads == 5
    (target, headers), = _PROXY.requests
    assert target == endpoint + samplers.SAMPLE_ROUTE
    assert headers["Host"] == "127.0.0.1:9"
    assert headers["Proxy-Authorization"] == "Basic " + base64.b64encode(b"user:pa ss").decode()


@pytest.mark.parametrize("broken_server", [_PROXY], indirect=True)
def test_no_proxy_sends_the_request_direct(broken_server, no_proxy_env, rng):
    _PROXY.requests.clear()
    no_proxy_env.setenv("HTTP_PROXY", broken_server)
    no_proxy_env.setenv("NO_PROXY", "localhost,127.0.0.1")
    with MockAnnealerServer() as server:  # a new endpoint, so a new connection
        ss = remote_sample(random_machine(2, 0, 0, rng), SamplerConfig(num_reads=5), server.url)
    assert ss.backend_id.startswith("mock-annealer")
    assert _PROXY.requests == []


def test_kept_alive_requests_do_not_wait_for_delayed_acks(mock_server, rng):
    # with Nagle's algorithm on either side a request can stall about 40 ms
    # on the peer's delayed ACK: 100 draws would take at least 4 s
    bm = random_machine(2, 0, 0, rng)
    remote_sample(bm, SamplerConfig(num_reads=5), mock_server.url)
    start = time.perf_counter()
    for _ in range(100):
        remote_sample(bm, SamplerConfig(num_reads=5), mock_server.url)
    assert time.perf_counter() - start < 2.0


# Each JSON boundary: a document it accepts, the keys it cannot do without, and
# where it holds numbers (read as floats) and integers.
_BOUNDARY_DOCS = {
    "model": ({"basis": "01", "m_I": 1, "m_O": 1, "n": 0, "biases": [0.5, -0.5], "couplings": [[0, 1, 0.25]],
               "h_max": 1.0, "j_max": 1.0},
              ["basis", "m_I", "m_O", "n", "biases", "couplings"],
              [("biases", 0), ("couplings", 0, 2), ("h_max",), ("j_max",)],
              [("m_I",), ("m_O",), ("n",), ("couplings", 0, 0), ("couplings", 0, 1)]),
    "sample": ({"beta": 1.0, "num_reads": 5, "states": [[0, 1]], "counts": [5], "backend_id": "file", "basis": "01",
                "exhaustive": False},
               ["beta", "num_reads", "states", "counts"],
               [("beta",)],
               [("num_reads",), ("states", 0, 0), ("counts", 0)]),
    "config": ({"eta": 0.1, "weight_decay": 1e-5, "momentum": 0.6, "max_steps": 2, "delta_theta_min": 1e-6,
                "h_max": 1.0, "j_max": 1.0, "init_range": 0.5, "seed": 0, "loss_every": 1,
                "sampler": {"beta": 1.0, "num_reads": 10, "burn_in": 10, "seed": 0, "num_chains": 1}},
               [],  # every field has a default
               [("eta",), ("weight_decay",), ("momentum",), ("delta_theta_min",), ("h_max",), ("j_max",),
                ("init_range",), ("sampler", "beta")],
               [("max_steps",), ("seed",), ("loss_every",), ("sampler", "num_reads"), ("sampler", "burn_in"),
                ("sampler", "seed"), ("sampler", "num_chains")]),
    "request": (_GOOD_TERMS, ["basis", "biases", "couplings", "num_reads"],
                [("biases", 0), ("couplings", 0, 2)],
                [("num_reads",), ("couplings", 0, 0), ("couplings", 0, 1)]),
    "reply": ({"samples": [[1, -1]], "counts": [5], "backend_id": "stub"}, ["samples", "counts"],
              [], [("samples", 0, 0), ("counts", 0)]),
}
_PAST_FLOAT = [10**400, -(10**400), 2**1024]
_PAST_INT64 = [2**63, -(2**63) - 1, 2**70, 10**400]


def _faulty(data, doc: dict, required: list, numbers: list, integers: list) -> str:
    """``doc`` as JSON text with one fault drawn by ``data``: a key given twice
    (at the top or in a nested object), a required key left out, or a number
    past float range or an integer past int64 in its place."""
    faults = ["repeat"] + ["omit"] * bool(required) + ["range"]
    fault = data.draw(st.sampled_from(faults))
    if fault == "repeat":
        where = data.draw(st.sampled_from([()] + [(k,) for k, v in doc.items() if isinstance(v, dict)]))
        inner = doc[where[0]] if where else doc
        key = data.draw(st.sampled_from(sorted(inner)))
        value = data.draw(st.sampled_from([inner[key], None, 0]))  # the same value too
        text = json.dumps(inner)[:-1] + f", {json.dumps(key)}: {json.dumps(value)}}}"
        return json.dumps({**doc, where[0]: "@"}).replace('"@"', text) if where else text
    doc = copy.deepcopy(doc)
    if fault == "omit":
        del doc[data.draw(st.sampled_from(required))]
        return json.dumps(doc)
    path, value = data.draw(st.one_of(
        st.tuples(st.sampled_from(numbers), st.sampled_from(_PAST_FLOAT)) if numbers else st.nothing(),
        st.tuples(st.sampled_from(integers), st.sampled_from(_PAST_INT64))))
    parent = doc
    for step in path[:-1]:
        parent = parent[step]
    parent[path[-1]] = value
    return json.dumps(doc)


def test_every_json_boundary_refuses_repeated_missing_and_out_of_range_values(mock_server, tmp_path, monkeypatch):
    # a repeated key kept its last value at every boundary, and a config value
    # past float range raised OverflowError; each must now be the boundary's
    # typed refusal: ValueError or exit 2, a 400 or a ProtocolError
    from click.testing import CliRunner

    from isingbm.cli import main
    from isingbm.model import _read_json, load_model_entry
    from isingbm.samplers import load_sample_set
    from isingbm.training import TrainingConfig

    monkeypatch.setattr(samplers, "_TIMEOUT_S", 5.0)
    bm = random_machine(2, 0, 0, np.random.default_rng(0))
    runner = CliRunner()
    model, sample, config = tmp_path / "model.json", tmp_path / "sample.json", tmp_path / "config.json"
    handler = _replying(requests=[])
    httpd = ThreadingHTTPServer(("127.0.0.1", 0), handler)
    threading.Thread(target=httpd.serve_forever, daemon=True).start()
    stub = "http://{}:{}".format(*httpd.server_address[:2])

    @settings(max_examples=30, deadline=None, derandomize=True, database=None)
    @given(st.data())
    def fuzz(data):
        texts = {name: _faulty(data, *spec) for name, spec in _BOUNDARY_DOCS.items()}
        model.write_text(texts["model"])
        sample.write_text(texts["sample"])
        config.write_text(texts["config"])
        handler.body = texts["reply"].encode()
        for load, path in ((load_model_entry, model), (load_sample_set, sample)):
            with pytest.raises(ValueError):
                load(path)
        with pytest.raises(ValueError):
            TrainingConfig.from_dict(_read_json(texts["config"], "a training config"))
        result = runner.invoke(main, ["train", "--dataset", "and", "--arch", "3v1h", "--config", str(config),
                                      "--out", str(tmp_path / "run")])
        assert result.exit_code == 2, (texts["config"], result.output)
        assert json.loads(result.stderr.strip().splitlines()[-1])["error"]["kind"] == "input"
        body = texts["request"].encode()
        assert _post_with_length(mock_server, str(len(body)), body)[0] == 400, texts["request"]
        with pytest.raises(ProtocolError):
            remote_sample(bm, SamplerConfig(num_reads=5), stub)

    try:
        # the documents themselves are accepted, so each refusal is the fault's
        model.write_text(json.dumps(_BOUNDARY_DOCS["model"][0]))
        sample.write_text(json.dumps(_BOUNDARY_DOCS["sample"][0]))
        handler.body = json.dumps(_BOUNDARY_DOCS["reply"][0]).encode()
        load_model_entry(model)
        load_sample_set(sample)
        remote_sample(bm, SamplerConfig(num_reads=5), stub)
        TrainingConfig.from_dict(_BOUNDARY_DOCS["config"][0])
        fuzz()
    finally:
        httpd.shutdown()
        httpd.server_close()
