import json
import threading
from http.server import BaseHTTPRequestHandler, ThreadingHTTPServer

import numpy as np
import pytest

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
    """Replies with sample rows of the wrong length."""

    def log_message(self, *args):
        pass

    def do_POST(self):
        length = int(self.headers.get("Content-Length", "0"))
        self.rfile.read(length)
        body = json.dumps({"samples": [[1, -1, 1]], "counts": [5]}).encode()
        self.send_response(200)
        self.send_header("Content-Length", str(len(body)))
        self.end_headers()
        self.wfile.write(body)


@pytest.fixture
def broken_server():
    httpd = ThreadingHTTPServer(("127.0.0.1", 0), _BrokenHandler)
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


def test_drift_lowers_effective_beta_with_size():
    server = MockAnnealerServer(beta=3.0, beta_drift=0.05)
    betas = [server.effective_beta(n) for n in range(4, 11)]
    assert all(b1 > b2 for b1, b2 in zip(betas, betas[1:]))
    flat = MockAnnealerServer(beta=3.0, beta_drift=0.0)
    assert flat.effective_beta(4) == flat.effective_beta(10) == 3.0


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

