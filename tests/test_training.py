from dataclasses import replace
from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

import isingbm.model
from isingbm.datasets import adder2, from_rows, logic_gate, two_phase
from isingbm.metrics import (
    conditional_probability,
    dataset_distribution,
    dkl_beta_derivatives,
    kl_divergence,
    negative_conditional_log_likelihood,
    visible_marginal,
)
from isingbm.errors import CapacityError
from isingbm.model import (
    Basis,
    BoltzmannMachine,
    clamp_visible,
    complete_pairs,
    energies,
    random_machine,
    state_matrix,
)
from isingbm import samplers, training
from isingbm.model import _clamped_rows, _state_rows
from isingbm.samplers import Backend, SampleSet, SamplerConfig, draw_samples
from isingbm.training import (
    Architecture,
    GradientEstimate,
    GradientMode,
    TrainingConfig,
    TrainingTrace,
    TraceRecord,
    finite_difference_gradient,
    grad_dkl,
    grad_ncll,
    momentum_update,
    train_distribution,
    train_function_approximator,
)


def rel_err(fd: GradientEstimate, grad: GradientEstimate) -> float:
    """Max component error relative to the gradient's own scale."""
    scale = max(np.abs(grad.to_vector()).max(), 1e-12)
    err_b = np.max(np.abs(fd.d_bias - grad.d_bias), initial=0.0)
    err_p = np.max(np.abs(fd.d_pair - grad.d_pair), initial=0.0)
    return max(err_b, err_p) / scale


# ---------------------------------------------------------------- momentum update


def test_momentum_update_plain_gradient_step():
    cfg = TrainingConfig(eta=0.1, weight_decay=0.0, momentum=0.0)
    theta_new, delta = momentum_update(np.array([0.5]), np.array([0.2]), np.array([0.0]), cfg)
    assert theta_new[0] == pytest.approx(0.48)
    assert delta[0] == pytest.approx(-0.02)


def test_momentum_update_carries_previous_delta():
    cfg = TrainingConfig(eta=0.1, weight_decay=0.0, momentum=0.5)
    theta_new, delta = momentum_update(np.array([0.5]), np.array([0.2]), np.array([-0.1]), cfg)
    assert delta[0] == pytest.approx(-0.07)
    assert theta_new[0] == pytest.approx(0.43)


def test_momentum_update_clips_parameters_not_memory():
    cfg = TrainingConfig(eta=1.0, weight_decay=0.0, momentum=0.0)
    theta_new, delta = momentum_update(np.array([0.9]), np.array([-0.4]), np.array([0.0]), cfg, bound=1.0)
    assert theta_new[0] == 1.0          # candidate 1.3 clipped to the cap
    assert delta[0] == pytest.approx(0.4)  # memory keeps the unclipped step


def test_momentum_update_weight_decay_not_scaled_by_eta():
    cfg = TrainingConfig(eta=0.5, weight_decay=0.01, momentum=0.0)
    _, delta = momentum_update(np.array([1.0]), np.array([0.0]), np.array([0.0]), cfg)
    assert delta[0] == pytest.approx(-0.01)


def test_training_config_validation():
    with pytest.raises(ValueError):
        TrainingConfig(eta=0.0)
    with pytest.raises(ValueError):
        TrainingConfig(momentum=1.0)
    with pytest.raises(ValueError):
        TrainingConfig(weight_decay=-0.1)
    with pytest.raises(ValueError):
        TrainingConfig(enforce_recommended_ranges=True, weight_decay=0.1)
    with pytest.raises(ValueError):
        TrainingConfig(enforce_recommended_ranges=True, momentum=0.95)
    TrainingConfig(enforce_recommended_ranges=True, weight_decay=1e-4, momentum=0.9)
    for name in ("eta", "delta_theta_min", "init_range", "h_max", "j_max"):
        for value in (np.nan, np.inf, -np.inf, 10**400):  # a NaN eta was accepted; 10**400 raised OverflowError
            with pytest.raises(ValueError, match=f"{name} must be finite"):
                TrainingConfig(**{name: value})


# ---------------------------------------------------------------- gradient oracles


def test_grad_dkl_matches_finite_differences(rng):
    bm = random_machine(3, 0, 2, rng)
    ds = from_rows([(0, 0, 0), (1, 1, 0), (0, 1, 1)], [0.5, 0.3, 0.2])
    q = dataset_distribution(ds)
    grad = grad_dkl(bm, ds, GradientMode.EXACT, SamplerConfig(beta=1.0))
    fd = finite_difference_gradient(lambda m: kl_divergence(q, visible_marginal(m, 1.0)), bm)
    assert rel_err(fd, grad) <= 1e-6


def test_grad_dkl_beta_enters_through_expectations(rng):
    # analytic gradient drops the overall beta prefactor: FD(beta)/beta matches
    bm = random_machine(2, 0, 2, rng)
    ds = from_rows([(0, 1), (1, 1)], [0.4, 0.6])
    q = dataset_distribution(ds)
    beta = 2.5
    grad = grad_dkl(bm, ds, GradientMode.EXACT, SamplerConfig(beta=beta))
    fd = finite_difference_gradient(lambda m: kl_divergence(q, visible_marginal(m, beta)), bm)
    scaled = GradientEstimate(fd.d_bias / beta, fd.pairs, fd.d_pair / beta)
    assert rel_err(scaled, grad) <= 1e-6


def test_grad_dkl_visible_bias_is_mean_difference(rng):
    # d/d(bias_i) reduces to (data mean of s_i) - (model mean of s_i)
    bm = random_machine(2, 0, 0, rng)
    ds = from_rows([(0, 1), (1, 1)], [0.25, 0.75])
    grad = grad_dkl(bm, ds, GradientMode.EXACT, SamplerConfig(beta=1.0))
    joint = visible_marginal(bm, 1.0).as_dict()
    for i in range(2):
        data_mean = sum(w * ds.row(d)[i] for d, w in ((0, 0.25), (1, 0.75)))
        model_mean = sum(p * s[i] for s, p in joint.items())
        assert grad.d_bias[i] == pytest.approx(data_mean - model_mean, abs=1e-12)


def test_grad_dkl_zero_at_stationary_point(rng):
    bm = random_machine(3, 0, 1, rng)
    marginal = visible_marginal(bm, 1.0)
    ds = from_rows(list(marginal.support), marginal.probs)
    grad = grad_dkl(bm, ds, GradientMode.EXACT, SamplerConfig(beta=1.0))
    assert np.abs(grad.to_vector()).max() < 1e-12


def test_grad_ncll_matches_finite_differences(rng):
    bm = random_machine(2, 1, 1, rng)
    ds = logic_gate("XOR")
    grad = grad_ncll(bm, ds, GradientMode.EXACT, SamplerConfig(beta=1.0))
    fd = finite_difference_gradient(
        lambda m: negative_conditional_log_likelihood(m, 1.0, ds), bm)
    assert rel_err(fd, grad) <= 1e-6


def test_grad_ncll_input_input_couplings_cancel(rng):
    # both phases clamp every input, so input-input terms are identical constants
    bm = random_machine(2, 1, 1, rng)
    ds = logic_gate("AND")
    grad = grad_ncll(bm, ds, GradientMode.EXACT, SamplerConfig(beta=1.0))
    assert dict(zip(grad.pairs, grad.d_pair))[(0, 1)] == 0.0
    assert np.all(grad.d_bias[:2] == 0.0)  # input biases cancel too


def test_grad_ncll_zero_when_conditional_matches_data():
    # sharp machine whose conditional is essentially the AND map
    from isingbm.datasets import load_fixture

    bm = load_fixture("and_gate")
    ds = logic_gate("AND")
    grad = grad_ncll(bm, ds, GradientMode.EXACT, SamplerConfig(beta=25.0))
    assert np.abs(grad.to_vector()).max() < 1e-3


# ---------------------------------------------------------------- clamp-and-enumerate reference


def clamped_moments(bm, beta, assignment):
    """<s> and <s s^T> with the given nodes clamped, by enumerating the
    reduced machine that ``clamp_visible`` builds."""
    reduced, _ = clamp_visible(bm, assignment)
    free = [k for k in range(bm.num_nodes) if k not in assignment]
    S_free = state_matrix(len(free), bm.basis).astype(np.float64)
    E = energies(reduced, S_free)
    p = np.exp(-beta * (E - E.min()))
    p /= p.sum()
    S = np.empty((p.shape[0], bm.num_nodes))
    S[:, free] = S_free
    for k, v in assignment.items():
        S[:, k] = v
    return p @ S, (S * p[:, None]).T @ S


def reference_gradient(bm, mean, second):
    pairs = sorted(bm.couplings)
    return GradientEstimate(mean, tuple(pairs), [second[k, l] for k, l in pairs])


def reference_grad_dkl(bm, ds, beta):
    mean, second = clamped_moments(bm, beta, {})
    mean, second = -mean, -second
    for d in range(ds.num_rows):
        m, s = clamped_moments(bm, beta, dict(enumerate(ds.row(d))))
        mean, second = mean + ds.weights[d] * m, second + ds.weights[d] * s
    return reference_gradient(bm, mean, second)


def reference_grad_ncll(bm, ds, beta):
    mean, second = np.zeros(bm.num_nodes), np.zeros((bm.num_nodes, bm.num_nodes))
    for d in range(ds.num_rows):
        m_data, s_data = clamped_moments(bm, beta, dict(enumerate(ds.row(d))))
        m_model, s_model = clamped_moments(bm, beta, dict(enumerate(ds.input_part(d))))
        mean, second = mean + m_data - m_model, second + s_data - s_model
    return reference_gradient(bm, mean, second)


def random_rows(rng, width, basis, count=4):
    rows = state_matrix(width, basis)
    return rows[rng.choice(rows.shape[0], size=min(count, rows.shape[0]), replace=False)]


def assert_same_gradient(got, ref, atol=1e-12):
    assert got.pairs == ref.pairs
    np.testing.assert_allclose(got.d_bias, ref.d_bias, rtol=0, atol=atol)
    np.testing.assert_allclose(got.d_pair, ref.d_pair, rtol=0, atol=atol)


@pytest.mark.parametrize("basis", list(Basis))
def test_exact_gradients_match_clamp_and_enumerate(rng, basis):
    for trial in range(8):
        m_i, m_o = int(rng.integers(1, 4)), int(rng.integers(1, 3))
        n_h = 0 if trial < 2 else int(rng.integers(1, 4))  # n_h = 0 included
        bm = random_machine(m_i, m_o, n_h, rng, scale=1.5, basis=basis)
        beta = float(rng.uniform(0.5, 2.0))
        rows = random_rows(rng, m_i + m_o, basis)
        ds = from_rows(rows, rng.uniform(0.2, 1.0, size=len(rows)))
        assert_same_gradient(grad_dkl(bm, ds, GradientMode.EXACT, SamplerConfig(beta=beta)),
                             reference_grad_dkl(bm, ds, beta))
        ds_io = from_rows(rows, io_split=(m_i, m_o))
        assert_same_gradient(grad_ncll(bm, ds_io, GradientMode.EXACT, SamplerConfig(beta=beta)),
                             reference_grad_ncll(bm, ds_io, beta))


@pytest.mark.parametrize("basis", list(Basis))
def test_exact_ncll_gradient_past_the_cap(rng, basis, enumeration_cap):
    # cap < n <= cap + m_I: only the n - m_I free nodes are enumerated
    bm = random_machine(3, 1, 3, rng, scale=1.5, basis=basis)
    ds = from_rows(random_rows(rng, 4, basis, count=6), io_split=(3, 1))
    for cap in (4, 5, 6):
        enumeration_cap(cap)
        got = grad_ncll(bm, ds, GradientMode.EXACT, SamplerConfig(beta=1.3))
        assert_same_gradient(got, reference_grad_ncll(bm, ds, 1.3))
    enumeration_cap(3)
    with pytest.raises(CapacityError):
        grad_ncll(bm, ds, GradientMode.EXACT, SamplerConfig(beta=1.3))


@pytest.mark.parametrize("basis", list(Basis))
def test_exact_grad_dkl_on_21_nodes(rng, basis):
    # a 3v2h core plus 16 decoupled zero-bias hidden nodes: each is a fair
    # coin in both phases, independent of the rest
    core = random_machine(3, 0, 2, rng, basis=basis)
    n = 21
    couplings = {pair: core.couplings.get(pair, 0.0) for pair in complete_pairs(n)}
    bm = BoltzmannMachine(3, 0, 18, np.concatenate([core.biases, np.zeros(16)]), couplings, basis=basis)
    ds = from_rows(random_rows(rng, 3, basis), [0.5, 0.2, 0.2, 0.1])
    ref = reference_grad_dkl(core, ds, 1.1)
    coin_mean = 0.5 if basis is Basis.ZERO_ONE else 0.0
    d_bias = np.concatenate([ref.d_bias, np.zeros(16)])  # a coin's mean is the same in both phases
    core_pairs = dict(zip(ref.pairs, ref.d_pair))
    # <s_k c> = <s_k> coin_mean, and pairs of two coins cancel
    d_pair = [core_pairs[(k, l)] if l < 5 else (coin_mean * d_bias[k] if k < 5 else 0.0)
              for k, l in complete_pairs(n)]
    got = grad_dkl(bm, ds, GradientMode.EXACT, SamplerConfig(beta=1.1))
    # sums over 2^18 hidden states round to about 1e-12 here
    assert_same_gradient(got, GradientEstimate(d_bias, tuple(complete_pairs(n)), d_pair), atol=1e-10)


@pytest.mark.parametrize("basis", list(Basis))
def test_exact_step_loss_is_the_metrics_loss(rng, basis, enumeration_cap):
    # the loss comes from the gradient's own exp pass, bit for bit what the
    # metrics give; past the cap both re-enumerate the input's slice in one
    # ``model._row_pass``
    cap = isingbm.model.ENUMERATION_CAP
    for _ in range(40):
        m_i, m_o, n_h = (int(k) for k in rng.integers((1, 1, 0), (5, 4, 6)))
        bm = random_machine(m_i, m_o, n_h, rng, basis=basis)
        rows = random_rows(rng, m_i + m_o, basis, count=int(rng.integers(1, 9)))
        ds = from_rows(rows, rng.uniform(0.1, 1.0, size=len(rows)), io_split=(m_i, m_o))
        cfg = SamplerConfig(beta=float(rng.uniform(0.3, 12.0)))
        assert grad_dkl(bm, ds, GradientMode.EXACT, cfg).loss == kl_divergence(
            dataset_distribution(ds), visible_marginal(bm, cfg.beta))
        assert grad_ncll(bm, ds, GradientMode.EXACT, cfg).loss == negative_conditional_log_likelihood(
            bm, cfg.beta, ds)
        assert grad_dkl(bm, ds, GradientMode.SAMPLED, replace(cfg, num_reads=20)).loss is None
        enumeration_cap(bm.num_nodes - m_i)
        past = grad_ncll(bm, ds, GradientMode.EXACT, cfg).loss
        assert past == negative_conditional_log_likelihood(bm, cfg.beta, ds)
        enumeration_cap(cap)


def test_ncll_of_a_split_without_outputs_is_the_exact_step_loss(rng):
    # p(no outputs | input) = 1 on every row: the metric gives the step's 0
    bm = random_machine(2, 0, 1, rng)
    ds = from_rows([(0, 1), (1, 1)], io_split=(2, 0))
    assert negative_conditional_log_likelihood(bm, 1.0, ds) == grad_ncll(bm, ds).loss == 0.0


def test_exact_training_builds_no_weighting_tables():
    ds = from_rows(logic_gate("AND").rows)
    cfg = TrainingConfig(max_steps=5, sampler=SamplerConfig(beta=3.0), seed=0)
    bm, trace = train_distribution(ds, Architecture(3, 0, 2), cfg)
    assert "_row_gaps" not in bm.__dict__ and "_weighting" not in bm.__dict__
    assert trace.records[-1].loss == kl_divergence(dataset_distribution(ds), visible_marginal(bm, 3.0))


@pytest.mark.parametrize("mode", list(GradientMode))
def test_gradients_reject_rows_outside_the_basis(rng, mode):
    bm = random_machine(2, 1, 1, rng, basis=Basis.PLUS_MINUS)
    cfg = SamplerConfig(beta=1.0, num_reads=20)
    with pytest.raises(ValueError):
        grad_dkl(bm, from_rows([(0, 1, 1), (1, 1, 0)]), mode, cfg)
    with pytest.raises(ValueError):
        grad_ncll(bm, logic_gate("AND"), mode, cfg)


_FIT_CFG = SamplerConfig(beta=1.0, num_reads=20, burn_in=2, backend=Backend.GIBBS)

# every quantity over a dataset, and whether it reads the dataset's input/output split
_OVER_A_DATASET = {
    "dkl_beta_derivatives": (lambda bm, ds: dkl_beta_derivatives(bm, 1.0, ds), False),
    "ncll": (lambda bm, ds: negative_conditional_log_likelihood(bm, 1.0, ds), True),
    **{f"grad_dkl-{m.value}": (lambda bm, ds, m=m: grad_dkl(bm, ds, m, _FIT_CFG), False) for m in GradientMode},
    **{f"grad_ncll-{m.value}": (lambda bm, ds, m=m: grad_ncll(bm, ds, m, _FIT_CFG), True) for m in GradientMode},
    "train_function_approximator": (lambda bm, ds: train_function_approximator(
        ds, Architecture(bm.num_visible_input, bm.num_visible_output, bm.num_hidden),
        TrainingConfig(max_steps=1, init_model=bm)), True),
}

_AND = logic_gate("AND").rows
# name: the machine's partition and basis, a dataset, and whether the dataset fits it
_FITS = {
    "width": ((2, 2, 1), Basis.ZERO_ONE, logic_gate("AND"), False),  # the conditional loss read inf
    "basis-01-rows": ((2, 1, 1), Basis.PLUS_MINUS, logic_gate("AND"), False),
    "basis-pm-rows": ((2, 1, 1), Basis.ZERO_ONE, from_rows(2 * _AND - 1, io_split=(2, 1)), False),
    "split": ((2, 1, 1), Basis.ZERO_ONE, from_rows(_AND, io_split=(1, 2)), False),
    "no-split": ((2, 1, 1), Basis.ZERO_ONE, from_rows(_AND), False),
    "all-ones-on-pm": ((2, 1, 1), Basis.PLUS_MINUS, from_rows([(1, 1, 1)], io_split=(2, 1)), True),
}


@pytest.mark.parametrize("quantity, case", [(q, c) for q, (_, split) in _OVER_A_DATASET.items()
                                            for c in _FITS if split or "split" not in c])
def test_every_quantity_over_a_dataset_refuses_one_that_does_not_fit(rng, quantity, case):
    call = _OVER_A_DATASET[quantity][0]
    partition, basis, ds, fits = _FITS[case]
    bm = random_machine(*partition, rng, basis=basis)
    if fits:
        call(bm, ds)
    else:
        with pytest.raises(ValueError):
            call(bm, ds)


def test_finite_difference_gradient_on_quadratic():
    bm = BoltzmannMachine(2, 0, 0, np.array([0.3, -0.2]), {(0, 1): 0.5})

    def loss(m):
        return float(np.sum(m.biases**2) + sum(v**2 for v in m.couplings.values()))

    fd = finite_difference_gradient(loss, bm, step=1e-5)
    assert np.allclose(fd.d_bias, [0.6, -0.4], atol=1e-9)
    assert fd.d_pair[0] == pytest.approx(1.0, abs=1e-9)


# ---------------------------------------------------------------- sampled gradients


def test_sampled_gradient_with_exhaustive_draws_equals_exact(rng):
    bm = random_machine(3, 0, 2, rng)
    ds = from_rows([(0, 0, 0), (1, 1, 0), (0, 1, 1)])
    exact = grad_dkl(bm, ds, GradientMode.EXACT, SamplerConfig(beta=1.2))
    cfg = SamplerConfig(beta=1.2, exhaustive=True, backend=Backend.EXACT)
    sampled = grad_dkl(bm, ds, GradientMode.SAMPLED, cfg, clamped_resample="always")
    assert rel_err(sampled, exact) <= 1e-10


def test_sampled_gradient_error_shrinks_with_reads(rng):
    bm = random_machine(3, 0, 1, rng)
    ds = from_rows([(0, 0, 0), (1, 1, 1)])
    exact = grad_dkl(bm, ds, GradientMode.EXACT, SamplerConfig(beta=1.0))
    errors = {}
    for reads in (200, 8000):
        per_seed = []
        for seed in range(5):
            cfg = SamplerConfig(beta=1.0, num_reads=reads, seed=seed)
            sampled = grad_dkl(bm, ds, GradientMode.SAMPLED, cfg)
            per_seed.append(
                max(np.max(np.abs(sampled.d_bias - exact.d_bias)),
                    np.max(np.abs(sampled.d_pair - exact.d_pair))))
        errors[reads] = np.median(per_seed)
    assert errors[8000] < errors[200]


def test_sampled_ncll_with_exhaustive_draws_equals_exact(rng):
    bm = random_machine(2, 1, 1, rng)
    ds = logic_gate("OR")
    exact = grad_ncll(bm, ds, GradientMode.EXACT, SamplerConfig(beta=1.0))
    cfg = SamplerConfig(beta=1.0, exhaustive=True, backend=Backend.EXACT)
    sampled = grad_ncll(bm, ds, GradientMode.SAMPLED, cfg)
    assert rel_err(sampled, exact) <= 1e-10


def test_sampler_call_budget(rng):
    # distribution gradient: one full draw plus at most one clamped draw per row;
    # conditional-likelihood gradient: exactly two clamped draws per row
    bm = random_machine(3, 0, 1, rng)
    ds = from_rows([(0, 0, 0), (1, 1, 1), (0, 1, 0)])
    counter: dict = {}
    grad_dkl(bm, ds, GradientMode.SAMPLED, SamplerConfig(beta=1.0, num_reads=50, seed=0),
             clamped_resample="auto", call_counter=counter)
    assert counter.get("full", 0) == 1
    assert counter.get("clamped", 0) <= ds.num_rows

    counter = {}
    grad_dkl(bm, ds, GradientMode.SAMPLED, SamplerConfig(beta=1.0, num_reads=50, seed=0),
             clamped_resample="always", call_counter=counter)
    assert counter == {"full": 1, "clamped": ds.num_rows}

    bm_io = random_machine(2, 1, 1, rng)
    counter = {}
    grad_ncll(bm_io, logic_gate("AND"), GradientMode.SAMPLED,
              SamplerConfig(beta=1.0, num_reads=50, seed=0), call_counter=counter)
    assert counter == {"clamped": 8}


def test_clamped_reuse_skips_rows_seen_in_full_draw(rng):
    # a huge draw on a small machine sees every visible row, so policy "auto"
    # never issues clamped draws
    bm = random_machine(2, 0, 1, rng)
    ds = from_rows([(0, 0), (1, 1)])
    counter: dict = {}
    grad_dkl(bm, ds, GradientMode.SAMPLED, SamplerConfig(beta=0.5, num_reads=20000, seed=0),
             clamped_resample="auto", call_counter=counter)
    assert counter == {"full": 1}


def dict_loop_clamp(bm, assignment):
    """The per-machine clamp the array clamp replaced: the free biases,
    updated pair by pair in the coupling dict's order."""
    free = [k for k in range(bm.num_nodes) if k not in assignment]
    pos = {k: i for i, k in enumerate(free)}
    biases = np.array([bm.biases[k] for k in free])
    for (k, l), v in bm.couplings.items():
        if k in assignment and l in pos:
            biases[pos[l]] += v * float(assignment[k])
        elif l in assignment and k in pos:
            biases[pos[k]] += v * float(assignment[l])
    return biases


@st.composite
def clamped_steps(draw):
    """A machine with a sorted coupling dict, in either basis; rows of fixed
    values for its leading nodes, of mixed widths, the whole machine (width
    0) and every node included; a Gibbs (or exact) config with one seed per
    row; a chunk width that often puts more rows than one kernel run holds;
    and a clamp of any node subset."""
    basis = draw(st.sampled_from(list(Basis)))
    n = draw(st.integers(1, 9))
    c = draw(st.integers(0, n))
    bm = random_machine(c, 0, n - c, np.random.default_rng(draw(st.integers(0, 2**32 - 1))),
                        scale=draw(st.floats(0.1, 3.0)), basis=basis)
    row = st.integers(0, n).flatmap(lambda c: st.lists(st.sampled_from(basis.symbols), min_size=c, max_size=c))
    rows = [np.array(v, dtype=np.float64) for v in draw(st.lists(row, min_size=1, max_size=10))]
    chains = draw(st.integers(1, 6))
    cfg = SamplerConfig(beta=draw(st.floats(0.05, 5.0)), num_reads=draw(st.integers(1, 3)) * chains,
                        burn_in=draw(st.integers(0, 6)), thinning=draw(st.integers(1, 2)), num_chains=chains,
                        backend=draw(st.sampled_from([Backend.GIBBS, Backend.GIBBS, Backend.EXACT])))
    seeds = draw(st.lists(st.integers(0, 2**32 - 1), min_size=len(rows), max_size=len(rows)))
    nodes = draw(st.lists(st.integers(0, n - 1), unique=True))
    assignment = {k: draw(st.sampled_from(basis.symbols)) for k in nodes}
    return bm, rows, cfg, seeds, draw(st.sampled_from([2, 3, 14])), assignment


def _sixteen_free_nodes():
    # two chunks of eight free nodes at the default chunk width, beside the
    # whole machine's two chunks of nine and a one-chunk row
    bm = random_machine(2, 0, 16, np.random.default_rng(16), basis=Basis.PLUS_MINUS)
    cfg = SamplerConfig(beta=1.5, num_reads=30, burn_in=5, thinning=2, num_chains=3, backend=Backend.GIBBS)
    rows = [np.array(v, dtype=np.float64) for v in [[1, -1], [], [-1, -1], [1, 1], [1, -1, 1, 1, -1] + [1] * 9]]
    return bm, rows, cfg, [7, 8, 9, 10, 11], 14, {0: 1, 5: -1, 17: 1}


@settings(max_examples=60, deadline=None)
@given(clamped_steps())
@example(_sixteen_free_nodes())
def test_array_clamp_and_draws_equal_the_per_machine_path(step):
    bm, rows, cfg, seeds, table_bits, assignment = step
    # biases: bit for bit the dict loop's, for every row of a width at once and for clamp_visible
    for c in {len(v) for v in rows}:
        V = np.array([v for v in rows if len(v) == c]).reshape(sum(len(v) == c for v in rows), c)
        _, _, biases = _clamped_rows(bm, range(c), V)
        for v, b in zip(V, biases):
            assert b.tobytes() == dict_loop_clamp(bm, dict(enumerate(v))).tobytes()
    reduced, _ = clamp_visible(bm, assignment)
    assert reduced.biases.tobytes() == dict_loop_clamp(bm, assignment).tobytes()
    # draws: rows of every width in one call, each one draw_samples call on its clamped machine, byte for byte
    with mock.patch.object(samplers, "_TABLE_BITS", table_bits):
        draws = training._clamped_draws(bm, cfg, rows, seeds)
        assert len(draws) == len(rows)
        for v, seed, (index, count) in zip(rows, seeds, draws):
            c = len(v)
            want = draw_samples(clamp_visible(bm, dict(enumerate(v)))[0] if c else bm, replace(cfg, seed=seed))
            states = _state_rows(index, bm.num_nodes, bm.basis)
            assert np.all(states[:, :c] == v)
            assert states[:, c:].tobytes() == want.states.tobytes()
            assert count.astype(np.float64).tobytes() == want.counts.tobytes()


def test_a_sampled_step_makes_one_kernel_run_unless_auto_redraws():
    # a one-chunk machine: "always" draws the whole machine and every row in
    # one run, and a Gibbs NCLL step both phases of every row; "auto" with a
    # row the full draw missed runs again for it
    bm = random_machine(2, 1, 2, np.random.default_rng(5))
    cfg = SamplerConfig(beta=1.0, num_reads=40, burn_in=3, thinning=1, num_chains=4, backend=Backend.GIBBS)
    rows = [(0, 0, 1), (0, 1, 1), (1, 1, 0)]
    gibbs_run, runs = samplers._gibbs_run, []

    def run(*args):
        runs.append(args)
        return gibbs_run(*args)

    def count(fn, *args):
        runs.clear()
        with mock.patch.object(samplers, "_gibbs_run", run):
            fn(*args)
        return len(runs)

    assert count(grad_dkl, bm, from_rows(rows), GradientMode.SAMPLED, cfg, "always") == 1
    assert count(grad_ncll, bm, from_rows(rows, io_split=(2, 1)), GradientMode.SAMPLED, cfg) == 1
    # one read on one chain: the full draw shows a single visible row, so the others are redrawn
    one = replace(cfg, num_reads=1, num_chains=1)
    counter: dict = {}
    assert count(grad_dkl, bm, from_rows(rows), GradientMode.SAMPLED, one, "auto", counter) == 2
    assert counter == {"full": 1, "clamped": 2}


@pytest.mark.parametrize("basis", list(Basis))
def test_a_sampled_gibbs_step_builds_no_machine_and_no_sample_set(rng, basis):
    built = []

    def counted(fn):
        def wrapper(self, *args):
            built.append(type(self).__name__)
            return fn(self, *args)
        return wrapper

    bm = random_machine(2, 1, 2, rng, basis=basis)
    lo, hi = basis.symbols
    rows = [(lo, lo, hi), (lo, hi, hi), (hi, hi, lo)]
    cfg = SamplerConfig(beta=1.0, num_reads=40, burn_in=3, thinning=1, num_chains=4, backend=Backend.GIBBS)
    with mock.patch.object(BoltzmannMachine, "__post_init__", counted(BoltzmannMachine.__post_init__)), \
            mock.patch.object(SampleSet, "_freeze", counted(SampleSet._freeze)):
        for policy in ("auto", "always"):
            grad_dkl(bm, from_rows(rows), GradientMode.SAMPLED, cfg, policy)
        grad_ncll(bm, from_rows(rows, io_split=(2, 1)), GradientMode.SAMPLED, cfg)
        assert built == []
        # the exact backend still draws one machine per clamped row
        grad_ncll(bm, from_rows(rows, io_split=(2, 1)), GradientMode.SAMPLED, replace(cfg, backend=Backend.EXACT))
    assert built.count("BoltzmannMachine") == built.count("SampleSet") == 2 * len(rows)


# ---------------------------------------------------------------- training loops


def test_train_stops_quickly_at_stationary_start(rng):
    seed_bm = random_machine(3, 0, 1, rng)
    marginal = visible_marginal(seed_bm, 1.0)
    ds = from_rows(list(marginal.support), marginal.probs)
    cfg = TrainingConfig(eta=0.1, weight_decay=0.0, momentum=0.0, max_steps=100,
                         delta_theta_min=1e-6, init_model=seed_bm,
                         sampler=SamplerConfig(beta=1.0))
    bm, trace = train_distribution(ds, Architecture(3, 0, 1), cfg)
    assert trace.num_steps <= 3
    assert trace.final_loss < 1e-10


def test_monotone_descent_with_small_eta():
    ds = from_rows(logic_gate("AND").rows)
    cfg = TrainingConfig(eta=1e-3, weight_decay=0.0, momentum=0.0, max_steps=120,
                         sampler=SamplerConfig(beta=1.0), seed=0, loss_every=1)
    _, trace = train_distribution(ds, Architecture(3, 0, 1), cfg)
    losses = [r.loss for r in trace.records]
    assert all(b <= a + 1e-12 for a, b in zip(losses, losses[1:]))


def test_parameters_respect_bounds_throughout(rng):
    ds = from_rows(logic_gate("AND").rows)
    cfg = TrainingConfig(eta=0.5, weight_decay=0.0, momentum=0.6, max_steps=60,
                         h_max=0.3, j_max=0.2, sampler=SamplerConfig(beta=5.0),
                         seed=1, loss_every=60)
    bm, _ = train_distribution(ds, Architecture(3, 0, 1), cfg)
    assert np.all(np.abs(bm.biases) <= 0.3 + 1e-15)
    assert all(abs(v) <= 0.2 + 1e-15 for v in bm.couplings.values())


def test_train_distribution_reduces_loss(rng):
    ds = from_rows(logic_gate("AND").rows)
    cfg = TrainingConfig(eta=0.1, weight_decay=1e-5, momentum=0.6, max_steps=300,
                         sampler=SamplerConfig(beta=3.0), seed=0, loss_every=100)
    bm, trace = train_distribution(ds, Architecture(3, 0, 1), cfg)
    assert trace.final_loss < trace.records[0].loss / 3


def test_loss_errors_other_than_capacity_propagate(monkeypatch):
    def broken(*args, **kwargs):
        raise RuntimeError("broken table")

    # a sampled run reads the energy table through training only for its loss
    monkeypatch.setattr(training, "all_energies", broken)
    ds = from_rows(logic_gate("AND").rows)
    cfg = TrainingConfig(max_steps=2, sampler=SamplerConfig(beta=1.0, num_reads=50), seed=0,
                         gradient_mode=GradientMode.SAMPLED)
    with pytest.raises(RuntimeError, match="broken table"):
        train_distribution(ds, Architecture(3, 0, 1), cfg)


def test_function_loss_is_evaluated_when_only_the_inputs_fit_the_cap(enumeration_cap):
    # 9 nodes, 4 inputs: a cap of 6 excludes the whole machine but not the
    # clamped 5-node remainder that the exact gradient and the loss need.
    ds = adder2()
    cfg = TrainingConfig(max_steps=6, sampler=SamplerConfig(beta=2.0), seed=0, loss_every=2)
    arch = Architecture(4, 3, 2)
    _, full = train_function_approximator(ds, arch, cfg)
    enumeration_cap(6)
    _, capped = train_function_approximator(ds, arch, cfg)
    capped_losses = np.array([r.loss for r in capped.records])
    full_losses = np.array([r.loss for r in full.records])
    # Steps between loss evaluations carry NaN in both traces.
    assert np.count_nonzero(np.isfinite(capped_losses)) == np.count_nonzero(np.isfinite(full_losses)) >= 3
    np.testing.assert_allclose(capped_losses, full_losses, rtol=1e-12)


def test_train_two_phase_distribution():
    ds = two_phase(10)
    cfg = TrainingConfig(eta=0.1, weight_decay=1e-5, momentum=0.6, max_steps=60,
                         sampler=SamplerConfig(beta=2.0), seed=0, loss_every=30)
    bm, trace = train_distribution(ds, Architecture(10, 0, 8), cfg)
    assert trace.final_loss < trace.records[0].loss / 10
    marginal = visible_marginal(bm, 2.0).as_dict()
    top11 = {s for s, _ in sorted(marginal.items(), key=lambda kv: -kv[1])[:11]}
    data_rows = {ds.row(d) for d in range(ds.num_rows)}
    assert top11 == data_rows


def test_train_function_approximator_xor(rng):
    ds = logic_gate("XOR")
    beta = 12.0
    cfg = TrainingConfig(eta=0.1, weight_decay=1e-5, momentum=0.6, max_steps=1000,
                         sampler=SamplerConfig(beta=beta), seed=0, loss_every=500)
    bm, trace = train_function_approximator(ds, Architecture(2, 1, 1), cfg)
    for d in range(ds.num_rows):
        cond = conditional_probability(bm, beta, ds.input_part(d))
        assert cond.prob(ds.output_part(d)) >= 0.75
    assert trace.final_loss < trace.records[0].loss


def test_trained_and_approximator_conditionals_rise_with_beta():
    ds = logic_gate("AND")
    cfg = TrainingConfig(eta=0.1, weight_decay=1e-5, momentum=0.6, max_steps=600,
                         sampler=SamplerConfig(beta=3.0), seed=1, loss_every=300)
    bm, _ = train_function_approximator(ds, Architecture(2, 1, 1), cfg)
    minima = []
    for beta in (1.0, 2.0, 4.0, 7.0, 10.0):
        conds = [conditional_probability(bm, beta, ds.input_part(d)).prob(ds.output_part(d))
                 for d in range(ds.num_rows)]
        minima.append(min(conds))
    assert all(b > a for a, b in zip(minima, minima[1:]))


def test_train_function_requires_matching_split():
    ds = logic_gate("AND")
    cfg = TrainingConfig(max_steps=2)
    with pytest.raises(ValueError):
        train_function_approximator(ds, Architecture(3, 0, 1), cfg)


def test_sampled_mode_training_runs(rng):
    ds = from_rows(logic_gate("OR").rows)
    cfg = TrainingConfig(eta=0.1, weight_decay=1e-5, momentum=0.6, max_steps=15,
                         gradient_mode=GradientMode.SAMPLED,
                         sampler=SamplerConfig(beta=2.0, num_reads=400, burn_in=50,
                                               thinning=2, backend=Backend.GIBBS,
                                               num_chains=4),
                         seed=0, loss_every=5)
    bm, trace = train_distribution(ds, Architecture(3, 0, 1), cfg)
    assert trace.num_steps == 15
    assert np.isfinite(trace.final_loss)
    assert all(r.sampler_calls_full == 1 for r in trace.records[1:])


GOLDEN_GIBBS = SamplerConfig(beta=3.0, num_reads=200, burn_in=20, thinning=2, num_chains=10,
                             backend=Backend.GIBBS, seed=20261018)
GOLDEN_RUNS = {
    # AND rows on a 3v2h bipartite machine, 12 reads: a row left out of the
    # full draw is redrawn clamped, the others reuse it (2, 1, 1, 2 redrawn)
    "auto": (
        [0.1384733131509024, -0.008423517553809774, -0.28951620622076263, 0.30815145182131687,
         0.3884943425175445],
        [0.2195868726253975, 0.12090449324140824, -0.3291834127620808, -0.415632201580931,
         0.58806932516073, 0.4061354228411313],
        [(0, 1.3802704094691625, float("nan"), 0, 0), (1, 1.2825989992671487, 0.050003746275076866, 1, 2),
         (2, 1.1393729586265933, 0.055005494002660235, 1, 1), (3, 0.9952823699950047, 0.06633932591760355, 1, 1),
         (4, 0.8795534913079702, 0.06480562833997704, 1, 2)],
    ),
    # AND rows on a 3v2h bipartite machine, every row redrawn clamped
    "always": (
        [0.15938196335663243, 0.03155670972069692, -0.25756889994913934, 0.23850409772042694,
         0.38947754075413377],
        [0.23738126071351418, 0.13069711309475657, -0.4119352380350874, -0.4248984582781193,
         0.5165917247424967, 0.41465818826272294],
        [(0, 1.3802704094691625, float("nan"), 0, 0), (1, 1.2729161562384057, 0.03650374627507686, 1, 4),
         (2, 1.130120382663093, 0.05440562900266023, 1, 4), (3, 0.9878339265816819, 0.06128802636968822, 1, 4),
         (4, 0.8711217523633998, 0.06318995446893039, 1, 4)],
    ),
    # the AND gate as a 2i1o1h function approximator
    "ncll": (
        [0.37460227317740236, -0.11388876089364308, 0.32040455474245044, 0.019464646894331993],
        [0.35900133134928625, 0.20488983668416919, 0.21903128434820657, -0.3375486243043825,
         -0.5412832648978092, 0.6065879228112416],
        [(0, 4.736555031908013, float("nan"), 0, 0), (1, 3.417784529794276, 0.20350465944655105, 0, 8),
         (2, 2.6114312129773873, 0.2641054200678872, 0, 8), (3, 2.4930838755825446, 0.2029632353864882, 0, 8),
         (4, 2.3031113435866697, 0.11577589494529493, 0, 8)],
    ),
}


def sampled_run(train, ds, arch, sampler, policy="auto"):
    """Final biases, couplings in pair order, and the trace without its
    ``seconds`` column, after four sampled steps."""
    cfg = TrainingConfig(max_steps=4, delta_theta_min=0.0, gradient_mode=GradientMode.SAMPLED,
                         sampler=sampler, seed=sampler.seed, clamped_resample=policy)
    bm, trace = train(ds, arch, cfg)
    rows = [(r.step, r.loss, r.delta_inf, r.sampler_calls_full, r.sampler_calls_clamped) for r in trace.records]
    return bm.biases, [v for _, v in sorted(bm.couplings.items())], rows


@pytest.mark.parametrize("kind", sorted(GOLDEN_RUNS))
def test_sampled_training_is_unchanged(kind):
    # parameters and trace as drawn one clamped subgraph per sampler call
    arch = Architecture(3, 0, 2, pairs=tuple((v, 3 + h) for v in range(3) for h in range(2)))
    if kind == "auto":
        got = sampled_run(train_distribution, from_rows(logic_gate("AND").rows), arch,
                          replace(GOLDEN_GIBBS, num_reads=12), "auto")
    elif kind == "always":
        got = sampled_run(train_distribution, from_rows(logic_gate("AND").rows), arch, GOLDEN_GIBBS, "always")
    else:
        got = sampled_run(train_function_approximator, logic_gate("AND"), Architecture(2, 1, 1), GOLDEN_GIBBS)
    for got_part, want_part in zip(got, GOLDEN_RUNS[kind]):
        np.testing.assert_array_equal(np.array(got_part, dtype=np.float64), np.array(want_part))


def test_training_config_json_round_trip():
    cfg = TrainingConfig(eta=0.05, weight_decay=1e-4, momentum=0.3, max_steps=77,
                         gradient_mode=GradientMode.SAMPLED,
                         sampler=SamplerConfig(beta=2.5, num_reads=123,
                                               backend=Backend.GIBBS, num_chains=3),
                         init_range=0.2, seed=9, loss_every=7)
    doc = cfg.to_dict()
    assert doc["gradient_mode"] == "sampled"
    assert doc["sampler"]["backend"] == "gibbs"
    restored = TrainingConfig.from_dict(doc)
    assert restored == cfg


def test_array_holding_dataclasses_compare_by_identity_and_hash():
    from isingbm.samplers import SampleSet

    bm = random_machine(2, 0, 1, np.random.default_rng(0))
    twin = BoltzmannMachine(2, 0, 1, bm.biases, bm.couplings)
    values = [
        (bm, twin),
        (logic_gate("AND"), logic_gate("AND")),
        (SampleSet(np.array([[0], [1]]), np.array([1, 2]), 1.0, 3, "t"),
         SampleSet(np.array([[0], [1]]), np.array([1, 2]), 1.0, 3, "t")),
        (GradientEstimate([0.5, 1.0], ((0, 1),), [0.25]), GradientEstimate([0.5, 1.0], ((0, 1),), [0.25])),
    ]
    for a, b in values:  # none of these raises: equality is identity
        assert a == a and a != b and hash(a) == hash(a)
        assert len({a, b}) == 2
    cfg = TrainingConfig(init_model=bm)
    assert cfg == TrainingConfig(init_model=bm) and cfg != TrainingConfig(init_model=twin)
    assert hash(cfg) == hash(TrainingConfig(init_model=bm))


# ---------------------------------------------------------------- trace


def test_trace_requires_increasing_steps():
    with pytest.raises(ValueError):
        TrainingTrace((TraceRecord(0, 1.0, 0.0, 0.0), TraceRecord(0, 0.5, 0.0, 0.1)))


def test_trace_csv_export(tmp_path):
    trace = TrainingTrace((TraceRecord(0, 1.5, float("nan"), 0.0),
                           TraceRecord(1, 0.5, 0.25, 0.1, 1, 3)))
    path = tmp_path / "trace.csv"
    trace.to_csv(path)
    lines = path.read_text().strip().splitlines()
    assert lines[0] == "step,loss,delta_inf,seconds,sampler_calls_full,sampler_calls_clamped"
    assert lines[1].endswith(",0,0")
    assert lines[2].startswith("1,0.5,0.25,")
    assert lines[2].endswith(",1,3")
