import numpy as np
import pytest

from isingbm.datasets import from_rows, load_fixture, logic_gate
from isingbm.errors import CapacityError
from isingbm.metrics import (
    DEFAULT_BETA_GRID,
    Distribution,
    conditional_probability,
    dataset_distribution,
    dkl_beta_derivatives,
    excited_mass_curve,
    fit_beta,
    ground_state_probability_curve,
    hellinger,
    kl_divergence,
    model_probability,
    negative_conditional_log_likelihood,
    visible_marginal,
)
from isingbm.metrics import _golden_section
from isingbm.model import Basis, BoltzmannMachine, all_energies, convert_basis, random_machine, state_index
from isingbm.samplers import Backend, SamplerConfig, exact_sample, gibbs_sample


def uniform_machine(n):
    return BoltzmannMachine(n, 0, 0, np.zeros(n), {})


# ---------------------------------------------------------------- Distribution


def test_distribution_validation():
    Distribution(((0,), (1,)), np.array([0.4, 0.6]))
    with pytest.raises(ValueError):
        Distribution(((0,), (0,)), np.array([0.5, 0.5]))
    with pytest.raises(ValueError):
        Distribution(((0,), (1,)), np.array([0.4, 0.7]))
    with pytest.raises(ValueError):
        Distribution(((0,), (1,)), np.array([-0.1, 1.1]))


# The divergences as they were computed on supports of tuples, before the
# support was keyed by state index: the reference for the index-keyed ones.


def ref_kl(q, p):
    p_map = dict(zip(q_support(p), p.probs))
    total = 0.0
    for state, q_v in zip(q_support(q), q.probs):
        if q_v == 0.0:
            continue
        p_v = p_map.get(state, 0.0)
        if p_v <= 0.0:
            return float("inf")
        total += q_v * np.log(q_v / p_v)
    return float(max(total, 0.0))


def ref_hellinger(p_s, p_a):
    a, b = dict(zip(q_support(p_s), p_s.probs)), dict(zip(q_support(p_a), p_a.probs))
    total = sum((np.sqrt(a.get(s, 0.0)) - np.sqrt(b.get(s, 0.0))) ** 2 for s in set(a) | set(b))
    return 0.5 * float(np.sqrt(total))


def q_support(dist):
    return [tuple(int(v) for v in s) for s in dist.support]


def random_distribution(rng, width, basis, size):
    lo, hi = basis.symbols
    rows = {tuple(int(v) for v in rng.choice([lo, hi], size=width)) for _ in range(size)}
    probs = rng.uniform(0.0, 1.0, size=len(rows))
    probs[rng.random(len(rows)) < 0.2] = 0.0  # some states carry no mass
    probs[0] += 0.1
    return Distribution(sorted(rows, key=lambda r: rng.random()), probs / probs.sum())


def test_divergences_match_tuple_reference_across_widths_and_bases(rng):
    for _ in range(200):
        width_a, width_b = (int(w) for w in rng.integers(0, 4, size=2))
        basis_a, basis_b = (list(Basis)[int(k)] for k in rng.integers(0, 2, size=2))
        a = random_distribution(rng, width_a, basis_a, int(rng.integers(1, 10)))
        b = random_distribution(rng, width_b, basis_b, int(rng.integers(1, 10)))
        for x, y in ((a, b), (b, a), (a, a)):
            assert kl_divergence(x, y) == pytest.approx(ref_kl(x, y), rel=1e-12, abs=1e-15)
            assert hellinger(x, y) == pytest.approx(ref_hellinger(x, y), rel=1e-12, abs=1e-15)


def test_divergences_of_disjoint_widths_and_bases():
    zero_one = Distribution(((0, 0), (0, 1), (1, 0)), np.array([0.2, 0.3, 0.5]))
    wider = Distribution(((0, 0, 0),), np.array([1.0]))
    assert kl_divergence(zero_one, wider) == float("inf")
    assert hellinger(zero_one, wider) == pytest.approx(1 / np.sqrt(2), abs=1e-15)  # the disjoint maximum
    plus_minus = Distribution(((-1, -1), (-1, 1), (1, -1)), np.array([0.2, 0.3, 0.5]))
    assert kl_divergence(zero_one, plus_minus) == float("inf")
    assert hellinger(zero_one, plus_minus) == pytest.approx(1 / np.sqrt(2), abs=1e-15)
    # the two alphabets share exactly one state, all ones, as equal tuples do
    ones_01 = Distribution(((1, 1), (0, 1)), np.array([0.5, 0.5]))
    ones_pm = Distribution(((1, 1), (-1, 1)), np.array([0.5, 0.5]))
    assert hellinger(ones_01, ones_pm) == pytest.approx(ref_hellinger(ones_01, ones_pm), abs=1e-15)
    assert ones_pm.prob((1, 1)) == 0.5 and ones_pm.prob((0, 1)) == 0.0


def test_distribution_keeps_order_and_answers_every_lookup():
    dist = Distribution([(1, 0), (0, 0), (1, 1)], [0.5, 0.25, 0.25])
    assert dist.support == ((1, 0), (0, 0), (1, 1))
    assert dist.probs.tolist() == [0.5, 0.25, 0.25]
    assert dist.as_dict() == {(1, 0): 0.5, (0, 0): 0.25, (1, 1): 0.25}
    assert dist.prob((1, 0)) == 0.5 and dist.prob([0, 0]) == 0.25
    assert dist.prob((0, 1)) == 0.0
    assert dist.prob((1,)) == 0.0 and dist.prob((1, 0, 0)) == 0.0  # wrong width
    assert dist.prob((-1, 0)) == 0.0 and dist.prob((2, 0)) == 0.0  # not a state of its alphabet
    with pytest.raises(ValueError):
        dist.probs[0] = 1.0
    with pytest.raises(ValueError, match="one width in one basis"):
        Distribution(((0,), (0, 1)), np.array([0.5, 0.5]))
    with pytest.raises(ValueError, match="one width in one basis"):
        Distribution(((0, 1), (-1, 1)), np.array([0.5, 0.5]))


def test_distribution_past_62_nodes():
    rows = [tuple([1] * 70), tuple([0] * 69 + [1]), tuple([1] + [0] * 69)]
    dist = Distribution(rows, [0.5, 0.25, 0.25])
    assert dist.support == tuple(rows)
    assert dist.prob(rows[2]) == 0.25 and dist.prob((0,) * 70) == 0.0
    assert kl_divergence(dist, dist) == 0.0
    with pytest.raises(ValueError, match="distinct"):
        Distribution([rows[0], rows[0]], [0.5, 0.5])


# ---------------------------------------------------------------- model probability


def test_model_probability_zero_params_uniform():
    dist = model_probability(uniform_machine(3), beta=2.0)
    assert np.allclose(dist.probs, 1 / 8)


def test_model_probability_high_temperature_limit(rng):
    bm = random_machine(3, 0, 1, rng)
    dist = visible_marginal(bm, beta=1e-9)
    assert np.max(np.abs(dist.probs - 1 / 8)) < 1e-6


def test_and_fixture_marginals_rank_gate_rows_first():
    bm = load_fixture("and_gate")
    dist = visible_marginal(bm, beta=3.0)
    ranked = sorted(dist.as_dict().items(), key=lambda kv: -kv[1])
    top4 = {state for state, _ in ranked[:4]}
    assert top4 == {(0, 0, 0), (0, 1, 0), (1, 0, 0), (1, 1, 1)}


def test_model_probability_capacity():
    with pytest.raises(CapacityError):
        model_probability(uniform_machine(25), beta=1.0)


def test_projection_over_arbitrary_subset(rng):
    bm = random_machine(2, 0, 2, rng)
    joint = model_probability(bm, 1.5).as_dict()
    sub = model_probability(bm, 1.5, projection=[3, 1]).as_dict()
    expect = {}
    for state, p in joint.items():
        key = (state[3], state[1])
        expect[key] = expect.get(key, 0.0) + p
    for key, p in expect.items():
        assert sub[key] == pytest.approx(p, abs=1e-12)


# ---------------------------------------------------------------- divergences


def test_kl_zero_iff_equal():
    q = Distribution(((0,), (1,)), np.array([0.3, 0.7]))
    assert kl_divergence(q, q) == 0.0


def test_kl_and_rows_vs_uniform_eight():
    q = dataset_distribution(logic_gate("AND"))
    p = model_probability(uniform_machine(3), beta=1.0)
    assert kl_divergence(q, p) == pytest.approx(np.log(2), rel=1e-12)


def test_kl_missing_support_is_infinite():
    q = Distribution(((0,), (1,)), np.array([0.5, 0.5]))
    p = Distribution(((0,),), np.array([1.0]))
    assert kl_divergence(q, p) == float("inf")


def test_kl_nonnegative(rng):
    for _ in range(20):
        bm = random_machine(3, 0, 1, rng)
        q = visible_marginal(bm, 1.0)
        p = visible_marginal(random_machine(3, 0, 1, rng), 1.0)
        assert kl_divergence(q, p) >= 0.0


def test_hellinger_values():
    a = Distribution(((0,), (1,)), np.array([0.5, 0.5]))
    assert hellinger(a, a) == 0.0
    mass_on_0 = Distribution(((0,),), np.array([1.0]))
    mass_on_1 = Distribution(((1,),), np.array([1.0]))
    assert hellinger(mass_on_0, mass_on_1) == pytest.approx(0.7071067811865476)
    b = Distribution(((0,), (1,)), np.array([0.75, 0.25]))
    assert hellinger(a, b) == pytest.approx(0.13052619222005159, abs=1e-15)
    assert hellinger(b, a) == hellinger(a, b)


# ---------------------------------------------------------------- conditionals


def test_conditional_probability_high_temperature_is_even():
    bm = load_fixture("and_gate")
    dist = conditional_probability(bm, 1e-9, (1, 0))
    assert dist.prob((0,)) == pytest.approx(0.5, abs=1e-6)


def test_and_fixture_conditional_sharpens_with_beta():
    bm = load_fixture("and_gate")
    dist = conditional_probability(bm, 10.0, (1, 1))
    assert dist.prob((1,)) > 0.9


def test_conditional_requires_output_nodes(rng):
    bm = random_machine(3, 0, 1, rng)
    with pytest.raises(ValueError):
        conditional_probability(bm, 1.0, (0, 1, 0))


def test_ncll_high_temperature_limit(rng):
    ds = logic_gate("OR")
    bm = random_machine(2, 1, 2, rng)
    value = negative_conditional_log_likelihood(bm, 1e-9, ds)
    assert value == pytest.approx(4 * np.log(2), abs=1e-5)


def test_ncll_matches_sum_of_conditionals():
    bm = load_fixture("adder_function")
    ds = __import__("isingbm").datasets.adder2()
    total = 0.0
    for d in range(ds.num_rows):
        cond = conditional_probability(bm, 5.0, ds.input_part(d))
        total -= np.log(cond.prob(ds.output_part(d)))
    assert negative_conditional_log_likelihood(bm, 5.0, ds) == pytest.approx(total, rel=1e-12)


def test_ncll_requires_split(rng):
    bm = random_machine(2, 1, 1, rng)
    ds = from_rows([(0, 0, 0), (1, 1, 1)])
    with pytest.raises(ValueError):
        negative_conditional_log_likelihood(bm, 1.0, ds)


# ---------------------------------------------------------------- temperature analysis


def test_beta_derivatives_zero_for_flat_machine():
    ds = from_rows([(0, 0), (1, 1)])
    first, second = dkl_beta_derivatives(uniform_machine(2), 1.0, ds)
    assert first == 0.0 and second == 0.0


@pytest.mark.parametrize("width", [2, 5])
def test_beta_derivatives_refuse_a_dataset_of_another_width(rng, width):
    bm = random_machine(2, 1, 2, rng)
    ds = from_rows([(0,) * width, (1,) * width])
    with pytest.raises(ValueError, match=f"dataset rows have {width} bits, machine has 3 visible nodes"):
        dkl_beta_derivatives(bm, 1.0, ds)


@pytest.mark.parametrize("beta", [0.7, 1.0, 2.5])
def test_beta_derivatives_match_finite_differences(rng, beta):
    bm = random_machine(3, 0, 2, rng)
    ds = from_rows([(0, 0, 0), (1, 0, 1), (1, 1, 1)], [0.2, 0.5, 0.3])
    q = dataset_distribution(ds)
    first, second = dkl_beta_derivatives(bm, beta, ds)
    h = 1e-4
    f = lambda b: kl_divergence(q, visible_marginal(bm, b))
    fd1 = (f(beta + h) - f(beta - h)) / (2 * h)
    fd2 = (f(beta + h) - 2 * f(beta) + f(beta - h)) / h**2
    assert first == pytest.approx(fd1, rel=1e-4)
    assert second == pytest.approx(fd2, rel=1e-3)


def test_second_derivative_nonnegative_where_model_matches_data(rng):
    # when the data IS the model marginal, the curvature reduces to a variance
    bm = random_machine(3, 0, 2, rng)
    beta0 = 1.4
    marginal = visible_marginal(bm, beta0)
    ds = from_rows(list(marginal.support), marginal.probs)
    _, second = dkl_beta_derivatives(bm, beta0, ds)
    assert second >= -1e-12


def test_ground_state_curve_flat_machine():
    curve = ground_state_probability_curve(uniform_machine(3), [0.5, 1.0, 2.0])
    assert all(p == 1.0 for _, p in curve)


def test_ground_state_curve_single_node_closed_form():
    bm = BoltzmannMachine(1, 0, 0, np.array([1.0]), {})
    curve = dict(ground_state_probability_curve(bm, [1.0, 2.0]))
    assert curve[1.0] == pytest.approx(0.7310585786300049)
    assert curve[2.0] == pytest.approx(0.8807970779778824)
    assert curve[2.0] > curve[1.0]


def test_ground_state_curve_xor_fixture_increases_to_one():
    bm = load_fixture("xor_ground_state")
    curve = ground_state_probability_curve(bm, np.geomspace(0.1, 10, 30))
    probs = [p for _, p in curve]
    assert np.all(np.diff(probs) > 0)
    assert probs[-1] > 0.85


def test_ground_state_log_derivative_identity(rng):
    # d ln P(ground) / d beta == E[E] - E_min, against finite differences
    from isingbm.model import all_energies

    for _ in range(5):
        bm = random_machine(3, 0, 2, rng)
        E = all_energies(bm)
        beta = 1.2
        w = np.exp(-beta * (E - E.min()))
        p = w / w.sum()
        analytic = float(p @ E - E.min())
        h = 1e-5
        log_p = []
        for b in (beta - h, beta + h):
            ww = np.exp(-b * (E - E.min()))
            log_p.append(np.log(ww[np.argmin(E)] / ww.sum()))
        fd = (log_p[1] - log_p[0]) / (2 * h)
        assert analytic == pytest.approx(fd, rel=1e-4)
        assert analytic >= 0.0


# ---------------------------------------------------------------- beta fitting


def test_fit_beta_exhaustive_recovery(rng):
    for _ in range(5):
        bm = random_machine(3, 0, 2, rng)
        beta_true = float(rng.uniform(0.5, 5.0))
        ss = exact_sample(bm, SamplerConfig(beta=beta_true, exhaustive=True))
        beta_star, curve = fit_beta(ss, bm)
        assert beta_star == pytest.approx(beta_true, rel=2e-3)
        assert len(curve) == len(DEFAULT_BETA_GRID)


def test_fit_beta_single_node_self_consistency():
    bm = BoltzmannMachine(1, 0, 0, np.array([1.0]), {})
    ss = exact_sample(bm, SamplerConfig(beta=2.0, num_reads=1_000_000, seed=3))
    beta_star, _ = fit_beta(ss, bm)
    assert beta_star == pytest.approx(2.0, abs=0.1)


def test_fit_beta_refuses_a_mismatched_set_before_building_the_table(rng):
    bm = random_machine(3, 0, 2, rng)
    for ss in (exact_sample(random_machine(2, 0, 1, rng), SamplerConfig(num_reads=10)),
               exact_sample(convert_basis(bm), SamplerConfig(num_reads=10))):
        with pytest.raises(ValueError, match="does not match"):
            fit_beta(ss, bm)
    assert "_energy_table" not in bm.__dict__


def ref_fit_beta_loop_alignment(sample_set, bm):
    """fit_beta as it aligned the sample set: one state_index per state."""
    E = all_energies(bm)
    E = E - E.min()
    emp = np.zeros(E.shape[0])
    total = float(sample_set.counts.sum())
    for state, count in zip(sample_set.states, sample_set.counts):
        emp[state_index(state, bm.basis)] += count / total
    sqrt_emp = np.sqrt(emp)

    def distance(beta):
        w = np.exp(-beta * E)
        p = w / w.sum()
        return 0.5 * float(np.sqrt(np.sum((sqrt_emp - np.sqrt(p)) ** 2)))

    betas = DEFAULT_BETA_GRID
    curve = [(float(b), distance(float(b))) for b in betas]
    values = np.array([v for _, v in curve])
    best = int(np.argmin(values))
    lo, hi = betas[max(best - 1, 0)], betas[min(best + 1, len(betas) - 1)]
    beta_star = _golden_section(distance, lo, hi, tol=1e-4 * float(hi))
    if distance(beta_star) > values[best]:
        beta_star = float(betas[best])
    return float(beta_star), curve


@pytest.mark.parametrize("basis", list(Basis))
def test_fit_beta_on_gibbs_samples_is_bit_identical_to_loop_alignment(rng, basis):
    bm = random_machine(3, 0, 3, rng, basis=basis)
    ss = gibbs_sample(bm, SamplerConfig(beta=2.0, num_reads=3000, burn_in=50, thinning=2, seed=5,
                                        num_chains=4, backend=Backend.GIBBS))
    assert 1 < ss.states.shape[0] < 1 << 6
    assert fit_beta(ss, bm) == ref_fit_beta_loop_alignment(ss, bm)


def test_fit_beta_refuses_a_sample_set_of_another_machine(rng):
    bm = random_machine(3, 0, 1, rng)
    ss = exact_sample(random_machine(3, 0, 2, rng), SamplerConfig(num_reads=50))
    with pytest.raises(ValueError, match="nodes and basis"):
        fit_beta(ss, bm)


def test_fit_beta_empty_grid():
    bm = BoltzmannMachine(1, 0, 0, np.array([1.0]), {})
    ss = exact_sample(bm, SamplerConfig(beta=2.0, exhaustive=True))
    with pytest.raises(ValueError):
        fit_beta(ss, bm, beta_grid=[])


def test_excited_mass_strictly_decreasing(rng):
    bm = random_machine(3, 0, 2, rng)
    mass = excited_mass_curve(bm, np.geomspace(0.1, 10, 40))
    assert np.all(np.diff(mass) < 0)
