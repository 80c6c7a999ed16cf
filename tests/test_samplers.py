import numpy as np
import pytest

from isingbm.metrics import hellinger, model_probability
from isingbm.model import Basis, BoltzmannMachine, random_machine
from isingbm.samplers import (
    Backend,
    SampleSet,
    SamplerConfig,
    empirical_distribution,
    exact_sample,
    gibbs_sample,
    load_sample_set,
    merge_sample_sets,
    save_sample_set,
)


def single_node(bias=1.0):
    return BoltzmannMachine(1, 0, 0, np.array([bias]), {})


# ---------------------------------------------------------------- containers


def test_sampler_config_validation():
    with pytest.raises(ValueError):
        SamplerConfig(beta=0.0)
    with pytest.raises(ValueError):
        SamplerConfig(num_reads=0)
    with pytest.raises(ValueError):
        SamplerConfig(thinning=0)


def test_sample_set_invariants():
    with pytest.raises(ValueError):  # counts must sum to num_reads
        SampleSet(np.array([[0], [1]]), np.array([2, 2]), 1.0, 5, "t")
    with pytest.raises(ValueError):  # states must be distinct
        SampleSet(np.array([[0], [0]]), np.array([2, 3]), 1.0, 5, "t")
    with pytest.raises(ValueError):  # integer counts
        SampleSet(np.array([[0]]), np.array([2.5]), 1.0, 2, "t")
    SampleSet(np.array([[0], [1]]), np.array([0.5, 0.5]), 1.0, 0, "t", exhaustive=True)


# ---------------------------------------------------------------- exact backend


def test_exact_exhaustive_zero_params_uniform():
    bm = BoltzmannMachine(3, 0, 0, np.zeros(3), {})
    ss = exact_sample(bm, SamplerConfig(beta=4.0, exhaustive=True))
    assert ss.exhaustive
    assert ss.states.shape == (8, 3)
    assert np.allclose(ss.counts, 1 / 8)
    assert ss.counts.sum() == pytest.approx(1.0, abs=1e-12)


def test_exact_exhaustive_single_node_closed_form():
    ss = exact_sample(single_node(), SamplerConfig(beta=2.0, exhaustive=True))
    table = {tuple(s): c for s, c in zip(ss.states.tolist(), ss.counts)}
    assert table[(0,)] == pytest.approx(0.8807970779778824)
    assert table[(1,)] == pytest.approx(0.1192029220221176)


def test_exact_sampling_deterministic(rng):
    bm = random_machine(3, 0, 1, rng)
    cfg = SamplerConfig(beta=1.5, num_reads=500, seed=9)
    a, b = exact_sample(bm, cfg), exact_sample(bm, cfg)
    assert np.array_equal(a.states, b.states)
    assert np.array_equal(a.counts, b.counts)
    assert int(a.counts.sum()) == 500


def test_exact_xor_fixture_visible_marginal_concentrates_on_gate_rows():
    from isingbm.datasets import load_fixture

    bm = load_fixture("xor_ground_state")
    xor_rows = [(0, 0, 0), (0, 1, 1), (1, 0, 1), (1, 1, 0)]
    # the gate rows dominate at moderate beta and approach 1/4 when cold
    for beta, tol in ((3.0, None), (10.0, 0.035)):
        ss = exact_sample(bm, SamplerConfig(beta=beta, exhaustive=True))
        marginal = empirical_distribution(ss, projection=range(3)).as_dict()
        floor = min(marginal[r] for r in xor_rows)
        for other, p in marginal.items():
            if other not in xor_rows:
                assert p < floor
        if tol is not None:
            for row in xor_rows:
                assert marginal[row] == pytest.approx(0.25, abs=tol)


# ---------------------------------------------------------------- Gibbs backend


def test_gibbs_near_zero_beta_is_fair_coin():
    bm = single_node(bias=5.0)
    ss = gibbs_sample(bm, SamplerConfig(beta=1e-9, num_reads=20000, seed=1,
                                        burn_in=50, thinning=1, num_chains=10))
    p1 = empirical_distribution(ss).prob((1,))
    assert p1 == pytest.approx(0.5, abs=0.02)


def test_gibbs_single_node_matches_closed_form():
    ss = gibbs_sample(single_node(), SamplerConfig(beta=2.0, num_reads=100_000, seed=7,
                                                   burn_in=200, thinning=5, num_chains=20))
    p1 = empirical_distribution(ss).prob((1,))
    expected = np.exp(-2) / (1 + np.exp(-2))
    se = np.sqrt(expected * (1 - expected) / 100_000)
    assert abs(p1 - expected) <= 3 * se


def test_gibbs_deterministic(rng):
    bm = random_machine(2, 0, 2, rng)
    cfg = SamplerConfig(beta=1.0, num_reads=400, seed=5, burn_in=100, thinning=2, num_chains=4)
    a, b = gibbs_sample(bm, cfg), gibbs_sample(bm, cfg)
    assert np.array_equal(a.states, b.states) and np.array_equal(a.counts, b.counts)


def test_gibbs_on_a_machine_with_no_nodes(rng):
    # a fully clamped subgraph: one empty state carrying every read, as the
    # exact backend returns
    empty = BoltzmannMachine(0, 0, 0, np.zeros(0), {})
    cfg = SamplerConfig(num_reads=7, burn_in=3, thinning=2, num_chains=3)
    ss = gibbs_sample(empty, cfg)
    exact = exact_sample(empty, cfg)
    assert ss.states.shape == exact.states.shape == (1, 0)
    assert ss.counts.tolist() == exact.counts.tolist() == [7.0]

    from isingbm.datasets import from_rows
    from isingbm.training import GradientMode, grad_dkl

    bm = random_machine(2, 0, 0, rng)
    counter: dict = {}
    grad = grad_dkl(bm, from_rows([(0, 1), (1, 1)]), GradientMode.SAMPLED,
                    SamplerConfig(num_reads=20, burn_in=5, thinning=1, backend=Backend.GIBBS),
                    clamped_resample="always", call_counter=counter)
    assert counter == {"full": 1, "clamped": 2}
    assert np.all(np.isfinite(grad.to_vector()))


def test_gibbs_matches_exact_distribution(rng):
    bm = random_machine(6, 0, 0, rng)
    exact = model_probability(bm, 1.0)
    ss = gibbs_sample(bm, SamplerConfig(beta=1.0, num_reads=100_000, seed=3,
                                        burn_in=500, thinning=10, num_chains=50))
    assert hellinger(empirical_distribution(ss), exact) <= 0.02


def test_gibbs_plus_minus_basis(rng):
    bm = random_machine(3, 0, 0, rng, basis=Basis.PLUS_MINUS)
    exact = model_probability(bm, 1.0)
    ss = gibbs_sample(bm, SamplerConfig(beta=1.0, num_reads=50_000, seed=2,
                                        burn_in=300, thinning=5, num_chains=25))
    assert set(np.unique(ss.states)) <= {-1, 1}
    assert hellinger(empirical_distribution(ss), exact) <= 0.03


def test_gibbs_error_shrinks_as_reads_double(rng):
    # median over seeds of the distance to the exact table is nonincreasing
    bm = random_machine(4, 0, 0, rng)
    exact = model_probability(bm, 1.0)
    medians = []
    for reads in (1000, 4000, 16000):
        dists = []
        for seed in range(5):
            ss = gibbs_sample(bm, SamplerConfig(beta=1.0, num_reads=reads, seed=seed,
                                                burn_in=200, thinning=5, num_chains=10))
            dists.append(hellinger(empirical_distribution(ss), exact))
        medians.append(np.median(dists))
    assert medians[2] < medians[0]
    assert medians[1] <= medians[0] * 1.25  # allow seed noise on the middle point


# ---------------------------------------------------------------- derived


def test_empirical_distribution_simple_counts():
    ss = SampleSet(np.array([[0, 1]]), np.array([10]), 1.0, 10, "t")
    assert empirical_distribution(ss).prob((0, 1)) == 1.0
    ss2 = SampleSet(np.array([[0, 0], [1, 1]]), np.array([3, 1]), 1.0, 4, "t")
    dist = empirical_distribution(ss2)
    assert dist.prob((0, 0)) == 0.75 and dist.prob((1, 1)) == 0.25


def test_empirical_of_exhaustive_equals_model_probability(rng):
    bm = random_machine(2, 0, 2, rng)
    ss = exact_sample(bm, SamplerConfig(beta=1.7, exhaustive=True))
    emp = empirical_distribution(ss, projection=range(2))
    exact = model_probability(bm, 1.7, projection=range(2))
    for state, p in exact.as_dict().items():
        assert emp.prob(state) == pytest.approx(p, abs=1e-12)


def test_merge_sample_sets_order_insensitive(rng):
    bm = random_machine(2, 0, 1, rng)
    parts = [exact_sample(bm, SamplerConfig(beta=1.0, num_reads=100, seed=s)) for s in range(3)]
    merged_a = merge_sample_sets(parts)
    merged_b = merge_sample_sets(parts[::-1])
    assert np.array_equal(merged_a.states, merged_b.states)
    assert np.array_equal(merged_a.counts, merged_b.counts)
    assert merged_a.num_reads == 300


def test_sample_set_round_trip(tmp_path, rng):
    bm = random_machine(2, 0, 1, rng)
    for exhaustive in (False, True):
        ss = exact_sample(bm, SamplerConfig(beta=1.3, num_reads=50, seed=1, exhaustive=exhaustive))
        path = tmp_path / f"s{exhaustive}.json"
        save_sample_set(ss, path)
        loaded = load_sample_set(path)
        assert loaded.beta == ss.beta
        assert loaded.exhaustive == ss.exhaustive
        assert np.array_equal(loaded.states, ss.states)
        assert np.allclose(loaded.counts, ss.counts)
