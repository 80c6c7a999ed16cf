"""The exact engine: the split energy table, its per-machine cache, ground
ties and conditionals read off the table, each checked against the naive
path it replaces."""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from isingbm.datasets import adder2, from_rows, load_fixture, two_phase
from isingbm.errors import CapacityError
from isingbm.metrics import (
    boltzmann_probabilities,
    conditional_probability,
    dataset_distribution,
    dkl_beta_derivatives,
    excited_mass_curve,
    fit_beta,
    kl_divergence,
    model_probability,
    visible_marginal,
)
from isingbm.model import (
    Basis,
    BoltzmannMachine,
    all_energies,
    clamp_visible,
    complete_pairs,
    convert_basis,
    energies,
    ground_set,
    ground_states,
    model_from_dict,
    model_to_dict,
    prefix_energies,
    _row_indices,
    cached_state_table,
    random_machine,
    state_index,
    state_matrix,
)
from isingbm.samplers import SampleSet, SamplerConfig, exact_sample
from isingbm.training import GradientMode, _estimate, _moments, grad_dkl, grad_ncll


def naive_table(bm):
    return energies(bm, state_matrix(bm.num_nodes, bm.basis))


# ---------------------------------------------------------------- split table


@st.composite
def machines(draw):
    n = draw(st.integers(1, 12))
    basis = draw(st.sampled_from(list(Basis)))
    pairs = complete_pairs(n)
    if draw(st.booleans()):  # sparse: a random subset of the pairs
        pairs = [p for p, keep in zip(pairs, draw(st.lists(st.booleans(), min_size=len(pairs),
                                                             max_size=len(pairs)))) if keep]
    values = st.floats(-2.0, 2.0, allow_nan=False)
    biases = draw(st.lists(values, min_size=n, max_size=n))
    couplings = {p: draw(values) for p in pairs}
    n_h = draw(st.integers(0, n))
    return BoltzmannMachine(n - n_h, 0, n_h, np.array(biases), couplings, basis=basis)


@settings(max_examples=150, deadline=None)
@given(machines())
def test_split_table_matches_naive_energies(bm):
    E = all_energies(bm)
    assert E.shape == (1 << bm.num_nodes,)
    np.testing.assert_allclose(E, naive_table(bm), rtol=0, atol=1e-12)


def test_split_table_21_nodes_on_random_rows(rng):
    bm = random_machine(9, 4, 8, rng, basis=Basis.PLUS_MINUS)
    rows = rng.integers(0, 1 << 21, size=4096)
    spins = 2 * ((rows[:, None] >> np.arange(20, -1, -1)) & 1) - 1
    expected = energies(bm, spins)
    np.testing.assert_allclose(all_energies(bm)[rows], expected, rtol=0, atol=1e-12)


# ---------------------------------------------------------------- cache


def test_table_is_cached_read_only_and_capped(rng, enumeration_cap):
    bm = random_machine(4, 0, 3, rng)
    E = all_energies(bm)
    assert all_energies(bm) is E
    assert not E.flags.writeable
    with pytest.raises(ValueError):
        E[0] = 1.0
    fresh = bm.with_parameters(bm.biases + 0.5, bm.couplings)
    E2 = all_energies(fresh)
    assert E2 is not E
    np.testing.assert_allclose(E2, naive_table(fresh), rtol=0, atol=1e-12)
    enumeration_cap(6)
    with pytest.raises(CapacityError):
        all_energies(bm)


# ---------------------------------------------------------------- ground ties


def symmetric_machine(n, b, c):
    return BoltzmannMachine(n, 0, 0, np.full(n, b), {p: c for p in complete_pairs(n)})


def test_ground_ties_survive_split_rounding():
    # Every 3-of-9 state is a minimizer; the split sum rounds some of them
    # apart, and the recheck against ``energies`` must restore all 84.
    bm = symmetric_machine(9, -0.871571125375618, 0.35836306604272994)
    E = naive_table(bm)
    e_min = E.min()
    ground, g_min, gaps = ground_set(bm)
    assert np.array_equal(ground, np.flatnonzero(E == e_min))
    assert len(ground) == 84 and g_min == e_min
    assert np.all(gaps > 0)
    states, s_min = ground_states(bm)
    assert len(states) == 84 and s_min == e_min
    assert all(sum(s.values) == 3 for s in states)

    betas = np.array([1.0, 10.0, 100.0])
    ref_gaps = E[E != e_min] - e_min
    ref = np.array([np.exp(-b * ref_gaps).sum() / (84 + np.exp(-b * ref_gaps).sum()) for b in betas])
    np.testing.assert_allclose(excited_mass_curve(bm, betas), ref, rtol=1e-12, atol=0)


def naive_ground_set(bm):
    """The rule of ``ground_set`` applied to the naive table: candidates near
    its minimum, rechecked together in one ``energies`` batch. Comparing
    exact ties between batches of different sizes would test BLAS blocking,
    not the split table."""
    E = naive_table(bm)
    scale = float(np.abs(bm.biases).sum() + np.abs(bm.coupling_matrix).sum())
    candidates = np.flatnonzero(E <= E.min() + 1e-12 * max(scale, 1.0))
    exact = energies(bm, state_matrix(bm.num_nodes, bm.basis)[candidates])
    return candidates[exact == exact.min()], float(exact.min()), E


@pytest.mark.parametrize("seed", range(5))
def test_ground_set_equals_naive_ties_on_symmetric_machines(seed):
    rng = np.random.default_rng(seed)
    for _ in range(8):
        symmetric = symmetric_machine(int(rng.integers(2, 11)), rng.uniform(-1, 1), rng.uniform(-1, 1))
        # nudging the first and last biases apart splits the ties, so the
        # states between them are near-minimal candidates but not ground
        nudge = np.zeros(symmetric.num_nodes)
        nudge[0], nudge[-1] = 1e-12, -1e-12
        for bm in (symmetric, symmetric.with_parameters(symmetric.biases + nudge, symmetric.couplings)):
            ground, e_min, gaps = ground_set(bm)
            ref_ground, ref_min, E = naive_ground_set(bm)
            assert np.array_equal(ground, ref_ground)
            assert e_min == ref_min
            np.testing.assert_allclose(gaps, np.delete(E, ref_ground) - ref_min, rtol=1e-12, atol=1e-13)
            assert gaps.tobytes() == copied_ground_gaps(bm).tobytes()


def copied_ground_gaps(bm):
    """``ground_set``'s gaps by the formula that copies the table twice: every
    gap, the candidates' overwritten by their rechecked energies, then the
    ground states deleted."""
    E = all_energies(bm)
    scale = float(np.abs(bm.biases).sum() + np.abs(bm.coupling_matrix).sum())
    candidates = np.flatnonzero(E <= E.min() + 1e-12 * max(scale, 1.0))
    exact = energies(bm, state_matrix(bm.num_nodes, bm.basis)[candidates])
    gaps = E - exact.min()
    gaps[candidates] = exact - exact.min()
    return np.delete(gaps, candidates[exact == exact.min()])


# ---------------------------------------------------------------- conditionals


def clamped_reference(bm, beta, v_input):
    reduced, _ = clamp_visible(bm, dict(zip(range(bm.num_visible_input), v_input)))
    return model_probability(reduced, beta, range(bm.num_visible_output))


@pytest.mark.parametrize("beta", [0.3, 1.0, 5.0, 20.0])
def test_conditionals_match_clamp_and_enumerate_on_adder(beta):
    bm = load_fixture("adder_function")
    ds = adder2()
    for d in range(ds.num_rows):
        got = conditional_probability(bm, beta, ds.input_part(d))
        ref = clamped_reference(bm, beta, ds.input_part(d))
        assert got.support == ref.support
        np.testing.assert_allclose(got.probs, ref.probs, rtol=0, atol=1e-12)


def test_conditionals_match_clamp_and_enumerate_on_random_pm1(rng):
    for _ in range(10):
        m_i, m_o, n_h = (int(k) for k in rng.integers(1, 4, size=3))
        bm = random_machine(m_i, m_o, n_h, rng, scale=1.5, basis=Basis.PLUS_MINUS)
        beta = float(rng.uniform(0.1, 8.0))
        v_input = tuple(int(v) for v in rng.choice([-1, 1], size=m_i))
        got = conditional_probability(bm, beta, v_input)
        ref = clamped_reference(bm, beta, v_input)
        assert got.support == ref.support
        np.testing.assert_allclose(got.probs, ref.probs, rtol=0, atol=1e-12)


@pytest.mark.parametrize("beta", [0.3, 5.0])
def test_conditionals_past_the_cap_enumerate_only_the_input_slice(beta, enumeration_cap):
    # 17 nodes, 4 of them inputs: with cap 13 the whole table is past the
    # cap, but each input's 2^13 slice is not.
    bm = load_fixture("adder_function")
    ds = adder2()
    enumeration_cap(13)
    for d in range(ds.num_rows):
        got = conditional_probability(bm, beta, ds.input_part(d))
        ref = clamped_reference(bm, beta, ds.input_part(d))
        assert got.support == ref.support
        np.testing.assert_allclose(got.probs, ref.probs, rtol=0, atol=1e-12)
    enumeration_cap(12)
    with pytest.raises(CapacityError):
        conditional_probability(bm, beta, ds.input_part(0))


# 25 nodes, no inputs: one past the default cap. Its table is never built.
_PAST_CAP = random_machine(0, 2, 23, np.random.default_rng(25))


@pytest.mark.parametrize("call", [
    lambda bm, ds: visible_marginal(bm, 1.0),
    lambda bm, ds: dkl_beta_derivatives(bm, 1.0, ds),
    lambda bm, ds: conditional_probability(bm, 1.0, ()),
    lambda bm, ds: fit_beta(SampleSet(np.zeros((1, 25)), np.ones(1), 1.0, 1, "none"), bm),
    lambda bm, ds: exact_sample(bm, SamplerConfig(num_reads=5)),
    lambda bm, ds: grad_dkl(bm, ds, GradientMode.EXACT, SamplerConfig()),
    lambda bm, ds: ground_set(bm),
], ids=["visible_marginal", "dkl_beta_derivatives", "conditional_probability", "fit_beta",
        "exact_sample", "grad_dkl", "ground_set"])
def test_exact_entry_points_refuse_a_machine_past_the_default_cap(call):
    with pytest.raises(CapacityError, match="25 nodes exceeds the enumeration cap of 24"):
        call(_PAST_CAP, from_rows([(0, 1), (1, 1)]))


@pytest.mark.parametrize("basis", list(Basis))
def test_prefix_energies_match_the_table_slice(rng, basis, enumeration_cap):
    bm = random_machine(3, 2, 4, rng, scale=1.5, basis=basis)
    table = naive_table(bm).reshape(1 << 3, -1)
    enumeration_cap(6)
    for v_input in state_matrix(3, basis):
        got = prefix_energies(bm, v_input)
        np.testing.assert_allclose(got, table[state_index(v_input, basis)], rtol=0, atol=1e-12)


@pytest.mark.parametrize("v_input", [(0, 1, 1), (1, 2), (-1, 0), ()])
def test_conditional_rejects_bad_input(rng, v_input):
    bm = random_machine(2, 1, 1, rng)
    with pytest.raises(ValueError):
        conditional_probability(bm, 1.0, v_input)


def test_conditional_rejects_zero_one_values_on_pm1_machine(rng):
    bm = random_machine(2, 1, 1, rng, basis=Basis.PLUS_MINUS)
    with pytest.raises(ValueError):
        conditional_probability(bm, 1.0, (0, 1))


# ---------------------------------------------------------------- one weighting per beta
#
# The references are the formulas each quantity used before the weighting:
# an exp of the whole table per quantity, and one per conditional. The
# routes that now call ``model._row_pass`` (the Boltzmann probabilities,
# exact draws, fit_beta's distance and the exact gradients) are pinned bit
# for bit to the inline expressions they replace.


def ref_visible_marginal(bm, beta):
    E = naive_table(bm)
    w = np.exp(-beta * (E - E.min()))
    return (w / w.sum()).reshape(1 << bm.num_visible, -1).sum(axis=1)


def ref_dkl_beta_derivatives(bm, beta, ds):
    E = naive_table(bm)
    w = np.exp(-beta * (E - E.min()))
    probs = w / w.sum()
    mean_E = float(probs @ E)
    var_E = float(probs @ (E - mean_E) ** 2)
    E_by_visible = E.reshape(1 << bm.num_visible, 1 << bm.num_hidden)
    first, second = -mean_E, 0.0
    for d in range(ds.num_rows):
        q_v = float(ds.weights[d])
        row = E_by_visible[state_index(ds.row(d), bm.basis)]
        w_row = np.exp(-beta * (row - row.min()))
        p_cond = w_row / w_row.sum()
        cond_mean = float(p_cond @ row)
        cond_var = float(p_cond @ (row - cond_mean) ** 2)
        first += q_v * cond_mean
        second += q_v * (var_E - cond_var)
    return first, second


def ref_conditional(bm, beta, v_input):
    E = naive_table(bm).reshape(1 << bm.num_visible_input, -1)[state_index(v_input, bm.basis)]
    w = np.exp(-beta * (E - E.min())).reshape(1 << bm.num_visible_output, -1).sum(axis=1)
    return w / w.sum()


def ref_boltzmann(E, beta):
    w = np.exp(-beta * (E - E.min(axis=-1, keepdims=True)))
    return w / w.sum(axis=-1, keepdims=True)


def ref_boltzmann_probabilities(bm, beta):
    E = all_energies(bm)
    w = np.exp(-beta * (E - E.min()))
    return w / w.sum()


def ref_fit_curve(ss, bm, betas):
    E = all_energies(bm)
    E = E - E.min()
    emp = np.bincount(_row_indices(ss.states), weights=ss.counts / float(ss.counts.sum()),
                      minlength=E.shape[0])
    curve = []
    for beta in betas:
        w = np.exp(-beta * E)
        p = w / w.sum()
        curve.append(0.5 * float(np.sqrt(np.sum((np.sqrt(emp) - np.sqrt(p)) ** 2))))
    return curve


def ref_grad_dkl(bm, ds, beta):
    V = ds.rows.astype(np.float64)
    n, m, basis = bm.num_nodes, bm.num_visible, bm.basis
    E = all_energies(bm)
    h = n // 2
    model = _moments(ref_boltzmann(E, beta).reshape(1 << h, -1),
                     cached_state_table(h, basis), cached_state_table(n - h, basis))
    E_rows = E.reshape(1 << m, -1)[[state_index(v, basis) for v in V]]
    data = _moments(ds.weights[:, None] * ref_boltzmann(E_rows, beta), V, cached_state_table(n - m, basis))
    return _estimate(bm, data[0] - model[0], data[1] - model[1])


def ref_grad_ncll(bm, ds, beta):
    V = ds.rows.astype(np.float64)
    m_i, m_o, basis = bm.num_visible_input, bm.num_visible_output, bm.basis
    S_out, S_hidden = cached_state_table(m_o, basis), cached_state_table(bm.num_hidden, basis)
    mean, second = np.zeros(bm.num_nodes), np.zeros((bm.num_nodes, bm.num_nodes))
    for v in V:
        E = prefix_energies(bm, v[:m_i]).reshape(1 << m_o, -1)
        W = np.vstack([ref_boltzmann(E[state_index(v[m_i:], basis)], beta),
                       -ref_boltzmann(E.reshape(-1), beta).reshape(E.shape)])
        S_a = np.vstack([v, np.hstack([np.broadcast_to(v[:m_i], (1 << m_o, m_i)), S_out])])
        row_mean, row_second = _moments(W, S_a, S_hidden)
        mean += row_mean
        second += row_second
    mean[:m_i] = 0.0
    second[:m_i, :m_i] = 0.0
    return _estimate(bm, mean, second)


def ref_kl(q_rows, q_probs, p_probs, basis):
    total = 0.0
    for row, q_v in zip(q_rows, q_probs):
        p_v = p_probs[state_index(row, basis)]
        if p_v <= 0.0:
            return float("inf")
        total += q_v * np.log(q_v / p_v)
    return max(total, 0.0)


def random_split_machine(rng, basis):
    m_i, m_o = (int(k) for k in rng.integers(1, 4, size=2))
    n_h = int(rng.integers(0, 5))
    return random_machine(m_i, m_o, n_h, rng, scale=2.0, basis=basis)


@pytest.mark.parametrize("basis", list(Basis))
@pytest.mark.parametrize("beta", [0.3, 1.0, 5.0, 20.0, 50.0])
def test_weighted_quantities_match_the_formulas_they_replace(basis, beta):
    rng = np.random.default_rng(int(beta * 10) + (basis is Basis.PLUS_MINUS))
    for trial in range(6):
        bm = random_split_machine(rng, basis)
        if trial == 0:  # always one machine without hidden nodes
            bm = random_machine(2, 2, 0, rng, basis=basis)
        m = bm.num_visible
        V = state_matrix(m, basis)
        picked = rng.choice(1 << m, size=min(1 << m, 5), replace=False)
        ds = from_rows(V[picked].tolist(), rng.uniform(0.1, 1.0, size=len(picked)),
                       io_split=(bm.num_visible_input, bm.num_visible_output))

        marginal = visible_marginal(bm, beta)
        ref = ref_visible_marginal(bm, beta)
        assert np.all(np.isfinite(marginal.probs))
        np.testing.assert_allclose(marginal.probs, ref, rtol=0, atol=1e-12)

        d1, d2 = dkl_beta_derivatives(bm, beta, ds)
        r1, r2 = ref_dkl_beta_derivatives(bm, beta, ds)
        assert np.isfinite(d1) and np.isfinite(d2)
        assert abs(d1 - r1) <= 1e-12 and abs(d2 - r2) <= 1e-12

        kl = kl_divergence(dataset_distribution(ds), marginal)
        ref_value = ref_kl(ds.rows, ds.weights, ref, basis)
        assert kl == ref_value or abs(kl - ref_value) <= 1e-12

        for v_input in state_matrix(bm.num_visible_input, basis):
            cond = conditional_probability(bm, beta, tuple(v_input))
            assert np.all(np.isfinite(cond.probs))
            np.testing.assert_allclose(cond.probs, ref_conditional(bm, beta, v_input), rtol=0, atol=1e-12)

        probs = boltzmann_probabilities(bm, beta)
        np.testing.assert_array_equal(probs, ref_boltzmann_probabilities(bm, beta))
        cfg = SamplerConfig(beta=beta, num_reads=500, seed=trial)
        ss = exact_sample(bm, cfg)
        draws = np.random.default_rng(trial).choice(probs.shape[0], size=500, p=probs)
        idx, counts = np.unique(draws, return_counts=True)
        np.testing.assert_array_equal(ss.states, state_matrix(bm.num_nodes, basis)[idx])
        np.testing.assert_array_equal(ss.counts, counts)
        grid = [0.5 * beta, beta, 2.0 * beta]
        _, curve = fit_beta(ss, bm, grid)
        np.testing.assert_array_equal([d for _, d in curve], ref_fit_curve(ss, bm, grid))

        # the exact step shifts each row by its own minimum, the formulas the
        # whole table by one: the gradients agree up to rounding
        exact = GradientMode.EXACT
        np.testing.assert_allclose(grad_dkl(bm, ds, exact, cfg).to_vector(),
                                   ref_grad_dkl(bm, ds, beta).to_vector(), rtol=0, atol=1e-14)
        np.testing.assert_allclose(grad_ncll(bm, ds, exact, cfg).to_vector(),
                                   ref_grad_ncll(bm, ds, beta).to_vector(), rtol=0, atol=1e-14)


def fresh_copy(bm):
    return model_from_dict(model_to_dict(bm))[0]


def test_weighting_slot_hit_is_bytes_of_a_fresh_machine():
    bm = load_fixture("adder_function")
    ds = adder2()
    # a swept machine holds its gaps only; the table, read after them, and the
    # gaps of a machine that held its table first keep every byte
    visible_marginal(bm, 0.7)
    assert "_energy_table" not in bm.__dict__
    assert all_energies(bm).tobytes() == all_energies(fresh_copy(bm)).tobytes()
    table_first = fresh_copy(bm)
    all_energies(table_first)
    assert all(x.tobytes() == y.tobytes() for x, y in zip(table_first._row_gaps, bm._row_gaps))
    for beta in (0.7, 5.0):
        first = visible_marginal(bm, beta)
        again = visible_marginal(bm, beta)  # a hit: every quantity below reads the slot
        fresh = fresh_copy(bm)
        assert again.probs.tobytes() == first.probs.tobytes() == visible_marginal(fresh, beta).probs.tobytes()
        assert dkl_beta_derivatives(bm, beta, ds) == dkl_beta_derivatives(fresh_copy(bm), beta, ds)
        for d in range(ds.num_rows):
            got = conditional_probability(bm, beta, ds.input_part(d))
            ref = conditional_probability(fresh_copy(bm), beta, ds.input_part(d))
            assert got.probs.tobytes() == ref.probs.tobytes()


@pytest.mark.parametrize("beta", [float("nan"), float("inf"), -float("inf")])
def test_exact_quantities_refuse_a_non_finite_beta(rng, beta, enumeration_cap):
    bm = random_machine(2, 1, 2, rng)
    ds = from_rows([(0, 0, 1), (1, 1, 0)])
    ss = exact_sample(bm, SamplerConfig(num_reads=50))
    with pytest.raises(ValueError, match="finite"):
        visible_marginal(bm, beta)
    with pytest.raises(ValueError, match="finite"):
        dkl_beta_derivatives(bm, beta, ds)
    with pytest.raises(ValueError, match="finite"):
        conditional_probability(bm, beta, (1, 0))
    with pytest.raises(ValueError, match="finite"):
        boltzmann_probabilities(bm, beta)
    with pytest.raises(ValueError, match="finite"):
        fit_beta(ss, bm, [0.5, beta, 2.0])
    enumeration_cap(4)
    with pytest.raises(ValueError, match="finite"):  # past the cap: the input's slice
        conditional_probability(bm, beta, (1, 0))


def test_weighting_slot_holds_one_beta_and_the_cap_still_applies(rng, enumeration_cap):
    from isingbm.model import _weighting

    bm = random_machine(2, 1, 3, rng)
    slot = _weighting(bm, 2.0)
    assert _weighting(bm, 2.0) is slot
    assert not any(x.flags.writeable for x in (slot.r, slot.m, slot.u, slot.mean, slot.var, slot.c))
    assert not any(x.flags.writeable for x in bm._row_gaps)
    other = _weighting(bm, 3.0)
    assert other is not slot and other.beta == 3.0
    assert bm._weighting is other  # the new beta replaced the entry
    assert visible_marginal(bm, 3.0).probs.tobytes() == visible_marginal(fresh_copy(bm), 3.0).probs.tobytes()

    # a smaller cap still refuses the machine after the slot is filled
    ds = from_rows([(0, 0, 1)])
    within = conditional_probability(bm, 3.0, (1, 0)).probs
    enumeration_cap(5)
    with pytest.raises(CapacityError):
        visible_marginal(bm, 3.0)
    with pytest.raises(CapacityError):
        dkl_beta_derivatives(bm, 3.0, ds)
    enumeration_cap(3)
    with pytest.raises(CapacityError):
        conditional_probability(bm, 3.0, (1, 0))
    # between n - m_I and n the conditional takes the input's slice instead
    enumeration_cap(4)
    np.testing.assert_allclose(conditional_probability(bm, 3.0, (1, 0)).probs,
                               within, rtol=0, atol=1e-12)


# ---------------------------------------------------------------- the blocked pass
#
# The weighting keeps per-visible-row statistics, built by one pass over the
# row gaps in blocks of whole rows. The references are the parent's formulas:
# one exp of the whole table shifted per row, and one conditional per input
# slice.


def per_slice_marginal_and_conditionals(bm, beta):
    E = all_energies(bm).reshape(1 << bm.num_visible, -1)
    m = E.min(axis=1)
    w = E - m[:, None]
    w *= -beta
    np.exp(w, out=w)
    r = w.sum(axis=1)
    u = r * np.exp(-beta * (m - m.min()))
    conds = []
    m_o = bm.num_visible_output
    for first in range(0, 1 << bm.num_visible, 1 << m_o):
        r_i, m_i = r[first:first + (1 << m_o)], m[first:first + (1 << m_o)]
        w_i = r_i * np.exp(-beta * (m_i - m_i.min()))
        conds.append(w_i / w_i.sum())
    return u / u.sum(), conds


def fixtures_and_random_machines(basis):
    rng = np.random.default_rng(7 + (basis is Basis.PLUS_MINUS))
    machines = [load_fixture("adder_function"), load_fixture("two_phase_trained")]
    if basis is Basis.PLUS_MINUS:
        machines = [convert_basis(bm) for bm in machines]
    machines += [random_machine(*(int(k) for k in rng.integers(0, 4, size=3)), rng, scale=2.0, basis=basis)
                 for _ in range(8)]
    return machines + [random_machine(2, 2, 0, rng, basis=basis)]


def weighting_bytes(bm, beta):
    from isingbm.model import _weighting

    bm.__dict__.pop("_weighting", None)
    slot = _weighting(bm, beta)
    return [slot.beta, slot.Z] + [x.tobytes() for x in (slot.r, slot.m, slot.u, slot.mean, slot.var, slot.c)]


@pytest.mark.parametrize("basis", list(Basis))
def test_weighting_blocks_do_not_change_a_bit(basis, monkeypatch):
    import isingbm.model

    for bm in fixtures_and_random_machines(basis):
        cols = 1 << bm.num_hidden
        monkeypatch.setattr(isingbm.model, "_WEIGHT_BLOCK", 1 << 30)  # one block
        whole = weighting_bytes(bm, 1.3)
        monkeypatch.setattr(isingbm.model, "_WEIGHT_BLOCK", cols)  # one row a block
        assert weighting_bytes(bm, 1.3) == whole
        monkeypatch.setattr(isingbm.model, "_WEIGHT_BLOCK", 3 * cols)  # 3 rows: no divisor of 2^m
        assert weighting_bytes(bm, 1.3) == whole


@pytest.mark.parametrize("basis", list(Basis))
def test_weighting_slot_holds_only_per_row_arrays(basis):
    from isingbm.model import _weighting

    for bm in fixtures_and_random_machines(basis):
        slot = _weighting(bm, 2.0)
        rows = (1 << bm.num_visible,)
        assert slot.r.shape == slot.m.shape == slot.u.shape == slot.mean.shape == slot.var.shape == rows
        assert slot.c.shape == (1 << bm.num_visible_input, 1 << bm.num_visible_output)
        assert bm._row_gaps[1].shape == (1 << bm.num_visible, 1 << bm.num_hidden)


@pytest.mark.parametrize("basis", list(Basis))
@pytest.mark.parametrize("beta", [0.01, 0.7, 5.0, 50.0])
def test_marginal_and_conditionals_are_the_per_slice_formulas_byte_for_byte(basis, beta):
    for bm in fixtures_and_random_machines(basis):
        marginal, conds = per_slice_marginal_and_conditionals(bm, beta)
        assert visible_marginal(bm, beta).probs.tobytes() == marginal.tobytes()
        if bm.num_visible_output:
            for v_input, ref in zip(state_matrix(bm.num_visible_input, basis), conds):
                assert conditional_probability(bm, beta, tuple(v_input)).probs.tobytes() == ref.tobytes()


@pytest.mark.parametrize("beta", [0.01, 50.0])
@pytest.mark.parametrize("name", ["two_phase_trained", "adder_function"])
def test_beta_derivatives_on_the_fixtures_match_the_naive_moments(name, beta):
    bm, ds = load_fixture(name), two_phase(10) if name == "two_phase_trained" else adder2()
    got = dkl_beta_derivatives(bm, beta, ds)
    ref = ref_dkl_beta_derivatives(bm, beta, ds)
    for x, y in zip(got, ref):
        assert abs(x - y) <= 1e-12 * max(1.0, abs(y))


# ---------------------------------------------------------------- the raw moments
#
# The weighting's variance is s2 / r - a^2 from one pass. A row's smallest gap
# is 0, with weight 1, so var >= a^2 / r: the cancellation multiplies the
# relative rounding of the dot products by at most about 1 + 2 r, and that
# rounding is at most (2^n_h + 2) eps.


def weighting_of_gaps(D, beta):
    """The weighting of a machine of log2(rows) visible and log2(cols) hidden
    nodes whose row gaps are ``D`` (each row's smallest gap 0)."""
    from isingbm.model import _weighting

    rows, cols = D.shape
    m_v, n_h = rows.bit_length() - 1, cols.bit_length() - 1
    bm = BoltzmannMachine(m_v, 0, n_h, np.zeros(m_v + n_h), {})
    bm.__dict__["_row_gaps"] = (np.zeros(rows), D)
    return _weighting(bm, beta)


def two_pass_variance(D, beta):
    w = np.exp(-beta * D)
    r = w.sum(axis=1)
    a = (w * D).sum(axis=1) / r
    return (w * (D - a[:, None]) ** 2).sum(axis=1) / r


def exact_variance(w, d):
    """Variance of the gaps ``d`` under the weights ``w``, in rational arithmetic."""
    from fractions import Fraction

    w, d = [Fraction(x) for x in w], [Fraction(x) for x in d]
    r = sum(w)
    a = sum(x * y for x, y in zip(w, d)) / r
    return float(sum(x * (y - a) ** 2 for x, y in zip(w, d)) / r)


def variance_bound(r, cols):
    return (1 + 2 * r) * (cols + 2) * np.finfo(np.float64).eps


@pytest.mark.parametrize("num_hidden", [1, 5, 10])
def test_raw_moment_variance_of_adversarial_rows_is_within_the_bound(num_hidden):
    # one zero gap and 2^n_h - 1 gaps delta: at small beta delta, var / a^2 is
    # about 1 / (2^n_h - 1), as far below a^2 as a row allows
    cols = 1 << num_hidden
    D = np.repeat(np.geomspace(1e-6, 3.0, 8)[:, None], cols, axis=1)
    D[:, 0] = 0.0
    for beta in (0.01, 1.0, 10.0):
        slot = weighting_of_gaps(D, beta)
        two_pass = two_pass_variance(D, beta)
        w = np.exp(-beta * D)
        for v in range(D.shape[0]):
            exact = exact_variance(w[v], D[v])
            bound = variance_bound(slot.r[v], cols) * exact
            assert slot.var[v] > 0.0
            assert abs(slot.var[v] - exact) <= bound
            assert abs(slot.var[v] - two_pass[v]) <= bound


def test_rows_of_equal_gaps_have_variance_exactly_zero():
    from isingbm.model import _weighting

    # every gap of a row equal means every gap 0, a row's smallest gap being 0
    for beta in (0.01, 1.0, 100.0):
        slot = weighting_of_gaps(np.zeros((4, 64)), beta)
        assert np.all(slot.var == 0.0) and np.all(slot.mean == 0.0)
    flat = BoltzmannMachine(2, 1, 4, np.zeros(7), {})
    assert np.all(_weighting(flat, 2.0).var == 0.0)


@pytest.mark.parametrize("basis", list(Basis))
def test_raw_moment_variances_are_never_negative_and_match_the_two_pass_formula(basis):
    from isingbm.model import _weighting

    for bm in fixtures_and_random_machines(basis):
        D = bm._row_gaps[1]
        for beta in (0.01, 1.0, 50.0, 100.0):
            slot = _weighting(bm, beta)
            ref = two_pass_variance(D, beta)
            assert np.all(slot.var >= 0.0)
            assert np.all(np.abs(slot.var - ref) <= variance_bound(slot.r, D.shape[1]) * ref)
