"""End-to-end acceptance checks, one per numbered criterion.

Each test prints a single PASS/FAIL line (visible with ``pytest -s`` or in
this file's captured output) and then asserts.
"""

import time

import numpy as np

from isingbm.datasets import adder2, from_rows, load_fixture, logic_gate, two_phase
from isingbm.metrics import (
    DEFAULT_BETA_GRID,
    _check_excited_decrease,
    _check_ground_monotone,
    conditional_probability,
    dataset_distribution,
    dkl_beta_derivatives,
    fit_beta,
    hellinger,
    kl_divergence,
    model_probability,
    visible_marginal,
)
from isingbm.model import (
    Basis,
    all_energies,
    clamp_visible,
    convert_basis,
    energies,
    ground_states,
    random_machine,
    state_matrix,
)
from isingbm.samplers import SamplerConfig, empirical_distribution, exact_sample, gibbs_sample
from isingbm.training import (
    Architecture,
    GradientEstimate,
    GradientMode,
    TrainingConfig,
    finite_difference_gradient,
    grad_dkl,
    grad_ncll,
    train_distribution,
)


def report(number: int, passed: bool, detail: str) -> None:
    print(f"[ACCEPTANCE {number:02d}] {'PASS' if passed else 'FAIL'} - {detail}")


def _rel_err(fd: GradientEstimate, grad: GradientEstimate) -> float:
    scale = max(grad.linf(), 1e-12)
    err = max(np.max(np.abs(fd.d_bias - grad.d_bias), initial=0.0),
              np.max(np.abs(fd.d_pair - grad.d_pair), initial=0.0))
    return float(err / scale)


def test_criterion_01_gradient_oracle_equivalence():
    """Analytic gradients match central finite differences to 1e-6 relative
    accuracy on 20 random machines of up to 8 nodes, in under 30 seconds."""
    rng = np.random.default_rng(101)
    start = time.perf_counter()
    worst = 0.0
    for trial in range(10):  # generative gradient
        n = int(rng.integers(2, 9))
        n_h = int(rng.integers(0, n - 1))
        bm = random_machine(n - n_h, 0, n_h, rng)
        m = bm.num_visible
        rows = state_matrix(m, Basis.ZERO_ONE)
        take = rng.choice(rows.shape[0], size=min(3, rows.shape[0]), replace=False)
        ds = from_rows(rows[take], rng.uniform(0.2, 1.0, size=len(take)))
        q = dataset_distribution(ds)
        grad = grad_dkl(bm, ds, GradientMode.EXACT, SamplerConfig(beta=1.0))
        fd = finite_difference_gradient(
            lambda mod: kl_divergence(q, visible_marginal(mod, 1.0)), bm)
        worst = max(worst, _rel_err(fd, grad))
    for trial in range(10):  # discriminative gradient
        m_i = int(rng.integers(1, 4))
        m_o = int(rng.integers(1, 3))
        n_h = int(rng.integers(1, 9 - m_i - m_o))
        bm = random_machine(m_i, m_o, n_h, rng)
        rows = state_matrix(m_i + m_o, Basis.ZERO_ONE)
        take = rng.choice(rows.shape[0], size=min(4, rows.shape[0]), replace=False)
        ds = from_rows(rows[take], io_split=(m_i, m_o))
        from isingbm.metrics import negative_conditional_log_likelihood

        grad = grad_ncll(bm, ds, GradientMode.EXACT, SamplerConfig(beta=1.0))
        fd = finite_difference_gradient(
            lambda mod: negative_conditional_log_likelihood(mod, 1.0, ds), bm)
        worst = max(worst, _rel_err(fd, grad))
    elapsed = time.perf_counter() - start
    ok = worst <= 1e-6 and elapsed < 30
    report(1, ok, f"max rel gradient error {worst:.2e} over 20 machines in {elapsed:.1f}s")
    assert worst <= 1e-6
    assert elapsed < 30


def test_criterion_02_clamping_identity():
    """energy(full) == offset + energy(reduced) exhaustively, |err| <= 1e-12."""
    rng = np.random.default_rng(202)
    worst = 0.0
    for _ in range(25):
        n = int(rng.integers(2, 11))
        basis = Basis.ZERO_ONE if rng.random() < 0.5 else Basis.PLUS_MINUS
        bm = random_machine(n, 0, 0, rng, basis=basis)
        k = int(rng.integers(1, n + 1))
        clamp_nodes = sorted(rng.choice(n, size=k, replace=False))
        lo, hi = basis.symbols
        assignment = {int(c): int(rng.choice([lo, hi])) for c in clamp_nodes}
        reduced, offset = clamp_visible(bm, assignment)
        free = [i for i in range(n) if i not in assignment]
        free_states = state_matrix(len(free), basis)
        full_states = np.empty((free_states.shape[0], n), dtype=np.int8)
        for c, v in assignment.items():
            full_states[:, c] = v
        full_states[:, free] = free_states
        lhs = energies(bm, full_states)
        rhs = offset + energies(reduced, free_states)
        worst = max(worst, float(np.max(np.abs(lhs - rhs))))
    ok = worst <= 1e-12
    report(2, ok, f"max |energy(full) - offset - energy(reduced)| = {worst:.2e}")
    assert worst <= 1e-12


def test_criterion_03_basis_invariance():
    """Boltzmann probabilities unchanged by the parameter/state basis map."""
    rng = np.random.default_rng(303)
    worst = 0.0
    for _ in range(20):
        n = int(rng.integers(2, 9))
        bm = random_machine(n, 0, 0, rng)
        converted = convert_basis(bm)
        e01 = all_energies(bm)
        epm = all_energies(converted)
        for beta in (0.5, 1.0, 2.0):
            p01 = np.exp(-beta * (e01 - e01.min()))
            p01 /= p01.sum()
            ppm = np.exp(-beta * (epm - epm.min()))
            ppm /= ppm.sum()
            worst = max(worst, float(np.max(np.abs(p01 - ppm))))
    ok = worst <= 1e-12
    report(3, ok, f"max state probability shift across the basis map = {worst:.2e}")
    assert worst <= 1e-12


def _xor_ground_closed_form(beta: np.ndarray) -> np.ndarray:
    """D(q_XOR || p_beta) of the bundled xor_ground_state machine, by hand.

    With biases (1/4, 1/4, 1/4, 1) on (a, b, y, hidden), visible-visible
    couplings 1/2 and visible-hidden couplings -1, the Boltzmann weight of
    each visible row (summed over the hidden node) is:
      gate rows 000, 011, 101, 110: E = 0 and 1, weight 1 + exp(-beta);
      single-one rows 001, 010, 100: E = 1/4 twice, weight 2 exp(-beta/4);
      row 111: E = 1/4 and 9/4, weight exp(-beta/4) + exp(-9 beta/4).
    q is uniform on the gate rows, so D = log(Z / (4 (1 + exp(-beta)))).
    """
    wrong = 7.0 * np.exp(-beta / 4) + np.exp(-9.0 * beta / 4)
    return np.log1p(wrong / (4.0 * (1.0 + np.exp(-beta))))


def _bisect(f, lo: float, hi: float) -> float:
    """Root of f on [lo, hi], where f(lo) and f(hi) have opposite signs."""
    sign_lo = f(lo) > 0
    for _ in range(50):
        mid = 0.5 * (lo + hi)
        if (f(mid) > 0) == sign_lo:
            lo = mid
        else:
            hi = mid
    return 0.5 * (lo + hi)


def test_criterion_04_xor_ground_state_fixture():
    """Cooling the hand-designed XOR machine concentrates its visible marginal
    on the gate rows, along the exact divergence curve of its parameters.

    The four ground states sit at E = 0, one per XOR row, so as beta grows
    the visible marginal tends to the uniform XOR distribution and the
    divergence to 0. Summing the hidden node out per visible row (see
    ``_xor_ground_closed_form``) gives

        D(beta) = log(1 + (7 exp(-beta/4) + exp(-9 beta/4)) / (4 (1 + exp(-beta))))

    and the oracle must match it to 1e-12 relative on 60 points in [0.5, 20].
    The curve is not monotone: each wrong single-one row carries two
    E = 1/4 states (weight 2 exp(-beta/4)) against a gate row's
    1 + exp(-beta), so the wrong rows gain mass first. D rises from 0.69904
    at beta = 0.5 to 0.70169 near beta = 0.837, is 0.1342 at beta = 10 and
    crosses 0.05 near beta = 14.12; D(40) is below 1e-4.
    """
    start = time.perf_counter()
    bm = load_fixture("xor_ground_state")
    # The closed form holds for exactly these parameters.
    params_ok = (
        bm.basis is Basis.ZERO_ONE
        and (bm.num_visible_input, bm.num_visible_output, bm.num_hidden) == (2, 1, 1)
        and bm.biases.tolist() == [0.25, 0.25, 0.25, 1.0]
        and dict(bm.couplings) == {(0, 1): 0.5, (0, 2): 0.5, (1, 2): 0.5,
                                   (0, 3): -1.0, (1, 3): -1.0, (2, 3): -1.0})

    states, e_min = ground_states(bm)
    projections = sorted(s.values[:3] for s in states)
    ground_ok = e_min == 0.0 and projections == [(0, 0, 0), (0, 1, 1), (1, 0, 1), (1, 1, 0)]

    ds = logic_gate("XOR")
    q = dataset_distribution(ds)

    def dkl(beta: float) -> float:
        return kl_divergence(q, visible_marginal(bm, float(beta)))

    grid = np.geomspace(0.5, 20.0, 60)
    curve = np.array([dkl(b) for b in grid])
    closed = _xor_ground_closed_form(grid)
    deviation = float(np.max(np.abs(curve - closed) / closed))

    rising = np.diff(curve[grid < 0.83])
    falling = np.diff(curve[grid >= 0.84])
    shape_ok = bool(np.all(rising > 0) and np.all(falling < 0))
    crossing_ok = dkl(14.0) > 0.05 > dkl(14.25)
    limit_ok = dkl(40.0) < 1e-4
    beta_peak = _bisect(lambda b: dkl_beta_derivatives(bm, b, ds)[0], 0.5, 2.0)
    beta_cross = _bisect(lambda b: dkl(b) - 0.05, 14.0, 14.25)
    elapsed = time.perf_counter() - start

    ok = (params_ok and ground_ok and deviation <= 1e-12 and shape_ok
          and crossing_ok and limit_ok and elapsed < 1.0)
    report(4, ok,
           f"ground states {'ok' if ground_ok else 'WRONG'}; max rel deviation "
           f"from closed form {deviation:.1e}; peak dkl {dkl(beta_peak):.5f} at "
           f"beta={beta_peak:.3f}; dkl = 0.05 at beta={beta_cross:.2f}; "
           f"dkl(40) = {dkl(40.0):.1e}; {elapsed:.2f}s")
    assert params_ok, "xor_ground_state parameters differ from the closed form's"
    assert ground_ok
    assert deviation <= 1e-12, f"oracle deviates from closed form by {deviation:.2e}"
    assert shape_ok, "divergence curve does not rise below beta 0.83 and fall from 0.84"
    assert crossing_ok, "divergence does not cross 0.05 between beta 14.0 and 14.25"
    assert limit_ok, f"dkl at beta=40 is {dkl(40.0):.2e}, not < 1e-4"
    assert elapsed < 1.0


def test_criterion_05_two_phase_divergence_minimum():
    """Step-pattern machine: divergence minimum lies in [1.5, 3]; the sweep
    enumerates 2^18 states per grid point and finishes inside 2 minutes."""
    start = time.perf_counter()
    bm = load_fixture("two_phase_trained")
    q = dataset_distribution(two_phase(10))
    grid = np.arange(0.5, 6.01, 0.1)
    curve = [kl_divergence(q, visible_marginal(bm, float(b))) for b in grid]
    beta_star = float(grid[int(np.argmin(curve))])
    elapsed = time.perf_counter() - start
    ok = 1.5 <= beta_star <= 3.0 and elapsed < 120
    report(5, ok, f"argmin beta = {beta_star:.2f} (dkl {min(curve):.4f}) "
                  f"over {len(grid)} grid points in {elapsed:.1f}s")
    assert 1.5 <= beta_star <= 3.0
    assert elapsed < 120


def test_criterion_06_and_training_reproduction():
    """Five seeded exact-mode runs (eta 0.1, decay 1e-5, momentum 0.6, 1000
    steps): best divergence <= 1e-2 with >= 10x spread across seeds."""
    start = time.perf_counter()
    ds = from_rows(logic_gate("AND").rows)
    pairs = tuple((v, 3 + h) for v in range(3) for h in range(2))
    arch = Architecture(3, 0, 2, pairs=pairs)
    finals = []
    for seed in range(5):
        cfg = TrainingConfig(eta=0.1, weight_decay=1e-5, momentum=0.6,
                             max_steps=1000, sampler=SamplerConfig(beta=15.0),
                             seed=seed, loss_every=500)
        _, trace = train_distribution(ds, arch, cfg)
        finals.append(trace.final_loss)
    finals = np.array(finals)
    spread = float(finals.max() / finals.min())
    elapsed = time.perf_counter() - start
    ok = finals.min() <= 1e-2 and spread >= 10 and elapsed < 120
    report(6, ok, f"best final dkl {finals.min():.2e}, spread {spread:.0f}x, "
                  f"finals {np.array2string(finals, precision=4)} in {elapsed:.1f}s")
    assert finals.min() <= 1e-2
    assert spread >= 10
    assert elapsed < 120


def test_criterion_07_adder_conditionals():
    """Adder machine at beta = 5: minimum conditional over all 16 input rows
    lies in [0.15, 0.45] (the recorded value tracks the duplicated-table
    caveat; both shipped labels hold identical parameters)."""
    start = time.perf_counter()
    bm = load_fixture("adder_function")
    ds = adder2()
    conds = [conditional_probability(bm, 5.0, ds.input_part(d)).prob(ds.output_part(d))
             for d in range(ds.num_rows)]
    minimum = min(conds)
    elapsed = time.perf_counter() - start
    ok = 0.15 <= minimum <= 0.45 and elapsed < 10
    report(7, ok, f"min conditional = {minimum:.4f} (soft target near 0.3; "
                  f"measured value matches the distribution-trained figure) in {elapsed:.1f}s")
    assert 0.15 <= minimum <= 0.45
    assert elapsed < 10


def test_criterion_08_beta_recovery():
    """Temperature fits: exact-table samples recover the generating beta within
    2% on 10 random machines; Gibbs draws at beta 3 with 1e5 reads within 10%."""
    rng = np.random.default_rng(808)
    worst_exact = 0.0
    for _ in range(10):
        bm = random_machine(int(rng.integers(3, 7)), 0, 0, rng)
        beta_true = float(rng.uniform(0.5, 5.0))
        ss = exact_sample(bm, SamplerConfig(beta=beta_true, exhaustive=True))
        beta_star, _ = fit_beta(ss, bm)
        worst_exact = max(worst_exact, abs(beta_star - beta_true) / beta_true)

    worst_gibbs = 0.0
    for seed in range(3):
        bm = random_machine(6, 0, 0, rng)
        ss = gibbs_sample(bm, SamplerConfig(beta=3.0, num_reads=100_000, seed=seed,
                                            burn_in=500, thinning=10, num_chains=50))
        beta_star, _ = fit_beta(ss, bm)
        worst_gibbs = max(worst_gibbs, abs(beta_star - 3.0) / 3.0)

    ok = worst_exact <= 0.02 and worst_gibbs <= 0.10
    report(8, ok, f"exact-table recovery max err {worst_exact:.3%}; "
                  f"gibbs at beta=3 max err {worst_gibbs:.3%}")
    assert worst_exact <= 0.02
    assert worst_gibbs <= 0.10


def test_criterion_09_propositions_suite():
    """200 random machines: ground-state mass strictly rises with beta, and
    every excited state eventually decays (critical point found by scan).
    Trained machines show nonnegative divergence curvature at their fitted
    optimum."""
    rng = np.random.default_rng(909)
    betas = np.asarray(DEFAULT_BETA_GRID)
    fails_1 = fails_3 = 0
    for _ in range(200):
        total = int(rng.integers(2, 9))
        n_h = int(rng.integers(0, total))
        bm = random_machine(total - n_h, 0, n_h, rng)
        ok1, _ = _check_ground_monotone(bm, betas)
        ok3, _ = _check_excited_decrease(bm, betas)
        fails_1 += not ok1
        fails_3 += not ok3

    curvatures = {}
    for name, ds in (("xor_trained", logic_gate("XOR")),
                     ("two_phase_trained", two_phase(10)),
                     ("adder_distribution", adder2())):
        bm = load_fixture(name)
        q = dataset_distribution(ds)
        curve = [kl_divergence(q, visible_marginal(bm, float(b))) for b in betas]
        beta_star = float(betas[int(np.argmin(curve))])
        _, second = dkl_beta_derivatives(bm, beta_star, ds)
        curvatures[name] = (beta_star, second)

    curvature_ok = all(second >= -1e-9 for _, second in curvatures.values())
    ok = fails_1 == 0 and fails_3 == 0 and curvature_ok
    detail = ", ".join(f"{k}: d2={v[1]:.3g} at beta*={v[0]:.2f}" for k, v in curvatures.items())
    report(9, ok, f"monotone-ground failures {fails_1}/200, "
                  f"excited-decay failures {fails_3}/200; {detail}")
    assert fails_1 == 0
    assert fails_3 == 0
    assert curvature_ok


def test_criterion_10_gibbs_convergence():
    """Gibbs empirical distribution sits within Hellinger 0.02 of the exact
    table at 1e5 reads on random 6-node machines (median over 10 seeds)."""
    rng = np.random.default_rng(1010)
    medians = []
    for _ in range(2):
        bm = random_machine(6, 0, 0, rng)
        exact = model_probability(bm, 1.0)
        dists = []
        for seed in range(10):
            ss = gibbs_sample(bm, SamplerConfig(beta=1.0, num_reads=100_000, seed=seed,
                                                burn_in=500, thinning=10, num_chains=50))
            dists.append(hellinger(empirical_distribution(ss), exact))
        medians.append(float(np.median(dists)))
    ok = all(m <= 0.02 for m in medians)
    report(10, ok, f"median Hellinger distances {[round(m, 4) for m in medians]} "
                   f"(target <= 0.02)")
    assert all(m <= 0.02 for m in medians)
