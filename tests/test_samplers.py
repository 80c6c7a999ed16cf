import json
from dataclasses import replace
from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from isingbm import samplers
from isingbm.metrics import hellinger, model_probability
from isingbm.model import Basis, BoltzmannMachine, random_machine
from isingbm.samplers import (
    Backend,
    SampleSet,
    SamplerConfig,
    draw_many,
    draw_samples,
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
    for beta in (0.0, float("nan"), float("inf"), 10**400):  # 10**400 raised OverflowError
        with pytest.raises(ValueError):
            SamplerConfig(beta=beta)
    with pytest.raises(ValueError):
        SamplerConfig(num_reads=0)
    with pytest.raises(ValueError):
        SamplerConfig(thinning=0)
    for backend in (Backend.GIBBS, Backend.REMOTE):  # only the exact backend has a table to return
        with pytest.raises(ValueError, match="exhaustive"):
            SamplerConfig(backend=backend, exhaustive=True)


def test_sample_set_invariants():
    with pytest.raises(ValueError):  # counts must sum to num_reads
        SampleSet(np.array([[0], [1]]), np.array([2, 2]), 1.0, 5, "t")
    with pytest.raises(ValueError):  # states must be distinct
        SampleSet(np.array([[0], [0]]), np.array([2, 3]), 1.0, 5, "t")
    with pytest.raises(ValueError):  # integer counts
        SampleSet(np.array([[0]]), np.array([2.5]), 1.0, 2, "t")
    SampleSet(np.array([[0], [1]]), np.array([0.5, 0.5]), 1.0, 0, "t", exhaustive=True)
    with pytest.raises(ValueError, match="finite"):  # a probability vector of finite weights
        SampleSet(np.array([[0], [1]]), np.array([np.nan, np.nan]), 1.0, 0, "t", exhaustive=True)
    for count in (np.inf, np.nan):  # typed, not an OverflowError from the sum
        with pytest.raises(ValueError, match="finite"):
            SampleSet(np.array([[0]]), np.array([count]), 1.0, 2, "t")


@pytest.mark.parametrize("beta", [float("nan"), float("inf"), 0.0, -1.0])
def test_sample_set_beta_is_finite_and_positive(tmp_path, beta):
    # a NaN beta was loaded, and written back as NaN, which is not JSON
    path = tmp_path / "beta.json"
    path.write_text(json.dumps({"beta": beta, "num_reads": 2, "states": [[0]], "counts": [2]}))
    with pytest.raises(ValueError, match="finite and positive"):
        load_sample_set(path)
    with pytest.raises(ValueError, match="finite and positive"):
        SampleSet(np.array([[0]]), np.array([2]), beta, 2, "t")
    if not np.isfinite(beta):  # the writer emits strict JSON only, even for an unchecked set
        with pytest.raises(ValueError):
            save_sample_set(SampleSet._indexed(np.array([0]), np.array([2]), 1, Basis.ZERO_ONE, beta, "t"),
                            tmp_path / "out.json")
        assert not (tmp_path / "out.json").exists()


def test_load_sample_set_refuses_non_finite_values(tmp_path):
    doc = {"beta": 1.0, "num_reads": 2, "states": [[0]], "counts": [2], "basis": "01"}
    for field, value in (("counts", [float("inf")]), ("num_reads", float("inf"))):
        path = tmp_path / f"{field}.json"
        path.write_text(json.dumps({**doc, field: value}))  # written as Infinity
        with pytest.raises(ValueError):
            load_sample_set(path)


@pytest.mark.parametrize("field, value", [
    ("states", [[1.5, -1]]),   # was read as [[1, -1]]
    ("states", [[True, -1]]),  # likewise
    ("states", [1, -1]),       # a state must be a list
    ("counts", [2.0]),
    ("counts", [True]),
    ("counts", ["2"]),
    ("num_reads", 2.0),
    ("num_reads", True),
    ("beta", "1.0"),
    ("beta", True),
    ("exhaustive", 0),
    ("backend_id", 7),
], ids=["state-1.5", "state-true", "state-flat", "count-2.0", "count-true", "count-string", "num_reads-2.0",
        "num_reads-true", "beta-string", "beta-true", "exhaustive-0", "backend_id-7"])
def test_load_sample_set_refuses_values_of_the_wrong_json_type(tmp_path, field, value):
    doc = {"beta": 1.0, "num_reads": 2, "states": [[1, -1]], "counts": [2], "basis": "pm1"}
    path = tmp_path / "s.json"
    path.write_text(json.dumps(doc))
    assert load_sample_set(path).states.tolist() == [[1, -1]]
    path.write_text(json.dumps({**doc, field: value}))
    with pytest.raises(ValueError, match="must be JSON of type"):
        load_sample_set(path)


def test_load_sample_set_reads_exhaustive_counts_as_numbers(tmp_path):
    path = tmp_path / "s.json"
    path.write_text(json.dumps({"beta": 1.0, "num_reads": 0, "states": [[0], [1]], "counts": [1, 0.0],
                                "exhaustive": True}))
    assert load_sample_set(path).counts.tolist() == [1.0, 0.0]


def test_sample_set_checks_state_values_before_narrowing_them():
    # int8 wraps 257 to 1, and truncates 1.5 to 1
    for states in ([[257, 0]], [[1.5, 0]]):
        with pytest.raises(ValueError, match="not in basis"):
            SampleSet(np.array(states), np.array([3]), 1.0, 3, "t")


def test_sample_set_copies_the_callers_arrays_before_freezing():
    states, counts = np.array([[0, 1], [1, 1]], dtype=np.int8), np.array([1.0, 2.0])
    ss = SampleSet(states, counts, 1.0, 3, "t")
    states[0, 0], counts[0] = 1, 5.0  # the caller's arrays stay writeable
    assert ss.states.tolist() == [[0, 1], [1, 1]] and ss.counts.tolist() == [1.0, 2.0]
    assert not ss.states.flags.writeable and not ss.counts.flags.writeable


def test_sample_set_distinctness_by_index_in_both_bases_and_past_62_nodes(rng):
    for basis in Basis:
        lo, hi = basis.symbols
        rows = np.where(rng.random((40, 9)) < 0.5, lo, hi)
        uniq = np.unique(rows, axis=0)
        SampleSet(uniq, np.ones(len(uniq)), 1.0, len(uniq), "t", basis=basis)
        with pytest.raises(ValueError, match="^states must be distinct$"):
            SampleSet(np.vstack([uniq, uniq[-1:]]), np.ones(len(uniq) + 1), 1.0, len(uniq) + 1, "t", basis=basis)
    wide = np.zeros((3, 70), dtype=np.int8)
    wide[1, 0] = wide[2, 69] = 1  # differ only in the first and in the last node
    SampleSet(wide, np.ones(3), 1.0, 3, "t")
    with pytest.raises(ValueError, match="^states must be distinct$"):
        SampleSet(wide[[0, 1, 0]], np.ones(3), 1.0, 3, "t")


def test_sample_set_refuses_values_outside_its_basis():
    with pytest.raises(ValueError, match="not in basis"):
        SampleSet(np.array([[0], [2]]), np.array([1, 1]), 1.0, 2, "t")
    with pytest.raises(ValueError, match="not in basis"):
        SampleSet(np.array([[0, 1]]), np.array([1]), 1.0, 1, "t", basis=Basis.PLUS_MINUS)


@pytest.mark.parametrize("basis", list(Basis))
def test_drawn_sets_skip_the_checks_and_the_public_constructor_keeps_them(rng, basis):
    bm = random_machine(2, 1, 3, rng, basis=basis)
    for backend in (Backend.EXACT, Backend.GIBBS):
        cfg = SamplerConfig(beta=1.5, num_reads=300, seed=4, backend=backend, burn_in=10, thinning=1, num_chains=3)
        with mock.patch.object(SampleSet, "__post_init__", side_effect=AssertionError("re-validated")):
            ss = draw_samples(bm, cfg)
        checked = SampleSet(ss.states.copy(), ss.counts.copy(), ss.beta, ss.num_reads, ss.backend_id, basis=basis)
        for got, ref in ((ss.states, checked.states), (ss.counts, checked.counts)):
            assert got.dtype == ref.dtype and got.tobytes() == ref.tobytes() and not got.flags.writeable
        assert (ss.beta, ss.num_reads, ss.backend_id, ss.basis, ss.exhaustive) == \
            (checked.beta, checked.num_reads, checked.backend_id, checked.basis, checked.exhaustive)

        with pytest.raises(ValueError, match="^states must be distinct$"):
            SampleSet(np.vstack([ss.states, ss.states[:1]]), np.append(ss.counts, 1), 1.5, ss.num_reads + 1,
                      "t", basis=basis)
        with pytest.raises(ValueError, match="sum to num_reads"):
            SampleSet(ss.states, ss.counts, 1.5, ss.num_reads + 1, "t", basis=basis)
        with pytest.raises(ValueError, match="positive integers"):
            SampleSet(ss.states, ss.counts - 0.5, 1.5, ss.num_reads, "t", basis=basis)
        with pytest.raises(ValueError, match="not in basis"):
            SampleSet(2 * ss.states, ss.counts, 1.5, ss.num_reads, "t", basis=basis)


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


def per_site_gibbs(bm, cfg):
    """Reference kernel: one numpy round and one ``rng.random(chains)`` per
    site update, rows compressed with ``np.unique(axis=0)``."""
    n = bm.num_nodes
    lo, hi = bm.basis.symbols
    chains = cfg.num_chains
    per_chain = -(-cfg.num_reads // chains)
    J_sym = bm.coupling_matrix + bm.coupling_matrix.T
    rng = np.random.default_rng(cfg.seed)
    state = np.where(rng.random((chains, n)) < 0.5, lo, hi).astype(np.float64)
    kept = []
    for sweep in range(cfg.burn_in + per_chain * cfg.thinning):
        for k in range(n):
            d_e = (hi - lo) * (bm.biases[k] + state @ J_sym[:, k])
            p_hi = 1.0 / (1.0 + np.exp(np.clip(cfg.beta * d_e, -500, 500)))
            state[:, k] = np.where(rng.random(chains) < p_hi, hi, lo)
        if sweep >= cfg.burn_in and (sweep - cfg.burn_in) % cfg.thinning == cfg.thinning - 1:
            kept.append(state.astype(np.int8))
    raw = np.array(kept).reshape(per_chain * chains, n)[: cfg.num_reads]
    return np.unique(raw, axis=0, return_counts=True)


@st.composite
def gibbs_runs(draw):
    n = draw(st.integers(0, 8))
    basis = draw(st.sampled_from(list(Basis)))
    bm = random_machine(n, 0, 0, np.random.default_rng(draw(st.integers(0, 2**32 - 1))),
                        scale=draw(st.floats(0.1, 3.0)), basis=basis)
    chains = draw(st.integers(1, 20))
    per_chain = draw(st.integers(1, 6))
    reads = per_chain * chains - draw(st.integers(0, chains - 1))
    cfg = SamplerConfig(beta=draw(st.floats(0.05, 5.0)), num_reads=reads,
                        burn_in=draw(st.integers(0, 30)), thinning=draw(st.integers(1, 3)),
                        seed=draw(st.integers(0, 2**32 - 1)), num_chains=chains)
    # uniforms come in blocks of whole sweeps: put the block just below, at
    # or just past the run's sweep count, or a few blocks inside it
    sweeps = cfg.burn_in + per_chain * cfg.thinning
    block_sweeps = max(1, (sweeps + draw(st.integers(-2, 2))) // draw(st.integers(1, 3)))
    # a chunk width that splits every machine past it into several chunks
    return bm, cfg, block_sweeps * max(1, n * chains), draw(st.integers(1, 3))


def assert_draws_equal_reference(ss, bm, cfg):
    states, counts = per_site_gibbs(bm, cfg)
    assert ss.states.dtype == np.int8 and ss.states.shape == states.shape
    assert ss.states.tobytes() == states.tobytes()
    assert ss.counts.tobytes() == counts.astype(np.float64).tobytes()


@settings(max_examples=100, deadline=None)
@given(gibbs_runs())
@example((random_machine(3, 0, 0, np.random.default_rng(0)),
          SamplerConfig(num_reads=8, burn_in=3, thinning=2, seed=1, num_chains=2), 7 * 3 * 2, 2))
@example((random_machine(3, 0, 0, np.random.default_rng(0), basis=Basis.PLUS_MINUS),
          SamplerConfig(num_reads=8, burn_in=3, thinning=2, seed=1, num_chains=2), 11 * 3 * 2, 1))
def test_one_chunk_and_several_chunk_kernels_equal_per_site_reference(run):
    bm, cfg, block, chunk_bits = run
    with mock.patch.object(samplers, "_UNIFORM_BLOCK", block):
        one = gibbs_sample(bm, cfg)
        with mock.patch.object(samplers, "_TABLE_BITS", chunk_bits):
            several = gibbs_sample(bm, cfg)
    for ss in (one, several):
        assert_draws_equal_reference(ss, bm, cfg)


@pytest.mark.parametrize("basis", list(Basis))
def test_eighteen_node_draws_equal_per_site_reference(basis):
    # two chunks of nine nodes at the default chunk width
    bm = random_machine(9, 0, 9, np.random.default_rng(18), scale=2.0, basis=basis)
    cfg = SamplerConfig(beta=1.5, num_reads=300, burn_in=20, thinning=2, seed=3, num_chains=10)
    assert samplers._chunk_widths(18) == [9, 9]
    assert_draws_equal_reference(gibbs_sample(bm, cfg), bm, cfg)


def test_draws_past_62_nodes_equal_per_site_reference():
    # state indices past 62 nodes are Python ints; narrow chunks keep the tables small
    bm = random_machine(30, 0, 40, np.random.default_rng(70), scale=1.0)
    cfg = SamplerConfig(beta=1.0, num_reads=40, burn_in=5, thinning=1, seed=2, num_chains=4)
    with mock.patch.object(samplers, "_TABLE_BITS", 4):
        assert_draws_equal_reference(gibbs_sample(bm, cfg), bm, cfg)


def test_gibbs_draws_of_a_training_config_are_unchanged():
    # the benchmark's sampled-training Gibbs config on a 3v2h bipartite
    # machine; states and counts as drawn by the one-round-per-site kernel
    bm = BoltzmannMachine(3, 0, 2, np.array([0.3, -0.5, 0.2, -0.1, 0.4]),
                          {(0, 3): -0.8, (0, 4): 0.6, (1, 3): 0.5, (1, 4): -0.7, (2, 3): 0.9, (2, 4): -0.4})
    cfg = SamplerConfig(beta=3.0, num_reads=200, burn_in=20, thinning=2, num_chains=10, seed=20261018,
                        backend=Backend.GIBBS)
    ss = gibbs_sample(bm, cfg)
    assert ss.states.tolist() == [
        [0, 0, 0, 0, 0], [0, 0, 0, 0, 1], [0, 0, 0, 1, 0], [0, 0, 0, 1, 1], [0, 0, 1, 0, 0],
        [0, 1, 0, 0, 0], [0, 1, 0, 0, 1], [0, 1, 0, 1, 0], [0, 1, 0, 1, 1], [0, 1, 1, 0, 0],
        [0, 1, 1, 0, 1], [1, 0, 0, 0, 0], [1, 0, 0, 1, 0], [1, 0, 0, 1, 1], [1, 0, 1, 1, 1],
        [1, 1, 0, 0, 0], [1, 1, 0, 1, 0], [1, 1, 0, 1, 1], [1, 1, 1, 0, 0], [1, 1, 1, 0, 1],
        [1, 1, 1, 1, 1],
    ]
    assert ss.counts.tolist() == [3, 1, 5, 1, 1, 12, 32, 5, 10, 6, 70, 1, 14, 2, 1, 6, 15, 7, 4, 3, 1]
    assert ss.backend_id == "gibbs/chains=10"


@st.composite
def draw_batches(draw):
    """A ``_TABLE_BITS`` small enough to cut runs and split some machines
    into several chunks, one Gibbs or exact config, and a batch of machines of
    a few sizes in both bases, so that one-chunk machines of mixed sizes share
    a run, and some machines do not share one."""
    chains = draw(st.integers(1, 12))
    reads = draw(st.integers(1, 4)) * chains - draw(st.integers(0, chains - 1))
    cfg = SamplerConfig(beta=draw(st.floats(0.05, 5.0)), num_reads=reads, burn_in=draw(st.integers(0, 12)),
                        thinning=draw(st.integers(1, 3)), num_chains=chains,
                        backend=draw(st.sampled_from([Backend.GIBBS, Backend.GIBBS, Backend.EXACT])))
    sizes = draw(st.lists(st.integers(0, 8), min_size=1, max_size=3))
    machines = [random_machine(draw(st.sampled_from(sizes)), 0, 0,
                               np.random.default_rng(draw(st.integers(0, 2**32 - 1))),
                               basis=draw(st.sampled_from(list(Basis))))
                for _ in range(draw(st.integers(1, 12)))]
    seeds = draw(st.lists(st.integers(0, 2**32 - 1), min_size=len(machines), max_size=len(machines)))
    return draw(st.integers(1, 6)), machines, cfg, seeds


def _chunk_of_five():
    # with 2^3 states per kernel: five 1-node machines (a run of four and a
    # run of one) around a 4-node machine in two chunks
    cfg = SamplerConfig(beta=1.5, num_reads=9, burn_in=2, thinning=2, num_chains=3, backend=Backend.GIBBS)
    machines = [random_machine(4 if i == 3 else 1, 0, 0, np.random.default_rng(i)) for i in range(6)]
    return 3, machines, cfg, list(range(6))


@settings(max_examples=60, deadline=None)
@given(draw_batches())
@example(_chunk_of_five())
def test_draw_many_equals_one_draw_per_machine(batch):
    table_bits, machines, cfg, seeds = batch
    kernels = []

    def run(groups, *args):
        kernels.append(sum(len(biases) << samplers._chunk_widths(biases.shape[1])[0] for _, biases in groups))
        sizes = {biases.shape[1] for _, biases in groups}
        assert len(sizes) == 1 or max(sizes) <= table_bits  # machines of several chunks run by node count
        return gibbs_run(groups, *args)

    gibbs_run = samplers._gibbs_run
    with mock.patch.object(samplers, "_TABLE_BITS", table_bits), mock.patch.object(samplers, "_gibbs_run", run):
        many = draw_many(machines, cfg, seeds)
        assert all(states <= 1 << table_bits for states in kernels)
        each = [draw_samples(bm, replace(cfg, seed=s)) for bm, s in zip(machines, seeds)]
    assert len(many) == len(each)
    for got, want in zip(many, each):
        assert got.states.dtype == want.states.dtype and got.states.shape == want.states.shape
        assert got.states.tobytes() == want.states.tobytes()
        assert got.counts.tobytes() == want.counts.tobytes()
        assert (got.beta, got.num_reads, got.backend_id, got.basis) == (want.beta, want.num_reads,
                                                                         want.backend_id, want.basis)


def test_draw_many_of_17_and_18_node_machines_equals_one_draw_per_machine():
    cfg = SamplerConfig(beta=2.0, num_reads=200, burn_in=10, thinning=2, num_chains=5, backend=Backend.GIBBS)
    machines = [random_machine(n, 0, 0, np.random.default_rng(i), basis=basis)
                for i, (n, basis) in enumerate([(17, Basis.ZERO_ONE), (18, Basis.ZERO_ONE), (17, Basis.ZERO_ONE),
                                                (18, Basis.ZERO_ONE), (18, Basis.PLUS_MINUS)])]
    gibbs_run, kernels = samplers._gibbs_run, []

    def run(groups, *args):
        kernels.append(sum(len(biases) for _, biases in groups))
        return gibbs_run(groups, *args)

    with mock.patch.object(samplers, "_gibbs_run", run):
        many = draw_many(machines, cfg, range(len(machines)))
    assert kernels == [2, 2, 1]
    for i, (got, bm) in enumerate(zip(many, machines)):
        want = gibbs_sample(bm, replace(cfg, seed=i))
        assert got.states.tobytes() == want.states.tobytes() and got.counts.tobytes() == want.counts.tobytes()


def test_one_chunk_machines_of_mixed_sizes_share_runs():
    # 2^4 states a run: in groups by node count, in order of first appearance,
    # the 1-, 3-, 0-, 2- and 4-node machines fill 2 + 8, 8 + 1 + 4 and 16 states
    cfg = SamplerConfig(beta=1.2, num_reads=11, burn_in=3, thinning=2, num_chains=4, backend=Backend.GIBBS)
    machines = [random_machine(n, 0, 0, np.random.default_rng(i), basis=Basis.PLUS_MINUS)
                for i, n in enumerate([1, 3, 0, 2, 4, 3])]
    gibbs_run, runs = samplers._gibbs_run, []

    def run(groups, *args):
        runs.append([biases.shape[1] for _, biases in groups for _ in biases])
        return gibbs_run(groups, *args)

    with mock.patch.object(samplers, "_TABLE_BITS", 4), mock.patch.object(samplers, "_gibbs_run", run):
        many = draw_many(machines, cfg, range(len(machines)))
    assert runs == [[1, 3], [3, 0, 2], [4]]
    for i, (got, bm) in enumerate(zip(many, machines)):
        want = per_site_gibbs(bm, replace(cfg, seed=i))
        assert got.states.tobytes() == want[0].tobytes() and got.counts.tobytes() == want[1].astype(float).tobytes()


def test_draw_many_wants_one_config_per_machine():
    # a machine's config is the batch's under its own seed
    for seeds in ([], [1, 2]):
        with pytest.raises(ValueError):
            draw_many([single_node()], SamplerConfig(backend=Backend.GIBBS), seeds)


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


def test_empirical_distribution_projects_and_sorts_like_tuple_keys(rng):
    for basis in Basis:
        bm = random_machine(3, 0, 2, rng, basis=basis)
        ss = exact_sample(bm, SamplerConfig(beta=0.5, num_reads=500, seed=2))
        proj = [4, 0, 2]
        agg = {}
        for state, count in zip(ss.states, ss.counts):
            key = tuple(int(state[k]) for k in proj)
            agg[key] = agg.get(key, 0.0) + float(count)
        emp = empirical_distribution(ss, proj)
        assert emp.support == tuple(sorted(agg))
        assert emp.probs.tolist() == [agg[s] / 500 for s in sorted(agg)]


def test_empirical_of_exhaustive_equals_model_probability(rng):
    bm = random_machine(2, 0, 2, rng)
    ss = exact_sample(bm, SamplerConfig(beta=1.7, exhaustive=True))
    emp = empirical_distribution(ss, projection=range(2))
    exact = model_probability(bm, 1.7, projection=range(2))
    for state, p in exact.as_dict().items():
        assert emp.prob(state) == pytest.approx(p, abs=1e-12)


def test_merge_sample_sets_order_insensitive(rng):
    for basis in Basis:
        bm = random_machine(2, 0, 1, rng, basis=basis)
        parts = [exact_sample(bm, SamplerConfig(beta=1.0, num_reads=100, seed=s)) for s in range(3)]
        merged_a = merge_sample_sets(parts)
        merged_b = merge_sample_sets(parts[::-1])
        assert np.array_equal(merged_a.states, merged_b.states)
        assert np.array_equal(merged_a.counts, merged_b.counts)
        assert merged_a.num_reads == 300
        # the tuple-keyed aggregation it replaced: lexicographic, integer counts
        agg: dict = {}
        for part in parts:
            for state, count in zip(part.states, part.counts):
                key = tuple(int(b) for b in state)
                agg[key] = agg.get(key, 0) + int(count)
        keys = sorted(agg)
        reference = SampleSet(states=np.array(keys, dtype=np.int8), counts=np.array([agg[k] for k in keys]),
                              beta=1.0, num_reads=300, backend_id="ref", basis=basis)
        assert merged_a.basis is basis
        assert merged_a.states.tobytes() == reference.states.tobytes()
        assert merged_a.counts.tobytes() == reference.counts.tobytes()
        assert np.all(merged_a.counts == np.round(merged_a.counts))


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
