import itertools
import json

import numpy as np
import pytest

from isingbm.model import (
    Basis,
    BoltzmannMachine,
    SpinState,
    all_energies,
    clamp_visible,
    convert_basis,
    convert_state,
    energies,
    energy,
    ground_states,
    load_model,
    load_model_entry,
    model_from_dict,
    model_to_dict,
    random_machine,
    save_model,
    state_index,
    state_matrix,
)
from isingbm.model import _json, _write_json
from isingbm.datasets import load_fixture


def machine(biases, couplings, basis=Basis.ZERO_ONE, m_i=None, m_o=0, n_h=0):
    biases = np.asarray(biases, dtype=float)
    if m_i is None:
        m_i = len(biases) - m_o - n_h
    return BoltzmannMachine(m_i, m_o, n_h, biases, couplings, basis=basis)


# ---------------------------------------------------------------- energy


def test_energy_all_zero_state_is_zero():
    bm = machine([0.3, -0.7, 0.2], {(0, 1): 0.5, (1, 2): -0.4})
    assert energy(bm, SpinState((0, 0, 0))) == 0.0


def test_energy_single_node_bias():
    bm = machine([0.5], {})
    assert energy(bm, SpinState((1,))) == 0.5


def test_energy_and_gate_fixture_all_ones_hidden_off():
    bm = load_fixture("and_gate")
    assert energy(bm, SpinState((1, 1, 1, 0))) == pytest.approx(0.5094, abs=1e-12)


def test_energy_counts_each_pair_once():
    bm = machine([0.0, 0.0], {(0, 1): 2.0})
    assert energy(bm, SpinState((1, 1))) == 2.0


def test_energy_rejects_basis_mismatch():
    bm = machine([0.1], {})
    with pytest.raises(ValueError):
        energy(bm, SpinState((1,), Basis.PLUS_MINUS))


def test_energy_rejects_length_mismatch():
    bm = machine([0.1, 0.2], {})
    with pytest.raises(ValueError):
        energy(bm, SpinState((1,)))


def test_vectorized_energies_match_scalar(rng):
    bm = random_machine(3, 0, 2, rng)
    S = state_matrix(5, Basis.ZERO_ONE)
    expected = [energy(bm, SpinState(tuple(int(v) for v in row))) for row in S]
    assert np.allclose(energies(bm, S), expected, atol=1e-12)


# ---------------------------------------------------------------- types


def test_spin_state_validates_symbols():
    with pytest.raises(ValueError):
        SpinState((0, 2))
    with pytest.raises(ValueError):
        SpinState((0, 1), Basis.PLUS_MINUS)
    SpinState((-1, 1), Basis.PLUS_MINUS)


def test_machine_rejects_self_coupling():
    with pytest.raises(ValueError):
        machine([0.0, 0.0], {(1, 1): 0.5})


@pytest.mark.parametrize("value", [np.nan, np.inf, -np.inf])
def test_machine_refuses_non_finite_parameters(value):
    with pytest.raises(ValueError, match="finite"):
        machine([0.0, value], {})
    with pytest.raises(ValueError, match="finite"):
        machine([0.0, 0.0], {(0, 1): value})
    with pytest.raises(ValueError, match="positive"):
        BoltzmannMachine(1, 0, 0, np.zeros(1), {}, h_max=np.nan)


def test_model_file_with_non_finite_parameters_is_refused(tmp_path):
    # json reads NaN and Infinity, so a model file can carry them
    path = tmp_path / "m.json"
    doc = model_to_dict(machine([0.25, -0.5], {(0, 1): 0.125}))
    doc["couplings"][0][2] = float("nan")
    path.write_text(json.dumps(doc))
    with pytest.raises(ValueError, match="finite"):
        load_model(path)


@pytest.mark.parametrize("field, value", [
    ("m_I", 2.7),                      # was loaded as 2
    ("m_I", "2"),                      # likewise
    ("couplings", [[0, 1.9, 0.125]]),  # an index, was loaded as 1
    ("biases", [True, -0.5]),          # was loaded as 1.0
    ("couplings", [[0, 1, True]]),     # likewise
    ("h_max", "1"),
    ("basis", 1),
    ("metadata", []),
    ("basis", 10**4000),               # was written out whole, 4,037 characters
    ("m_I", "2" * 5000),               # likewise
], ids=["m_I-2.7", "m_I-string", "index-1.9", "bias-true", "coupling-true", "h_max-string", "basis-1",
        "metadata-list", "basis-10**4000", "m_I-long-string"])
def test_model_file_values_of_the_wrong_json_type_are_refused(tmp_path, field, value):
    doc = model_to_dict(machine([0.25, -0.5], {(0, 1): 0.125}))
    path = tmp_path / "m.json"
    path.write_text(json.dumps({**doc, field: value}))
    with pytest.raises(ValueError, match="must be JSON of type") as refused:
        load_model(path)
    assert len(str(refused.value)) <= 100


@pytest.mark.parametrize("terms", [[[0, 1, 0.125], [0, 1, 0.25]], [[0, 1, 0.125], [1, 0, 0.25]]],
                         ids=["verbatim", "mirrored"])
def test_model_file_with_a_pair_given_twice_is_refused(tmp_path, terms):
    # the verbatim repeat was loaded with its last value
    doc = model_to_dict(machine([0.25, -0.5], {(0, 1): 0.125}))
    path = tmp_path / "m.json"
    path.write_text(json.dumps({**doc, "couplings": terms}))
    with pytest.raises(ValueError, match=r"duplicate coupling entry for pair \(0, 1\)"):
        load_model(path)


def test_a_value_of_the_wrong_json_type_is_named_by_its_type_when_nested_deep():
    # writing the list out in the message raised a RecursionError
    deep = []
    for _ in range(5000):
        deep = [deep]
    with pytest.raises(ValueError, match="a bias must be JSON of type int/float, got list"):
        _json(deep, "a bias", int, float)


def test_machine_coupling_lookup_is_symmetric():
    bm = machine([0.0, 0.0, 0.0], {(2, 0): 0.25})
    assert bm.coupling(0, 2) == bm.coupling(2, 0) == 0.25
    assert bm.coupling(0, 1) == 0.0


def test_machine_bounds_check_on_demand():
    bm = machine([1.5], {})
    with pytest.raises(ValueError):
        bm.assert_within_bounds()
    machine([0.9], {}).assert_within_bounds()


def test_partition_indexing():
    bm = BoltzmannMachine(2, 1, 3, np.zeros(6), {})
    assert bm.num_visible == 3 and bm.num_nodes == 6


# ---------------------------------------------------------------- clamping


def test_clamp_nothing_is_identity():
    bm = machine([0.3, -0.1], {(0, 1): 0.7})
    reduced, offset = clamp_visible(bm, {})
    assert offset == 0.0
    assert np.array_equal(reduced.biases, bm.biases)
    assert dict(reduced.couplings) == dict(bm.couplings)


def test_clamp_zero_kills_interaction_in_zero_one_basis():
    bm = machine([0.2, 0.4], {(0, 1): 0.9})
    reduced, offset = clamp_visible(bm, {0: 0})
    assert offset == 0.0
    assert reduced.biases[0] == 0.4
    assert not reduced.couplings


def test_clamp_and_gate_fixture():
    bm = load_fixture("and_gate")
    reduced, offset = clamp_visible(bm, {0: 1, 1: 1, 2: 1})
    assert reduced.num_nodes == 1
    assert reduced.biases[0] == pytest.approx(-0.5836, abs=1e-12)
    assert offset == pytest.approx(0.5094, abs=1e-12)


def test_clamp_rejects_value_outside_basis():
    bm = machine([0.2, 0.4], {(0, 1): 0.9})
    with pytest.raises(ValueError):
        clamp_visible(bm, {0: -1})


@pytest.mark.parametrize("basis", [Basis.ZERO_ONE, Basis.PLUS_MINUS])
def test_clamp_energy_decomposition_exhaustive(rng, basis):
    # energy(bm, clamped+free) == offset + energy(reduced, free), all states
    for _ in range(20):
        n = int(rng.integers(2, 8))
        bm = random_machine(n, 0, 0, rng, basis=basis)
        k = int(rng.integers(1, n))
        clamp_nodes = sorted(rng.choice(n, size=k, replace=False))
        lo, hi = basis.symbols
        assignment = {int(c): int(rng.choice([lo, hi])) for c in clamp_nodes}
        reduced, offset = clamp_visible(bm, assignment)
        free = [i for i in range(n) if i not in assignment]
        for free_vals in itertools.product(basis.symbols, repeat=len(free)):
            full = [0] * n
            for c, v in assignment.items():
                full[c] = v
            for f, v in zip(free, free_vals):
                full[f] = v
            lhs = energy(bm, SpinState(tuple(full), basis))
            rhs = offset + energy(reduced, SpinState(free_vals, basis))
            assert lhs == pytest.approx(rhs, abs=1e-12)


def test_clamp_preserves_energy_gaps(rng):
    bm = random_machine(2, 0, 2, rng)
    assignment = {0: 1, 1: 0}
    reduced, _ = clamp_visible(bm, assignment)
    full_e = []
    red_e = []
    for h in itertools.product((0, 1), repeat=2):
        full_e.append(energy(bm, SpinState((1, 0) + h)))
        red_e.append(energy(reduced, SpinState(h)))
    gaps_full = np.diff(sorted(full_e))
    gaps_red = np.diff(sorted(red_e))
    assert np.allclose(gaps_full, gaps_red, atol=1e-12)


# ---------------------------------------------------------------- basis conversion


def test_convert_state_examples():
    assert convert_state(SpinState((0, 1, 0))).values == (-1, 1, -1)
    assert convert_state(SpinState((0, 0, 0))).values == (-1, -1, -1)


def test_convert_state_round_trip(rng):
    for _ in range(50):
        values = tuple(int(v) for v in rng.integers(0, 2, size=6))
        s = SpinState(values)
        assert convert_state(convert_state(s)) == s


def test_convert_basis_single_node():
    bm = machine([1.0], {})
    converted = convert_basis(bm)
    assert converted.basis is Basis.PLUS_MINUS
    assert converted.biases[0] == pytest.approx(0.5)


def test_convert_basis_two_node_example():
    bm = machine([0.0, 0.0], {(0, 1): 4.0})
    converted = convert_basis(bm)
    assert converted.couplings[(0, 1)] == pytest.approx(1.0)
    assert np.allclose(converted.biases, [1.0, 1.0])
    # energy tables shift by a constant: {0,0,0,4} vs {-1,-1,-1,3}
    e01 = sorted(energies(bm, state_matrix(2, Basis.ZERO_ONE)))
    epm = sorted(energies(converted, state_matrix(2, Basis.PLUS_MINUS)))
    assert np.allclose(e01, [0, 0, 0, 4])
    assert np.allclose(epm, [-1, -1, -1, 3])
    assert np.allclose(np.diff(e01), np.diff(epm))


def test_convert_basis_round_trip_is_identity(rng):
    for _ in range(20):
        bm = random_machine(2, 1, 2, rng)
        back = convert_basis(convert_basis(bm))
        assert back.basis is bm.basis
        assert np.allclose(back.biases, bm.biases, atol=1e-12)
        for pair, v in bm.couplings.items():
            assert back.couplings[pair] == pytest.approx(v, abs=1e-12)


@pytest.mark.parametrize("beta", [0.5, 1.0, 2.0])
def test_convert_basis_preserves_boltzmann_distribution(rng, beta):
    # state-by-state probabilities agree once states are mapped by S = 2s - 1
    for _ in range(10):
        n = int(rng.integers(2, 9))
        bm = random_machine(n, 0, 0, rng)
        converted = convert_basis(bm)
        e01 = all_energies(bm)
        epm = all_energies(converted)
        p01 = np.exp(-beta * (e01 - e01.min()))
        p01 /= p01.sum()
        ppm = np.exp(-beta * (epm - epm.min()))
        ppm /= ppm.sum()
        # lexicographic order is preserved by the state map (0 -> -1, 1 -> +1)
        assert np.max(np.abs(p01 - ppm)) <= 1e-12


# ---------------------------------------------------------------- enumeration


def test_state_matrix_small_orders():
    assert state_matrix(1).tolist() == [[0], [1]]
    assert state_matrix(2).tolist() == [[0, 0], [0, 1], [1, 0], [1, 1]]


def test_state_index_inverts_state_matrix():
    S = state_matrix(5, Basis.ZERO_ONE)
    for idx in (0, 7, 19, 31):
        assert state_index(S[idx]) == idx
    Spm = state_matrix(3, Basis.PLUS_MINUS)
    for idx in range(8):
        assert state_index(Spm[idx], Basis.PLUS_MINUS) == idx


# ---------------------------------------------------------------- ground states


def test_ground_states_flat_machine():
    bm = machine([0.0, 0.0, 0.0], {})
    states, e_min = ground_states(bm)
    assert e_min == 0.0
    assert len(states) == 8


def test_ground_states_single_node_positive_bias():
    bm = machine([1.0], {})
    states, e_min = ground_states(bm)
    assert e_min == 0.0
    assert [s.values for s in states] == [(0,)]


def test_ground_states_xor_fixture_visible_projections():
    bm = load_fixture("xor_ground_state")
    states, e_min = ground_states(bm)
    assert e_min == 0.0
    projections = sorted({s.values[:3] for s in states})
    assert projections == [(0, 0, 0), (0, 1, 1), (1, 0, 1), (1, 1, 0)]


# ---------------------------------------------------------------- files


def test_model_round_trip(tmp_path, rng):
    bm = random_machine(2, 1, 2, rng, basis=Basis.PLUS_MINUS, h_max=2.0)
    path = tmp_path / "model.json"
    save_model(bm, path, metadata={"note": "test"})
    loaded, meta = load_model_entry(path)
    assert meta == {"note": "test"}
    assert loaded.basis is bm.basis
    assert (loaded.num_visible_input, loaded.num_visible_output, loaded.num_hidden) == (2, 1, 2)
    assert loaded.h_max == 2.0
    assert np.allclose(loaded.biases, bm.biases)
    assert dict(loaded.couplings) == pytest.approx(dict(bm.couplings))


def test_model_dict_rejects_missing_fields():
    # a missing field and a null one are told apart; both read "got null" before
    doc = model_to_dict(machine([0.0], {}))
    for field in ("m_I", "m_O", "n", "basis", "biases", "couplings"):
        with pytest.raises(ValueError, match="got null"):
            model_from_dict({**doc, field: None})
        with pytest.raises(ValueError, match=f"^{field} is missing$"):
            model_from_dict({k: v for k, v in doc.items() if k != field})


def test_load_model_plain(tmp_path):
    bm = machine([0.25, -0.5], {(0, 1): 0.125})
    save_model(bm, tmp_path / "m.json")
    loaded = load_model(tmp_path / "m.json")
    assert loaded.coupling(0, 1) == 0.125


@pytest.mark.parametrize("value, error", [(float("nan"), ValueError), (np.int64(1), TypeError)])
def test_json_writer_refuses_what_strict_json_cannot_hold(tmp_path, value, error):
    with pytest.raises(error):
        _write_json(tmp_path / "doc.json", {"reads": [1, 2.5], "bad": value})
    assert list(tmp_path.iterdir()) == []  # no file and no temporary left behind


@pytest.mark.parametrize("category", [DeprecationWarning, FutureWarning])
def test_a_deprecation_raised_in_the_package_fails_the_suite(category):
    # pyproject's filterwarnings: on the numpy floor, leaning on a deprecated
    # behaviour (such as a wrapping int8 cast) is an error, not a warning
    code = f"import warnings; warnings.warn('deprecated', {category.__name__})"
    with pytest.raises(category):
        exec(code, {"__name__": "isingbm.model"})
