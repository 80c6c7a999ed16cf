import numpy as np
import pytest

from isingbm.datasets import (
    Dataset,
    adder2,
    builtin_dataset,
    from_rows,
    load_dataset,
    load_fixture,
    load_fixture_entry,
    logic_gate,
    save_dataset,
    two_phase,
)
from isingbm.errors import DatasetFormatError
from isingbm.model import Basis, state_index


def test_row_accessors_serve_int_tuples_of_the_rows():
    ds = adder2()
    for d in range(ds.num_rows):
        assert ds.row(d) == tuple(int(b) for b in ds.rows[d])
        assert ds.input_part(d) == tuple(int(b) for b in ds.rows[d, :4])
        assert ds.output_part(d) == tuple(int(b) for b in ds.rows[d, 4:])
        assert all(type(b) is int for b in ds.row(d))
    with pytest.raises(ValueError):
        from_rows(ds.rows).input_part(0)


def test_dataset_copies_the_callers_arrays_before_freezing():
    rows, weights = np.array([[0, 1], [1, 1]], dtype=np.int8), np.array([0.25, 0.75])
    ds = Dataset(rows, weights)
    rows[0, 0], weights[0] = 1, 0.5  # the caller's arrays stay writeable
    assert ds.rows.tolist() == [[0, 1], [1, 1]] and ds.weights.tolist() == [0.25, 0.75]
    assert not ds.rows.flags.writeable and not ds.weights.flags.writeable


def test_dataset_keeps_each_rows_state_index():
    for ds in (adder2(), two_phase(10), from_rows([(1, 1, 0), (0, 0, 1)])):
        assert ds._indices.tolist() == [state_index(ds.row(d)) for d in range(ds.num_rows)]
        assert not ds._indices.flags.writeable


def test_xor_rows_match_truth_table():
    ds = logic_gate("XOR")
    assert sorted(ds.row(d) for d in range(4)) == [(0, 0, 0), (0, 1, 1), (1, 0, 1), (1, 1, 0)]
    assert ds.io_split == (2, 1)
    assert np.allclose(ds.weights, 0.25)


def test_and_or_rows():
    assert sorted(logic_gate("and").row(d) for d in range(4)) == [
        (0, 0, 0), (0, 1, 0), (1, 0, 0), (1, 1, 1)]
    assert sorted(logic_gate("OR").row(d) for d in range(4)) == [
        (0, 0, 0), (0, 1, 1), (1, 0, 1), (1, 1, 1)]


def test_unknown_gate():
    with pytest.raises(ValueError):
        logic_gate("NAND")


def test_adder_rows_and_arithmetic():
    ds = adder2()
    assert ds.num_rows == 16 and ds.io_split == (4, 3)
    assert np.allclose(ds.weights, 1 / 16)
    for d in range(16):
        a1, a0, b1, b0, c2, c1, c0 = ds.row(d)
        assert 4 * c2 + 2 * c1 + c0 == (2 * a1 + a0) + (2 * b1 + b0)
    # spot rows
    rows = {ds.row(d) for d in range(16)}
    assert (0, 1, 1, 1, 1, 0, 0) in rows
    assert (1, 1, 1, 1, 1, 1, 0) in rows


def test_two_phase_rows():
    ds = two_phase(10)
    assert ds.num_rows == 11
    rows = [ds.row(d) for d in range(11)]
    assert (0,) * 10 in rows and (1,) * 10 in rows
    for row in rows:
        assert all(a <= b for a, b in zip(row, row[1:]))  # one boundary at most
    assert np.allclose(ds.weights, 1 / 11)
    assert two_phase(1).num_rows == 2


def test_dataset_invariants():
    with pytest.raises(ValueError):
        Dataset(np.array([[0, 1], [0, 1]]), np.array([0.5, 0.5]))  # duplicate rows
    with pytest.raises(ValueError):
        Dataset(np.array([[0, 1]]), np.array([0.5]))  # weights don't sum to 1
    with pytest.raises(ValueError):
        from_rows([(0, 1)], io_split=(2, 1))


# ---------------------------------------------------------------- files


def test_dataset_csv_round_trip(tmp_path):
    ds = adder2()
    path = tmp_path / "adder.csv"
    save_dataset(ds, path)
    loaded = load_dataset(path)
    assert loaded.io_split == ds.io_split
    assert np.array_equal(loaded.rows, ds.rows)
    assert np.allclose(loaded.weights, ds.weights)


def test_dataset_csv_without_weights_is_uniform(tmp_path):
    path = tmp_path / "d.csv"
    path.write_text("bit_0,bit_1\n0,1\n1,0\n")
    ds = load_dataset(path)
    assert np.allclose(ds.weights, 0.5)
    assert ds.io_split is None


def test_dataset_csv_negative_weight_fails_with_line(tmp_path):
    path = tmp_path / "d.csv"
    path.write_text("bit_0,weight\n0,0.5\n1,-0.5\n")
    with pytest.raises(DatasetFormatError) as err:
        load_dataset(path)
    assert err.value.line == 3


def test_dataset_csv_non_finite_weight_fails_with_line(tmp_path):
    for weight in ("nan", "inf"):
        path = tmp_path / "d.csv"
        path.write_text(f"bit_0,weight\n0,0.5\n1,{weight}\n")
        with pytest.raises(DatasetFormatError, match="finite") as err:
            load_dataset(path)
        assert err.value.line == 3


def test_dataset_refuses_non_finite_weights():
    for weights in ([np.nan, np.nan], [np.inf, 1.0]):
        with pytest.raises(ValueError, match="finite"):
            Dataset(np.array([[0], [1]]), np.array(weights))
        with pytest.raises(ValueError, match="finite"):
            from_rows([(0,), (1,)], weights)
    with pytest.raises(ValueError):  # 0 / 0 is NaN, refused without a warning
        from_rows([(0,), (1,)], [0.0, 0.0])


def test_dataset_rows_must_be_states_of_one_basis():
    # (2, 0) and (0, 0) would share index 0; a row of -1s and 0s is in no basis
    for rows in ([(2, 0), (0, 0), (1, 1)], [(-1, 1), (0, 1)]):
        with pytest.raises(ValueError, match="one basis"):
            from_rows(rows)
    assert from_rows([(-1, 1), (1, 1)])._basis is Basis.PLUS_MINUS


def test_dataset_csv_bad_bits(tmp_path):
    path = tmp_path / "d.csv"
    path.write_text("# io_split=1,1\nbit_0,bit_1\n0,2\n")
    with pytest.raises(DatasetFormatError):
        load_dataset(path)


def test_builtin_lookup():
    assert builtin_dataset("adder2").num_rows == 16
    assert builtin_dataset("two_phase_4").num_rows == 5
    with pytest.raises(ValueError):
        builtin_dataset("mnist")


# ---------------------------------------------------------------- bundled machines


def test_xor_ground_fixture_values():
    bm = load_fixture("xor_ground_state")
    assert bm.num_nodes == 4
    assert np.allclose(bm.biases, [0.25, 0.25, 0.25, 1.0])
    assert bm.coupling(0, 1) == 0.5
    assert bm.coupling(0, 3) == -1.0


def test_two_phase_fixture_values():
    bm = load_fixture("two_phase_trained")
    assert bm.num_nodes == 18
    assert (bm.num_visible_input, bm.num_hidden) == (10, 8)
    assert bm.biases[0] == pytest.approx(0.7009)
    assert bm.coupling(8, 9) == pytest.approx(-1.0)   # deepest visible-visible link
    assert bm.coupling(16, 17) == pytest.approx(-0.8370)


def test_and_gate_fixture_values():
    bm = load_fixture("and_gate")
    assert bm.biases[2] == pytest.approx(0.6791)
    assert bm.coupling(0, 1) == pytest.approx(0.5737)


def test_adder_fixtures_identical_with_caveat():
    fa, meta_fa = load_fixture_entry("adder_function")
    dm, meta_dm = load_fixture_entry("adder_distribution")
    assert np.array_equal(fa.biases, dm.biases)
    assert dict(fa.couplings) == dict(dm.couplings)
    assert "caveat" in meta_fa and "caveat" in meta_dm
    assert fa.h_max == 2.0 and fa.j_max == 1.0
    assert (fa.num_visible_input, fa.num_visible_output, fa.num_hidden) == (4, 3, 10)
    assert fa.biases[0] == pytest.approx(0.7388)
    assert fa.coupling(0, 4) == pytest.approx(-1.0)
    assert fa.biases[11] == pytest.approx(-1.0693)  # sits past the default bias cap


def test_unknown_fixture():
    with pytest.raises(ValueError):
        load_fixture("nonexistent")
