import csv
import json
import os
import socket
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from click.testing import CliRunner

import isingbm
from isingbm.cli import main
from isingbm.model import load_model_entry
from isingbm.samplers import load_sample_set


@pytest.fixture
def runner():
    return CliRunner()


def last_json_line(output: str) -> dict:
    lines = [l for l in output.strip().splitlines() if l.startswith("{")]
    return json.loads(lines[-1])


def test_train_writes_model_traces_and_manifest(runner, tmp_path):
    out = tmp_path / "run"
    result = runner.invoke(main, [
        "train", "--dataset", "and", "--arch", "3v1h", "--beta", "3",
        "--max-steps", "40", "--loss-every", "20", "--seeds", "2",
        "--out", str(out)])
    assert result.exit_code == 0, result.output
    summary = last_json_line(result.output)
    assert (out / "model_best.json").is_file()
    assert (out / "trace_seed0.csv").is_file()
    assert (out / "trace_seed1.csv").is_file()
    manifest = json.loads((out / "manifest.json").read_text())
    assert manifest["command"] == "train"
    assert manifest["seeds"] == [0, 1]
    assert str(out / "model_best.json") in manifest["outputs"]
    bm, meta = load_model_entry(out / "model_best.json")
    assert meta["dataset"] == "and"
    assert meta["seed"] == summary["best_seed"]
    assert meta["training_beta"] == 3.0


def test_train_function_mode(runner, tmp_path):
    out = tmp_path / "fa"
    result = runner.invoke(main, [
        "train", "--dataset", "xor", "--arch", "2i1o1h", "--mode", "function",
        "--beta", "6", "--max-steps", "60", "--loss-every", "30",
        "--out", str(out)])
    assert result.exit_code == 0, result.output
    bm, _ = load_model_entry(out / "model_best.json")
    assert (bm.num_visible_input, bm.num_visible_output, bm.num_hidden) == (2, 1, 1)


def test_train_is_rerunnable_bit_identically(runner, tmp_path):
    args = ["train", "--dataset", "or", "--arch", "3v1h", "--beta", "2",
            "--max-steps", "25", "--loss-every", "25", "--seeds", "1"]
    r1 = runner.invoke(main, args + ["--out", str(tmp_path / "a")])
    r2 = runner.invoke(main, args + ["--out", str(tmp_path / "b")])
    assert r1.exit_code == 0 and r2.exit_code == 0
    assert (tmp_path / "a" / "model_best.json").read_text() == \
        (tmp_path / "b" / "model_best.json").read_text()
    # traces match except the wall-clock column
    for name in ("trace_seed0.csv",):
        rows_a = list(csv.reader((tmp_path / "a" / name).open()))
        rows_b = list(csv.reader((tmp_path / "b" / name).open()))
        assert rows_a[0][4:] == ["sampler_calls_full", "sampler_calls_clamped"]
        assert [r[:3] + r[4:] for r in rows_a] == [r[:3] + r[4:] for r in rows_b]


def test_train_sampled_gibbs_without_hidden_nodes(runner, tmp_path):
    # the fully clamped data phase leaves no free node to draw
    out = tmp_path / "g"
    result = runner.invoke(main, [
        "train", "--dataset", "and", "--arch", "2i1o0h", "--mode", "function",
        "--gradient", "sampled", "--backend", "gibbs", "--reads", "50", "--max-steps", "2",
        "--out", str(out)])
    assert result.exit_code == 0, result.output
    rows = list(csv.reader((out / "trace_seed0.csv").open()))
    assert [r[4:] for r in rows[1:]] == [["0", "0"], ["0", "8"], ["0", "8"]]  # step 0 draws nothing


def test_missing_dataset_exits_2_with_error_json(runner, tmp_path):
    result = runner.invoke(main, [
        "train", "--dataset", str(tmp_path / "nope.csv"), "--arch", "3v1h",
        "--out", str(tmp_path / "x")])
    assert result.exit_code == 2
    err = json.loads(result.stderr.strip().splitlines()[-1])
    assert err["error"]["kind"] == "input"


def test_bad_arch_exits_2(runner, tmp_path):
    result = runner.invoke(main, [
        "train", "--dataset", "and", "--arch", "banana",
        "--out", str(tmp_path / "x")])
    assert result.exit_code == 2


def test_train_past_enumeration_cap_exits_2(runner, tmp_path):
    result = runner.invoke(main, [
        "train", "--dataset", "and", "--arch", "3v22h", "--max-steps", "2",
        "--out", str(tmp_path / "x")])
    assert result.exit_code == 2
    err = json.loads(result.stderr.strip().splitlines()[-1])
    assert err["error"]["kind"] == "capacity"


def _dead_port() -> int:
    with socket.socket() as sock:
        sock.bind(("127.0.0.1", 0))
        return sock.getsockname()[1]


@pytest.mark.parametrize("args, code, kind", [
    (["sample", "--model", "and_gate", "--beta", "0"], 2, "input"),
    (["train", "--dataset", "and", "--arch", "3v1h", "--beta", "-1"], 2, "input"),
    (["fit-beta", "--backend", "gibbs", "--beta", "0"], 2, "input"),
    (["fit-beta", "--backend", "remote", "--sizes", "4:4"], 2, "input"),
    (["fit-beta", "--backend", "remote", "--sizes", "4:4", "--endpoint", "localhost:1"], 2, "input"),
    (["fit-beta", "--backend", "remote", "--sizes", "4:4", "--endpoint", "http://127.0.0.1:{dead}"],
     3, "transport"),
], ids=["sample-beta-0", "train-beta-negative", "fit-beta-0", "fit-no-endpoint", "fit-no-scheme",
        "fit-dead-endpoint"])
def test_typed_failures_exit_with_code_and_kind(runner, tmp_path, monkeypatch, args, code, kind):
    monkeypatch.delenv("ISINGBM_ENDPOINT", raising=False)
    args = [a.format(dead=_dead_port()) for a in args] + ["--out", str(tmp_path / "out")]
    result = runner.invoke(main, args)
    assert result.exit_code == code, result.output
    err = json.loads(result.stderr.strip().splitlines()[-1])
    assert err["error"]["kind"] == kind


def test_cli_import_leaves_out_requests():
    # the remote client is the stdlib's; no start of the CLI loads requests
    src = str(Path(isingbm.__file__).parents[1])
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))}
    probe = "import sys, isingbm.cli; print('requests' in sys.modules)"
    out = subprocess.run([sys.executable, "-c", probe], env=env, capture_output=True, text=True, check=True)
    assert out.stdout.strip() == "False"


def test_sweep_beta_csv(runner, tmp_path):
    out = tmp_path / "sweep.csv"
    result = runner.invoke(main, [
        "sweep-beta", "--model", "and_gate", "--dataset", "and",
        "--beta-grid", "0.5:8:7log", "--out", str(out)])
    assert result.exit_code == 0, result.output
    rows = list(csv.reader(out.open()))
    header = rows[0]
    assert header[:4] == ["beta", "dkl", "dkl_dbeta", "d2kl_dbeta2"]
    assert "p_state_111" in header
    assert "cond_prob_11" in header
    assert len(rows) == 8
    cond_idx = header.index("cond_prob_11")
    conds = [float(r[cond_idx]) for r in rows[1:]]
    assert all(b > a for a, b in zip(conds, conds[1:]))  # sharpens with beta


def test_sweep_beta_flat_machine_constant_dkl(runner, tmp_path):
    from isingbm.model import BoltzmannMachine, save_model

    flat = BoltzmannMachine(3, 0, 0, np.zeros(3), {})
    model_path = tmp_path / "flat.json"
    save_model(flat, model_path)
    out = tmp_path / "sweep.csv"
    result = runner.invoke(main, [
        "sweep-beta", "--model", str(model_path), "--dataset", "and",
        "--beta-grid", "0.5:5:5", "--out", str(out)])
    assert result.exit_code == 0, result.output
    rows = list(csv.reader(out.open()))
    dkls = [float(r[1]) for r in rows[1:]]
    assert np.allclose(dkls, np.log(2))


def test_sweep_beta_bad_grid_exits_2(runner, tmp_path):
    result = runner.invoke(main, [
        "sweep-beta", "--model", "and_gate", "--dataset", "and",
        "--beta-grid", "10:1:5", "--out", str(tmp_path / "s.csv")])
    assert result.exit_code == 2


def test_sample_exhaustive_and_fit_beta_from_file(runner, tmp_path):
    sample_path = tmp_path / "samples.json"
    result = runner.invoke(main, [
        "sample", "--model", "and_gate", "--backend", "exact", "--exhaustive",
        "--beta", "3", "--out", str(sample_path)])
    assert result.exit_code == 0, result.output
    ss = load_sample_set(sample_path)
    assert ss.states.shape == (16, 4)
    assert ss.counts.sum() == pytest.approx(1.0)

    report_path = tmp_path / "fit.json"
    result = runner.invoke(main, [
        "fit-beta", "--model", "and_gate", "--sample-file", str(sample_path),
        "--out", str(report_path)])
    assert result.exit_code == 0, result.output
    report = json.loads(report_path.read_text())
    assert report["entries"][0]["beta_star"] == pytest.approx(3.0, rel=0.02)


def test_sample_gibbs_counts(runner, tmp_path):
    out = tmp_path / "g.json"
    result = runner.invoke(main, [
        "sample", "--model", "xor_trained", "--backend", "gibbs", "--beta", "1",
        "--reads", "10000", "--chains", "10", "--burn-in", "100",
        "--thinning", "2", "--out", str(out)])
    assert result.exit_code == 0, result.output
    ss = load_sample_set(out)
    assert int(ss.counts.sum()) == 10000


def test_sample_rerun_identical_bytes(runner, tmp_path):
    args = ["sample", "--model", "and_gate", "--backend", "exact",
            "--beta", "2", "--reads", "500", "--seed", "42"]
    r1 = runner.invoke(main, args + ["--out", str(tmp_path / "s1.json")])
    r2 = runner.invoke(main, args + ["--out", str(tmp_path / "s2.json")])
    assert r1.exit_code == 0 and r2.exit_code == 0
    assert (tmp_path / "s1.json").read_bytes() == (tmp_path / "s2.json").read_bytes()


def test_sample_remote_dead_endpoint_exits_3(runner, tmp_path):
    result = runner.invoke(main, [
        "sample", "--model", "and_gate", "--backend", "remote",
        "--endpoint", "http://127.0.0.1:45986", "--out", str(tmp_path / "r.json")])
    assert result.exit_code == 3
    err = json.loads(result.stderr.strip().splitlines()[-1])
    assert err["error"]["kind"] == "transport"


def test_fit_beta_live_gibbs_small(runner, tmp_path):
    out = tmp_path / "fit.json"
    result = runner.invoke(main, [
        "fit-beta", "--backend", "gibbs", "--beta", "2", "--sizes", "4:5",
        "--reads", "20000", "--chains", "20", "--out", str(out)])
    assert result.exit_code == 0, result.output
    report = json.loads(out.read_text())
    assert len(report["entries"]) == 2
    for entry in report["entries"]:
        assert entry["beta_star"] == pytest.approx(2.0, rel=0.15)


def test_verify_propositions_report(runner, tmp_path):
    out = tmp_path / "props.json"
    result = runner.invoke(main, [
        "verify-propositions", "--machines", "15", "--max-nodes", "6",
        "--seed", "3", "--out", str(out)])
    assert result.exit_code == 0, result.output
    report = json.loads(out.read_text())
    assert report["ground_state_monotone"]["fail"] == 0
    assert report["excited_eventual_decrease"]["fail"] == 0
    assert report["counterexamples"] == []


def test_verify_propositions_zero_machines(runner, tmp_path):
    out = tmp_path / "props.json"
    result = runner.invoke(main, ["verify-propositions", "--machines", "0",
                                  "--out", str(out)])
    assert result.exit_code == 0
    report = json.loads(out.read_text())
    assert report["ground_state_monotone"] == {"pass": 0, "fail": 0, "non_strict": 0}
