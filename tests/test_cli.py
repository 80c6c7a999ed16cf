import csv
import json
import os
import re
import socket
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from click.testing import CliRunner

import isingbm
from isingbm.cli import _write_json, main
from isingbm.datasets import load_fixture
from isingbm.model import convert_basis, load_model_entry, save_model
from isingbm.samplers import Backend, SamplerConfig, draw_samples, load_sample_set, save_sample_set
from isingbm.training import TrainingConfig


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
        rows_a = list(csv.reader((tmp_path / "a" / name).read_text().splitlines()))
        rows_b = list(csv.reader((tmp_path / "b" / name).read_text().splitlines()))
        assert rows_a[0][4:] == ["sampler_calls_full", "sampler_calls_clamped"]
        assert [r[:3] + r[4:] for r in rows_a] == [r[:3] + r[4:] for r in rows_b]


def _stable_content(path: Path):
    """A ``reproduce`` artifact without its wall-clock fields: the manifests'
    timestamps, summary.json's elapsed_seconds and the traces' seconds."""
    data = path.read_bytes()
    if path.name.startswith("trace_seed"):
        rows = list(csv.reader(data.decode().splitlines()))
        col = rows[0].index("seconds")
        return [r[:col] + r[col + 1:] for r in rows]
    return re.sub(rb'("(?:started_at|finished_at|elapsed_seconds)": )[^,\n]*', rb"\1", data)


def test_reproduce_quick_reruns_bit_identically(runner, tmp_path):
    # the paper's pipeline, twice into the same path (the manifests record it)
    out, first = tmp_path / "out", tmp_path / "first"
    r1 = runner.invoke(main, ["reproduce", "--quick", "--out", str(out)])
    assert r1.exit_code == 0, r1.output
    assert set(strict_json_line(r1.output)) == {"out", "elapsed_seconds"}
    out.rename(first)
    r2 = runner.invoke(main, ["reproduce", "--quick", "--out", str(out)])
    assert r2.exit_code == 0, r2.output
    files = sorted(p.relative_to(out) for p in out.rglob("*") if p.is_file())
    assert files == sorted(p.relative_to(first) for p in first.rglob("*") if p.is_file())
    assert len(files) == 37 and not any(p.suffix == ".tmp" for p in files)
    for rel in files:
        assert _stable_content(out / rel) == _stable_content(first / rel), rel


def test_train_sampled_gibbs_without_hidden_nodes(runner, tmp_path):
    # the fully clamped data phase leaves no free node to draw
    out = tmp_path / "g"
    result = runner.invoke(main, [
        "train", "--dataset", "and", "--arch", "2i1o0h", "--mode", "function",
        "--gradient", "sampled", "--backend", "gibbs", "--reads", "50", "--max-steps", "2",
        "--out", str(out)])
    assert result.exit_code == 0, result.output
    rows = list(csv.reader((out / "trace_seed0.csv").read_text().splitlines()))
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


def test_train_zero_seeds_exits_2(runner, tmp_path):
    result = runner.invoke(main, [
        "train", "--dataset", "and", "--arch", "3v1h", "--seeds", "0",
        "--out", str(tmp_path / "x")])
    assert result.exit_code == 2
    assert "--seeds" in result.output


def test_train_past_enumeration_cap_exits_2(runner, tmp_path):
    result = runner.invoke(main, [
        "train", "--dataset", "and", "--arch", "3v22h", "--max-steps", "2",
        "--out", str(tmp_path / "x")])
    assert result.exit_code == 2
    err = json.loads(result.stderr.strip().splitlines()[-1])
    assert err["error"]["kind"] == "capacity"


def _strict(text: str):
    """JSON that refuses NaN and the infinities, as a strict reader does."""
    def refuse(name):
        raise ValueError(f"{name} is not JSON")
    return json.loads(text, parse_constant=refuse)


def test_sampled_train_past_the_cap_writes_a_null_loss(runner, tmp_path, enumeration_cap):
    # Gibbs draws the 4-node machine, but a cap of 3 leaves no loss to evaluate
    enumeration_cap(3)
    out = tmp_path / "x"
    result = runner.invoke(main, [
        "train", "--dataset", "and", "--arch", "3v1h", "--gradient", "sampled", "--backend", "gibbs",
        "--reads", "20", "--max-steps", "1", "--out", str(out)])
    assert result.exit_code == 0, result.output
    assert _strict(result.output.strip().splitlines()[-1])["best_final_loss"] is None
    assert _strict((out / "model_best.json").read_text())["metadata"]["final_loss"] is None


def test_json_writers_refuse_non_finite_values(tmp_path):
    bm = load_fixture("and_gate")
    with pytest.raises(ValueError):
        save_model(bm, tmp_path / "m.json", metadata={"final_loss": float("nan")})
    with pytest.raises(ValueError):
        _write_json(tmp_path / "r.json", {"min_dkl": float("inf")})
    assert list(tmp_path.iterdir()) == []  # no file and no temporary left behind


def test_sweep_beta_refuses_rows_in_the_other_basis(runner, tmp_path):
    # 0/1 rows on a +-1 machine: the sweep wrote an infinite divergence beside finite derivatives
    save_model(convert_basis(load_fixture("xor_ground_state")), tmp_path / "pm.json")
    out = tmp_path / "s.csv"
    result = runner.invoke(main, ["sweep-beta", "--model", str(tmp_path / "pm.json"), "--dataset", "two_phase_3",
                                  "--beta-grid", "1:2:2", "--out", str(out)])
    assert result.exit_code == 2, result.output
    assert json.loads(result.stderr.strip().splitlines()[-1])["error"]["kind"] == "input"
    assert not out.exists()


def test_a_dataset_file_named_like_a_built_in_is_read_as_a_file(runner, tmp_path, monkeypatch):
    # only a whole built-in name (two_phase or two_phase_N) is a built-in:
    # two_phase_10.csv was parsed as two_phase with size '10.csv' and exited 2
    from importlib import resources

    monkeypatch.chdir(tmp_path)
    bundled = resources.files("isingbm").joinpath("data", "datasets", "two_phase_10.csv")
    Path("two_phase_10.csv").write_bytes(bundled.read_bytes())
    for spec in ("two_phase_10.csv", "two_phase"):
        result = runner.invoke(main, ["sweep-beta", "--model", "two_phase_trained", "--dataset", spec,
                                      "--beta-grid", "1:2:2", "--out", f"{spec}.sweep.csv"])
        assert result.exit_code == 0, result.output
    assert Path("two_phase_10.csv.sweep.csv").read_bytes() == Path("two_phase.sweep.csv").read_bytes()


def _dead_port() -> int:
    with socket.socket() as sock:
        sock.bind(("127.0.0.1", 0))
        return sock.getsockname()[1]


@pytest.mark.parametrize("args, code, kind", [
    (["sample", "--model", "and_gate", "--beta", "0"], 2, "input"),
    (["sample", "--model", "and_gate", "--backend", "gibbs", "--beta", "nan", "--reads", "20",
      "--burn-in", "5"], 2, "input"),
    (["train", "--dataset", "and", "--arch", "3v1h", "--beta", "-1"], 2, "input"),
    (["fit-beta", "--backend", "gibbs", "--beta", "0"], 2, "input"),
    (["fit-beta", "--backend", "remote", "--sizes", "4:4"], 2, "input"),
    (["fit-beta", "--backend", "remote", "--sizes", "4:4", "--endpoint", "localhost:1"], 2, "input"),
    (["fit-beta", "--backend", "remote", "--sizes", "4:4", "--endpoint", "http://127.0.0.1:{dead}"],
     3, "transport"),
    (["sweep-beta", "--model", "and_gate", "--dataset", "two_phase"], 2, "input"),
    (["fit-beta", "--sizes", "9:4"], 2, "usage"),
    (["sample", "--model", "and_gate", "--backend", "gibbs", "--exhaustive"], 2, "input"),
    (["fit-beta", "--backend", "gibbs", "--exhaustive", "--sizes", "4:4"], 2, "input"),
    (["train", "--dataset", "and", "--arch", "3v1h", "--config", "{config}", "--beta", "5", "--eta", "0.3"],
     2, "usage"),
], ids=["sample-beta-0", "sample-gibbs-beta-nan", "train-beta-negative", "fit-beta-0", "fit-no-endpoint", "fit-no-scheme",
        "fit-dead-endpoint", "sweep-dataset-width", "fit-sizes-reversed", "sample-gibbs-exhaustive",
        "fit-gibbs-exhaustive", "train-config-with-flags"])
def test_typed_failures_exit_with_code_and_kind(runner, tmp_path, monkeypatch, args, code, kind):
    monkeypatch.delenv("ISINGBM_ENDPOINT", raising=False)
    config = tmp_path / "cfg.json"  # a valid config: only the flags typed beside it are at fault
    config.write_text(json.dumps(TrainingConfig(sampler=SamplerConfig(beta=2.0)).to_dict()))
    args = [a.format(dead=_dead_port(), config=config) for a in args] + ["--out", str(tmp_path / "out")]
    result = runner.invoke(main, args)
    assert result.exit_code == code, result.output
    err = json.loads(result.stderr.strip().splitlines()[-1])
    assert err["error"]["kind"] == kind


def test_non_finite_inputs_exit_2(runner, tmp_path):
    # each was accepted and written out as NaN, or died with exit 1
    dataset = tmp_path / "nan.csv"
    dataset.write_text("bit_0,bit_1,weight\n0,0,nan\n1,1,nan\n")
    model = tmp_path / "nan_model.json"
    model.write_text('{"basis": "01", "m_I": 2, "m_O": 0, "n": 0, "biases": [NaN, 0.5], "couplings": []}\n')
    samples = tmp_path / "inf_samples.json"
    samples.write_text('{"beta": 1.0, "num_reads": 2, "states": [[0, 1, 1, 0]], "counts": [Infinity]}\n')
    for args in (["sweep-beta", "--model", "xor_ground_state", "--dataset", str(dataset)],
                 ["sweep-beta", "--model", str(model), "--dataset", "xor"],
                 ["sample", "--model", str(model)],
                 ["fit-beta", "--model", "and_gate", "--sample-file", str(samples)]):
        result = runner.invoke(main, args + ["--out", str(tmp_path / "out.json")])
        assert result.exit_code == 2, (args, result.output)
        err = json.loads(result.stderr.strip().splitlines()[-1])
        assert err["error"]["kind"] == "input" and "finite" in err["error"]["message"]
        assert not (tmp_path / "out.json").exists()


def test_cli_import_leaves_out_requests():
    # the remote client is the stdlib's; no start of the CLI loads requests
    src = str(Path(isingbm.__file__).parents[1])
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))}
    probe = "import sys, isingbm.cli; print('requests' in sys.modules)"
    out = subprocess.run([sys.executable, "-c", probe], env=env, capture_output=True, text=True, check=True)
    assert out.stdout.strip() == "False"


def test_cli_import_leaves_out_the_http_stack():
    # only remote_sample posts over HTTP; it loads the stack when called
    src = str(Path(isingbm.__file__).parents[1])
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))}
    probe = ("import sys, isingbm.cli; "
             "print([m for m in ('http.client', 'ssl', 'email', 'urllib.request') if m in sys.modules])")
    out = subprocess.run([sys.executable, "-c", probe], env=env, capture_output=True, text=True, check=True)
    assert out.stdout.strip() == "[]"


def test_sweep_beta_csv(runner, tmp_path):
    out = tmp_path / "sweep.csv"
    result = runner.invoke(main, [
        "sweep-beta", "--model", "and_gate", "--dataset", "and",
        "--beta-grid", "0.5:8:7log", "--out", str(out)])
    assert result.exit_code == 0, result.output
    rows = list(csv.reader(out.read_text().splitlines()))
    header = rows[0]
    assert header[:4] == ["beta", "dkl", "dkl_dbeta", "d2kl_dbeta2"]
    assert "p_state_111" in header
    assert "cond_prob_11" in header
    assert len(rows) == 8
    cond_idx = header.index("cond_prob_11")
    conds = [float(r[cond_idx]) for r in rows[1:]]
    assert all(b > a for a, b in zip(conds, conds[1:]))  # sharpens with beta


@pytest.mark.parametrize("model, dataset", [("adder_function", "adder2"), ("two_phase_trained", "two_phase")])
def test_sweep_beta_row_columns_are_the_public_readouts(runner, tmp_path, model, dataset):
    # the per-row columns are gathers of the arrays the public readouts index
    from isingbm.datasets import builtin_dataset
    from isingbm.metrics import conditional_probability, visible_marginal

    out = tmp_path / "sweep.csv"
    result = runner.invoke(main, ["sweep-beta", "--model", model, "--dataset", dataset,
                                  "--beta-grid", "0.5:10:7log", "--out", str(out)])
    assert result.exit_code == 0, result.output
    bm, ds = load_fixture(model), builtin_dataset(dataset)
    header, *rows = list(csv.reader(out.read_text().splitlines()))
    p_at = [i for i, name in enumerate(header) if name.startswith("p_state_")]
    cond_at = [i for i, name in enumerate(header) if name.startswith("cond_prob_")]
    assert len(p_at) == ds.num_rows and len(cond_at) == (ds.num_rows if ds.io_split else 0)
    for row in rows:
        beta = float(row[0])
        marginal = visible_marginal(bm, beta)
        assert [float(row[i]) for i in p_at] == [marginal.prob(ds.row(d)) for d in range(ds.num_rows)]
        assert [float(row[i]) for i in cond_at] == [
            conditional_probability(bm, beta, ds.input_part(d)).prob(ds.output_part(d)) for d in range(len(cond_at))]


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
    rows = list(csv.reader(out.read_text().splitlines()))
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


def test_sample_replays_from_its_manifest(runner, tmp_path):
    # the manifest holds every SamplerConfig field: rebuilt, it draws the same file
    out = tmp_path / "s.json"
    result = runner.invoke(main, ["sample", "--model", "and_gate", "--backend", "gibbs", "--beta", "1.5",
                                  "--reads", "30", "--chains", "3", "--burn-in", "10", "--thinning", "2",
                                  "--seed", "4", "--out", str(out)])
    assert result.exit_code == 0, result.output
    c = json.loads((tmp_path / "s.json.manifest.json").read_text())["config"]
    cfg = SamplerConfig(beta=c["beta"], num_reads=c["reads"], burn_in=c["burn_in"], thinning=c["thinning"],
                        seed=c["seed"], backend=Backend(c["backend"]), exhaustive=c["exhaustive"],
                        num_chains=c["chains"], endpoint=c["endpoint"])
    save_sample_set(draw_samples(load_fixture(c["model"]), cfg), tmp_path / "replay.json")
    assert (tmp_path / "replay.json").read_bytes() == out.read_bytes()


def test_fit_beta_manifest_records_the_draw_options(runner, tmp_path):
    out = tmp_path / "fit.json"
    result = runner.invoke(main, ["fit-beta", "--sizes", "3:3", "--reads", "200", "--chains", "4",
                                  "--beta-grid", "0.5:4:8", "--out", str(out)])
    assert result.exit_code == 0, result.output
    assert json.loads((tmp_path / "fit.json.manifest.json").read_text())["config"] == {
        "backend": "gibbs", "beta": 3.0, "sizes": "3:3", "reads": 200, "chains": 4, "exhaustive": False,
        "beta_grid": "0.5:4:8", "seed": 0}


def test_fit_beta_entries_name_the_backend_not_the_endpoint(runner, tmp_path, mock_server):
    result = runner.invoke(main, ["fit-beta", "--sizes", "3:4", "--reads", "200", "--chains", "4",
                                  "--beta-grid", "0.5:4:8", "--out", str(tmp_path / "gibbs.json")])
    assert result.exit_code == 0, result.output
    entries = json.loads((tmp_path / "gibbs.json").read_text())["entries"]
    assert [e["backend_id"] for e in entries] == ["gibbs/chains=4"] * 2
    result = runner.invoke(main, ["fit-beta", "--backend", "remote", "--endpoint", mock_server.url,
                                  "--sizes", "3:4", "--reads", "200", "--chains", "1",
                                  "--beta-grid", "0.5:4:8", "--out", str(tmp_path / "remote.json")])
    assert result.exit_code == 0, result.output
    report = (tmp_path / "remote.json").read_text()
    assert [e["backend_id"] for e in json.loads(report)["entries"]] == ["mock-annealer(beta=2)"] * 2
    assert "127.0.0.1" not in report and mock_server.url not in report


def test_fit_beta_refuses_a_sample_file_with_a_nan_beta(runner, tmp_path):
    samples = tmp_path / "nan_beta.json"
    samples.write_text('{"beta": NaN, "num_reads": 2, "states": [[0, 1, 1, 0]], "counts": [2]}\n')
    result = runner.invoke(main, ["fit-beta", "--model", "and_gate", "--sample-file", str(samples),
                                  "--out", str(tmp_path / "fit.json")])
    assert result.exit_code == 2, result.output
    assert "finite and positive" in json.loads(result.stderr.strip().splitlines()[-1])["error"]["message"]


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


def strict_json_line(output: str) -> dict:
    """The last JSON line of a command's output, parsed strictly: NaN and
    Infinity are not JSON."""

    def refuse(constant):
        raise ValueError(f"{constant} is not JSON")

    lines = [l for l in output.strip().splitlines() if l.startswith("{")]
    return json.loads(lines[-1], parse_constant=refuse)


@pytest.mark.parametrize("args", [
    ["train", "--dataset", "and", "--arch", "3v1h", "--max-steps", "5", "--out", "{tmp}/run"],
    ["sweep-beta", "--model", "and_gate", "--dataset", "and", "--beta-grid", "0.5:8:3", "--out", "{tmp}/s.csv"],
    # the OR rows have probability 0 at every point: no minimum
    ["sweep-beta", "--model", "and_gate", "--dataset", "or", "--beta-grid", "2000:3000:3", "--out", "{tmp}/s.csv"],
    ["sample", "--model", "and_gate", "--reads", "50", "--out", "{tmp}/s.json"],
    ["fit-beta", "--backend", "exact", "--sizes", "4:4", "--reads", "2000", "--out", "{tmp}/fit.json"],
    ["verify-propositions", "--machines", "3", "--max-nodes", "4", "--out", "{tmp}/props.json"],
], ids=["train", "sweep-beta", "sweep-beta-no-minimum", "sample", "fit-beta", "verify-propositions"])
def test_result_lines_are_strict_json(runner, tmp_path, args):
    # reproduce's line is checked in test_reproduce_quick_reruns_bit_identically
    result = runner.invoke(main, [a.format(tmp=tmp_path) for a in args])
    assert result.exit_code == 0, result.output
    doc = strict_json_line(result.output)
    if args[4] == "or":
        assert doc["min_dkl"] is None and doc["argmin_beta"] is None


def test_a_non_finite_result_value_is_refused():
    from isingbm.cli import _echo_result

    with pytest.raises(ValueError):
        _echo_result({"value": float("nan")})


def test_verify_propositions_zero_machines(runner, tmp_path):
    out = tmp_path / "props.json"
    result = runner.invoke(main, ["verify-propositions", "--machines", "0",
                                  "--out", str(out)])
    assert result.exit_code == 0
    report = json.loads(out.read_text())
    assert report["ground_state_monotone"] == {"pass": 0, "fail": 0, "non_strict": 0}
