import json

import pytest
from click.testing import CliRunner

from isingbm.cli import main
from isingbm.model import load_model_entry
from isingbm.training import TrainingConfig
from isingbm.samplers import SamplerConfig


def test_train_from_config_file(tmp_path):
    cfg = TrainingConfig(eta=0.2, weight_decay=1e-4, momentum=0.4, max_steps=30,
                         sampler=SamplerConfig(beta=4.0), loss_every=10)
    config_path = tmp_path / "cfg.json"
    config_path.write_text(json.dumps(cfg.to_dict()))

    out = tmp_path / "run"
    result = CliRunner().invoke(main, [
        "train", "--dataset", "and", "--arch", "3v1h",
        "--config", str(config_path), "--out", str(out)])
    assert result.exit_code == 0, result.output
    _, meta = load_model_entry(out / "model_best.json")
    assert meta["training_beta"] == 4.0
    manifest = json.loads((out / "manifest.json").read_text())
    assert manifest["config"]["training_config"]["eta"] == 0.2
    assert manifest["config"]["training_config"]["max_steps"] == 30


def test_a_flag_run_replays_from_its_manifest(tmp_path):
    # the manifest holds the full TrainingConfig: passed back with --config it
    # reruns every restart byte for byte
    runner = CliRunner()
    common = ["train", "--dataset", "and", "--arch", "3v1h", "--connectivity", "bipartite",
              "--mode", "distribution", "--seeds", "2", "--seed", "7"]
    flags = ["--gradient", "sampled", "--backend", "gibbs", "--beta", "2.5", "--reads", "60",
             "--chains", "2", "--eta", "0.2", "--momentum", "0.3", "--max-steps", "6", "--loss-every", "3",
             "--init-range", "0.4", "--h-max", "0.9", "--j-max", "0.8", "--delta-min", "0"]
    first = runner.invoke(main, common + flags + ["--out", str(tmp_path / "flags")])
    assert first.exit_code == 0, first.output
    manifest = json.loads((tmp_path / "flags" / "manifest.json").read_text())
    config = manifest["config"]
    assert {k: config[k] for k in ("dataset", "arch", "connectivity", "mode", "seeds", "seed")} == {
        "dataset": "and", "arch": "3v1h", "connectivity": "bipartite", "mode": "distribution",
        "seeds": 2, "seed": 7}
    config_path = tmp_path / "replay.json"
    config_path.write_text(json.dumps(config["training_config"]))

    second = runner.invoke(main, common + ["--config", str(config_path), "--out", str(tmp_path / "replay")])
    assert second.exit_code == 0, second.output
    assert (tmp_path / "flags" / "model_best.json").read_bytes() == \
        (tmp_path / "replay" / "model_best.json").read_bytes()
    assert json.loads((tmp_path / "replay" / "manifest.json").read_text())["config"] == config


def test_train_bad_config_exits_2(tmp_path):
    config_path = tmp_path / "cfg.json"
    config_path.write_text("{\"eta\": -1}")
    result = CliRunner().invoke(main, [
        "train", "--dataset", "and", "--arch", "3v1h",
        "--config", str(config_path), "--out", str(tmp_path / "x")])
    assert result.exit_code == 2


@pytest.mark.parametrize("fields", [
    {"max_steps": True},             # ran one step
    {"max_steps": 2.5},
    {"loss_every": True},
    {"sampler": {"num_reads": True}},
    {"sampler": {"endpoint": 5}},
    {"eta": "0.2"},
    {"sampler": []},
], ids=["max_steps-true", "max_steps-2.5", "loss_every-true", "num_reads-true", "endpoint-5", "eta-string",
        "sampler-list"])
def test_train_config_values_of_the_wrong_json_type_exit_2(tmp_path, fields):
    doc = TrainingConfig(max_steps=2).to_dict()
    doc.update({k: {**doc[k], **v} if isinstance(v, dict) else v for k, v in fields.items()})
    with pytest.raises(ValueError, match="must be JSON of type"):
        TrainingConfig.from_dict(doc)
    config_path = tmp_path / "cfg.json"
    config_path.write_text(json.dumps(doc))
    result = CliRunner().invoke(main, [
        "train", "--dataset", "and", "--arch", "3v1h",
        "--config", str(config_path), "--out", str(tmp_path / "x")])
    assert result.exit_code == 2, result.output
    assert json.loads(result.stderr.strip().splitlines()[-1])["error"]["kind"] == "input"


def test_a_config_reads_an_integer_for_a_float_field_and_null_or_a_string_for_the_endpoint():
    doc = TrainingConfig().to_dict()
    assert doc["sampler"]["endpoint"] is None and TrainingConfig.from_dict(doc) == TrainingConfig()
    doc["eta"], doc["sampler"]["endpoint"] = 1, "http://127.0.0.1:1"
    cfg = TrainingConfig.from_dict(doc)
    assert cfg.eta == 1 and cfg.sampler.endpoint == "http://127.0.0.1:1"


@pytest.mark.parametrize("field, value, message", [
    ("eta", float("nan"), "eta must be finite"), ("delta_theta_min", float("nan"), "delta_theta_min must be finite"),
    ("init_range", float("inf"), "init_range must be finite"), ("h_max", -float("inf"), "h_max must be finite"),
    ("j_max", float("nan"), "j_max must be finite"), ("h_max", 10**400, "h_max must lie within float range"),
], ids=["eta-nan", "delta_theta_min-nan", "init_range-inf", "h_max--inf", "j_max-nan", "h_max-past-float-range"])
def test_train_config_non_finite_values_exit_2_before_a_step(tmp_path, field, value, message):
    # a NaN eta failed after a step; a NaN delta_theta_min ran every step
    config_path = tmp_path / "cfg.json"
    config_path.write_text(json.dumps({**TrainingConfig(max_steps=5).to_dict(), field: value}))
    result = CliRunner().invoke(main, [
        "train", "--dataset", "and", "--arch", "3v1h",
        "--config", str(config_path), "--out", str(tmp_path / "x")])
    assert result.exit_code == 2, result.output
    err = json.loads(result.stderr.strip().splitlines()[-1])["error"]
    assert err["kind"] == "input" and message in err["message"]
    assert not list((tmp_path / "x").glob("trace_*.csv"))


def test_a_manifest_written_at_the_largest_seed_reruns_through_config(tmp_path):
    # a config's integers are read within int64, so --seed is bounded to it
    runner = CliRunner()
    common = ["train", "--dataset", "and", "--arch", "3v1h", "--seed", str(2**63 - 1)]
    first = runner.invoke(main, common + ["--max-steps", "2", "--out", str(tmp_path / "flags")])
    assert first.exit_code == 0, first.output
    config_path = tmp_path / "replay.json"
    config_path.write_text(json.dumps(json.loads((tmp_path / "flags" / "manifest.json").read_text())
                                      ["config"]["training_config"]))
    second = runner.invoke(main, common + ["--config", str(config_path), "--out", str(tmp_path / "replay")])
    assert second.exit_code == 0, second.output
    for seed in (2**63, -1):  # a usage error, before anything is read or written
        result = runner.invoke(main, ["train", "--dataset", "and", "--arch", "3v1h", "--seed", str(seed),
                                      "--out", str(tmp_path / "x")])
        assert result.exit_code == 2 and "--seed" in result.output, result.output
        assert not (tmp_path / "x").exists()


@pytest.mark.parametrize("fields, message", [
    ({"etaa": 0.2}, "TrainingConfig has no JSON field 'etaa'"),  # was a TypeError from the constructor
    ({"sampler": {"reads": 5}}, "SamplerConfig has no JSON field 'reads'"),
    ({"init_model": None}, "TrainingConfig has no JSON field 'init_model'"),  # was dropped unread
])
def test_a_config_field_the_dataclass_does_not_hold_in_json_exits_2(tmp_path, fields, message):
    doc = TrainingConfig(max_steps=2).to_dict()
    doc.update({k: {**doc[k], **v} if isinstance(v, dict) else v for k, v in fields.items()})
    with pytest.raises(ValueError, match=message):
        TrainingConfig.from_dict(doc)
    config_path = tmp_path / "cfg.json"
    config_path.write_text(json.dumps(doc))
    result = CliRunner().invoke(main, [
        "train", "--dataset", "and", "--arch", "3v1h",
        "--config", str(config_path), "--out", str(tmp_path / "x")])
    assert result.exit_code == 2, result.output
    err = json.loads(result.stderr.strip().splitlines()[-1])["error"]
    assert err["kind"] == "input" and message in err["message"]


def test_a_config_integer_for_a_float_field_is_echoed_as_a_float(tmp_path):
    config_path = tmp_path / "cfg.json"
    config_path.write_text(json.dumps({**TrainingConfig(max_steps=2).to_dict(), "eta": 1}))
    result = CliRunner().invoke(main, [
        "train", "--dataset", "and", "--arch", "3v1h", "--config", str(config_path), "--out", str(tmp_path / "x")])
    assert result.exit_code == 0, result.output
    assert '"eta": 1.0' in (tmp_path / "x" / "manifest.json").read_text()
