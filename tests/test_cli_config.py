import json

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
