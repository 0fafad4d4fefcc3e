import pytest

from ragvqa.cli import main
from ragvqa.config import PRESETS, ExperimentConfig, load_experiment_config
from ragvqa.corpus import ConfigurationError, save_corpus

from conftest import make_corpus, make_sample


def _config_file(tmp_path, *lines):
    path = tmp_path / "exp.cfg"
    path.write_text("\n".join(lines) + "\n", encoding="utf-8")
    return path


def test_defaults_without_file_or_flags():
    assert load_experiment_config() == ExperimentConfig()


def test_precedence_defaults_preset_file_flags(tmp_path):
    path = _config_file(tmp_path, "# comment", "k_v = 8", "w_q = 0.5", "use_dq = no")
    config = load_experiment_config(path, preset="vqa2", overrides={"w_q": 0.3, "seed": None})
    assert config.preset == "vqa2"
    assert config.t_q == PRESETS["vqa2"]["t_q"]  # preset over default
    assert config.k_v == 8  # file over preset
    assert config.w_q == 0.3  # flag over file
    assert config.use_dq is False
    assert config.seed == 0  # an unset flag leaves the lower layers alone
    assert config.epochs == ExperimentConfig().epochs


def test_preset_named_inside_the_file(tmp_path):
    path = _config_file(tmp_path, "preset = vqa2", "t_v = 16")
    config = load_experiment_config(path)
    assert config.preset == "vqa2"
    assert config.k_v == PRESETS["vqa2"]["k_v"]
    assert config.t_v == 16


def test_write_resolved_round_trip(tmp_path):
    config = load_experiment_config(preset="gqa", overrides={"epochs": 3, "lr": 0.01})
    path = tmp_path / "config.resolved"
    config.write_resolved(path)
    assert load_experiment_config(path) == config


def test_unknown_key_is_rejected(tmp_path):
    path = _config_file(tmp_path, "w_q = 0.5", "epoch = 3")
    with pytest.raises(ConfigurationError, match="line 2.*'epoch'"):
        load_experiment_config(path)


def test_bad_boolean_is_rejected(tmp_path):
    path = _config_file(tmp_path, "use_dv = maybe")
    with pytest.raises(ValueError, match="use_dv"):
        load_experiment_config(path)


def test_unknown_preset_is_rejected(tmp_path):
    with pytest.raises(ValueError, match="preset"):
        load_experiment_config(preset="coco")
    with pytest.raises(ValueError, match="preset"):
        load_experiment_config(_config_file(tmp_path, "preset = coco"))


@pytest.mark.parametrize("line", ["w_q = -1", "epochs = 0"])
def test_out_of_range_value_fails_before_the_run_starts(tmp_path, line):
    path = _config_file(tmp_path, line)
    with pytest.raises(ValueError):
        load_experiment_config(path)
    data = tmp_path / "data"
    tiny = make_corpus([make_sample("Is the dog white?", [("dog", {"white"})], "yes")])
    for split in ("train", "val"):
        (data / split).mkdir(parents=True)
        save_corpus(tiny, data / split / "questions.jsonl", data / split / "scene_graphs.json")
    out = tmp_path / "run"
    code = main([
        "train", "--data", str(tmp_path / "data"), "--config", str(path),
        "--no-retrieval", "--out", str(out),
    ])
    assert code == 1
    assert not (out / "config.resolved").exists()
