from dataclasses import replace

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
    assert config.aggregation.k_v == 8  # file over preset
    assert config.aggregation.w_q == 0.3  # flag over file
    assert config.aggregation.use_dq is False
    assert config.training.seed == 0  # an unset flag leaves the lower layers alone
    assert config.training.epochs == ExperimentConfig().training.epochs


def test_preset_named_inside_the_file(tmp_path):
    path = _config_file(tmp_path, "preset = vqa2", "t_v = 16")
    config = load_experiment_config(path)
    assert config.preset == "vqa2"
    assert config.aggregation.k_v == PRESETS["vqa2"]["k_v"]
    assert config.t_v == 16


def test_write_resolved_round_trip(tmp_path):
    config = load_experiment_config(preset="gqa", overrides={"epochs": 3, "lr": 0.01})
    path = tmp_path / "config.resolved"
    config.write_resolved(path)
    assert load_experiment_config(path) == config


def test_gqa_preset_equals_the_defaults():
    assert load_experiment_config(preset="gqa") == replace(ExperimentConfig(), preset="gqa")


# Every file key, each set away from its default.
ALL_KEYS = """\
w_q = 0.25
w_v = 0.75
k_q = 3
k_v = 5
t_q = 4
t_v = 12
mode = scalar_broadcast
refresh_every = 2
use_dq = no
use_dv = true
lr = 0.02
epochs = 2
seed = 5
preset = vqa2
d = 8
d_h = 12
"""


def test_write_resolved_golden_text(tmp_path):
    config = load_experiment_config(_config_file(tmp_path, ALL_KEYS.strip()))
    path = tmp_path / "config.resolved"
    config.write_resolved(path)
    assert path.read_text("utf-8") == (
        "d = 8\n"
        "d_h = 12\n"
        "epochs = 2\n"
        "k_q = 3\n"
        "k_v = 5\n"
        "lr = 0.02\n"
        "mode = scalar_broadcast\n"
        "preset = vqa2\n"
        "refresh_every = 2\n"
        "seed = 5\n"
        "t_q = 4\n"
        "t_v = 12\n"
        "use_dq = False\n"
        "use_dv = True\n"
        "w_q = 0.25\n"
        "w_v = 0.75\n"
    )


def test_unparsable_value_names_file_line_and_key(tmp_path):
    path = _config_file(tmp_path, "w_q = 0.5", "epochs = ten")
    with pytest.raises(ConfigurationError, match=r"exp\.cfg, line 2: key 'epochs'"):
        load_experiment_config(path)


def test_unknown_key_is_rejected(tmp_path):
    path = _config_file(tmp_path, "w_q = 0.5", "epoch = 3")
    with pytest.raises(ConfigurationError, match="line 2.*'epoch'"):
        load_experiment_config(path)
    with pytest.raises(ValueError, match="'epoch'"):
        load_experiment_config(overrides={"epoch": 3})


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
