import csv
import json
import shutil
from importlib import resources

import pytest

from ragvqa import model, ragtrain
from ragvqa.cli import EXIT_FAILURE, main

SYNTH_CONFIG = """\
categories = dog, cat, bird, car, tree, ball
attributes = white, black, red
n_train = 300
n_val = 150
seed = 7
"""


@pytest.fixture(scope="module")
def workspace(tmp_path_factory):
    """One full CLI pipeline: gen-synth -> build-benchmark."""
    root = tmp_path_factory.mktemp("cli")
    (root / "synth.cfg").write_text(SYNTH_CONFIG, "utf-8")
    data = root / "data"
    assert main(["gen-synth", "--config", str(root / "synth.cfg"), "--out", str(data)]) == 0
    bench = root / "bench"
    assert main([
        "build-benchmark", "--data", str(data), "--n-per-split", "15",
        "--out", str(bench),
    ]) == 0
    return root


def test_gen_synth_writes_both_splits(workspace):
    data = workspace / "data"
    for split in ("train", "val"):
        assert (data / split / "questions.jsonl").exists()
        assert (data / split / "scene_graphs.json").exists()
    n_train = sum(1 for _ in open(data / "train" / "questions.jsonl"))
    n_val = sum(1 for _ in open(data / "val" / "questions.jsonl"))
    assert (n_train, n_val) == (300, 150)


def test_build_benchmark_writes_splits_and_report(workspace):
    bench = workspace / "bench"
    assert (bench / "splits.jsonl").exists()
    report = json.loads((bench / "report.json").read_text("utf-8"))
    assert report["total"] > 0
    assert set(report["per_split"]) == {
        "LL", "VV", "LV", "LL+VV", "LL+LV", "VV+LV", "LL+VV+LV"
    }
    assert report["ingest_skipped"] == {"train": 0, "val": 0}


def test_ingest_skips_are_reported_on_stderr_and_in_report(workspace, tmp_path, capsys):
    data = shutil.copytree(workspace / "data", tmp_path / "data")
    train_image = json.loads(
        (data / "train" / "questions.jsonl").read_text("utf-8").splitlines()[0]
    )["image_id"]
    with open(data / "train" / "questions.jsonl", "a", encoding="utf-8") as fh:
        fh.write(json.dumps(
            {"id": "bad_train", "image_id": train_image, "question": "?!", "answer": "yes"}
        ) + "\n")
    with open(data / "val" / "questions.jsonl", "a", encoding="utf-8") as fh:
        fh.write(json.dumps(
            {"id": "bad_val", "image_id": "empty", "question": "Is it red?", "answer": "no"}
        ) + "\n")
    graphs = json.loads((data / "val" / "scene_graphs.json").read_text("utf-8"))
    graphs["empty"] = {"objects": {}}
    (data / "val" / "scene_graphs.json").write_text(json.dumps(graphs), "utf-8")
    capsys.readouterr()

    bench = tmp_path / "bench"
    assert main([
        "build-benchmark", "--data", str(data), "--n-per-split", "15", "--out", str(bench),
    ]) == 0
    err = capsys.readouterr().err
    assert "train: ingest skipped 1 record(s)" in err
    assert "question 'bad_train': the question has no tokens" in err
    assert "val: ingest skipped 1 record(s)" in err
    assert "question 'bad_val': image 'empty' has no objects" in err
    report = json.loads((bench / "report.json").read_text("utf-8"))
    assert report["ingest_skipped"] == {"train": 1, "val": 1}
    assert (bench / "splits.jsonl").read_bytes() == (
        workspace / "bench" / "splits.jsonl"
    ).read_bytes()

    run = tmp_path / "run"
    assert main([
        "train", "--data", str(data), "--out", str(run), "--epochs", "1", "--no-retrieval",
    ]) == 0
    err = capsys.readouterr().err
    assert "train: ingest skipped 1 record(s)" in err and "'bad_train'" in err


def test_lexicon_file_round_trips_through_build_benchmark_and_train(workspace, tmp_path):
    shipped = json.loads(
        resources.files("ragvqa.data").joinpath("lexicon.json").read_text("utf-8")
    )
    # color words as closed-class: no linguistic color primitives
    colorless = {**shipped, "pos": {**shipped["pos"], "white": "other", "black": "other",
                                    "red": "other"}}
    outputs = {}
    for name, lexicon in (("default", None), ("shipped", shipped), ("colorless", colorless)):
        flags = []
        if lexicon is not None:
            path = tmp_path / f"{name}.json"
            path.write_text(json.dumps(lexicon), "utf-8")
            flags = ["--lexicon", str(path)]
        bench, run = tmp_path / f"bench-{name}", tmp_path / f"run-{name}"
        assert main([
            "build-benchmark", "--data", str(workspace / "data"), "--n-per-split", "15",
            "--out", str(bench), *flags,
        ]) == 0
        assert main([
            "train", "--data", str(workspace / "data"), "--out", str(run), "--epochs", "1",
            *flags,
        ]) == 0
        outputs[name] = [(bench / "splits.jsonl").read_bytes(),
                         (run / "metrics.jsonl").read_bytes()]
    assert outputs["shipped"] == outputs["default"]
    assert outputs["colorless"][0] != outputs["default"][0]
    assert outputs["colorless"][1] != outputs["default"][1]


@pytest.mark.parametrize(
    "text, message",
    [
        ("[]", "expected a JSON object, got list"),
        ('{"x": 1}', "unknown key 'x'"),
        ('{"pos": ["dog"]}', "'pos' must be an object, got list"),
        ('{"lemma_exceptions": {"geese": "goose"}}', "key 'geese' is not 'word|tag'"),
        ('{"pos": {"dog": "nounish"}}', "key 'dog' has unknown tag 'nounish'"),
        ('{"lemma_exceptions": {"geese|noun": 5}}', "key 'geese|noun' has lemma 5"),
        ('{"lemma_exceptions": {"geese|noun": "two geese"}}', "has lemma 'two geese', not a"),
        ('{"lemma_exceptions": {"geese|noun": "Goose"}}', "has lemma 'Goose', not a"),
        ('{"lemma_exceptions": {"geese|noun": "goose!"}}', "has lemma 'goose!', not a"),
        ("pos = noun", "Expecting value"),
    ],
    ids=["not-an-object", "unknown-key", "section-not-an-object", "key-without-tag",
         "unknown-tag", "lemma-not-a-string", "lemma-two-tokens", "lemma-not-lowercase",
         "lemma-with-punctuation", "not-json"],
)
def test_bad_lexicon_file_is_a_named_runtime_error(workspace, tmp_path, capsys, text, message):
    path = tmp_path / "lexicon.json"
    path.write_text(text, "utf-8")
    code = main([
        "build-benchmark", "--data", str(workspace / "data"), "--lexicon", str(path),
        "--out", str(tmp_path / "bench"),
    ])
    err = capsys.readouterr().err
    assert code == EXIT_FAILURE
    assert err.startswith(f"error: lexicon {path}: ") and message in err
    assert "Traceback" not in err
    assert not (tmp_path / "bench").exists()


def test_verify_splits_passes_on_built_benchmark(workspace, capsys):
    code = main([
        "verify-splits", "--data", str(workspace / "data"),
        "--splits", str(workspace / "bench" / "splits.jsonl"),
    ])
    assert code == 0
    assert "all sound" in capsys.readouterr().out


def test_verify_splits_flags_tampering(workspace, tmp_path):
    lines = (workspace / "bench" / "splits.jsonl").read_text("utf-8").splitlines()
    first = json.loads(lines[0])
    labels = {"LL", "VV", "LV"} - {first["split_label"]}
    first["split_label"] = sorted(labels)[0]
    tampered = tmp_path / "tampered.jsonl"
    tampered.write_text("\n".join([json.dumps(first)] + lines[1:]) + "\n", "utf-8")
    code = main([
        "verify-splits", "--data", str(workspace / "data"), "--splits", str(tampered),
    ])
    assert code == 3


@pytest.mark.parametrize("record", [{"split_label": "XX"}, {}])
def test_verify_splits_malformed_line_is_runtime_error(workspace, tmp_path, capsys, record):
    lines = (workspace / "bench" / "splits.jsonl").read_text("utf-8").splitlines()
    first = json.loads(lines[0])
    first.pop("split_label")
    first.update(record)
    bad = tmp_path / "bad.jsonl"
    bad.write_text("\n".join([lines[1], json.dumps(first)]) + "\n", "utf-8")
    code = main(["verify-splits", "--data", str(workspace / "data"), "--splits", str(bad)])
    assert code == 1
    err = capsys.readouterr().err
    assert err.startswith("error:") and "line 2" in err


def test_train_and_eval_round_trip(workspace, tmp_path, capsys):
    run = tmp_path / "run"
    code = main([
        "train", "--data", str(workspace / "data"), "--out", str(run),
        "--epochs", "1", "--no-retrieval",
    ])
    assert code == 0
    assert (run / "config.resolved").exists()
    assert (run / "checkpoint.bin").exists()
    metrics = [json.loads(l) for l in (run / "metrics.jsonl").read_text().splitlines()]
    assert len(metrics) == 1
    assert {"epoch", "mean_loss", "val_accuracy"} <= set(metrics[0])

    out = tmp_path / "eval.json"
    code = main([
        "eval", "--checkpoint", str(run / "checkpoint.bin"),
        "--splits", str(workspace / "bench" / "splits.jsonl"),
        "--data", str(workspace / "data"), "--out", str(out),
    ])
    assert code == 0
    report = json.loads(out.read_text("utf-8"))
    assert 0.0 <= report["overall"] <= 1.0
    assert report["n_evaluated"] > 0


def test_train_applies_preset_and_overrides(workspace, tmp_path):
    run = tmp_path / "run"
    code = main([
        "train", "--data", str(workspace / "data"), "--out", str(run),
        "--preset", "gqa", "--epochs", "1", "--w-q", "0.3", "--no-retrieval",
    ])
    assert code == 0
    resolved = dict(
        line.split(" = ", 1)
        for line in (run / "config.resolved").read_text("utf-8").splitlines()
    )
    assert resolved["w_q"] == "0.3"
    assert resolved["w_v"] == "0.4"  # from the gqa preset
    assert resolved["epochs"] == "1"


def test_train_rejects_a_nan_learning_rate_before_training(workspace, tmp_path, capsys):
    run = tmp_path / "run"
    code = main([
        "train", "--data", str(workspace / "data"), "--out", str(run),
        "--epochs", "1", "--lr", "nan", "--no-retrieval",
    ])
    assert code == EXIT_FAILURE
    assert "learning rate must be finite and > 0, got nan" in capsys.readouterr().err
    assert not run.exists()  # rejected before the run directory, let alone an epoch


def test_ablate_writes_csv(workspace, tmp_path):
    run = tmp_path / "ablate"
    code = main([
        "ablate", "--data", str(workspace / "data"),
        "--splits", str(workspace / "bench" / "splits.jsonl"),
        "--epochs", "1", "--seeds", "0", "--out", str(run),
    ])
    assert code == 0
    rows = (run / "ablation.csv").read_text("utf-8").splitlines()
    assert len(rows) == 5  # header + 4 variants
    header = rows[0].split(",")
    assert header[0] == "variant" and "overall" in header
    assert [r.split(",")[0] for r in rows[1:]] == ["baseline", "dq_only", "dv_only", "both"]


def _ablate(workspace, out, *flags):
    return main([
        "ablate", "--data", str(workspace / "data"),
        "--splits", str(workspace / "bench" / "splits.jsonl"), "--out", str(out), *flags,
    ])


def test_ablate_scores_the_val_corpus_once_per_variant(workspace, tmp_path, monkeypatch):
    """``ablate`` reads no per-epoch val accuracy, so training computes none:
    the one ``corpus_accuracy`` call per variant is the IID accuracy."""
    scored = []
    real = model.corpus_accuracy

    def counting(params, vocabs, samples):
        scored.append(len(samples))
        return real(params, vocabs, samples)

    monkeypatch.setattr(model, "corpus_accuracy", counting)
    monkeypatch.setattr(ragtrain, "corpus_accuracy", counting)
    assert _ablate(workspace, tmp_path / "ablate", "--epochs", "2", "--seeds", "0") == 0
    assert len(scored) == 4  # baseline, dq_only, dv_only, both


@pytest.mark.filterwarnings("ignore::RuntimeWarning")  # the diverging lr overflows
def test_ablate_records_failed_variants_and_runs_the_rest(workspace, tmp_path):
    run = tmp_path / "ablate"
    assert _ablate(workspace, run, "--epochs", "1", "--lr", "1e305") == 1
    rows = list(csv.reader((run / "ablation.csv").open(encoding="utf-8")))
    assert rows[0][0] == "variant" and rows[0][-1] == "error"
    assert [r[0] for r in rows[1:]] == ["baseline", "dq_only", "dv_only", "both"]
    for row in rows[1:]:
        assert row[1] == "0"
        assert all(cell == "" for cell in row[2:-1])
        assert "step" in row[-1]


@pytest.mark.filterwarnings("ignore::RuntimeWarning")  # the diverging lr overflows
def test_ablate_without_seeds_uses_the_config_seed(workspace, tmp_path):
    config = tmp_path / "exp.cfg"
    config.write_text("seed = 3\nlr = 1e305\n", "utf-8")
    run = tmp_path / "ablate"
    _ablate(workspace, run, "--config", str(config), "--epochs", "1")
    rows = list(csv.reader((run / "ablation.csv").open(encoding="utf-8")))
    assert [r[1] for r in rows[1:]] == ["3"] * 4


def test_ablate_malformed_seeds_is_usage_error(workspace, tmp_path, capsys):
    with pytest.raises(SystemExit) as exc:
        _ablate(workspace, tmp_path / "ablate", "--seeds", "0,x")
    assert exc.value.code == 2
    assert "--seeds" in capsys.readouterr().err
    assert not (tmp_path / "ablate").exists()


def test_grad_check_passes(capsys):
    assert main(["grad-check", "--seed", "0"]) == 0
    assert "PASS" in capsys.readouterr().out
    assert main(["grad-check", "--seed", "1", "--augmented"]) == 0


def test_unknown_subcommand_is_usage_error():
    with pytest.raises(SystemExit) as exc:
        main(["frobnicate"])
    assert exc.value.code == 2


def test_missing_required_flag_is_usage_error():
    with pytest.raises(SystemExit) as exc:
        main(["train", "--data", "x"])
    assert exc.value.code == 2


@pytest.mark.parametrize(
    "command, prefix",
    [(["train"], ["--e", "4"]), (["ablate", "--splits", "s.jsonl"], ["--seed", "7"])],
)
def test_flag_prefixes_are_usage_errors(tmp_path, capsys, command, prefix):
    """``--e`` is not read as ``--epochs``, nor ``--seed`` as ``--seeds``."""
    with pytest.raises(SystemExit) as exc:
        main([*command, "--data", str(tmp_path / "d"), "--out", str(tmp_path / "o"), *prefix])
    assert exc.value.code == 2
    err = capsys.readouterr().err
    assert err.startswith("usage: ragvqa ")
    assert f"unrecognized arguments: {' '.join(prefix)}" in err
    assert not (tmp_path / "o").exists()


def test_missing_data_directory_is_runtime_error(tmp_path, capsys):
    code = main([
        "build-benchmark", "--data", str(tmp_path / "nope"), "--out", str(tmp_path / "bench"),
    ])
    assert code == 1
    assert "error:" in capsys.readouterr().err
