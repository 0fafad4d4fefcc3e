import numpy as np
import pytest

from ragvqa.benchmark import SPLIT_LABELS
from ragvqa.evaluation import (
    AblationRow,
    EvalError,
    EvalReport,
    ablation_grid,
    config_fingerprint,
    evaluate,
    run_ablation,
)
from ragvqa.model import build_vocabularies, init_params, predict_answer
from ragvqa.ragtrain import AggregationConfig

from conftest import make_corpus, make_sample


@pytest.fixture()
def tiny_world(lexicon):
    corpus = make_corpus(
        [
            make_sample("Is the dog white?", [("dog", {"white"})], "yes", "q1", "i1"),
            make_sample("Is the cat black?", [("cat", {"black"})], "no", "q2", "i2"),
            make_sample("Is the dog black?", [("dog", {"black"})], "no", "q3", "i3"),
            make_sample("Is the cat white?", [("cat", {"white"})], "yes", "q4", "i4"),
        ]
    )
    vocabs = build_vocabularies(corpus)
    params = init_params(
        len(vocabs.words), len(vocabs.labels), len(vocabs.answers),
        d=8, d_h=8, seed=0,
    )
    return corpus, vocabs, params


def _splits(assignment):
    splits = {label: [] for label in SPLIT_LABELS}
    splits.update(assignment)
    return splits


def test_evaluate_empty_split_reports_none(tiny_world):
    corpus, vocabs, params = tiny_world
    report = evaluate(params, vocabs, _splits({}), corpus)
    assert report.n_evaluated == 0
    assert report.overall is None
    assert all(v is None for v in report.per_split_accuracy.values())
    assert all(v is None for v in report.per_level_accuracy.values())


def test_evaluate_missing_sample_errors(tiny_world):
    corpus, vocabs, params = tiny_world
    with pytest.raises(EvalError, match="ghost"):
        evaluate(params, vocabs, _splits({"LL": ["ghost"]}), corpus)


def test_evaluate_counts_are_consistent(tiny_world):
    corpus, vocabs, params = tiny_world
    splits = _splits({"LL": ["q1", "q2"], "VV": ["q3"], "LL+VV+LV": ["q4"]})
    report = evaluate(params, vocabs, splits, corpus)
    assert report.n_evaluated == 4
    total_correct = sum(c for c, _ in report.per_split_counts.values())
    assert report.overall == pytest.approx(total_correct / 4)
    # per-level accuracies recomputable from the per-split counts
    c1 = sum(report.per_split_counts[l][0] for l in ("LL", "VV", "LV"))
    n1 = sum(report.per_split_counts[l][1] for l in ("LL", "VV", "LV"))
    assert report.per_level_accuracy["level_1"] == pytest.approx(c1 / n1)
    assert report.per_level_accuracy["level_2"] is None


def test_evaluate_matches_direct_prediction(tiny_world):
    corpus, vocabs, params = tiny_world
    report = evaluate(params, vocabs, _splits({"LV": ["q1"]}), corpus)
    predicted = predict_answer(params, vocabs, corpus.samples[0])
    expected = 1.0 if predicted == "yes" else 0.0
    assert report.per_split_accuracy["LV"] == expected


def test_evaluate_unknown_answer_counts_wrong(tiny_world, lexicon):
    corpus, vocabs, params = tiny_world
    odd = make_corpus(
        list(corpus.samples)
        + [make_sample("Is the dog white?", [("dog", set())], "maybe", "q5", "i5")]
    )
    report = evaluate(params, vocabs, _splits({"LL": ["q5"]}), odd)
    assert report.per_split_counts["LL"] == (0, 1)
    assert report.per_split_accuracy["LL"] == 0.0


def test_evaluate_is_reproducible(tiny_world):
    corpus, vocabs, params = tiny_world
    splits = _splits({"LL": ["q1", "q2"], "VV": ["q3", "q4"]})
    a = evaluate(params, vocabs, splits, corpus, fingerprint="f")
    b = evaluate(params, vocabs, splits, corpus, fingerprint="f")
    assert a == b
    assert a.config_fingerprint == "f"


def test_config_fingerprint_is_stable_and_order_free():
    a = config_fingerprint({"x": 1, "y": [2, 3]})
    b = config_fingerprint({"y": [2, 3], "x": 1})
    assert a == b
    assert len(a) == 16
    assert a != config_fingerprint({"x": 2, "y": [2, 3]})


def test_ablation_grid_structure():
    base = AggregationConfig()
    grid = ablation_grid(base)
    names = [name for name, _ in grid]
    assert names == ["baseline", "dq_only", "dv_only", "both"]
    by_name = dict(grid)
    assert by_name["baseline"] is None
    assert by_name["dq_only"].use_dq and not by_name["dq_only"].use_dv
    assert not by_name["dv_only"].use_dq and by_name["dv_only"].use_dv
    assert by_name["both"].use_dq and by_name["both"].use_dv


def test_run_ablation_collects_rows_and_records_failures():
    report = EvalReport(
        per_split_accuracy={},
        per_split_counts={},
        per_level_accuracy={},
        overall=0.5,
        n_evaluated=2,
        config_fingerprint="",
    )

    def train_fn(variant):
        if variant is not None and variant.use_dv and not variant.use_dq:
            raise RuntimeError("boom")
        return "params", [{"epoch": 1}]

    def eval_fn(params):
        assert params == "params"
        return report, 0.75

    rows = run_ablation(ablation_grid(AggregationConfig()), train_fn=train_fn, eval_fn=eval_fn)
    assert [r.name for r in rows] == ["baseline", "dq_only", "dv_only", "both"]
    assert rows[0].report is report and rows[0].iid_accuracy == 0.75
    assert rows[0].metrics == [{"epoch": 1}]
    assert rows[2].report is None and rows[2].error == "boom"
    assert rows[3].error is None


def test_ablation_row_defaults():
    row = AblationRow("x", None, None)
    assert row.error is None
    assert row.metrics == []
