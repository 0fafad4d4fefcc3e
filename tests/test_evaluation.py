import numpy as np
import pytest

from ragvqa.benchmark import SPLIT_LABELS
from ragvqa.evaluation import EvalError, ablation_grid, config_fingerprint, evaluate
from ragvqa import model
from ragvqa.model import (
    answered_correctly,
    build_vocabularies,
    encode_image,
    encode_question,
    init_params,
    predict_answer,
    question_token_ids,
    scene_object_ids,
)
from ragvqa.ragtrain import AggregationConfig, TrainConfig, train

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


@pytest.fixture(scope="module")
def repetitive_world(small_pair, lexicon):
    """Val samples whose questions repeat and whose objects are shared, plus
    samples with unknown words and labels (id 0); initial and trained params."""
    train_c, val_c = small_pair
    vocabs = build_vocabularies(train_c)
    initial = init_params(len(vocabs.words), len(vocabs.labels), len(vocabs.answers), 8, 8, 0)
    trained = train(
        train_c, None, None, initial, vocabs, lexicon, TrainConfig(epochs=2), None
    ).params
    unknown = [
        make_sample("Is the zebra purple?", [("zebra", {"purple"}), ("dog", {"red"})], "no",
                    "q_u1", "i_u1"),
        make_sample("Is the okapi mauve?", [("okapi", set()), ("dog", {"red"})], "yes",
                    "q_u2", "i_u2"),
        make_sample("How many dogs are there?", [("dog", {"red"}), ("gnu", {"red"})], "1",
                    "q_u3", "i_u3"),
    ]
    corpus = make_corpus([*val_c.samples, *unknown], "val")
    samples = corpus.samples
    assert len({s.question.text for s in samples}) < len(samples) / 3
    objects = [obj for s in samples for obj in scene_object_ids(vocabs, s.scene_graph)]
    assert len(set(objects)) < len(objects) / 3
    return corpus, vocabs, (initial, trained)


def _reference_probs(params, vocabs, samples):
    """Each sample encoded on its own, then the head."""
    return [
        model.forward(
            params,
            encode_question(params, question_token_ids(vocabs, s.question.text)),
            encode_image(params, scene_object_ids(vocabs, s.scene_graph)),
        )
        for s in samples
    ]


def _recording_forward(monkeypatch):
    outputs = []
    real_forward = model.forward

    def forward(*args):
        outputs.append(real_forward(*args))
        return outputs[-1]

    monkeypatch.setattr(model, "forward", forward)
    return outputs


def _reference_correct(vocabs, samples, probs):
    known = set(vocabs.answers[:-1])
    return [
        s.answer in known and vocabs.answers[int(np.argmax(p))] == s.answer
        for s, p in zip(samples, probs)
    ]


@pytest.mark.parametrize("which", [0, 1], ids=["initial", "trained"])
def test_answered_correctly_equals_per_sample_encoding(repetitive_world, monkeypatch, which):
    corpus, vocabs, params_pair = repetitive_world
    params = params_pair[which]
    samples = [s for s in corpus.samples if s.answer in vocabs.answers[:-1]]
    want = _reference_probs(params, vocabs, samples)
    outputs = _recording_forward(monkeypatch)
    got = answered_correctly(params, vocabs, samples)
    assert len(outputs) == len(want)
    assert all(np.array_equal(a, b) for a, b in zip(outputs, want))
    assert got == _reference_correct(vocabs, samples, want)
    assert [predict_answer(params, vocabs, s) for s in samples[:20]] == [
        vocabs.answers[int(np.argmax(p))] for p in want[:20]
    ]


@pytest.mark.parametrize("which", [0, 1], ids=["initial", "trained"])
def test_evaluate_equals_per_sample_encoding(repetitive_world, monkeypatch, which):
    corpus, vocabs, params_pair = repetitive_world
    params = params_pair[which]
    ids = [s.question.id for s in corpus.samples]
    # seven splits of varied sizes, one empty, one sample listed twice
    splits = dict(zip(SPLIT_LABELS, [ids[:40], ids[40:41], [], ids[41:90], ids[90:],
                                     ids[5:25], ids[:1]]))
    by_id = {s.question.id: s for s in corpus.samples}
    ordered = [by_id[i] for label in SPLIT_LABELS for i in splits[label]]
    want = _reference_probs(params, vocabs, ordered)
    outputs = _recording_forward(monkeypatch)
    report = evaluate(params, vocabs, splits, corpus)
    assert len(outputs) == sum(s.answer in vocabs.answers[:-1] for s in ordered)
    known = iter(p for s, p in zip(ordered, want) if s.answer in vocabs.answers[:-1])
    assert all(np.array_equal(a, b) for a, b in zip(outputs, known))
    correct = iter(_reference_correct(vocabs, ordered, want))
    for label in SPLIT_LABELS:
        n = len(splits[label])
        assert report.per_split_counts[label] == (sum(next(correct) for _ in range(n)), n)


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
