import json
import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from ragvqa.model import (
    CHECKPOINT_MAGIC,
    ModelError,
    NumericError,
    OptimizerConfig,
    ParamSet,
    build_vocabularies,
    corpus_accuracy,
    cross_entropy,
    encode_image,
    encode_question,
    finite_difference_grad,
    flatten_params,
    forward,
    gradient_check,
    init_params,
    load_checkpoint,
    loss_and_grads,
    optimizer_step,
    question_token_ids,
    save_checkpoint,
    scene_object_ids,
    unflatten_params,
)

from conftest import make_corpus, make_sample


def zero_params(n_words=4, n_labels=4, n_answers=4, d=3, d_h=5) -> ParamSet:
    return init_params(n_words, n_labels, n_answers, d=d, d_h=d_h, seed=0).zeros_like()


# -- encoders -----------------------------------------------------------------


def test_encode_question_zero_weights_gives_zeros():
    params = zero_params()
    out = encode_question(params, [0, 1, 2])
    assert np.array_equal(out, np.zeros((3, 3)))


def test_encode_question_shape():
    params = init_params(10, 5, 4, d=16, d_h=8, seed=0)
    assert encode_question(params, [1, 2, 3, 4, 5]).shape == (5, 16)


def test_encode_question_scalar_recurrence():
    # 1-dimensional model: h = tanh(1 * 0.5 + 1 * 0 + 0)
    params = ParamSet(
        word_emb=np.array([[0.5]]),
        w_in=np.array([[1.0]]),
        w_h=np.array([[1.0]]),
        b_h=np.zeros(1),
        cat_emb=np.zeros((1, 1)),
        attr_emb=np.zeros((1, 1)),
        w1=np.zeros((2, 1)),
        b1=np.zeros(1),
        w2=np.zeros((1, 2)),
        b2=np.zeros(2),
    )
    out = encode_question(params, [0])
    assert out[0, 0] == pytest.approx(math.tanh(0.5), abs=1e-12)


def test_encode_question_empty_errors():
    with pytest.raises(ModelError):
        encode_question(zero_params(), [])


def test_encode_question_context_sensitivity():
    """The same word id in different positions gets different features."""
    params = init_params(10, 5, 4, d=8, d_h=8, seed=3)
    out = encode_question(params, [2, 3, 2])
    assert not np.allclose(out[0], out[2])


def test_encode_image_zero_embeddings():
    out = encode_image(zero_params(), [(0, (1,)), (2, ())])
    assert np.array_equal(out, np.zeros((2, 3)))


def test_encode_image_object_count():
    params = init_params(10, 5, 4, d=8, d_h=8, seed=0)
    assert encode_image(params, [(0, ()), (1, (2,)), (3, (1, 2))]).shape == (3, 8)


def test_encode_image_single_attribute_mean():
    params = init_params(4, 4, 2, d=6, d_h=4, seed=1)
    out = encode_image(params, [(1, (2,))])
    expected = np.tanh(params.cat_emb[1] + params.attr_emb[2])
    assert np.allclose(out[0], expected, atol=1e-15)


def test_encode_image_empty_handling():
    params = zero_params()
    with pytest.raises(ModelError):
        encode_image(params, [])


def test_encoders_share_dimension():
    params = init_params(10, 5, 4, d=16, d_h=8, seed=0)
    q = encode_question(params, [1, 2])
    v = encode_image(params, [(0, ())])
    assert q.shape[1] == v.shape[1] == 16


# -- forward / loss ------------------------------------------------------------


def test_forward_zero_fusion_uniform():
    params = init_params(4, 4, 4, d=3, d_h=5, seed=0)
    params.w1 = np.zeros_like(params.w1)
    params.b1 = np.zeros_like(params.b1)
    params.w2 = np.zeros_like(params.w2)
    params.b2 = np.zeros_like(params.b2)
    probs = forward(params, np.ones((2, 3)), np.ones((1, 3)))
    assert np.allclose(probs, 0.25, atol=1e-15)


def test_forward_tiny_hand_evaluation():
    # d=2, 2 answers, all weights fixed; value recomputed step by step here
    params = ParamSet(
        word_emb=np.zeros((1, 2)),
        w_in=np.zeros((2, 2)),
        w_h=np.zeros((2, 2)),
        b_h=np.zeros(2),
        cat_emb=np.zeros((1, 2)),
        attr_emb=np.zeros((1, 2)),
        w1=np.array([[0.1, -0.2], [0.3, 0.4], [-0.5, 0.6], [0.7, -0.8]]),
        b1=np.array([0.05, -0.05]),
        w2=np.array([[1.0, -1.0], [0.5, 0.25]]),
        b2=np.array([0.0, 0.1]),
    )
    q = np.array([[0.2, -0.4], [0.6, 0.0]])  # mean (0.4, -0.2)
    v = np.array([[-0.3, 0.5]])
    z = np.array([0.4, -0.2, -0.3, 0.5])
    a1 = np.tanh(z @ params.w1 + params.b1)
    logits = a1 @ params.w2 + params.b2
    expected = np.exp(logits - logits.max())
    expected /= expected.sum()
    assert np.allclose(forward(params, q, v), expected, atol=1e-15)


@settings(max_examples=50, deadline=None)
@given(st.integers(0, 2**31 - 1))
def test_forward_outputs_probability_distribution(seed):
    rng = np.random.default_rng(seed)
    params = init_params(6, 6, 5, d=4, d_h=6, seed=seed % 1000)
    q = rng.standard_normal((3, 4))
    v = rng.standard_normal((2, 4))
    probs = forward(params, q, v)
    assert np.all(probs >= 0)
    assert abs(probs.sum() - 1.0) < 1e-9


def test_forward_nonfinite_names_layer():
    params = init_params(4, 4, 2, d=3, d_h=4, seed=0)
    with pytest.raises(NumericError, match="hidden"):
        forward(params, np.full((1, 3), np.nan), np.zeros((1, 3)))


def test_cross_entropy_certain_answer():
    assert cross_entropy(np.array([0.0, 1.0]), 1) == 0.0


def test_cross_entropy_uniform():
    assert cross_entropy(np.full(4, 0.25), 0) == pytest.approx(math.log(4), abs=1e-12)


def test_cross_entropy_clamp():
    assert cross_entropy(np.array([0.0, 1.0]), 0) <= -math.log(1e-12) + 1e-9


# -- gradients -----------------------------------------------------------------


def _grad_setup(seed=0, with_deltas=False):
    rng = np.random.default_rng(seed)
    params = init_params(8, 6, 4, d=4, d_h=5, seed=seed)
    token_ids = [1, 3, 5, 2]
    objects = [(1, (2, 3)), (4, ())]
    answer = 2
    q_delta = 0.1 * rng.standard_normal((4, 4)) if with_deltas else None
    v_delta = 0.1 * rng.standard_normal((2, 4)) if with_deltas else None
    return params, token_ids, objects, answer, q_delta, v_delta


@pytest.mark.parametrize("with_deltas", [False, True])
def test_gradients_match_finite_differences(with_deltas):
    params, token_ids, objects, answer, q_delta, v_delta = _grad_setup(5, with_deltas)
    _, _, grads = loss_and_grads(params, token_ids, objects, answer, q_delta, v_delta)

    def loss_fn(p):
        value, _, _ = loss_and_grads(p, token_ids, objects, answer, q_delta, v_delta)
        return value

    assert gradient_check(params, loss_fn, grads, n_coords=100, seed=1) < 1e-4


def test_gradients_near_zero_at_confident_correct_answer():
    params, token_ids, objects, answer, _, _ = _grad_setup(0)
    # push the target logit far above the rest: probability ~1, clamp inactive
    params.w2 = np.zeros_like(params.w2)
    params.b2 = np.full_like(params.b2, -30.0)
    params.b2[answer] = 30.0
    loss, probs, grads = loss_and_grads(params, token_ids, objects, answer)
    assert probs[answer] > 1 - 1e-12
    assert loss < 1e-9
    assert np.linalg.norm(flatten_params(grads)) < 1e-8


def test_gradients_zero_when_clamp_engaged():
    params, token_ids, objects, answer, _, _ = _grad_setup(0)
    params.w2 = np.zeros_like(params.w2)
    params.b2 = np.full_like(params.b2, 40.0)
    params.b2[answer] = -40.0
    loss, _, grads = loss_and_grads(params, token_ids, objects, answer)
    assert loss >= -math.log(1e-11)
    assert np.all(flatten_params(grads) == 0.0)


def test_delta_shape_mismatch_errors():
    params, token_ids, objects, answer, _, _ = _grad_setup(0)
    with pytest.raises(ModelError):
        loss_and_grads(params, token_ids, objects, answer, q_delta=np.zeros((1, 4)))


def test_finite_difference_grad_matches_on_quadratic():
    params = init_params(2, 2, 2, d=2, d_h=2, seed=0)

    def loss_fn(p):
        return float(np.sum(flatten_params(p) ** 2))

    fd = finite_difference_grad(loss_fn, params, [0, 1, 5], eps=1e-5)
    theta = flatten_params(params)
    assert np.allclose(fd, 2 * theta[[0, 1, 5]], atol=1e-8)


def test_flatten_unflatten_round_trip():
    params = init_params(3, 3, 2, d=2, d_h=3, seed=4)
    rebuilt = unflatten_params(flatten_params(params), params)
    for a, b in zip(params.arrays(), rebuilt.arrays()):
        assert np.array_equal(a, b)


# -- optimizer -----------------------------------------------------------------


def test_optimizer_zero_gradients_no_change():
    params = init_params(3, 3, 2, d=2, d_h=3, seed=0)
    updated, _ = optimizer_step(params, params.zeros_like(), OptimizerConfig(0.1))
    for a, b in zip(params.arrays(), updated.arrays()):
        assert np.array_equal(a, b)


def test_optimizer_zero_learning_rate_no_change():
    params = init_params(3, 3, 2, d=2, d_h=3, seed=0)
    grads = ParamSet(*(np.ones_like(a) for a in params.arrays()))
    updated, _ = optimizer_step(params, grads, OptimizerConfig(0.0))
    for a, b in zip(params.arrays(), updated.arrays()):
        assert np.array_equal(a, b)


def test_optimizer_single_coordinate_arithmetic():
    params = init_params(3, 3, 2, d=2, d_h=3, seed=0)
    params.b2 = np.array([1.0, 0.0])
    grads = params.zeros_like()
    grads.b2 = np.array([0.5, 0.0])
    updated, _ = optimizer_step(params, grads, OptimizerConfig(0.1))
    assert updated.b2[0] == pytest.approx(0.95, abs=1e-15)


def test_optimizer_momentum_accumulates():
    params = init_params(3, 3, 2, d=2, d_h=3, seed=0).zeros_like()
    grads = params.zeros_like()
    grads.b2 = np.array([1.0, 0.0])
    config = OptimizerConfig(0.1, momentum=0.9)
    p1, vel = optimizer_step(params, grads, config)
    p2, _ = optimizer_step(p1, grads, config, velocity=vel)
    assert p1.b2[0] == pytest.approx(-0.1)
    assert p2.b2[0] == pytest.approx(-0.1 - 0.1 * 1.9)


def test_optimizer_nonfinite_update_errors():
    params = init_params(3, 3, 2, d=2, d_h=3, seed=0)
    grads = params.zeros_like()
    grads.b2 = np.array([np.inf, 0.0])
    with pytest.raises(NumericError):
        optimizer_step(params, grads, OptimizerConfig(0.1))


# -- vocabularies and prediction -------------------------------------------------


def test_build_vocabularies_structure():
    corpus = make_corpus(
        [
            make_sample("Is the dog black?", [("dog", {"black"})], "no", "q1", "i1"),
            make_sample("Is the cat white?", [("cat", {"white"})], "yes", "q2", "i2"),
        ]
    )
    vocabs = build_vocabularies(corpus)
    assert vocabs.words["<unk>"] == 0
    assert vocabs.labels["<unk>"] == 0
    assert vocabs.answers == ("no", "yes", "<unk>")
    assert set(vocabs.labels) == {"<unk>", "dog", "cat", "black", "white"}


def test_token_and_object_id_mapping():
    corpus = make_corpus([make_sample("Is the dog black?", [("dog", {"black"})], "no")])
    vocabs = build_vocabularies(corpus)
    ids = question_token_ids(vocabs, "is the zebra black?")
    assert ids[2] == 0  # unknown word
    objs = scene_object_ids(vocabs, corpus.samples[0].scene_graph)
    assert objs == [(vocabs.labels["dog"], (vocabs.labels["black"],))]


def test_corpus_accuracy_unknown_answer_counts_wrong():
    corpus = make_corpus([make_sample("Is the dog black?", [("dog", set())], "no")])
    vocabs = build_vocabularies(corpus)
    params = init_params(len(vocabs.words), len(vocabs.labels), len(vocabs.answers), 4, 4, 0)
    val_sample = make_sample("Is the dog black?", [("dog", set())], "maybe", "q9", "i9")
    assert corpus_accuracy(params, vocabs, [val_sample]) == 0.0


def test_init_params_deterministic():
    a = init_params(5, 5, 3, d=4, d_h=4, seed=9)
    b = init_params(5, 5, 3, d=4, d_h=4, seed=9)
    for x, y in zip(a.arrays(), b.arrays()):
        assert np.array_equal(x, y)
    assert a.all_finite()
    assert np.all(np.abs(flatten_params(a)) <= 0.1)


# -- checkpoint -----------------------------------------------------------------


def test_checkpoint_round_trip(tmp_path):
    corpus = make_corpus([make_sample("Is the dog black?", [("dog", {"black"})], "no")])
    vocabs = build_vocabularies(corpus)
    params = init_params(len(vocabs.words), len(vocabs.labels), len(vocabs.answers), 4, 6, 2)
    path = tmp_path / "checkpoint.bin"
    save_checkpoint(path, params, vocabs)
    loaded_params, loaded_vocabs = load_checkpoint(path)
    for a, b in zip(params.arrays(), loaded_params.arrays()):
        assert np.array_equal(a, b)
    assert loaded_vocabs == vocabs


def test_checkpoint_bad_magic(tmp_path):
    path = tmp_path / "bad.bin"
    path.write_bytes(b"NOTCKPT!" + b"\x00" * 64)
    with pytest.raises(ModelError, match="magic"):
        load_checkpoint(path)


def test_checkpoint_truncated(tmp_path):
    corpus = make_corpus([make_sample("x y", [("dog", set())], "no")])
    vocabs = build_vocabularies(corpus)
    params = init_params(len(vocabs.words), len(vocabs.labels), len(vocabs.answers), 4, 6, 2)
    path = tmp_path / "checkpoint.bin"
    save_checkpoint(path, params, vocabs)
    data = path.read_bytes()
    path.write_bytes(data[: len(data) // 2])
    with pytest.raises(ModelError, match="truncated"):
        load_checkpoint(path)
    path.write_bytes(data[: len(CHECKPOINT_MAGIC) + 10])  # inside the 24-byte header
    with pytest.raises(ModelError, match="truncated.*header"):
        load_checkpoint(path)


def _saved_checkpoint(tmp_path):
    corpus = make_corpus([make_sample("Is the dog black?", [("dog", {"black"})], "no")])
    vocabs = build_vocabularies(corpus)
    params = init_params(len(vocabs.words), len(vocabs.labels), len(vocabs.answers), 4, 6, 2)
    path = tmp_path / "checkpoint.bin"
    save_checkpoint(path, params, vocabs)
    return path


def test_checkpoint_trailing_bytes(tmp_path):
    path = _saved_checkpoint(tmp_path)
    path.write_bytes(path.read_bytes() + b"\x00" * 8)
    with pytest.raises(ModelError, match="trailing"):
        load_checkpoint(path)


@pytest.mark.parametrize(
    "sidecar",
    [{"labels": {}, "answers": []}, ["words", "labels", "answers"]],
    ids=["no_words", "list"],
)
def test_checkpoint_malformed_sidecar(tmp_path, sidecar):
    path = _saved_checkpoint(tmp_path)
    path.with_suffix(".bin.json").write_text(json.dumps(sidecar), "utf-8")
    with pytest.raises(ModelError, match="sidecar"):
        load_checkpoint(path)


def test_checkpoint_sidecar_size_mismatch(tmp_path):
    path = _saved_checkpoint(tmp_path)
    sidecar_path = path.with_suffix(".bin.json")
    sidecar = json.loads(sidecar_path.read_text("utf-8"))
    sidecar["words"]["zebra"] = len(sidecar["words"])
    sidecar_path.write_text(json.dumps(sidecar), "utf-8")
    with pytest.raises(ModelError, match="words"):
        load_checkpoint(path)
