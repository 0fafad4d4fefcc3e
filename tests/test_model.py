import json
import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from ragvqa.model import (
    _PARAM_FIELDS,
    CHECKPOINT_HEADER,
    CHECKPOINT_MAGIC,
    CHECKPOINT_VERSION,
    ModelError,
    NumericError,
    ParamSet,
    answered_correctly,
    build_vocabularies,
    corpus_accuracy,
    cross_entropy,
    encode_image,
    encode_question,
    finite_difference_grad,
    forward,
    gradient_check,
    init_params,
    load_checkpoint,
    loss_and_grads,
    optimizer_step,
    question_token_ids,
    save_checkpoint,
    scene_object_ids,
)

from conftest import make_corpus, make_sample


def zero_params(n_words=4, n_labels=4, n_answers=4, d=3, d_h=5) -> ParamSet:
    return init_params(n_words, n_labels, n_answers, d=d, d_h=d_h, seed=0).zeros_like()


# -- the parameter buffer ---------------------------------------------------------


def test_fields_are_views_of_flat_in_field_order():
    params = init_params(5, 4, 3, d=3, d_h=4, seed=1)
    assert params.flat.dtype == np.float64 and params.flat.flags.c_contiguous
    base = params.flat.__array_interface__["data"][0]
    offset = 0
    for name, array in zip(_PARAM_FIELDS, params.arrays()):
        assert array is getattr(params, name)
        assert np.shares_memory(array, params.flat)
        assert array.__array_interface__["data"][0] == base + 8 * offset
        assert np.array_equal(array.ravel(), params.flat[offset : offset + array.size])
        offset += array.size
    assert offset == params.flat.size


def test_field_assignment_writes_through_and_checks_shape():
    params = init_params(5, 4, 3, d=3, d_h=4, seed=1)
    view = params.w2
    params.w2 = np.ones_like(params.w2)
    assert params.w2 is view
    start = params.flat.size - params.b2.size - params.w2.size
    assert np.all(params.flat[start : start + params.w2.size] == 1.0)
    before = params.flat.copy()
    with pytest.raises(ModelError, match="shape"):
        params.w2 = np.ones((2, 2))
    with pytest.raises(AttributeError):
        params.flat = np.zeros_like(params.flat)
    assert np.array_equal(params.flat, before)


def test_constructors_copy_or_wrap():
    params = init_params(5, 4, 3, d=3, d_h=4, seed=1)
    arrays = [a.copy() for a in params.arrays()]
    built = ParamSet(*arrays)
    arrays[0][0, 0] = 7.0
    assert built.word_emb[0, 0] == params.word_emb[0, 0]
    shapes = [a.shape for a in params.arrays()]
    wrapped = ParamSet.from_flat(params.flat, shapes)
    assert np.shares_memory(wrapped.flat, params.flat)
    with pytest.raises(ModelError):
        ParamSet.from_flat(params.flat[:-1], shapes)


def test_copy_and_zeros_like_are_independent_of_their_source():
    params = init_params(5, 4, 3, d=3, d_h=4, seed=1)
    before = params.flat.copy()
    copied, zeros = params.copy(), params.zeros_like()
    assert np.array_equal(copied.flat, before)
    assert np.all(zeros.flat == 0.0)
    assert [a.shape for a in zeros.arrays()] == [a.shape for a in params.arrays()]
    copied.w_in[0, 0] += 1.0
    zeros.b_h[0] = 1.0
    assert np.array_equal(params.flat, before)
    b1_before = params.b1[0]
    params.b1[0] = 5.0
    assert copied.b1[0] == b1_before
    assert zeros.b1[0] == 0.0


def test_all_finite_sees_every_field():
    params = init_params(5, 4, 3, d=3, d_h=4, seed=1)
    assert params.all_finite()
    for name in _PARAM_FIELDS:
        broken = params.copy()
        getattr(broken, name).flat[-1] = np.nan
        assert not broken.all_finite()


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
    assert np.linalg.norm(grads.flat) < 1e-8


def test_gradients_zero_when_clamp_engaged():
    params, token_ids, objects, answer, _, _ = _grad_setup(0)
    params.w2 = np.zeros_like(params.w2)
    params.b2 = np.full_like(params.b2, 40.0)
    params.b2[answer] = -40.0
    loss, _, grads = loss_and_grads(params, token_ids, objects, answer)
    assert loss >= -math.log(1e-11)
    assert np.all(grads.flat == 0.0)


def _reference_loss_and_grads(params, token_ids, objects, answer_index, q_delta, v_delta):
    """Per-token backprop through time and per-object visual loops, one
    outer product and one embedding row at a time."""
    h_q = encode_question(params, token_ids)
    h_v = encode_image(params, objects)
    q_aug = h_q if q_delta is None else h_q + q_delta
    v_aug = h_v if v_delta is None else h_v + v_delta
    n, m, d = len(token_ids), len(objects), params.d
    z = np.concatenate([q_aug.mean(axis=0), v_aug.mean(axis=0)])
    a1 = np.tanh(z @ params.w1 + params.b1)
    logits = a1 @ params.w2 + params.b2
    probs = np.exp(logits - logits.max())
    probs /= probs.sum()
    grads = params.zeros_like()
    d_logits = probs.copy()
    d_logits[answer_index] -= 1.0
    grads.w2 = np.outer(a1, d_logits)
    grads.b2 = d_logits
    d_z1 = (params.w2 @ d_logits) * (1.0 - a1 * a1)
    grads.w1 = np.outer(z, d_z1)
    grads.b1 = d_z1
    d_z = params.w1 @ d_z1
    d_h_next = np.zeros(d)
    for i in range(n - 1, -1, -1):
        d_pre = (d_z[:d] / n + d_h_next) * (1.0 - h_q[i] * h_q[i])
        grads.w_in += np.outer(d_pre, params.word_emb[token_ids[i]])
        if i > 0:
            grads.w_h += np.outer(d_pre, h_q[i - 1])
        grads.b_h += d_pre
        grads.word_emb[token_ids[i]] += params.w_in.T @ d_pre
        d_h_next = params.w_h.T @ d_pre
    for j, (cat_id, attr_ids) in enumerate(objects):
        d_u = d_z[d:] / m * (1.0 - h_v[j] * h_v[j])
        grads.cat_emb[cat_id] += d_u
        for a in attr_ids:
            grads.attr_emb[a] += d_u / len(attr_ids)
    return cross_entropy(probs, answer_index), probs, grads


@pytest.mark.parametrize(
    "with_deltas, pre_encoded",
    [(False, False), (True, False), (False, True), (True, True)],
    ids=["False", "True", "False-encoded", "True-encoded"],
)
@pytest.mark.parametrize(
    "token_ids, objects",
    [
        ([1, 3, 1, 1, 5, 3], [(1, (2, 3)), (4, ())]),
        ([2, 6, 7], [(2, (1, 3)), (2, (3,)), (2, (1, 3)), (5, (3, 3))]),
        ([4], [(1, (2,))]),
        ([1, 2, 3], [(3, ())]),
    ],
    ids=["repeated_tokens", "shared_object_ids", "single_token", "attributeless_object"],
)
def test_loss_and_grads_matches_per_token_reference(token_ids, objects, with_deltas, pre_encoded):
    base = init_params(8, 6, 4, d=4, d_h=5, seed=7)
    shapes = [a.shape for a in base.arrays()]
    params = ParamSet.from_flat(5.0 * base.flat, shapes)  # weights in +-0.5
    rng = np.random.default_rng(3)
    q_delta = 0.3 * rng.standard_normal((len(token_ids), 4)) if with_deltas else None
    v_delta = 0.3 * rng.standard_normal((len(objects), 4)) if with_deltas else None
    encoded = None
    if pre_encoded:
        encoded = encode_question(params, token_ids), encode_image(params, objects)
    loss, probs, grads = loss_and_grads(
        params, token_ids, objects, 2, q_delta, v_delta, encoded=encoded
    )
    if pre_encoded:
        # the features the caller passes are the ones the encoders would make
        own_loss, own_probs, own_grads = loss_and_grads(
            params, token_ids, objects, 2, q_delta, v_delta
        )
        assert loss == own_loss
        assert probs.tobytes() == own_probs.tobytes()
        assert grads.flat.tobytes() == own_grads.flat.tobytes()
    want_loss, want_probs, want = _reference_loss_and_grads(
        params, token_ids, objects, 2, q_delta, v_delta
    )
    assert loss == pytest.approx(want_loss, rel=1e-12)
    assert np.max(np.abs(probs - want_probs)) <= 1e-12
    for name, got, expected in zip(_PARAM_FIELDS, grads.arrays(), want.arrays()):
        assert np.max(np.abs(got - expected)) <= 1e-12, name
    touched = {name for name, g in zip(_PARAM_FIELDS, want.arrays()) if np.any(g != 0.0)}
    assert touched >= {"word_emb", "w_in", "b_h", "cat_emb", "w1", "b1", "w2", "b2"}


def test_delta_shape_mismatch_errors():
    params, token_ids, objects, answer, _, _ = _grad_setup(0)
    with pytest.raises(ModelError):
        loss_and_grads(params, token_ids, objects, answer, q_delta=np.zeros((1, 4)))


def test_finite_difference_grad_matches_on_quadratic():
    params = init_params(2, 2, 2, d=2, d_h=2, seed=0)

    def loss_fn(p):
        return float(np.sum(p.flat ** 2))

    fd = finite_difference_grad(loss_fn, params, [0, 1, 5], eps=1e-5)
    theta = params.flat
    assert np.allclose(fd, 2 * theta[[0, 1, 5]], atol=1e-8)


def test_flat_round_trip():
    params = init_params(3, 3, 2, d=2, d_h=3, seed=4)
    rebuilt = ParamSet.from_flat(params.flat.copy(), [a.shape for a in params.arrays()])
    assert np.array_equal(rebuilt.flat, params.flat)
    for a, b in zip(params.arrays(), rebuilt.arrays()):
        assert np.array_equal(a, b)
    assert np.array_equal(ParamSet(*params.arrays()).flat, params.flat)


# -- optimizer -----------------------------------------------------------------


def test_optimizer_zero_gradients_no_change():
    params = init_params(3, 3, 2, d=2, d_h=3, seed=0)
    updated = optimizer_step(params, params.zeros_like(), 0.1)
    assert np.array_equal(params.flat, updated.flat)


def test_optimizer_zero_learning_rate_no_change():
    params = init_params(3, 3, 2, d=2, d_h=3, seed=0)
    grads = ParamSet.from_flat(np.ones_like(params.flat), [a.shape for a in params.arrays()])
    updated = optimizer_step(params, grads, 0.0)
    assert np.array_equal(params.flat, updated.flat)


def test_optimizer_single_coordinate_arithmetic():
    params = init_params(3, 3, 2, d=2, d_h=3, seed=0)
    params.b2 = np.array([1.0, 0.0])
    grads = params.zeros_like()
    grads.b2 = np.array([0.5, 0.0])
    updated = optimizer_step(params, grads, 0.1)
    assert updated.b2[0] == pytest.approx(0.95, abs=1e-15)
    assert updated.flat[-2] == updated.b2[0]


def test_optimizer_step_leaves_inputs_unchanged():
    params = init_params(5, 4, 3, d=3, d_h=4, seed=2)
    grads = ParamSet.from_flat(
        np.random.default_rng(0).standard_normal(params.flat.size),
        [a.shape for a in params.arrays()],
    )
    params_before, grads_before = params.flat.tobytes(), grads.flat.tobytes()
    updated = optimizer_step(params, grads, 0.1)
    assert params.flat.tobytes() == params_before
    assert grads.flat.tobytes() == grads_before
    assert not np.shares_memory(updated.flat, params.flat)
    assert np.array_equal(updated.flat, params.flat - 0.1 * grads.flat)


def test_optimizer_nonfinite_update_errors():
    params = init_params(3, 3, 2, d=2, d_h=3, seed=0)
    grads = params.zeros_like()
    grads.b2 = np.array([np.inf, 0.0])
    with pytest.raises(NumericError):
        optimizer_step(params, grads, 0.1)


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


def test_corpus_accuracy_of_no_samples_is_nan():
    corpus = make_corpus([make_sample("Is the dog black?", [("dog", set())], "no")])
    vocabs = build_vocabularies(corpus)
    params = init_params(len(vocabs.words), len(vocabs.labels), len(vocabs.answers), 4, 4, 0)
    assert math.isnan(corpus_accuracy(params, vocabs, []))
    assert corpus_accuracy(params, vocabs, corpus.samples) in (0.0, 1.0)


def test_answered_correctly_is_per_sample_exact_match(monkeypatch):
    corpus = make_corpus(
        [
            make_sample("Is the dog black?", [("dog", set())], "no", "q1", "i1"),
            make_sample("Is the cat white?", [("cat", set())], "yes", "q2", "i2"),
        ]
    )
    vocabs = build_vocabularies(corpus)
    params = init_params(len(vocabs.words), len(vocabs.labels), len(vocabs.answers), 4, 4, 0)
    unknown = make_sample("Is the dog black?", [("dog", set())], "maybe", "q9", "i9")
    predicted = []

    def always_no(params, q_features, v_features):
        predicted.append(len(q_features))
        return np.eye(len(vocabs.answers))[vocabs.answers.index("no")]

    monkeypatch.setattr("ragvqa.model.forward", always_no)
    samples = [*corpus.samples, unknown]
    assert answered_correctly(params, vocabs, samples) == [True, False, False]
    assert predicted == [4, 4]  # an unknown ground truth needs no prediction
    assert corpus_accuracy(params, vocabs, samples) == 1 / 3


def test_init_params_deterministic():
    a = init_params(5, 5, 3, d=4, d_h=4, seed=9)
    b = init_params(5, 5, 3, d=4, d_h=4, seed=9)
    for x, y in zip(a.arrays(), b.arrays()):
        assert np.array_equal(x, y)
    assert a.all_finite()
    assert np.all(np.abs(a.flat) <= 0.1)


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


def test_checkpoint_bytes_are_header_then_fields_in_order(tmp_path):
    path = _saved_checkpoint(tmp_path)
    params, vocabs = load_checkpoint(path)
    header = CHECKPOINT_HEADER.pack(
        CHECKPOINT_VERSION, params.d, params.d_h,
        len(vocabs.words), len(vocabs.labels), len(vocabs.answers),
    )
    fields = b"".join(getattr(params, name).astype("<f8").tobytes() for name in _PARAM_FIELDS)
    assert path.read_bytes() == CHECKPOINT_MAGIC + header + fields
    expected = init_params(len(vocabs.words), len(vocabs.labels), len(vocabs.answers), 4, 6, 2)
    assert params.flat.tobytes() == expected.flat.tobytes()


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


@pytest.mark.parametrize("field_name", ["words", "labels"])
@pytest.mark.parametrize("bad_id", [1000000, -1, "duplicate"])
def test_checkpoint_sidecar_ids_must_be_the_rows(tmp_path, field_name, bad_id):
    path = _saved_checkpoint(tmp_path)
    sidecar_path = path.with_suffix(".bin.json")
    sidecar = json.loads(sidecar_path.read_text("utf-8"))
    ids = sidecar[field_name]
    last = max(ids, key=ids.get)
    ids[last] = 0 if bad_id == "duplicate" else bad_id
    sidecar_path.write_text(json.dumps(sidecar), "utf-8")
    with pytest.raises(ModelError, match=f"sidecar {field_name} ids"):
        load_checkpoint(path)


def test_checkpoint_sidecar_size_mismatch(tmp_path):
    path = _saved_checkpoint(tmp_path)
    sidecar_path = path.with_suffix(".bin.json")
    sidecar = json.loads(sidecar_path.read_text("utf-8"))
    sidecar["words"]["zebra"] = len(sidecar["words"])
    sidecar_path.write_text(json.dumps(sidecar), "utf-8")
    with pytest.raises(ModelError, match="words"):
        load_checkpoint(path)
