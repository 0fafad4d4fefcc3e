import sys
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from ragvqa import ragtrain
from ragvqa.config import PRESETS
from ragvqa.model import (
    build_vocabularies,
    encode_image,
    encode_question,
    init_params,
    question_token_ids,
    scene_object_ids,
)
from ragvqa.primdb import build_dq, build_dv, cosines, encode_index, search
from ragvqa.primitives import Modality, extract_linguistic
from ragvqa.ragtrain import (
    AggregationConfig,
    TrainConfig,
    TrainingDiverged,
    aggregate,
    augment_sample,
    train,
)

from conftest import make_corpus, make_sample
from reference import reference_train

def _neighbours(p, *rows):
    """(sims, vectors) of ``rows`` as the neighbours of the feature ``p``."""
    vectors = np.array(rows, dtype=float).reshape(len(rows), p.size)
    return cosines(p, vectors), vectors


# -- aggregate -------------------------------------------------------------------


def test_aggregate_zero_weights_identity():
    p = np.array([0.3, -0.8])
    config = AggregationConfig(w_q=0.0, w_v=0.0, k_q=1, k_v=1)
    out = aggregate(p, _neighbours(p, (1.0, 0.0)), _neighbours(p, (0.0, 1.0)), config)
    assert np.array_equal(out, p)
    assert out is not p  # a copy, never the same buffer


def test_aggregate_weighted_feature_hand_example():
    p = np.array([1.0, 0.0])
    config = AggregationConfig(w_q=0.6, w_v=0.4, k_q=1, k_v=1, mode="weighted_feature")
    out = aggregate(p, _neighbours(p, (0.0, 1.0)), _neighbours(p, (1.0, 0.0)), config)
    assert np.allclose(out, [1.4, 0.0], atol=1e-15)


def test_aggregate_scalar_broadcast_hand_example():
    p = np.array([1.0, 0.0])
    config = AggregationConfig(w_q=0.6, w_v=0.4, k_q=1, k_v=1, mode="scalar_broadcast")
    out = aggregate(p, _neighbours(p, (0.0, 1.0)), _neighbours(p, (1.0, 0.0)), config)
    assert np.allclose(out, [1.4, 0.4], atol=1e-15)


def test_aggregate_empty_results_contribute_zero():
    p = np.array([0.5, 0.5])
    config = AggregationConfig(w_q=0.6, w_v=0.4, k_q=2, k_v=2)
    assert np.array_equal(aggregate(p, _neighbours(p), None, config), p)


def test_aggregate_disabled_database_contributes_zero():
    p = np.array([1.0, 0.0])
    config = AggregationConfig(w_q=0.6, w_v=0.4, k_q=1, k_v=1)
    out = aggregate(p, None, _neighbours(p, (1.0, 0.0)), config)
    assert np.allclose(out, [1.4, 0.0], atol=1e-15)  # only the D_v term


def test_aggregate_dimension_mismatch():
    config = AggregationConfig(k_q=1, k_v=1)
    with pytest.raises(ValueError):
        aggregate(np.ones(3), (np.ones(1), np.array([[1.0, 0.0]])), None, config)


def test_aggregation_config_validation():
    with pytest.raises(ValueError):
        AggregationConfig(w_q=-0.1)
    with pytest.raises(ValueError):
        AggregationConfig(k_q=0)
    with pytest.raises(ValueError):
        AggregationConfig(refresh_every=0)
    with pytest.raises(ValueError):
        AggregationConfig(mode="magic")


@pytest.mark.parametrize("bad", [float("nan"), float("inf"), float("-inf")])
@pytest.mark.parametrize("name", ["w_q", "w_v"])
def test_aggregation_config_rejects_non_finite_weight(name, bad):
    with pytest.raises(ValueError, match=f"{name} must be finite.*got {bad}"):
        AggregationConfig(**{name: bad})


@pytest.mark.parametrize("bad", [float("nan"), float("inf"), float("-inf")])
def test_train_config_rejects_non_finite_learning_rate(bad):
    with pytest.raises(ValueError, match=f"learning rate must be finite.*got {bad}"):
        TrainConfig(learning_rate=bad)


@settings(max_examples=200, deadline=None)
@given(
    st.integers(0, 2**31 - 1),
    st.floats(0.0, 2.0),
    st.floats(0.0, 2.0),
    st.sampled_from(["weighted_feature", "scalar_broadcast"]),
)
def test_aggregate_linear_in_weights(seed, w_q, w_v, mode):
    rng = np.random.default_rng(seed)
    d = 4
    p = rng.standard_normal(d)
    r_q = _neighbours(p, *rng.standard_normal((2, d)))
    r_v = _neighbours(p, *rng.standard_normal((2, d)))
    single = AggregationConfig(w_q=w_q, w_v=w_v, k_q=2, k_v=2, mode=mode)
    double = AggregationConfig(w_q=2 * w_q, w_v=2 * w_v, k_q=2, k_v=2, mode=mode)
    delta1 = aggregate(p, r_q, r_v, single) - p
    delta2 = aggregate(p, r_q, r_v, double) - p
    assert np.allclose(delta2, 2 * delta1, atol=1e-12)


def _cos(a, b):
    norm_a, norm_b = np.linalg.norm(a), np.linalg.norm(b)
    if norm_a < 1e-12 or norm_b < 1e-12:
        return 0.0
    return float(np.dot(a, b)) / (norm_a * norm_b)


@settings(max_examples=200, deadline=None)
@given(
    st.integers(0, 2**31 - 1),
    st.integers(1, 6),
    st.integers(0, 6),
    st.integers(0, 6),
    st.sampled_from(["weighted_feature", "scalar_broadcast"]),
    st.booleans(),
)
def test_aggregate_matches_per_item_loop(seed, d, n_q, n_v, mode, zero_p):
    rng = np.random.default_rng(seed)
    p = np.zeros(d) if zero_p else rng.standard_normal(d)
    rows_q = rng.standard_normal((n_q, d))
    rows_v = rng.standard_normal((n_v, d))
    rows_q[rng.random(n_q) < 0.3] = 0.0
    rows_v[rng.random(n_v) < 0.3] = 0.0
    w_q, w_v = rng.uniform(0, 2, size=2)
    config = AggregationConfig(w_q=w_q, w_v=w_v, k_q=4, k_v=3, mode=mode)

    expected = p.copy()
    for rows, weight, depth in ((rows_q, w_q, 4), (rows_v, w_v, 3)):
        for r in rows[:depth]:
            if mode == "weighted_feature":
                expected = expected + (weight / depth) * _cos(p, r) * r
            else:
                expected = expected + (weight / depth) * _cos(p, r)
    got = aggregate(p, _neighbours(p, *rows_q[:4]), _neighbours(p, *rows_v[:3]), config)
    assert np.allclose(got, expected, rtol=0.0, atol=1e-12)


# -- augment_sample ---------------------------------------------------------------


def _training_setup(lexicon, seed=0):
    corpus = make_corpus(
        [
            make_sample("Is the dog black?", [("dog", {"black"})], "no", "q1", "i1"),
            make_sample("Is the dog white?", [("dog", {"white"})], "yes", "q2", "i2"),
            make_sample("Is the cat white?", [("cat", {"white"})], "yes", "q3", "i3"),
            make_sample("How many dogs are there?", [("dog", set()), ("cat", set())], "1", "q4", "i4"),
        ]
    )
    vocabs = build_vocabularies(corpus)
    params = init_params(len(vocabs.words), len(vocabs.labels), len(vocabs.answers), 6, 6, seed)
    db_q = build_dq(corpus, t_q=8, seed=0, lexicon=lexicon)
    db_v = build_dv(corpus, t_v=8, seed=0)
    index_q = encode_index(db_q, params, vocabs, corpus, 1)
    index_v = encode_index(db_v, params, vocabs, corpus, 1)
    return corpus, vocabs, params, db_q, db_v, index_q, index_v


def _encoded(sample, params, vocabs, lexicon):
    """(h_q, h_v, primitive positions) of ``sample``, as ``train`` derives them."""
    h_q = encode_question(params, question_token_ids(vocabs, sample.question.text))
    h_v = encode_image(params, scene_object_ids(vocabs, sample.scene_graph))
    positions = [occ.position for occ in extract_linguistic(sample.question, lexicon)[1]]
    return h_q, h_v, positions


def test_augment_zero_weights_matches_plain_encoders(lexicon):
    corpus, vocabs, params, _, _, index_q, index_v = _training_setup(lexicon)
    sample = corpus.samples[0]
    config = AggregationConfig(w_q=0.0, w_v=0.0, k_q=2, k_v=2)
    h_q, h_v, positions = _encoded(sample, params, vocabs, lexicon)
    augmented = augment_sample(sample, h_q, h_v, positions, index_q, index_v, config)
    assert augmented.q_delta is None
    assert augmented.v_delta is None


def test_augment_retrieval_round_count(lexicon):
    corpus, vocabs, params, _, _, index_q, index_v = _training_setup(lexicon)
    sample = corpus.samples[0]  # "Is the dog black?": 3 open-class tokens, 1 object
    config = AggregationConfig(k_q=2, k_v=2)
    h_q, h_v, positions = _encoded(sample, params, vocabs, lexicon)
    augmented = augment_sample(sample, h_q, h_v, positions, index_q, index_v, config)
    assert augmented.retrieval_rounds == (3 + 1) * 2

    augmented = augment_sample(sample, h_q, h_v, positions, index_q, None, config)
    assert augmented.retrieval_rounds == (3 + 1) * 1


def test_augment_nonzero_weights_produce_deltas(lexicon):
    corpus, vocabs, params, _, _, index_q, index_v = _training_setup(lexicon)
    sample = corpus.samples[0]
    config = AggregationConfig(k_q=2, k_v=2)
    h_q, h_v, positions = _encoded(sample, params, vocabs, lexicon)
    augmented = augment_sample(sample, h_q, h_v, positions, index_q, index_v, config)
    assert augmented.q_delta is not None and augmented.q_delta.any()
    assert augmented.v_delta is not None and augmented.v_delta.any()
    # function-word positions ("is" is open-class "be"; "the" is not) pass through
    assert np.array_equal(augmented.q_delta[1], np.zeros(params.d))


def test_augment_changes_exactly_the_extracted_positions(lexicon):
    corpus, vocabs, params, db_q, db_v, _, _ = _training_setup(lexicon)
    # "quietly" is an adverb and "jumping" a verb only by the suffix fallbacks
    sample = make_sample("Is the dog quietly jumping?", [("dog", {"black"})], "no", "q9", "i9")
    assert "quietly" not in lexicon.pos_table and "jumping" not in lexicon.pos_table
    index_q = encode_index(db_q, params, vocabs, corpus, 1)
    index_v = encode_index(db_v, params, vocabs, corpus, 1)
    h_q, h_v, positions = _encoded(sample, params, vocabs, lexicon)
    augmented = augment_sample(
        sample, h_q, h_v, positions, index_q, index_v, AggregationConfig(k_q=2, k_v=2)
    )
    _, occurrences = extract_linguistic(sample.question, lexicon)
    extracted = {occ.position for occ in occurrences}
    assert {3, 4} <= extracted and 1 not in extracted  # "the" is closed-class
    changed = {i for i, row in enumerate(augmented.q_delta) if row.any()}
    assert changed == extracted


@pytest.mark.parametrize("mode", ["weighted_feature", "scalar_broadcast"])
@pytest.mark.parametrize("use_dq, use_dv", [(True, True), (True, False), (False, True)])
def test_augment_matches_per_primitive_reference(lexicon, small_pair, mode, use_dq, use_dv):
    """Each delta equals what ``aggregate`` adds to that primitive's feature
    alone, given a one-row ``search`` of each index with the sample's own
    sources excluded: searching all of a sample's features at once moves
    nothing beyond the last bits."""
    corpus = small_pair[0]
    vocabs = build_vocabularies(corpus)
    params = init_params(len(vocabs.words), len(vocabs.labels), len(vocabs.answers), 6, 6, 3)
    index_q = encode_index(build_dq(corpus, 8, 0, lexicon), params, vocabs, corpus, 1) if use_dq else None
    index_v = encode_index(build_dv(corpus, 32, 0), params, vocabs, corpus, 1) if use_dv else None
    config = AggregationConfig(k_q=3, k_v=5, mode=mode)

    for sample in corpus.samples[:40]:
        lookups = (
            (index_q, config.k_q, sample.question.id),
            (index_v, config.k_v, sample.scene_graph.image_id),
        )

        def reference(p):
            neighbours = []
            for index, k, source in lookups:
                if index is None:
                    neighbours.append(None)
                    continue
                rows, sims = search(p[np.newaxis], index, k, exclude_source=source)
                neighbours.append((sims[0], index.vectors[rows[0]]))
            return aggregate(p, *neighbours, config) - p

        h_q, h_v, positions = _encoded(sample, params, vocabs, lexicon)
        want_q = np.zeros_like(h_q)
        for occ in extract_linguistic(sample.question, lexicon)[1]:
            want_q[occ.position] = reference(h_q[occ.position])
        want_v = np.array([reference(p) for p in h_v])

        got = augment_sample(sample, h_q, h_v, positions, index_q, index_v, config)
        assert got.q_delta is not None and got.v_delta is not None
        assert np.allclose(got.q_delta, want_q, rtol=0.0, atol=1e-12)
        assert np.allclose(got.v_delta, want_v, rtol=0.0, atol=1e-12)


def test_augment_excludes_own_sources(lexicon):
    corpus, vocabs, params, db_q, _, index_q, index_v = _training_setup(lexicon)
    sample = corpus.samples[0]
    # at full depth, no neighbour of the sample's own word comes from its question
    query = encode_question(params, question_token_ids(vocabs, sample.question.text))[2:3]
    rows, _ = search(query, index_q, k=index_q.size, exclude_source=sample.question.id)
    assert all(index_q.records[row].source_id != sample.question.id for row in rows[0])


# -- train -----------------------------------------------------------------------


def test_train_baseline_equivalence_small(lexicon):
    corpus, vocabs, params, db_q, db_v, _, _ = _training_setup(lexicon)
    config = TrainConfig(epochs=3, learning_rate=0.1)
    zero_w = AggregationConfig(w_q=0.0, w_v=0.0, k_q=2, k_v=2)
    with_retrieval = train(corpus, db_q, db_v, params.copy(), vocabs, lexicon, config, zero_w)
    without = train(corpus, None, None, params.copy(), vocabs, lexicon, config, None)
    for a, b in zip(with_retrieval.params.arrays(), without.params.arrays()):
        assert np.array_equal(a, b)
    assert [m["mean_loss"] for m in with_retrieval.metrics] == [
        m["mean_loss"] for m in without.metrics
    ]


def test_train_ignores_a_disabled_database_it_is_given(lexicon, monkeypatch):
    corpus, vocabs, params, db_q, db_v, _, _ = _training_setup(lexicon)
    config = TrainConfig(epochs=2, learning_rate=0.1)
    dq_only = AggregationConfig(k_q=2, k_v=2, use_dv=False)
    without_dv = train(corpus, db_q, None, params.copy(), vocabs, lexicon, config, dq_only)

    encoded = []
    real_encode_index = ragtrain.encode_index

    def recording_encode_index(db, *args):
        encoded.append(db.modality)
        return real_encode_index(db, *args)

    monkeypatch.setattr(ragtrain, "encode_index", recording_encode_index)
    given_dv = train(corpus, db_q, db_v, params.copy(), vocabs, lexicon, config, dq_only)
    assert encoded == [Modality.LINGUISTIC, Modality.LINGUISTIC]
    for a, b in zip(given_dv.params.arrays(), without_dv.params.arrays()):
        assert np.array_equal(a, b)
    assert given_dv.metrics == without_dv.metrics


def _count_calls(monkeypatch, functions):
    """Swap each function for a counting wrapper at every ragvqa module
    binding that holds it; returns the live name -> call count map."""
    calls = dict.fromkeys((f.__name__ for f in functions), 0)
    modules = [m for name, m in sys.modules.items() if name.startswith("ragvqa") and m]
    for function in functions:

        def counting(*args, _function=function, **kwargs):
            calls[_function.__name__] += 1
            return _function(*args, **kwargs)

        for module in modules:
            for attr, value in list(vars(module).items()):
                if value is function:
                    monkeypatch.setattr(module, attr, counting)
    return calls


@pytest.mark.parametrize("retrieval", [False, True])
def test_train_encodes_each_step_once(lexicon, monkeypatch, retrieval):
    corpus, vocabs, params, db_q, db_v, _, _ = _training_setup(lexicon)
    agg = AggregationConfig(k_q=2, k_v=2, refresh_every=2) if retrieval else None
    epochs, snapshots = 3, 2 if retrieval else 0
    calls = _count_calls(monkeypatch, (encode_question, encode_image, extract_linguistic))
    train(
        corpus, db_q, db_v, params, vocabs, lexicon,
        TrainConfig(epochs=epochs, learning_rate=0.1), agg,
    )

    def distinct(db, unit):
        """How many distinct encoder inputs the database's contexts name."""
        return len({unit(*context) for contexts in db.entries.values() for context in contexts})

    questions = {s.question.id: s.question.text for s in corpus.samples}
    graphs = corpus.scene_graphs()
    steps = epochs * len(corpus.samples)
    # a snapshot encodes each distinct question once, and each distinct object
    # of a context once, one object per encode_image call
    assert calls == {
        "encode_question": steps + snapshots * distinct(db_q, lambda q, _: questions[q]),
        "encode_image": steps + snapshots * distinct(
            db_v, lambda image, ordinal: scene_object_ids(vocabs, graphs[image])[ordinal]
        ),
        "extract_linguistic": len(corpus.samples) if retrieval else 0,
    }


def test_train_learning_progress(lexicon, small_pair):
    train_corpus, _ = small_pair
    subset = make_corpus(list(train_corpus.samples[:50]))
    vocabs = build_vocabularies(subset)
    params = init_params(len(vocabs.words), len(vocabs.labels), len(vocabs.answers), 8, 8, 0)
    result = train(
        subset, None, None, params, vocabs, lexicon,
        TrainConfig(epochs=20, learning_rate=0.1), None,
    )
    assert result.metrics[-1]["mean_loss"] < result.metrics[0]["mean_loss"]


# per-epoch mean losses of the run below, taken from the code before index
# encoding and evaluation were deduplicated
_PINNED_LOSSES = {
    "plain": [
        2.1469991745828363, 2.033942684092351, 2.015149738826307,
        2.0076172465731603, 2.003236711246884,
    ],
    "retrieval": [
        2.1471965643392226, 2.0339264406094055, 2.0149755680103643,
        2.0072179460045425, 2.0024051007628945,
    ],
}


@pytest.mark.parametrize("arm", sorted(_PINNED_LOSSES))
def test_training_numbers_are_pinned(lexicon, small_pair, arm):
    """Training still produces the same numbers: ``small_pair``, seed 0, five
    epochs, ``d = d_h = 8``, plain and at the gqa preset's weights.

    A pinned value changes only together with a CHANGES.md entry that says
    why the numerics moved."""
    train_corpus, _ = small_pair
    vocabs = build_vocabularies(train_corpus)
    params = init_params(len(vocabs.words), len(vocabs.labels), len(vocabs.answers), 8, 8, 0)
    db_q = db_v = agg = None
    if arm == "retrieval":
        gqa = PRESETS["gqa"]
        db_q = build_dq(train_corpus, gqa["t_q"], 0, lexicon)
        db_v = build_dv(train_corpus, gqa["t_v"], 0)
        agg = AggregationConfig(w_q=gqa["w_q"], w_v=gqa["w_v"], k_q=gqa["k_q"], k_v=gqa["k_v"])
    result = train(
        train_corpus, db_q, db_v, params, vocabs, lexicon,
        TrainConfig(epochs=5, learning_rate=0.05, seed=0), agg,
    )
    losses = [entry["mean_loss"] for entry in result.metrics]
    assert losses == pytest.approx(_PINNED_LOSSES[arm], rel=1e-9, abs=0.0)


_GQA = PRESETS["gqa"]
_PRESET = AggregationConfig(w_q=_GQA["w_q"], w_v=_GQA["w_v"], k_q=_GQA["k_q"], k_v=_GQA["k_v"])
_ARMS = {
    "plain": None,
    "weighted_feature": _PRESET,
    "scalar_broadcast": replace(_PRESET, mode="scalar_broadcast"),
    "dq_only": replace(_PRESET, use_dv=False),
    "dv_only": replace(_PRESET, use_dq=False),
}


@pytest.mark.parametrize("arm", list(_ARMS))
def test_train_matches_reference(lexicon, small_pair, arm):
    """``train`` computes the paper's algorithm as ``tests/reference.py``
    states it in plain Python: the first 100 ``small_pair`` samples, two
    epochs (so one index refresh), ``d = d_h = 8``, the gqa preset's
    weights and depths. Every epoch's mean loss and every final parameter
    agree to 1e-9 relative; the two differ only in summation order."""
    corpus = make_corpus(list(small_pair[0].samples[:100]))
    vocabs = build_vocabularies(corpus)
    params = init_params(len(vocabs.words), len(vocabs.labels), len(vocabs.answers), 8, 8, 0)
    db_q = build_dq(corpus, _GQA["t_q"], 0, lexicon)
    db_v = build_dv(corpus, _GQA["t_v"], 0)
    agg = _ARMS[arm]
    result = train(
        corpus, db_q, db_v, params, vocabs, lexicon,
        TrainConfig(epochs=2, learning_rate=0.05), agg,
    )
    losses, flat = reference_train(
        corpus,
        db_q if agg is not None and agg.use_dq else None,
        db_v if agg is not None and agg.use_dv else None,
        params, vocabs, lexicon, 2, 0.05, agg,
    )
    assert [entry["mean_loss"] for entry in result.metrics] == pytest.approx(
        losses, rel=1e-9, abs=0.0
    )
    assert result.params.flat == pytest.approx(flat, rel=1e-9, abs=0.0)


def test_train_deterministic(lexicon):
    corpus, vocabs, params, db_q, db_v, _, _ = _training_setup(lexicon)
    config = TrainConfig(epochs=2, learning_rate=0.1)
    agg = AggregationConfig(k_q=2, k_v=2)
    a = train(corpus, db_q, db_v, params.copy(), vocabs, lexicon, config, agg)
    b = train(corpus, db_q, db_v, params.copy(), vocabs, lexicon, config, agg)
    for x, y in zip(a.params.arrays(), b.params.arrays()):
        assert np.array_equal(x, y)


@pytest.mark.parametrize("retrieval", [False, True])
def test_train_leaves_the_callers_params_unchanged(lexicon, retrieval):
    corpus, vocabs, params, db_q, db_v, _, _ = _training_setup(lexicon)
    before = params.flat.tobytes()
    agg = AggregationConfig(k_q=2, k_v=2) if retrieval else None
    config = TrainConfig(epochs=2, learning_rate=0.1)
    first = train(corpus, db_q, db_v, params, vocabs, lexicon, config, agg)
    assert params.flat.tobytes() == before
    assert not np.shares_memory(first.params.flat, params.flat)
    second = train(corpus, db_q, db_v, params, vocabs, lexicon, config, agg)
    assert second.params.flat.tobytes() == first.params.flat.tobytes()
    assert second.metrics == first.metrics


def test_train_refresh_moves_index_vectors(lexicon):
    corpus, vocabs, params, db_q, _, _, _ = _training_setup(lexicon)
    before = encode_index(db_q, params, vocabs, corpus, 1)
    result = train(
        corpus, None, None, params.copy(), vocabs, lexicon,
        TrainConfig(epochs=1, learning_rate=0.1), None,
    )
    after = encode_index(db_q, result.params, vocabs, corpus, 2)
    assert before.records == after.records
    assert not np.allclose(before.vectors, after.vectors)


def test_train_refresh_cadence_recorded(lexicon):
    corpus, vocabs, params, db_q, db_v, _, _ = _training_setup(lexicon)
    agg = AggregationConfig(k_q=2, k_v=2, refresh_every=2)
    result = train(
        corpus, db_q, db_v, params, vocabs, lexicon,
        TrainConfig(epochs=4, learning_rate=0.1), agg,
    )
    assert [m["snapshot_version"] for m in result.metrics] == [1, 1, 2, 2]


def test_train_divergence_aborts_with_step(lexicon):
    corpus, vocabs, params, _, _, _, _ = _training_setup(lexicon)
    with np.errstate(all="ignore"), pytest.raises(TrainingDiverged, match="step"):
        train(
            corpus, None, None, params, vocabs, lexicon,
            TrainConfig(epochs=1, learning_rate=1e305), None,
        )


def test_train_with_retrieval_divergence_aborts_with_step(lexicon):
    corpus, vocabs, params, db_q, db_v, _, _ = _training_setup(lexicon)
    with np.errstate(all="ignore"), pytest.raises(TrainingDiverged, match="step"):
        train(
            corpus, db_q, db_v, params, vocabs, lexicon,
            TrainConfig(epochs=1, learning_rate=1e305), AggregationConfig(k_q=2, k_v=2),
        )


def test_train_overflowing_update_aborts_with_step(lexicon):
    corpus, vocabs, params, _, _, _, _ = _training_setup(lexicon)
    # finite logits, but the first step's b2 update overflows to inf
    params.b2 = np.full(params.b2.shape, 1.5e308)
    with np.errstate(over="ignore"), pytest.raises(
        TrainingDiverged, match="non-finite update at step 1:"
    ):
        train(
            corpus, None, None, params, vocabs, lexicon,
            TrainConfig(epochs=1, learning_rate=1e308), None,
        )


def test_train_config_validation():
    with pytest.raises(ValueError):
        TrainConfig(epochs=0)
    with pytest.raises(ValueError):
        TrainConfig(learning_rate=0.0)
