import sys

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from ragvqa import ragtrain
from ragvqa.model import (
    build_vocabularies,
    encode_image,
    encode_question,
    init_params,
    question_token_ids,
    scene_object_ids,
)
from ragvqa.primdb import (
    FeatureIndex,
    IndexRecord,
    RetrievalError,
    RetrievalResult,
    RetrievedItem,
    build_dq,
    build_dv,
    encode_index,
    retrieve,
)
from ragvqa.primitives import Modality, PartOfSpeech, Primitive, extract_linguistic
from ragvqa.ragtrain import (
    AggregationConfig,
    TrainConfig,
    TrainingDiverged,
    aggregate,
    augment_sample,
    train,
)

from conftest import make_corpus, make_sample

DOG_L = Primitive("dog", Modality.LINGUISTIC, PartOfSpeech.NOUN)


def _result(*vectors):
    items = tuple(
        RetrievedItem(
            vector=np.asarray(v, dtype=float),
            similarity=0.0,
            record=IndexRecord(DOG_L, f"s{i}", 0, i),
        )
        for i, v in enumerate(vectors)
    )
    return RetrievalResult(items=items)


# -- aggregate -------------------------------------------------------------------


def test_aggregate_zero_weights_identity():
    p = np.array([0.3, -0.8])
    config = AggregationConfig(w_q=0.0, w_v=0.0, k_q=1, k_v=1)
    out = aggregate(p, _result((1.0, 0.0)), _result((0.0, 1.0)), config)
    assert np.array_equal(out, p)
    assert out is not p  # a copy, never the same buffer


def test_aggregate_weighted_feature_hand_example():
    p = np.array([1.0, 0.0])
    config = AggregationConfig(w_q=0.6, w_v=0.4, k_q=1, k_v=1, mode="weighted_feature")
    out = aggregate(p, _result((0.0, 1.0)), _result((1.0, 0.0)), config)
    assert np.allclose(out, [1.4, 0.0], atol=1e-15)


def test_aggregate_scalar_broadcast_hand_example():
    p = np.array([1.0, 0.0])
    config = AggregationConfig(w_q=0.6, w_v=0.4, k_q=1, k_v=1, mode="scalar_broadcast")
    out = aggregate(p, _result((0.0, 1.0)), _result((1.0, 0.0)), config)
    assert np.allclose(out, [1.4, 0.4], atol=1e-15)


def test_aggregate_empty_results_contribute_zero():
    p = np.array([0.5, 0.5])
    config = AggregationConfig(w_q=0.6, w_v=0.4, k_q=2, k_v=2)
    assert np.array_equal(aggregate(p, _result(), None, config), p)


def test_aggregate_disabled_database_contributes_zero():
    p = np.array([1.0, 0.0])
    config = AggregationConfig(w_q=0.6, w_v=0.4, k_q=1, k_v=1)
    out = aggregate(p, None, _result((1.0, 0.0)), config)
    assert np.allclose(out, [1.4, 0.0], atol=1e-15)  # only the D_v term


def test_aggregate_truncates_to_depth():
    p = np.array([1.0, 0.0])
    config = AggregationConfig(w_q=1.0, w_v=0.0, k_q=1, k_v=1)
    # second hit would change the result if k_q were not honored
    out = aggregate(p, _result((1.0, 0.0), (1.0, 0.0)), None, config)
    assert np.allclose(out, [2.0, 0.0], atol=1e-15)


def test_aggregate_dimension_mismatch():
    config = AggregationConfig(k_q=1, k_v=1)
    with pytest.raises(ValueError):
        aggregate(np.ones(3), _result((1.0, 0.0)), None, config)


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
def test_aggregate_rejects_non_finite_feature(bad):
    config = AggregationConfig(k_q=1, k_v=1)
    with pytest.raises(RetrievalError, match="non-finite"):
        aggregate(np.array([bad, 1.0, 1.0]), _result((1.0, 0.0, 0.0)), None, config)


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
    r_q = _result(*rng.standard_normal((3, d)))
    r_v = _result(*rng.standard_normal((2, d)))
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
    got = aggregate(p, _result(*rows_q), _result(*rows_v), config)
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
    """Each delta equals ``aggregate(p, retrieve(p, D_q), retrieve(p, D_v)) - p``
    for that primitive alone, its own sources excluded."""
    corpus = small_pair[0]
    vocabs = build_vocabularies(corpus)
    params = init_params(len(vocabs.words), len(vocabs.labels), len(vocabs.answers), 6, 6, 3)
    index_q = encode_index(build_dq(corpus, 8, 0, lexicon), params, vocabs, corpus, 1) if use_dq else None
    index_v = encode_index(build_dv(corpus, 32, 0), params, vocabs, corpus, 1) if use_dv else None
    config = AggregationConfig(k_q=3, k_v=5, mode=mode)

    for sample in corpus.samples[:40]:
        qid, image_id = sample.question.id, sample.scene_graph.image_id

        def reference(p):
            r_q = retrieve(p, index_q, config.k_q, qid) if index_q else None
            r_v = retrieve(p, index_v, config.k_v, image_id) if index_v else None
            return aggregate(p, r_q, r_v, config) - p

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
    # a primitive whose only database context is this very sample must
    # retrieve nothing of itself: check via a single-entry index
    from ragvqa.primdb import retrieve

    query = encode_question(params, question_token_ids(vocabs, sample.question.text))[2]
    result = retrieve(query, index_q, k=index_q.size, exclude_source=sample.question.id)
    assert all(item.record.source_id != sample.question.id for item in result.items)


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

    def distinct_sources(db):
        return len({source for contexts in db.entries.values() for source, _ in contexts})

    steps = epochs * len(corpus.samples)
    assert calls == {
        "encode_question": steps + snapshots * distinct_sources(db_q),
        "encode_image": steps + snapshots * distinct_sources(db_v),
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
