import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from ragvqa.model import build_vocabularies, init_params
from ragvqa.primdb import (
    FeatureIndex,
    IndexRecord,
    RetrievalError,
    build_dq,
    build_dv,
    cosine,
    encode_index,
    retrieve,
)
from ragvqa.primitives import (
    Modality,
    PartOfSpeech,
    Primitive,
    extract_linguistic,
    extract_visual,
)

from conftest import make_corpus, make_sample


def _corpus():
    return make_corpus(
        [
            make_sample("Is the dog black?", [("dog", {"black"})], "no", "q1", "i1"),
            make_sample("Is the dog white?", [("dog", {"white"})], "yes", "q2", "i2"),
            make_sample("How many dogs are there?", [("dog", set()), ("cat", set())], "1", "q3", "i3"),
            make_sample("Is the cat white?", [("cat", {"white"})], "yes", "q4", "i4"),
        ]
    )


DOG_L = Primitive("dog", Modality.LINGUISTIC, PartOfSpeech.NOUN)
DOG_V = Primitive("dog", Modality.VISUAL)


# -- database construction -------------------------------------------------------


def test_build_dq_caps_at_available(lexicon):
    db = build_dq(_corpus(), t_q=8, seed=0, lexicon=lexicon)
    assert len(db.entries[DOG_L]) == 3  # q1, q2, q3
    assert db.cap == 8


def test_build_dq_respects_cap(lexicon):
    db = build_dq(_corpus(), t_q=2, seed=0, lexicon=lexicon)
    assert len(db.entries[DOG_L]) == 2
    assert all(len(v) <= 2 for v in db.entries.values())


def test_build_dq_deterministic(lexicon):
    a = build_dq(_corpus(), t_q=1, seed=5, lexicon=lexicon)
    b = build_dq(_corpus(), t_q=1, seed=5, lexicon=lexicon)
    assert a.entries == b.entries


def test_build_dq_first_occurrence_position(lexicon):
    corpus = make_corpus([make_sample("dog or dog?", [("dog", set())], "yes", "q1", "i1")])
    db = build_dq(corpus, t_q=4, seed=0, lexicon=lexicon)
    assert db.entries[DOG_L] == (("q1", 0),)


def test_build_dq_invalid_cap(lexicon):
    with pytest.raises(ValueError):
        build_dq(_corpus(), t_q=0, seed=0, lexicon=lexicon)


def test_build_dv_single_image_label():
    db = build_dv(_corpus(), t_v=32, seed=0)
    assert len(db.entries[Primitive("black", Modality.VISUAL)]) == 1
    assert db.cap == 32


def test_build_dv_absent_label_absent():
    db = build_dv(_corpus(), t_v=32, seed=0)
    assert Primitive("zebra", Modality.VISUAL) not in db.entries


def test_build_dv_lowest_matching_ordinal():
    corpus = make_corpus(
        [make_sample("x?", [("cat", set()), ("dog", set()), ("dog", set())], "2", "q1", "i1")]
    )
    db = build_dv(corpus, t_v=4, seed=0)
    assert db.entries[DOG_V] == (("i1", 1),)


def test_db_well_formedness_small(lexicon):
    corpus = _corpus()
    questions = {s.question.id: s.question for s in corpus.samples}
    graphs = corpus.scene_graphs()
    db_q = build_dq(corpus, t_q=8, seed=0, lexicon=lexicon)
    for primitive, sources in db_q.entries.items():
        for qid, position in sources:
            _, occs = extract_linguistic(questions[qid], lexicon)
            assert any(o.position == position and o.primitive == primitive for o in occs)
    db_v = build_dv(corpus, t_v=8, seed=0)
    for primitive, sources in db_v.entries.items():
        for image_id, ordinal in sources:
            obj = graphs[image_id].objects[ordinal]
            assert primitive.name in {obj.category} | set(obj.attributes)


# -- encode_index ------------------------------------------------------------------


def _encoded(lexicon, seed=0):
    corpus = _corpus()
    vocabs = build_vocabularies(corpus)
    params = init_params(len(vocabs.words), len(vocabs.labels), len(vocabs.answers), 4, 4, seed)
    db = build_dq(corpus, t_q=8, seed=0, lexicon=lexicon)
    return corpus, vocabs, params, db


def test_encode_index_cardinality(lexicon):
    corpus, vocabs, params, db = _encoded(lexicon)
    n_entries = sum(len(v) for v in db.entries.values())
    index = encode_index(db, params, vocabs, corpus, snapshot_version=1)
    assert index.size == n_entries
    assert index.snapshot_version == 1
    assert list(index.ordinals) == list(range(n_entries))


def test_encode_index_reencode_moves_vectors_not_provenance(lexicon):
    corpus, vocabs, params, db = _encoded(lexicon)
    index1 = encode_index(db, params, vocabs, corpus, 1)
    params2 = init_params(len(vocabs.words), len(vocabs.labels), len(vocabs.answers), 4, 4, 7)
    index2 = encode_index(db, params2, vocabs, corpus, 2)
    assert index1.records == index2.records
    assert not np.allclose(index1.vectors, index2.vectors)


def test_encode_index_zero_params_zero_vectors(lexicon):
    corpus, vocabs, params, db = _encoded(lexicon)
    index = encode_index(db, params.zeros_like(), vocabs, corpus, 1)
    assert np.array_equal(index.vectors, np.zeros_like(index.vectors))


def test_encode_index_dangling_source(lexicon):
    corpus, vocabs, params, db = _encoded(lexicon)
    bad = dict(db.entries)
    bad[DOG_L] = (("q_nowhere", 0),)
    from ragvqa.primdb import LinguisticDB

    with pytest.raises(RetrievalError, match="q_nowhere"):
        encode_index(LinguisticDB(bad, db.cap), params, vocabs, corpus, 1)


def test_index_vectors_immutable(lexicon):
    corpus, vocabs, params, db = _encoded(lexicon)
    index = encode_index(db, params, vocabs, corpus, 1)
    with pytest.raises(ValueError):
        index.vectors[0, 0] = 99.0


# -- cosine -------------------------------------------------------------------


def test_cosine_self():
    v = np.array([0.3, -0.7, 2.0])
    assert cosine(v, v) == pytest.approx(1.0, abs=1e-12)


def test_cosine_orthogonal():
    assert cosine(np.array([1.0, 0.0]), np.array([0.0, 1.0])) == 0.0


def test_cosine_analytic():
    assert cosine(np.array([1.0, 1.0]), np.array([1.0, 0.0])) == pytest.approx(
        1 / np.sqrt(2), abs=1e-12
    )


def test_cosine_norm_floor():
    assert cosine(np.zeros(3), np.ones(3)) == 0.0
    assert cosine(np.full(3, 1e-13), np.ones(3)) == 0.0


def test_cosine_dimension_mismatch():
    with pytest.raises(RetrievalError):
        cosine(np.ones(2), np.ones(3))


# -- retrieve -------------------------------------------------------------------


def _random_index(rng, n, d, n_sources=None):
    vectors = rng.standard_normal((n, d))
    records = tuple(
        IndexRecord(DOG_L, f"s{i % (n_sources or n)}", 0, i) for i in range(n)
    )
    return FeatureIndex(vectors, records, snapshot_version=1)


def _oracle(index, query, k, exclude=None):
    """Exhaustive-scan reference: per-record cosine, sort, truncate."""
    scored = []
    q_norm = np.linalg.norm(query)
    for i, record in enumerate(index.records):
        if exclude is not None and record.source_id == exclude:
            continue
        norm = index.norms[i]
        if q_norm < 1e-12 or norm < 1e-12:
            sim = 0.0
        else:
            sim = float(np.clip(index.vectors[i] @ query / (norm * q_norm), -1.0, 1.0))
        scored.append((sim, record))
    scored.sort(key=lambda item: (-item[0], item[1].ordinal))
    return scored[:k]


def test_retrieve_exact_match_first():
    rng = np.random.default_rng(0)
    index = _random_index(rng, 10, 4)
    query = index.vectors[6].copy()
    result = retrieve(query, index, k=3)
    assert result.items[0].record.ordinal == 6
    assert result.items[0].similarity == pytest.approx(1.0, abs=1e-12)


def test_retrieve_matches_oracle_small():
    rng = np.random.default_rng(1)
    index = _random_index(rng, 3, 4)
    query = rng.standard_normal(4)
    result = retrieve(query, index, k=2)
    expected = _oracle(index, query, 2)
    assert [item.record for item in result.items] == [r for _, r in expected]


def test_retrieve_k_larger_than_index():
    rng = np.random.default_rng(2)
    index = _random_index(rng, 3, 4)
    result = retrieve(rng.standard_normal(4), index, k=10)
    assert len(result) == 3
    sims = [item.similarity for item in result.items]
    assert sims == sorted(sims, reverse=True)


def test_retrieve_similarities_bounded():
    rng = np.random.default_rng(3)
    index = _random_index(rng, 50, 6)
    result = retrieve(rng.standard_normal(6) * 1e6, index, k=50)
    for item in result.items:
        assert -1.0 <= item.similarity <= 1.0


def test_retrieve_tie_break_by_ordinal():
    vectors = np.array([[1.0, 0.0], [2.0, 0.0], [3.0, 0.0]])  # identical directions
    records = tuple(IndexRecord(DOG_L, f"s{i}", 0, i) for i in range(3))
    index = FeatureIndex(vectors, records, 1)
    result = retrieve(np.array([1.0, 0.0]), index, k=3)
    assert [item.record.ordinal for item in result.items] == [0, 1, 2]


def test_retrieve_excludes_source():
    rng = np.random.default_rng(4)
    index = _random_index(rng, 8, 4)
    query = index.vectors[5].copy()
    result = retrieve(query, index, k=8, exclude_source="s5")
    assert all(item.record.source_id != "s5" for item in result.items)
    assert len(result) == 7


def test_retrieve_empty_index_warns(caplog):
    index = FeatureIndex(np.empty((0, 4)), (), 1)
    with caplog.at_level("WARNING"):
        result = retrieve(np.ones(4), index, k=2)
    assert result.items == ()
    assert any("empty index" in rec.message for rec in caplog.records)


def test_retrieve_zero_query_all_zero_similarity():
    rng = np.random.default_rng(5)
    index = _random_index(rng, 5, 4)
    result = retrieve(np.zeros(4), index, k=5)
    assert all(item.similarity == 0.0 for item in result.items)
    # ties on zero similarity resolve by insertion ordinal
    assert [item.record.ordinal for item in result.items] == [0, 1, 2, 3, 4]


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
def test_retrieve_rejects_non_finite_query(bad):
    rng = np.random.default_rng(7)
    index = _random_index(rng, 5, 4)
    query = rng.standard_normal(4)
    query[2] = bad
    with pytest.raises(RetrievalError, match="non-finite"):
        retrieve(query, index, k=3)


def test_retrieve_dimension_mismatch():
    rng = np.random.default_rng(6)
    index = _random_index(rng, 5, 4)
    with pytest.raises(RetrievalError):
        retrieve(np.ones(3), index, k=2)
    with pytest.raises(ValueError):
        retrieve(np.ones(4), index, k=0)


@settings(max_examples=100, deadline=None)
@given(
    st.integers(0, 2**31 - 1),
    st.integers(min_value=1, max_value=40),
    st.integers(min_value=1, max_value=12),
)
def test_retrieve_matches_oracle_property(seed, n, k):
    rng = np.random.default_rng(seed)
    index = _random_index(rng, n, 4, n_sources=max(1, n // 2))
    query = rng.standard_normal(4)
    exclude = f"s{rng.integers(0, max(1, n // 2))}" if n > 2 else None
    result = retrieve(query, index, k=k, exclude_source=exclude)
    expected = _oracle(index, query, k, exclude=exclude)
    assert [item.record for item in result.items] == [r for _, r in expected]
    assert np.allclose(
        [item.similarity for item in result.items], [s for s, _ in expected], atol=1e-12
    )

