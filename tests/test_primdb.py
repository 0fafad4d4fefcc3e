import dataclasses
import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from ragvqa.model import (
    build_vocabularies,
    encode_image,
    encode_question,
    init_params,
    question_token_ids,
    scene_object_ids,
)
from ragvqa.primdb import (
    NORM_FLOOR,
    FeatureIndex,
    IndexRecord,
    RetrievalError,
    build_dq,
    build_dv,
    cosine,
    cosines,
    encode_index,
    retrieve,
    search,
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
    assert [r.ordinal for r in index.records] == list(range(n_entries))


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
    with pytest.raises(RetrievalError, match="q_nowhere"):
        encode_index(dataclasses.replace(db, entries=bad), params, vocabs, corpus, 1)


@pytest.mark.parametrize("modality", ["linguistic", "visual"])
def test_encode_index_position_out_of_range(lexicon, modality):
    corpus, vocabs, params, _ = _encoded(lexicon)
    sample = corpus.samples[0]
    if modality == "linguistic":
        db = build_dq(corpus, t_q=8, seed=0, lexicon=lexicon)
        source, length = sample.question.id, len(question_token_ids(vocabs, sample.question.text))
    else:
        db = build_dv(corpus, t_v=8, seed=0)
        source, length = sample.scene_graph.image_id, len(sample.scene_graph.objects)
    primitive = next(iter(db.entries))
    entries = {**db.entries, primitive: ((source, length - 1), (source, length))}
    with pytest.raises(RetrievalError, match=f"position {length} out of range for source {source!r}"):
        encode_index(dataclasses.replace(db, entries=entries), params, vocabs, corpus, 1)


def _per_source_index_vectors(db, params, vocabs, corpus):
    """The per-source rule: encode each context's whole source, take its row."""
    questions = {s.question.id: s.question for s in corpus.samples}
    graphs = corpus.scene_graphs()
    rows = []
    for contexts in db.entries.values():
        for source_id, position in contexts:
            if db.modality is Modality.LINGUISTIC:
                ids = question_token_ids(vocabs, questions[source_id].text)
                rows.append(encode_question(params, ids)[position])
            else:
                objects = scene_object_ids(vocabs, graphs[source_id])
                rows.append(encode_image(params, objects)[position])
    return np.array(rows)


@pytest.mark.parametrize("params_seed", [0, 3])
def test_encode_index_equals_the_per_source_rule(lexicon, small_pair, params_seed):
    """Encoding each distinct question and object once gives the same bits as
    encoding every context's source on its own."""
    train_c, _ = small_pair
    vocabs = build_vocabularies(train_c)
    params = init_params(
        len(vocabs.words), len(vocabs.labels), len(vocabs.answers), 8, 8, params_seed
    )
    for db in (build_dq(train_c, 8, 0, lexicon), build_dv(train_c, 32, 0)):
        index = encode_index(db, params, vocabs, train_c, 1)
        assert np.array_equal(index.vectors, _per_source_index_vectors(db, params, vocabs, train_c))


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


def _reference_cosines(queries, rows, row_norms=None):
    """The cosine body written with ``np.linalg.norm``, ``np.where`` and
    ``np.clip``."""
    if row_norms is None:
        row_norms = np.linalg.norm(rows, axis=1)
    q_norms = np.linalg.norm(queries, axis=-1)[..., np.newaxis]
    valid = (q_norms >= NORM_FLOOR) & (row_norms >= NORM_FLOOR)
    sims = np.where(valid, (queries @ rows.T) / np.where(valid, q_norms * row_norms, 1.0), 0.0)
    return np.clip(sims, -1.0, 1.0)


def test_cosines_clips_above_one():
    """This vector's self-similarity rounds to just above 1 before the clip."""
    v = np.array([0.1, 0.7])
    assert v @ v / (np.linalg.norm(v) * np.linalg.norm(v)) > 1.0
    assert cosines(v, v[np.newaxis])[0] == 1.0
    assert cosines(-v, v[np.newaxis])[0] == -1.0


@settings(max_examples=200, deadline=None)
@given(
    st.integers(0, 2**31 - 1),
    st.integers(min_value=0, max_value=6),
    st.integers(min_value=1, max_value=8),
    st.integers(min_value=1, max_value=5),
    st.booleans(),
)
def test_cosines_matches_reference_bit_for_bit(seed, n_queries, n_rows, d, pass_norms):
    """Vector (``n_queries == 0``) and matrix queries; rows and queries of
    norm 0 or below NORM_FLOOR; rows that are queries scaled by a positive
    or negative factor, so similarities round to just above 1 or below -1."""
    rng = np.random.default_rng(seed)
    queries = rng.standard_normal((max(n_queries, 1), d))
    rows = rng.standard_normal((n_rows, d))
    for matrix, n in ((queries, len(queries)), (rows, n_rows)):
        matrix[rng.random(n) < 0.2] = 0.0
        matrix[rng.random(n) < 0.2] *= 1e-13
    copies = rng.random(n_rows) < 0.4
    rows[copies] = queries[rng.integers(0, len(queries), copies.sum())] * rng.choice(
        [-3.0, -1.0, 0.5, 7.0], (copies.sum(), 1)
    )
    if n_queries == 0:
        queries = queries[0]
    norms = np.linalg.norm(rows, axis=1) if pass_norms else None
    got = cosines(queries, rows, norms)
    expected = _reference_cosines(queries, rows, norms)
    assert got.shape == expected.shape
    assert np.array_equal(got, expected)
    assert np.array_equal(np.signbit(got), np.signbit(expected))


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
        norm = np.linalg.norm(index.vectors[i])
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


@settings(max_examples=200, deadline=None)
@given(
    st.integers(0, 2**31 - 1),
    st.integers(min_value=0, max_value=40),
    st.integers(min_value=1, max_value=12),
    st.integers(min_value=1, max_value=6),
    st.booleans(),
)
def test_retrieve_matches_oracle_property(seed, n, k, pool_size, one_source):
    """Rows drawn from a small pool, some of them zero, so duplicate rows
    occur; K may exceed the index; with one source, excluding it leaves
    no candidate."""
    rng = np.random.default_rng(seed)
    pool = rng.standard_normal((pool_size, 4))
    pool[rng.random(pool_size) < 0.2] = 0.0
    n_sources = 1 if one_source else max(1, n // 2)
    records = tuple(IndexRecord(DOG_L, f"s{i % n_sources}", 0, i) for i in range(n))
    index = FeatureIndex(pool[rng.integers(0, pool_size, n)], records, snapshot_version=1)
    query = pool[rng.integers(0, pool_size)] if rng.random() < 0.5 else rng.standard_normal(4)
    exclude = f"s{rng.integers(0, n_sources)}" if rng.random() < 0.7 else None
    result = retrieve(query, index, k=k, exclude_source=exclude)
    expected = _oracle(index, query, k, exclude=exclude)
    assert [item.record for item in result.items] == [r for _, r in expected]
    assert np.allclose(
        [item.similarity for item in result.items], [s for s, _ in expected], atol=1e-12
    )
    if one_source and exclude is not None:
        assert result.items == ()


def test_feature_index_rejects_non_finite_row():
    vectors = np.array([[1.0, 0.0], [np.nan, 1.0], [0.0, 1.0], [1.0, 1.0]])
    records = tuple(IndexRecord(DOG_L, f"s{i}", 0, i) for i in range(4))
    with pytest.raises(RetrievalError, match=r"non-finite vector in row 1 \(source 's1'\)"):
        FeatureIndex(vectors, records, snapshot_version=1)


@settings(max_examples=100, deadline=None)
@given(
    st.integers(0, 2**31 - 1),
    st.integers(min_value=1, max_value=12),
    st.sampled_from([np.nan, np.inf, -np.inf]),
    st.integers(min_value=1, max_value=2),
)
def test_feature_index_rejects_non_finite_rows_property(seed, n, bad, n_bad):
    """NaN, +inf or -inf injected into one or two random rows: the index
    is rejected at build time, naming the first such row and its source."""
    rng = np.random.default_rng(seed)
    vectors = rng.standard_normal((n, 3))
    bad_rows = rng.integers(0, n, n_bad)
    vectors[bad_rows, rng.integers(0, 3, n_bad)] = bad
    records = tuple(IndexRecord(DOG_L, f"s{i % 3}", 0, i) for i in range(n))
    first = bad_rows.min()
    with pytest.raises(
        RetrievalError, match=rf"non-finite vector in row {first} \(source 's{first % 3}'\)"
    ):
        FeatureIndex(vectors, records, snapshot_version=1)


def _row_space_search(queries, index, k, exclude):
    """Top-K in row space: every candidate row gets its distinct vector's
    score, one partition per query finds the K-th best row score, every row
    at or above it is sorted by (query, -sim, ordinal) and each query keeps
    its first min(K, candidates)."""
    n = queries.shape[0]
    unique, row_unique = np.unique(index.vectors, axis=0, return_inverse=True)
    candidates = np.flatnonzero([record.source_id != exclude for record in index.records])
    unique_sims = _reference_cosines(queries, unique, np.linalg.norm(unique, axis=1))
    sims = unique_sims[:, row_unique.reshape(-1)[candidates]]
    m = min(k, candidates.size)
    kth = -np.partition(-sims, m - 1, axis=1)[:, m - 1 : m] if m < candidates.size else -np.inf
    query_row, column = np.nonzero(~(sims < kth))
    row_sims = sims[query_row, column]
    order = np.lexsort((column, -row_sims, query_row))
    counts = np.bincount(query_row, minlength=n)
    firsts = np.cumsum(counts) - counts
    keep = order[(firsts[:, np.newaxis] + np.arange(m)).reshape(-1)]
    return candidates[column[keep]].reshape(n, m), row_sims[keep].reshape(n, m)


@settings(max_examples=300, deadline=None)
@given(
    st.integers(0, 2**31 - 1),
    st.integers(min_value=1, max_value=30),
    st.integers(min_value=1, max_value=6),
    st.integers(min_value=1, max_value=5),
    st.integers(min_value=1, max_value=6),
    st.sampled_from(["live", "candidates", "free"]),
    st.integers(min_value=-1, max_value=1),
    st.booleans(),
)
def test_search_matches_row_space_reference(
    seed, n_rows, pool_size, n_sources, n_queries, k_base, k_offset, exclude_owner
):
    """Query matrices against indices whose rows come from a small pool:
    zero rows, duplicates, and copies scaled by powers of two, which tie
    exactly with their original. Pool vector 0 is held by source s0 alone,
    so excluding s0 removes every row of a distinct vector. K is drawn
    below, at or above the number of live distinct vectors or of candidate
    rows. Rows and similarities equal the row-space kernel bit for bit, and
    each query row equals its one-query ``retrieve``: the same rows, the
    similarities within 1e-12."""
    rng = np.random.default_rng(seed)
    pool = rng.standard_normal((pool_size, 4))
    pool[rng.random(pool_size) < 0.2] = 0.0
    scaled = rng.random(pool_size) < 0.3
    factors = rng.choice([0.5, 2.0, 4.0], (scaled.sum(), 1))
    pool[scaled] = pool[rng.integers(0, pool_size, scaled.sum())] * factors
    members = rng.integers(0, pool_size, n_rows)
    sources = np.where(members == 0, 0, rng.integers(0, n_sources, n_rows))
    records = tuple(IndexRecord(DOG_L, f"s{src}", 0, i) for i, src in enumerate(sources))
    index = FeatureIndex(pool[members], records, snapshot_version=1)
    if exclude_owner:
        exclude = "s0"
    else:
        exclude = f"s{rng.integers(0, n_sources)}" if rng.random() < 0.5 else None

    queries = rng.standard_normal((n_queries, 4))
    kind = rng.integers(0, 4, n_queries)
    queries[kind == 1] = pool[rng.integers(0, pool_size, (kind == 1).sum())]
    queries[kind == 2] = 0.0
    queries[kind == 3] *= 1e-14
    live = np.array([r.source_id != exclude for r in records])
    counts = {
        "live": len(np.unique(index.vectors[live], axis=0)),
        "candidates": int(live.sum()),
        "free": int(rng.integers(1, n_rows + 3)),
    }
    k = max(1, counts[k_base] + k_offset)

    rows, sims = search(queries, index, k, exclude_source=exclude)
    expected_rows, expected_sims = _row_space_search(queries, index, k, exclude)
    assert rows.shape == sims.shape == (n_queries, min(k, counts["candidates"]))
    assert np.array_equal(rows, expected_rows)
    assert np.array_equal(sims, expected_sims)
    # one query is scored by a matrix-vector product, whose last bit may differ
    for query, query_rows, query_sims in zip(queries, rows, sims):
        single = retrieve(query, index, k, exclude_source=exclude)
        assert [item.record.ordinal for item in single.items] == query_rows.tolist()
        single_sims = [item.similarity for item in single.items]
        assert np.allclose(single_sims, query_sims, rtol=0, atol=1e-12)


def test_feature_index_rejects_ordinal_off_its_position():
    records = (IndexRecord(DOG_L, "s0", 0, 0), IndexRecord(DOG_L, "s1", 0, 2))
    with pytest.raises(RetrievalError, match="ordinal 2 is not its position 1"):
        FeatureIndex(np.ones((2, 3)), records, snapshot_version=1)


def _with_entry(value):
    queries = np.ones((3, 4))
    queries[1, 2] = value
    return queries


@pytest.mark.parametrize(
    "queries, message",
    [
        (np.ones(4), r"queries must be a matrix, got shape \(4,\)"),
        (np.ones((1, 1, 4)), r"queries must be a matrix, got shape \(1, 1, 4\)"),
        (_with_entry(np.nan), "non-finite query vector"),
        (_with_entry(np.inf), "non-finite query vector"),
        (_with_entry(-np.inf), "non-finite query vector"),
    ],
    ids=["vector", "3d", "nan", "inf", "-inf"],
)
def test_search_rejects_a_bad_query(queries, message):
    index = _random_index(np.random.default_rng(8), 5, 4)
    with pytest.raises(RetrievalError, match=message):
        search(queries, index, k=2)


def _exact_order(index, query, exclude):
    """(-similarity, ordinal) order of every record not from ``exclude``.
    Each similarity is correctly rounded from its own row, so identical
    rows tie."""
    q_norm = math.sqrt(math.fsum(query * query))
    scored = []
    for record, row in zip(index.records, index.vectors):
        if record.source_id == exclude:
            continue
        norm = math.sqrt(math.fsum(row * row))
        if min(norm, q_norm) < 1e-12:
            sim = 0.0
        else:
            sim = min(1.0, max(-1.0, math.fsum(row * query) / (norm * q_norm)))
        scored.append((-sim, record.ordinal))
    return [ordinal for _, ordinal in sorted(scored)]


def test_retrieve_orders_identical_rows_by_ordinal_under_exclusion(lexicon, synth_pair):
    """Every D_q and D_v row of the default corpus, under the initial
    parameters, queried at full depth with its own source excluded. Rows
    repeat (a word's feature depends only on its question prefix, an
    object's only on its labels), and tied rows must keep ordinal order."""
    train_c, _ = synth_pair
    vocabs = build_vocabularies(train_c)
    params = init_params(len(vocabs.words), len(vocabs.labels), len(vocabs.answers), seed=0)
    mismatches = {}
    for name, db in (("D_q", build_dq(train_c, 8, 0, lexicon)), ("D_v", build_dv(train_c, 32, 0))):
        index = encode_index(db, params, vocabs, train_c, 1)
        assert len(np.unique(index.vectors, axis=0)) < index.size
        mismatches[name] = 0
        for record, row in zip(index.records, index.vectors):
            rows, _ = search(row[np.newaxis], index, index.size, exclude_source=record.source_id)
            mismatches[name] += rows[0].tolist() != _exact_order(index, row, record.source_id)
    assert mismatches == {"D_q": 0, "D_v": 0}
