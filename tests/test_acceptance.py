"""Acceptance suite: eight end-to-end checks at their stated tolerances.

Each test prints a single "[criterion N] ... PASS/FAIL" line (visible with
``pytest -s`` or in failure output) and asserts the same condition.
"""

import time
from dataclasses import replace

import numpy as np
import pytest

from ragvqa.benchmark import (
    SPLIT_LABELS,
    build_splits,
    filter_candidates,
    train_signature,
    verify_splits,
    write_splits,
)
from ragvqa.corpus import SynthConfig, generate_synthetic
from ragvqa.evaluation import ablation_grid, evaluate
from ragvqa.model import (
    build_vocabularies,
    corpus_accuracy,
    gradient_check,
    init_params,
    loss_and_grads,
)
from ragvqa.primdb import FeatureIndex, IndexRecord, build_dq, build_dv, cosines, search
from ragvqa.primitives import (
    Modality,
    PartOfSpeech,
    Primitive,
    extract_linguistic,
)
from ragvqa.ragtrain import (
    AggregationConfig,
    TrainConfig,
    aggregate,
    train,
)


def _emit(n: int, ok: bool, detail: str) -> None:
    print(f"[criterion {n}] {'PASS' if ok else 'FAIL'} - {detail}")


# ---------------------------------------------------------------------------
# 1. Retrieval oracle equivalence
# ---------------------------------------------------------------------------


def test_criterion_1_retrieval_oracle_equivalence():
    start = time.perf_counter()
    rng = np.random.default_rng(42)
    n, d = 10_000, 32
    vectors = rng.standard_normal((n, d))
    anchor = Primitive("dog", Modality.LINGUISTIC, PartOfSpeech.NOUN)
    records = tuple(IndexRecord(anchor, f"s{i % 997}", 0, i) for i in range(n))
    index = FeatureIndex(vectors, records, snapshot_version=1)
    norms = np.sqrt((vectors * vectors).sum(axis=1))

    def oracle(query, k):
        # elementwise-multiply reduction + python sort: a deliberately
        # different code path from the production batched matvec + lexsort
        q_norm = float(np.sqrt((query * query).sum()))
        if q_norm < 1e-12:
            sims = np.zeros(n)
        else:
            sims = (vectors * query).sum(axis=1) / (norms * q_norm)
            sims = np.clip(sims, -1.0, 1.0)
        order = sorted(range(n), key=lambda i: (-sims[i], i))[:k]
        return [records[i] for i in order]

    mismatches = 0
    for _ in range(1000):
        query = rng.standard_normal(d)
        k = int(rng.integers(1, 21))
        rows, _ = search(query[np.newaxis], index, k)
        got = [records[row] for row in rows[0]]
        if got != oracle(query, k):
            mismatches += 1
    elapsed = time.perf_counter() - start
    ok = mismatches == 0 and elapsed < 30
    _emit(1, ok, f"1000 queries x 10000 records, {mismatches} mismatches, {elapsed:.1f}s")
    assert mismatches == 0
    assert elapsed < 30


# ---------------------------------------------------------------------------
# 2. Aggregation identity and linearity
# ---------------------------------------------------------------------------


def test_criterion_2_aggregation_identity_and_linearity():
    start = time.perf_counter()
    rng = np.random.default_rng(7)

    def neighbours_of(p, matrix):
        return cosines(p, matrix), matrix

    checked = 0
    worst = 0.0
    for mode in ("weighted_feature", "scalar_broadcast"):
        for _ in range(5000):
            d = int(rng.integers(1, 9))
            p = rng.standard_normal(d)
            r_q = neighbours_of(p, rng.standard_normal((int(rng.integers(0, 5)), d)))
            r_v = neighbours_of(p, rng.standard_normal((int(rng.integers(0, 5)), d)))
            w_q, w_v = rng.uniform(0, 2, size=2)

            zero = aggregate(p, r_q, r_v, AggregationConfig(w_q=0, w_v=0, mode=mode))
            assert np.array_equal(zero, p)  # w = 0 identity, exact

            base = AggregationConfig(w_q=1, w_v=1, mode=mode)
            q_term = aggregate(p, r_q, None, replace(base, w_v=0)) - p
            v_term = aggregate(p, None, r_v, replace(base, w_q=0)) - p
            combined = aggregate(p, r_q, r_v, AggregationConfig(w_q=w_q, w_v=w_v, mode=mode))
            err = np.max(np.abs(combined - (p + w_q * q_term + w_v * v_term)))
            worst = max(worst, float(err))
            checked += 1
    elapsed = time.perf_counter() - start
    ok = worst < 1e-12 and elapsed < 10
    _emit(2, ok, f"{checked} inputs, worst linearity error {worst:.2e}, {elapsed:.1f}s")
    assert worst < 1e-12
    assert elapsed < 10


# ---------------------------------------------------------------------------
# 3. Gradient correctness
# ---------------------------------------------------------------------------


def test_criterion_3_gradient_correctness():
    start = time.perf_counter()
    rng = np.random.default_rng(3)
    n_words, n_labels, n_answers, d = 12, 9, 5, 4
    params = init_params(n_words, n_labels, n_answers, d=d, d_h=6, seed=3)
    token_ids = rng.integers(0, n_words, size=5).tolist()
    objects = [
        (int(rng.integers(0, n_labels)),
         tuple(int(a) for a in rng.integers(0, n_labels, size=2)))
        for _ in range(3)
    ]
    answer = int(rng.integers(0, n_answers))

    errors = {}
    for augmented in (False, True):
        q_delta = 0.05 * rng.standard_normal((5, d)) if augmented else None
        v_delta = 0.05 * rng.standard_normal((3, d)) if augmented else None
        _, _, grads = loss_and_grads(params, token_ids, objects, answer, q_delta, v_delta)

        def loss_fn(p, q=q_delta, v=v_delta):
            value, _, _ = loss_and_grads(p, token_ids, objects, answer, q, v)
            return value

        errors[augmented] = gradient_check(
            params, loss_fn, grads, n_coords=100, eps=1e-5, seed=3
        )
    elapsed = time.perf_counter() - start
    ok = max(errors.values()) < 1e-4 and elapsed < 60
    _emit(3, ok, f"max rel err plain {errors[False]:.2e}, "
                 f"augmented {errors[True]:.2e}, {elapsed:.1f}s")
    assert errors[False] < 1e-4
    assert errors[True] < 1e-4
    assert elapsed < 60


# ---------------------------------------------------------------------------
# 4. Baseline equivalence
# ---------------------------------------------------------------------------


def test_criterion_4_baseline_equivalence(lexicon, small_pair):
    start = time.perf_counter()
    train_corpus, _ = small_pair
    assert len(train_corpus.samples) == 200
    vocabs = build_vocabularies(train_corpus)
    db_q = build_dq(train_corpus, 8, 0, lexicon)
    db_v = build_dv(train_corpus, 32, 0)
    train_config = TrainConfig(epochs=5, learning_rate=0.05, seed=0)
    zero_weights = AggregationConfig(w_q=0.0, w_v=0.0)

    def fresh_params():
        return init_params(len(vocabs.words), len(vocabs.labels), len(vocabs.answers),
                           d=8, d_h=8, seed=0)

    with_retrieval = train(train_corpus, db_q, db_v, fresh_params(), vocabs, lexicon,
                           train_config, zero_weights)
    without = train(train_corpus, None, None, fresh_params(), vocabs, lexicon,
                    train_config, None)

    bit_exact = all(
        np.array_equal(a, b)
        for a, b in zip(with_retrieval.params.arrays(), without.params.arrays())
    )
    losses_equal = [m["mean_loss"] for m in with_retrieval.metrics] == [
        m["mean_loss"] for m in without.metrics
    ]
    elapsed = time.perf_counter() - start
    ok = bit_exact and losses_equal and elapsed < 60
    _emit(4, ok, f"5 epochs x 200 samples, bit-exact params: {bit_exact}, "
                 f"equal per-epoch losses: {losses_equal}, {elapsed:.1f}s")
    assert bit_exact
    assert losses_equal
    assert elapsed < 60


# ---------------------------------------------------------------------------
# 5. Benchmark soundness
# ---------------------------------------------------------------------------


def test_criterion_5_benchmark_soundness(lexicon, tmp_path):
    start = time.perf_counter()

    def build(path):
        train_c, val_c = generate_synthetic(SynthConfig(), seed=0)
        signature = train_signature(train_c, lexicon)
        candidates, _ = filter_candidates(val_c, signature, lexicon)
        splits, _ = build_splits(candidates, n_per_split=50, seed=0)
        write_splits(splits, candidates, path)
        return train_c, val_c, splits

    train_c, val_c, splits = build(tmp_path / "a.jsonl")
    assert len(train_c.samples) >= 2000 and len(val_c.samples) >= 1000

    report = verify_splits(splits, train_c, val_c, lexicon)
    all_ids = [sid for ids in splits.values() for sid in ids]
    disjoint = len(all_ids) == len(set(all_ids))

    build(tmp_path / "b.jsonl")
    identical = (tmp_path / "a.jsonl").read_bytes() == (tmp_path / "b.jsonl").read_bytes()

    elapsed = time.perf_counter() - start
    ok = report.ok and disjoint and identical and report.checked > 0 and elapsed < 60
    _emit(5, ok, f"{report.checked} samples re-verified, {len(report.failures)} failures, "
                 f"disjoint: {disjoint}, same-seed byte-identical: {identical}, {elapsed:.1f}s")
    assert report.ok and report.checked > 0
    assert disjoint
    assert identical
    assert elapsed < 60


# ---------------------------------------------------------------------------
# 6. Database well-formedness
# ---------------------------------------------------------------------------


def test_criterion_6_database_well_formedness(lexicon, synth_pair):
    start = time.perf_counter()
    train_c, _ = synth_pair
    db_q = build_dq(train_c, 8, 0, lexicon)
    db_v = build_dv(train_c, 32, 0)

    questions = {s.question.id: s.question for s in train_c.samples}
    graphs = {s.scene_graph.image_id: s.scene_graph for s in train_c.samples}

    bad_q = bad_v = n_q = n_v = 0
    for primitive, entries in db_q.entries.items():
        assert len(entries) <= 8
        for source_id, _position in entries:
            n_q += 1
            extracted, _ = extract_linguistic(questions[source_id], lexicon)
            if primitive not in extracted:
                bad_q += 1
    for primitive, entries in db_v.entries.items():
        assert len(entries) <= 32
        for source_id, position in entries:
            n_v += 1
            obj = graphs[source_id].objects[position]
            if primitive.name != obj.category and primitive.name not in obj.attributes:
                bad_v += 1
    elapsed = time.perf_counter() - start
    ok = bad_q == 0 and bad_v == 0 and n_q > 0 and n_v > 0 and elapsed < 30
    _emit(6, ok, f"D_q {n_q} entries ({bad_q} bad), D_v {n_v} entries ({bad_v} bad), "
                 f"{elapsed:.1f}s")
    assert bad_q == 0 and n_q > 0
    assert bad_v == 0 and n_v > 0
    assert elapsed < 30


# ---------------------------------------------------------------------------
# 7 & 8 share one ablation experiment: {baseline, dq_only, dv_only, both}
# x seeds {0, 1, 2} on the full synthetic corpus.
# ---------------------------------------------------------------------------

SEEDS = (0, 1, 2)


@pytest.fixture(scope="module")
def experiment(lexicon, synth_pair):
    train_c, val_c = synth_pair
    signature = train_signature(train_c, lexicon)
    candidates, _ = filter_candidates(val_c, signature, lexicon)
    splits, _ = build_splits(candidates, n_per_split=30, seed=0)
    split_ids = {sid for ids in splits.values() for sid in ids}
    iid_samples = [s for s in val_c.samples if s.question.id not in split_ids]
    vocabs = build_vocabularies(train_c)

    start = time.perf_counter()
    rows: dict[tuple[str, int], dict] = {}
    grid = ablation_grid(AggregationConfig())  # preset: w_q=0.6 w_v=0.4 K_q=4 K_v=16
    for seed in SEEDS:
        for name, agg in grid:
            params = init_params(
                len(vocabs.words), len(vocabs.labels), len(vocabs.answers), seed=seed
            )
            db_q = build_dq(train_c, 8, seed, lexicon) if agg and agg.use_dq else None
            db_v = build_dv(train_c, 32, seed) if agg and agg.use_dv else None
            result = train(
                train_c, db_q, db_v, params, vocabs, lexicon,
                TrainConfig(epochs=4, learning_rate=0.05, seed=seed), agg,
            )
            report = evaluate(result.params, vocabs, splits, val_c)
            rows[(name, seed)] = {
                "level_1": report.per_level_accuracy["level_1"],
                "overall": report.overall,
                "iid": corpus_accuracy(result.params, vocabs, iid_samples),
            }
    return {"rows": rows, "elapsed": time.perf_counter() - start}


def _mean(rows, name, key):
    return float(np.mean([rows[(name, seed)][key] for seed in SEEDS]))


def test_criterion_7_directional_end_to_end_effect(experiment):
    rows, elapsed = experiment["rows"], experiment["elapsed"]
    rag_l1 = _mean(rows, "both", "level_1")
    base_l1 = _mean(rows, "baseline", "level_1")
    rag_iid = _mean(rows, "both", "iid")
    base_iid = _mean(rows, "baseline", "iid")
    degradation = base_iid - rag_iid
    ok = rag_l1 >= base_l1 and degradation < 0.01 and elapsed < 600
    _emit(7, ok, f"Level-1 mean: +RAG {rag_l1:.4f} vs baseline {base_l1:.4f}; "
                 f"IID degradation {degradation * 100:+.2f}pp; {elapsed:.0f}s total")
    assert rag_l1 >= base_l1
    assert degradation < 0.01
    assert elapsed < 600


def test_criterion_8_ablation_structure(experiment):
    rows = experiment["rows"]
    names = ("baseline", "dq_only", "dv_only", "both")
    complete = all((name, seed) in rows and rows[(name, seed)]["overall"] is not None
                   for name in names for seed in SEEDS)

    wins = sum(
        1 for seed in SEEDS
        if rows[("both", seed)]["level_1"] >= rows[("dq_only", seed)]["level_1"]
        and rows[("both", seed)]["level_1"] >= rows[("dv_only", seed)]["level_1"]
    )
    soft_met = wins >= 2  # reported, not asserted
    table = "; ".join(
        f"{name}: L1 {_mean(rows, name, 'level_1'):.4f}, overall {_mean(rows, name, 'overall'):.4f}"
        for name in names
    )
    _emit(8, complete, f"grid complete: {complete}; both >= singles on {wins}/3 seeds "
                       f"(soft criterion {'met' if soft_met else 'NOT met'}); {table}")
    assert complete
