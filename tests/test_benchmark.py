import hashlib

import pytest
from hypothesis import example, given, settings, strategies as st

from ragvqa.benchmark import (
    LEVELS,
    SPLIT_LABELS,
    BenchmarkError,
    Candidate,
    build_splits,
    classify,
    composition_type,
    compositions_of,
    filter_candidates,
    read_splits,
    sample_primitives,
    split_stats,
    train_signature,
    verify_splits,
    write_splits,
)
from ragvqa.corpus import Corpus, CorpusError, SynthConfig, generate_synthetic
from ragvqa.primitives import Modality, PartOfSpeech, Primitive, primitive_key

from conftest import make_corpus, make_sample

WHITE_L = Primitive("white", Modality.LINGUISTIC, PartOfSpeech.ADJECTIVE)
DOG_L = Primitive("dog", Modality.LINGUISTIC, PartOfSpeech.NOUN)
WHITE_V = Primitive("white", Modality.VISUAL)
DOG_V = Primitive("dog", Modality.VISUAL)
GRASS_V = Primitive("grass", Modality.VISUAL)


# -- composition pairs -------------------------------------------------------------


def _pair(p1, p2):
    (pair,) = compositions_of({p1, p2})
    return pair


def test_composition_types():
    assert composition_type(_pair(WHITE_L, DOG_L)) == "LL"
    assert composition_type(_pair(WHITE_L, DOG_V)) == "LV"
    assert composition_type(_pair(DOG_V, GRASS_V)) == "VV"


def test_composition_requires_distinct_primitives():
    # the input is a set, so a repeated primitive cannot pair with itself
    assert compositions_of({DOG_L, DOG_L}) == set()
    assert compositions_of({DOG_L, DOG_V, DOG_L}) == {(primitive_key(DOG_L), primitive_key(DOG_V))}


def test_composition_is_unordered():
    # dict key views are sets that iterate in insertion order
    forward = compositions_of(dict.fromkeys([WHITE_L, DOG_V]).keys())
    backward = compositions_of(dict.fromkeys([DOG_V, WHITE_L]).keys())
    assert forward == backward
    assert len(forward | backward) == 1


def test_composition_is_a_sorted_key_pair():
    assert _pair(DOG_V, WHITE_L) == (primitive_key(WHITE_L), primitive_key(DOG_V))


def test_composition_same_name_cross_modal_is_lv():
    assert composition_type(_pair(DOG_L, DOG_V)) == "LV"


# -- compositions_of ---------------------------------------------------------------


def test_compositions_of_counts_pairs(lexicon):
    sample = make_sample(
        "Is the white dog small?", [("dog", {"white"}), ("grass", set())], "no"
    )
    prims = sample_primitives(sample, lexicon)
    comps = compositions_of(prims)
    u = len(prims)
    assert len(comps) == u * (u - 1) // 2


def test_compositions_of_single_primitive_union(lexicon):
    sample = make_sample("the the the", [("dog", set())], "no")
    assert compositions_of(sample_primitives(sample, lexicon)) == set()
    assert len(sample_primitives(sample, lexicon)) == 1


# -- train_signature ----------------------------------------------------------------


def test_train_signature_empty_corpus(lexicon):
    empty = Corpus((), (), "train")
    sig = train_signature(empty, lexicon)
    assert sig.primitive_set == frozenset()
    assert sig.compositions == frozenset()


def test_train_signature_single_sample(lexicon):
    # "the dog?" -> dog/L; scene dog+white -> dog/V, white/V: 3 primitives
    corpus = make_corpus([make_sample("the dog?", [("dog", {"white"})], "yes")])
    sig = train_signature(corpus, lexicon)
    assert len(sig.primitive_set) == 3
    assert len(sig.compositions) == 3  # C(3, 2)


def test_train_signature_order_independent(lexicon, small_pair):
    train_corpus, _ = small_pair
    shuffled = make_corpus(list(reversed(train_corpus.samples)))
    assert train_signature(train_corpus, lexicon) == train_signature(shuffled, lexicon)


def test_train_signature_monotone_in_corpus(lexicon, small_pair):
    train_corpus, _ = small_pair
    part = make_corpus(list(train_corpus.samples[:40]))
    sig_part = train_signature(part, lexicon)
    sig_full = train_signature(train_corpus, lexicon)
    assert sig_part.primitive_set <= sig_full.primitive_set
    assert sig_part.compositions <= sig_full.compositions


# -- filter_candidates -----------------------------------------------------------


def _toy_world(lexicon):
    train = make_corpus(
        [
            make_sample("Is the dog small?", [("dog", set())], "no", "t1", "ti1"),
            make_sample("Is the cat black?", [("cat", {"black"})], "yes", "t2", "ti2"),
            make_sample("the white cat?", [("cat", {"white"})], "yes", "t3", "ti3"),
        ]
    )
    return train, train_signature(train, lexicon)


def test_filter_rejects_unseen_primitive(lexicon):
    _, sig = _toy_world(lexicon)
    val = make_corpus([make_sample("Is the zebra white?", [("cat", set())], "no", "v1", "vi1")], "val")
    candidates, _ = filter_candidates(val, sig, lexicon)
    assert candidates == []


def test_filter_rejects_all_seen_compositions(lexicon):
    _, sig = _toy_world(lexicon)
    val = make_corpus([make_sample("Is the dog small?", [("dog", set())], "no", "v1", "vi1")], "val")
    candidates, _ = filter_candidates(val, sig, lexicon)
    assert candidates == []


def test_filter_admits_novel_composition(lexicon):
    _, sig = _toy_world(lexicon)
    # white/L and dog/L never co-occurred in one train sample, nor did
    # white/L with dog/V; dog/L+dog/V was seen.  All primitives are seen.
    val = make_corpus([make_sample("the white dog?", [("dog", set())], "yes", "v1", "vi1")], "val")
    candidates, _ = filter_candidates(val, sig, lexicon)
    assert len(candidates) == 1
    assert candidates[0].novel_types == frozenset({"LL", "LV"})
    assert candidates[0].novel_composition_count == 2
    assert classify(candidates[0]) == "LL+LV"


def test_objectless_sample_never_reaches_filter():
    # the constructor rejects it, so no corpus handed to filter_candidates holds one
    with pytest.raises(CorpusError, match="'v1'.*no objects"):
        make_sample("the dog?", [], "yes", "v1", "vi1")


def _brute_force_admitted(train_corpus, val_corpus, lexicon):
    """Reference filter over frozenset pairs of every key ordering:
    {admitted id: (novel types, novel composition count)}."""

    def keyed(sample):
        return {primitive_key(p) for p in sample_primitives(sample, lexicon)}

    def pairs(keys):
        return {frozenset((k1, k2)) for k1 in keys for k2 in keys if k1 != k2}

    pair_type = {("linguistic",): "LL", ("visual",): "VV", ("linguistic", "visual"): "LV"}
    seen_keys, seen_pairs = set(), set()
    for sample in train_corpus.samples:
        keys = keyed(sample)
        seen_keys |= keys
        seen_pairs |= pairs(keys)
    expected = {}
    for sample in val_corpus.samples:
        keys = keyed(sample)
        novel = pairs(keys) - seen_pairs
        if keys <= seen_keys and novel:
            types = {pair_type[tuple(sorted({k[0] for k in pair}))] for pair in novel}
            expected[sample.question.id] = (frozenset(types), len(novel))
    return expected


def _admitted(train_corpus, val_corpus, lexicon):
    candidates, _ = filter_candidates(val_corpus, train_signature(train_corpus, lexicon), lexicon)
    return {c.sample_id: (c.novel_types, c.novel_composition_count) for c in candidates}


def test_filter_is_complete_against_brute_force(lexicon, small_pair):
    """Every val sample a plain pair enumeration admits is admitted, and
    nothing else, with the same novel types and counts."""
    train_corpus, val_corpus = small_pair
    admitted = _admitted(train_corpus, val_corpus, lexicon)
    assert admitted == _brute_force_admitted(train_corpus, val_corpus, lexicon)
    assert len(admitted) > 0


# Word lemmas that equal object labels ("dog", "white"), a stop word that
# leaves a lone object as the sample's only primitive ("the" + one bare
# object), and val-only concepts ("zebra", "ball") that train never sees.
_TRAIN_WORDS = ("the", "dog", "cat", "white", "red", "small")
_TRAIN_CATEGORIES = ("dog", "cat", "grass")
_ATTRIBUTES = ("white", "red")


def _tiny_samples(words, categories):
    objects = st.tuples(
        st.sampled_from(categories), st.sets(st.sampled_from(_ATTRIBUTES), max_size=2)
    )
    # object lists may repeat an object, e.g. two bare dogs
    return st.lists(
        st.tuples(st.lists(st.sampled_from(words), min_size=1, max_size=4),
                  st.lists(objects, min_size=1, max_size=3)),
        max_size=6,
    )


def _tiny_corpus(records, split_tag):
    return make_corpus(
        [
            make_sample(" ".join(words) + "?", objects, "yes", f"{split_tag}{i}", f"{split_tag}i{i}")
            for i, (words, objects) in enumerate(records)
        ],
        split_tag,
    )


@settings(max_examples=150, deadline=None)
@given(
    _tiny_samples(_TRAIN_WORDS, _TRAIN_CATEGORIES),
    _tiny_samples(_TRAIN_WORDS + ("zebra",), _TRAIN_CATEGORIES + ("ball",)),
)
@example(
    [(["the", "white", "dog"], [("dog", {"white"}), ("cat", set())]), (["cat"], [("grass", set())])],
    [
        (["the"], [("dog", set())]),  # one primitive
        (["the", "dog"], [("dog", set()), ("dog", set())]),  # duplicate objects
        (["white", "cat"], [("dog", set())]),
        (["zebra", "dog"], [("dog", set())]),  # a primitive unseen in train
        (["dog"], [("ball", {"white"})]),
    ],
)
def test_filter_matches_brute_force_on_tiny_corpora(lexicon, train_records, val_records):
    train_corpus = _tiny_corpus(train_records, "t")
    val_corpus = _tiny_corpus(val_records, "v")
    assert _admitted(train_corpus, val_corpus, lexicon) == _brute_force_admitted(
        train_corpus, val_corpus, lexicon
    )


# -- classify ----------------------------------------------------------------------


def _candidate(types):
    sample = make_sample("x?", [("dog", set())], "no")
    return Candidate(sample, frozenset(types), len(types))


def test_classify_single_types():
    assert classify(_candidate({"LL"})) == "LL"
    assert classify(_candidate({"VV"})) == "VV"
    assert classify(_candidate({"LV"})) == "LV"


def test_classify_combined_types_canonical_order():
    assert classify(_candidate({"VV", "LL"})) == "LL+VV"
    assert classify(_candidate({"LV", "LL"})) == "LL+LV"
    assert classify(_candidate({"LV", "VV"})) == "VV+LV"
    assert classify(_candidate({"LV", "VV", "LL"})) == "LL+VV+LV"


def test_classify_empty_novel_set_errors():
    with pytest.raises(BenchmarkError):
        classify(_candidate(set()))


def test_classify_is_total_onto_seven_labels():
    from itertools import combinations

    labels = set()
    for r in (1, 2, 3):
        for subset in combinations(("LL", "VV", "LV"), r):
            labels.add(classify(_candidate(set(subset))))
    assert labels == set(SPLIT_LABELS)


# -- build_splits / split_stats -------------------------------------------------


def _candidates_by_label(counts):
    out = []
    i = 0
    for label, n in counts.items():
        types = frozenset(label.split("+"))
        for _ in range(n):
            sample = make_sample("x?", [("dog", set())], "no", f"q{i}", f"i{i}")
            out.append(Candidate(sample, types, 1))
            i += 1
    return out


def test_build_splits_caps_and_warns():
    candidates = _candidates_by_label({"LL": 3, "VV": 10})
    splits, warnings = build_splits(candidates, n_per_split=5, seed=0)
    assert len(splits["LL"]) == 3
    assert len(splits["VV"]) == 5
    assert any("LL" in w for w in warnings)
    assert any("LV" in w for w in warnings)  # empty class warns too


def test_build_splits_deterministic_and_disjoint():
    candidates = _candidates_by_label({label: 8 for label in SPLIT_LABELS})
    a, _ = build_splits(candidates, n_per_split=4, seed=3)
    b, _ = build_splits(candidates, n_per_split=4, seed=3)
    assert a == b
    all_ids = [sid for ids in a.values() for sid in ids]
    assert len(all_ids) == len(set(all_ids))


def test_split_stats_levels():
    candidates = _candidates_by_label({label: 4 for label in SPLIT_LABELS})
    splits, _ = build_splits(candidates, n_per_split=4, seed=0)
    stats = split_stats(splits, candidates)
    assert stats["per_level"] == {"level_1": 12, "level_2": 12, "level_3": 4}
    assert stats["total"] == 28
    assert stats["per_split"]["LL"]["novel_type_histogram"] == {"LL": 4, "VV": 0, "LV": 0}


def test_split_stats_empty():
    stats = split_stats({label: [] for label in SPLIT_LABELS}, [])
    assert stats["total"] == 0
    assert all(v == 0 for v in stats["per_level"].values())


def test_levels_partition_the_labels():
    grouped = [label for labels in LEVELS.values() for label in labels]
    assert sorted(grouped) == sorted(SPLIT_LABELS)


# -- verify_splits -----------------------------------------------------------------


def _built_world(lexicon, synth_pair):
    train_corpus, val_corpus = synth_pair
    sig = train_signature(train_corpus, lexicon)
    candidates, _ = filter_candidates(val_corpus, sig, lexicon)
    splits, _ = build_splits(candidates, n_per_split=20, seed=0)
    return train_corpus, val_corpus, candidates, splits


def test_verify_splits_passes_on_builder_output(lexicon, small_pair):
    train_corpus, val_corpus, _, splits = _built_world(lexicon, small_pair)
    report = verify_splits(splits, train_corpus, val_corpus, lexicon)
    assert report.ok
    assert report.checked == sum(len(v) for v in splits.values())
    assert report.checked > 0


def test_verify_splits_catches_wrong_label(lexicon, small_pair):
    train_corpus, val_corpus, _, splits = _built_world(lexicon, small_pair)
    tampered = {label: list(ids) for label, ids in splits.items()}
    moved = tampered["LL"].pop()
    tampered["VV"].append(moved)
    report = verify_splits(tampered, train_corpus, val_corpus, lexicon)
    assert not report.ok
    assert any(moved in failure for failure in report.failures)


def test_verify_splits_catches_duplicates(lexicon, small_pair):
    train_corpus, val_corpus, _, splits = _built_world(lexicon, small_pair)
    tampered = {label: list(ids) for label, ids in splits.items()}
    tampered["VV"].append(tampered["LL"][0])
    report = verify_splits(tampered, train_corpus, val_corpus, lexicon)
    assert any("both" in failure for failure in report.failures)


def test_verify_splits_names_a_swapped_in_sample_with_only_seen_compositions(
    lexicon, small_pair
):
    train_corpus, val_corpus, _, splits = _built_world(lexicon, small_pair)
    sig = train_signature(train_corpus, lexicon)
    seen_only = next(
        s.question.id
        for s in val_corpus.samples
        if sample_primitives(s, lexicon) <= sig.primitive_set
        and compositions_of(sample_primitives(s, lexicon)) <= sig.compositions
    )
    tampered = {label: list(ids) for label, ids in splits.items()}
    tampered["LL"][0] = seen_only
    report = verify_splits(tampered, train_corpus, val_corpus, lexicon)
    assert report.failures == [f"{seen_only}: no novel composition"]


def test_verify_splits_names_a_sample_moved_to_a_wrong_split(lexicon, small_pair):
    train_corpus, val_corpus, _, splits = _built_world(lexicon, small_pair)
    tampered = {label: list(ids) for label, ids in splits.items()}
    moved = tampered["VV"].pop()
    tampered["LL+VV+LV"].append(moved)
    report = verify_splits(tampered, train_corpus, val_corpus, lexicon)
    assert report.failures == [f"{moved}: label LL+VV+LV but brute-force gives VV"]


def test_verify_splits_names_a_sample_put_in_two_splits(lexicon, small_pair):
    train_corpus, val_corpus, _, splits = _built_world(lexicon, small_pair)
    tampered = {label: list(ids) for label, ids in splits.items()}
    twice = tampered["LV"][0]
    tampered["VV"].append(twice)
    report = verify_splits(tampered, train_corpus, val_corpus, lexicon)
    assert report.failures == [
        f"{twice}: appears in both VV and LV",  # splits are read in label order
        f"{twice}: label VV but brute-force gives LV",
    ]


def test_verify_splits_catches_unknown_sample(lexicon, small_pair):
    train_corpus, val_corpus, _, splits = _built_world(lexicon, small_pair)
    tampered = {label: list(ids) for label, ids in splits.items()}
    tampered["LL"].append("q_val_99999")
    report = verify_splits(tampered, train_corpus, val_corpus, lexicon)
    assert any("not found" in failure for failure in report.failures)


# -- splits file --------------------------------------------------------------------


def test_splits_file_round_trip(tmp_path, lexicon, small_pair):
    _, _, candidates, splits = _built_world(lexicon, small_pair)
    path = tmp_path / "splits.jsonl"
    write_splits(splits, candidates, path)
    assert read_splits(path) == splits


@pytest.mark.parametrize(
    "bad_line",
    [
        '{"sample_id": "q2", "split_label": "XX"}',
        '{"sample_id": "q2"}',
        '{"split_label": "LL"}',
        '["q2", "LL"]',
        "not json",
    ],
)
def test_read_splits_rejects_malformed_line(tmp_path, bad_line):
    path = tmp_path / "splits.jsonl"
    path.write_text('{"sample_id": "q1", "split_label": "LL"}\n' + bad_line + "\n", "utf-8")
    with pytest.raises(BenchmarkError, match="line 2"):
        read_splits(path)


# -- benchmark content ---------------------------------------------------------------

# sha256 of the write_splits bytes for the default synthetic corpus at each seed
_SPLITS_SHA256 = {
    0: "a3c2a96868d2fd6ba81f55c268995e8b8897c00ce8f621aec88fcc2b04ba7bcf",
    1: "8b605073fb0bb57baf03461a60ae1f4183a8902c4c43a1968e0b6cfbb8bc64a6",
    2: "8d39df0ed152dcb57593a1acda97f6b023772ee724932374b66bc33de1f96c00",
}


@pytest.mark.parametrize("seed", sorted(_SPLITS_SHA256))
def test_default_benchmark_content_is_pinned(tmp_path, lexicon, seed):
    """The splits that the default corpus yields, byte for byte.  A speed-up
    of the builder must not change which samples are admitted or where they
    go; a digest here changes only together with a CHANGES.md entry that
    explains why the benchmark's content changed."""
    train_corpus, val_corpus = generate_synthetic(SynthConfig(), seed)
    candidates, _ = filter_candidates(val_corpus, train_signature(train_corpus, lexicon), lexicon)
    splits, _ = build_splits(candidates, n_per_split=50, seed=seed)
    path = tmp_path / "splits.jsonl"
    write_splits(splits, candidates, path)
    assert len(candidates) == 600
    assert hashlib.sha256(path.read_bytes()).hexdigest() == _SPLITS_SHA256[seed]
