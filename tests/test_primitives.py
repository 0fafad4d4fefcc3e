import string

import pytest
from hypothesis import given, strategies as st

from ragvqa.corpus import SceneGraph
from ragvqa.primitives import (
    Lexicon,
    Modality,
    PartOfSpeech,
    Primitive,
    extract_linguistic,
    extract_visual,
    lemmatize,
    pos_tag,
    tokenize,
)

from conftest import make_sample


# -- tokenize ---------------------------------------------------------------


def test_tokenize_strips_punctuation_and_lowercases():
    assert tokenize("Is the dog black?") == ["is", "the", "dog", "black"]


def test_tokenize_empty():
    assert tokenize("") == []


def test_tokenize_question_words():
    assert tokenize("How many dogs are there?") == ["how", "many", "dogs", "are", "there"]


@given(st.text(max_size=80))
def test_tokenize_tokens_are_lowercase_and_nonempty(text):
    for tok in tokenize(text):
        assert tok
        assert tok == tok.lower()
        assert " " not in tok


# -- pos_tag ----------------------------------------------------------------


def test_pos_tag_lexicon_lookup(lexicon):
    assert pos_tag(["dog"], lexicon) == [PartOfSpeech.NOUN]


def test_pos_tag_suffix_rules(lexicon):
    assert pos_tag(["quickly"], lexicon) == [PartOfSpeech.ADVERB]
    assert pos_tag(["zorping"], lexicon) == [PartOfSpeech.VERB]
    assert pos_tag(["zorp"], lexicon) == [PartOfSpeech.NOUN]


def test_pos_tag_empty(lexicon):
    assert pos_tag([], lexicon) == []


def test_pos_tag_same_length(lexicon):
    tokens = tokenize("Is the small white dog sitting there?")
    assert len(pos_tag(tokens, lexicon)) == len(tokens)


# -- lemmatize ----------------------------------------------------------------


def test_lemmatize_plural(lexicon):
    assert lemmatize("dogs", PartOfSpeech.NOUN, lexicon) == "dog"


def test_lemmatize_exception_table(lexicon):
    assert lemmatize("is", PartOfSpeech.VERB, lexicon) == "be"
    assert lemmatize("are", PartOfSpeech.VERB, lexicon) == "be"


def test_lemmatize_fixed_point(lexicon):
    assert lemmatize("dog", PartOfSpeech.NOUN, lexicon) == "dog"


def test_lemmatize_verb_forms(lexicon):
    assert lemmatize("running", PartOfSpeech.VERB, lexicon) == "run"
    assert lemmatize("jumped", PartOfSpeech.VERB, lexicon) == "jump"


def test_lemmatize_does_not_mangle_ss_words(lexicon):
    assert lemmatize("grass", PartOfSpeech.NOUN, lexicon) == "grass"
    assert lemmatize("pass", PartOfSpeech.VERB, lexicon) == "pass"


@pytest.mark.parametrize(
    "plural, lemma",
    [("puppies", "puppy"), ("churches", "church"), ("dishes", "dish"),
     ("glasses", "glass"), ("boxes", "box"), ("buzzes", "buzz"), ("ties", "tie")],
)
def test_lemmatize_es_and_ies_plurals(lexicon, plural, lemma):
    assert lemmatize(plural, PartOfSpeech.NOUN, lexicon) == lemma


def test_lemmatize_strips_the_possessive(lexicon):
    assert lemmatize("dog's", PartOfSpeech.NOUN, lexicon) == "dog"
    assert lemmatize("boxes's", PartOfSpeech.NOUN, lexicon) == "box"
    assert lemmatize("running's", PartOfSpeech.VERB, lexicon) == "run"
    assert lemmatize("red's", PartOfSpeech.ADJECTIVE, lexicon) == "red"
    question = make_sample("Is the dog's hat red?", [("dog", set())], "no").question
    names = {p.name for p in extract_linguistic(question, lexicon)[0]}
    assert "dog" in names and "dog's" not in names


def test_lemmatize_idempotent_over_lexicon(lexicon):
    for word, pos in lexicon.pos_table.items():
        once = lemmatize(word, pos, lexicon)
        assert lemmatize(once, pos, lexicon) == once
    for (_word, pos), lemma in lexicon.lemma_exceptions.items():
        assert lemmatize(lemma, pos, lexicon) == lemma


@given(
    st.text(alphabet=string.ascii_lowercase, min_size=1, max_size=12),
    st.sampled_from([PartOfSpeech.NOUN, PartOfSpeech.ADJECTIVE, PartOfSpeech.ADVERB]),
)
def test_lemmatize_idempotent_for_non_verbs(lexicon, token, pos):
    once = lemmatize(token, pos, lexicon)
    assert lemmatize(once, pos, lexicon) == once


# -- Primitive validation ------------------------------------------------------


def test_primitive_requires_pos_iff_linguistic():
    with pytest.raises(ValueError):
        Primitive("dog", Modality.LINGUISTIC)
    with pytest.raises(ValueError):
        Primitive("dog", Modality.VISUAL, PartOfSpeech.NOUN)
    with pytest.raises(ValueError):
        Primitive("Dog", Modality.VISUAL)
    with pytest.raises(ValueError):
        Primitive("", Modality.VISUAL)


def test_cross_modal_same_name_primitives_differ():
    ling = Primitive("dog", Modality.LINGUISTIC, PartOfSpeech.NOUN)
    vis = Primitive("dog", Modality.VISUAL)
    assert ling != vis


# -- extract_linguistic ----------------------------------------------------


def test_extract_linguistic_basic(lexicon):
    sample = make_sample("Is the dog black?", [("dog", set())], "no")
    prims, occs = extract_linguistic(sample.question, lexicon)
    assert prims == {
        Primitive("be", Modality.LINGUISTIC, PartOfSpeech.VERB),
        Primitive("dog", Modality.LINGUISTIC, PartOfSpeech.NOUN),
        Primitive("black", Modality.LINGUISTIC, PartOfSpeech.ADJECTIVE),
    }
    assert [o.position for o in occs] == [0, 2, 3]


def test_extract_linguistic_function_words_only(lexicon):
    sample = make_sample("the the the", [("dog", set())], "no")
    prims, occs = extract_linguistic(sample.question, lexicon)
    assert prims == set()
    assert occs == []


def test_extract_linguistic_how_many_dogs(lexicon):
    sample = make_sample("How many dogs are there?", [("dog", set())], "1")
    prims, _ = extract_linguistic(sample.question, lexicon)
    assert Primitive("dog", Modality.LINGUISTIC, PartOfSpeech.NOUN) in prims


def test_linguistic_occurrences_reproduce_lemma(lexicon):
    sample = make_sample("How many white dogs are there?", [("dog", {"white"})], "1")
    _, occs = extract_linguistic(sample.question, lexicon)
    tokens = tokenize(sample.question.text)
    tags = pos_tag(tokens, lexicon)
    for occ in occs:
        pos = occ.position
        assert lemmatize(tokens[pos], tags[pos], lexicon) == occ.primitive.name


# -- extract_visual ----------------------------------------------------------


def test_extract_visual_category_and_attributes():
    sample = make_sample("x?", [("dog", {"white"})], "no")
    prims, occs = extract_visual(sample.scene_graph)
    assert prims == {
        Primitive("dog", Modality.VISUAL),
        Primitive("white", Modality.VISUAL),
    }
    assert all(o.position == 0 for o in occs)


def test_extract_visual_duplicate_category():
    sample = make_sample("x?", [("dog", set()), ("dog", set())], "2")
    prims, occs = extract_visual(sample.scene_graph)
    assert prims == {Primitive("dog", Modality.VISUAL)}
    assert [o.position for o in occs] == [0, 1]


def test_extract_visual_empty():
    prims, occs = extract_visual(SceneGraph("i1", ()))
    assert prims == set()
    assert occs == []


def test_visual_occurrences_reference_owning_object():
    sample = make_sample("x?", [("dog", {"white", "small"}), ("cat", set())], "no")
    _, occs = extract_visual(sample.scene_graph)
    for occ in occs:
        obj = sample.scene_graph.objects[occ.position]
        assert occ.primitive.name in {obj.category} | set(obj.attributes)


def test_extract_is_pure(lexicon):
    sample = make_sample("Is the white dog small?", [("dog", {"white"})], "no")
    assert extract_linguistic(sample.question, lexicon) == extract_linguistic(
        sample.question, lexicon
    )
    assert extract_visual(sample.scene_graph) == extract_visual(sample.scene_graph)


def test_lexicon_rejects_uppercase_keys():
    with pytest.raises(ValueError):
        Lexicon(pos_table={"Dog": PartOfSpeech.NOUN})
