"""Shared fixtures: the default lexicon, hand-built tiny samples, and a
session-scoped synthetic corpus pair reused by the heavier tests."""

from __future__ import annotations

import pytest
from hypothesis import settings

from ragvqa.corpus import (
    Corpus,
    ObjectInstance,
    Question,
    Sample,
    SceneGraph,
    SynthConfig,
    generate_synthetic,
)
from ragvqa.primitives import default_lexicon

# Property tests draw the same examples on every tier-1 run, so a failure
# belongs to the change that caused it. Each test's own @settings
# (max_examples, deadline) still hold.
settings.register_profile("tier1", derandomize=True, database=None)
settings.load_profile("tier1")


@pytest.fixture(scope="session")
def lexicon():
    return default_lexicon()


def make_sample(
    text: str,
    objects: list[tuple[str, set[str]]],
    answer: str,
    qid: str = "q1",
    image_id: str = "i1",
) -> Sample:
    """One sample from a question string and (category, attributes) pairs."""
    instances = tuple(
        ObjectInstance(f"o{j}", cat, frozenset(attrs))
        for j, (cat, attrs) in enumerate(objects)
    )
    return Sample(
        question=Question(id=qid, text=text, image_id=image_id),
        scene_graph=SceneGraph(image_id=image_id, objects=instances),
        answer=answer,
    )


def make_corpus(samples: list[Sample], split_tag: str = "train") -> Corpus:
    vocab = tuple(dict.fromkeys(s.answer for s in samples))
    return Corpus(tuple(samples), vocab, split_tag)


SMALL_SYNTH = SynthConfig(
    categories=("dog", "cat", "bird", "car", "tree", "ball"),
    attributes=("white", "black", "red"),
    n_train=200,
    n_val=120,
)


# the wide 20 x 16 concept inventory of the benchmark's rag-bigdb workload
WIDE_SYNTH = SynthConfig(
    categories=tuple(
        "dog cat bird horse car bus tree flower chair table ball book shoe cup hat box "
        "boat lamp door plate".split()
    ),
    attributes=tuple(
        "white black red blue green brown yellow gray purple orange small big tall round "
        "old wooden".split()
    ),
)


@pytest.fixture(scope="session")
def small_pair():
    """A compact (train, val) pair for training-loop tests."""
    return generate_synthetic(SMALL_SYNTH, seed=0)


@pytest.fixture(scope="session")
def synth_pair():
    """The full-size default synthetic pair (2000 train / 1000 val, seed 0)."""
    return generate_synthetic(SynthConfig(), seed=0)
