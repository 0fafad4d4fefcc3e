"""Linguistic and visual primitive databases and exact top-K cosine retrieval.

A database maps each primitive to up to T sampled contexts (question id +
token position, or image id + object ordinal). Encoding a database under the
current model parameters produces an immutable FeatureIndex snapshot; queries
against a snapshot are exhaustive exact top-K by cosine similarity with ties
broken by insertion ordinal.
"""

from __future__ import annotations

import logging
import random
from collections.abc import Iterable
from dataclasses import dataclass

import numpy as np

from .corpus import Corpus
from .model import ParamSet, Vocabularies, encode_image, encode_question, question_token_ids, scene_object_ids
from .primitives import (
    Lexicon, Modality, Primitive, PrimitiveOccurrence, extract_linguistic, extract_visual,
    primitive_key,
)

__all__ = [
    "RetrievalError",
    "PrimitiveDB",
    "IndexRecord",
    "FeatureIndex",
    "RetrievedItem",
    "RetrievalResult",
    "build_dq",
    "build_dv",
    "encode_index",
    "cosines",
    "cosine",
    "retrieve",
]

log = logging.getLogger(__name__)

NORM_FLOOR = 1e-12


class RetrievalError(ValueError):
    """A non-finite or mis-shaped vector, or a database the corpus cannot back."""


@dataclass(frozen=True)
class PrimitiveDB:
    """primitive -> up to ``cap`` (source id, position) contexts: (question id,
    token position) in the linguistic D_q, (image id, object ordinal) in D_v."""

    modality: Modality
    entries: dict[Primitive, tuple[tuple[str, int], ...]]
    cap: int


@dataclass(frozen=True)
class IndexRecord:
    primitive: Primitive
    source_id: str
    position: int
    ordinal: int


class FeatureIndex:
    """Immutable snapshot of encoded database entries."""

    def __init__(self, vectors: np.ndarray, records: tuple[IndexRecord, ...], snapshot_version: int):
        if vectors.shape[0] != len(records):
            raise RetrievalError("vector/record count mismatch")
        self.vectors = vectors
        self.vectors.setflags(write=False)
        self.records = records
        self.snapshot_version = snapshot_version
        self.norms = np.linalg.norm(vectors, axis=1) if len(records) else np.empty(0)
        self.ordinals = np.array([r.ordinal for r in records], dtype=np.int64)
        self.source_ids = np.array([r.source_id for r in records], dtype=object)

    @property
    def size(self) -> int:
        return len(self.records)


@dataclass(frozen=True)
class RetrievedItem:
    vector: np.ndarray
    similarity: float
    record: IndexRecord


@dataclass(frozen=True)
class RetrievalResult:
    items: tuple[RetrievedItem, ...]

    def __len__(self) -> int:
        return len(self.items)


def build_dq(corpus: Corpus, t_q: int, seed: int, lexicon: Lexicon) -> PrimitiveDB:
    """Sample up to ``t_q`` distinct questions per linguistic primitive, each
    at the primitive's first position in that question."""
    occurrences = (
        occ for sample in corpus.samples
        for occ in extract_linguistic(sample.question, lexicon)[1]
    )
    return _sampled_db(Modality.LINGUISTIC, occurrences, t_q, seed)


def build_dv(corpus: Corpus, t_v: int, seed: int) -> PrimitiveDB:
    """Sample up to ``t_v`` distinct images per visual label, each at the
    lowest ordinal of a matching object in that image."""
    occurrences = (
        occ for graph in corpus.scene_graphs().values() for occ in extract_visual(graph)[1]
    )
    return _sampled_db(Modality.VISUAL, occurrences, t_v, seed)


def _sampled_db(
    modality: Modality, occurrences: Iterable[PrimitiveOccurrence], cap: int, seed: int
) -> PrimitiveDB:
    """Keep each primitive's lowest position per source, then draw up to
    ``cap`` sources per primitive: uniform without replacement,
    deterministic for a fixed seed."""
    if cap < 1:
        raise ValueError(f"database cap must be >= 1, got {cap}")
    contexts: dict[Primitive, dict[str, int]] = {}
    for occ in occurrences:
        positions = contexts.setdefault(occ.primitive, {})
        positions[occ.sample_id] = min(occ.position, positions.get(occ.sample_id, occ.position))
    rng = random.Random(seed)
    entries: dict[Primitive, tuple[tuple[str, int], ...]] = {}
    for primitive in sorted(contexts, key=primitive_key):
        available = sorted(contexts[primitive].items())
        chosen = available if len(available) <= cap else rng.sample(available, cap)
        entries[primitive] = tuple(chosen)
    return PrimitiveDB(modality=modality, entries=entries, cap=cap)


def encode_index(
    db: PrimitiveDB,
    params: ParamSet,
    vocabs: Vocabularies,
    corpus: Corpus,
    snapshot_version: int,
) -> FeatureIndex:
    """Encode every stored context under the current parameters.

    Record order equals database iteration order; provenance is unchanged
    across re-encodings, only the vectors move.
    """
    linguistic = db.modality is Modality.LINGUISTIC
    if linguistic:
        sources = {s.question.id: s.question for s in corpus.samples}
    else:
        sources = corpus.scene_graphs()

    vectors: list[np.ndarray] = []
    records: list[IndexRecord] = []
    feature_cache: dict[str, np.ndarray] = {}
    ordinal = 0
    for primitive, contexts in db.entries.items():
        for source_id, position in contexts:
            feats = feature_cache.get(source_id)
            if feats is None:
                source = sources.get(source_id)
                if source is None:
                    raise RetrievalError(
                        f"dangling source id {source_id!r} in the {db.modality.value} database"
                    )
                if linguistic:
                    feats = encode_question(params, question_token_ids(vocabs, source.text))
                else:
                    feats = encode_image(params, scene_object_ids(vocabs, source))
                feature_cache[source_id] = feats
            if position >= feats.shape[0]:
                raise RetrievalError(
                    f"position {position} out of range for source {source_id!r}"
                )
            vectors.append(feats[position])
            records.append(IndexRecord(primitive, source_id, position, ordinal))
            ordinal += 1
    matrix = np.array(vectors) if vectors else np.empty((0, params.d))
    return FeatureIndex(matrix, tuple(records), snapshot_version)


def cosines(query: np.ndarray, rows: np.ndarray, row_norms: np.ndarray | None = None) -> np.ndarray:
    """Cosine similarity of ``query`` against each row, clipped to [-1, 1].

    A similarity is zero where the query's or the row's norm is below
    NORM_FLOOR. ``row_norms`` are the rows' norms, when the caller has them.
    """
    if rows.shape[1:] != query.shape:
        raise RetrievalError(f"dimension mismatch: {query.shape} vs rows of {rows.shape[1:]}")
    if row_norms is None:
        row_norms = np.linalg.norm(rows, axis=1)
    q_norm = np.linalg.norm(query)
    if q_norm < NORM_FLOOR:
        return np.zeros(rows.shape[0])
    valid = row_norms >= NORM_FLOOR
    sims = np.where(valid, (rows @ query) / np.where(valid, row_norms * q_norm, 1.0), 0.0)
    return np.clip(sims, -1.0, 1.0)


def cosine(a: np.ndarray, b: np.ndarray) -> float:
    """Cosine similarity of one pair: ``cosines`` of ``a`` against ``b``."""
    return float(cosines(np.asarray(a, dtype=float), np.asarray(b, dtype=float)[np.newaxis])[0])


def retrieve(
    query: np.ndarray,
    index: FeatureIndex,
    k: int,
    exclude_source: str | None = None,
) -> RetrievalResult:
    """Exact top-K by cosine over all records, ties broken by ordinal.

    Records whose source id equals ``exclude_source`` never participate.
    Returns fewer than K items when the index is small; an empty index
    yields an empty result with a warning. A non-finite query is an error.
    """
    if k < 1:
        raise ValueError("k must be >= 1")
    if index.size == 0:
        log.warning("retrieval against an empty index")
        return RetrievalResult(items=())
    if not np.all(np.isfinite(query)):
        raise RetrievalError("non-finite query vector")

    if exclude_source is None:
        candidate = np.arange(index.size)
    else:
        candidate = np.flatnonzero(index.source_ids != exclude_source)

    sims = cosines(query, index.vectors[candidate], index.norms[candidate])
    order = np.lexsort((index.ordinals[candidate], -sims))[:k]
    items = tuple(
        RetrievedItem(
            vector=index.vectors[candidate[i]],
            similarity=float(sims[i]),
            record=index.records[candidate[i]],
        )
        for i in order
    )
    return RetrievalResult(items=items)
