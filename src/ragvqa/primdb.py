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
from dataclasses import dataclass

import numpy as np

from .corpus import Corpus
from .model import ParamSet, Vocabularies, encode_image, encode_question, question_token_ids, scene_object_ids
from .primitives import Lexicon, Primitive, extract_linguistic, extract_visual, primitive_key

__all__ = [
    "RetrievalError",
    "LinguisticDB",
    "VisualDB",
    "IndexRecord",
    "FeatureIndex",
    "RetrievedItem",
    "RetrievalResult",
    "build_dq",
    "build_dv",
    "encode_index",
    "cosine",
    "retrieve",
]

log = logging.getLogger(__name__)

NORM_FLOOR = 1e-12


class RetrievalError(Exception):
    pass


@dataclass(frozen=True)
class LinguisticDB:
    """primitive -> up to ``cap`` (question id, token position) contexts."""

    entries: dict[Primitive, tuple[tuple[str, int], ...]]
    cap: int


@dataclass(frozen=True)
class VisualDB:
    """label primitive -> up to ``cap`` (image id, object ordinal) contexts."""

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

    @property
    def dim(self) -> int:
        return self.vectors.shape[1] if self.vectors.ndim == 2 else 0


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


def build_dq(corpus: Corpus, t_q: int, seed: int, lexicon: Lexicon) -> LinguisticDB:
    """Sample up to ``t_q`` distinct questions per linguistic primitive.

    One entry per sampled question, at the primitive's first occurrence;
    uniform without replacement, deterministic for a fixed seed.
    """
    if t_q < 1:
        raise ValueError("t_q must be >= 1")
    contexts: dict[Primitive, dict[str, int]] = {}
    for sample in corpus.samples:
        _prims, occurrences = extract_linguistic(sample.question, lexicon)
        for occ in occurrences:
            positions = contexts.setdefault(occ.primitive, {})
            positions.setdefault(occ.sample_id, occ.position)
    rng = random.Random(seed)
    entries: dict[Primitive, tuple[tuple[str, int], ...]] = {}
    for primitive in sorted(contexts, key=primitive_key):
        available = sorted(contexts[primitive].items())
        chosen = available if len(available) <= t_q else rng.sample(available, t_q)
        entries[primitive] = tuple(chosen)
    return LinguisticDB(entries=entries, cap=t_q)


def build_dv(corpus: Corpus, t_v: int, seed: int) -> VisualDB:
    """Sample up to ``t_v`` distinct images per visual label.

    The stored position is the lowest ordinal of a matching object in the
    sampled image.
    """
    if t_v < 1:
        raise ValueError("t_v must be >= 1")
    contexts: dict[Primitive, dict[str, int]] = {}
    for graph in corpus.scene_graphs().values():
        _prims, occurrences = extract_visual(graph)
        for occ in occurrences:
            positions = contexts.setdefault(occ.primitive, {})
            prev = positions.get(occ.sample_id)
            if prev is None or occ.position < prev:
                positions[occ.sample_id] = occ.position
    rng = random.Random(seed)
    entries: dict[Primitive, tuple[tuple[str, int], ...]] = {}
    for primitive in sorted(contexts, key=primitive_key):
        available = sorted(contexts[primitive].items())
        chosen = available if len(available) <= t_v else rng.sample(available, t_v)
        entries[primitive] = tuple(chosen)
    return VisualDB(entries=entries, cap=t_v)


def encode_index(
    db: LinguisticDB | VisualDB,
    params: ParamSet,
    vocabs: Vocabularies,
    corpus: Corpus,
    snapshot_version: int,
) -> FeatureIndex:
    """Encode every stored context under the current parameters.

    Record order equals database iteration order; provenance is unchanged
    across re-encodings, only the vectors move.
    """
    linguistic = isinstance(db, LinguisticDB)
    if linguistic:
        questions = {s.question.id: s.question for s in corpus.samples}
    else:
        graphs = corpus.scene_graphs()

    vectors: list[np.ndarray] = []
    records: list[IndexRecord] = []
    feature_cache: dict[str, np.ndarray] = {}
    ordinal = 0
    for primitive, sources in db.entries.items():
        for source_id, position in sources:
            feats = feature_cache.get(source_id)
            if feats is None:
                if linguistic:
                    question = questions.get(source_id)
                    if question is None:
                        raise RetrievalError(f"dangling question id {source_id!r} in database")
                    feats = encode_question(params, question_token_ids(vocabs, question.text))
                else:
                    graph = graphs.get(source_id)
                    if graph is None:
                        raise RetrievalError(f"dangling image id {source_id!r} in database")
                    feats = encode_image(params, scene_object_ids(vocabs, graph))
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


def cosine(a: np.ndarray, b: np.ndarray) -> float:
    """Cosine similarity; zero when either norm is below 1e-12."""
    a = np.asarray(a, dtype=float)
    b = np.asarray(b, dtype=float)
    if a.shape != b.shape:
        raise RetrievalError(f"dimension mismatch: {a.shape} vs {b.shape}")
    na = np.linalg.norm(a)
    nb = np.linalg.norm(b)
    if na < NORM_FLOOR or nb < NORM_FLOOR:
        return 0.0
    return float(np.dot(a, b) / (na * nb))


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
    if query.shape != (index.dim,):
        raise RetrievalError(f"query dimension {query.shape} != index dimension ({index.dim},)")
    if not np.all(np.isfinite(query)):
        raise RetrievalError("non-finite query vector")

    if exclude_source is None:
        candidate = np.arange(index.size)
    else:
        candidate = np.flatnonzero(index.source_ids != exclude_source)
        if candidate.size == 0:
            return RetrievalResult(items=())

    q_norm = np.linalg.norm(query)
    sims = index.vectors[candidate] @ query
    norms = index.norms[candidate]
    if q_norm < NORM_FLOOR:
        sims = np.zeros_like(sims)
    else:
        valid = norms >= NORM_FLOOR
        sims = np.where(valid, sims / np.where(valid, norms * q_norm, 1.0), 0.0)
    sims = np.clip(sims, -1.0, 1.0)

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
