"""Linguistic and visual primitive databases and exact top-K cosine retrieval.

A database maps each primitive to up to T sampled contexts (question id +
token position, or image id + object ordinal). Encoding a database under the
current model parameters produces an immutable FeatureIndex snapshot; queries
against a snapshot are exact top-K by cosine similarity with ties broken by
insertion ordinal.

A snapshot's rows repeat (a word's feature depends only on its question
prefix, an object's only on its labels), so search scores each distinct
vector once and ranks in distinct-vector space: the K-th best distinct score
among those that still hold a candidate row is a lower bound on the K-th best
row score, so only the distinct vectors at or above it are expanded to rows.
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
    "search",
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
    """Immutable snapshot of encoded database entries, one row per record,
    each record's ordinal its row. Every vector must be finite.

    For search it keeps the distinct vectors (``unique``) and their norms,
    and, as int arrays built once: each distinct vector's row count
    (``unique_counts``); the rows grouped by distinct vector, in ordinal
    order within a group (``group_rows``), and each group's start in it
    (``group_starts``); each row's source as an integer code
    (``row_source``); and each source's rows as distinct-vector ids
    (``source_unique``), source ``c`` at
    ``source_starts[c]:source_starts[c + 1]``."""

    def __init__(self, vectors: np.ndarray, records: tuple[IndexRecord, ...], snapshot_version: int):
        if vectors.shape[0] != len(records):
            raise RetrievalError("vector/record count mismatch")
        for row, record in enumerate(records):
            if record.ordinal != row:
                raise RetrievalError(f"record ordinal {record.ordinal} is not its position {row}")
        finite = np.isfinite(vectors).all(axis=1)
        if not finite.all():
            row = int(np.argmin(finite))
            raise RetrievalError(
                f"non-finite vector in row {row} (source {records[row].source_id!r})"
            )
        self.vectors = vectors
        self.vectors.setflags(write=False)
        self.records = records
        self.snapshot_version = snapshot_version
        unique, row_unique, counts = np.unique(
            vectors, axis=0, return_inverse=True, return_counts=True
        )
        row_unique = row_unique.reshape(-1)
        self.unique = unique
        self.unique_norms = _norms(unique)
        self.unique_counts = counts
        self.group_rows = np.argsort(row_unique, kind="stable")
        self.group_starts = np.cumsum(counts) - counts
        self.source_codes: dict[str, int] = {}
        self.row_source = np.array(
            [self.source_codes.setdefault(r.source_id, len(self.source_codes)) for r in records],
            dtype=np.int64,
        )
        self.source_unique = row_unique[np.argsort(self.row_source, kind="stable")]
        self.source_starts = np.concatenate(([0], np.cumsum(np.bincount(self.row_source))))

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


def _norms(vectors: np.ndarray) -> np.ndarray:
    """Euclidean norm over the last axis; the expression ``np.linalg.norm``
    evaluates, without its dispatch."""
    return np.sqrt(np.add.reduce(vectors * vectors, axis=-1))


def cosines(queries: np.ndarray, rows: np.ndarray, row_norms: np.ndarray | None = None) -> np.ndarray:
    """Cosine similarity of each query against each row, clipped to [-1, 1].

    ``queries`` is one vector (result: one similarity per row) or a matrix
    of them (result: queries x rows). A similarity is zero where the
    query's or the row's norm is below NORM_FLOOR. ``row_norms`` are the
    rows' norms, when the caller has them.
    """
    if rows.shape[1:] != queries.shape[-1:]:
        raise RetrievalError(f"dimension mismatch: {queries.shape} vs rows of {rows.shape[1:]}")
    if row_norms is None:
        row_norms = _norms(rows)
    q_norms = _norms(queries)[..., np.newaxis]
    invalid = (q_norms < NORM_FLOOR) | (row_norms < NORM_FLOOR)
    denominators = q_norms * row_norms
    denominators[invalid] = 1.0
    sims = (queries @ rows.T) / denominators
    sims[invalid] = 0.0
    np.minimum(sims, 1.0, out=sims)
    return np.maximum(sims, -1.0, out=sims)


def cosine(a: np.ndarray, b: np.ndarray) -> float:
    """Cosine similarity of one pair: ``cosines`` of ``a`` against ``b``."""
    return float(cosines(np.asarray(a, dtype=float), np.asarray(b, dtype=float)[np.newaxis])[0])


def search(
    queries: np.ndarray,
    index: FeatureIndex,
    k: int,
    exclude_source: str | None = None,
) -> tuple[np.ndarray, np.ndarray]:
    """Exact top-K by cosine for each query row, ties broken by ordinal.

    Returns (rows, similarities), both queries x min(K, candidates): the
    index rows of each query's neighbours, best first, and their scores.
    Records whose source id equals ``exclude_source`` are not candidates.
    Each distinct index vector is scored once, so identical rows tie
    exactly. The m = min(K, candidates) best distinct vectors that still
    hold a candidate row hold at least m candidate rows, so every top-K row
    lies in a distinct vector scoring at least the m-th best of them; only
    those vectors are expanded to rows and sorted by (-sim, ordinal). An
    empty index yields no neighbours with a warning; a non-finite or
    mis-shaped query is an error.
    """
    if k < 1:
        raise ValueError("k must be >= 1")
    if queries.ndim != 2:
        raise RetrievalError(f"queries must be a matrix, got shape {queries.shape}")
    n = queries.shape[0]
    if index.size == 0:
        log.warning("retrieval against an empty index")
        return np.empty((n, 0), dtype=np.int64), np.empty((n, 0))
    if not np.isfinite(queries).all():
        raise RetrievalError("non-finite query vector")

    sims = cosines(queries, index.unique, index.unique_norms)
    n_unique = sims.shape[1]
    code = index.source_codes.get(exclude_source, -1)
    m = index.size
    excluded = 0  # the excluded source's rows per distinct vector
    if code >= 0:
        start, stop = index.source_starts[code], index.source_starts[code + 1]
        excluded = np.bincount(index.source_unique[start:stop], minlength=n_unique)
        m -= stop - start
        # a distinct vector whose rows all come from the excluded source holds no candidate
        np.copyto(sims, -np.inf, where=index.unique_counts == excluded)
    m = min(k, m)
    if m == 0:
        return np.empty((n, 0), dtype=np.int64), np.empty((n, 0))
    # the m-th best distinct score per query; -inf keeps every distinct vector
    cut = n_unique - m
    kth = np.partition(sims, cut, axis=1)[:, cut : cut + 1] if cut > 0 else -np.inf
    query_row, group = np.nonzero(~(sims < kth))
    # expand each surviving distinct vector to its first rows in ordinal order: its
    # rows tie, so no more than its first m candidate rows can be kept
    sizes = np.minimum(index.unique_counts, excluded + m)[group]
    ends = np.cumsum(sizes)
    shifts = np.repeat(index.group_starts[group] - ends + sizes, sizes)
    rows = index.group_rows[np.arange(ends[-1]) + shifts]
    row_sims = np.repeat(sims[query_row, group], sizes)
    query_row = np.repeat(query_row, sizes)
    if code >= 0:
        # the excluded source's rows sort after every candidate of their query
        row_sims[index.row_source[rows] == code] = -np.inf
    order = np.lexsort((rows, -row_sims, query_row))
    # survivors are grouped by query row, each query's candidates first; keep its first m
    counts = np.bincount(query_row, minlength=n)
    firsts = np.cumsum(counts) - counts
    keep = order[(firsts[:, np.newaxis] + np.arange(m)).reshape(-1)]
    return rows[keep].reshape(n, m), row_sims[keep].reshape(n, m)


def retrieve(
    query: np.ndarray,
    index: FeatureIndex,
    k: int,
    exclude_source: str | None = None,
) -> RetrievalResult:
    """Exact top-K by cosine over all records, ties broken by ordinal: the
    one-query view of ``search``.

    Records whose source id equals ``exclude_source`` never participate.
    Returns fewer than K items when the index is small; an empty index
    yields an empty result with a warning. A non-finite query is an error.
    """
    rows, sims = search(np.asarray(query)[np.newaxis], index, k, exclude_source)
    items = tuple(
        RetrievedItem(vector=index.vectors[row], similarity=float(sim), record=index.records[row])
        for row, sim in zip(rows[0].tolist(), sims[0].tolist())
    )
    return RetrievalResult(items=items)
