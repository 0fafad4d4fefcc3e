"""Retrieval-augmented training: the optimization loop with periodic index
refresh, which encodes each sample once per step, and the augmentation of
those features: retrieval from both databases for all of a sample's
primitive features at once, weighted aggregation, feature replacement.

Aggregation modes:
  weighted_feature (default)  p_a = p + (w_q/K_q) * sum cos(p, r) * r  [+ visual term]
  scalar_broadcast            p_a = p + (w_q * mean cos + w_v * mean cos) per component

Retrieved vectors are snapshot constants: no gradient flows into the
aggregation additions.
"""

from __future__ import annotations

import logging
import math
from dataclasses import dataclass, field

import numpy as np

from .corpus import Corpus, Sample
from .model import (
    NumericError,
    ParamSet,
    Vocabularies,
    corpus_accuracy,
    encode_image,
    encode_question,
    loss_and_grads,
    optimizer_step,
    question_token_ids,
    scene_object_ids,
)
from .primdb import (
    FeatureIndex,
    PrimitiveDB,
    RetrievalError,
    RetrievalResult,
    cosines,
    encode_index,
    search,
)
from .primitives import Lexicon, extract_linguistic

__all__ = [
    "AggregationConfig",
    "TrainConfig",
    "TrainingDiverged",
    "AugmentedSample",
    "aggregate",
    "augment_sample",
    "train",
]

log = logging.getLogger(__name__)

AGGREGATION_MODES = ("weighted_feature", "scalar_broadcast")


@dataclass(frozen=True)
class AggregationConfig:
    w_q: float = 0.6
    w_v: float = 0.4
    k_q: int = 4
    k_v: int = 16
    mode: str = "weighted_feature"
    refresh_every: int = 1  # index rebuild cadence, in epochs
    use_dq: bool = True
    use_dv: bool = True

    def __post_init__(self) -> None:
        for name, weight in (("w_q", self.w_q), ("w_v", self.w_v)):
            if not (math.isfinite(weight) and weight >= 0):  # NaN fails it too
                raise ValueError(f"aggregation weight {name} must be finite and >= 0, got {weight}")
        if self.k_q < 1 or self.k_v < 1:
            raise ValueError("retrieval depths must be >= 1")
        if self.refresh_every < 1:
            raise ValueError("refresh_every must be >= 1")
        if self.mode not in AGGREGATION_MODES:
            raise ValueError(f"unknown aggregation mode {self.mode!r}")


@dataclass(frozen=True)
class TrainConfig:
    epochs: int = 10
    learning_rate: float = 0.05
    seed: int = 0

    def __post_init__(self) -> None:
        if self.epochs < 1:
            raise ValueError("epochs must be >= 1")
        if not (math.isfinite(self.learning_rate) and self.learning_rate > 0):
            raise ValueError(f"learning rate must be finite and > 0, got {self.learning_rate}")


class TrainingDiverged(RuntimeError):
    pass


def aggregate(
    p: np.ndarray,
    retrieved_q: RetrievalResult | None,
    retrieved_v: RetrievalResult | None,
    config: AggregationConfig,
) -> np.ndarray:
    """Aggregate retrieved neighbor features into one primitive feature.

    Every result passed in is added; an empty result or ``None`` contributes
    exactly zero, and with both weights zero the input is returned unchanged
    (as a copy). A non-finite feature is rejected, as ``retrieve`` rejects a
    non-finite query.
    """
    if not np.all(np.isfinite(p)):
        raise RetrievalError("non-finite primitive feature")
    out = p.copy()
    for result, weight, depth in (
        (retrieved_q, config.w_q, config.k_q),
        (retrieved_v, config.w_v, config.k_v),
    ):
        if not result or weight == 0.0:
            continue
        vectors = np.array([item.vector for item in result.items[:depth]])
        _add_neighbours(out, cosines(p, vectors), vectors, weight, depth, config.mode)
    return out


def _add_neighbours(
    out: np.ndarray, sims: np.ndarray, vectors: np.ndarray, weight: float, depth: int, mode: str
) -> None:
    """Add ``(w/K)·Σ sim·r`` (or ``(w/K)·Σ sim`` to every component, in
    ``scalar_broadcast``) to ``out`` in place. ``sims`` holds the neighbours'
    similarities on its last axis and ``vectors`` their rows on the one
    before; leading axes, when present, are one per feature."""
    if mode == "weighted_feature":
        out += (weight / depth) * np.matmul(sims[..., np.newaxis, :], vectors)[..., 0, :]
    else:
        out += (weight / depth) * sims.sum(axis=-1, keepdims=True)


@dataclass
class AugmentedSample:
    q_delta: np.ndarray | None  # None when the aggregation added nothing
    v_delta: np.ndarray | None
    retrieval_rounds: int = 0


def augment_sample(
    sample: Sample,
    h_q: np.ndarray,
    h_v: np.ndarray,
    positions: list[int],
    index_q: FeatureIndex | None,
    index_v: FeatureIndex | None,
    config: AggregationConfig,
) -> AugmentedSample:
    """Retrieve-and-aggregate every primitive feature of one encoded sample.

    The word features ``h_q`` at ``positions`` (those ``extract_linguistic``
    reports) and every object feature ``h_v`` are augmented; other words pass
    through unchanged. Every index passed in is searched once for all of
    them, and records sourced from ``sample`` are excluded. Each delta is
    what ``aggregate`` adds to that feature given its ``retrieve`` results.
    """
    features = np.concatenate((h_q[positions], h_v))
    out = features.copy()
    n_indices = 0
    for index, source, weight, depth in (
        (index_q, sample.question.id, config.w_q, config.k_q),
        (index_v, sample.scene_graph.image_id, config.w_v, config.k_v),
    ):
        if index is None:
            continue
        n_indices += 1
        rows, sims = search(features, index, depth, exclude_source=source)
        if weight != 0.0:
            _add_neighbours(out, sims, index.vectors[rows], weight, depth, config.mode)
    delta = out - features

    q_delta = np.zeros_like(h_q)
    q_delta[positions] = delta[: len(positions)]
    v_delta = delta[len(positions) :]
    return AugmentedSample(
        q_delta=q_delta if q_delta.any() else None,
        v_delta=v_delta if v_delta.any() else None,
        retrieval_rounds=features.shape[0] * n_indices,
    )


@dataclass
class TrainResult:
    params: ParamSet
    metrics: list[dict] = field(default_factory=list)


def train(
    train_corpus: Corpus,
    db_q: PrimitiveDB | None,
    db_v: PrimitiveDB | None,
    params: ParamSet,
    vocabs: Vocabularies,
    lexicon: Lexicon,
    train_config: TrainConfig,
    agg_config: AggregationConfig | None,
    val_corpus: Corpus | None = None,
) -> TrainResult:
    """Sequential, deterministic training loop.

    With ``agg_config=None`` (or no database both given and enabled) this is
    the plain baseline loop. Otherwise the index of each database that is
    given and enabled is re-encoded every ``refresh_every`` epochs, and every
    sample is augmented from those indices before the forward/backward pass.
    Each sample's ids, answer index and, with retrieval, primitive positions
    are derived once per call, and each step encodes its sample once for
    both retrieval and the loss. ``params`` itself is never modified.
    """
    if agg_config is None or not agg_config.use_dq:
        db_q = None
    if agg_config is None or not agg_config.use_dv:
        db_v = None
    retrieval_on = db_q is not None or db_v is not None

    answer_index = {a: i for i, a in enumerate(vocabs.answers)}
    steps = [
        (
            sample,
            question_token_ids(vocabs, sample.question.text),
            scene_object_ids(vocabs, sample.scene_graph),
            answer_index[sample.answer],
            [occ.position for occ in extract_linguistic(sample.question, lexicon)[1]]
            if retrieval_on
            else None,
        )
        for sample in train_corpus.samples
    ]
    index_q: FeatureIndex | None = None
    index_v: FeatureIndex | None = None
    snapshot_version = 0
    metrics: list[dict] = []
    step = 0

    for epoch in range(1, train_config.epochs + 1):
        if retrieval_on and (epoch - 1) % agg_config.refresh_every == 0:
            snapshot_version += 1
            if db_q is not None:
                index_q = encode_index(db_q, params, vocabs, train_corpus, snapshot_version)
            if db_v is not None:
                index_v = encode_index(db_v, params, vocabs, train_corpus, snapshot_version)
            log.debug("epoch %d: encoded index snapshot %d", epoch, snapshot_version)

        losses = []
        for sample, token_ids, objects, answer, positions in steps:
            step += 1
            h_q = encode_question(params, token_ids)
            h_v = encode_image(params, objects)
            q_delta = v_delta = None
            if retrieval_on:
                try:
                    augmented = augment_sample(
                        sample, h_q, h_v, positions, index_q, index_v, agg_config
                    )
                except RetrievalError as exc:
                    raise TrainingDiverged(f"retrieval failed at step {step}: {exc}") from exc
                q_delta, v_delta = augmented.q_delta, augmented.v_delta
            try:
                loss, _probs, grads = loss_and_grads(
                    params, token_ids, objects, answer, q_delta, v_delta, encoded=(h_q, h_v)
                )
            except NumericError as exc:
                raise TrainingDiverged(f"non-finite loss at step {step}: {exc}") from exc
            losses.append(loss)
            try:
                params = optimizer_step(params, grads, train_config.learning_rate)
            except NumericError as exc:
                raise TrainingDiverged(f"non-finite update at step {step}: {exc}") from exc

        entry = {
            "epoch": epoch,
            "mean_loss": float(np.mean(losses)),
            "val_accuracy": None,
            "snapshot_version": snapshot_version,
        }
        if val_corpus is not None:
            entry["val_accuracy"] = corpus_accuracy(params, vocabs, val_corpus.samples)
        metrics.append(entry)
        log.info(
            "epoch %d: mean loss %.4f val acc %s",
            epoch, entry["mean_loss"], entry["val_accuracy"],
        )

    return TrainResult(params=params, metrics=metrics)
