"""Retrieval-augmented training: per-primitive retrieval from both databases,
weighted aggregation, feature replacement, and the optimization loop with
periodic index refresh.

Aggregation modes:
  weighted_feature (default)  p_a = p + (w_q/K_q) * sum cos(p, r) * r  [+ visual term]
  scalar_broadcast            p_a = p + (w_q * mean cos + w_v * mean cos) per component

Retrieved vectors are snapshot constants: no gradient flows into the
aggregation additions.
"""

from __future__ import annotations

import logging
from dataclasses import dataclass, field

import numpy as np

from .corpus import Corpus, Sample
from .model import (
    NumericError,
    OptimizerConfig,
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
    LinguisticDB,
    RetrievalError,
    RetrievalResult,
    VisualDB,
    cosine,
    encode_index,
    retrieve,
)
from .primitives import OPEN_CLASS, Lexicon, pos_tag, tokenize

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
        if self.w_q < 0 or self.w_v < 0:
            raise ValueError("aggregation weights must be non-negative")
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
        if self.learning_rate <= 0:
            raise ValueError("learning rate must be positive")


class TrainingDiverged(RuntimeError):
    pass


def aggregate(
    p: np.ndarray,
    retrieved_q: RetrievalResult | None,
    retrieved_v: RetrievalResult | None,
    config: AggregationConfig,
) -> np.ndarray:
    """Aggregate retrieved neighbor features into one primitive feature.

    An empty or disabled retrieval result contributes exactly zero; with both
    weights zero the input is returned unchanged (as a copy). A non-finite
    feature is rejected, as ``retrieve`` rejects a non-finite query.
    """
    if not np.all(np.isfinite(p)):
        raise RetrievalError("non-finite primitive feature")
    out = p.copy()
    scalar_term = 0.0
    for result, weight, depth, enabled in (
        (retrieved_q, config.w_q, config.k_q, config.use_dq),
        (retrieved_v, config.w_v, config.k_v, config.use_dv),
    ):
        if not enabled or result is None or weight == 0.0 or len(result) == 0:
            continue
        items = result.items[: depth]
        if config.mode == "weighted_feature":
            acc = np.zeros_like(p)
            for item in items:
                if item.vector.shape != p.shape:
                    raise ValueError("retrieved vector dimension mismatch")
                acc += cosine(p, item.vector) * item.vector
            out += (weight / depth) * acc
        else:
            scalar_term += (weight / depth) * sum(
                cosine(p, item.vector) for item in items
            )
    if scalar_term != 0.0:
        out += scalar_term
    return out


@dataclass
class AugmentedSample:
    q_features: np.ndarray
    v_features: np.ndarray
    q_delta: np.ndarray | None  # None when the aggregation added nothing
    v_delta: np.ndarray | None
    retrieval_rounds: int = 0


def augment_sample(
    sample: Sample,
    params: ParamSet,
    vocabs: Vocabularies,
    lexicon: Lexicon,
    index_q: FeatureIndex | None,
    index_v: FeatureIndex | None,
    config: AggregationConfig,
) -> AugmentedSample:
    """Retrieve-and-aggregate every primitive feature of one sample.

    Word positions whose POS tag is not an open class pass through
    unchanged; every object feature is augmented. Records sourced from this
    sample are excluded from retrieval.
    """
    token_ids = question_token_ids(vocabs, sample.question.text)
    objects = scene_object_ids(vocabs, sample.scene_graph)
    h_q = encode_question(params, token_ids)
    h_v = encode_image(params, objects)

    tokens = tokenize(sample.question.text)
    tags = pos_tag(tokens, lexicon)
    rounds = 0

    def _retrieved(p: np.ndarray, exclude_q: str, exclude_v: str):
        nonlocal rounds
        r_q = r_v = None
        if config.use_dq and index_q is not None:
            r_q = retrieve(p, index_q, config.k_q, exclude_source=exclude_q)
            rounds += 1
        if config.use_dv and index_v is not None:
            r_v = retrieve(p, index_v, config.k_v, exclude_source=exclude_v)
            rounds += 1
        return r_q, r_v

    q_delta = np.zeros_like(h_q)
    for i, tag in enumerate(tags):
        if tag not in OPEN_CLASS:
            continue
        r_q, r_v = _retrieved(h_q[i], sample.question.id, sample.scene_graph.image_id)
        q_delta[i] = aggregate(h_q[i], r_q, r_v, config) - h_q[i]

    v_delta = np.zeros_like(h_v)
    for j in range(h_v.shape[0]):
        r_q, r_v = _retrieved(h_v[j], sample.question.id, sample.scene_graph.image_id)
        v_delta[j] = aggregate(h_v[j], r_q, r_v, config) - h_v[j]

    return AugmentedSample(
        q_features=h_q,
        v_features=h_v,
        q_delta=q_delta if q_delta.any() else None,
        v_delta=v_delta if v_delta.any() else None,
        retrieval_rounds=rounds,
    )


@dataclass
class TrainResult:
    params: ParamSet
    metrics: list[dict] = field(default_factory=list)


def train(
    train_corpus: Corpus,
    db_q: LinguisticDB | None,
    db_v: VisualDB | None,
    params: ParamSet,
    vocabs: Vocabularies,
    lexicon: Lexicon,
    train_config: TrainConfig,
    agg_config: AggregationConfig | None,
    val_corpus: Corpus | None = None,
) -> TrainResult:
    """Sequential, deterministic training loop.

    With ``agg_config=None`` (or both databases disabled) this is the plain
    baseline loop. Otherwise the enabled indices are re-encoded every
    ``refresh_every`` epochs and every sample is augmented before the
    forward/backward pass.
    """
    answer_index = {a: i for i, a in enumerate(vocabs.answers)}
    opt_config = OptimizerConfig(learning_rate=train_config.learning_rate)
    velocity: ParamSet | None = None

    retrieval_on = agg_config is not None and (
        (agg_config.use_dq and db_q is not None) or (agg_config.use_dv and db_v is not None)
    )
    index_q: FeatureIndex | None = None
    index_v: FeatureIndex | None = None
    snapshot_version = 0
    metrics: list[dict] = []
    step = 0

    for epoch in range(1, train_config.epochs + 1):
        if retrieval_on and (epoch - 1) % agg_config.refresh_every == 0:
            snapshot_version += 1
            if agg_config.use_dq and db_q is not None:
                index_q = encode_index(db_q, params, vocabs, train_corpus, snapshot_version)
            if agg_config.use_dv and db_v is not None:
                index_v = encode_index(db_v, params, vocabs, train_corpus, snapshot_version)
            log.debug("epoch %d: encoded index snapshot %d", epoch, snapshot_version)

        losses = []
        for sample in train_corpus.samples:
            step += 1
            token_ids = question_token_ids(vocabs, sample.question.text)
            objects = scene_object_ids(vocabs, sample.scene_graph)
            q_delta = v_delta = None
            if retrieval_on:
                try:
                    augmented = augment_sample(
                        sample, params, vocabs, lexicon, index_q, index_v, agg_config
                    )
                except RetrievalError as exc:
                    raise TrainingDiverged(f"retrieval failed at step {step}: {exc}") from exc
                q_delta, v_delta = augmented.q_delta, augmented.v_delta
            try:
                loss, _probs, grads = loss_and_grads(
                    params, token_ids, objects, answer_index[sample.answer],
                    q_delta, v_delta,
                )
            except NumericError as exc:
                raise TrainingDiverged(f"non-finite loss at step {step}: {exc}") from exc
            if not np.isfinite(loss):
                raise TrainingDiverged(f"non-finite loss at step {step}")
            losses.append(loss)
            try:
                params, velocity = optimizer_step(params, grads, opt_config, velocity)
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
