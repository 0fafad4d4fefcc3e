"""A plain-Python reference for the paper's retrieval-augmented training loop.

``reference_train`` re-states what ``ragtrain.train`` computes, one scalar
at a time:

- at every epoch, each database's index is rebuilt from ``db.entries`` under
  the current parameters, one (vector, norm, source, ordinal) row per stored
  context, in entry order;
- every primitive feature of a sample (the word features at the positions
  ``extract_linguistic`` reports, and every object feature) scores every row
  with a scalar cosine (0 below a norm of 1e-12, clipped to [-1, 1]), drops
  the rows of the sample's own source (its question id in D_q, its image id
  in D_v), sorts by (-similarity, ordinal) and keeps the first K;
- its delta is (w/K)·Σ sim·r in ``weighted_feature`` mode, or (w/K)·Σ sim
  added to every component in ``scalar_broadcast``, summed over the indices;
- the update is ``flat - lr·g``.

It shares with the package only what other tests certify on their own: the
encoders and ``loss_and_grads`` (criterion 3), the id helpers and
``extract_linguistic``. It calls no ``search``, ``augment_sample``,
``FeatureIndex``, ``_Encoder`` or ``aggregate``.
"""

from __future__ import annotations

import math

import numpy as np

from ragvqa.model import (
    ParamSet,
    encode_image,
    encode_question,
    loss_and_grads,
    question_token_ids,
    scene_object_ids,
)
from ragvqa.primitives import Modality, extract_linguistic


def _norm(vector: list[float]) -> float:
    return math.sqrt(math.fsum(x * x for x in vector))


def reference_cosine(a: list[float], norm_a: float, b: list[float], norm_b: float) -> float:
    """Cosine of two vectors given their norms: 0 when either norm is below
    1e-12, else clipped to [-1, 1]."""
    if norm_a < 1e-12 or norm_b < 1e-12:
        return 0.0
    return min(1.0, max(-1.0, math.fsum(x * y for x, y in zip(a, b)) / (norm_a * norm_b)))


def reference_index(db, params: ParamSet, vocabs, corpus) -> list[tuple]:
    """(vector, norm, source id, ordinal) per stored context, in entry order."""
    questions = {s.question.id: s.question.text for s in corpus.samples}
    graphs = {s.scene_graph.image_id: s.scene_graph for s in corpus.samples}
    rows = []
    for contexts in db.entries.values():
        for source, position in contexts:
            if db.modality is Modality.LINGUISTIC:
                units = encode_question(params, question_token_ids(vocabs, questions[source]))
            else:
                units = encode_image(params, scene_object_ids(vocabs, graphs[source]))
            vector = units[position].tolist()
            rows.append((vector, _norm(vector), source, len(rows)))
    return rows


def reference_delta(feature: list[float], lookups, mode: str) -> list[float]:
    """The sum over ``lookups`` of one feature's aggregation terms. Each
    lookup is (index rows, excluded source, weight, K)."""
    delta = [0.0] * len(feature)
    norm = _norm(feature)
    for rows, exclude, weight, k in lookups:
        ranked = sorted(
            (-reference_cosine(feature, norm, vector, row_norm), ordinal, vector)
            for vector, row_norm, source, ordinal in rows
            if source != exclude
        )
        for negative_sim, _ordinal, vector in ranked[:k]:
            for i in range(len(delta)):
                term = -negative_sim * vector[i] if mode == "weighted_feature" else -negative_sim
                delta[i] += weight / k * term
    return delta


def reference_train(corpus, db_q, db_v, params: ParamSet, vocabs, lexicon, epochs, lr, agg):
    """(per-epoch mean losses, final flat parameters) of plain SGD over
    ``corpus`` in order; with ``agg``, every sample is augmented from the
    databases given (``None`` for one left out)."""
    answer_index = {a: i for i, a in enumerate(vocabs.answers)}
    terms = [] if agg is None else [
        (db, source_of, weight, k)
        for db, source_of, weight, k in (
            (db_q, lambda s: s.question.id, agg.w_q, agg.k_q),
            (db_v, lambda s: s.scene_graph.image_id, agg.w_v, agg.k_v),
        )
        if db is not None
    ]
    flat, shapes = params.flat.copy(), [a.shape for a in params.arrays()]
    mean_losses = []
    for _epoch in range(epochs):
        current = ParamSet.from_flat(flat, shapes)
        indices = [
            (reference_index(db, current, vocabs, corpus), source_of, weight, k)
            for db, source_of, weight, k in terms
        ]
        losses = []
        for sample in corpus.samples:
            current = ParamSet.from_flat(flat, shapes)
            token_ids = question_token_ids(vocabs, sample.question.text)
            objects = scene_object_ids(vocabs, sample.scene_graph)
            q_delta = v_delta = None
            if indices:
                lookups = [(rows, source_of(sample), w, k) for rows, source_of, w, k in indices]
                h_q = encode_question(current, token_ids)
                q_delta = np.zeros_like(h_q)
                for occurrence in extract_linguistic(sample.question, lexicon)[1]:
                    q_delta[occurrence.position] = reference_delta(
                        h_q[occurrence.position].tolist(), lookups, agg.mode
                    )
                v_delta = np.array([
                    reference_delta(row.tolist(), lookups, agg.mode)
                    for row in encode_image(current, objects)
                ])
            loss, _probs, grads = loss_and_grads(
                current, token_ids, objects, answer_index[sample.answer], q_delta, v_delta
            )
            losses.append(loss)
            flat = flat - lr * grads.flat
        mean_losses.append(math.fsum(losses) / len(losses))
    return mean_losses, flat
