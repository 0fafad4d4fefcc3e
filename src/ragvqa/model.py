"""A small hand-differentiated VQA model.

Linguistic encoder: Elman-style recurrence over word embeddings.
Visual encoder: per object, tanh(category embedding + mean attribute embedding).
Fusion: mean-pool both feature lists, concatenate, dense-tanh-dense-softmax.

Everything is float64 and deterministic. Gradients are exact analytic
derivatives of the cross-entropy loss; retrieval-aggregated additions to the
encoder outputs (the optional deltas) are treated as constants.
"""

from __future__ import annotations

import functools
import json
import math
import struct
from dataclasses import dataclass
from pathlib import Path
from typing import Callable, Sequence

import numpy as np

from .corpus import Corpus, Sample, SceneGraph
from .primitives import tokenize

__all__ = [
    "ModelError",
    "NumericError",
    "ParamSet",
    "Vocabularies",
    "build_vocabularies",
    "init_params",
    "question_token_ids",
    "scene_object_ids",
    "encode_question",
    "encode_image",
    "forward",
    "cross_entropy",
    "loss_and_grads",
    "optimizer_step",
    "finite_difference_grad",
    "gradient_check",
    "predict_answer",
    "answered_correctly",
    "corpus_accuracy",
    "save_checkpoint",
    "load_checkpoint",
]

UNK = "<unk>"
PROB_FLOOR = 1e-12

# parameter group order is the checkpoint serialization order
_PARAM_FIELDS = (
    "word_emb", "w_in", "w_h", "b_h",
    "cat_emb", "attr_emb", "w1", "b1", "w2", "b2",
)


class ModelError(Exception):
    pass


class NumericError(ModelError):
    pass


@functools.cache
def _layout(shapes: tuple[tuple[int, ...], ...]) -> tuple[tuple[str, slice, tuple[int, ...]], ...]:
    """(field, its slice of the flat buffer, its shape) per field, in
    ``_PARAM_FIELDS`` order; computed once per shape tuple."""
    if len(shapes) != len(_PARAM_FIELDS):
        raise ModelError(f"expected {len(_PARAM_FIELDS)} parameter shapes, got {len(shapes)}")
    fields = []
    offset = 0
    for name, shape in zip(_PARAM_FIELDS, shapes):
        size = math.prod(shape)
        fields.append((name, slice(offset, offset + size), shape))
        offset += size
    return tuple(fields)


def _param_shapes(
    n_words: int, n_labels: int, n_answers: int, d: int, d_h: int
) -> tuple[tuple[int, ...], ...]:
    return (
        (n_words, d), (d, d), (d, d), (d,),
        (n_labels, d), (n_labels, d), (2 * d, d_h), (d_h,), (d_h, n_answers), (n_answers,),
    )


def _param_count(shapes: Sequence[Sequence[int]]) -> int:
    return sum(math.prod(shape) for shape in shapes)


class ParamSet:
    """Model parameters; the same structure holds gradients.

    Every value lives in one contiguous float64 buffer, ``flat``, laid out in
    ``_PARAM_FIELDS`` order, and each named field is a view of it:
    ``word_emb`` (n_words, d), ``w_in`` and ``w_h`` (d, d), ``b_h`` (d,),
    ``cat_emb`` and ``attr_emb`` (n_labels, d), ``w1`` (2d, d_h), ``b1``
    (d_h,), ``w2`` (d_h, n_answers) and ``b2`` (n_answers,). Assigning to a
    field writes into its view, so the fields never leave the buffer.
    """

    def __init__(self, word_emb, w_in, w_h, b_h, cat_emb, attr_emb, w1, b1, w2, b2) -> None:
        """Copy the given arrays into a new buffer."""
        arrays = [
            np.asarray(a) for a in (word_emb, w_in, w_h, b_h, cat_emb, attr_emb, w1, b1, w2, b2)
        ]
        flat = np.concatenate([a.ravel() for a in arrays], dtype=np.float64)
        self._bind(flat, _layout(tuple(a.shape for a in arrays)))

    @classmethod
    def from_flat(cls, flat: np.ndarray, shapes: Sequence[Sequence[int]]) -> "ParamSet":
        """Wrap ``flat`` without copying; ``shapes`` are the fields' shapes in
        ``_PARAM_FIELDS`` order."""
        layout = _layout(tuple(tuple(shape) for shape in shapes))
        size = _param_count(shapes)
        if flat.dtype != np.float64 or flat.shape != (size,):
            raise ModelError(
                f"a parameter buffer of these shapes is float64 ({size},), "
                f"got {flat.dtype} {flat.shape}"
            )
        return cls.__new__(cls)._bind(flat, layout)

    def _bind(self, flat: np.ndarray, layout) -> "ParamSet":
        state = self.__dict__
        state["flat"] = flat
        state["_layout"] = layout
        for name, span, shape in layout:
            state[name] = flat[span].reshape(shape)
        return self

    def _like(self, flat: np.ndarray) -> "ParamSet":
        """A ParamSet of this one's shapes over ``flat``, not copied."""
        return ParamSet.__new__(ParamSet)._bind(flat, self._layout)

    def __setattr__(self, name: str, value) -> None:
        if name not in _PARAM_FIELDS:
            raise AttributeError(f"ParamSet has no settable attribute {name!r}")
        view = self.__dict__[name]
        value = np.asarray(value)
        if value.shape != view.shape:
            raise ModelError(f"{name} has shape {view.shape}, cannot assign shape {value.shape}")
        view[...] = value

    @property
    def shapes(self) -> tuple[tuple[int, ...], ...]:
        return tuple(shape for _name, _span, shape in self._layout)

    @property
    def d(self) -> int:
        return self.word_emb.shape[1]

    @property
    def d_h(self) -> int:
        return self.w1.shape[1]

    @property
    def n_answers(self) -> int:
        return self.w2.shape[1]

    def arrays(self) -> list[np.ndarray]:
        return [self.__dict__[name] for name in _PARAM_FIELDS]

    def zeros_like(self) -> "ParamSet":
        return self._like(np.zeros_like(self.flat))

    def copy(self) -> "ParamSet":
        return self._like(self.flat.copy())

    def all_finite(self) -> bool:
        return bool(np.isfinite(self.flat).all())


@dataclass(frozen=True)
class Vocabularies:
    words: dict[str, int]    # token -> id, "<unk>" at 0
    labels: dict[str, int]   # category/attribute label -> id, "<unk>" at 0
    answers: tuple[str, ...]  # train answers plus a trailing "<unk>" class


def build_vocabularies(train_corpus: Corpus) -> Vocabularies:
    words = sorted({tok for s in train_corpus.samples for tok in tokenize(s.question.text)})
    labels = sorted(
        {
            lbl
            for s in train_corpus.samples
            for obj in s.scene_graph.objects
            for lbl in (obj.category, *obj.attributes)
        }
    )
    word_ids = {UNK: 0, **{w: i + 1 for i, w in enumerate(words)}}
    label_ids = {UNK: 0, **{l: i + 1 for i, l in enumerate(labels)}}
    answers = tuple(train_corpus.answer_vocab) + (UNK,)
    return Vocabularies(word_ids, label_ids, answers)


def init_params(
    n_words: int, n_labels: int, n_answers: int, d: int = 16, d_h: int = 32, seed: int = 0
) -> ParamSet:
    """Uniform(-0.1, 0.1) initialization from a seeded generator, drawn in
    ``_PARAM_FIELDS`` order."""
    shapes = _param_shapes(n_words, n_labels, n_answers, d, d_h)
    flat = np.random.default_rng(seed).uniform(-0.1, 0.1, size=_param_count(shapes))
    return ParamSet.from_flat(flat, shapes)


def question_token_ids(vocabs: Vocabularies, text: str) -> list[int]:
    return [vocabs.words.get(tok, 0) for tok in tokenize(text)]


def scene_object_ids(
    vocabs: Vocabularies, scene: SceneGraph
) -> list[tuple[int, tuple[int, ...]]]:
    return [
        (
            vocabs.labels.get(obj.category, 0),
            tuple(vocabs.labels.get(a, 0) for a in sorted(obj.attributes)),
        )
        for obj in scene.objects
    ]


def encode_question(params: ParamSet, token_ids: Sequence[int]) -> np.ndarray:
    """Recurrent word features, one d-vector per token."""
    if len(token_ids) == 0:
        raise ModelError("cannot encode an empty question")
    d = params.d
    h = np.zeros(d)
    out = np.empty((len(token_ids), d))
    for i, t in enumerate(token_ids):
        h = np.tanh(params.w_in @ params.word_emb[t] + params.w_h @ h + params.b_h)
        out[i] = h
    return out


def encode_image(
    params: ParamSet, objects: Sequence[tuple[int, tuple[int, ...]]]
) -> np.ndarray:
    """Object features: tanh(category embedding + mean attribute embedding)."""
    if len(objects) == 0:
        raise ModelError("cannot encode a scene graph with no objects")
    out = np.empty((len(objects), params.d))
    for i, (cat_id, attr_ids) in enumerate(objects):
        u = params.cat_emb[cat_id].copy()
        if attr_ids:
            u += params.attr_emb[list(attr_ids)].mean(axis=0)
        out[i] = np.tanh(u)
    return out


def _softmax(logits: np.ndarray) -> np.ndarray:
    z = logits - logits.max()
    e = np.exp(z)
    return e / e.sum()


def _fuse(
    params: ParamSet, q_features: np.ndarray, v_features: np.ndarray
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """The fusion head: (pooled input z, hidden layer a1, answer distribution)."""
    z = np.concatenate([q_features.mean(axis=0), v_features.mean(axis=0)])
    a1 = np.tanh(z @ params.w1 + params.b1)
    if not np.all(np.isfinite(a1)):
        raise NumericError("non-finite values in fusion hidden layer")
    logits = a1 @ params.w2 + params.b2
    if not np.all(np.isfinite(logits)):
        raise NumericError("non-finite values in fusion logit layer")
    return z, a1, _softmax(logits)


def forward(params: ParamSet, q_features: np.ndarray, v_features: np.ndarray) -> np.ndarray:
    """Answer distribution from the two feature lists."""
    if q_features.shape[0] == 0 or v_features.shape[0] == 0:
        raise ModelError("forward requires non-empty feature lists")
    return _fuse(params, q_features, v_features)[2]


def cross_entropy(probs: np.ndarray, answer_index: int) -> float:
    """Negative log likelihood with the probability clamped at 1e-12."""
    return float(-np.log(max(float(probs[answer_index]), PROB_FLOOR)))


def loss_and_grads(
    params: ParamSet,
    token_ids: Sequence[int],
    objects: Sequence[tuple[int, tuple[int, ...]]],
    answer_index: int,
    q_delta: np.ndarray | None = None,
    v_delta: np.ndarray | None = None,
    encoded: tuple[np.ndarray, np.ndarray] | None = None,
) -> tuple[float, np.ndarray, ParamSet]:
    """Forward pass plus exact analytic gradients.

    ``q_delta`` / ``v_delta`` are optional constant additions to the encoder
    outputs (retrieval aggregation); no gradient flows into them.
    ``encoded``, if given, is ``(h_q, h_v)`` encoded under ``params`` from these ids.
    Returns (loss, answer distribution, gradients).
    """
    if encoded is None:
        encoded = encode_question(params, token_ids), encode_image(params, objects)
    h_q, h_v = encoded
    if q_delta is not None and q_delta.shape != h_q.shape:
        raise ModelError(
            f"question delta shape {q_delta.shape} != encoder output {h_q.shape}"
        )
    if v_delta is not None and v_delta.shape != h_v.shape:
        raise ModelError(
            f"visual delta shape {v_delta.shape} != encoder output {h_v.shape}"
        )
    q_aug = h_q if q_delta is None else h_q + q_delta
    v_aug = h_v if v_delta is None else h_v + v_delta
    z, a1, probs = _fuse(params, q_aug, v_aug)
    loss = cross_entropy(probs, answer_index)

    grads = params.zeros_like()
    if float(probs[answer_index]) <= PROB_FLOOR:
        # clamp engaged: the loss is locally constant
        return loss, probs, grads

    d_logits = grads.b2
    d_logits[...] = probs
    d_logits[answer_index] -= 1.0
    np.outer(a1, d_logits, out=grads.w2)
    d_z1 = (params.w2 @ d_logits) * (1.0 - a1 * a1)
    np.outer(z, d_z1, out=grads.w1)
    grads.b1[...] = d_z1
    d_z = params.w1 @ d_z1
    d = params.d
    n, m = h_q.shape[0], h_v.shape[0]

    # question side: backprop through time (deltas are constants); the loop
    # carries the recurrence, the weight gradients sum over all tokens at once
    d_q_each = d_z[:d] / n
    dtanh_q = 1.0 - h_q * h_q
    w_h_t = params.w_h.T
    d_pre = np.empty_like(h_q)
    d_h = d_q_each
    for i in range(n - 1, -1, -1):
        d_pre[i] = d_h * dtanh_q[i]
        d_h = d_q_each + w_h_t @ d_pre[i]
    grads.w_in[...] = d_pre.T @ params.word_emb[token_ids]
    grads.w_h[...] = d_pre[1:].T @ h_q[:-1]
    grads.b_h[...] = d_pre.sum(axis=0)
    np.add.at(grads.word_emb, token_ids, d_pre @ params.w_in)

    # visual side: repeated category and attribute ids add up
    d_u = (d_z[d:] / m) * (1.0 - h_v * h_v)
    np.add.at(grads.cat_emb, [cat_id for cat_id, _ in objects], d_u)
    owners = [j for j, (_, attr_ids) in enumerate(objects) for _ in attr_ids]
    if owners:
        counts = np.array([len(objects[j][1]) for j in owners], dtype=np.float64)
        np.add.at(
            grads.attr_emb,
            [a for _, attr_ids in objects for a in attr_ids],
            d_u[owners] / counts[:, np.newaxis],
        )
    return loss, probs, grads


def optimizer_step(params: ParamSet, grads: ParamSet, learning_rate: float) -> ParamSet:
    """One plain gradient-descent step into a new buffer; neither input changes."""
    new_params = params._like(params.flat - learning_rate * grads.flat)
    if not new_params.all_finite():
        raise NumericError("non-finite parameter update")
    return new_params


# ---------------------------------------------------------------------------
# The finite-difference oracle
# ---------------------------------------------------------------------------


def finite_difference_grad(
    loss_fn: Callable[[ParamSet], float],
    params: ParamSet,
    coords: Sequence[int],
    eps: float = 1e-5,
) -> np.ndarray:
    """Central-difference gradient at the given coordinates of ``flat``."""
    out = np.empty(len(coords))
    for k, idx in enumerate(coords):
        values = []
        for sign in (+1.0, -1.0):
            bumped = params.flat.copy()
            bumped[idx] += sign * eps
            values.append(loss_fn(params._like(bumped)))
        plus, minus = values
        out[k] = (plus - minus) / (2.0 * eps)
    return out


def gradient_check(
    params: ParamSet,
    loss_fn: Callable[[ParamSet], float],
    analytic: ParamSet,
    n_coords: int = 100,
    eps: float = 1e-5,
    seed: int = 0,
) -> float:
    """Max relative error between analytic and central-difference gradients
    over ``n_coords`` randomly selected parameter coordinates."""
    flat_analytic = analytic.flat
    rng = np.random.default_rng(seed)
    coords = rng.choice(flat_analytic.size, size=min(n_coords, flat_analytic.size), replace=False)
    fd = finite_difference_grad(loss_fn, params, coords.tolist(), eps)
    an = flat_analytic[coords]
    denom = np.maximum(np.maximum(np.abs(an), np.abs(fd)), 1e-8)
    return float(np.max(np.abs(an - fd) / denom))


# ---------------------------------------------------------------------------
# Prediction helpers
# ---------------------------------------------------------------------------


def predict_answer(params: ParamSet, vocabs: Vocabularies, sample: Sample) -> str:
    """Argmax answer string for one sample, without retrieval."""
    token_ids = question_token_ids(vocabs, sample.question.text)
    objects = scene_object_ids(vocabs, sample.scene_graph)
    probs = forward(
        params, encode_question(params, token_ids), encode_image(params, objects)
    )
    return vocabs.answers[int(np.argmax(probs))]


def answered_correctly(
    params: ParamSet, vocabs: Vocabularies, samples: Sequence[Sample]
) -> list[bool]:
    """Whether the model's answer to each sample is exactly its ground truth.
    A ground truth outside the vocabulary is wrong without a prediction."""
    known = set(vocabs.answers[:-1])
    return [
        sample.answer in known and predict_answer(params, vocabs, sample) == sample.answer
        for sample in samples
    ]


def corpus_accuracy(params: ParamSet, vocabs: Vocabularies, samples: Sequence[Sample]) -> float:
    """Exact-match accuracy, by ``answered_correctly``; NaN for no samples."""
    if not samples:
        return float("nan")
    return sum(answered_correctly(params, vocabs, samples)) / len(samples)


# ---------------------------------------------------------------------------
# Checkpoint format: magic, version, dims, then float64 parameter groups
# ---------------------------------------------------------------------------

CHECKPOINT_MAGIC = b"MSCGCKPT"
CHECKPOINT_VERSION = 1
CHECKPOINT_HEADER = struct.Struct("<6I")  # version, d, d_h, n_words, n_labels, n_answers


def save_checkpoint(path: str | Path, params: ParamSet, vocabs: Vocabularies) -> None:
    path = Path(path)
    n_words = params.word_emb.shape[0]
    n_labels = params.cat_emb.shape[0]
    with open(path, "wb") as fh:
        fh.write(CHECKPOINT_MAGIC)
        fh.write(
            CHECKPOINT_HEADER.pack(
                CHECKPOINT_VERSION, params.d, params.d_h, n_words, n_labels, params.n_answers,
            )
        )
        fh.write(params.flat.astype("<f8", copy=False).tobytes())
    sidecar = {
        "words": vocabs.words,
        "labels": vocabs.labels,
        "answers": list(vocabs.answers),
    }
    path.with_suffix(path.suffix + ".json").write_text(
        json.dumps(sidecar, indent=1, sort_keys=True), encoding="utf-8"
    )


def load_checkpoint(path: str | Path) -> tuple[ParamSet, Vocabularies]:
    path = Path(path)
    with open(path, "rb") as fh:
        magic = fh.read(len(CHECKPOINT_MAGIC))
        if magic != CHECKPOINT_MAGIC:
            raise ModelError(f"not a checkpoint file: bad magic {magic!r}")
        header = fh.read(CHECKPOINT_HEADER.size)
        if len(header) != CHECKPOINT_HEADER.size:
            raise ModelError("truncated checkpoint while reading the header")
        version, d, d_h, n_words, n_labels, n_answers = CHECKPOINT_HEADER.unpack(header)
        if version != CHECKPOINT_VERSION:
            raise ModelError(f"unsupported checkpoint version {version}")
        shapes = _param_shapes(n_words, n_labels, n_answers, d, d_h)
        n_bytes = 8 * _param_count(shapes)
        buf = fh.read(n_bytes)
        if len(buf) != n_bytes:
            raise ModelError(f"truncated checkpoint: {len(buf)} of {n_bytes} parameter bytes")
        if fh.read(1):
            raise ModelError("trailing bytes after the last parameter group")
    sidecar_text = path.with_suffix(path.suffix + ".json").read_text("utf-8")
    try:
        sidecar = json.loads(sidecar_text)
        vocabs = Vocabularies(
            words={k: int(v) for k, v in sidecar["words"].items()},
            labels={k: int(v) for k, v in sidecar["labels"].items()},
            answers=tuple(sidecar["answers"]),
        )
    except (KeyError, TypeError, AttributeError, ValueError) as exc:
        raise ModelError(f"malformed checkpoint sidecar: {type(exc).__name__}: {exc}") from exc
    for field_name, size, rows in (
        ("words", len(vocabs.words), n_words),
        ("labels", len(vocabs.labels), n_labels),
        ("answers", len(vocabs.answers), n_answers),
    ):
        if size != rows:
            raise ModelError(
                f"sidecar has {size} {field_name} but the checkpoint expects {rows}"
            )
    # every id indexes an embedding row, and every row has one id
    for field_name, ids in (("words", vocabs.words), ("labels", vocabs.labels)):
        if sorted(ids.values()) != list(range(len(ids))):
            raise ModelError(f"sidecar {field_name} ids are not exactly 0..{len(ids) - 1}")
    return ParamSet.from_flat(np.frombuffer(buf, dtype="<f8").astype(np.float64), shapes), vocabs
