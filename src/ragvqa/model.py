"""A small hand-differentiated VQA model.

Linguistic encoder: Elman-style recurrence over word embeddings.
Visual encoder: per object, tanh(category embedding + mean attribute embedding).
Fusion: mean-pool both feature lists, concatenate, dense-tanh-dense-softmax.

Everything is float64 and deterministic. Gradients are exact analytic
derivatives of the cross-entropy loss; retrieval-aggregated additions to the
encoder outputs (the optional deltas) are treated as constants.
"""

from __future__ import annotations

import json
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
    "OptimizerConfig",
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
    "flatten_params",
    "unflatten_params",
    "finite_difference_grad",
    "gradient_check",
    "predict_answer",
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


@dataclass
class ParamSet:
    """Model parameters; the same structure holds gradients."""

    word_emb: np.ndarray   # (n_words, d)
    w_in: np.ndarray       # (d, d)
    w_h: np.ndarray        # (d, d)
    b_h: np.ndarray        # (d,)
    cat_emb: np.ndarray    # (n_labels, d)
    attr_emb: np.ndarray   # (n_labels, d)
    w1: np.ndarray         # (2d, d_h)
    b1: np.ndarray         # (d_h,)
    w2: np.ndarray         # (d_h, n_answers)
    b2: np.ndarray         # (d_h -> n_answers,) bias

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
        return [getattr(self, name) for name in _PARAM_FIELDS]

    def zeros_like(self) -> "ParamSet":
        return ParamSet(*(np.zeros_like(a) for a in self.arrays()))

    def copy(self) -> "ParamSet":
        return ParamSet(*(a.copy() for a in self.arrays()))

    def all_finite(self) -> bool:
        return all(np.all(np.isfinite(a)) for a in self.arrays())


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
    """Uniform(-0.1, 0.1) initialization from a seeded generator."""
    rng = np.random.default_rng(seed)

    def u(*shape):
        return rng.uniform(-0.1, 0.1, size=shape)

    return ParamSet(
        word_emb=u(n_words, d),
        w_in=u(d, d),
        w_h=u(d, d),
        b_h=u(d),
        cat_emb=u(n_labels, d),
        attr_emb=u(n_labels, d),
        w1=u(2 * d, d_h),
        b1=u(d_h),
        w2=u(d_h, n_answers),
        b2=u(n_answers),
    )


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


def forward(params: ParamSet, q_features: np.ndarray, v_features: np.ndarray) -> np.ndarray:
    """Answer distribution from the two feature lists."""
    if q_features.shape[0] == 0 or v_features.shape[0] == 0:
        raise ModelError("forward requires non-empty feature lists")
    z = np.concatenate([q_features.mean(axis=0), v_features.mean(axis=0)])
    a1 = np.tanh(z @ params.w1 + params.b1)
    if not np.all(np.isfinite(a1)):
        raise NumericError("non-finite values in fusion hidden layer")
    logits = a1 @ params.w2 + params.b2
    if not np.all(np.isfinite(logits)):
        raise NumericError("non-finite values in fusion logit layer")
    return _softmax(logits)


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
) -> tuple[float, np.ndarray, ParamSet]:
    """Forward pass plus exact analytic gradients.

    ``q_delta`` / ``v_delta`` are optional constant additions to the encoder
    outputs (retrieval aggregation); no gradient flows into them.
    Returns (loss, answer distribution, gradients).
    """
    h_q = encode_question(params, token_ids)
    h_v = encode_image(params, objects)
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

    n, m = q_aug.shape[0], v_aug.shape[0]
    q_bar = q_aug.mean(axis=0)
    v_bar = v_aug.mean(axis=0)
    z = np.concatenate([q_bar, v_bar])
    a1 = np.tanh(z @ params.w1 + params.b1)
    logits = a1 @ params.w2 + params.b2
    if not np.all(np.isfinite(logits)):
        raise NumericError("non-finite values in fusion layers")
    probs = _softmax(logits)
    loss = cross_entropy(probs, answer_index)

    grads = params.zeros_like()
    p_ans = float(probs[answer_index])
    if p_ans <= PROB_FLOOR:
        # clamp engaged: the loss is locally constant
        return loss, probs, grads

    d_logits = probs.copy()
    d_logits[answer_index] -= 1.0
    grads.w2 = np.outer(a1, d_logits)
    grads.b2 = d_logits
    d_a1 = params.w2 @ d_logits
    d_z1 = d_a1 * (1.0 - a1 * a1)
    grads.w1 = np.outer(z, d_z1)
    grads.b1 = d_z1
    d_z = params.w1 @ d_z1
    d = params.d
    d_qbar, d_vbar = d_z[:d], d_z[d:]

    # question side: backprop through time (deltas are constants)
    d_h_next = np.zeros(d)
    w_h_t = params.w_h.T
    w_in_t = params.w_in.T
    d_q_each = d_qbar / n
    for i in range(n - 1, -1, -1):
        d_h = d_q_each + d_h_next
        d_pre = d_h * (1.0 - h_q[i] * h_q[i])
        e = params.word_emb[token_ids[i]]
        grads.w_in += np.outer(d_pre, e)
        if i > 0:
            grads.w_h += np.outer(d_pre, h_q[i - 1])
        grads.b_h += d_pre
        grads.word_emb[token_ids[i]] += w_in_t @ d_pre
        d_h_next = w_h_t @ d_pre

    # visual side
    d_v_each = d_vbar / m
    for j, (cat_id, attr_ids) in enumerate(objects):
        d_u = d_v_each * (1.0 - h_v[j] * h_v[j])
        grads.cat_emb[cat_id] += d_u
        if attr_ids:
            share = d_u / len(attr_ids)
            for a in attr_ids:
                grads.attr_emb[a] += share
    return loss, probs, grads


@dataclass(frozen=True)
class OptimizerConfig:
    learning_rate: float
    momentum: float = 0.0

    def __post_init__(self) -> None:
        if self.learning_rate < 0:
            raise ValueError("learning rate must be non-negative")


def optimizer_step(
    params: ParamSet,
    grads: ParamSet,
    config: OptimizerConfig,
    velocity: ParamSet | None = None,
) -> tuple[ParamSet, ParamSet | None]:
    """One gradient-descent step; returns (new params, new velocity).

    Plain descent when momentum is zero, classical momentum otherwise.
    """
    if config.momentum != 0.0:
        if velocity is None:
            velocity = params.zeros_like()
        new_velocity = ParamSet(
            *(config.momentum * v + g for v, g in zip(velocity.arrays(), grads.arrays()))
        )
        update_source = new_velocity
    else:
        new_velocity = None
        update_source = grads
    new_params = ParamSet(
        *(
            p - config.learning_rate * u
            for p, u in zip(params.arrays(), update_source.arrays())
        )
    )
    if not new_params.all_finite():
        raise NumericError("non-finite parameter update")
    return new_params, new_velocity


# ---------------------------------------------------------------------------
# Flattening and the finite-difference oracle
# ---------------------------------------------------------------------------


def flatten_params(params: ParamSet) -> np.ndarray:
    return np.concatenate([a.ravel() for a in params.arrays()])


def unflatten_params(vector: np.ndarray, template: ParamSet) -> ParamSet:
    out = []
    offset = 0
    for a in template.arrays():
        out.append(vector[offset : offset + a.size].reshape(a.shape))
        offset += a.size
    return ParamSet(*out)


def finite_difference_grad(
    loss_fn: Callable[[ParamSet], float],
    params: ParamSet,
    coords: Sequence[int],
    eps: float = 1e-5,
) -> np.ndarray:
    """Central-difference gradient at the given flat coordinates."""
    theta = flatten_params(params)
    out = np.empty(len(coords))
    for k, idx in enumerate(coords):
        for sign, slot in ((+1.0, 0), (-1.0, 1)):
            bumped = theta.copy()
            bumped[idx] += sign * eps
            value = loss_fn(unflatten_params(bumped, params))
            if slot == 0:
                plus = value
            else:
                minus = value
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
    flat_analytic = flatten_params(analytic)
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


def corpus_accuracy(params: ParamSet, vocabs: Vocabularies, samples: Sequence[Sample]) -> float:
    """Exact-match accuracy; ground truths outside the vocabulary count wrong."""
    if not samples:
        return float("nan")
    known = set(vocabs.answers[:-1])
    correct = 0
    for sample in samples:
        if sample.answer in known and predict_answer(params, vocabs, sample) == sample.answer:
            correct += 1
    return correct / len(samples)


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
        for arr in params.arrays():
            fh.write(np.ascontiguousarray(arr, dtype="<f8").tobytes())
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
        shapes = {
            "word_emb": (n_words, d),
            "w_in": (d, d),
            "w_h": (d, d),
            "b_h": (d,),
            "cat_emb": (n_labels, d),
            "attr_emb": (n_labels, d),
            "w1": (2 * d, d_h),
            "b1": (d_h,),
            "w2": (d_h, n_answers),
            "b2": (n_answers,),
        }
        arrays = {}
        for name in _PARAM_FIELDS:
            shape = shapes[name]
            count = int(np.prod(shape))
            buf = fh.read(count * 8)
            if len(buf) != count * 8:
                raise ModelError(f"truncated checkpoint while reading {name!r}")
            arrays[name] = np.frombuffer(buf, dtype="<f8").reshape(shape).copy()
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
    return ParamSet(**arrays), vocabs
