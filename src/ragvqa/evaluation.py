"""Evaluation per split/level and the database ablation grid.

Evaluation runs on the plain encoders: retrieval is a training-time
mechanism.
"""

from __future__ import annotations

import hashlib
import json
from dataclasses import dataclass, replace

from .benchmark import LEVELS, SPLIT_LABELS
from .corpus import Corpus
from .model import ParamSet, Vocabularies, predict_answer
from .ragtrain import AggregationConfig

__all__ = [
    "EvalError",
    "EvalReport",
    "config_fingerprint",
    "evaluate",
    "ablation_grid",
]


class EvalError(Exception):
    pass


@dataclass(frozen=True)
class EvalReport:
    per_split_accuracy: dict[str, float | None]
    per_split_counts: dict[str, tuple[int, int]]  # label -> (correct, evaluated)
    per_level_accuracy: dict[str, float | None]
    overall: float | None
    n_evaluated: int
    config_fingerprint: str

    def to_dict(self) -> dict:
        return {
            "per_split_accuracy": self.per_split_accuracy,
            "per_split_counts": {k: list(v) for k, v in self.per_split_counts.items()},
            "per_level_accuracy": self.per_level_accuracy,
            "overall": self.overall,
            "n_evaluated": self.n_evaluated,
            "config_fingerprint": self.config_fingerprint,
        }


def config_fingerprint(config: dict) -> str:
    canon = json.dumps(config, sort_keys=True, default=str)
    return hashlib.sha256(canon.encode()).hexdigest()[:16]


def evaluate(
    params: ParamSet,
    vocabs: Vocabularies,
    splits: dict[str, list[str]],
    corpus: Corpus,
    fingerprint: str = "",
) -> EvalReport:
    """Exact-match accuracy per split, per level, and overall.

    A ground-truth answer outside the closed vocabulary counts as incorrect.
    An empty split reports accuracy None with n=0.
    """
    by_id = {s.question.id: s for s in corpus.samples}
    known_answers = set(vocabs.answers[:-1])
    per_split_counts: dict[str, tuple[int, int]] = {}
    for label in SPLIT_LABELS:
        ids = splits.get(label, [])
        correct = 0
        for sample_id in ids:
            sample = by_id.get(sample_id)
            if sample is None:
                raise EvalError(f"split {label} references missing sample {sample_id!r}")
            if sample.answer not in known_answers:
                continue
            if predict_answer(params, vocabs, sample) == sample.answer:
                correct += 1
        per_split_counts[label] = (correct, len(ids))

    def ratio(correct: int, total: int) -> float | None:
        return correct / total if total else None

    per_split = {label: ratio(*per_split_counts[label]) for label in SPLIT_LABELS}
    per_level: dict[str, float | None] = {}
    for level, labels in LEVELS.items():
        correct = sum(per_split_counts[l][0] for l in labels)
        total = sum(per_split_counts[l][1] for l in labels)
        per_level[f"level_{level}"] = ratio(correct, total)
    total_correct = sum(c for c, _ in per_split_counts.values())
    total_n = sum(n for _, n in per_split_counts.values())
    return EvalReport(
        per_split_accuracy=per_split,
        per_split_counts=per_split_counts,
        per_level_accuracy=per_level,
        overall=ratio(total_correct, total_n),
        n_evaluated=total_n,
        config_fingerprint=fingerprint,
    )


# ---------------------------------------------------------------------------
# Ablation grids
# ---------------------------------------------------------------------------


def ablation_grid(base: AggregationConfig) -> list[tuple[str, AggregationConfig | None]]:
    """The four-row grid: no retrieval, one database at a time, both."""
    return [
        ("baseline", None),
        ("dq_only", replace(base, use_dq=True, use_dv=False)),
        ("dv_only", replace(base, use_dq=False, use_dv=True)),
        ("both", base),
    ]
