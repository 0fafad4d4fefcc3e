"""Evaluation per split/level and the ablation harness.

Evaluation runs on the plain encoders: retrieval is a training-time
mechanism.
"""

from __future__ import annotations

import hashlib
import json
import logging
from dataclasses import dataclass, field, replace
from typing import Sequence

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
    "run_ablation",
    "AblationRow",
]

log = logging.getLogger(__name__)


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


@dataclass
class AblationRow:
    name: str
    report: EvalReport | None
    iid_accuracy: float | None
    error: str | None = None
    metrics: list[dict] = field(default_factory=list)


def run_ablation(
    grid: Sequence[tuple[str, AggregationConfig | None]],
    *,
    train_fn,
    eval_fn,
) -> list[AblationRow]:
    """Run one train+eval cycle per variant.

    ``train_fn(variant_config)`` returns trained params; ``eval_fn(params)``
    returns (EvalReport, iid accuracy). A failing variant produces a partial
    table with a failure record instead of aborting the grid.
    """
    rows: list[AblationRow] = []
    for name, variant in grid:
        try:
            params, metrics = train_fn(variant)
            report, iid = eval_fn(params)
            rows.append(AblationRow(name, report, iid, metrics=metrics))
        except Exception as exc:  # noqa: BLE001 - recorded, not swallowed silently
            log.error("ablation variant %s failed: %s", name, exc)
            rows.append(AblationRow(name, None, None, error=str(exc)))
    return rows
