"""Benchmark construction: composition extraction, candidate filtering
against the train split, seven-way classification by the modality mix of
novel compositions, and per-split sampling.

A composition is an unordered pair of two distinct primitives co-occurring
in one sample (over the union of its linguistic and visual primitives). A
test candidate must use only train-split primitives and contain at least one
composition never seen in any train sample.
"""

from __future__ import annotations

import json
import logging
import random
from dataclasses import dataclass, field
from itertools import combinations
from pathlib import Path
from typing import Iterable, Sequence

from .corpus import Corpus, Sample
from .primitives import (
    Lexicon,
    Modality,
    Primitive,
    extract_linguistic,
    extract_visual,
    primitive_key,
)

__all__ = [
    "BenchmarkError",
    "Composition",
    "SPLIT_LABELS",
    "LEVELS",
    "TrainSignature",
    "Candidate",
    "sample_primitives",
    "compositions_of",
    "train_signature",
    "filter_candidates",
    "classify",
    "build_splits",
    "split_stats",
    "verify_splits",
    "write_splits",
    "read_splits",
]

log = logging.getLogger(__name__)

SPLIT_LABELS = ("LL", "VV", "LV", "LL+VV", "LL+LV", "VV+LV", "LL+VV+LV")
LEVELS = {1: ("LL", "VV", "LV"), 2: ("LL+VV", "LL+LV", "VV+LV"), 3: ("LL+VV+LV",)}
_TYPE_ORDER = ("LL", "VV", "LV")


class BenchmarkError(Exception):
    pass


@dataclass(frozen=True)
class Composition:
    """An unordered pair of two distinct primitives, stored canonically."""

    pair: tuple[Primitive, Primitive]

    @classmethod
    def of(cls, p1: Primitive, p2: Primitive) -> "Composition":
        if p1 == p2:
            raise BenchmarkError("a composition needs two distinct primitives")
        ordered = tuple(sorted((p1, p2), key=primitive_key))
        return cls(pair=ordered)  # type: ignore[arg-type]

    @property
    def comp_type(self) -> str:
        modalities = {p.modality for p in self.pair}
        if modalities == {Modality.LINGUISTIC}:
            return "LL"
        if modalities == {Modality.VISUAL}:
            return "VV"
        return "LV"


def sample_primitives(sample: Sample, lexicon: Lexicon) -> set[Primitive]:
    """Union of a sample's linguistic and visual primitives."""
    ling, _ = extract_linguistic(sample.question, lexicon)
    vis, _ = extract_visual(sample.scene_graph)
    return ling | vis


def compositions_of(primitives: Iterable[Primitive]) -> set[Composition]:
    """All unordered pairs over one sample's primitive union."""
    ordered = sorted(primitives, key=primitive_key)
    return {Composition.of(p1, p2) for p1, p2 in combinations(ordered, 2)}


@dataclass(frozen=True)
class TrainSignature:
    """Primitives and compositions seen in the train split."""

    primitive_set: frozenset[Primitive]
    compositions: frozenset[Composition]


def train_signature(corpus: Corpus, lexicon: Lexicon) -> TrainSignature:
    primitives: set[Primitive] = set()
    compositions: set[Composition] = set()
    for sample in corpus.samples:
        sample_prims = sample_primitives(sample, lexicon)
        primitives |= sample_prims
        compositions |= compositions_of(sample_prims)
    return TrainSignature(frozenset(primitives), frozenset(compositions))


@dataclass(frozen=True)
class Candidate:
    sample: Sample
    novel_types: frozenset[str]
    novel_composition_count: int

    @property
    def sample_id(self) -> str:
        return self.sample.question.id


def filter_candidates(
    val_corpus: Corpus, signature: TrainSignature, lexicon: Lexicon
) -> tuple[list[Candidate], int]:
    """Admit samples whose primitives are all seen but whose compositions
    are not.  Returns (candidates, count of samples skipped for having no
    scene-graph objects)."""
    candidates: list[Candidate] = []
    skipped = 0
    for sample in val_corpus.samples:
        if not sample.scene_graph.objects:
            skipped += 1
            continue
        primitives = sample_primitives(sample, lexicon)
        if not primitives <= signature.primitive_set:
            continue
        novel = compositions_of(primitives) - signature.compositions
        if not novel:
            continue
        types = frozenset(c.comp_type for c in novel)
        candidates.append(Candidate(sample, types, len(novel)))
    return candidates, skipped


def classify(candidate: Candidate) -> str:
    """Exact set of novel-composition types, as a split label."""
    if not candidate.novel_types:
        raise BenchmarkError(
            f"candidate {candidate.sample_id!r} has no novel compositions"
        )
    return "+".join(t for t in _TYPE_ORDER if t in candidate.novel_types)


def build_splits(
    candidates: Sequence[Candidate], n_per_split: int, seed: int
) -> tuple[dict[str, list[str]], list[str]]:
    """Uniformly sample up to ``n_per_split`` ids per label, without
    replacement; returns (splits, shortfall warnings)."""
    if n_per_split < 1:
        raise ValueError("n_per_split must be >= 1")
    by_label: dict[str, list[str]] = {label: [] for label in SPLIT_LABELS}
    for candidate in candidates:
        by_label[classify(candidate)].append(candidate.sample_id)
    rng = random.Random(seed)
    splits: dict[str, list[str]] = {}
    warnings: list[str] = []
    for label in SPLIT_LABELS:
        members = sorted(by_label[label])
        if len(members) < n_per_split:
            warnings.append(
                f"split {label}: only {len(members)} of {n_per_split} candidates available"
            )
            splits[label] = members
        else:
            splits[label] = rng.sample(members, n_per_split)
    for warning in warnings:
        log.warning(warning)
    return splits, warnings


def split_stats(splits: dict[str, list[str]], candidates: Sequence[Candidate]) -> dict:
    """Per-split counts, novel-type histograms, and level grouping."""
    by_id = {c.sample_id: c for c in candidates}
    per_split = {}
    for label in SPLIT_LABELS:
        ids = splits.get(label, [])
        histogram = {t: 0 for t in _TYPE_ORDER}
        for sample_id in ids:
            for t in by_id[sample_id].novel_types:
                histogram[t] += 1
        per_split[label] = {"count": len(ids), "novel_type_histogram": histogram}
    per_level = {
        f"level_{level}": sum(per_split[l]["count"] for l in labels)
        for level, labels in LEVELS.items()
    }
    return {
        "per_split": per_split,
        "per_level": per_level,
        "total": sum(s["count"] for s in per_split.values()),
        "n_candidates": len(candidates),
    }


# ---------------------------------------------------------------------------
# Independent re-check pass
# ---------------------------------------------------------------------------


@dataclass
class VerificationReport:
    checked: int = 0
    failures: list[str] = field(default_factory=list)

    @property
    def ok(self) -> bool:
        return not self.failures


def verify_splits(
    splits: dict[str, list[str]],
    train_corpus: Corpus,
    val_corpus: Corpus,
    lexicon: Lexicon,
) -> VerificationReport:
    """Re-derive every emitted test sample from scratch, with plain
    primitive-key pairs instead of the builder's ``Composition`` path.

    Checks, per sample: all primitives appear in the train split, at least
    one composition is unseen, and the split label equals the brute-force
    novel-type set.  Also checks pairwise disjointness of the splits.
    """

    def primitive_keys(sample: Sample) -> set[tuple]:
        return {primitive_key(p) for p in sample_primitives(sample, lexicon)}

    def plain_pairs(keys: set[tuple]) -> set[frozenset[tuple]]:
        return {frozenset((k1, k2)) for k1 in keys for k2 in keys if k1 != k2}

    train_primitives: set[tuple] = set()
    train_pairs: set[frozenset[tuple]] = set()
    for sample in train_corpus.samples:
        keys = primitive_keys(sample)
        train_primitives |= keys
        train_pairs |= plain_pairs(keys)

    val_by_id = {s.question.id: s for s in val_corpus.samples}
    report = VerificationReport()

    seen_ids: dict[str, str] = {}
    for label, ids in splits.items():
        for sample_id in ids:
            if sample_id in seen_ids:
                report.failures.append(
                    f"{sample_id}: appears in both {seen_ids[sample_id]} and {label}"
                )
            seen_ids[sample_id] = label

    def pair_type(pair: frozenset[tuple]) -> str:
        modalities = sorted(k[0] for k in pair)
        if modalities == ["linguistic", "linguistic"]:
            return "LL"
        if modalities == ["visual", "visual"]:
            return "VV"
        return "LV"

    for label, ids in splits.items():
        for sample_id in ids:
            report.checked += 1
            sample = val_by_id.get(sample_id)
            if sample is None:
                report.failures.append(f"{sample_id}: not found in the validation corpus")
                continue
            prims = primitive_keys(sample)
            unseen_prims = prims - train_primitives
            if unseen_prims:
                report.failures.append(
                    f"{sample_id}: primitives unseen in train: {sorted(unseen_prims)}"
                )
                continue
            novel = plain_pairs(prims) - train_pairs
            if not novel:
                report.failures.append(f"{sample_id}: no novel composition")
                continue
            expected = "+".join(
                t for t in _TYPE_ORDER if t in {pair_type(pair) for pair in novel}
            )
            if expected != label:
                report.failures.append(
                    f"{sample_id}: label {label} but brute-force gives {expected}"
                )
    return report


# ---------------------------------------------------------------------------
# Splits file: JSON-lines {sample_id, split_label, novel_types, novel_composition_count}
# ---------------------------------------------------------------------------


def write_splits(
    splits: dict[str, list[str]], candidates: Sequence[Candidate], path: str | Path
) -> None:
    by_id = {c.sample_id: c for c in candidates}
    with open(path, "w", encoding="utf-8") as fh:
        for label in SPLIT_LABELS:
            for sample_id in splits.get(label, []):
                candidate = by_id[sample_id]
                fh.write(
                    json.dumps(
                        {
                            "sample_id": sample_id,
                            "split_label": label,
                            "novel_types": sorted(candidate.novel_types),
                            "novel_composition_count": candidate.novel_composition_count,
                        },
                        sort_keys=True,
                    )
                    + "\n"
                )


def read_splits(path: str | Path) -> dict[str, list[str]]:
    """Read split assignments; a malformed line is a ``BenchmarkError``."""
    splits: dict[str, list[str]] = {label: [] for label in SPLIT_LABELS}
    with open(path, encoding="utf-8") as fh:
        for lineno, line in enumerate(fh, 1):
            line = line.strip()
            if not line:
                continue
            try:
                raw = json.loads(line)
                splits[raw["split_label"]].append(raw["sample_id"])
            except (ValueError, KeyError, TypeError) as exc:
                raise BenchmarkError(
                    f"{path}, line {lineno}: expected a sample_id and a split_label "
                    f"in {list(SPLIT_LABELS)} ({type(exc).__name__}: {exc})"
                ) from exc
    return splits
