"""Data model for questions, scene graphs and answers, GQA-compatible file
ingestion, and deterministic synthetic corpus generation.

File formats:
  questions   JSON-lines, fields {id, image_id, question, answer}, UTF-8
  scene graphs  one JSON object {image_id: {"objects": {object_id: {...}}}}
  synth config  key-value text, one "key = value" per line
"""

from __future__ import annotations

import json
import random
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any, Callable, Iterable, Mapping, Sequence, get_type_hints

__all__ = [
    "CorpusError",
    "IngestionError",
    "ConfigurationError",
    "Question",
    "ObjectInstance",
    "SceneGraph",
    "Sample",
    "Corpus",
    "QuestionRecord",
    "IngestReport",
    "load_questions",
    "load_scene_graphs",
    "build_corpus",
    "load_corpus",
    "save_corpus",
    "SynthConfig",
    "parse_kv_file",
    "parse_synth_config",
    "generate_synthetic",
]


class CorpusError(Exception):
    pass


class IngestionError(CorpusError):
    pass


class ConfigurationError(CorpusError, ValueError):
    pass


@dataclass(frozen=True)
class Question:
    id: str
    text: str
    image_id: str

    def __post_init__(self) -> None:
        if not self.text:
            raise CorpusError(f"question {self.id!r} has empty text")


@dataclass(frozen=True)
class ObjectInstance:
    object_id: str
    category: str
    attributes: frozenset[str]

    def __post_init__(self) -> None:
        if not self.category:
            raise CorpusError(f"object {self.object_id!r} has no category")


@dataclass(frozen=True)
class SceneGraph:
    image_id: str
    objects: tuple[ObjectInstance, ...]


@dataclass(frozen=True)
class Sample:
    question: Question
    scene_graph: SceneGraph
    answer: str


@dataclass(frozen=True)
class Corpus:
    samples: tuple[Sample, ...]
    answer_vocab: tuple[str, ...]
    split_tag: str

    def scene_graphs(self) -> dict[str, SceneGraph]:
        return {s.scene_graph.image_id: s.scene_graph for s in self.samples}


@dataclass(frozen=True)
class QuestionRecord:
    question: Question
    answer: str


@dataclass
class IngestReport:
    warnings: list[str] = field(default_factory=list)
    skipped_sample_ids: list[str] = field(default_factory=list)


_REQUIRED_FIELDS = ("id", "image_id", "question", "answer")
_JSON_TYPE_NAMES = {dict: "object", list: "array", str: "string"}


def _require(value, kind: type, what: str):
    """``value``, if it has the JSON type ``kind``; else an error naming ``what``."""
    if not isinstance(value, kind):
        raise IngestionError(f"{what} must be a JSON {_JSON_TYPE_NAMES[kind]}, got {type(value).__name__}")
    return value


def load_questions(path: str | Path) -> list[QuestionRecord]:
    """Read question+answer records from a JSON-lines file, in file order.

    Malformed records are reported with their line number; a non-object
    line, a missing field, a non-string ``id``, ``image_id``, ``question``
    or ``answer``, or a duplicate id is an ingestion error.
    """
    records: list[QuestionRecord] = []
    seen_ids: set[str] = set()
    with open(path, encoding="utf-8") as fh:
        for lineno, line in enumerate(fh, 1):
            line = line.strip()
            if not line:
                continue
            try:
                raw = json.loads(line)
            except json.JSONDecodeError as exc:
                raise IngestionError(f"line {lineno}: malformed JSON record: {exc}") from exc
            _require(raw, dict, f"line {lineno}: record")
            record_id = raw.get("id", f"<line {lineno}>")
            for name in _REQUIRED_FIELDS:
                if name not in raw:
                    raise IngestionError(
                        f"line {lineno}: record {record_id!r} missing field {name!r}"
                    )
            for name in ("id", "image_id", "question", "answer"):
                _require(raw[name], str, f"line {lineno}: field {name!r}")
            if raw["id"] in seen_ids:
                raise IngestionError(f"line {lineno}: duplicate question id {raw['id']!r}")
            seen_ids.add(raw["id"])
            question = Question(id=raw["id"], text=raw["question"], image_id=raw["image_id"])
            records.append(QuestionRecord(question=question, answer=raw["answer"]))
    return records


def _reject_duplicate_keys(pairs):
    out = {}
    for key, value in pairs:
        if key in out:
            raise IngestionError(f"duplicate key {key!r} in scene-graph file")
        out[key] = value
    return out


def load_scene_graphs(path: str | Path) -> tuple[list[SceneGraph], list[str]]:
    """Read the scene-graph map; returns (graphs, warnings).

    Attribute strings are lowercased and deduplicated; objects are ordered
    by object_id. An image with zero objects is kept but produces a warning.
    The file, each image entry, its ``objects`` and each object must be JSON
    objects, and the name and each attribute strings.
    """
    with open(path, encoding="utf-8") as fh:
        raw = json.load(fh, object_pairs_hook=_reject_duplicate_keys)
    graphs: list[SceneGraph] = []
    warnings: list[str] = []
    for image_id, entry in _require(raw, dict, "scene-graph file").items():
        entry = _require(entry, dict, f"image {image_id!r}")
        specs = _require(entry.get("objects", {}), dict, f"image {image_id!r}: objects")
        objects = []
        for object_id in sorted(specs):
            where = f"image {image_id!r}: object {object_id!r}"
            spec = _require(specs[object_id], dict, where)
            name = _require(spec.get("name", ""), str, f"{where}: name")
            if not name:
                raise IngestionError(f"{where} has no category name")
            attributes = frozenset(
                _require(a, str, f"{where}: attribute").lower()
                for a in _require(spec.get("attributes", []), list, f"{where}: attributes")
            )
            objects.append(ObjectInstance(object_id, name.lower(), attributes))
        if not objects:
            warnings.append(f"image {image_id!r} has no objects")
        graphs.append(SceneGraph(image_id=image_id, objects=tuple(objects)))
    return graphs, warnings


def build_corpus(
    records: Sequence[QuestionRecord],
    scene_graphs: Iterable[SceneGraph],
    split_tag: str,
    answer_vocab: Sequence[str] | None = None,
) -> tuple[Corpus, IngestReport]:
    """Join question records with scene graphs on image_id.

    ``answer_vocab`` comes from the train split; for the train split itself
    pass None and the vocabulary is the deduplicated answers in file order.
    Samples whose image has no scene graph are skipped and flagged in the
    report (the benchmark builder ignores them downstream).
    """
    graph_by_image: dict[str, SceneGraph] = {}
    for graph in scene_graphs:
        if graph.image_id in graph_by_image:
            raise IngestionError(f"duplicate scene graph for image {graph.image_id!r}")
        graph_by_image[graph.image_id] = graph

    report = IngestReport()
    samples: list[Sample] = []
    for record in records:
        graph = graph_by_image.get(record.question.image_id)
        if graph is None:
            report.skipped_sample_ids.append(record.question.id)
            report.warnings.append(
                f"question {record.question.id!r}: no scene graph for image "
                f"{record.question.image_id!r}; sample skipped"
            )
            continue
        samples.append(Sample(record.question, graph, record.answer))

    if answer_vocab is None:
        vocab = tuple(dict.fromkeys(s.answer for s in samples))
    else:
        vocab = tuple(answer_vocab)
    return Corpus(tuple(samples), vocab, split_tag), report


def load_corpus(
    questions_path: str | Path,
    scene_graphs_path: str | Path,
    split_tag: str,
    answer_vocab: Sequence[str] | None = None,
) -> tuple[Corpus, IngestReport]:
    records = load_questions(questions_path)
    graphs, warnings = load_scene_graphs(scene_graphs_path)
    corpus, report = build_corpus(records, graphs, split_tag, answer_vocab)
    report.warnings = warnings + report.warnings
    return corpus, report


def save_corpus(corpus: Corpus, questions_path: str | Path, scene_graphs_path: str | Path) -> None:
    """Write a corpus back to the external file formats (round-trippable)."""
    with open(questions_path, "w", encoding="utf-8") as fh:
        for sample in corpus.samples:
            fh.write(
                json.dumps(
                    {
                        "id": sample.question.id,
                        "image_id": sample.question.image_id,
                        "question": sample.question.text,
                        "answer": sample.answer,
                    },
                    sort_keys=True,
                )
                + "\n"
            )
    graphs = {}
    for sample in corpus.samples:
        graph = sample.scene_graph
        graphs[graph.image_id] = {
            "objects": {
                obj.object_id: {"name": obj.category, "attributes": sorted(obj.attributes)}
                for obj in graph.objects
            }
        }
    with open(scene_graphs_path, "w", encoding="utf-8") as fh:
        json.dump(graphs, fh, indent=1, sort_keys=True)
        fh.write("\n")


# ---------------------------------------------------------------------------
# Synthetic corpus generation
# ---------------------------------------------------------------------------

_KNOWN_COLORS = frozenset(
    {"white", "black", "red", "blue", "green", "brown", "yellow", "gray", "purple", "orange"}
)

_DEFAULT_CATEGORIES = (
    "dog", "cat", "bird", "horse", "car", "tree",
    "flower", "chair", "table", "ball", "book", "hat",
)
_DEFAULT_ATTRIBUTES = ("white", "black", "red", "blue", "green", "small")


@dataclass(frozen=True)
class SynthConfig:
    categories: tuple[str, ...] = _DEFAULT_CATEGORIES
    attributes: tuple[str, ...] = _DEFAULT_ATTRIBUTES
    templates: tuple[str, ...] = ("exist", "count", "color")
    n_train: int = 2000
    n_val: int = 1000
    holdout_fraction: float = 0.15

    def __post_init__(self) -> None:
        if len(self.categories) < 5 or len(self.attributes) < 2:
            raise ConfigurationError(
                "concept inventory too small to hold out compositions "
                f"({len(self.categories)} categories x {len(self.attributes)} attributes)"
            )
        unknown = set(self.templates) - {"exist", "count", "color"}
        if unknown:
            raise ConfigurationError(f"unknown templates: {sorted(unknown)}")
        if not 0.0 < self.holdout_fraction < 0.5:
            raise ConfigurationError("holdout_fraction must be in (0, 0.5)")

    @property
    def colors(self) -> tuple[str, ...]:
        return tuple(a for a in self.attributes if a in _KNOWN_COLORS)


def parse_kv_file(path: str | Path, converters: Mapping[str, Callable[[str], Any]]) -> dict:
    """Read a "key = value" file, converting each value by its key's converter.

    Blank lines and ``#`` comments are skipped. A line without ``=``, a key
    outside ``converters`` or a value its converter rejects is a
    configuration error naming the file, the line and the key.
    """
    values: dict = {}
    with open(path, encoding="utf-8") as fh:
        for lineno, line in enumerate(fh, 1):
            line = line.strip()
            if not line or line.startswith("#"):
                continue
            if "=" not in line:
                raise ConfigurationError(f"{path}, line {lineno}: expected 'key = value'")
            key, _, value = line.partition("=")
            key = key.strip()
            if key not in converters:
                raise ConfigurationError(
                    f"{path}, line {lineno}: unknown key {key!r} (known: {sorted(converters)})"
                )
            try:
                values[key] = converters[key](value.strip())
            except ValueError as exc:
                raise ConfigurationError(f"{path}, line {lineno}: key {key!r}: {exc}") from exc
    return values


def _str_list(value: str) -> tuple[str, ...]:
    return tuple(v.strip() for v in value.split(",") if v.strip())


def parse_synth_config(path: str | Path) -> tuple[SynthConfig, int | None]:
    """Parse the key-value synth config file; returns (config, seed or None).

    Inventory keys take comma-separated lists; the key types are the
    ``SynthConfig`` field types.
    """
    converters = {
        key: kind if kind in (int, float) else _str_list
        for key, kind in get_type_hints(SynthConfig).items()
    }
    values = parse_kv_file(path, {**converters, "seed": int})
    seed = values.pop("seed", None)
    return SynthConfig(**values), seed


def _pluralize(noun: str) -> str:
    if noun.endswith(("ch", "sh", "ss", "x", "z")):
        return noun + "es"
    return noun + "s"


@dataclass
class _Blueprint:
    """A sample before rendering: template, question slots, scene objects."""

    template: str
    q_cat: str
    q_attr: str | None
    objects: list[tuple[str, tuple[str, ...]]]  # (category, attributes)

    def question_text(self) -> str:
        if self.template == "exist":
            return f"Is the {self.q_cat} {self.q_attr}?"
        if self.template == "count":
            return f"How many {_pluralize(self.q_cat)} are there?"
        return f"What color is the {self.q_cat}?"

    def answer(self) -> str:
        if self.template == "exist":
            present = any(
                cat == self.q_cat and self.q_attr in attrs for cat, attrs in self.objects
            )
            return "yes" if present else "no"
        if self.template == "count":
            return str(sum(1 for cat, _ in self.objects if cat == self.q_cat))
        matches = [attrs for cat, attrs in self.objects if cat == self.q_cat]
        colors = [a for a in matches[0] if a in _KNOWN_COLORS]
        return colors[0]

    def question_words(self) -> tuple[str | None, str]:
        return self.q_attr, self.q_cat

    def scene_cats(self) -> set[str]:
        return {cat for cat, _ in self.objects}

    def scene_attrs(self) -> set[str]:
        return {a for _, attrs in self.objects for a in attrs}


class _Generator:
    """Deterministic synthetic generator with held-out composition groups.

    A fraction of (attribute, category) pairs is reserved and partitioned
    into three groups, each held out of the train split along one axis:

      h_ll  attribute word and category word never share a train question
      h_vv  attribute label and category label never share a train scene
      h_lv  attribute word in a question never co-occurs with the category
            in the same sample's scene

    The validation split then deliberately realizes those pairings, so the
    benchmark builder finds novel compositions of each modality mix. A
    coverage pass over the train split guarantees every other primitive
    pairing is seen, which keeps the targeted validation samples pure.
    """

    def __init__(self, config: SynthConfig, seed: int) -> None:
        self.cfg = config
        self.rng = random.Random(seed)
        pairs = [(a, c) for a in config.attributes for c in config.categories]
        n_hold = max(3, round(config.holdout_fraction * len(pairs)))
        # The first attribute anchors all three holdout groups so that
        # multi-type validation samples (e.g. LL+LV) are constructible from
        # a single question attribute. Every attribute keeps at least two
        # free categories so the train coverage pass always has material.
        anchor_attr = config.attributes[0]
        anchor_cats = self.rng.sample(config.categories, 3)
        held: list[tuple[str, str]] = [(anchor_attr, c) for c in anchor_cats]
        per_attr = {a: 0 for a in config.attributes}
        per_attr[anchor_attr] = 3
        for pair in self.rng.sample(pairs, len(pairs)):
            if len(held) >= n_hold:
                break
            a, _c = pair
            if pair in held or a == anchor_attr:
                continue
            if per_attr[a] >= len(config.categories) - 2:
                continue
            held.append(pair)
            per_attr[a] += 1
        self.h_ll = frozenset(held[0::3])
        self.h_vv = frozenset(held[1::3])
        self.h_lv = frozenset(held[2::3])
        self.held = frozenset(held)
        self._counter = 0

    # -- constraint checks --------------------------------------------------

    def _novel_hits(self, bp: _Blueprint) -> set[str]:
        """Which held-out composition types this sample would realize."""
        q_attr, q_cat = bp.question_words()
        scene_cats = bp.scene_cats()
        scene_attrs = bp.scene_attrs()
        hits: set[str] = set()
        if q_attr is not None and (q_attr, q_cat) in self.h_ll:
            hits.add("LL")
        if any((a, c) in self.h_vv for a in scene_attrs for c in scene_cats):
            hits.add("VV")
        if q_attr is not None and any((q_attr, c) in self.h_lv for c in scene_cats):
            hits.add("LV")
        return hits

    def _allowed_attrs(self, category: str) -> list[str]:
        return [a for a in self.cfg.attributes if (a, category) not in self.h_vv]

    # -- rendering ----------------------------------------------------------

    def _render(self, bp: _Blueprint, split: str, samples: list[Sample]) -> None:
        idx = self._counter
        self._counter += 1
        image_id = f"img_{split}_{idx:05d}"
        objects = tuple(
            ObjectInstance(f"o{j}", cat, frozenset(attrs))
            for j, (cat, attrs) in enumerate(bp.objects)
        )
        graph = SceneGraph(image_id=image_id, objects=objects)
        question = Question(id=f"q_{split}_{idx:05d}", text=bp.question_text(), image_id=image_id)
        samples.append(Sample(question, graph, bp.answer()))

    # -- train split --------------------------------------------------------

    def _coverage_blueprints(self) -> list[_Blueprint]:
        """Deterministic pass making every non-held primitive pairing seen."""
        cfg = self.cfg
        out: list[_Blueprint] = []
        free_cat = {a: [c for c in cfg.categories if (a, c) not in self.held] for a in cfg.attributes}
        for a in cfg.attributes:
            for c in cfg.categories:
                if (a, c) not in self.held:
                    # LL, LV and VV directions of an allowed pair, in one sample.
                    out.append(_Blueprint("exist", c, a, [(c, (a,))]))
                elif (a, c) in self.h_ll:
                    # keep LV and VV seen while the word pair stays novel
                    c2 = free_cat[a][0]
                    out.append(_Blueprint("exist", c2, a, [(c2, (a,)), (c, ())]))
                    out.append(_Blueprint("count", c, None, [(c2, (a,)), (c, ())]))
                elif (a, c) in self.h_vv:
                    # keep LL and LV seen while scene co-presence stays novel
                    out.append(_Blueprint("exist", c, a, [(c, ())]))
                    c2 = free_cat[a][0]
                    out.append(_Blueprint("count", c, None, [(c2, (a,))]))
                else:  # h_lv
                    # keep VV and the reverse cross-modal direction seen
                    c2 = next(c2 for c2 in free_cat[a] if c2 != c)
                    out.append(_Blueprint("count", c, None, [(c2, (a,)), (c, ())]))
                    c3 = next(
                        c3
                        for c3 in cfg.categories
                        if c3 != c and (a, c3) not in self.h_lv and (a, c3) not in self.h_ll
                    )
                    out.append(_Blueprint("exist", c, a, [(c3, ())]))
        for i, c1 in enumerate(cfg.categories):
            for c2 in cfg.categories[i + 1 :]:
                out.append(_Blueprint("count", c1, None, [(c1, ()), (c2, ())]))
                out.append(_Blueprint("count", c2, None, [(c1, ()), (c2, ())]))
        for c in cfg.categories:
            others = [c2 for c2 in cfg.categories if c2 != c]
            out.append(_Blueprint("count", c, None, [(others[0], ()), (others[1], ())]))
            if "color" in cfg.templates:
                for color in cfg.colors:
                    if (color, c) not in self.held:
                        out.append(_Blueprint("color", c, None, [(c, (color,))]))
        return out

    def _random_train_blueprint(self) -> _Blueprint:
        cfg, rng = self.cfg, self.rng
        for _ in range(200):
            n_obj = rng.randint(2, 4)
            objects: list[tuple[str, tuple[str, ...]]] = []
            for _ in range(n_obj):
                cat = rng.choice(cfg.categories)
                allowed = self._allowed_attrs(cat)
                n_attr = rng.randint(0, min(2, len(allowed)))
                objects.append((cat, tuple(sorted(rng.sample(allowed, n_attr)))))
            template = rng.choice(cfg.templates)
            bp = None
            if template == "exist":
                cat = rng.choice([c for c, _ in objects])
                attr = rng.choice(cfg.attributes)
                bp = _Blueprint("exist", cat, attr, objects)
            elif template == "count":
                pool = list(cfg.categories)
                cat = rng.choice(pool if rng.random() < 0.3 else [c for c, _ in objects])
                bp = _Blueprint("count", cat, None, objects)
            else:
                candidates = [
                    c
                    for c, attrs in objects
                    if sum(1 for cc, _ in objects if cc == c) == 1
                    and len([a for a in attrs if a in _KNOWN_COLORS]) == 1
                ]
                if not candidates:
                    continue
                bp = _Blueprint("color", rng.choice(candidates), None, objects)
            if not self._novel_hits(bp):
                return bp
        raise ConfigurationError("could not generate a train sample under the holdout constraints")

    # -- val split ----------------------------------------------------------

    def _val_scene_fillers(self, q_attr: str | None, banned: set[str]) -> list[tuple[str, tuple[str, ...]]]:
        """Attribute-free filler objects that cannot add novelty."""
        pool = [
            c
            for c in self.cfg.categories
            if c not in banned and (q_attr is None or (q_attr, c) not in self.h_lv)
        ]
        n = self.rng.randint(0, min(2, len(pool)))
        return [(c, ()) for c in self.rng.sample(pool, n)]

    def _val_blueprint(self, kinds: frozenset[str]) -> _Blueprint:
        """One validation sample whose novel-composition types are exactly ``kinds``."""
        rng = self.rng
        for _ in range(500):
            q_attr: str | None = None
            q_cat: str
            objects: list[tuple[str, tuple[str, ...]]] = []
            if "LL" in kinds:
                a, c = rng.choice(sorted(self.h_ll))
                q_attr, q_cat = a, c
                objects.append((c, (a,) if rng.random() < 0.5 else ()))
            if "LV" in kinds:
                a, c = rng.choice(sorted(self.h_lv))
                if q_attr is None:
                    # question mentions the attribute via another, fully seen category
                    c2 = rng.choice(
                        [
                            cc
                            for cc in self.cfg.categories
                            if (a, cc) not in self.held and cc != c
                        ]
                    )
                    q_attr, q_cat = a, c2
                    objects.append((c2, (a,) if rng.random() < 0.5 else ()))
                    objects.append((c, ()))
                else:
                    # reuse the LL question's attribute if it also has an LV partner
                    lv_cats = [cc for (aa, cc) in sorted(self.h_lv) if aa == q_attr]
                    if not lv_cats:
                        continue
                    objects.append((rng.choice(lv_cats), ()))
            if "VV" in kinds:
                a, c = rng.choice(sorted(self.h_vv))
                objects.append((c, (a,)))
                if q_attr is None:
                    q_cat = c
            if not kinds:  # IID sample: same recipe as train
                return self._random_train_blueprint()
            template = "exist" if q_attr is not None else "count"
            bp = _Blueprint(template, q_cat, q_attr, objects)
            bp.objects.extend(self._val_scene_fillers(q_attr, bp.scene_cats()))
            if self._novel_hits(bp) == kinds:
                return bp
        raise ConfigurationError(f"could not construct a validation sample of kinds {sorted(kinds)}")

    # -- entry point ----------------------------------------------------------

    def generate(self) -> tuple[Corpus, Corpus]:
        cfg = self.cfg
        train_bps = self._coverage_blueprints()
        if len(train_bps) > cfg.n_train:
            raise ConfigurationError(
                f"n_train={cfg.n_train} too small: coverage alone needs {len(train_bps)} samples"
            )
        while len(train_bps) < cfg.n_train:
            train_bps.append(self._random_train_blueprint())
        self.rng.shuffle(train_bps)

        kind_shares = [
            (frozenset(), 0.40),
            (frozenset({"LL"}), 0.12),
            (frozenset({"VV"}), 0.12),
            (frozenset({"LV"}), 0.12),
            (frozenset({"LL", "VV"}), 0.06),
            (frozenset({"LL", "LV"}), 0.06),
            (frozenset({"VV", "LV"}), 0.06),
            (frozenset({"LL", "VV", "LV"}), 0.06),
        ]
        val_bps: list[_Blueprint] = []
        for kinds, share in kind_shares:
            count = max(1, round(share * cfg.n_val))
            for _ in range(count):
                if len(val_bps) < cfg.n_val:
                    val_bps.append(self._val_blueprint(kinds))
        while len(val_bps) < cfg.n_val:
            val_bps.append(self._val_blueprint(frozenset()))
        self.rng.shuffle(val_bps)

        train_samples: list[Sample] = []
        for bp in train_bps:
            self._render(bp, "train", train_samples)
        self._counter = 0
        val_samples: list[Sample] = []
        for bp in val_bps:
            self._render(bp, "val", val_samples)

        vocab = tuple(dict.fromkeys(s.answer for s in train_samples))
        train = Corpus(tuple(train_samples), vocab, "train")
        val = Corpus(tuple(val_samples), vocab, "val")
        return train, val


def generate_synthetic(config: SynthConfig, seed: int) -> tuple[Corpus, Corpus]:
    """Generate a (train, val) corpus pair, deterministic in (config, seed).

    The validation split deliberately realizes attribute-category pairings
    absent from the train split, one group per novel-composition type.
    """
    return _Generator(config, seed).generate()
