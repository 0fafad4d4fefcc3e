"""Primitive extraction: tokenization, rule-based POS tagging, lemmatization,
and modality-tagged primitive sets for questions and scene graphs.

All functions here are pure and deterministic; the only state is the
lexicon, which is loaded once and never mutated.
"""

from __future__ import annotations

import json
import re
from dataclasses import dataclass, field
from enum import Enum
from importlib import resources

__all__ = [
    "Modality",
    "PartOfSpeech",
    "OPEN_CLASS",
    "Primitive",
    "PrimitiveOccurrence",
    "Lexicon",
    "load_lexicon",
    "default_lexicon",
    "tokenize",
    "pos_tag",
    "lemmatize",
    "extract_linguistic",
    "extract_visual",
    "primitive_key",
]


class Modality(str, Enum):
    LINGUISTIC = "linguistic"
    VISUAL = "visual"


class PartOfSpeech(str, Enum):
    NOUN = "noun"
    VERB = "verb"
    ADJECTIVE = "adjective"
    ADVERB = "adverb"
    OTHER = "other"


OPEN_CLASS = frozenset(
    {
        PartOfSpeech.NOUN,
        PartOfSpeech.VERB,
        PartOfSpeech.ADJECTIVE,
        PartOfSpeech.ADVERB,
    }
)


@dataclass(frozen=True)
class Primitive:
    """An atomic concept: a lemma (linguistic) or an object label (visual)."""

    name: str
    modality: Modality
    pos: PartOfSpeech | None = None

    def __post_init__(self) -> None:
        if not self.name:
            raise ValueError("primitive name must be non-empty")
        if self.name != self.name.lower():
            raise ValueError(f"primitive name must be lowercase: {self.name!r}")
        if self.modality is Modality.LINGUISTIC and self.pos is None:
            raise ValueError("linguistic primitives require a POS tag")
        if self.modality is Modality.VISUAL and self.pos is not None:
            raise ValueError("visual primitives carry no POS tag")


@dataclass(frozen=True)
class PrimitiveOccurrence:
    """One concrete occurrence of a primitive inside a sample.

    ``position`` is the token index for linguistic primitives and the object
    ordinal for visual primitives (attribute occurrences carry the owning
    object's ordinal).
    """

    primitive: Primitive
    sample_id: str
    position: int


def primitive_key(p: Primitive) -> tuple[str, str, str]:
    """Canonical sort/hash key for a primitive."""
    return (p.modality.value, p.name, p.pos.value if p.pos else "")


@dataclass(frozen=True)
class Lexicon:
    pos_table: dict[str, PartOfSpeech] = field(default_factory=dict)
    lemma_exceptions: dict[tuple[str, PartOfSpeech], str] = field(default_factory=dict)

    def __post_init__(self) -> None:
        for word in self.pos_table:
            if word != word.lower():
                raise ValueError(f"lexicon keys must be lowercase: {word!r}")
        for (word, _pos) in self.lemma_exceptions:
            if word != word.lower():
                raise ValueError(f"lexicon keys must be lowercase: {word!r}")


def load_lexicon(path: str) -> Lexicon:
    """Load a lexicon from its JSON file format.

    Format: ``{"pos": {word: tag}, "lemma_exceptions": {"word|tag": lemma}}``.
    """
    with open(path, encoding="utf-8") as fh:
        raw = json.load(fh)
    return _lexicon_from_raw(raw)


def _lexicon_from_raw(raw: dict) -> Lexicon:
    pos_table = {w: PartOfSpeech(t) for w, t in raw.get("pos", {}).items()}
    exceptions = {}
    for key, lemma in raw.get("lemma_exceptions", {}).items():
        word, _, tag = key.partition("|")
        exceptions[(word, PartOfSpeech(tag))] = lemma
    return Lexicon(pos_table=pos_table, lemma_exceptions=exceptions)


_DEFAULT_LEXICON: Lexicon | None = None


def default_lexicon() -> Lexicon:
    """The lexicon shipped with the package (loaded once, cached)."""
    global _DEFAULT_LEXICON
    if _DEFAULT_LEXICON is None:
        text = resources.files("ragvqa.data").joinpath("lexicon.json").read_text("utf-8")
        _DEFAULT_LEXICON = _lexicon_from_raw(json.loads(text))
    return _DEFAULT_LEXICON


_PUNCT_RE = re.compile(r"[^\w\s']+")


def tokenize(text: str) -> list[str]:
    """Lowercase, strip punctuation, split on whitespace."""
    return _PUNCT_RE.sub("", text.lower()).split()


def _tag_unknown(token: str) -> PartOfSpeech:
    if len(token) > 3 and token.endswith("ly"):
        return PartOfSpeech.ADVERB
    if len(token) > 4 and (token.endswith("ing") or token.endswith("ed")):
        return PartOfSpeech.VERB
    return PartOfSpeech.NOUN


def pos_tag(tokens: list[str], lexicon: Lexicon) -> list[PartOfSpeech]:
    """Lexicon-first tagging with suffix fallbacks for unknown words."""
    return [lexicon.pos_table.get(tok) or _tag_unknown(tok) for tok in tokens]


def _strip_plural(token: str) -> str:
    if len(token) > 4 and token.endswith("ies"):
        return token[:-3] + "y"
    if len(token) > 4 and token.endswith(("ches", "shes", "sses", "xes", "zes")):
        return token[:-2]
    if len(token) > 3 and token.endswith("s") and not token.endswith("ss"):
        return token[:-1]
    return token


def _strip_verb_suffix(token: str) -> str:
    stem = token
    if len(token) > 5 and token.endswith("ing"):
        stem = token[:-3]
    elif len(token) > 4 and token.endswith("ed"):
        stem = token[:-2]
    # collapse the doubled consonant only when a suffix actually came off
    # ("running" -> "run") so untouched stems like "pass" stay intact
    if stem != token and len(stem) > 2 and stem[-1] == stem[-2] and stem[-1] not in "aeiou":
        stem = stem[:-1]
    return stem


def lemmatize(token: str, pos: PartOfSpeech, lexicon: Lexicon) -> str:
    """Exception table first, then suffix stripping. Idempotent."""
    exception = lexicon.lemma_exceptions.get((token, pos))
    if exception is not None:
        return exception
    if token.endswith("'s"):
        token = token[:-2]
    if pos is PartOfSpeech.NOUN:
        return _strip_plural(token)
    if pos is PartOfSpeech.VERB:
        return _strip_verb_suffix(token)
    return token


def extract_linguistic(
    question, lexicon: Lexicon
) -> tuple[set[Primitive], list[PrimitiveOccurrence]]:
    """Open-class lemmas of a question as linguistic primitives.

    ``question`` needs ``id`` and ``text`` attributes.
    """
    tokens = tokenize(question.text)
    tags = pos_tag(tokens, lexicon)
    primitives: set[Primitive] = set()
    occurrences: list[PrimitiveOccurrence] = []
    for position, (token, tag) in enumerate(zip(tokens, tags)):
        if tag not in OPEN_CLASS:
            continue
        primitive = Primitive(lemmatize(token, tag, lexicon), Modality.LINGUISTIC, tag)
        primitives.add(primitive)
        occurrences.append(PrimitiveOccurrence(primitive, question.id, position))
    return primitives, occurrences


def extract_visual(scene_graph) -> tuple[set[Primitive], list[PrimitiveOccurrence]]:
    """Object categories and attributes as visual primitives.

    ``scene_graph`` needs ``image_id`` and an ``objects`` sequence whose
    elements have ``category`` and ``attributes``. Occurrences carry the
    object ordinal.
    """
    primitives: set[Primitive] = set()
    occurrences: list[PrimitiveOccurrence] = []
    for ordinal, obj in enumerate(scene_graph.objects):
        for label in (obj.category, *sorted(obj.attributes)):
            primitive = Primitive(label, Modality.VISUAL)
            primitives.add(primitive)
            occurrences.append(
                PrimitiveOccurrence(primitive, scene_graph.image_id, ordinal)
            )
    return primitives, occurrences
