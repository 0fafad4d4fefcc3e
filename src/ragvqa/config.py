"""Experiment configuration: the run configs composed into one experiment,
flat file keys for the shared key-value parser, named presets, and the
resolved-config serialization written into run directories."""

from __future__ import annotations

from dataclasses import asdict, dataclass, field, fields
from pathlib import Path
from typing import get_type_hints

from .corpus import parse_kv_file
from .ragtrain import AggregationConfig, TrainConfig

__all__ = ["ExperimentConfig", "KEY_TYPES", "PRESETS", "load_experiment_config"]

# The run configs an experiment composes; their fields are file keys as well.
_SECTIONS = {"aggregation": AggregationConfig, "training": TrainConfig}
# The one field whose file key differs from its name.
_FILE_KEYS = {"learning_rate": "lr"}


def _file_key(name: str) -> str:
    return _FILE_KEYS.get(name, name)


@dataclass(frozen=True)
class ExperimentConfig:
    aggregation: AggregationConfig = field(default_factory=AggregationConfig)
    training: TrainConfig = field(default_factory=TrainConfig)
    t_q: int = 8
    t_v: int = 32
    d: int = 16
    d_h: int = 32
    preset: str = ""

    def __post_init__(self) -> None:
        if self.t_q < 1 or self.t_v < 1:
            raise ValueError("database sample caps must be >= 1")

    @classmethod
    def from_dict(cls, values: dict) -> ExperimentConfig:
        """Build from flat file keys; a missing key keeps its default."""
        unknown = values.keys() - KEY_TYPES.keys()
        if unknown:
            raise ValueError(f"unknown config keys {sorted(unknown)}")
        sections = {
            name: section(**{
                f.name: values[_file_key(f.name)]
                for f in fields(section) if _file_key(f.name) in values
            })
            for name, section in _SECTIONS.items()
        }
        own = {k: v for k, v in values.items() if k in _OWN_KEYS}
        return cls(**sections, **own)

    def to_dict(self) -> dict:
        """The flat file keys and their values."""
        flat = {k: v for k, v in asdict(self).items() if k not in _SECTIONS}
        for name in _SECTIONS:
            flat.update((_file_key(k), v) for k, v in asdict(getattr(self, name)).items())
        return flat

    def write_resolved(self, path: str | Path) -> None:
        lines = [f"{key} = {value}" for key, value in sorted(self.to_dict().items())]
        Path(path).write_text("\n".join(lines) + "\n", encoding="utf-8")


_OWN_KEYS = {k: v for k, v in get_type_hints(ExperimentConfig).items() if k not in _SECTIONS}
# Every flat file key and its type, taken from the dataclasses that own them.
KEY_TYPES: dict[str, type] = {
    **{
        _file_key(k): v
        for section in _SECTIONS.values()
        for k, v in get_type_hints(section).items()
    },
    **_OWN_KEYS,
}

# Hyperparameter presets for the two dataset regimes.
PRESETS: dict[str, dict] = {
    "gqa": dict(w_q=0.6, w_v=0.4, k_q=4, k_v=16, t_q=8, t_v=32),
    "vqa2": dict(w_q=0.6, w_v=0.4, k_q=4, k_v=4, t_q=1, t_v=32),
}

_BOOLEANS = {"true": True, "1": True, "yes": True, "false": False, "0": False, "no": False}


def _boolean(value: str) -> bool:
    if value.lower() not in _BOOLEANS:
        raise ValueError(f"expected a boolean, got {value!r}")
    return _BOOLEANS[value.lower()]


def load_experiment_config(
    path: str | Path | None = None,
    preset: str | None = None,
    overrides: dict | None = None,
) -> ExperimentConfig:
    """Resolve: defaults, then preset, then config file, then flag overrides.

    The result is validated once, after all layers are applied.
    """
    file_values = {}
    if path is not None:
        converters = {k: _boolean if kind is bool else kind for k, kind in KEY_TYPES.items()}
        file_values = parse_kv_file(path, converters)
    preset_name = preset or file_values.get("preset") or ""
    if preset_name and preset_name not in PRESETS:
        raise ValueError(f"unknown preset {preset_name!r} (have: {sorted(PRESETS)})")
    values = {**PRESETS.get(preset_name, {}), **file_values}
    values.update((k, v) for k, v in (overrides or {}).items() if v is not None)
    values["preset"] = preset_name
    return ExperimentConfig.from_dict(values)
