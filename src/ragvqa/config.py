"""Experiment configuration: typed keys for the shared key-value file
parser, named presets, and the resolved-config serialization written into
run directories."""

from __future__ import annotations

from dataclasses import asdict, dataclass
from pathlib import Path
from typing import get_type_hints

from .corpus import parse_kv_file
from .ragtrain import AggregationConfig, TrainConfig

__all__ = ["ExperimentConfig", "PRESETS", "load_experiment_config"]


@dataclass(frozen=True)
class ExperimentConfig:
    w_q: float = 0.6
    w_v: float = 0.4
    k_q: int = 4
    k_v: int = 16
    t_q: int = 8
    t_v: int = 32
    mode: str = "weighted_feature"
    refresh_every: int = 1
    use_dq: bool = True
    use_dv: bool = True
    lr: float = 0.05
    epochs: int = 10
    seed: int = 0
    preset: str = ""
    d: int = 16
    d_h: int = 32

    def __post_init__(self) -> None:
        # the run configs own their range checks; building them validates
        self.aggregation()
        self.training()
        if self.t_q < 1 or self.t_v < 1:
            raise ValueError("database sample caps must be >= 1")

    def aggregation(self) -> AggregationConfig:
        return AggregationConfig(
            w_q=self.w_q, w_v=self.w_v, k_q=self.k_q, k_v=self.k_v,
            mode=self.mode, refresh_every=self.refresh_every,
            use_dq=self.use_dq, use_dv=self.use_dv,
        )

    def training(self) -> TrainConfig:
        return TrainConfig(epochs=self.epochs, learning_rate=self.lr, seed=self.seed)

    def to_dict(self) -> dict:
        return asdict(self)

    def write_resolved(self, path: str | Path) -> None:
        lines = [f"{key} = {value}" for key, value in sorted(self.to_dict().items())]
        Path(path).write_text("\n".join(lines) + "\n", encoding="utf-8")


# Hyperparameter presets for the two dataset regimes.
PRESETS: dict[str, dict] = {
    "gqa": dict(w_q=0.6, w_v=0.4, k_q=4, k_v=16, t_q=8, t_v=32),
    "vqa2": dict(w_q=0.6, w_v=0.4, k_q=4, k_v=4, t_q=1, t_v=32),
}

_KEY_TYPES = get_type_hints(ExperimentConfig)
_BOOLEANS = {"true": True, "1": True, "yes": True, "false": False, "0": False, "no": False}


def _coerce(key: str, value: str):
    kind = _KEY_TYPES[key]
    if kind is not bool:
        return kind(value)
    if value.lower() not in _BOOLEANS:
        raise ValueError(f"config key {key!r}: expected a boolean, got {value!r}")
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
        file_values = {k: _coerce(k, v) for k, v in parse_kv_file(path, _KEY_TYPES).items()}
    preset_name = preset or file_values.get("preset") or ""
    if preset_name and preset_name not in PRESETS:
        raise ValueError(f"unknown preset {preset_name!r} (have: {sorted(PRESETS)})")
    values = {**PRESETS.get(preset_name, {}), **file_values}
    values.update((k, v) for k, v in (overrides or {}).items() if v is not None)
    values["preset"] = preset_name
    return ExperimentConfig(**values)
