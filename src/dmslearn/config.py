"""Experiment configuration: a strict, round-trippable schema.

Configs load from YAML (or any mapping), reject unknown keys, and echo
back as canonical JSON so a run can be reproduced from its own report.
"""

from __future__ import annotations

import dataclasses
import json
from dataclasses import dataclass, field, fields
from pathlib import Path
from typing import Any

import yaml

STRATEGIES = ("dms", "fedavg", "dring", "dfc", "ctl", "centralized")
TASKS = ("quadratic", "forecast")

__all__ = [
    "STRATEGIES",
    "TASKS",
    "AttackConfig",
    "ConfigError",
    "DataConfig",
    "ExperimentConfig",
    "ModelConfig",
    "NoiseConfig",
    "QuadraticConfig",
    "SecureConfig",
    "load_config",
    "parse_config",
]


class ConfigError(Exception):
    """Invalid or inconsistent experiment configuration."""


def _build(cls, data: dict, where: str):
    if not isinstance(data, dict):
        raise ConfigError(f"{where}: expected a mapping, got {type(data).__name__}")
    known = {f.name: f for f in fields(cls)}
    unknown = set(data) - set(known)
    if unknown:
        raise ConfigError(f"{where}: unknown key(s) {sorted(unknown)}")
    kwargs = {}
    for name, value in data.items():
        f = known[name]
        sub = _SECTION_TYPES.get((cls, name))
        if sub is not None and value is not None:
            value = _build(sub, value, f"{where}.{name}")
        kwargs[name] = value
    try:
        return cls(**kwargs)
    except (TypeError, ValueError) as exc:
        raise ConfigError(f"{where}: {exc}") from exc


@dataclass(frozen=True)
class ModelConfig:
    """Forecast network shape."""

    lookback: int = 48
    hidden: int = 16
    horizon: int = 1

    def __post_init__(self) -> None:
        if min(self.lookback, self.hidden, self.horizon) < 1:
            raise ValueError("model sizes must be positive")


@dataclass(frozen=True)
class NoiseConfig:
    """Gradient-noise bound per agent; zero disables injection."""

    xi: float = 0.0

    def __post_init__(self) -> None:
        if self.xi < 0:
            raise ValueError("noise bound must be nonnegative")


@dataclass(frozen=True)
class SecureConfig:
    """Secure-aggregation switch and codec widths."""

    enabled: bool = False
    fraction_bits: int = 16
    integer_bits: int = 32
    record_transcript: bool = True


@dataclass(frozen=True)
class AttackConfig:
    """Optional adversary settings."""

    kind: str = "poison"
    epsilon: float = 0.2
    malicious: int = 3
    mode: str = "constant"

    def __post_init__(self) -> None:
        if self.kind != "poison":
            raise ValueError(f"unknown attack kind {self.kind!r}; only poison runs in an experiment")
        if self.epsilon < 0 or self.malicious < 0:
            raise ValueError("attack parameters must be nonnegative")


@dataclass(frozen=True)
class QuadraticConfig:
    """Analytic task family.

    Per-agent Hessians are diagonal with entries spread over
    [curv_low, curv_high]. ``bias_amp``/``bias_amp2`` put each agent's
    optimum on a two-harmonic profile around the ring index (summing to
    zero, so the global optimum stays at the origin), and ``far_start``
    offsets every initial weight by a common constant.
    """

    dim: int = 2
    curv_low: float = 1.0
    curv_high: float = 2.0
    bias_amp: float = 0.0
    bias_amp2: float = 0.0
    far_start: float = 0.0

    def __post_init__(self) -> None:
        if self.dim < 1:
            raise ValueError("dimension must be positive")
        if not (0 < self.curv_low <= self.curv_high):
            raise ValueError("need 0 < curv_low <= curv_high")


@dataclass(frozen=True)
class DataConfig:
    """Synthetic load-data settings for the forecast task."""

    households: int = 100
    days: int = 10
    clusters: int = 3
    pick: int = 30  # agents drawn from the largest cluster
    noise_scale: float = 0.05

    def __post_init__(self) -> None:
        if min(self.households, self.days, self.clusters, self.pick) < 1:
            raise ValueError("data sizes must be positive")


@dataclass(frozen=True)
class ExperimentConfig:
    strategy: str = "dms"
    task: str = "quadratic"
    agent_count: int = 30
    rounds: int = 200
    seed: int = 0
    gamma: float = 0.05
    alpha: float = 1.0
    epochs: int = 1
    subset_size: int | None = None
    substructure_count: int = 8
    tolerance: float | None = None
    allow_unstable: bool = False
    model: ModelConfig = field(default_factory=ModelConfig)
    noise: NoiseConfig = field(default_factory=NoiseConfig)
    secure: SecureConfig = field(default_factory=SecureConfig)
    quadratic: QuadraticConfig = field(default_factory=QuadraticConfig)
    data: DataConfig = field(default_factory=DataConfig)
    attack: AttackConfig | None = None

    def __post_init__(self) -> None:
        if self.strategy not in STRATEGIES:
            raise ValueError(f"unknown strategy {self.strategy!r}")
        if self.task not in TASKS:
            raise ValueError(f"unknown task {self.task!r}")
        if self.agent_count < 1:
            raise ValueError("agent_count must be positive")
        if self.rounds < 0:
            raise ValueError("rounds must be nonnegative")
        if self.seed < 0:
            raise ValueError("seed must be nonnegative")
        if self.gamma <= 0:
            raise ValueError("gamma must be positive")
        if not (0 < self.alpha <= 1):
            raise ValueError("alpha must lie in (0, 1]")
        if self.epochs < 1:
            raise ValueError("epochs must be positive")
        if self.subset_size is not None and self.subset_size < 3:
            raise ValueError("subset_size must be at least 3")
        if self.substructure_count < 1:
            raise ValueError("substructure_count must be positive")
        if self.strategy == "centralized" and self.secure.enabled:
            raise ValueError("secure aggregation needs at least 3 contributors; centralized has one")
        if self.secure.enabled and self.strategy == "fedavg" and self.agent_count < 3:
            raise ValueError("secure fedavg needs at least 3 agents")

    def to_dict(self) -> dict[str, Any]:
        return dataclasses.asdict(self)

    def echo_json(self) -> str:
        """Canonical one-line JSON used for config.echo and the report."""
        return json.dumps(self.to_dict(), sort_keys=True, separators=(",", ":"))

    def replace(self, **changes) -> "ExperimentConfig":
        try:
            return dataclasses.replace(self, **changes)
        except (TypeError, ValueError) as exc:
            raise ConfigError(f"config: {exc}") from exc


_SECTION_TYPES = {
    (ExperimentConfig, "model"): ModelConfig,
    (ExperimentConfig, "noise"): NoiseConfig,
    (ExperimentConfig, "secure"): SecureConfig,
    (ExperimentConfig, "quadratic"): QuadraticConfig,
    (ExperimentConfig, "data"): DataConfig,
    (ExperimentConfig, "attack"): AttackConfig,
}


def parse_config(data: dict | None) -> ExperimentConfig:
    """Strict mapping -> config; unknown keys and bad values raise
    :class:`ConfigError`."""
    return _build(ExperimentConfig, data or {}, "config")


def load_config(path: str | Path) -> ExperimentConfig:
    """Parse a YAML config file."""
    try:
        raw = yaml.safe_load(Path(path).read_text())
    except FileNotFoundError as exc:
        raise ConfigError(f"config file not found: {path}") from exc
    except yaml.YAMLError as exc:
        raise ConfigError(f"config file is not valid YAML: {exc}") from exc
    if raw is None:
        raw = {}
    return parse_config(raw)
