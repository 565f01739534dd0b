"""Experiment configuration: a strict, round-trippable schema.

Configs load from YAML (or any mapping), reject unknown keys, and echo
back as canonical JSON so a run can be reproduced from its own report.
"""

from __future__ import annotations

import dataclasses
import json
import math
from dataclasses import dataclass, fields
from pathlib import Path
from typing import Any, get_args, get_type_hints

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


def _fits(kinds: tuple, value) -> bool:
    """Whether ``value`` fits a field whose annotation allows ``kinds``:
    an int field takes an int but not a bool, a float field takes a finite
    int or float, kept as written, and an ``X | None`` field also takes null."""
    if value is None:
        return type(None) in kinds
    if float in kinds:
        return type(value) in (int, float) and math.isfinite(value)
    return type(value) in kinds


def _build(cls, data: dict, where: str):
    """``cls`` from a mapping; a field whose annotation names a dataclass
    is a section, built from its own mapping."""
    if not isinstance(data, dict):
        raise ConfigError(f"{where}: expected a mapping, got {type(data).__name__}")
    annotations = {f.name: f.type for f in fields(cls)}
    unknown = set(data) - set(annotations)
    if unknown:
        raise ConfigError(f"{where}: unknown key(s) {sorted(unknown)}")
    hints = get_type_hints(cls)
    kwargs = {}
    for name, value in data.items():
        kinds = get_args(hints[name]) or (hints[name],)
        section = next((k for k in kinds if dataclasses.is_dataclass(k)), None)
        if section is not None and value is not None:
            value = _build(section, value, f"{where}.{name}")
        elif not _fits(kinds, value):
            raise ConfigError(f"{where}.{name}: expected {annotations[name]}, got {value!r}")
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
            raise ValueError(f"xi must be nonnegative, got {self.xi}")


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
        if self.mode not in ("constant", "scaled"):
            raise ValueError(f"unknown attack mode {self.mode!r}; use constant or scaled")
        if self.epsilon < 0 or self.malicious < 0:
            raise ValueError("attack epsilon and malicious must be nonnegative")


@dataclass(frozen=True)
class QuadraticConfig:
    """Analytic task family.

    Every agent's per-coordinate curvature is spread evenly over [curv_low, curv_high],
    or is curv_low alone at dim 1, where curv_high keeps its default or equals curv_low.
    ``bias_amp``/``bias_amp2`` put each agent's optimum on a two-harmonic ring profile; its
    mean, the global optimum, is the origin for n >= 3, bias_amp2 for n = 2 and
    bias_amp + bias_amp2 for n = 1, per coordinate. ``far_start`` offsets every initial
    weight by a common constant.
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
        if self.dim == 1 and self.curv_high not in (QuadraticConfig.curv_high, self.curv_low):
            raise ValueError("at dim 1 only curv_low is used; curv_high must equal it or stay 2.0")


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
        if not 0 <= self.noise_scale < math.inf:
            raise ValueError(f"noise_scale must be finite and nonnegative, got {self.noise_scale}")
        if self.clusters > self.households:
            raise ValueError(f"need clusters <= households; {self.clusters} > {self.households}")


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
    model: ModelConfig = ModelConfig()
    noise: NoiseConfig = NoiseConfig()
    secure: SecureConfig = SecureConfig()
    quadratic: QuadraticConfig = QuadraticConfig()
    data: DataConfig = DataConfig()
    attack: AttackConfig | None = None

    def __post_init__(self) -> None:
        # A config built in code meets the finite-float rule that parsing applies.
        sections = [("", self)] + [(f"{f.name}.", getattr(self, f.name)) for f in fields(self)]
        for prefix, section in sections:
            for f in fields(section) if dataclasses.is_dataclass(section) else ():
                value = getattr(section, f.name)
                if isinstance(value, float) and not math.isfinite(value):
                    raise ValueError(f"{prefix}{f.name} must be finite, got {value}")
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
        if self.tolerance is not None and self.tolerance <= 0:
            raise ValueError("tolerance must be positive")
        for key, default in unread_defaults(self.strategy, self.task).items():
            if getattr(self, key) != default:
                raise ValueError(f"{key} applies only to {READ_BY[key][2]}")
        if not self.secure.enabled and self.secure != SecureConfig():
            raise ValueError("secure.fraction_bits, integer_bits and record_transcript need secure.enabled")
        if self.secure.enabled and self.agents < 3:
            raise ValueError(f"secure aggregation needs at least 3 agents; the run has {self.agents}")
        if self.attack is not None and self.attack.malicious > self.agents:
            raise ValueError(f"attack.malicious exceeds the run's {self.agents} agents")

    @property
    def agents(self) -> int:
        """Agents the run trains: 1 for centralized, else agent_count or data.pick."""
        if self.strategy == "centralized":
            return 1
        return self.agent_count if self.task == "quadratic" else self.data.pick

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


# The keys that only some runs read: key -> (strategies, tasks, those runs).
# A run reads the key if both list its own; any other keeps the default.
READ_BY = {
    "subset_size": (("dms", "ctl"), TASKS, "the dms and ctl schedules"),
    "substructure_count": (("dms", "ctl"), TASKS, "the dms and ctl schedules"),
    "agent_count": ({*STRATEGIES} - {"centralized"}, ("quadratic",), "multi-agent quadratic runs"),
    "tolerance": (STRATEGIES, ("quadratic",), "the quadratic task"),
    "allow_unstable": (STRATEGIES, ("quadratic",), "the quadratic task"),
    "quadratic": (STRATEGIES, ("quadratic",), "the quadratic task"),
    "model": (STRATEGIES, ("forecast",), "the forecast task"),
    "data": (STRATEGIES, ("forecast",), "the forecast task"),
}


def unread_defaults(strategy: str, task: str) -> dict[str, Any]:
    """The :data:`READ_BY` keys a ``strategy`` run on ``task`` leaves at their defaults."""
    return {
        key: getattr(ExperimentConfig, key)  # the field's default
        for key, (strategies, tasks, _) in READ_BY.items()
        if strategy not in strategies or task not in tasks
    }


def parse_config(data: dict | None) -> ExperimentConfig:
    """Strict mapping -> config; unknown keys and bad values raise
    :class:`ConfigError`; None (an empty file) is the empty mapping."""
    return _build(ExperimentConfig, {} if data is None else data, "config")


def load_config(path: str | Path, **fixed) -> ExperimentConfig:
    """Parse a YAML config file, with the ``fixed`` keys set over the file's;
    PyYAML decodes the bytes, so a file that is not UTF-8 is invalid YAML."""
    try:
        raw = yaml.safe_load(Path(path).read_bytes())
    except FileNotFoundError as exc:
        raise ConfigError(f"config file not found: {path}") from exc
    except yaml.YAMLError as exc:
        raise ConfigError(f"config file is not valid YAML: {exc}") from exc
    return parse_config({**(raw or {}), **fixed} if raw is None or isinstance(raw, dict) else raw)
