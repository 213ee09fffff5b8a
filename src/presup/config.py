"""Run configuration: dataclasses, JSON loading, and dotted-key overrides."""

from __future__ import annotations

import dataclasses
import json
import math
from dataclasses import dataclass, field

from .errors import UsageError
from .rng import derive_seed

DEFAULT_ADVERBS = ("again", "also", "still", "too", "yet")
MODEL_VARIANTS = ("wp", "lstm", "cnn", "logreg", "mfc")  # the classes are models.VARIANTS


@dataclass
class ExtractionConfig:
    adverbs: tuple = DEFAULT_ADVERBS
    window_before: int = 50
    max_len: int = 60
    test_sections: tuple = ()
    dev_fraction: float = 0.10

    def __post_init__(self):
        self.adverbs = tuple(self.adverbs)
        self.test_sections = tuple(str(s) for s in self.test_sections)
        _at_least(self, 1, "window_before")
        if not 0.0 < self.dev_fraction < 1.0:
            raise UsageError(f"dev_fraction must be in (0, 1), got {self.dev_fraction}")
        _at_least(self, 2, "max_len")


@dataclass
class ModelConfig:
    variant: str = "wp"          # one of MODEL_VARIANTS
    hidden_size: int = 64
    embed_dim: int = 300
    pos_mode: str = "off"        # off | one_hot | embed
    pos_dim: int = 40
    dense_units: int = 64
    activation: str = "relu"     # relu | tanh
    cnn_widths: tuple = (3, 4, 5)
    cnn_maps: int = 100
    max_len: int = 60
    logreg_l2: float = 1e-4
    logreg_lr: float = 0.5
    logreg_epochs: int = 200

    def __post_init__(self):
        self.cnn_widths = widths = tuple(self.cnn_widths)
        if self.variant not in MODEL_VARIANTS:
            raise UsageError(f"unknown model variant {self.variant!r}")
        if self.pos_mode not in ("off", "one_hot", "embed"):
            raise UsageError(f"unknown pos_mode {self.pos_mode!r}")
        if self.activation not in ("relu", "tanh"):
            raise UsageError(f"unknown activation {self.activation!r}")
        _at_least(self, 1, "hidden_size", "embed_dim", "pos_dim", "dense_units",
                  "cnn_maps", "max_len")
        _at_least(self, 0, "logreg_epochs")
        if not (math.isfinite(self.logreg_lr) and self.logreg_lr > 0.0):
            raise UsageError(f"logreg_lr must be finite and > 0, got {self.logreg_lr}")
        if not (math.isfinite(self.logreg_l2) and self.logreg_l2 >= 0.0):
            raise UsageError(f"logreg_l2 must be finite and >= 0, got {self.logreg_l2}")
        if not widths or not all(type(w) is int and 1 <= w <= self.max_len for w in widths) \
                or len(set(widths)) != len(widths):
            raise UsageError(f"cnn_widths must be distinct integers in [1, max_len={self.max_len}], "
                             f"got {widths}")


@dataclass
class TrainConfig:
    batch_size: int = 64
    dropout: float = 0.5
    clip_lo: float = -1.0
    clip_hi: float = 1.0
    patience: int = 10
    max_epochs: int = 100
    lr: float = 1e-3
    dataset: str = "all"

    def __post_init__(self):
        _at_least(self, 1, "batch_size", "patience", "max_epochs")
        if not 0.0 <= self.dropout < 1.0:
            raise UsageError(f"dropout must be in [0, 1), got {self.dropout}")
        if not (math.isfinite(self.lr) and self.lr > 0.0):
            raise UsageError(f"lr must be finite and > 0, got {self.lr}")
        if not self.clip_lo <= self.clip_hi:
            raise UsageError(f"clip_lo must be <= clip_hi, got {self.clip_lo} > {self.clip_hi}")


def _at_least(cfg, floor: int, *names) -> None:
    """Each named field must be an int (not a float or bool) >= floor."""
    for name in names:
        value = getattr(cfg, name)
        if type(value) is not int or value < floor:
            raise UsageError(f"{name} must be an integer >= {floor}, got {value!r}")


@dataclass
class RunConfig:
    seed: int = 0
    paths: dict = field(default_factory=dict)
    extraction: ExtractionConfig = field(default_factory=ExtractionConfig)
    model: ModelConfig = field(default_factory=ModelConfig)
    train: TrainConfig = field(default_factory=TrainConfig)

    @classmethod
    def from_dict(cls, d: dict) -> "RunConfig":
        known = {"seed", "paths", "extraction", "model", "train"}
        unknown = set(d) - known
        if unknown:
            raise UsageError(f"unknown config keys: {sorted(unknown)}")
        try:
            return cls(
                seed=int(d.get("seed", 0)),
                paths=dict(d.get("paths", {})),
                extraction=ExtractionConfig(**d.get("extraction", {})),
                model=ModelConfig(**d.get("model", {})),
                train=TrainConfig(**d.get("train", {})),
            )
        except TypeError as e:
            raise UsageError(f"bad config: {e}") from None

    def to_dict(self) -> dict:
        return {
            "seed": self.seed,
            "paths": dict(self.paths),
            "extraction": _asdict(self.extraction),
            "model": _asdict(self.model),
            "train": _asdict(self.train),
        }

    def sub_seed(self, name: str) -> int:
        """Named sub-seed derived from the global seed."""
        return derive_seed(self.seed, name)


def _asdict(dc) -> dict:
    out = dataclasses.asdict(dc)
    return {k: (list(v) if isinstance(v, tuple) else v) for k, v in out.items()}


def load_config_dict(path) -> dict:
    with open(path, "r", encoding="utf-8") as f:
        try:
            d = json.load(f)
        except json.JSONDecodeError as e:
            raise UsageError(f"config {path}: invalid JSON ({e})") from None
    if not isinstance(d, dict):
        raise UsageError(f"config {path}: top level must be an object")
    return d


def apply_overrides(d: dict, overrides) -> dict:
    """Apply repeatable --set key.path=value flags; values parse as JSON
    literals, falling back to plain strings."""
    for item in overrides or ():
        if "=" not in item:
            raise UsageError(f"--set expects key=value, got {item!r}")
        key, raw = item.split("=", 1)
        try:
            value = json.loads(raw)
        except json.JSONDecodeError:
            value = raw
        node = d
        parts = key.split(".")
        for part in parts[:-1]:
            node = node.setdefault(part, {})
            if not isinstance(node, dict):
                raise UsageError(f"--set {key}: {part!r} is not an object")
        node[parts[-1]] = value
    return d
