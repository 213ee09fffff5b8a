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
        adverbs, sections = self.adverbs, self.test_sections
        # each adverb names a dataset directory, beside the pooled "all", and
        # labels its positives, against the negatives' "none"
        words = isinstance(adverbs, (list, tuple)) and all(
            type(a) is str and a.isalpha() and a == a.lower() and a not in ("all", "none")
            for a in adverbs)
        if not words or not adverbs or len(set(adverbs)) != len(adverbs):
            raise UsageError("adverbs must be a non-empty list of distinct lowercase words "
                             f"(letters only) other than 'all' and 'none', got {adverbs!r}")
        if not isinstance(sections, (list, tuple)):
            raise UsageError(f"test_sections must be a list, got {sections!r}")
        self.adverbs = tuple(adverbs)
        self.test_sections = tuple(str(s) for s in sections)
        _at_least(self, 1, "window_before")
        if not 0.0 < self.dev_fraction < 1.0:
            raise UsageError(f"dev_fraction must be in (0, 1), got {self.dev_fraction}")
        _at_least(self, 2, "max_len")
        # derived once here, not fields: not config keys, not in encode()
        self.targets = frozenset(self.adverbs)
        self.test_spec = _parse_section_spec(self.test_sections)

    def is_test_section(self, section: str) -> bool:
        """True iff samples from this corpus section go to the test split."""
        ranges, singles = self.test_spec
        if section in singles:
            return True
        try:
            v = int(section)
        except ValueError:
            return False
        return any(lo <= v <= hi for lo, hi in ranges)


def _parse_section_spec(test_sections) -> tuple:
    """(sorted non-overlapping (lo, hi) ranges, set of other section names)
    for a test_sections list of "lo-hi" ranges, numbers and names."""
    ranges = []
    singles = set()
    for item in test_sections:
        if "-" in item:
            lo_s, _, hi_s = item.partition("-")
            try:
                lo, hi = int(lo_s), int(hi_s)
            except ValueError:
                raise UsageError(f"test_sections: bad section range {item!r}") from None
            if lo > hi:
                raise UsageError(f"test_sections: bad section range {item!r}")
            ranges.append((lo, hi))
        elif item.isdigit():
            ranges.append((int(item), int(item)))
        else:
            singles.add(item)
    ranges.sort()
    for (alo, ahi), (blo, bhi) in zip(ranges, ranges[1:]):
        if blo <= ahi:
            raise UsageError(
                f"test_sections: overlapping ranges {alo}-{ahi} and {blo}-{bhi}")
    return ranges, singles


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
        if type(self.dataset) is not str or not self.dataset:
            raise UsageError(f"dataset must be a non-empty string, got {self.dataset!r}")
        # it names a directory under datasets/ and is part of output file names
        if self.dataset in (".", "..") or any(c in self.dataset for c in "/\\\0"):
            raise UsageError(f"dataset must be one path component, got {self.dataset!r}")
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

    def __post_init__(self):
        if type(self.seed) is not int:
            raise UsageError(f"seed must be an integer, got {self.seed!r}")
        if not isinstance(self.paths, dict) or \
                not all(type(path) is str for path in self.paths.values()):
            raise UsageError(f"paths must be an object of path strings, got {self.paths!r}")

    @classmethod
    def from_dict(cls, d: dict) -> "RunConfig":
        known = {"seed", "paths", "extraction", "model", "train"}
        unknown = set(d) - known
        if unknown:
            raise UsageError(f"unknown config keys: {sorted(unknown)}")
        return cls(
            seed=d.get("seed", 0),
            paths=d.get("paths", {}),
            extraction=decode(ExtractionConfig, d.get("extraction", {})),
            model=decode(ModelConfig, d.get("model", {})),
            train=decode(TrainConfig, d.get("train", {})),
        )

    def to_dict(self) -> dict:
        return {
            "seed": self.seed,
            "paths": dict(self.paths),
            "extraction": encode(self.extraction),
            "model": encode(self.model),
            "train": encode(self.train),
        }

    def sub_seed(self, name: str) -> int:
        """Named sub-seed derived from the global seed."""
        return derive_seed(self.seed, name)


def encode(section) -> dict:
    """A config section's fields as JSON values: tuples become lists."""
    out = dataclasses.asdict(section)
    return {k: (list(v) if isinstance(v, tuple) else v) for k, v in out.items()}


def decode(cls, fields):
    """Inverse of encode(); a key that cls lacks is a UsageError."""
    try:
        return cls(**fields)
    except TypeError as e:
        raise UsageError(f"bad config: {e}") from None


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
