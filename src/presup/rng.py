"""Seeded, splittable randomness.

Built on numpy's counter-based Philox generator, which produces identical
streams for a given key on every platform. Child generators are derived by
hashing the parent seed with a name, so components can be re-run
independently of each other.
"""

from __future__ import annotations

import hashlib

import numpy as np

from .errors import UsageError


def derive_seed(seed: int, name: str) -> int:
    digest = hashlib.sha256(f"{seed}/{name}".encode("utf-8")).digest()
    return int.from_bytes(digest[:8], "big")


class Rng:
    def __init__(self, seed: int):
        self.seed = int(seed)
        self._gen = np.random.Generator(np.random.Philox(key=self.seed))

    def child(self, name: str) -> "Rng":
        """Independent stream derived deterministically from (seed, name)."""
        return Rng(derive_seed(self.seed, name))

    def uniform(self, low: float, high: float, size) -> np.ndarray:
        return self._gen.uniform(low, high, size)

    def random(self, size) -> np.ndarray:
        return self._gen.random(size)

    def integers(self, low: int, high: int) -> int:
        return int(self._gen.integers(low, high))

    def integers_below(self, highs: list) -> list:
        """One draw from [0, h) for each h of `highs`, in one call: the
        values that successive integers(0, h) calls would give."""
        return self._gen.integers(0, np.asarray(highs, dtype=np.int64)).tolist()

    def permutation(self, n: int) -> np.ndarray:
        return self._gen.permutation(n)

    def shuffled(self, seq: list) -> list:
        return [seq[i] for i in self._gen.permutation(len(seq))]


def dropout_mask(shape, p: float, rng: Rng) -> np.ndarray:
    """Inverted-dropout mask: 0 with probability p, else 1/(1-p), so the
    mask has unit expectation and the eval path needs no rescaling."""
    if not 0.0 <= p < 1.0:
        raise UsageError(f"dropout probability must be in [0, 1), got {p}")
    keep = rng.random(shape) >= p
    return keep / (1.0 - p)
