"""Named parameter storage, Adam, and elementwise gradient clipping."""

from __future__ import annotations

import numpy as np

from .errors import UsageError
from .tensor import Tensor

# Adam's moment decay rates and denominator guard
BETA1 = 0.9
BETA2 = 0.999
EPS = 1e-8


class ParamStore:
    """Named trainable parameter tensors. Iteration is always sorted by
    name, so runs are reproducible."""

    def __init__(self):
        self._tensors: dict[str, Tensor] = {}

    def add(self, name: str, tensor: Tensor) -> Tensor:
        if name in self._tensors:
            raise UsageError(f"duplicate parameter name {name!r}")
        self._tensors[name] = tensor
        return tensor

    def __getitem__(self, name: str) -> Tensor:
        return self._tensors[name]

    def __contains__(self, name: str) -> bool:
        return name in self._tensors

    def __len__(self) -> int:
        return len(self._tensors)

    def names(self):
        return sorted(self._tensors)

    def items(self):
        for name in self.names():
            yield name, self._tensors[name]

    def param_count(self) -> int:
        return sum(t.size for _, t in self.items())

    def copy_values(self) -> dict:
        return {name: t.data.copy() for name, t in self.items()}

    def load_values(self, values: dict) -> None:
        for name, arr in values.items():
            t = self._tensors[name]
            if t.shape != np.shape(arr):
                raise UsageError(
                    f"parameter {name!r}: shape {np.shape(arr)} != {t.shape}")
            t.data[...] = arr


class AdamState:
    """First/second moment accumulators plus step counter for one ParamStore."""

    def __init__(self, store: ParamStore, lr: float):
        self.lr = lr
        self.t = 0
        self.m = {name: np.zeros_like(t.data) for name, t in store.items()}
        self.v = {name: np.zeros_like(t.data) for name, t in store.items()}


def clip_gradients(grads: dict, lo: float, hi: float) -> dict:
    """Clamp every gradient component into [lo, hi]."""
    if lo > hi:
        raise UsageError(f"clip bounds reversed: lo={lo} > hi={hi}")
    return {name: np.clip(g, lo, hi) for name, g in grads.items()}


def adam_step(store: ParamStore, grads: dict, state: AdamState) -> None:
    """Standard Adam update with bias correction; parameters updated in place."""
    state.t += 1
    bc1 = 1.0 - BETA1 ** state.t
    bc2 = 1.0 - BETA2 ** state.t
    for name, tensor in store.items():
        if name not in grads:
            raise UsageError(f"missing gradient for parameter {name!r}")
        g = grads[name]
        m = state.m[name]
        v = state.v[name]
        m *= BETA1
        m += (1.0 - BETA1) * g
        v *= BETA2
        v += (1.0 - BETA2) * g * g
        m_hat = m / bc1
        v_hat = v / bc2
        tensor.data -= state.lr * m_hat / (np.sqrt(v_hat) + EPS)
