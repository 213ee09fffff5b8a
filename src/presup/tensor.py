"""Reverse-mode automatic differentiation over float64 numpy arrays.

Every operation is a module-level function that takes and returns plain
``np.ndarray``s. When a :class:`Tape` is active (entered as a context
manager), each op appends a node holding its output array, its input arrays
and a vector-Jacobian product ``vjp(g, needs)``, where ``needs[i]`` says
whether input i needs a gradient. :func:`backward` walks the tape in reverse,
visiting each node once.

The graph is keyed on array identity (``id()`` and ``is``), never on values,
so every op returns a fresh array object. An array may be written in place
only between tapes (the optimizer does this), never while a tape that
recorded it is still to be walked. Callers pass float64 arrays; an op does
not cast.

Shapes are plain numpy shapes; model code keeps everything 2-D and represents
vectors as single-column matrices.
"""

from __future__ import annotations

import numpy as np

from .errors import ShapeError, UsageError

_TAPE_STACK: list["Tape"] = []


class _Node:
    __slots__ = ("out", "inputs", "vjp")

    def __init__(self, out, inputs, vjp):
        self.out = out
        self.inputs = inputs
        self.vjp = vjp


class Tape:
    """Ordered record of primitive operations, in execution (= topological)
    order. Confined to one thread of execution."""

    def __init__(self):
        self.nodes: list[_Node] = []

    def __enter__(self):
        _TAPE_STACK.append(self)
        return self

    def __exit__(self, *exc):
        _TAPE_STACK.pop()
        return False

    def __len__(self):
        return len(self.nodes)


def _record(out, inputs, vjp):
    if _TAPE_STACK:
        _TAPE_STACK[-1].nodes.append(_Node(out, inputs, vjp))
    return out


def _unbroadcast(grad, shape):
    """Reduce a broadcasted gradient back to the original operand shape."""
    while grad.ndim > len(shape):
        grad = grad.sum(axis=0)
    for axis, dim in enumerate(shape):
        if dim == 1 and grad.shape[axis] != 1:
            grad = grad.sum(axis=axis, keepdims=True)
    return grad


# ---------------------------------------------------------------------------
# primitives


def matmul(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    if a.ndim != 2 or b.ndim != 2 or a.shape[1] != b.shape[0]:
        raise ShapeError(f"matmul: incompatible shapes {a.shape} @ {b.shape}")
    return _record(a @ b, (a, b), lambda g, needs: (g @ b.T if needs[0] else None,
                                                    a.T @ g if needs[1] else None))


def _binary(a, b, fn, name):
    try:
        np.broadcast_shapes(a.shape, b.shape)
    except ValueError:
        raise ShapeError(f"{name}: incompatible shapes {a.shape}, {b.shape}") from None
    return fn(a, b)


def add(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    out = _binary(a, b, np.add, "add")
    return _record(out, (a, b), lambda g, _: (_unbroadcast(g, a.shape), _unbroadcast(g, b.shape)))


def mul(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    out = _binary(a, b, np.multiply, "mul")
    return _record(out, (a, b),
                   lambda g, needs: (_unbroadcast(g * b, a.shape) if needs[0] else None,
                                     _unbroadcast(g * a, b.shape) if needs[1] else None))


def tanh(x: np.ndarray) -> np.ndarray:
    out = np.tanh(x)
    return _record(out, (x,), lambda g, _: (g * (1.0 - out ** 2),))


def _sigmoid(a):
    # exp(-|a|) never overflows: 1/(1+e) for a >= 0, e/(1+e) below
    e = np.exp(-np.abs(a))
    return np.where(a >= 0, 1.0 / (1.0 + e), e / (1.0 + e))


def _softmax(a: np.ndarray, axis: int) -> np.ndarray:
    """Softmax along `axis`, shifted by each slice's maximum so that exp never
    overflows. Entries of -inf (masked) get zero weight, and a slice with no
    finite entry comes out all zero; on finite input both guards are no-ops."""
    top = a.max(axis=axis, keepdims=True)
    top[np.isneginf(top)] = 0.0
    e = np.exp(a - top)
    total = e.sum(axis=axis, keepdims=True)
    total[total == 0.0] = 1.0
    return e / total


def relu(x: np.ndarray) -> np.ndarray:
    return _record(np.maximum(x, 0.0), (x,), lambda g, _: (g * (x > 0.0),))


def concat(arrays, axis: int) -> np.ndarray:
    arrays = list(arrays)
    if not arrays:
        raise UsageError("concat of zero arrays")
    ndim = arrays[0].ndim
    for t in arrays[1:]:
        if t.ndim != ndim:
            raise ShapeError(
                f"concat: rank mismatch {[t.shape for t in arrays]}")
        for ax in range(ndim):
            if ax != axis % ndim and t.shape[ax] != arrays[0].shape[ax]:
                raise ShapeError(
                    f"concat: incompatible shapes {[t.shape for t in arrays]} on axis {axis}")
    out = np.concatenate(arrays, axis=axis)
    sizes = [t.shape[axis % ndim] for t in arrays]
    splits = np.cumsum(sizes)[:-1]

    def vjp(g, _):
        return tuple(np.split(g, splits, axis=axis))

    return _record(out, tuple(arrays), vjp)


def gather_rows(table: np.ndarray, indices) -> np.ndarray:
    idx = np.asarray(indices, dtype=np.intp)

    def vjp(g, _):
        z = np.zeros_like(table)
        np.add.at(z, idx, g)
        return (z,)

    return _record(table[idx], (table,), vjp)


def softmax_cols(x: np.ndarray) -> np.ndarray:
    """Numerically stabilized softmax; each column becomes a probability
    distribution."""
    out = _softmax(x, 0)

    def vjp(g, _):
        dot = (g * out).sum(axis=0, keepdims=True)
        return (out * (g - dot),)

    return _record(out, (x,), vjp)


# ---------------------------------------------------------------------------
# reverse pass


class Gradients:
    """Gradient lookup keyed by array identity for the arrays backward()
    was asked for; an unreached one reads as zero. Reading an array outside
    them is a UsageError: its gradient was never computed."""

    def __init__(self, by_id, wanted):
        self._by_id = by_id
        self._wanted = wanted

    def wrt(self, t: np.ndarray) -> np.ndarray:
        if id(t) not in self._wanted:
            raise UsageError(f"gradient of an array of shape {t.shape} "
                             "was not requested from backward()")
        g = self._by_id.get(id(t))
        return np.zeros_like(t) if g is None else g

    def for_store(self, store) -> dict:
        """Gradients keyed like the ParamStore's entries."""
        return {name: self.wrt(t) for name, t in store.items()}


def backward(tape: Tape, loss: np.ndarray, wrt) -> Gradients:
    """Exact reverse-mode gradients of a scalar loss recorded on `tape`
    towards `wrt`, a collection of arrays.

    One forward sweep marks the arrays that depend on those in `wrt`; the
    reverse walk skips unmarked nodes and calls each VJP as vjp(g, needs),
    needs[i] telling whether input i is marked, so that a VJP may return
    None for the others.
    """
    if loss.size != 1:
        raise UsageError(f"backward: loss must be scalar, got shape {loss.shape}")
    if not any(n.out is loss for n in tape.nodes):
        raise UsageError("backward: loss was not produced on this tape")
    wanted = frozenset(id(t) for t in wrt)
    marked = set(wanted)
    needs_of = []
    for node in tape.nodes:
        needs = tuple(id(t) in marked for t in node.inputs)
        if any(needs):
            marked.add(id(node.out))
        needs_of.append(needs)
    grads: dict[int, np.ndarray] = {id(loss): np.ones_like(loss)}
    for node, needs in zip(reversed(tape.nodes), reversed(needs_of)):
        g_out = grads.get(id(node.out))
        if g_out is None or not any(needs):
            continue
        for t, need, g in zip(node.inputs, needs, node.vjp(g_out, needs)):
            if g is None or not need:
                continue
            prev = grads.get(id(t))
            grads[id(t)] = g if prev is None else prev + g
    return Gradients(grads, wanted)
