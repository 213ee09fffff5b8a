"""Dense float64 tensors with reverse-mode automatic differentiation.

Every operation is a module-level function. When a :class:`Tape` is active
(entered as a context manager), each op appends a node holding the output,
the input tensors, a forward closure (for replay checks) and a vector-Jacobian
product ``vjp(g, needs)``, where ``needs[i]`` says whether input i needs a
gradient. :func:`backward` walks the tape in reverse, visiting each node once.

Shapes are plain numpy shapes; model code keeps everything 2-D and represents
vectors as single-column matrices.
"""

from __future__ import annotations

import numpy as np

from .errors import ShapeError, UsageError

_TAPE_STACK: list["Tape"] = []


class Tensor:
    """A dense float64 array. Data may be mutated in place only between
    tapes (the optimizer does this); never during a recorded forward pass."""

    __slots__ = ("data",)

    def __init__(self, data):
        self.data = np.asarray(data, dtype=np.float64)

    @property
    def shape(self):
        return self.data.shape

    @property
    def size(self):
        return self.data.size

    def item(self):
        if self.data.size != 1:
            raise UsageError(f"item() on tensor of shape {self.data.shape}")
        return float(self.data.reshape(-1)[0])

    def __repr__(self):
        return f"Tensor(shape={self.data.shape})"


class _Node:
    __slots__ = ("out", "inputs", "fwd", "vjp")

    def __init__(self, out, inputs, fwd, vjp):
        self.out = out
        self.inputs = inputs
        self.fwd = fwd
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

    def replay(self) -> bool:
        """Recompute every recorded op from its inputs; True iff all outputs
        reproduce bit-identically."""
        return all(np.array_equal(n.fwd(), n.out.data) for n in self.nodes)


def _record(out, inputs, fwd, vjp):
    if _TAPE_STACK:
        _TAPE_STACK[-1].nodes.append(_Node(out, inputs, fwd, vjp))
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


def matmul(a: Tensor, b: Tensor) -> Tensor:
    if a.data.ndim != 2 or b.data.ndim != 2 or a.shape[1] != b.shape[0]:
        raise ShapeError(f"matmul: incompatible shapes {a.shape} @ {b.shape}")
    out = Tensor(a.data @ b.data)
    return _record(
        out, (a, b),
        lambda: a.data @ b.data,
        lambda g, needs: (g @ b.data.T if needs[0] else None,
                          a.data.T @ g if needs[1] else None),
    )


def _binary(a, b, fn, name):
    try:
        shape = np.broadcast_shapes(a.shape, b.shape)
    except ValueError:
        raise ShapeError(f"{name}: incompatible shapes {a.shape}, {b.shape}") from None
    del shape
    return Tensor(fn(a.data, b.data))


def add(a: Tensor, b: Tensor) -> Tensor:
    out = _binary(a, b, np.add, "add")
    return _record(
        out, (a, b),
        lambda: a.data + b.data,
        lambda g, _: (_unbroadcast(g, a.shape), _unbroadcast(g, b.shape)),
    )


def mul(a: Tensor, b: Tensor) -> Tensor:
    out = _binary(a, b, np.multiply, "mul")
    return _record(
        out, (a, b),
        lambda: a.data * b.data,
        lambda g, needs: (_unbroadcast(g * b.data, a.shape) if needs[0] else None,
                          _unbroadcast(g * a.data, b.shape) if needs[1] else None),
    )


def tanh(x: Tensor) -> Tensor:
    out = Tensor(np.tanh(x.data))
    return _record(
        out, (x,),
        lambda: np.tanh(x.data),
        lambda g, _: (g * (1.0 - out.data ** 2),),
    )


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


def relu(x: Tensor) -> Tensor:
    out = Tensor(np.maximum(x.data, 0.0))
    return _record(
        out, (x,),
        lambda: np.maximum(x.data, 0.0),
        lambda g, _: (g * (x.data > 0.0),),
    )


def concat(tensors, axis: int) -> Tensor:
    tensors = list(tensors)
    if not tensors:
        raise UsageError("concat of zero tensors")
    ndim = tensors[0].data.ndim
    for t in tensors[1:]:
        if t.data.ndim != ndim:
            raise ShapeError(
                f"concat: rank mismatch {[t.shape for t in tensors]}")
        for ax in range(ndim):
            if ax != axis % ndim and t.shape[ax] != tensors[0].shape[ax]:
                raise ShapeError(
                    f"concat: incompatible shapes {[t.shape for t in tensors]} on axis {axis}")
    out = Tensor(np.concatenate([t.data for t in tensors], axis=axis))
    sizes = [t.shape[axis % ndim] for t in tensors]
    splits = np.cumsum(sizes)[:-1]

    def vjp(g, _):
        return tuple(np.split(g, splits, axis=axis))

    return _record(out, tuple(tensors),
                   lambda: np.concatenate([t.data for t in tensors], axis=axis),
                   vjp)


def gather_rows(table: Tensor, indices) -> Tensor:
    idx = np.asarray(indices, dtype=np.intp)
    out = Tensor(table.data[idx])

    def vjp(g, _):
        z = np.zeros_like(table.data)
        np.add.at(z, idx, g)
        return (z,)

    return _record(out, (table,), lambda: table.data[idx], vjp)


def softmax_cols(x: Tensor) -> Tensor:
    """Numerically stabilized softmax; each column becomes a probability
    distribution."""
    out = Tensor(_softmax(x.data, 0))

    def vjp(g, _):
        s = out.data
        dot = (g * s).sum(axis=0, keepdims=True)
        return (s * (g - dot),)

    return _record(out, (x,), lambda: _softmax(x.data, 0), vjp)


# ---------------------------------------------------------------------------
# reverse pass


class Gradients:
    """Gradient lookup keyed by tensor identity for the tensors backward()
    was asked for; an unreached one reads as zero. Reading a tensor outside
    them is a UsageError: its gradient was never computed."""

    def __init__(self, by_id, wanted):
        self._by_id = by_id
        self._wanted = wanted

    def wrt(self, t: Tensor) -> np.ndarray:
        if id(t) not in self._wanted:
            raise UsageError(f"gradient of {t!r} was not requested from backward()")
        g = self._by_id.get(id(t))
        return np.zeros_like(t.data) if g is None else g

    def for_store(self, store) -> dict:
        """Gradients keyed like the ParamStore's entries."""
        return {name: self.wrt(t) for name, t in store.items()}


def backward(tape: Tape, loss: Tensor, wrt) -> Gradients:
    """Exact reverse-mode gradients of a scalar loss recorded on `tape`
    towards `wrt`, a collection of tensors.

    One forward sweep marks the tensors that depend on those in `wrt`; the
    reverse walk skips unmarked nodes and calls each VJP as vjp(g, needs),
    needs[i] telling whether input i is marked, so that a VJP may return
    None for the others.
    """
    if loss.data.size != 1:
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
    grads: dict[int, np.ndarray] = {id(loss): np.ones_like(loss.data)}
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
