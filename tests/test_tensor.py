import numpy as np
import pytest
import scipy.special
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import array_shapes, arrays

from oracles import fd_gradient, max_rel_err, tape_sum
from presup import tensor as T
from presup.errors import ShapeError, UsageError
from presup.rng import Rng
from presup.tensor import Gradients, Tape, Tensor, backward

TOL = 1e-6


def _rand(rng, *shape):
    return Tensor(rng.uniform(-1.5, 1.5, shape))


def _scalarize(x: Tensor) -> Tensor:
    """Reduce to a scalar with a fixed random-ish projection so gradients of
    every output entry are exercised."""
    w = Tensor(np.cos(np.arange(x.size)).reshape(x.shape) + 0.1)
    return tape_sum(T.mul(x, w))


def check_unary(op, x: Tensor, tol=TOL, **kwargs):
    def loss():
        with Tape() as tape:
            out = _scalarize(op(x, **kwargs))
        return tape, out

    tape, out = loss()
    g = backward(tape, out, wrt=[x]).wrt(x)
    fd = fd_gradient(lambda: loss()[1].item(), x.data)
    assert max_rel_err(fd, g) < tol
    assert tape.replay()


def check_binary(op, a: Tensor, b: Tensor, tol=TOL):
    def loss():
        with Tape() as tape:
            out = _scalarize(op(a, b))
        return tape, out

    tape, out = loss()
    grads = backward(tape, out, wrt=[a, b])
    for t in (a, b):
        fd = fd_gradient(lambda: loss()[1].item(), t.data)
        assert max_rel_err(fd, grads.wrt(t)) < tol
    assert tape.replay()


@pytest.fixture
def rng():
    return Rng(13)


def test_matmul_gradients(rng):
    check_binary(T.matmul, _rand(rng, 3, 4), _rand(rng, 4, 2))


def test_add_sub_mul_gradients(rng):
    for op in (T.add, T.mul):
        check_binary(op, _rand(rng, 3, 4), _rand(rng, 3, 4))


def test_broadcast_gradients(rng):
    # column and row broadcasting both reduce correctly on the way back
    check_binary(T.add, _rand(rng, 3, 4), _rand(rng, 3, 1))
    check_binary(T.mul, _rand(rng, 3, 4), _rand(rng, 1, 4))
    check_binary(T.mul, _rand(rng, 3, 1), _rand(rng, 3, 4))


def test_unary_gradients(rng):
    check_unary(T.tanh, _rand(rng, 3, 2))


def test_relu_gradient(rng):
    # keep probe points away from the kink, where FD is one-sided
    x = Tensor(rng.uniform(-1.5, 1.5, (4, 3)))
    x.data[np.abs(x.data) < 1e-3] = 0.5
    check_unary(T.relu, x)


def test_concat_gradients(rng):
    a, b = _rand(rng, 2, 3), _rand(rng, 4, 3)
    check_binary(lambda u, v: T.concat([u, v], axis=0), a, b)
    c, d = _rand(rng, 3, 2), _rand(rng, 3, 5)
    check_binary(lambda u, v: T.concat([u, v], axis=1), c, d)


def test_gather_gradients(rng):
    # repeated indices must accumulate
    check_unary(lambda t: T.gather_rows(t, [0, 2, 2, 1]), _rand(rng, 4, 3))


def test_softmax_matches_scipy_and_gradients(rng):
    x = _rand(rng, 4, 5)
    np.testing.assert_allclose(T.softmax_cols(x).data,
                               scipy.special.softmax(x.data, axis=0), atol=1e-12)
    check_unary(T.softmax_cols, x)


def _old_softmax_axis(x: np.ndarray, ax: int) -> np.ndarray:
    """The softmax forward before the one shared _softmax, kept as the reference."""
    shifted = x - x.max(axis=ax, keepdims=True)
    e = np.exp(shifted)
    return e / e.sum(axis=ax, keepdims=True)


@settings(max_examples=200, deadline=None)
@given(arrays(np.float64, array_shapes(min_dims=2, max_dims=2, max_side=6),
              elements=st.floats(allow_nan=False, allow_infinity=False)),
       st.sampled_from(["rows", "cols"]))
def test_softmax_is_bitwise_the_old_expression_on_finite_input(x, axis):
    ax = 1 if axis == "rows" else 0
    with np.errstate(over="ignore", invalid="ignore"):  # x - max may overflow to -inf
        expected = _old_softmax_axis(x, ax)
        assert T._softmax(x, ax).tobytes() == expected.tobytes()
        if axis == "cols":
            assert T.softmax_cols(Tensor(x)).data.tobytes() == expected.tobytes()


def test_softmax_of_masked_slices():
    scores = np.array([[0.0, -np.inf, 1.0], [-np.inf, -np.inf, -np.inf]])
    out = T._softmax(scores, 1)
    np.testing.assert_array_equal(out[1], 0.0)  # no finite entry: all zero
    assert out[0, 1] == 0.0
    np.testing.assert_allclose(out[0, [0, 2]], scipy.special.softmax([0.0, 1.0]), atol=1e-15)


def test_softmax_and_sigmoid_are_overflow_safe():
    big = Tensor(np.array([[1000.0, -1000.0], [0.0, 999.0]]))
    s = T.softmax_cols(big).data
    assert np.all(np.isfinite(s))
    np.testing.assert_allclose(s.sum(axis=0), 1.0)
    sig = T._sigmoid(big.data)
    assert np.all(np.isfinite(sig))
    np.testing.assert_array_equal(sig, [[1.0, 0.0], [0.5, 1.0]])


def test_gradient_accumulates_over_reuse(rng):
    # f(x) = sum(x*x + x) => df/dx = 2x + 1
    x = _rand(rng, 3, 2)
    with Tape() as tape:
        out = T.add(T.mul(x, x), x)
        total = tape_sum(out)
    g = backward(tape, total, wrt=[x]).wrt(x)
    np.testing.assert_allclose(g, 2.0 * x.data + 1.0, atol=1e-12)


def test_recording_requires_active_tape(rng):
    x = _rand(rng, 2, 2)
    y = T.tanh(x)  # no tape active: pure computation
    with Tape() as tape:
        z = T.tanh(x)
        assert len(tape) == 1
    assert np.array_equal(y.data, z.data)
    with pytest.raises(UsageError):
        backward(Tape(), y, wrt=[x])  # y was never recorded on this tape


def test_nested_tapes_record_to_innermost(rng):
    x = _rand(rng, 2, 2)
    with Tape() as outer:
        T.tanh(x)
        with Tape() as inner:
            T.relu(x)
        T.relu(x)
    assert len(inner) == 1
    assert len(outer) == 2


def test_backward_rejects_nonscalar_loss(rng):
    x = _rand(rng, 2, 2)
    with Tape() as tape:
        y = T.tanh(x)
    with pytest.raises(UsageError):
        backward(tape, y, wrt=[x])


def test_gradients_default_to_zero(rng):
    x = _rand(rng, 2, 2)
    untouched = _rand(rng, 3, 3)
    with Tape() as tape:
        out = _scalarize(T.tanh(x))
    grads = backward(tape, out, wrt=[x, untouched])
    assert np.array_equal(grads.wrt(untouched), np.zeros((3, 3)))


def test_shape_errors():
    a, b = Tensor(np.zeros((2, 3))), Tensor(np.zeros((4, 5)))
    with pytest.raises(ShapeError):
        T.matmul(a, b)
    with pytest.raises(ShapeError):
        T.add(a, b)
    with pytest.raises(ShapeError):
        T.concat([a, b], axis=0)
    with pytest.raises(ShapeError):
        T.mul(b, a)
    with pytest.raises(UsageError):
        T.concat([], axis=0)
    with pytest.raises(UsageError):
        Tensor(np.zeros((2, 2))).item()


def test_replay_detects_mutation(rng):
    x = _rand(rng, 2, 2)
    with Tape() as tape:
        T.tanh(x)
    assert tape.replay()
    x.data += 1.0
    assert not tape.replay()
