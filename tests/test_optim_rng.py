import numpy as np
import pytest

from oracles import count_params
from presup.errors import UsageError
from presup.optim import AdamState, ParamStore, adam_step, clip_gradients
from presup.rng import Rng, derive_seed, dropout_mask

# ---------------------------------------------------------------------------
# randomness


def test_derive_seed_is_stable():
    # pinned values guard against platform- or version-dependent drift
    assert derive_seed(0, "a") == 15213559272920343689
    assert derive_seed(2024, "train") == 14693668143102287595
    assert derive_seed(0, "a") != derive_seed(0, "b")
    assert derive_seed(0, "a") != derive_seed(1, "a")


def test_uniform_stream_is_stable():
    np.testing.assert_allclose(
        Rng(0).uniform(0, 1, 4),
        [0.011546754286331562, 0.24154919656271812,
         0.11142585551493822, 0.5644146216071337],
        rtol=0, atol=0)


def test_same_seed_same_stream():
    a, b = Rng(99), Rng(99)
    np.testing.assert_array_equal(a.uniform(-1, 1, 10), b.uniform(-1, 1, 10))
    assert Rng(99).integers(0, 1000) == Rng(99).integers(0, 1000)


@pytest.mark.parametrize("seed", [0, 1, 7, 42, 2**40 + 3])
def test_integers_below_draws_what_successive_integers_calls_draw(seed):
    # extraction draws every document's sentence offset in one call; the
    # mined negatives, and so the recorded extract digests, rely on these
    # being the values of one integers(0, h) call per document
    highs = [1, 2, 3, 1, 7, 40, 1, 1000, 2**31, 2**32, 2**33 + 5, 5] * 40
    scalar = Rng(seed)
    assert Rng(seed).integers_below(highs) == [scalar.integers(0, h) for h in highs]
    assert Rng(seed).integers_below([]) == []


def test_child_streams_are_independent_and_reproducible():
    root = Rng(5)
    a1 = root.child("alpha").uniform(0, 1, 5)
    a2 = Rng(5).child("alpha").uniform(0, 1, 5)
    b = Rng(5).child("beta").uniform(0, 1, 5)
    np.testing.assert_array_equal(a1, a2)
    assert not np.array_equal(a1, b)


def test_permutation_and_shuffled():
    np.testing.assert_array_equal(Rng(0).permutation(6), [0, 5, 1, 2, 4, 3])
    seq = ["a", "b", "c", "d"]
    out = Rng(3).shuffled(seq)
    assert sorted(out) == sorted(seq)
    assert Rng(3).shuffled(seq) == out


def test_uniform_bounds():
    vals = Rng(1).uniform(-0.08, 0.08, 1000)
    assert np.all(vals >= -0.08) and np.all(vals < 0.08)


# ---------------------------------------------------------------------------
# dropout


def test_dropout_mask_values_and_expectation():
    rng = Rng(7)
    p = 0.5
    mask = dropout_mask((200, 200), p, rng)
    assert set(np.unique(mask)) <= {0.0, 1.0 / (1.0 - p)}
    # inverted scaling keeps the mask mean near 1, so eval needs no rescale
    assert abs(mask.mean() - 1.0) < 0.02
    drop_rate = (mask == 0.0).mean()
    assert abs(drop_rate - p) < 0.02


def test_dropout_mask_p_zero_is_identity():
    mask = dropout_mask((3, 4), 0.0, Rng(0))
    np.testing.assert_array_equal(mask, np.ones((3, 4)))


def test_dropout_mask_rejects_bad_p():
    for p in (-0.1, 1.0, 1.5):
        with pytest.raises(UsageError):
            dropout_mask((2, 2), p, Rng(0))


# ---------------------------------------------------------------------------
# parameter store


def _store():
    store = ParamStore()
    store.add("b_second", np.zeros((2, 1)))
    store.add("a_first", np.ones((3, 3)))
    return store


def test_store_iterates_sorted_and_counts_trainable():
    store = _store()
    assert [n for n, _ in store.items()] == ["a_first", "b_second"]
    assert count_params(store) == 9 + 2


def test_store_rejects_duplicates_and_bad_shapes():
    store = _store()
    with pytest.raises(UsageError):
        store.add("a_first", np.zeros((1, 1)))
    with pytest.raises(UsageError):
        store.load_values({"a_first": np.zeros((2, 2))})


def test_store_copy_load_round_trip():
    store = _store()
    snapshot = store.copy_values()
    store["a_first"][...] += 5.0
    store.load_values(snapshot)
    np.testing.assert_array_equal(store["a_first"], np.ones((3, 3)))
    # copy is a deep snapshot, not a view
    snapshot["a_first"][0, 0] = 99.0
    assert store["a_first"][0, 0] == 1.0


# ---------------------------------------------------------------------------
# clipping


def test_clip_gradients():
    grads = {"w": np.array([-5.0, -1.0, 0.3, 1.0, 7.0])}
    clipped = clip_gradients(grads, -1.0, 1.0)
    np.testing.assert_array_equal(clipped["w"], [-1.0, -1.0, 0.3, 1.0, 1.0])
    with pytest.raises(UsageError):
        clip_gradients(grads, 2.0, -2.0)


# ---------------------------------------------------------------------------
# Adam


def _adam_reference(grads_seq, lr=1e-3, beta1=0.9, beta2=0.999, eps=1e-8):
    """Textbook bias-corrected Adam, written independently of the module."""
    w = 0.0
    m = v = 0.0
    for t, g in enumerate(grads_seq, start=1):
        m = beta1 * m + (1 - beta1) * g
        v = beta2 * v + (1 - beta2) * g * g
        m_hat = m / (1 - beta1 ** t)
        v_hat = v / (1 - beta2 ** t)
        w -= lr * m_hat / (np.sqrt(v_hat) + eps)
    return w


def test_adam_first_step_closed_form():
    store = ParamStore()
    store.add("w", np.zeros((1, 1)))
    state = AdamState(store, lr=1e-3)
    adam_step(store, {"w": np.ones((1, 1))}, state)
    # t=1 with g=1: m_hat = v_hat = 1, so the step is -lr / (1 + eps)
    expected = -1e-3 / (1.0 + 1e-8)
    np.testing.assert_allclose(store["w"], [[expected]], rtol=0, atol=1e-18)


def test_adam_matches_reference_over_steps():
    store = ParamStore()
    store.add("w", np.zeros((1, 1)))
    state = AdamState(store, lr=1e-3)
    grads_seq = [1.0, -0.5, 0.25, 2.0, -1.0]
    for g in grads_seq:
        adam_step(store, {"w": np.full((1, 1), g)}, state)
    np.testing.assert_allclose(store["w"].item(),
                               _adam_reference(grads_seq), rtol=1e-14)
    assert state.t == len(grads_seq)


def test_adam_updates_every_entry_and_requires_all_gradients():
    store = _store()
    state = AdamState(store, lr=0.1)
    assert set(state.m) == set(state.v) == {"a_first", "b_second"}
    grads = {"a_first": np.ones((3, 3)), "b_second": np.ones((2, 1))}
    adam_step(store, grads, state)
    # the first Adam step moves every component by lr against its gradient
    np.testing.assert_allclose(store["a_first"], np.full((3, 3), 0.9))
    np.testing.assert_allclose(store["b_second"], np.full((2, 1), -0.1))
    with pytest.raises(UsageError):
        adam_step(store, {"a_first": np.ones((3, 3))}, state)
