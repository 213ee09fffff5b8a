import base64
import json
import re

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from oracles import fd_gradient, logreg_features, logreg_proba, max_rel_err, tape_sum
from presup import models
from presup import tensor as T
from presup.checkpoint import load_checkpoint, save_checkpoint
from presup.cli import main
from presup.config import MODEL_VARIANTS, ModelConfig
from presup.errors import ShapeError, UsageError
from presup.extraction import MARKER, Sample, read_samples, write_samples
from presup.models import (EVAL_CHUNK, VARIANTS, LogRegModel, MfcModel,
                           attention_weights, conv_max_pool, embed_sequence, input_width,
                           lstm_sequence, logreg_featurize, pool_states)
from presup.optim import ParamStore
from presup.rng import Rng
from presup.tensor import Tape, Tensor, backward
from presup.training import batch_loss, sample_target
from presup.vocab import UNK, Vocab, build_vocab


def _samples():
    return [
        Sample("again", ["we", "go", MARKER, "run", "fast", "."],
               ["PRP", "VB", MARKER, "VB", "RB", "."], "2"),
        Sample("none", ["he", "eats", MARKER, "runs", "home", "now", "."],
               ["PRP", "VBZ", MARKER, "VBZ", "NN", "RB", "."], "3"),
    ]


def _setup(variant="wp", seed=5, **cfg_kwargs):
    samples = _samples()
    vocab = build_vocab(samples)
    rng = Rng(seed)
    defaults = dict(variant=variant, hidden_size=4, embed_dim=6, pos_mode="off",
                    dense_units=5)
    defaults.update(cfg_kwargs)
    cfg = ModelConfig(**defaults)
    emb = rng.child("emb").uniform(-0.5, 0.5, (len(vocab.tokens), cfg.embed_dim))
    model = VARIANTS[variant](cfg, vocab, emb, rng=rng.child("init"))
    return samples, vocab, model


def _each_row(X):
    """A distinct-row index of X that counts every row as distinct."""
    rows = np.arange(X.shape[0])
    return rows, rows


def _trainables(model):
    return [t for _, t in model.params.items()]


# ---------------------------------------------------------------------------
# encoder


def _manual_lstm(X, W, b, reverse):
    """Straight-line reference LSTM, independent of the fused implementation."""
    s = W.shape[0] // 4
    steps = X.shape[0]
    H = np.zeros((s, steps))
    h = np.zeros((s, 1))
    c = np.zeros((s, 1))
    order = range(steps - 1, -1, -1) if reverse else range(steps)

    def sig(a):
        return 1.0 / (1.0 + np.exp(-a))

    for t in order:
        xh = np.vstack([X[t:t + 1].T, h])
        a = W @ xh + b
        i, f = sig(a[:s]), sig(a[s:2 * s])
        g, o = np.tanh(a[2 * s:3 * s]), sig(a[3 * s:4 * s])
        c = f * c + i * g
        h = o * np.tanh(c)
        H[:, t:t + 1] = h
    return H


def test_lstm_sequence_matches_reference():
    rng = Rng(11)
    s, n, steps = 3, 4, 6
    X = Tensor(rng.uniform(-1, 1, (steps, n)))
    W = Tensor(rng.uniform(-0.5, 0.5, (4 * s, n + s)))
    b = Tensor(rng.uniform(-0.2, 0.2, (4 * s, 1)))
    for reverse in (False, True):
        out = lstm_sequence(X, W, b, reverse, [steps], *_each_row(X))
        np.testing.assert_allclose(out.data, _manual_lstm(X.data, W.data, b.data,
                                                          reverse), atol=1e-12)


def test_lstm_sequence_gradients():
    rng = Rng(12)
    s, n, steps = 3, 4, 5
    X = Tensor(rng.uniform(-1, 1, (steps, n)))
    W = Tensor(rng.uniform(-0.5, 0.5, (4 * s, n + s)))
    b = Tensor(rng.uniform(-0.2, 0.2, (4 * s, 1)))
    proj = Tensor(rng.uniform(-1, 1, (steps, s)))

    def loss():
        with Tape() as tape:
            H = lstm_sequence(X, W, b, True, [steps], *_each_row(X))
            out = tape_sum(T.matmul(H, proj))
        return tape, out

    tape, out = loss()
    grads = backward(tape, out, wrt=[X, W, b])
    assert tape.replay()
    for t in (X, W, b):
        fd = fd_gradient(lambda: loss()[1].item(), t.data)
        assert max_rel_err(fd, grads.wrt(t)) < 1e-6


def _manual_conv_max_pool(X, W, b, width, steps, g):
    """Straight-line reference, one sample, map and window at a time: the
    pooled output and the gradients of sum(g * output) for X, W and b."""
    n, maps = X.shape[1], W.shape[1]
    B = X.shape[0] // steps
    out = np.zeros((maps, B))
    d_X, d_W, d_b = np.zeros_like(X), np.zeros_like(W), np.zeros_like(b)
    for s in range(B):
        rows = X[s * steps:(s + 1) * steps]
        for k in range(maps):
            best, at = -np.inf, 0
            for t in range(steps - width + 1):
                score = sum(rows[t + j] @ W[j * n:(j + 1) * n, k] for j in range(width))
                if score + b[0, k] > best:  # strict: ties keep the first window
                    best, at = score + b[0, k], t
            out[k, s] = max(best, 0.0)
            if best > 0.0:
                for j in range(width):
                    d_W[j * n:(j + 1) * n, k] += g[k, s] * rows[at + j]
                    d_X[s * steps + at + j] += g[k, s] * W[j * n:(j + 1) * n, k]
                d_b[0, k] += g[k, s]
    return out, d_X, d_W, d_b


def _conv_max_pool_grads(X, W, b, width, steps, g):
    with Tape() as tape:
        out = conv_max_pool(X, W, b, width, steps, *_each_row(X))
        loss = tape_sum(T.mul(out, Tensor(g)))
    assert tape.replay()
    grads = backward(tape, loss, wrt=[X, W, b])
    return out, [grads.wrt(t) for t in (X, W, b)]


@settings(max_examples=60, deadline=None)
@given(st.data())
def test_conv_max_pool_matches_per_sample_reference(data):
    # quarter-integer values: every sum is exact, so results must match
    # bitwise, and equal window scores (ties) are common
    B = data.draw(st.integers(1, 4), label="B")
    width = data.draw(st.integers(1, 4), label="width")
    steps = data.draw(st.integers(width, 7), label="steps")
    lengths = data.draw(st.lists(st.integers(1, steps), min_size=B, max_size=B),
                        label="lengths")
    n = data.draw(st.integers(1, 4), label="n")
    maps = data.draw(st.integers(1, 4), label="maps")
    gen = np.random.default_rng(data.draw(st.integers(0, 2 ** 32), label="seed"))

    def quarters(*shape):
        return gen.integers(-4, 5, shape) / 4.0

    X = quarters(B, steps, n)
    X[np.arange(steps) >= np.array(lengths)[:, None]] = 0.0  # zero padding rows
    X = Tensor(X.reshape(B * steps, n))
    W, b, g = Tensor(quarters(width * n, maps)), Tensor(quarters(1, maps)), quarters(maps, B)
    out, grads = _conv_max_pool_grads(X, W, b, width, steps, g)
    expected = _manual_conv_max_pool(X.data, W.data, b.data, width, steps, g)
    np.testing.assert_array_equal(out.data, expected[0])
    for got, want in zip(grads, expected[1:]):
        np.testing.assert_array_equal(got, want)


def test_conv_max_pool_tie_routes_gradient_to_first_window():
    # rows 1 and 3 are equal, so the width-1 windows at t=1 and t=3 tie
    X = Tensor(np.array([[0.0, 1.0], [2.0, 1.0], [0.5, 0.0], [2.0, 1.0], [0.0, 0.0]]))
    W, b = Tensor(np.array([[1.0], [1.0]])), Tensor(np.zeros((1, 1)))
    out, (d_X, d_W, d_b) = _conv_max_pool_grads(X, W, b, 1, 5, np.ones((1, 1)))
    assert out.data[0, 0] == 3.0
    np.testing.assert_array_equal(d_X[:, 0], [0.0, 1.0, 0.0, 0.0, 0.0])
    np.testing.assert_array_equal(d_W[:, 0], [2.0, 1.0])


def test_conv_max_pool_shape_errors():
    X, b = Tensor(np.zeros((8, 3))), Tensor(np.zeros((1, 2)))
    rows = _each_row(X)
    with pytest.raises(ShapeError):
        conv_max_pool(X, Tensor(np.zeros((8, 2))), b, 3, 4, *rows)  # W rows != width * n
    with pytest.raises(ShapeError):
        conv_max_pool(X, Tensor(np.zeros((15, 2))), b, 5, 4, *rows)  # wider than a sample
    with pytest.raises(ShapeError):
        conv_max_pool(X, Tensor(np.zeros((9, 2))), b, 3, 3, *rows)  # 8 rows are not 3-row samples
    with pytest.raises(ShapeError):
        conv_max_pool(X, Tensor(np.zeros((9, 2))), Tensor(np.zeros((2, 1))), 3, 4, *rows)


def test_bilstm_shape_and_init():
    samples, _, model = _setup()
    s = model.cfg.hidden_size
    _, trace = model.forward([samples[0]], return_trace=True)
    assert trace.H.shape == (2 * s, len(samples[0].tokens))
    for direction in ("fwd", "bwd"):
        b = model.params[f"lstm_{direction}_b"].data
        np.testing.assert_array_equal(b[s:2 * s], 1.0)  # forget gate bias
        assert np.all(b[:s] == 0.0) and np.all(b[2 * s:] == 0.0)
        W = model.params[f"lstm_{direction}_W"].data
        assert np.all(np.abs(W) <= 0.08)


def _reference_batch(rng, lengths, n):
    """Padded rows b*T + t filled with noise: the mask, not zeros, must
    keep them out."""
    return Tensor(rng.uniform(-1, 1, (len(lengths) * max(lengths), n)))


@settings(max_examples=60, deadline=None)
@given(st.data())
def test_lstm_sequence_batch_matches_per_sequence_reference(data):
    B = data.draw(st.integers(1, 4), label="B")
    lengths = data.draw(st.lists(st.integers(1, 7), min_size=B, max_size=B),
                        label="lengths")
    n = data.draw(st.integers(1, 5), label="n")
    s = data.draw(st.integers(1, 4), label="s")
    reverse = data.draw(st.booleans(), label="reverse")
    rng = Rng(data.draw(st.integers(0, 2 ** 32), label="seed"))
    steps = max(lengths)
    X = _reference_batch(rng, lengths, n)
    W = Tensor(rng.uniform(-0.8, 0.8, (4 * s, n + s)))
    b = Tensor(rng.uniform(-0.5, 0.5, (4 * s, 1)))
    out = lstm_sequence(X, W, b, reverse, lengths, *_each_row(X))
    assert out.shape == (s, B * steps)
    for k, length in enumerate(lengths):
        cols = out.data[:, k * steps:(k + 1) * steps]
        expected = _manual_lstm(X.data[k * steps:k * steps + length], W.data, b.data,
                                reverse)
        np.testing.assert_allclose(cols[:, :length], expected, rtol=0, atol=1e-12)
        np.testing.assert_array_equal(cols[:, length:], 0.0)


def test_lstm_sequence_batch_gradients():
    rng = Rng(13)
    s, n, lengths = 3, 4, [1, 5, 3]
    X = _reference_batch(rng, lengths, n)
    W = Tensor(rng.uniform(-0.5, 0.5, (4 * s, n + s)))
    b = Tensor(rng.uniform(-0.2, 0.2, (4 * s, 1)))
    proj = Tensor(rng.uniform(-1, 1, (X.shape[0], s)))

    def loss(reverse):
        with Tape() as tape:
            H = lstm_sequence(X, W, b, reverse, lengths, *_each_row(X))
            out = tape_sum(T.matmul(H, proj))
        return tape, out

    for reverse in (False, True):
        tape, out = loss(reverse)
        grads = backward(tape, out, wrt=[X, W, b])
        assert tape.replay()
        for t in (X, W, b):
            fd = fd_gradient(lambda: loss(reverse)[1].item(), t.data)
            assert max_rel_err(fd, grads.wrt(t)) < 1e-6
        steps = max(lengths)
        padded = [k * steps + t for k, length in enumerate(lengths)
                  for t in range(length, steps)]
        np.testing.assert_array_equal(grads.wrt(X)[padded], 0.0)


def test_lstm_sequence_rejects_lengths_that_do_not_fit():
    X = Tensor(np.zeros((6, 2)))
    W, b = Tensor(np.zeros((4, 3))), Tensor(np.zeros((4, 1)))
    for lengths in ([4, 2], [2, 0], [1, 1, 1, 1]):
        with pytest.raises(ShapeError):
            lstm_sequence(X, W, b, False, lengths, *_each_row(X))


# ---------------------------------------------------------------------------
# attention pooling


def test_attention_invariants_small():
    rng = Rng(3)
    H = Tensor(rng.uniform(-2, 2, (8, 7)))
    M, M_row, M_col, beta, alpha = attention_weights(H, [7])
    M, M_row, M_col = M.data[0], M_row.data[0], M_col.data[0]
    np.testing.assert_allclose(M, H.data.T @ H.data, atol=1e-12)
    np.testing.assert_allclose(M_row.sum(axis=1), 1.0, atol=1e-12)
    np.testing.assert_allclose(M_col.sum(axis=0), 1.0, atol=1e-12)
    np.testing.assert_allclose(beta.data, M_row.mean(axis=0)[:, None],
                               atol=1e-12)
    assert np.all(alpha.data >= 0)
    assert alpha.data.sum() == pytest.approx(1.0, abs=1e-12)
    # symmetry of the Gram matrix makes the two attention forms coincide
    np.testing.assert_allclose(alpha.data, M_row.T @ beta.data, atol=1e-12)


def test_attention_uniform_on_identical_states():
    h = Rng(4).uniform(-1, 1, (6, 1))
    H = Tensor(np.repeat(h, 5, axis=1))
    *_, alpha = attention_weights(H, [5])
    np.testing.assert_allclose(alpha.data, np.full((5, 1), 0.2), atol=1e-12)


def test_attention_batch_matches_per_sequence():
    rng = Rng(5)
    lengths, steps = [1, 6, 3], 6
    H = Tensor(rng.uniform(-2, 2, (8, len(lengths) * steps)))
    M, M_row, M_col, beta, alpha = attention_weights(H, lengths)
    assert M.shape == (3, steps, steps) and alpha.shape == beta.shape == (steps, 3)
    for k, length in enumerate(lengths):
        single = attention_weights(Tensor(H.data[:, k * steps:k * steps + length]), [length])
        for batched, one in zip((M_row.data[k], M_col.data[k]), single[1:3]):
            np.testing.assert_allclose(batched[:length, :length], one.data[0], atol=1e-12)
            np.testing.assert_array_equal(batched[length:], 0.0)
            np.testing.assert_array_equal(batched[:, length:], 0.0)
        for batched, one in ((beta, single[3]), (alpha, single[4])):
            np.testing.assert_allclose(batched.data[:length, k:k + 1], one.data,
                                       atol=1e-12)
            np.testing.assert_array_equal(batched.data[length:, k], 0.0)


def test_attention_and_pool_gradients_over_a_padded_batch():
    rng = Rng(6)
    lengths, steps = [2, 4, 1], 4
    H = Tensor(rng.uniform(-1, 1, (6, len(lengths) * steps)))
    proj = Tensor(rng.uniform(-1, 1, (3, 6)))

    def loss():
        with Tape() as tape:
            alpha = attention_weights(H, lengths)[4]
            c = pool_states(H, alpha)
            out = tape_sum(T.tanh(T.matmul(proj, c)))
        return tape, out

    tape, out = loss()
    assert len(tape) == 6  # attention and pooling are one node each
    assert tape.replay()
    grads = backward(tape, out, wrt=[H])
    fd = fd_gradient(lambda: loss()[1].item(), H.data)
    assert max_rel_err(fd, grads.wrt(H)) < 1e-6  # padded columns: both zero


def test_wp_and_baseline_share_parameter_count():
    _, _, wp = _setup("wp")
    _, _, baseline = _setup("lstm")
    assert wp.params.param_count() == baseline.params.param_count()


def test_uniform_alpha_reproduces_mean_pooling():
    samples, _, wp = _setup("wp")
    _, _, baseline = _setup("lstm")
    baseline.params.load_values(wp.params.copy_values())
    for sample in samples:
        steps = len(sample.tokens)
        forced, _ = wp.forward([sample], alpha_override=np.full((steps, 1), 1 / steps))
        mean_pooled, _ = baseline.forward([sample])
        assert np.array_equal(forced.data, mean_pooled.data)


def test_forward_trace_contents():
    samples, _, wp = _setup("wp")
    y_hat, trace = wp.forward([samples[0]], return_trace=True)
    steps = len(samples[0].tokens)
    assert trace.H.shape == (8, steps)
    assert trace.M.shape == (steps, steps)
    assert trace.alpha.shape == (steps, 1)
    np.testing.assert_allclose(trace.alpha.sum(), 1.0, atol=1e-12)
    np.testing.assert_array_equal(trace.y_hat, y_hat.data)
    assert y_hat.shape == (2, 1)
    assert y_hat.data.sum() == pytest.approx(1.0, abs=1e-12)


def test_dropout_only_in_train_mode():
    # tanh keeps every dense unit active, so dropout visibly perturbs the output
    samples, _, wp = _setup("wp", activation="tanh")
    a = wp.forward([samples[0]])[0].data
    b = wp.forward([samples[0]])[0].data
    assert np.array_equal(a, b)
    t1 = wp.forward([samples[0]], rng=Rng(1), dropout_p=0.5)[0].data
    assert not np.array_equal(t1, a)


# ---------------------------------------------------------------------------
# batched forward: one padded, length-masked pass equals per-sample passes

WORDS = ["we", "go", "run", "fast", "he", "eats", "runs", "home", "now", "."]
TAGS = ["PRP", "VB", "RB", "NN", "VBZ"]
MIXED_LENGTHS = [7, 1, 60, 3, 12, 2, 33, 60]


def _mixed_batch(seed=0, lengths=MIXED_LENGTHS):
    rng = Rng(seed)
    batch = []
    for k, length in enumerate(lengths):
        tokens = [WORDS[rng.integers(0, len(WORDS))] for _ in range(length)]
        pos = [TAGS[rng.integers(0, len(TAGS))] for _ in range(length)]
        at = rng.integers(0, length)
        tokens[at] = pos[at] = MARKER
        batch.append(Sample("again" if k % 2 else "none", tokens, pos, "0"))
    return batch


@pytest.mark.parametrize("pos_mode", ["off", "one_hot", "embed"])
@pytest.mark.parametrize("variant", ["wp", "lstm", "cnn"])
def test_mixed_length_batch_equals_batches_of_one(variant, pos_mode):
    _, _, model = _setup(variant, pos_mode=pos_mode, pos_dim=3, max_len=60)
    batch = _mixed_batch()
    y_hat, _ = model.forward(batch)
    assert y_hat.shape == (2, len(batch))
    for k, sample in enumerate(batch):
        one, _ = model.forward([sample])
        np.testing.assert_allclose(y_hat.data[:, k:k + 1], one.data, rtol=0, atol=1e-12)


@pytest.mark.parametrize("variant", ["wp", "lstm", "cnn"])
def test_batched_dropout_equals_sequential_forwards(variant):
    # tanh keeps every dense unit active, so each mask entry shows
    _, _, model = _setup(variant, activation="tanh", max_len=60, cnn_widths=(2, 3))
    batch = _mixed_batch(seed=1)
    y_hat, _ = model.forward(batch, rng=Rng(9), dropout_p=0.5)
    rng = Rng(9)
    for k, sample in enumerate(batch):
        one, _ = model.forward([sample], rng=rng, dropout_p=0.5)
        np.testing.assert_allclose(y_hat.data[:, k:k + 1], one.data, rtol=0, atol=1e-12)
    assert not np.allclose(y_hat.data, model.forward(batch)[0].data)


@pytest.mark.parametrize("variant", ["wp", "lstm", "cnn"])
def test_gradients_through_a_mixed_length_batch(variant):
    _, _, model = _setup(variant, hidden_size=3, pos_mode="embed", pos_dim=2)
    for w in model.cfg.cnn_widths if variant == "cnn" else ():
        # a window over zero padding scores exactly the bias: off zero, it
        # keeps the pooled maximum away from the relu kink
        model.params[f"conv{w}_b"].data += 0.1
    # repeated (token, POS) pairs: the projection runs over distinct rows,
    # while the learned POS rows still get a gradient from every step
    batch = _mixed_batch(seed=2, lengths=[4, 1, 6, 2]) + _repetitive_batch()
    _, first, _ = embed_sequence(batch, model.vocab, model.embeddings, model.cfg,
                                 model.params)
    assert 2 * len(first) < sum(len(s.tokens) for s in batch)
    labels = [sample_target(s) for s in batch]
    coords = np.random.default_rng(7)

    def loss():
        with Tape() as tape:
            y_hat, _ = model.forward(batch)
            out = batch_loss(y_hat, labels)
        return tape, out

    tape, out = loss()
    assert tape.replay()
    grads = backward(tape, out, wrt=_trainables(model)).for_store(model.params)
    for name, p in model.params.items():
        probe = coords.choice(p.data.size, size=min(p.data.size, 8), replace=False)
        fd = fd_gradient(lambda: loss()[1].item(), p.data, coords=probe)
        assert max_rel_err(fd, grads[name]) < 1e-4, name


@pytest.mark.parametrize("pos_mode", ["off", "embed"])
@pytest.mark.parametrize("variant", ["wp", "lstm", "cnn"])
def test_backward_wrt_trainables_skips_frozen_inputs(variant, pos_mode):
    _, _, model = _setup(variant, pos_mode=pos_mode, pos_dim=3, max_len=60,
                         cnn_widths=(2, 3))
    batch = _mixed_batch(seed=4, lengths=[5, 1, 9, 3])
    with Tape() as tape:
        y_hat, _ = model.forward(batch, rng=Rng(2))
        loss = batch_loss(y_hat, [sample_target(s) for s in batch])
    # every tensor on the tape: each node's VJP is asked for every input
    everything = [t for node in tape.nodes for t in node.inputs]
    full = backward(tape, loss, wrt=everything).for_store(model.params)

    # the LSTM and conv nodes take the embedded rows X first, a weight second
    weights = [t for name, t in model.params.items()
               if name.startswith(("lstm_", "conv")) and name.endswith("_W")]
    seen = []
    for node in tape.nodes:
        if len(node.inputs) > 1 and any(node.inputs[1] is w for w in weights):
            def spy(g, needs, vjp=node.vjp):
                grads = vjp(g, needs)
                seen.append((needs[0], grads[0]))
                return grads
            node.vjp = spy
    pruned = backward(tape, loss, wrt=_trainables(model))
    for name, g in pruned.for_store(model.params).items():
        assert g.tobytes() == full[name].tobytes(), name
    # X holds only frozen word vectors unless a learned POS embedding is in it
    assert len(seen) == len(weights)
    for need, d_X in seen:
        assert need == (pos_mode == "embed")
        assert (d_X is None) == (pos_mode == "off")
    with pytest.raises(UsageError, match="not requested"):
        pruned.wrt(y_hat)


@pytest.mark.parametrize("variant", ["wp", "cnn"])
def test_predict_labels_in_sorted_chunks_keep_input_order(variant):
    _, _, model = _setup(variant, activation="tanh", max_len=60, cnn_widths=(2, 3))
    model.params["out_W"].data *= 100.0  # so that both labels occur
    lengths = [(k * 37) % 23 + 1 for k in range(EVAL_CHUNK + 9)]
    batch = _mixed_batch(seed=3, lengths=lengths)
    one_by_one = [int(np.argmax(model.forward([s])[0].data)) for s in batch]
    assert 0 < sum(one_by_one) < len(batch)
    assert model.predict_labels(batch) == one_by_one
    assert [model.predict_label(s) for s in batch] == one_by_one


# ---------------------------------------------------------------------------
# inputs


def test_embed_sequence_widths_and_unknowns():
    samples, vocab, model = _setup("wp")
    emb = model.embeddings
    cfg_off = model.cfg
    X, _, _ = embed_sequence([samples[0]], vocab, emb, cfg_off, model.params)
    assert X.shape == (6, input_width(cfg_off, vocab)) == (6, 6)

    cfg_hot = ModelConfig(variant="wp", hidden_size=4, embed_dim=6,
                          pos_mode="one_hot")
    X_hot, _, _ = embed_sequence([samples[0]], vocab, emb, cfg_hot, model.params)
    assert X_hot.shape == (6, 6 + len(vocab.pos_tags))
    row = X_hot.data[0]
    assert row[6:].sum() == 1.0  # exactly one active POS bit

    unknown = Sample("none", ["zzz", MARKER, "run"], ["XX", MARKER, "VB"], "0")
    X_unk, _, _ = embed_sequence([unknown], vocab, emb, cfg_off, model.params)
    np.testing.assert_array_equal(X_unk.data[0], emb[vocab.unk_id])


@settings(max_examples=60, deadline=None)
@given(st.data())
def test_distinct_rows_rebuild_every_row(data):
    pos_mode = data.draw(st.sampled_from(["off", "one_hot", "embed"]), label="pos_mode")
    _, vocab, model = _setup("wp", pos_mode=pos_mode, pos_dim=3)
    # tokens and tags the vocabulary lacks share its unknown rows
    lengths = data.draw(st.lists(st.integers(1, 9), min_size=1, max_size=5), label="lengths")
    batch = [Sample("none",
                    data.draw(st.lists(st.sampled_from(WORDS + ["zzz", "qqq"]),
                                       min_size=n, max_size=n)),
                    data.draw(st.lists(st.sampled_from(TAGS + ["XX"]), min_size=n, max_size=n)),
                    "0")
             for n in lengths]
    steps = data.draw(st.sampled_from([max(lengths), max(lengths) + 2]), label="steps")
    X, first, index = embed_sequence(batch, vocab, model.embeddings, model.cfg,
                                     model.params, steps)
    assert X.data[first][index].tobytes() == X.data.tobytes()
    # one distinct row per token id (and POS id, when POS is used), plus
    # one for all padded steps
    rows = {}
    for b, sample in enumerate(batch):
        ids = vocab.token_ids(sample.tokens)
        tags = vocab.pos_ids(sample.pos) if pos_mode != "off" else ids
        for t in range(steps):
            key = (ids[t], tags[t]) if t < len(ids) else "pad"
            assert rows.setdefault(key, index[b * steps + t]) == index[b * steps + t]
    assert len(rows) == len(first)


def _repetitive_batch(lengths=(9, 4, 9, 1, 7)):
    """Samples drawn from three tokens and two tags: most rows repeat."""
    batch = []
    for k, n in enumerate(lengths):
        tokens = [WORDS[(k + t) % 3] for t in range(n)]
        pos = [TAGS[(k * t) % 2] for t in range(n)]
        tokens[n // 2] = pos[n // 2] = MARKER
        batch.append(Sample("again" if k % 2 else "none", tokens, pos, "0"))
    return batch


@pytest.mark.parametrize("pos_mode", ["off", "one_hot", "embed"])
@pytest.mark.parametrize("variant", ["wp", "lstm", "cnn"])
def test_forward_over_distinct_rows_matches_per_row_projection(variant, pos_mode,
                                                               monkeypatch):
    _, _, model = _setup(variant, pos_mode=pos_mode, pos_dim=3, max_len=10,
                         cnn_widths=(2, 3))
    batch = _repetitive_batch()
    X, first, _ = embed_sequence(batch, model.vocab, model.embeddings, model.cfg,
                                 model.params)
    assert 3 * len(first) < X.shape[0]
    y_hat, _ = model.forward(batch)
    # the reference projects every row: each one is its own distinct row
    monkeypatch.setattr(models, "_distinct_rows",
                        lambda key: (np.arange(key.size), np.arange(key.size)))
    reference, _ = model.forward(batch)
    np.testing.assert_allclose(y_hat.data, reference.data, rtol=0, atol=1e-12)


def test_cnn_padded_steps_share_an_all_zero_row(monkeypatch):
    _, _, cnn = _setup("cnn", cnn_widths=(2, 3), max_len=10)
    batch = _repetitive_batch()
    seen = []

    def spy(X, W, b, width, steps, first, index):
        seen.append((X.data, first, index))
        return conv_max_pool(X, W, b, width, steps, first, index)

    monkeypatch.setattr(models, "conv_max_pool", spy)
    cnn.forward(batch)
    assert len(seen) == 2
    padded = [b * 10 + t for b, sample in enumerate(batch)
              for t in range(len(sample.tokens), 10)]
    for X, first, index in seen:
        assert len(set(index[padded].tolist())) == 1
        np.testing.assert_array_equal(X[first][index[padded[0]]], 0.0)


def test_pos_embedding_is_learned():
    samples, _, model = _setup("wp", pos_mode="embed", pos_dim=3)
    assert "pos_embedding" in model.params
    X, _, _ = embed_sequence([samples[0]], model.vocab, model.embeddings, model.cfg,
                             model.params)
    assert X.shape == (6, 6 + 3)
    with Tape() as tape:
        y_hat, _ = model.forward([samples[0]])
        loss = batch_loss(y_hat, [1])
    g = backward(tape, loss, wrt=_trainables(model)).wrt(model.params["pos_embedding"])
    assert np.any(g != 0.0)


# ---------------------------------------------------------------------------
# CNN baseline


def test_cnn_forward_shape_and_gradients():
    samples, _, cnn = _setup("cnn", cnn_widths=(2, 3), cnn_maps=4, max_len=10)
    y_hat, _ = cnn.forward([samples[0]])
    assert y_hat.shape == (2, 1)
    assert y_hat.data.sum() == pytest.approx(1.0, abs=1e-12)

    def loss():
        with Tape() as tape:
            out, _ = cnn.forward([samples[0]])
            l = batch_loss(out, [sample_target(samples[0])])
        return tape, l

    tape, l = loss()
    grads = backward(tape, l, wrt=_trainables(cnn))
    for name, t in cnn.params.items():
        fd = fd_gradient(lambda: loss()[1].item(), t.data)
        assert max_rel_err(fd, grads.wrt(t)) < 1e-4, name


@pytest.mark.parametrize("variant, fixed, per_sample",
                         [("wp", 13, 0), ("lstm", 12, 0), ("cnn", 10, 0)],
                         ids=["wp", "lstm", "cnn"])
def test_training_step_tape_nodes(variant, fixed, per_sample):
    samples, _, model = _setup(variant)
    rng = Rng(4)
    for batch in (samples[:1], samples + samples[:1], samples * 3):
        with Tape() as tape:
            y_hat, _ = model.forward(batch, rng=rng)
            batch_loss(y_hat, [sample_target(s) for s in batch])
        assert len(tape) == fixed + per_sample * len(batch)


def test_cnn_widths_must_be_distinct():
    with pytest.raises(UsageError, match="distinct"):
        ModelConfig(variant="cnn", cnn_widths=(3, 3))


def test_cnn_rejects_overlong_input():
    samples, _, cnn = _setup("cnn", max_len=4, cnn_widths=(2, 3))
    with pytest.raises(UsageError):
        cnn.forward([samples[0]])


# ---------------------------------------------------------------------------
# logistic regression and majority baselines


def test_logreg_featurize_counts():
    sample = Sample("again", ["a", "b", "a"], ["X", "Y", "X"], "0")
    feats = logreg_featurize(sample, False)
    assert feats["a"] == 2 and feats["b"] == 1
    assert feats["a▁b"] == 1 and feats["b▁a"] == 1
    with_pos = logreg_featurize(sample, use_pos=True)
    assert with_pos["P:X"] == 2 and with_pos["P:X▁Y"] == 1


# pieces whose n-gram keys can collide: a token holding the bigram join, a
# token that reads as a POS feature, the marker, the empty string, repeats
_NGRAM_PIECES = st.one_of(
    st.sampled_from(["a", "b", "a▁b", "▁", "b▁", "P:X", "P:X▁Y", "P:", "X", "Y",
                     MARKER, ""]),
    st.text(max_size=3))


@st.composite
def _ngram_samples(draw):
    n = draw(st.integers(1, 8))
    tokens = draw(st.lists(_NGRAM_PIECES, min_size=n, max_size=n))
    pos = draw(st.lists(_NGRAM_PIECES, min_size=n, max_size=n))
    return Sample("again", tokens, pos, "0")


@settings(max_examples=300, deadline=None)
@given(sample=_ngram_samples(), use_pos=st.booleans())
def test_logreg_featurize_matches_reference(sample, use_pos):
    """Same keys, counts and first-seen order as one update per n-gram."""
    got = logreg_featurize(sample, use_pos)
    assert list(got.items()) == list(logreg_features(sample, use_pos).items())


@settings(max_examples=100, deadline=None)
@given(samples=st.lists(_ngram_samples(), min_size=1, max_size=6), use_pos=st.booleans(),
       seed=st.integers(0, 2**16))
def test_logreg_labels_match_oracle(samples, use_pos, seed):
    """Random weights over the n-grams of every other sample, so the rest
    also carry n-grams the model has not seen."""
    rng = np.random.default_rng(seed)
    pos_mode = "one_hot" if use_pos else "off"
    model = LogRegModel(ModelConfig(variant="logreg", pos_mode=pos_mode))
    for s in samples[::2]:
        for feat in logreg_features(s, use_pos):
            model.feature_index.setdefault(feat, len(model.feature_index))
    model.w = rng.normal(size=len(model.feature_index))
    model.b = float(rng.normal())
    assert model.predict_labels(samples) == \
        [int(logreg_proba(model, s)[1] >= 0.5) for s in samples]


def test_logreg_learns_separable_data():
    pos = [Sample("again", ["cue", MARKER, "verb"], ["N", MARKER, "V"], "0")] * 10
    neg = [Sample("none", ["other", MARKER, "verb"], ["N", MARKER, "V"], "0")] * 10
    model = LogRegModel(ModelConfig(variant="logreg"))
    model.fit(pos + neg)
    assert model.predict_label(pos[0]) == 1
    assert model.predict_label(neg[0]) == 0
    # unseen n-grams at prediction time are ignored, not an error: "odd"
    # scores exactly as its known n-grams alone (@@@@, verb, @@@@ verb)
    odd = Sample("none", ["brand", "new", MARKER, "verb"],
                 ["N", "N", MARKER, "V"], "0")
    known = Sample("none", [MARKER, "verb"], [MARKER, "V"], "0")
    assert logreg_proba(model, odd).tobytes() == logreg_proba(model, known).tobytes()
    labels = [int(logreg_proba(model, s)[1] >= 0.5) for s in (pos[0], neg[0], odd)]
    assert model.predict_labels([pos[0], neg[0], odd]) == labels


@pytest.mark.parametrize("pos_mode", ["off", "one_hot"])
def test_logreg_featurizes_each_sample_once(pos_mode, corpus_path, tmp_path, monkeypatch):
    """fit and predict_labels featurize every sample exactly once, and the
    labels equal the oracle's on the fixture corpus's extracted samples."""
    cfg = tmp_path / "config.json"
    cfg.write_text(json.dumps({"paths": {"corpus": str(corpus_path)},
                               "extraction": {"test_sections": ["22"], "dev_fraction": 0.3}}))
    assert main(["extract", "--config", str(cfg), "--seed", "42",
                 "--out", str(tmp_path / "out")]) == 0
    split = {name: read_samples(tmp_path / "out" / "datasets" / "all" / f"{name}.jsonl")
             for name in ("train", "dev", "test")}
    seen = []
    real = models.logreg_featurize

    def spy(sample, use_pos):
        seen.append((id(sample), use_pos))
        return real(sample, use_pos)

    monkeypatch.setattr(models, "logreg_featurize", spy)
    use_pos = pos_mode != "off"
    model = LogRegModel(ModelConfig(variant="logreg", pos_mode=pos_mode))
    model.fit(split["train"])
    assert seen == [(id(s), use_pos) for s in split["train"]]
    seen.clear()
    samples = split["train"] + split["dev"] + split["test"]
    labels = model.predict_labels(samples)
    assert seen == [(id(s), use_pos) for s in samples]
    assert labels == [int(logreg_proba(model, s)[1] >= 0.5) for s in samples]
    assert all(type(label) is int for label in labels)
    assert len(set(labels)) == 2


def _mfc(train) -> MfcModel:
    model = MfcModel()
    model.fit(train)
    return model


def test_mfc_majority_and_ties():
    pos = [Sample("again", ["a", MARKER, "b"], ["x", MARKER, "y"], "0")]
    neg = [Sample("none", ["c", MARKER, "d"], ["x", MARKER, "y"], "0")]
    assert _mfc(pos + neg * 2).majority == 0
    assert _mfc(pos * 2 + neg).majority == 1
    assert _mfc(pos + neg).majority == 1  # ties go to the positive class
    with pytest.raises(UsageError):
        MfcModel().fit([])
    assert _mfc(pos).predict_label(neg[0]) == 1
    assert _mfc(neg).predict_labels(pos + neg + pos) == [0, 0, 0]


@pytest.mark.parametrize("variant", ["logreg", "mfc"])
def test_unfitted_baseline_refuses_to_predict(variant):
    model = VARIANTS[variant](ModelConfig(variant=variant))
    sample = Sample("again", ["a", MARKER, "b"], ["x", MARKER, "y"], "0")
    with pytest.raises(UsageError, match="before fit"):
        model.predict_labels([sample])
    with pytest.raises(UsageError, match="before fit"):
        model.predict_label(sample)


# ---------------------------------------------------------------------------
# checkpoints


def _assert_same_predictions(a, b, samples):
    """Bitwise-equal probabilities for every sample, and equal labels."""
    assert a.predict_labels(samples) == b.predict_labels(samples)
    for s in samples:
        if isinstance(a, LogRegModel):
            assert logreg_proba(a, s).tobytes() == logreg_proba(b, s).tobytes()
        elif hasattr(a, "forward"):
            assert a.forward([s])[0].data.tobytes() == b.forward([s])[0].data.tobytes()


def _fitted(variant):
    """A small model of the variant and samples to predict with."""
    if not hasattr(VARIANTS[variant], "fit"):  # neural: built with random weights
        kwargs = {"cnn_widths": (2, 3), "cnn_maps": 4, "max_len": 10} \
            if variant == "cnn" else {}
        samples, _, model = _setup(variant, **kwargs)
        return model, samples
    pos = [Sample("again", ["cue", MARKER, "verb"], ["N", MARKER, "V"], "0")] * 5
    neg = [Sample("none", ["other", MARKER, "verb"], ["N", MARKER, "V"], "0")] * 5
    model = VARIANTS[variant](ModelConfig(variant=variant))
    model.fit(pos + neg)
    return model, pos + neg


def test_variant_registry_matches_config():
    assert set(VARIANTS) == set(MODEL_VARIANTS)
    for name, cls in VARIANTS.items():
        assert cls.variant == name


@pytest.mark.parametrize("variant", sorted(VARIANTS))
def test_checkpoint_round_trip(variant, tmp_path):
    model, samples = _fitted(variant)
    path = tmp_path / "a.json"
    save_checkpoint(path, model, dataset_id="all", extra={"best_epoch": 3})
    loaded, dataset_id = load_checkpoint(path)
    assert dataset_id == "all"
    assert type(loaded) is type(model)
    _assert_same_predictions(model, loaded, samples)
    if hasattr(model, "params"):
        # frozen embeddings stay frozen through the round trip
        assert loaded.params.param_count() == model.params.param_count()
    if variant == "mfc":
        assert loaded.majority == model.majority
    save_checkpoint(tmp_path / "b.json", loaded, dataset_id="all", extra={"best_epoch": 3})
    assert (tmp_path / "b.json").read_bytes() == path.read_bytes()


def test_checkpoint_bytes_are_deterministic(tmp_path):
    _, _, model = _setup("wp")
    save_checkpoint(tmp_path / "a.json", model, dataset_id="all")
    save_checkpoint(tmp_path / "b.json", model, dataset_id="all")
    assert (tmp_path / "a.json").read_bytes() == (tmp_path / "b.json").read_bytes()


def test_checkpoint_rejects_foreign_files(tmp_path):
    p = tmp_path / "junk.json"
    p.write_text('{"format": "something-else"}')
    with pytest.raises(UsageError):
        load_checkpoint(p)
    p.write_text('{"format": "presup-checkpoint-v1", "variant": []}')
    with pytest.raises(UsageError, match="unknown variant"):
        load_checkpoint(p)


def _eval_malformed(tmp_path, capsys, variant, corrupt):
    """Save a small checkpoint, corrupt its bytes, run ``presup eval`` on it;
    returns the exit code, the error output and the checkpoint path."""
    model, samples = _fitted(variant)
    path = tmp_path / f"{variant}.json"
    save_checkpoint(path, model, dataset_id="all")
    path.write_bytes(corrupt(path.read_bytes()))
    data = tmp_path / "test.jsonl"
    write_samples(data, samples)
    rc = main(["eval", "--checkpoint", str(path), "--data", str(data),
               "--out", str(tmp_path / "out")])
    return rc, capsys.readouterr().err, str(path)


def _edit(mutate):
    """A corruption that rewrites the header line and keeps the binary tail."""
    def corrupt(data: bytes) -> bytes:
        header, _, tail = data.partition(b"\n")
        doc = json.loads(header)
        mutate(doc)
        return json.dumps(doc).encode("utf-8") + b"\n" + tail
    return corrupt


def _header(path) -> dict:
    return json.loads(path.read_bytes().partition(b"\n")[0])


def test_checkpoint_missing_parameter_is_usage_error(tmp_path, capsys):
    rc, err, path = _eval_malformed(tmp_path, capsys, "wp",
                                    _edit(lambda d: d["params"].pop("out_b")))
    assert rc == 2
    assert path in err and "params.out_b" in err


def test_checkpoint_misshaped_parameter_is_usage_error(tmp_path, capsys):
    rc, err, path = _eval_malformed(
        tmp_path, capsys, "wp", _edit(lambda d: d["params"]["out_W"].update(shape=[2, 4])))
    assert rc == 2
    assert path in err and "params.out_W" in err


def test_checkpoint_truncated_file_is_usage_error(tmp_path, capsys):
    for cut, message in [
        (lambda n: n // 2, "not valid JSON"),   # inside the header line
        (lambda n: n, "tail_bytes"),            # just before its newline
        (lambda n: n + 1, "tail_bytes"),        # just after it: no tail at all
        (lambda n: n + 101, "tail_bytes"),      # inside the tail
    ]:
        rc, err, path = _eval_malformed(tmp_path, capsys, "lstm",
                                        lambda data: data[:cut(data.index(b"\n"))])
        assert rc == 2
        assert path in err and message in err


def test_checkpoint_logreg_weight_count_is_usage_error(tmp_path, capsys):
    def drop_three(doc):
        doc["weights"]["shape"][0] -= 3
    rc, err, path = _eval_malformed(tmp_path, capsys, "logreg", _edit(drop_three))
    assert rc == 2
    assert path in err and "weights" in err


@pytest.mark.parametrize("pos_mode, field", [("off", "tokens"), ("one_hot", "pos_tags")])
def test_checkpoint_vocabulary_without_unk_is_usage_error(pos_mode, field, tmp_path, capsys):
    samples, _, model = _setup("wp", pos_mode=pos_mode)
    path = tmp_path / "wp.json"
    save_checkpoint(path, model, "all")

    def rename_unk(doc):
        items = doc["vocab"][field]
        items[items.index(UNK)] = "<unknown>"
    path.write_bytes(_edit(rename_unk)(path.read_bytes()))
    data = tmp_path / "test.jsonl"
    write_samples(data, samples)
    rc = main(["eval", "--checkpoint", str(path), "--data", str(data),
               "--out", str(tmp_path / "out")])
    err = capsys.readouterr().err
    assert rc == 2
    assert str(path) in err and f"'vocab.{field}'" in err


def _out_W(mutate):
    return _edit(lambda d: mutate(d, d["params"]["out_W"]))


@pytest.mark.parametrize("key,corrupt", [
    ("offset", _out_W(lambda d, p: p.update(offset=d["tail_bytes"]))),
    ("offset", _out_W(lambda d, p: p.update(offset=d["tail_bytes"] - 8))),
    ("offset", _out_W(lambda d, p: p.update(offset=-8))),
    ("offset", _out_W(lambda d, p: p.update(offset=8.0))),
    ("offset", _out_W(lambda d, p: p.update(offset="8"))),
    ("offset", _out_W(lambda d, p: p.pop("offset"))),
    ("dtype", _out_W(lambda d, p: p.update(dtype="<f4"))),
], ids=["past-tail", "straddles-end", "negative", "float", "string", "missing", "dtype"])
def test_checkpoint_malformed_array_payload_is_usage_error(key, corrupt, tmp_path, capsys):
    rc, err, path = _eval_malformed(tmp_path, capsys, "wp", corrupt)
    assert rc == 2
    assert path in err and "'params.out_W'" in err and key in err


@pytest.mark.parametrize("corrupt", [
    _edit(lambda d: d.update(tail_bytes=d["tail_bytes"] + 8)),   # tail shorter than declared
    _edit(lambda d: d.update(tail_bytes=d["tail_bytes"] - 8)),   # tail longer than declared
    lambda data: data + bytes(8),                                # bytes past the last array
    _edit(lambda d: d.pop("tail_bytes")),
    _edit(lambda d: d.update(tail_bytes=str(d["tail_bytes"]))),
], ids=["short", "long", "appended", "missing", "string"])
def test_checkpoint_tail_length_is_checked(corrupt, tmp_path, capsys):
    rc, err, path = _eval_malformed(tmp_path, capsys, "wp", corrupt)
    assert rc == 2
    assert path in err and "'tail_bytes'" in err


@pytest.mark.parametrize("variant,mutate,field", [
    ("wp", lambda d: d["params"].update(extra_W=d["params"]["out_b"]), "params.extra_W"),
    ("lstm", lambda d: d["params"]["dense_b"].pop("offset"), "params.dense_b"),
    ("cnn", lambda d: d["embeddings"].update(shape=[d["embeddings"]["shape"][0], 2]),
     "embeddings"),
    ("logreg", lambda d: d["config"].update(variant="svm"), "config"),
    ("mfc", lambda d: d.update(majority=None), "majority"),
    pytest.param("mfc", lambda d: d.update(majority=True), "majority", id="mfc-true-majority"),
    pytest.param("mfc", lambda d: d.update(majority=1.0), "majority", id="mfc-float-majority"),
    pytest.param("logreg", lambda d: d.update(bias="abc"), "bias", id="logreg-str-bias"),
    pytest.param("logreg", lambda d: d.update(bias=None), "bias", id="logreg-null-bias"),
    pytest.param("logreg", lambda d: d.update(bias=float("nan")), "bias",
                 id="logreg-nan-bias"),
    pytest.param("logreg", lambda d: d["features"].__setitem__(1, d["features"][0]),
                 "features", id="logreg-duplicate-features"),
    pytest.param("logreg", lambda d: d["features"].__setitem__(0, 7),
                 "features", id="logreg-int-feature"),
])
def test_checkpoint_fields_are_validated(variant, mutate, field, tmp_path):
    model, _ = _fitted(variant)
    path = tmp_path / "c.json"
    save_checkpoint(path, model, "all")
    path.write_bytes(_edit(mutate)(path.read_bytes()))
    with pytest.raises(UsageError, match=f"{re.escape(str(path))}: .*'{field}'"):
        load_checkpoint(path)


def test_checkpoint_load_parses_only_the_header(tmp_path, monkeypatch):
    """A 1,200 x 300 embedding table is read from the binary tail: json.loads
    sees under 5% of the file, and nothing is base64-decoded."""
    tokens = [f"w{i}" for i in range(1197)] + [MARKER, "<unk>", "<pad>"]
    vocab = Vocab(tokens=tokens, pos_tags=[MARKER, "<unk>", "<pad>"])
    rng = Rng(11)
    cfg = ModelConfig(variant="wp", hidden_size=4, embed_dim=300, pos_mode="off",
                      dense_units=5)
    model = VARIANTS["wp"](cfg, vocab, rng.uniform(-0.5, 0.5, (len(tokens), 300)), rng=rng)
    path = tmp_path / "wp.json"
    save_checkpoint(path, model, "all")
    parsed = []
    loads = json.loads

    def counting_loads(text, *args, **kwargs):
        parsed.append(len(text))
        return loads(text, *args, **kwargs)

    def no_b64decode(*args, **kwargs):
        raise AssertionError("base64.b64decode called")

    monkeypatch.setattr(json, "loads", counting_loads)
    monkeypatch.setattr(base64, "b64decode", no_b64decode)
    loaded, _ = load_checkpoint(path)
    assert sum(parsed) < 0.05 * path.stat().st_size
    assert loaded.embeddings.tobytes() == model.embeddings.tobytes()


# Written by the v1 writer (float lists); the probabilities were recorded
# from the v1 code. A v1 file must keep loading to the same model.
V1_PROBE = [
    Sample("again", ["we", "go", MARKER, "run", "fast", "."],
           ["PRP", "VB", MARKER, "VB", "RB", "."], "2"),
    Sample("none", ["he", "eats", MARKER, "runs", "home", "now", "."],
           ["PRP", "VBZ", MARKER, "VBZ", "NN", "RB", "."], "3"),
    Sample("again", ["cue", MARKER, "verb"], ["N", MARKER, "V"], "0"),
    Sample("none", ["other", MARKER, "verb"], ["N", MARKER, "V"], "0"),
]
V1_PROBA = {
    "wp": [[0.5000053811413062, 0.4999946188586938],
           [0.5000102484852819, 0.49998975151471814],
           [0.5000141238219594, 0.4999858761780406],
           [0.5000141238219594, 0.4999858761780406]],
    "logreg": [[0.4999999999999999, 0.5000000000000001],
               [0.4999999999999999, 0.5000000000000001],
               [0.010366980458254016, 0.989633019541746],
               [0.9896330195417459, 0.010366980458254118]],
}


def _stored_arrays(doc) -> dict:
    """Every array of a v1 or v2 checkpoint, decoded here from its "data" list
    or its "b64" bytes."""
    if doc["variant"] == "logreg":
        return {"weights": np.array(doc["weights"], dtype=np.float64)}

    def decode(p):
        if "data" in p:
            return np.array(p["data"], dtype=np.float64).reshape(p["shape"])
        return np.frombuffer(base64.b64decode(p["b64"]), dtype="<f8").reshape(p["shape"])
    arrays = {"embeddings": doc["embeddings"], **doc["params"]}
    return {name: decode(p) for name, p in arrays.items()}


def _model_arrays(model) -> dict:
    if isinstance(model, LogRegModel):
        return {"weights": model.w}
    return {"embeddings": model.embeddings,
            **{name: t.data for name, t in model.params.items()}}


def _assert_resaves_as_v3(model, stored, tmp_path):
    """old format -> load -> save as v3 -> load keeps every array bit for bit"""
    save_checkpoint(tmp_path / "v3.json", model, dataset_id="all")
    assert _header(tmp_path / "v3.json")["format"] == "presup-checkpoint-v3"
    reloaded, _ = load_checkpoint(tmp_path / "v3.json")
    got = _model_arrays(reloaded)
    assert set(got) == set(stored)
    for name, arr in stored.items():
        assert got[name].shape == arr.shape and got[name].tobytes() == arr.tobytes(), name


@pytest.mark.parametrize("variant", ["wp", "logreg"])
def test_v1_checkpoint_still_loads(variant, data_dir, tmp_path):
    v1_path = data_dir / f"checkpoint_v1_{variant}.json"
    v1 = json.loads(v1_path.read_text(encoding="utf-8"))
    assert v1["format"] == "presup-checkpoint-v1"
    model, dataset_id = load_checkpoint(v1_path)
    assert dataset_id == "all"
    # one thread and the same arithmetic as the v1 code; the tolerance only
    # allows for another BLAS kernel's summation order
    for sample, expected in zip(V1_PROBE, V1_PROBA[variant]):
        proba = logreg_proba(model, sample) if variant == "logreg" \
            else model.forward([sample])[0].data.reshape(-1)
        np.testing.assert_allclose(proba, expected, rtol=1e-12, atol=0)
    labels = [int(p[1] >= 0.5) if variant == "logreg" else int(np.argmax(p))
              for p in V1_PROBA[variant]]
    assert model.predict_labels(V1_PROBE) == labels
    _assert_resaves_as_v3(model, _stored_arrays(v1), tmp_path)


# Written by the v2 writer (base64 arrays) from checkpoint_v1_wp.json, so it
# holds the same arrays as that file.
def test_v2_checkpoint_still_loads(data_dir, tmp_path):
    v2 = json.loads((data_dir / "checkpoint_v2_wp.json").read_text(encoding="utf-8"))
    assert v2["format"] == "presup-checkpoint-v2"
    stored = _stored_arrays(v2)
    v1 = _stored_arrays(json.loads((data_dir / "checkpoint_v1_wp.json").read_text()))
    assert {k: a.tobytes() for k, a in stored.items()} == \
        {k: a.tobytes() for k, a in v1.items()}
    model, dataset_id = load_checkpoint(data_dir / "checkpoint_v2_wp.json")
    assert dataset_id == "all"
    assert model.predict_labels(V1_PROBE) == [int(np.argmax(p)) for p in V1_PROBA["wp"]]
    _assert_resaves_as_v3(model, stored, tmp_path)


@pytest.mark.parametrize("corrupt", [
    lambda p: p.update(b64="*" + p["b64"][1:]),    # not in the base64 alphabet
    lambda p: p.update(b64=p["b64"][:48]),         # whole quads, too few bytes
    lambda p: p.pop("b64"),
], ids=["alphabet", "truncated", "missing"])
def test_v2_malformed_array_payload_is_usage_error(corrupt, data_dir, tmp_path):
    doc = json.loads((data_dir / "checkpoint_v2_wp.json").read_text(encoding="utf-8"))
    corrupt(doc["params"]["out_W"])
    path = tmp_path / "v2.json"
    path.write_text(json.dumps(doc))
    with pytest.raises(UsageError, match=f"{re.escape(str(path))}: .*'params.out_W'.*b64"):
        load_checkpoint(path)


def test_param_store_rejects_unknown_names():
    store = ParamStore()
    with pytest.raises(KeyError):
        store["nope"]
