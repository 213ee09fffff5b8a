"""The weighted-pooling attention classifier and its four baselines.

WP and the mean-pooling LSTM baseline share one bidirectional LSTM encoder
and the same dense head; they differ only in how the encoder states are
pooled, so the two have identical parameter counts. ``VARIANTS`` maps each
variant name to its class; every class writes its own part of a checkpoint
with ``state()`` and reads it back with ``from_state()``.
"""

from __future__ import annotations

import math
from collections import Counter
from dataclasses import dataclass

import numpy as np
import scipy.sparse

from . import tensor as T
from .config import ModelConfig, decode, encode
from .errors import ShapeError, UsageError
from .extraction import Sample, sample_target
from .optim import ParamStore
from .rng import Rng, dropout_mask
from .tensor import Tensor
from .vocab import Vocab

INIT_SCALE = 0.08  # uniform init range for recurrent and dense weights
# Samples per scoring forward. Larger chunks were no faster and raised peak
# memory, as glibc's adaptive mmap threshold kept the bigger buffers.
EVAL_CHUNK = 64


@dataclass
class ForwardTrace:
    """Intermediate quantities of one weighted-pooling forward pass."""
    X: np.ndarray
    H: np.ndarray
    M: np.ndarray
    M_row: np.ndarray
    M_col: np.ndarray
    beta: np.ndarray
    alpha: np.ndarray
    c: np.ndarray
    z: np.ndarray
    y_hat: np.ndarray


# ---------------------------------------------------------------------------
# shared building blocks
#
# A batch of B samples is padded to T = its longest sample. Its input rows
# and its hidden-state columns are laid out sample-major: index b*T + t is
# step t of sample b. Lengths mark the real steps; nothing a padded step
# holds reaches an output or a gradient.


def _batch_lengths(lengths, cols: int) -> tuple:
    """(lengths as an int array, padded steps T) for `cols` = B*T columns."""
    lengths = np.array(lengths, dtype=np.intp)
    steps = cols // max(len(lengths), 1)
    if lengths.ndim != 1 or not len(lengths) or steps * len(lengths) != cols \
            or lengths.min() < 1 or lengths.max() > steps:
        raise ShapeError(f"lengths {lengths.tolist()} do not fit {cols} padded steps")
    return lengths, steps


def embed_sequence(batch: list, vocab: Vocab, embeddings: np.ndarray,
                   cfg: ModelConfig, params: ParamStore,
                   steps: int | None = None) -> tuple:
    """(X, first, index) for the list of samples `batch`, padded to
    T = steps rows per sample (default: its longest sample).

    Rows of X are word vectors (rows of the (|V|, d) embeddings), optionally
    concatenated with a POS feature (one-hot or learned 40-dim embedding):
    row b*T + t is token t of sample b. Padded rows use id 0 of each table.
    Rows with the same token id (and POS id, when POS is used) are equal, and
    so are all padded rows: X.data[first] holds each distinct row once, at
    its first occurrence, and X.data[first][index] equals X.data."""
    steps = steps or max(len(s.tokens) for s in batch)
    ids = np.zeros((len(batch), steps), dtype=np.intp)
    key = np.full((len(batch), steps), -1, dtype=np.intp)  # padded steps share -1
    for row, keys, sample in zip(ids, key, batch):
        row[:len(sample.tokens)] = keys[:len(sample.tokens)] = vocab.token_ids(sample.tokens)
    words = Tensor(embeddings[ids.reshape(-1)])
    if cfg.pos_mode == "off":
        return (words, *_distinct_rows(key))
    pos_ids = np.zeros((len(batch), steps), dtype=np.intp)
    for row, sample in zip(pos_ids, batch):
        row[:len(sample.pos)] = vocab.pos_ids(sample.pos)
    first, index = _distinct_rows(np.where(key >= 0, key * len(vocab.pos_tags) + pos_ids, -1))
    pos_ids = pos_ids.reshape(-1)
    if cfg.pos_mode == "one_hot":
        onehot = np.zeros((len(pos_ids), len(vocab.pos_tags)))
        onehot[np.arange(len(pos_ids)), pos_ids] = 1.0
        return Tensor(np.hstack([words.data, onehot])), first, index
    # learned POS embedding rows go through the tape so they receive gradient
    pos_part = T.gather_rows(params["pos_embedding"], pos_ids)
    return T.concat([words, pos_part], axis=1), first, index


def _distinct_rows(key: np.ndarray) -> tuple:
    """(first, index) of the distinct values of `key`: where each first
    occurs in key.ravel(), and which distinct value each entry holds."""
    _, first, index = np.unique(key.reshape(-1), return_index=True, return_inverse=True)
    return first, index


def _check_row_index(index, rows: int) -> None:
    """A distinct-row index must give one entry per input row."""
    if index.shape != (rows,):
        raise ShapeError(f"distinct-row index {index.shape} does not fit {rows} rows")


def input_width(cfg: ModelConfig, vocab: Vocab) -> int:
    if cfg.pos_mode == "off":
        return cfg.embed_dim
    if cfg.pos_mode == "one_hot":
        return cfg.embed_dim + len(vocab.pos_tags)
    return cfg.embed_dim + cfg.pos_dim


def lstm_sequence(X: Tensor, W: Tensor, b: Tensor, reverse: bool,
                  lengths, first, index) -> Tensor:
    """Run one LSTM direction over a padded batch as a single fused tape
    node. X is (B*T, n), row b*T + t = step t of sample b; lengths holds
    each sample's real steps. first and index are embed_sequence's
    distinct-row index of X. Returns the hidden states as an (s, B*T)
    matrix whose padded columns are zero.

    W is (4s x (n+s)) with gate order i, f, g, o over [x_t ; h_prev]; initial
    h and c are zero. The input projection of the distinct rows X[first] is
    one GEMM before the loop, gathered back to every row through index, so
    each step only multiplies the (B, s) state by the recurrent weights. A
    padded step carries the state through unchanged, so the reverse
    direction starts at each sample's own last token. The
    closed-form vector-Jacobian product runs backpropagation through time
    with the gate gradients masked the same way, then forms dW as two GEMMs
    over the stacked gate gradients; dX is skipped when X needs no gradient
    (frozen word vectors).
    """
    s = W.shape[0] // 4
    rows, n = X.shape
    lengths, steps = _batch_lengths(lengths, rows)
    _check_row_index(index, rows)
    B = len(lengths)
    real = np.arange(steps) < lengths[:, None]  # (B, T)
    order = range(steps - 1, -1, -1) if reverse else range(steps)

    def fwd_full():
        W_x, W_h = W.data[:, :n], W.data[:, n:]
        proj = (X.data[first] @ W_x.T + b.data.T)[index].reshape(B, steps, 4 * s)
        out = np.zeros((steps, B, s))
        h_prev = np.zeros((B, steps, s))
        cache = []
        h = np.zeros((B, s))
        c = np.zeros((B, s))
        for t in order:
            a = proj[:, t] + h @ W_h.T
            i = T._sigmoid(a[:, 0:s])
            f = T._sigmoid(a[:, s:2 * s])
            g = np.tanh(a[:, 2 * s:3 * s])
            o = T._sigmoid(a[:, 3 * s:4 * s])
            c_prev = c
            h_prev[:, t] = h
            c = f * c_prev + i * g
            h = o * np.tanh(c)
            m = real[:, t:t + 1]
            if not m.all():
                c = np.where(m, c, c_prev)
                h = np.where(m, h, h_prev[:, t])
                out[t] = np.where(m, h, 0.0)
            else:
                out[t] = h
            cache.append((t, m, i, f, g, o, c, c_prev))
        return out.transpose(2, 1, 0).reshape(s, rows), h_prev, cache

    out_data, h_prev, cache = fwd_full()

    def vjp(grad, needs):
        W_x, W_h = W.data[:, :n], W.data[:, n:]
        grad = grad.reshape(s, B, steps)
        d_a = np.zeros((B, steps, 4 * s))
        dh = np.zeros((B, s))
        dc = np.zeros((B, s))
        for t, m, i, f, g, o, c, c_prev in reversed(cache):
            gh = grad[:, :, t].T + dh
            tc = np.tanh(c)
            dc_t = dc + gh * o * (1.0 - tc ** 2)
            da = d_a[:, t]
            da[:, 0:s] = dc_t * g * i * (1.0 - i)
            da[:, s:2 * s] = dc_t * c_prev * f * (1.0 - f)
            da[:, 2 * s:3 * s] = dc_t * i * (1.0 - g ** 2)
            da[:, 3 * s:4 * s] = gh * tc * o * (1.0 - o)
            if not m.all():
                da[~m[:, 0]] = 0.0
                dh = np.where(m, da @ W_h, dh)
                dc = np.where(m, dc_t * f, dc)
            else:
                dh = da @ W_h
                dc = dc_t * f
        d_a = d_a.reshape(rows, 4 * s)
        d_W = np.hstack([d_a.T @ X.data, d_a.T @ h_prev.reshape(rows, s)])
        return d_a @ W_x if needs[0] else None, d_W, d_a.sum(axis=0)[:, None]

    return T._record(Tensor(out_data), (X, W, b), lambda: fwd_full()[0], vjp)


def conv_max_pool(X: Tensor, W: Tensor, b: Tensor, width: int, steps: int,
                  first, index) -> Tensor:
    """Convolution, bias, relu and max-over-time pooling of a padded batch
    as one fused tape node. X is (B*steps, n), row b*steps + t = step t of
    sample b; W is (width*n, maps) and b is (1, maps). first and index are
    embed_sequence's distinct-row index of X.

    The window at t < m = steps - width + 1 of sample b scores
    sum_j X[b*steps + t + j] @ W[j*n : (j+1)*n] + b, summed in ascending j
    from one GEMM of the distinct rows X[first] against W laid out as
    (n, width*maps), gathered back to each window's rows through index.
    The output is (maps, B): the relu of each map's highest window score.
    Windows over padded rows count like any other. The gradient goes to the
    first window that reaches the maximum, where that maximum is positive;
    dW and dX are gathered from those windows alone, through a sparse
    (maps, B*steps) selection matrix.
    """
    rows, n = X.shape
    maps = W.shape[1]
    B = rows // steps
    m = steps - width + 1
    if W.shape[0] != width * n or b.shape != (1, maps) or B * steps != rows or m < 1:
        raise ShapeError(f"conv_max_pool: width {width} over {X.shape} in samples of "
                         f"{steps} rows, with W {W.shape} and b {b.shape}")
    _check_row_index(index, rows)
    index = index.reshape(B, steps)

    def fwd_full():
        by_shift = W.data.reshape(width, n, maps).transpose(1, 0, 2).reshape(n, width * maps)
        P = (X.data[first] @ by_shift).reshape(-1, width, maps)
        acc = P[index[:, 0:m], 0]
        for j in range(1, width):
            acc += P[index[:, j:j + m], j]
        acc += b.data
        win = acc.argmax(axis=1)  # (B, maps): the first window at each maximum
        top = np.take_along_axis(acc, win[:, None], axis=1)[:, 0]
        return np.maximum(top, 0.0).T.copy(), win.T, top.T > 0.0

    out, win, positive = fwd_full()
    starts = win + np.arange(B) * steps  # (maps, B): first row of each winning window
    indptr = np.arange(0, maps * B + 1, B)

    def vjp(g, needs):
        g = np.where(positive, g, 0.0)
        d_X = np.zeros_like(X.data) if needs[0] else None
        d_W = np.empty_like(W.data) if needs[1] else None
        for j in range(width):
            # row k picks row j of map k's winning window in every sample
            pick = scipy.sparse.csr_matrix((g.ravel(), (starts + j).ravel(), indptr),
                                           shape=(maps, rows))
            if needs[1]:
                d_W[j * n:(j + 1) * n] = (pick @ X.data).T
            if needs[0]:
                d_X += pick.T @ W.data[j * n:(j + 1) * n].T
        return d_X, d_W, g.sum(axis=1)[None, :]

    return T._record(Tensor(out), (X, W, b), lambda: fwd_full()[0], vjp)


def attention_weights(H: Tensor, lengths):
    """Attention-over-attention on the Gram matrix of each sample's hidden
    states, as one fused tape node over the (B, T, T) stack.

    H is (2s, B*T) with column b*T + t = step t of sample b, and lengths
    holds each sample's real steps. Per sample, M = H_b^T H_b; padded rows
    and columns of M are set to -inf, rows of M_row and columns of M_col are
    softmax distributions, beta averages the L_b real rows of M_row, and
    alpha = M_col beta. Because M is symmetric, M_col equals M_row^T, so
    alpha also equals M_row^T beta; both forms are computed and
    cross-checked on every call.

    Returns (M, M_row, M_col, beta, alpha). alpha is (T, B), one column per
    sample, and is the only output recorded on the tape. beta is (T, B) too;
    M, M_row and M_col are (B, T, T).
    """
    width, cols = H.shape
    lengths, steps = _batch_lengths(lengths, cols)
    B = len(lengths)
    real = np.arange(steps) < lengths[:, None]
    pair = real[:, :, None] & real[:, None, :]
    states = H.data.reshape(width, B, steps).transpose(1, 2, 0)  # (B, T, 2s)

    def fwd_full():
        M = states @ states.transpose(0, 2, 1)
        scores = np.where(pair, M, -np.inf)
        M_row = T._softmax(scores, 2)
        M_col = T._softmax(scores, 1)
        beta = M_row.sum(axis=1) / lengths[:, None]  # (B, T)
        alpha = (M_col @ beta[:, :, None])[:, :, 0]
        return M, M_row, M_col, beta, alpha

    M, M_row, M_col, beta, alpha = fwd_full()
    alt = (M_row.transpose(0, 2, 1) @ beta[:, :, None])[:, :, 0]
    if np.max(np.abs(alpha - alt)) > 1e-10:
        raise ArithmeticError("attention dual-form mismatch: M_col beta != M_row^T beta")

    def vjp(g, _):
        g = g.T[:, :, None]  # (B, T, 1)
        d_col = g * beta[:, None, :]
        d_beta = M_col.transpose(0, 2, 1) @ g  # (B, T, 1)
        d_row = (d_beta / lengths[:, None, None]).transpose(0, 2, 1)  # same for every row
        d_M = M_row * (d_row - (d_row * M_row).sum(axis=2, keepdims=True)) \
            + M_col * (d_col - (d_col * M_col).sum(axis=1, keepdims=True))
        d_states = (d_M + d_M.transpose(0, 2, 1)) @ states
        return (d_states.transpose(2, 0, 1).reshape(width, cols),)

    out = T._record(Tensor(alpha.T.copy()), (H,), lambda: fwd_full()[4].T.copy(), vjp)
    return Tensor(M), Tensor(M_row), Tensor(M_col), Tensor(beta.T.copy()), out


def pool_states(H: Tensor, alpha: Tensor) -> Tensor:
    """c_b = sum_t alpha[t, b] h_{b*T+t} for every sample b, as one fused
    tape node: H is (2s, B*T), alpha is (T, B) and c is (2s, B)."""
    width, cols = H.shape
    steps, B = alpha.shape
    if steps * B != cols:
        raise ShapeError(f"pool_states: weights {alpha.shape} over states {H.shape}")
    states = H.data.reshape(width, B, steps).transpose(1, 0, 2)  # (B, 2s, T)

    def fwd():
        return (states @ alpha.data.T[:, :, None])[:, :, 0].T.copy()

    def vjp(g, needs):
        d_H = g[:, :, None] * alpha.data.T[None, :, :]
        d_alpha = (states.transpose(0, 2, 1) @ g.T[:, :, None])[:, :, 0].T \
            if needs[1] else None  # fixed weights (mean pooling) need none
        return d_H.reshape(width, cols), d_alpha

    return T._record(Tensor(fwd()), (H, alpha), fwd, vjp)


def _activation(name: str):
    return {"relu": T.relu, "tanh": T.tanh}[name]


def _dropout(z: Tensor, rng: Rng | None, p: float) -> Tensor:
    """Inverted dropout of a (d, B) tensor if an Rng is given (training). One
    (B, d) draw: row b is the (d, 1) mask sample b would draw on its own."""
    if rng is None or p == 0.0:
        return z
    return T.mul(z, Tensor(dropout_mask(z.shape[::-1], p, rng).T))


# ---------------------------------------------------------------------------
# checkpoint state: each variant writes and reads its own part of a checkpoint.
# state() holds arrays as numpy arrays; from_state(doc, array) turns each array
# field of doc into a float64 array with ``array(doc_field, field_name)``.


def _field(doc, name: str):
    """doc[a][b] for the dotted name "a.b"; a missing level is a UsageError."""
    node = doc
    for key in name.split("."):
        try:
            node = node[key]
        except (KeyError, TypeError, IndexError):
            raise UsageError(f"missing field {name!r}") from None
    return node


def _config_from(doc) -> ModelConfig:
    try:
        return decode(ModelConfig, _field(doc, "config"))
    except UsageError as e:
        raise UsageError(f"field 'config': {e}") from None


# ---------------------------------------------------------------------------
# neural models: parameters over a vocabulary and a frozen embedding table


class NeuralModel:
    """Base of the recurrent classifiers and the CNN over a frozen (|V|, d)
    word-vector matrix. Subclasses name their layers in ``_layer_shapes``
    and define ``forward``, which scores a batch of samples."""

    variant = ""

    def __init__(self, cfg: ModelConfig, vocab: Vocab, embeddings: np.ndarray,
                 rng: Rng | None = None):
        self.cfg = cfg
        self.vocab = vocab
        self.embeddings = embeddings
        self.params = ParamStore()
        if rng is not None:
            self.init_params(rng)

    def param_shapes(self) -> dict:
        """Shape of every parameter the config and vocabulary call for, in
        the order init_params draws them; a learned POS embedding comes last."""
        shapes = self._layer_shapes(input_width(self.cfg, self.vocab))
        if self.cfg.pos_mode == "embed":
            shapes["pos_embedding"] = (len(self.vocab.pos_tags), self.cfg.pos_dim)
        return shapes

    def init_params(self, rng: Rng) -> None:
        """Biases (``*_b``) start at zero, everything else uniform(-0.08, 0.08)."""
        for name, shape in self.param_shapes().items():
            value = np.zeros(shape) if name.endswith("_b") else \
                rng.uniform(-INIT_SCALE, INIT_SCALE, shape)
            self.params.add(name, Tensor(value))

    def _lengths(self, batch: list) -> np.ndarray:
        """Token count of every sample of the batch. A sample longer than
        model.max_len is a UsageError, raised before anything is embedded."""
        lengths = np.array([len(s.tokens) for s in batch])
        if lengths.max() > self.cfg.max_len:
            raise UsageError(f"a sample of {lengths.max()} tokens is longer than "
                             f"model.max_len={self.cfg.max_len}")
        return lengths

    def predict_labels(self, samples) -> list:
        """Argmax label of every sample, scored in length-sorted chunks of
        EVAL_CHUNK so that each chunk carries little padding."""
        samples = list(samples)
        order = sorted(range(len(samples)), key=lambda k: len(samples[k].tokens))
        labels = [0] * len(samples)
        for start in range(0, len(order), EVAL_CHUNK):
            chunk = order[start:start + EVAL_CHUNK]
            y_hat, _ = self.forward([samples[k] for k in chunk])
            for k, label in zip(chunk, np.argmax(y_hat.data, axis=0)):
                labels[k] = int(label)
        return labels

    def state(self) -> dict:
        """Config, vocabulary, embedding matrix and every named parameter."""
        return {
            "config": encode(self.cfg),
            "vocab": {"tokens": self.vocab.tokens, "pos_tags": self.vocab.pos_tags},
            "embeddings": self.embeddings,
            "params": {name: t.data for name, t in self.params.items()},
        }

    @classmethod
    def from_state(cls, doc, array) -> "NeuralModel":
        """Inverse of state(); parameter names and shapes must be exactly
        those the stored config and vocabulary call for."""
        cfg = _config_from(doc)
        vocab = Vocab(tokens=_field(doc, "vocab.tokens"),
                      pos_tags=_field(doc, "vocab.pos_tags"))
        matrix = array(_field(doc, "embeddings"), "embeddings")
        if matrix.shape != (len(vocab.tokens), cfg.embed_dim):
            raise UsageError(f"field 'embeddings': shape {matrix.shape} does not match "
                             f"{len(vocab.tokens)} tokens x embed_dim {cfg.embed_dim}")
        model = cls(cfg, vocab, matrix)
        for name, shape in model.param_shapes().items():
            field = f"params.{name}"
            value = array(_field(doc, field), field)
            if value.shape != shape:
                raise UsageError(f"field {field!r}: shape {value.shape}, but the config "
                                 f"and vocabulary call for {shape}")
            model.params.add(name, Tensor(value))
        unknown = sorted(name for name in _field(doc, "params") if name not in model.params)
        if unknown:
            raise UsageError(f"field 'params.{unknown[0]}': not a {cls.variant} parameter")
        return model


# ---------------------------------------------------------------------------
# recurrent classifiers (WP and mean-pooling LSTM baseline)


class RecurrentClassifier(NeuralModel):
    """Bi-LSTM encoder, pooled states, dense layer, softmax head.

    pooling="attention" gives the weighted-pooling model; pooling="mean"
    gives the LSTM baseline (uniform weights over time steps). Both run the
    pooled vector through the exact same ops, so forcing uniform attention
    reproduces the baseline bitwise.
    """

    pooling = "attention"

    def _layer_shapes(self, n: int) -> dict:
        s, d = self.cfg.hidden_size, self.cfg.dense_units
        shapes = {}
        for direction in ("fwd", "bwd"):
            # combined-gate weights over [x_t ; h_prev], gate order i, f, g, o
            shapes[f"lstm_{direction}_W"] = (4 * s, n + s)
            shapes[f"lstm_{direction}_b"] = (4 * s, 1)
        shapes.update(dense_W=(d, 2 * s), dense_b=(d, 1), out_W=(2, d), out_b=(2, 1))
        return shapes

    def init_params(self, rng: Rng) -> None:
        super().init_params(rng)
        s = self.cfg.hidden_size
        for direction in ("fwd", "bwd"):
            self.params[f"lstm_{direction}_b"].data[s:2 * s] = 1.0  # forget gates

    def forward(self, batch: list, rng: Rng | None = None, dropout_p: float = 0.5,
                alpha_override: np.ndarray | None = None, return_trace: bool = False):
        """Class probabilities of a list of samples as a (2, B) tensor, one
        column per sample. Given an Rng this is a training pass, whose
        dropout of rate dropout_p draws its masks from it; without one it
        scores, with no dropout. alpha_override holds (T, B) pooling
        weights; return_trace needs a batch of one."""
        if return_trace and len(batch) != 1:
            raise UsageError("return_trace needs a single sample")
        cfg, p = self.cfg, self.params
        lengths = self._lengths(batch)
        steps = int(lengths.max())
        X, first, index = embed_sequence(batch, self.vocab, self.embeddings, cfg, p)
        H = T.concat([lstm_sequence(X, p[f"lstm_{d}_W"], p[f"lstm_{d}_b"], d == "bwd",
                                    lengths, first, index) for d in ("fwd", "bwd")],
                     axis=0)
        trace_parts = None
        if alpha_override is not None:
            alpha = Tensor(np.asarray(alpha_override).reshape(steps, len(batch)))
        elif self.pooling == "attention":
            M, M_row, M_col, beta, alpha = attention_weights(H, lengths)
            trace_parts = (M.data[0], M_row.data[0], M_col.data[0], beta.data)
        else:
            alpha = Tensor((np.arange(steps)[:, None] < lengths) / lengths)
        c = pool_states(H, alpha)
        z = _activation(cfg.activation)(T.add(T.matmul(p["dense_W"], c), p["dense_b"]))
        z = _dropout(z, rng, dropout_p)
        logits = T.add(T.matmul(p["out_W"], z), p["out_b"])
        y_hat = T.softmax_cols(logits)
        if not return_trace:
            return y_hat, None
        if trace_parts is None:
            m = np.full((steps, steps), np.nan)
            trace_parts = (m, m, m, np.full((steps, 1), np.nan))
        M, M_row, M_col, beta = trace_parts
        trace = ForwardTrace(
            X=X.data.copy(), H=H.data.copy(), M=M.copy(), M_row=M_row.copy(),
            M_col=M_col.copy(), beta=beta.copy(), alpha=alpha.data.copy(),
            c=c.data.copy(), z=z.data.copy(), y_hat=y_hat.data.copy())
        return y_hat, trace

    def predict_label(self, sample: Sample) -> int:
        return self.predict_labels([sample])[0]


class WPModel(RecurrentClassifier):
    variant = "wp"


class LstmBaselineModel(RecurrentClassifier):
    variant = "lstm"
    pooling = "mean"


# ---------------------------------------------------------------------------
# CNN baseline


class CnnModel(NeuralModel):
    """Parallel 1-D convolutions over the zero-padded input, relu,
    max-over-time pooling, dropout, affine + softmax."""

    variant = "cnn"

    def _layer_shapes(self, n: int) -> dict:
        cfg = self.cfg
        shapes = {}
        for w in cfg.cnn_widths:
            shapes[f"conv{w}_W"] = (w * n, cfg.cnn_maps)
            shapes[f"conv{w}_b"] = (1, cfg.cnn_maps)
        shapes.update(out_W=(2, cfg.cnn_maps * len(cfg.cnn_widths)), out_b=(2, 1))
        return shapes

    def forward(self, batch: list, rng: Rng | None = None, dropout_p: float = 0.5):
        """Class probabilities of a list of samples as a (2, B) tensor, one
        column per sample; an Rng means training, as for WP. Every sample is
        padded to max_len with zero rows, and each width is one
        conv_max_pool node over the whole batch."""
        cfg, p = self.cfg, self.params
        lengths = self._lengths(batch)
        X, first, index = embed_sequence(batch, self.vocab, self.embeddings, cfg, p,
                                         steps=cfg.max_len)
        real = np.arange(cfg.max_len) < lengths[:, None]
        # padded rows hold id 0, not zeros; they share one distinct row, now zero
        X = T.mul(X, Tensor(real.reshape(-1, 1)))
        feat = T.concat([conv_max_pool(X, p[f"conv{w}_W"], p[f"conv{w}_b"], w, cfg.max_len,
                                       first, index)
                         for w in cfg.cnn_widths], axis=0)
        feat = _dropout(feat, rng, dropout_p)
        logits = T.add(T.matmul(p["out_W"], feat), p["out_b"])
        return T.softmax_cols(logits), None

    def predict_label(self, sample: Sample) -> int:
        return self.predict_labels([sample])[0]


# ---------------------------------------------------------------------------
# logistic regression baseline

BIGRAM_JOIN = "▁"


def logreg_featurize(sample: Sample, use_pos: bool) -> Counter:
    """Unigram and bigram token counts (POS n-grams too when enabled), first seen first."""
    toks = sample.tokens
    feats = Counter(toks)
    feats.update(map(BIGRAM_JOIN.join, zip(toks, toks[1:])))
    if use_pos:
        pos = list(map("P:".__add__, sample.pos))
        feats.update(pos)
        feats.update(map(BIGRAM_JOIN.join, zip(pos, sample.pos[1:])))  # "P:a▁b"
    return feats


class LogRegModel:
    """Binary logistic regression over n-gram counts, trained by full-batch
    gradient descent on cross-entropy with an L2 penalty. Unseen n-grams at
    prediction time are ignored."""

    variant = "logreg"

    def __init__(self, cfg: ModelConfig):
        self.cfg = cfg
        self.feature_index: dict[str, int] = {}
        self.w: np.ndarray | None = None
        self.b = 0.0

    @property
    def use_pos(self) -> bool:
        return self.cfg.pos_mode != "off"

    def _matrix(self, samples):
        """Count matrix of the samples; unseen n-grams get the next free ids."""
        index, use_pos = self.feature_index, self.use_pos
        rows, cols, vals = [], [], []
        for r, sample in enumerate(samples):
            feats = logreg_featurize(sample, use_pos)
            cols.extend([index.setdefault(f, len(index)) for f in feats])
            rows.extend([r] * len(feats))
            vals.extend(feats.values())
        return scipy.sparse.csr_matrix(
            (np.array(vals, dtype=np.float64), (rows, cols)),
            shape=(len(samples), len(index)))

    def fit(self, train) -> None:
        train = list(train)
        if not train:
            raise UsageError("LogRegModel.fit: empty training set")
        X = self._matrix(train)
        XT = X.T.tocsr()
        y = np.array([sample_target(s) for s in train], dtype=np.float64)
        n = len(train)
        self.w = np.zeros(len(self.feature_index))
        self.b = 0.0
        for _ in range(self.cfg.logreg_epochs):
            scores = X @ self.w + self.b
            p = 1.0 / (1.0 + np.exp(-np.clip(scores, -500, 500)))
            err = p - y
            grad_w = (XT @ err) / n + self.cfg.logreg_l2 * self.w
            grad_b = err.mean()
            self.w -= self.cfg.logreg_lr * grad_w
            self.b -= self.cfg.logreg_lr * grad_b

    def predict_labels(self, samples) -> list:
        """1 where sigmoid(b + w[feature] * count, summed in feature order) >= 0.5.
        The sum runs left to right in Python floats (not sum(), which
        compensates on Python 3.12+), the same additions as a scalar loop."""
        if self.w is None:
            raise UsageError("LogRegModel used before fit")
        w, get, use_pos = self.w.tolist(), self.feature_index.get, self.use_pos
        scores = []
        for sample in samples:
            score = float(self.b)
            feats = logreg_featurize(sample, use_pos)
            for idx, count in zip(map(get, feats), feats.values()):
                if idx is not None:
                    score += w[idx] * count
            scores.append(score)
        p = 1.0 / (1.0 + np.exp(-np.clip(np.array(scores), -500, 500)))
        return (p >= 0.5).astype(int).tolist()

    def predict_label(self, sample: Sample) -> int:
        return self.predict_labels([sample])[0]

    def state(self) -> dict:
        return {"config": encode(self.cfg),
                "features": sorted(self.feature_index, key=self.feature_index.get),
                "weights": self.w, "bias": self.b}

    @classmethod
    def from_state(cls, doc, array) -> "LogRegModel":
        model = cls(_config_from(doc))
        features = _field(doc, "features")
        if not (isinstance(features, list) and all(type(f) is str for f in features)
                and len(set(features)) == len(features)):
            raise UsageError("field 'features': expected a list of distinct strings")
        model.feature_index = {feat: i for i, feat in enumerate(features)}
        model.w = array(_field(doc, "weights"), "weights")
        if model.w.shape != (len(features),):
            raise UsageError(f"field 'weights': shape {model.w.shape} for "
                             f"{len(features)} features")
        bias = _field(doc, "bias")
        if type(bias) not in (int, float) or not math.isfinite(bias):
            raise UsageError(f"field 'bias': expected a finite number, got {bias!r}")
        model.b = float(bias)
        return model


# ---------------------------------------------------------------------------
# most-frequent-class baseline


class MfcModel:
    """Constant predictor of the training-majority class; ties go to 1."""

    variant = "mfc"

    def __init__(self, cfg: ModelConfig | None = None):
        self.cfg = cfg
        self.majority: int | None = None

    def fit(self, train) -> None:
        train = list(train)
        if not train:
            raise UsageError("MfcModel.fit: empty training set")
        pos = sum(map(sample_target, train))
        neg = len(train) - pos
        self.majority = 1 if pos >= neg else 0

    def predict_labels(self, samples) -> list:
        if self.majority is None:
            raise UsageError("MfcModel used before fit")
        return [self.majority] * len(samples)

    def predict_label(self, sample: Sample) -> int:
        return self.predict_labels([sample])[0]

    def state(self) -> dict:
        return {"majority": self.majority}

    @classmethod
    def from_state(cls, doc, array) -> "MfcModel":
        model = cls()
        model.majority = _field(doc, "majority")
        if type(model.majority) is not int or model.majority not in (0, 1):
            raise UsageError(f"field 'majority': expected 0 or 1, got {model.majority!r}")
        return model


VARIANTS = {cls.variant: cls for cls in
            (WPModel, LstmBaselineModel, CnnModel, LogRegModel, MfcModel)}
