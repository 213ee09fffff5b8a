"""Independent numerical oracles used by the tests.

Gradients are checked against central finite differences; the relative error
denominator is floored at 1e-6 because FD noise on near-zero derivatives is
absolute (~1e-11), not relative.
"""

import numpy as np

from presup import tensor as T

REL_FLOOR = 1e-6
BIGRAM_JOIN = "\u2581"  # "▁", the join of a bigram's two tokens in a feature key


def fd_gradient(f, arr: np.ndarray, eps: float = 1e-5,
                coords=None) -> np.ndarray:
    """Central-difference gradient of scalar f() w.r.t. the entries of arr
    (mutated in place and restored). `coords` limits which flat indices are
    probed; unprobed entries come back as nan."""
    flat = arr.reshape(-1)
    if coords is None:
        coords = range(flat.size)
    grad = np.full(flat.size, np.nan)
    for k in coords:
        orig = flat[k]
        flat[k] = orig + eps
        fp = f()
        flat[k] = orig - eps
        fm = f()
        flat[k] = orig
        grad[k] = (fp - fm) / (2.0 * eps)
    return grad.reshape(arr.shape)


def rel_err(fd: float, g: float) -> float:
    return abs(fd - g) / max(abs(fd), abs(g), REL_FLOOR)


def max_rel_err(fd: np.ndarray, g: np.ndarray) -> float:
    mask = ~np.isnan(fd)
    denom = np.maximum(np.maximum(np.abs(fd[mask]), np.abs(g[mask])), REL_FLOOR)
    if denom.size == 0:
        return 0.0
    return float(np.max(np.abs(fd[mask] - g[mask]) / denom))


def logreg_features(sample, use_pos: bool = False) -> dict:
    """Reference n-gram counts, one dict update per n-gram: token unigrams,
    token bigrams, then (with use_pos) POS unigrams and bigrams, each keyed
    as models.logreg_featurize keys it, in first-seen order."""
    feats: dict[str, int] = {}

    def bump(key):
        feats[key] = feats.get(key, 0) + 1

    toks = sample.tokens
    for t in toks:
        bump(t)
    for a, b in zip(toks, toks[1:]):
        bump(a + BIGRAM_JOIN + b)
    if use_pos:
        for t in sample.pos:
            bump("P:" + t)
        for a, b in zip(sample.pos, sample.pos[1:]):
            bump("P:" + a + BIGRAM_JOIN + b)
    return feats


def logreg_proba(model, sample) -> np.ndarray:
    """[1 - p, p] of a fitted LogRegModel, one numpy scalar at a time: the
    bias, then w[idx] * count over the known features in first-seen order,
    then the sigmoid of the score clipped to [-500, 500]."""
    score = model.b
    for feat, count in logreg_features(sample, model.use_pos).items():
        idx = model.feature_index.get(feat)
        if idx is not None:
            score += model.w[idx] * count
    p = 1.0 / (1.0 + np.exp(-np.clip(score, -500, 500)))
    return np.array([1.0 - p, p])


def tape_sum(x: T.Tensor) -> T.Tensor:
    """Sum of every entry of x as a (1, 1) tensor, recorded on the active
    tape (ones-vector products), for turning any output into a loss."""
    rows, cols = x.shape
    return T.matmul(T.matmul(T.Tensor(np.ones((1, rows))), x),
                    T.Tensor(np.ones((cols, 1))))
