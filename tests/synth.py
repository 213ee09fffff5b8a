"""Generator for a balanced synthetic detection task.

Positive samples repeat one content token three times at random positions in
the window before the @@@@ marker; negative samples use all-distinct content
tokens. Everything after the marker (head word, tail) is label-independent
noise, so the only usable signal is token recurrence before the marker.
"""

import numpy as np

from presup.extraction import MARKER, Sample
from presup.rng import Rng
from presup.vocab import PAD, Vocab, build_vocab

N_CONTENT = 8
PREFIX_LEN = 5
REPEATS = 3
N_HEADS = 5
N_TAILS = 8


def gen_repetition_samples(rng: Rng, n: int) -> list[Sample]:
    content = [f"w{i:02d}" for i in range(N_CONTENT)]
    heads = [f"h{i}" for i in range(N_HEADS)]
    tails = [f"t{i}" for i in range(N_TAILS)]
    out = []
    for k in range(n):
        positive = k % 2 == 0
        perm = rng.permutation(N_CONTENT)
        if positive:
            w = content[perm[0]]
            others = [content[j] for j in perm[1:PREFIX_LEN - REPEATS + 1]]
            spots = set()
            while len(spots) < REPEATS:
                spots.add(rng.integers(0, PREFIX_LEN))
            prefix, oi = [], 0
            for p in range(PREFIX_LEN):
                if p in spots:
                    prefix.append(w)
                else:
                    prefix.append(others[oi])
                    oi += 1
        else:
            prefix = [content[j] for j in perm[:PREFIX_LEN]]
        tokens = prefix + [MARKER, heads[rng.integers(0, N_HEADS)],
                           tails[rng.integers(0, N_TAILS)]]
        out.append(Sample(label="again" if positive else "none",
                          tokens=tokens, pos=["NN"] * len(tokens), section=0))
    return out


def onehot_embeddings(vocab: Vocab) -> np.ndarray:
    """One row per vocabulary entry on the standard basis; pad row zeroed."""
    mat = np.eye(len(vocab.tokens))
    mat[vocab.token_to_id[PAD]] = 0.0
    return mat


def make_task(seed: int, n_train: int = 2000, n_dev: int = 400, n_test: int = 400):
    """Returns (train, dev, test, vocab, embeddings) for a fixed seed."""
    rng = Rng(seed)
    data = gen_repetition_samples(rng.child("data"), n_train + n_dev + n_test)
    train = data[:n_train]
    dev = data[n_train:n_train + n_dev]
    test = data[n_train + n_dev:]
    vocab = build_vocab(data)
    return train, dev, test, vocab, onehot_embeddings(vocab)
