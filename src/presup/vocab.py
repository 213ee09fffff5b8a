"""Token/POS vocabularies and pretrained word-vector loading."""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass

import numpy as np

from .errors import ParseError, UsageError
from .extraction import MARKER
from .rng import Rng

UNK = "<unk>"
PAD = "<pad>"


def _ordered(counts: Counter) -> list:
    return sorted(counts, key=lambda t: (-counts[t], t))


@dataclass
class Vocab:
    tokens: list
    pos_tags: list

    def __post_init__(self):
        for name, items in (("tokens", self.tokens), ("pos_tags", self.pos_tags)):
            if not (type(items) is list and all(type(t) is str for t in items)
                    and UNK in items):
                raise UsageError(f"field 'vocab.{name}': expected a list of strings "
                                 f"that holds {UNK!r}")
        self.token_to_id = {t: i for i, t in enumerate(self.tokens)}
        self.pos_to_id = {t: i for i, t in enumerate(self.pos_tags)}
        if len(self.token_to_id) != len(self.tokens):
            raise UsageError("duplicate tokens in vocabulary")
        if len(self.pos_to_id) != len(self.pos_tags):
            raise UsageError("duplicate POS tags in vocabulary")

    def __len__(self):
        return len(self.tokens)

    @property
    def marker_id(self):
        return self.token_to_id[MARKER]

    @property
    def unk_id(self):
        return self.token_to_id[UNK]

    @property
    def pad_id(self):
        return self.token_to_id[PAD]

    def id_of(self, token: str) -> int:
        return self.token_to_id.get(token, self.unk_id)

    def token_ids(self, tokens) -> list:
        get, unk = self.token_to_id.get, self.unk_id
        return [get(t, unk) for t in tokens]

    def pos_ids(self, tags) -> list:
        get, unk = self.pos_to_id.get, self.pos_to_id[UNK]
        return [get(t, unk) for t in tags]


def build_vocab(samples) -> Vocab:
    """Ids ordered by frequency (descending) then lexicographically; the
    marker, unknown and padding ids are appended after corpus tokens, so
    the same corpus always yields the same vocabulary. A literal special
    token in the text (a PTB-style "<unk>") is not counted: it maps to its
    special id."""
    samples = list(samples)
    if not samples:
        raise UsageError("build_vocab: empty training set")
    specials = [MARKER, UNK, PAD]
    token_counts = Counter(t for s in samples for t in s.tokens if t not in specials)
    pos_counts = Counter(t for s in samples for t in s.pos if t not in specials)
    tokens = _ordered(token_counts) + specials
    pos_tags = _ordered(pos_counts) + specials
    return Vocab(tokens=tokens, pos_tags=pos_tags)


def parse_vector_file(path):
    """Parse a text vector file: one "token v1 ... vd" line per token, with
    an optional "count dim" header. Returns (dict token -> vector, dim),
    where dim is the length of the first vector; every other vector must
    have as many values."""
    vectors, dim = {}, None
    with open(path, "r", encoding="utf-8") as f:
        for lineno, line in enumerate(f, start=1):
            parts = line.rstrip("\n").split(" ")
            if lineno == 1 and len(parts) == 2:
                try:
                    int(parts[0]), int(parts[1])
                    continue  # header line
                except ValueError:
                    pass
            if len(parts) < 2:
                raise ParseError("vector line needs a token and values", line=lineno)
            token, values = parts[0], parts[1:]
            try:
                vec = np.array(values, dtype=np.float64)
            except ValueError:
                raise ParseError(f"non-numeric vector value for {token!r}", line=lineno) from None
            if dim is None:
                dim = vec.size
            elif vec.size != dim:
                raise ParseError(
                    f"vector for {token!r} has {vec.size} values, expected {dim}",
                    line=lineno)
            vectors[token] = vec
    if dim is None:
        raise UsageError(f"empty vector file {path}")
    return vectors, dim


def load_embeddings(path, vocab: Vocab, rng: Rng, dim: int) -> np.ndarray:
    """The (|V|, dim) word-vector matrix, row i for token id i: known rows
    copied from file; missing rows drawn uniform(-0.05, 0.05) in
    vocabulary-id order (stable across reloads for a fixed rng seed);
    padding row is all zeros."""
    vectors, file_dim = parse_vector_file(path)
    if file_dim != dim:
        raise UsageError(
            f"embedding file {path} has dimension {file_dim}, configured {dim}")
    return build_embedding_table(vocab, rng, dim, vectors)


def build_embedding_table(vocab: Vocab, rng: Rng, dim: int,
                          vectors: dict | None = None) -> np.ndarray:
    vectors = vectors or {}
    matrix = np.zeros((len(vocab), dim))
    for i, token in enumerate(vocab.tokens):
        if token == PAD:
            continue
        known = vectors.get(token)
        matrix[i] = known if known is not None else rng.uniform(-0.05, 0.05, dim)
    return matrix
