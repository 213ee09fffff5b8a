"""Token/POS vocabularies and pretrained word-vector loading."""

from __future__ import annotations

import hashlib
import json
import os
from collections import Counter
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .errors import ParseError, UsageError
from .extraction import MARKER
from .fileio import atomic_write
from .rng import Rng

UNK = "<unk>"
PAD = "<pad>"
CACHE_FORMAT = "presup-vectors-v1"
CACHE_DTYPE = "<f8"  # cached vectors are little-endian float64 on every host


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
    def unk_id(self):
        return self.token_to_id[UNK]

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
    have as many values, and every value must be finite. A repeated token
    keeps its first position in the dict and takes its last values. A
    malformed line is a ParseError naming the file and the line."""
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
                raise ParseError("vector line needs a token and values",
                                 line=lineno, path=path)
            token, values = parts[0], parts[1:]
            try:
                vec = np.array(values, dtype=np.float64)
            except ValueError:
                raise ParseError(f"non-numeric vector value for {token!r}",
                                 line=lineno, path=path) from None
            if not np.isfinite(vec).all():  # float() takes "nan", "inf" and "1e400"
                raise ParseError(f"non-finite vector value for {token!r}",
                                 line=lineno, path=path)
            if dim is None:
                dim = vec.size
            elif vec.size != dim:
                raise ParseError(
                    f"vector for {token!r} has {vec.size} values, expected {dim}",
                    line=lineno, path=path)
            vectors[token] = vec
    if dim is None:
        raise UsageError(f"empty vector file {path}")
    return vectors, dim


def _sha256(path) -> str:
    h = hashlib.sha256()
    with open(path, "rb") as f:
        for chunk in iter(lambda: f.read(1 << 20), b""):
            h.update(chunk)
    return h.hexdigest()


def _cached_vectors(cache: Path, digest: str, vocab: Vocab):
    """(dict token -> vector for the vocabulary's tokens that the cache
    holds, dim) when ``cache`` is a well-formed cache of the vector file
    whose sha256 is ``digest``; None otherwise. Only those rows are read."""
    try:
        f = open(cache, "rb")
    except OSError:
        return None
    with f:
        try:
            header = json.loads(f.readline())
        except (ValueError, RecursionError):  # truncated, not JSON or not UTF-8
            return None
        if type(header) is not dict or header.get("format") != CACHE_FORMAT \
                or header.get("sha256") != digest:
            return None
        dim, tokens = header.get("dim"), header.get("tokens")
        if not (type(dim) is int and dim > 0 and type(tokens) is list and tokens
                and all(type(t) is str for t in tokens)):
            return None
        start = f.tell()
        row_of = {t: i for i, t in enumerate(tokens)}
        if len(row_of) != len(tokens) \
                or os.fstat(f.fileno()).st_size - start != 8 * dim * len(tokens):
            return None
        # the vocabulary's rows in file order, each run of adjacent rows read
        # with one call into its slice. np.memmap was as fast, but mapping the
        # file raised the paper benchmark's peak RSS by about 6 MB.
        known = sorted((row_of[t], t) for t in vocab.tokens if t in row_of)
        picked = np.empty((len(known), dim), dtype=CACHE_DTYPE)
        first = 0
        for k in range(1, len(known) + 1):
            if k == len(known) or known[k][0] != known[k - 1][0] + 1:
                f.seek(start + 8 * dim * known[first][0])
                if f.readinto(picked[first:k]) != picked[first:k].nbytes:
                    return None  # the cache shrank while it was read
                first = k
    return {t: row for (_, t), row in zip(known, picked)}, dim


def _write_cache(cache: Path, digest: str, vectors: dict, dim: int) -> None:
    header = {"format": CACHE_FORMAT, "sha256": digest, "dim": dim,
              "tokens": list(vectors)}
    line = json.dumps(header, ensure_ascii=False, separators=(",", ":")) + "\n"

    def write(f):
        f.buffer.write(line.encode("utf-8"))
        for vec in vectors.values():
            f.buffer.write(vec.astype(CACHE_DTYPE, copy=False).data)
    cache.parent.mkdir(parents=True, exist_ok=True)
    atomic_write(cache, write)


def load_embeddings(path, vocab: Vocab, rng: Rng, dim: int, cache_dir) -> np.ndarray:
    """The (|V|, dim) word-vector matrix, row i for token id i: known rows
    copied from the vector file; missing rows drawn uniform(-0.05, 0.05) in
    vocabulary-id order (stable across reloads for a fixed rng seed);
    padding row is all zeros.

    The file is parsed once per content: ``cache_dir/vectors.bin`` holds
    what ``parse_vector_file`` returned, keyed on the sha256 of the file's
    bytes, as one JSON header line (format, sha256, dim and the tokens in
    file order) and then each vector as raw little-endian float64. When the
    cache matches, only the vocabulary's rows are read from it. Anything
    else (no cache, another file's, or a malformed one) parses the file with
    every check and rewrites the cache atomically, so only a file that
    parsed cleanly is ever cached. Both ways give the same matrix bit for
    bit, and deleting ``cache_dir`` is always safe."""
    digest = _sha256(path)
    cache = Path(cache_dir) / "vectors.bin"
    cached = _cached_vectors(cache, digest, vocab)
    if cached is None:
        vectors, file_dim = parse_vector_file(path)
        if _sha256(path) == digest:  # the file did not change while it was parsed
            _write_cache(cache, digest, vectors, file_dim)
    else:
        vectors, file_dim = cached
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
