"""Independent numerical oracles used by the tests.

Gradients are checked against central finite differences; the relative error
denominator is floored at 1e-6 because FD noise on near-zero derivatives is
absolute (~1e-11), not relative.
"""

from collections import deque

import numpy as np

from presup import tensor as T
from presup.errors import ParseError
from presup.extraction import (MARKER, Document, ExtractionStats, Occurrence, Sample,
                               filter_too, resolve_governor, split_dataset, truncate_sample)

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


def tape_sum(x: np.ndarray) -> np.ndarray:
    """Sum of every entry of x as a (1, 1) array, recorded on the active
    tape (ones-vector products), for turning any output into a loss."""
    rows, cols = x.shape
    return T.matmul(T.matmul(np.ones((1, rows)), x), np.ones((cols, 1)))


def count_params(store) -> int:
    """Number of scalar parameters in a ParamStore."""
    return sum(t.size for _, t in store.items())


def _is_float64_array(t) -> bool:
    return type(t) is np.ndarray and t.dtype == np.float64


def _kind(t) -> str:
    return str(t.dtype) if isinstance(t, np.ndarray) else type(t).__name__


class _CopyOnAppend(list):
    """The node list of a CheckedTape. Appending a node asserts that its
    inputs and output are float64 arrays and that the output is a fresh
    object: neither one of its inputs nor an earlier node's output (the
    graph is keyed on identity). It also snapshots every one of them."""

    def __init__(self, snapshots):
        super().__init__()
        self.snapshots = snapshots
        self.out_ids = set()

    def append(self, node):
        out = node.out
        assert _is_float64_array(out) and all(map(_is_float64_array, node.inputs)), \
            f"tape values must be float64 arrays, got {[_kind(t) for t in node.inputs]} -> {_kind(out)}"
        assert all(out is not t for t in node.inputs), "tape output is one of its inputs"
        assert id(out) not in self.out_ids, "tape output was already recorded"
        self.out_ids.add(id(out))
        self.snapshots.append(([t.copy() for t in node.inputs], node.out.copy()))
        super().append(node)


def _same_bits(a: np.ndarray, b: np.ndarray) -> bool:
    return a.dtype == b.dtype and a.shape == b.shape and a.tobytes() == b.tobytes()


class CheckedTape(T.Tape):
    """A Tape that copies each node's input and output arrays as the node
    is recorded. A VJP reads its inputs (and often views of them) when
    backward() runs, so an input written in place after its node was
    recorded gives wrong gradients; unchanged() detects that, and an output
    written in place, by comparing every array bit for bit with its copy."""

    def __init__(self):
        super().__init__()
        self.snapshots = []
        self.nodes = _CopyOnAppend(self.snapshots)

    def unchanged(self) -> bool:
        return all(all(_same_bits(t, a) for t, a in zip(node.inputs, ins))
                   and _same_bits(node.out, out)
                   for node, (ins, out) in zip(self.nodes, self.snapshots))


def parse_corpus_reference(stream) -> list:
    """The corpus format read one line at a time with every check on every
    line: strip the line break, then header, blank line, token line before
    any header, field count, empty field and head integer, in that order.
    A closed sentence's heads are checked one by one."""
    docs, doc, lineno = [], None, 0

    def close():
        if doc is None:
            return
        start = doc.bounds[-1][1] if doc.bounds else 0
        n = len(doc.tokens) - start
        if n == 0:
            return
        for h in doc.head[start:]:
            if not -1 <= h < n:
                raise ParseError(f"head index {h} out of range for sentence of length {n}",
                                 line=lineno)
        doc.bounds.append((start, start + n))

    for lineno, line in enumerate(stream, start=1):
        line = line.rstrip("\n")
        if line.startswith("#doc") and "\t" not in line:
            close()
            parts = line.split()
            if len(parts) != 3:
                raise ParseError(f"bad document header {line!r}", line=lineno)
            doc = Document(doc_id=parts[1], section_id=parts[2])
            docs.append(doc)
            continue
        if not line.strip():
            close()
            continue
        if doc is None:
            raise ParseError("token line before any #doc header", line=lineno)
        fields = line.split("\t")
        if len(fields) != 3:
            raise ParseError(f"expected 3 tab-separated fields, got {len(fields)}", line=lineno)
        token, pos, head = fields
        if not token or not pos:
            raise ParseError("empty token or POS field", line=lineno)
        try:
            head_idx = int(head)
        except ValueError:
            raise ParseError(f"head index {head!r} is not an integer", line=lineno) from None
        doc.tokens.append(token)
        doc.pos.append(pos)
        doc.head.append(head_idx)
    close()
    return docs


def extraction_reference(docs, cfg, rng):
    """run_extraction's (datasets, stats), computed the direct way: every
    token is lowercased where it is tested, each positive's window is built
    before it is searched for another target adverb, and each scanned
    document draws its sentence offset with its own integers() call."""
    targets = cfg.targets
    stats = ExtractionStats()
    for adverb in cfg.adverbs:
        stats.for_adverb(adverb)

    def window(doc, sent_index, pivot, drop):
        start, end = doc.bounds[sent_index]
        g = start + pivot
        before = [i for i in range(max(0, g - cfg.window_before), g) if i != drop]
        after = [i for i in range(g + 1, min(end, g + 2 + cfg.max_len)) if i != drop]
        tokens = [doc.tokens[i] for i in before] + [MARKER, doc.tokens[g]] + \
            [doc.tokens[i] for i in after]
        pos = [doc.pos[i] for i in before] + [MARKER, doc.pos[g]] + [doc.pos[i] for i in after]
        return tokens, pos

    kept = []
    for doc in docs:
        for k, (start, end) in enumerate(doc.bounds):
            nearest = []
            for i in range(end - start):
                adverb = doc.tokens[start + i].lower()
                if adverb not in targets:
                    continue
                gov = resolve_governor(doc, k, i, nearest)
                if gov is None:
                    stats.for_adverb(adverb).unresolved_governors += 1
                    continue
                occ = Occurrence(k, adverb, i, gov, doc.tokens[start + gov], doc.pos[start + gov])
                if not filter_too(occ):
                    stats.for_adverb(adverb).filtered_too += 1
                    continue
                tokens, pos = window(doc, k, gov, start + i)
                if any(t.lower() in targets for t in tokens):
                    stats.for_adverb(adverb).skipped_residual_adverb += 1
                    continue
                stats.for_adverb(adverb).positives += 1
                kept.append((occ, truncate_sample(Sample(adverb, tokens, pos, doc.section_id),
                                                  cfg.max_len)))

    demand = {}
    for occ, _ in kept:
        demand.setdefault(occ.governor, deque()).append(occ.adverb)
    remaining = len(kept)
    negatives = []
    neg_rng = rng.child("negatives")
    for doc_idx in neg_rng.shuffled(list(range(len(docs)))):
        if remaining == 0:
            break
        doc = docs[doc_idx]
        n_sent = len(doc.bounds)
        if n_sent == 0:
            continue
        offset = neg_rng.integers(0, n_sent)
        for k in range(n_sent):
            sent_index = (offset + k) % n_sent
            start, end = doc.bounds[sent_index]
            if remaining == 0 or any(t.lower() in targets for t in doc.tokens[start:end]):
                continue
            for i in range(end - start):
                queue = demand.get(doc.tokens[start + i])
                if not queue or remaining == 0:
                    continue
                tokens, pos = window(doc, sent_index, i, None)
                negatives.append((queue.popleft(), truncate_sample(
                    Sample("none", tokens, pos, doc.section_id), cfg.max_len)))
                remaining -= 1
    for queue in demand.values():
        for adverb in queue:
            stats.for_adverb(adverb).unmatched_governors += 1
    for adverb, _ in negatives:
        stats.for_adverb(adverb).negatives += 1

    by_adverb = {adverb: [] for adverb in cfg.adverbs}
    for occ, sample in kept:
        by_adverb[occ.adverb].append(sample)
    for adverb, sample in negatives:
        by_adverb[adverb].append(sample)
    datasets = {adverb: split_dataset(by_adverb[adverb], cfg, rng.child(f"split/{adverb}"))
                for adverb in cfg.adverbs}
    everything = [s for adverb in cfg.adverbs for s in by_adverb[adverb]]
    datasets["all"] = split_dataset(everything, cfg, rng.child("split/all"))
    return datasets, stats
