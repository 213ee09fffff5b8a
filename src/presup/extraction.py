"""Mining balanced positive/negative trigger datasets from annotated corpora.

Input corpora are already tokenized, POS-tagged and head-annotated (three
tab-separated columns per token line). Positives are windows around the
governor of a target adverb, with the adverb removed and a ``@@@@`` marker
inserted before the governor. Negatives reuse the same governor surface forms
in adverb-free sentences so the head word alone cannot give the class away.
"""

from __future__ import annotations

import json
from collections import deque
from dataclasses import dataclass, field

from .config import ExtractionConfig
from .errors import ParseError
from .fileio import atomic_write, text_lines, undecodable
from .rng import Rng

MARKER = "@@@@"


@dataclass
class Document:
    """One document as token, POS and head streams. A head is the 0-based
    index of the token's governor within its own sentence (-1 for root or
    unknown), and bounds holds each sentence's (start, end) in the streams.
    A backward window may cross sentence boundaries but never leaves the
    document."""
    doc_id: str
    section_id: str
    tokens: list = field(default_factory=list)
    pos: list = field(default_factory=list)
    head: list = field(default_factory=list)
    bounds: list = field(default_factory=list)

    def flat(self):
        """The stored (tokens, pos, bounds) streams, not copies. Nothing in
        presup calls it; perfbench/tracing.py counts its calls by name."""
        return self.tokens, self.pos, self.bounds


@dataclass
class Occurrence:
    sent_index: int
    adverb: str
    adverb_index: int  # within the sentence, like governor_index
    governor_index: int
    governor: str
    governor_pos: str


@dataclass
class Sample:
    label: str        # adverb string, or "none" for negatives
    tokens: list
    pos: list
    section: str = ""


def sample_target(sample: Sample) -> int:
    """The class of a sample: 0 for a "none" negative, 1 for a positive."""
    return 0 if sample.label == "none" else 1


@dataclass
class DatasetSplit:
    train: list
    dev: list
    test: list

    def counts(self):
        def pn(samples):
            p = sum(map(sample_target, samples))
            return {"positive": p, "negative": len(samples) - p, "total": len(samples)}
        return {"train": pn(self.train), "dev": pn(self.dev), "test": pn(self.test)}


@dataclass
class AdverbStats:
    positives: int = 0
    negatives: int = 0
    unmatched_governors: int = 0
    filtered_too: int = 0
    skipped_residual_adverb: int = 0
    unresolved_governors: int = 0


@dataclass
class ExtractionStats:
    per_adverb: dict = field(default_factory=dict)

    def for_adverb(self, adverb: str) -> AdverbStats:
        return self.per_adverb.setdefault(adverb, AdverbStats())

    def to_dict(self) -> dict:
        return {
            adverb: vars(self.per_adverb[adverb]).copy()
            for adverb in sorted(self.per_adverb)
        }


# ---------------------------------------------------------------------------
# parsing


def parse_corpus(stream) -> list:
    """Parse the three-column corpus format into Documents, one line of
    `stream`, an iterable of lines such as an open file, at a time.

    Lines: ``#doc <doc_id> <section_id>``, with no tab, opens a document;
    token lines are ``token<TAB>pos<TAB>head_index``; a blank line closes
    the sentence.
    """
    docs: list[Document] = []
    doc: Document | None = None
    add_token = add_pos = add_head = None  # the open document's appends
    lineno = 0
    for lineno, line in enumerate(stream, start=1):
        # a well-formed token line costs one split and one int(); int()
        # ignores the line break that ends the head field
        fields = line.split("\t")
        if len(fields) == 3 and doc is not None:
            token, pos, head = fields
            if token and pos:
                try:
                    head_idx = int(head)
                except ValueError:
                    pass
                else:
                    add_token(token)
                    add_pos(pos)
                    add_head(head_idx)
                    continue
        # any other line takes every check, in this order
        line = line.rstrip("\n")
        if line.startswith("#doc") and "\t" not in line:  # "#doc<TAB>..." is a token
            _close_sentence(doc, lineno)
            parts = line.split()
            if len(parts) != 3:
                raise ParseError(f"bad document header {line!r}", line=lineno)
            doc = Document(doc_id=parts[1], section_id=parts[2])
            docs.append(doc)
            add_token, add_pos, add_head = doc.tokens.append, doc.pos.append, doc.head.append
            continue
        if not line.strip():
            _close_sentence(doc, lineno)
            continue
        if doc is None:
            raise ParseError("token line before any #doc header", line=lineno)
        fields = line.split("\t")
        if len(fields) != 3:
            raise ParseError(
                f"expected 3 tab-separated fields, got {len(fields)}", line=lineno)
        token, pos, head = fields
        if not token or not pos:
            raise ParseError("empty token or POS field", line=lineno)
        # a line whose head int() reads was appended above
        raise ParseError(f"head index {head!r} is not an integer", line=lineno)
    _close_sentence(doc, lineno)
    return docs


def _close_sentence(doc: Document | None, lineno: int) -> None:
    """Bound the tokens appended since the last closed sentence, if any."""
    if doc is None:
        return
    start = doc.bounds[-1][1] if doc.bounds else 0
    end = len(doc.tokens)
    if start == end:
        return
    heads = doc.head[start:]
    if min(heads) < -1 or max(heads) >= end - start:
        h = next(h for h in heads if not -1 <= h < end - start)
        raise ParseError(
            f"head index {h} out of range for sentence of length {end - start}",
            line=lineno)
    doc.bounds.append((start, end))


def read_corpus(path) -> list:
    """parse_corpus over the UTF-8 file at `path`; a ParseError names it."""
    with open(path, "r", encoding="utf-8") as f:
        try:
            return parse_corpus(f)
        except ParseError as e:
            raise ParseError(e.reason, line=e.line, path=path) from None
        except UnicodeDecodeError:
            raise undecodable(path) from None


# ---------------------------------------------------------------------------
# occurrence scanning


def _nearest_verbs(doc: Document, start: int, end: int) -> list:
    """For each position of the sentence [start, end), the index within it of
    the nearest other verb (POS starting with VB), the left one on a tie;
    None where the sentence has no other verb. One pass each way."""
    is_verb = [tag.startswith("VB") for tag in doc.pos[start:end]]
    nearest, last = [], None
    for i, verb in enumerate(is_verb):
        nearest.append(last)
        if verb:
            last = i
    last = None
    for i in range(end - start - 1, -1, -1):
        left = nearest[i]
        if last is not None and (left is None or last - i < i - left):
            nearest[i] = last
        if is_verb[i]:
            last = i
    return nearest


def resolve_governor(doc: Document, sent_index: int, adverb_index: int, nearest: list):
    """Head annotation wins; otherwise fall back to the nearest verb
    (POS starting with VB), preferring the left. Indices are within the
    sentence; None if unresolvable. `nearest` is one list per sentence,
    shared by its adverbs: it starts empty and holds the sentence's
    nearest-verb table once a fallback has needed it."""
    start, end = doc.bounds[sent_index]
    head = doc.head[start + adverb_index]
    if head >= 0 and head != adverb_index:
        return head
    if not nearest:
        nearest.extend(_nearest_verbs(doc, start, end))
    return nearest[adverb_index]


def target_forms(docs: list, targets) -> frozenset:
    """The token forms of `docs` whose lowercase is in `targets`. Each
    distinct form is lowercased once, so a scan for target adverbs tests set
    membership instead of lowercasing every token."""
    forms = set()
    for doc in docs:
        forms.update(doc.tokens)
    return frozenset(t for t in forms if t.lower() in targets)


def find_occurrences(doc: Document, forms: frozenset, stats: ExtractionStats) -> list:
    """Every target adverb of `doc` with a resolvable governor; `forms` is
    target_forms of the corpus."""
    tokens, pos = doc.tokens, doc.pos
    occurrences = []
    if forms.isdisjoint(tokens):
        return occurrences
    for sent_index, (start, end) in enumerate(doc.bounds):
        sentence = tokens[start:end]
        if forms.isdisjoint(sentence):
            continue
        nearest = []
        for i, token in enumerate(sentence):
            if token not in forms:
                continue
            adverb = token.lower()
            gov = resolve_governor(doc, sent_index, i, nearest)
            if gov is None:
                stats.for_adverb(adverb).unresolved_governors += 1
                continue
            occurrences.append(Occurrence(
                sent_index=sent_index,
                adverb=adverb,
                adverb_index=i,
                governor_index=gov,
                governor=tokens[start + gov],
                governor_pos=pos[start + gov],
            ))
    return occurrences


def filter_too(occ: Occurrence) -> bool:
    """False iff this is the excess-quantity sense of "too" (governor tagged
    JJ or RB); other adverbs are always kept."""
    if occ.adverb != "too":
        return True
    return occ.governor_pos not in ("JJ", "RB")


# ---------------------------------------------------------------------------
# sample building


def truncate_sample(sample: Sample, max_len: int) -> Sample:
    """Drop oldest context first when over length; if that would drop the
    marker, drop from the tail instead. The marker always survives."""
    n = len(sample.tokens)
    if n <= max_len:
        return sample
    marker_at = sample.tokens.index(MARKER)
    excess = n - max_len
    if marker_at >= excess:
        tokens = sample.tokens[excess:]
        pos = sample.pos[excess:]
    else:
        tokens = sample.tokens[:max_len]
        pos = sample.pos[:max_len]
    return Sample(label=sample.label, tokens=tokens, pos=pos, section=sample.section)


def _window_range(doc: Document, sent_index: int, pivot_index: int,
                  cfg: ExtractionConfig) -> tuple:
    """(g, lo, hi): the stream index of a pivot token of one sentence, and
    the stream range [lo, hi) of its window. The tail after the pivot stops
    max_len + 1 positions past it: truncate_sample keeps at most
    max_len - 2 tail tokens of a window whose tail is longer than that, so
    the cap changes no truncated sample."""
    sent_start, sent_end = doc.bounds[sent_index]
    g = sent_start + pivot_index
    return g, max(0, g - cfg.window_before), min(sent_end, g + 2 + cfg.max_len)


def _window(doc: Document, sent_index: int, pivot_index: int,
            cfg: ExtractionConfig, drop_global: int | None = None):
    """Backward window around a pivot token of one sentence, over the
    stream range _window_range gives; drop_global is a stream index to
    leave out."""
    tokens, pos = doc.tokens, doc.pos
    g, lo, hi = _window_range(doc, sent_index, pivot_index, cfg)
    prefix = [i for i in range(lo, g) if i != drop_global]
    tail = [i for i in range(g + 1, hi) if i != drop_global]
    out_tokens = [tokens[i] for i in prefix] + [MARKER, tokens[g]] + [tokens[i] for i in tail]
    out_pos = [pos[i] for i in prefix] + [MARKER, pos[g]] + [pos[i] for i in tail]
    return out_tokens, out_pos


def extract_positive(doc: Document, occ: Occurrence, cfg: ExtractionConfig,
                     forms: frozenset) -> Sample | None:
    """Window around the governor with the triggering adverb deleted.

    Returns None when another target adverb (a token in `forms`, the
    corpus's target_forms) survives in the window: such a sample would leak
    the label, and callers count these. Only the window's capped tail is
    searched, so an adverb more than max_len + 1 positions past the
    governor, which no truncated sample can hold, does not count. The
    window is built only for a sample that is kept."""
    drop = doc.bounds[occ.sent_index][0] + occ.adverb_index
    _, lo, hi = _window_range(doc, occ.sent_index, occ.governor_index, cfg)
    tokens = doc.tokens
    if not (forms.isdisjoint(tokens[lo:min(drop, hi)])
            and forms.isdisjoint(tokens[max(lo, drop + 1):hi])):
        return None
    tokens, pos = _window(doc, occ.sent_index, occ.governor_index, cfg, drop_global=drop)
    sample = Sample(label=occ.adverb, tokens=tokens, pos=pos, section=doc.section_id)
    return truncate_sample(sample, cfg.max_len)


def extract_negatives(docs: list, occurrences: list, cfg: ExtractionConfig,
                      rng: Rng, stats: ExtractionStats, forms: frozenset) -> list:
    """One negative per positive occurrence, pivoting on the same governor
    surface form in an adverb-free sentence (one with no token in `forms`,
    the corpus's target_forms). Documents are scanned in rng-shuffled order,
    each from an rng-chosen sentence offset, to keep position-related
    confounds out of the negative class. The offsets of all non-empty
    documents are drawn at once, after the shuffle, so `rng` should serve
    this call alone.

    Returns (adverb_group, Sample) pairs so negatives stay attached to the
    per-adverb dataset their positive came from.
    """
    demand: dict[str, deque] = {}
    for occ in occurrences:
        demand.setdefault(occ.governor, deque()).append(occ.adverb)

    results = []
    doc_order = [i for i in rng.shuffled(list(range(len(docs)))) if docs[i].bounds]
    offsets = rng.integers_below([len(docs[i].bounds) for i in doc_order])
    for doc_idx, offset in zip(doc_order, offsets):
        if not demand:
            break
        doc = docs[doc_idx]
        n_sent = len(doc.bounds)
        for k in range(n_sent):
            sent_index = (offset + k) % n_sent
            start, end = doc.bounds[sent_index]
            sent_tokens = doc.tokens[start:end]
            if demand.keys().isdisjoint(sent_tokens) or not forms.isdisjoint(sent_tokens):
                continue
            for i, token in enumerate(sent_tokens):
                queue = demand.get(token)
                if queue is None:
                    continue
                tokens, pos = _window(doc, sent_index, i, cfg)
                sample = truncate_sample(
                    Sample(label="none", tokens=tokens, pos=pos, section=doc.section_id),
                    cfg.max_len)
                results.append((queue.popleft(), sample))
                if not queue:
                    del demand[token]

    for queue in demand.values():
        for adverb in queue:
            stats.for_adverb(adverb).unmatched_governors += 1
    return results


def _marker_problem(tokens, pos) -> str | None:
    """What is wrong with a sample's token and POS streams regardless of
    config (lengths, the one aligned marker, its governor), or None."""
    if len(tokens) != len(pos):
        return "tokens and pos lengths differ"
    try:  # one scan over the tokens: up to the marker, then the rest
        at = tokens.index(MARKER)
    except ValueError:
        return "sample must contain exactly one marker token"
    if MARKER in tokens[at + 1:]:
        return "sample must contain exactly one marker token"
    if pos[at] != MARKER or pos.count(MARKER) != 1:
        return "POS marker misaligned with token marker"
    if at + 1 >= len(tokens):
        return "marker has no following governor token"
    return None


# ---------------------------------------------------------------------------
# splitting and serialization


def split_dataset(samples: list, cfg: ExtractionConfig, rng: Rng) -> DatasetSplit:
    """Test split by corpus section; remainder shuffled and cut into
    dev_fraction / rest."""
    test, rest = [], []
    for s in samples:
        (test if cfg.is_test_section(s.section) else rest).append(s)
    rest = rng.shuffled(rest)
    n_dev = int(len(rest) * cfg.dev_fraction)
    return DatasetSplit(train=rest[n_dev:], dev=rest[:n_dev], test=test)


def write_samples(path, samples, lines: dict) -> None:
    """Write `samples` as JSONL, one record per line. `lines` maps the id of
    each sample already encoded to its line, and this call adds the ones it
    encodes: the files of one extraction share one dict, so a sample in a
    per-adverb file and in "all" is encoded once. The samples must outlive
    the dict, since an id is reused once its object is gone."""
    def write(f):
        for s in samples:
            line = lines.get(id(s))
            if line is None:
                record = {"label": s.label, "tokens": s.tokens, "pos": s.pos,
                          "section": s.section}
                line = json.dumps(record, ensure_ascii=False, separators=(",", ":")) + "\n"
                lines[id(s)] = line
            f.write(line)
    atomic_write(path, write)


def _is_str_list(value) -> bool:
    if type(value) is not list:
        return False
    try:
        "".join(value)  # one C-level pass: a non-string item raises
    except TypeError:
        return False
    return True


def read_samples(path) -> list:
    """The samples of a UTF-8 JSONL file; a ParseError names the file and
    the line."""
    samples = []
    for lineno, line in text_lines(path):
        line = line.strip()
        if not line:
            continue
        try:
            record = json.loads(line)
        except json.JSONDecodeError as e:
            raise ParseError(f"invalid JSON ({e.msg})", line=lineno, path=path) from None
        except RecursionError:
            raise ParseError("invalid JSON (nested too deeply)", line=lineno, path=path) from None
        if type(record) is not dict:
            raise ParseError("expected a JSON object", line=lineno, path=path)
        for key in ("label", "tokens", "pos", "section"):
            if key not in record:
                raise ParseError(f"missing field {key!r}", line=lineno, path=path)
        for key in ("label", "section"):
            if type(record[key]) is not str:
                raise ParseError(f"field {key!r} must be a string", line=lineno, path=path)
        for key in ("tokens", "pos"):
            if not _is_str_list(record[key]):
                raise ParseError(f"field {key!r} must be a list of strings",
                                 line=lineno, path=path)
        problem = _marker_problem(record["tokens"], record["pos"])
        if problem:
            raise ParseError(problem, line=lineno, path=path)
        samples.append(Sample(label=record["label"], tokens=record["tokens"],
                              pos=record["pos"], section=record["section"]))
    return samples


# ---------------------------------------------------------------------------
# orchestration


def run_extraction(docs: list, cfg: ExtractionConfig, rng: Rng):
    """Full pipeline: scan, filter, extract positives and negatives, split.

    Returns (datasets, stats) where datasets maps each adverb plus "all"
    to a DatasetSplit.
    """
    stats = ExtractionStats()
    for adverb in cfg.adverbs:
        stats.for_adverb(adverb)

    forms = target_forms(docs, cfg.targets)
    kept: list[tuple[Occurrence, Sample]] = []
    for doc in docs:
        for occ in find_occurrences(doc, forms, stats):
            if not filter_too(occ):
                stats.for_adverb(occ.adverb).filtered_too += 1
                continue
            sample = extract_positive(doc, occ, cfg, forms)
            if sample is None:
                stats.for_adverb(occ.adverb).skipped_residual_adverb += 1
                continue
            stats.for_adverb(occ.adverb).positives += 1
            kept.append((occ, sample))

    negatives = extract_negatives(docs, [occ for occ, _ in kept], cfg,
                                  rng.child("negatives"), stats, forms)
    for adverb_group, _ in negatives:
        stats.for_adverb(adverb_group).negatives += 1

    by_adverb: dict[str, list] = {adverb: [] for adverb in cfg.adverbs}
    for occ, sample in kept:
        by_adverb[occ.adverb].append(sample)
    for adverb_group, sample in negatives:
        by_adverb[adverb_group].append(sample)

    datasets = {}
    for adverb in cfg.adverbs:
        datasets[adverb] = split_dataset(by_adverb[adverb], cfg, rng.child(f"split/{adverb}"))
    everything = [s for adverb in cfg.adverbs for s in by_adverb[adverb]]
    datasets["all"] = split_dataset(everything, cfg, rng.child("split/all"))
    return datasets, stats
