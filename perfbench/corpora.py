"""Seeded input generators for the benchmark workloads.

Everything here uses the standard library's ``random.Random`` only, so the
inputs for a seed do not depend on numpy or on the program under test. Each
generator returns corpus text in the three-column format that
``presup extract`` reads (``#doc <id> <section>`` headers, one
``token<TAB>pos<TAB>head`` line per token, a blank line after each sentence)
plus the sizes the harness needs to normalise its metrics.
"""

from __future__ import annotations

import bisect
import itertools
import random
from pathlib import Path

ADVERBS = ("again", "also", "still", "too", "yet")
FIXTURE = Path(__file__).resolve().parent / "data" / "fixture_corpus.txt"


def _doc(lines: list, doc_id: str, section: str, sentences) -> int:
    """Append one document; each sentence is (tokens, pos, heads). Returns
    the number of tokens written."""
    lines.append(f"#doc {doc_id} {section}")
    n = 0
    for tokens, pos, heads in sentences:
        for tok, tag, head in zip(tokens, pos, heads):
            lines.append(f"{tok}\t{tag}\t{head}")
        lines.append("")
        n += len(tokens)
    return n


# ---------------------------------------------------------------------------
# synth: the repetition task of tests/synth.py, written as a corpus

SYNTH_CONTENT = [f"w{i:02d}" for i in range(8)]
SYNTH_HEADS = [f"h{i}" for i in range(5)]
SYNTH_TAILS = [f"t{i}" for i in range(8)]
SYNTH_PREFIX, SYNTH_REPEATS = 5, 3
SYNTH_TEST_SECTION = "9"


SYNTH_FILLER = [f"f{i:02d}" for i in range(40)]


def synth_corpus(seed: int, n_train: int = 2000, n_dev: int = 400, n_test: int = 400,
                 n_filler: int = 8400):
    """One single-sentence document per sample of the synthetic recurrence
    task (positives repeat one content token three times among the five
    tokens before the marker; negatives use five distinct ones; head and tail
    after the marker are noise).

    A positive document reads ``p1..p5 again head tail`` with ``again``
    attached to ``head``; extraction with ``window_before=6`` deletes the
    adverb and yields exactly ``p1..p5 @@@@ head tail``. Each negative
    document reuses its positive partner's head, so extraction finds exactly
    one negative per positive. The last ``n_test`` samples sit in the test
    section; ``dev_fraction`` 0.1667 cuts the remaining 2400 into 400 dev and
    2000 train samples.

    ``n_filler`` further eight-token documents, as in any real corpus, hold
    no adverb and no head word, so they add parsing and scanning work but no
    sample.
    """
    rng = random.Random(f"synth/{seed}")
    n_pairs = (n_train + n_dev + n_test) // 2
    test_from = n_pairs - n_test // 2
    lines: list = []
    tokens_total = 0
    for k in range(n_pairs):
        section = SYNTH_TEST_SECTION if k >= test_from else "1"
        perm = rng.sample(SYNTH_CONTENT, len(SYNTH_CONTENT))
        head = rng.choice(SYNTH_HEADS)
        spots = set(rng.sample(range(SYNTH_PREFIX), SYNTH_REPEATS))
        others = iter(perm[1:])
        prefix = [perm[0] if p in spots else next(others) for p in range(SYNTH_PREFIX)]
        pos_tokens = prefix + ["again", head, rng.choice(SYNTH_TAILS)]
        heads = [-1] * len(pos_tokens)
        heads[SYNTH_PREFIX] = SYNTH_PREFIX + 1
        tags = ["NN"] * len(pos_tokens)
        tags[SYNTH_PREFIX] = "RB"
        tokens_total += _doc(lines, f"p{k}", section, [(pos_tokens, tags, heads)])
        neg_perm = rng.sample(SYNTH_CONTENT, len(SYNTH_CONTENT))
        neg_tokens = neg_perm[:SYNTH_PREFIX] + [head, rng.choice(SYNTH_TAILS)]
        tokens_total += _doc(lines, f"n{k}", section,
                             [(neg_tokens, ["NN"] * len(neg_tokens), [-1] * len(neg_tokens))])
    for k in range(n_filler):
        tokens = rng.choices(SYNTH_FILLER, k=8)
        tokens_total += _doc(lines, f"f{k}", "1", [(tokens, ["NN"] * 8, [-1] * 8)])
    vocab = SYNTH_CONTENT + SYNTH_HEADS + SYNTH_TAILS + ["@@@@", "<unk>"]
    return "\n".join(lines) + "\n", tokens_total, vocab


def one_hot_vectors(tokens: list, dim: int) -> str:
    """Text vector file giving each token its own basis vector."""
    rows = [f"{len(tokens)} {dim}"]
    for i, tok in enumerate(tokens):
        vec = ["0"] * dim
        vec[i] = "1"
        rows.append(tok + " " + " ".join(vec))
    return "\n".join(rows) + "\n"


# ---------------------------------------------------------------------------
# paper: article-sized documents over a Zipfian vocabulary

PAPER_TYPES = 2500
PAPER_VERBS = 60
PAPER_TAGS = ("NN", "NN", "NN", "NNS", "JJ", "DT", "IN", "PRP", "CC", "CD", "NNP", "RB")
PAPER_TEST_SECTION = "23"


def _paper_lexicon(rng: random.Random):
    words = [f"x{i:04d}" for i in range(PAPER_TYPES)]
    tags = [rng.choice(PAPER_TAGS) for _ in words]
    weights = [1.0 / (r + 2.7) ** 1.07 for r in range(PAPER_TYPES)]
    cum = list(itertools.accumulate(weights))
    verbs = [f"v{i:02d}" for i in range(PAPER_VERBS)]
    verb_tags = [rng.choice(("VB", "VBD", "VBZ", "VBP")) for _ in verbs]
    return words, tags, cum, verbs, verb_tags


def paper_corpus(seed: int, n_docs: int = 160, n_positive: int = 103, n_test_positive: int = 32):
    """Article-sized documents (20-40 sentences of 8-30 tokens) whose word
    types follow a Zipf law over a few thousand types. Every sentence has
    one verb that all other tokens attach to. ``n_positive`` sentences carry
    one target adverb attached to the verb, at least 55 tokens after the
    previous adverb of the document, so each yields a positive window of up
    to 60 tokens and no window holds a second adverb. Verbs recur across
    adverb-free sentences (verbs are dealt evenly), so every positive finds
    its negative.

    One document in four is in the test section, and its verbs are used
    nowhere else, so the negatives of its ``n_test_positive`` positives come
    from test documents too: the test split holds exactly
    2 * n_test_positive samples (fewer only if the test documents of a seed
    had too few adverb slots). With the defaults the other 142 samples split
    into 14 dev and exactly 128 train samples: two full batches of 64."""
    rng = random.Random(f"paper/{seed}")
    words, tags, cum, verbs, verb_tags = _paper_lexicon(rng)
    total = cum[-1]
    test_verbs = PAPER_VERBS // 4

    def word():
        i = bisect.bisect_left(cum, rng.random() * total)
        return words[i], tags[i]

    plan = [[rng.randint(8, 30) for _ in range(rng.randint(20, 40))] for _ in range(n_docs)]
    is_test = [d % 4 == 3 for d in range(n_docs)]
    # candidate adverb slots: sentences with at least 55 tokens of whole
    # sentences since the previous slot sentence ended
    slots = {True: [], False: []}
    for d, lengths in enumerate(plan):
        since = 10 ** 9
        for s, n in enumerate(lengths):
            if since >= 55:
                slots[is_test[d]].append((d, s))
                since = -n
            since += n
    n_test_positive = min(n_test_positive, len(slots[True]))
    n_rest = min(n_positive - n_test_positive, len(slots[False]))
    chosen = set(rng.sample(slots[True], n_test_positive) + rng.sample(slots[False], n_rest))

    def deal(lo, hi):  # every verb of the range equally often
        while True:
            yield from rng.sample(range(lo, hi), hi - lo)

    # adverb and plain sentences deal verbs separately, so no verb is wanted
    # by more positives than its plain sentences can pair with negatives
    verb_of = {(test, adverb): deal(*((0, test_verbs) if test else (test_verbs, PAPER_VERBS)))
               for test in (True, False) for adverb in (True, False)}
    lines: list = []
    tokens_total = 0
    for d, lengths in enumerate(plan):
        section = PAPER_TEST_SECTION if is_test[d] else str(2 + d % 20)
        sentences = []
        for s, n in enumerate(lengths):
            toks, pos = [], []
            for _ in range(n - 1):
                w, t = word()
                toks.append(w)
                pos.append(t)
            v = next(verb_of[is_test[d], (d, s) in chosen])
            at = rng.randrange(1, n)
            toks.insert(at, verbs[v])
            pos.insert(at, verb_tags[v])
            if (d, s) in chosen:
                adv_at = rng.choice((at, at + 1))
                toks.insert(adv_at, rng.choice(ADVERBS))
                pos.insert(adv_at, "RB")
                if adv_at <= at:
                    at += 1
            heads = [at] * len(toks)
            heads[at] = -1
            sentences.append((toks, pos, heads))
        tokens_total += _doc(lines, f"a{d:03d}", section, sentences)
    return "\n".join(lines) + "\n", tokens_total, words + verbs


def random_vectors(tokens: list, dim: int, seed: int) -> str:
    """Text vector file with uniform(-0.25, 0.25) values at 5 decimals."""
    rng = random.Random(f"vectors/{seed}")
    rows = [f"{len(tokens)} {dim}"]
    for tok in tokens:
        rows.append(tok + " " + " ".join(f"{rng.uniform(-0.25, 0.25):.5f}"
                                          for _ in range(dim)))
    return "\n".join(rows) + "\n"


# ---------------------------------------------------------------------------
# extract: the fixture corpus retiled into a heavy-tailed set of documents


def fixture_sentences(path: Path = FIXTURE) -> list:
    """The fixture's sentences as lists of raw token lines."""
    sentences, cur = [], []
    for line in path.read_text(encoding="utf-8").splitlines():
        if line.startswith("#doc") or not line.strip():
            if cur:
                sentences.append(cur)
                cur = []
            continue
        cur.append(line)
    if cur:
        sentences.append(cur)
    return sentences


def extract_doc_lengths(n_docs: int = 320, min_sent: int = 30, alpha: float = 1.3,
                        max_sent: int = 500) -> list:
    """Document lengths in sentences at fixed quantiles of a Pareto law, so
    every seed gets the same heavy-tailed mix: the median document has about
    50 sentences (a few hundred tokens) and the longest reach the cap of 500
    sentences (about 3,000 tokens)."""
    return [min(max_sent, int(min_sent * (1.0 - (i + 0.5) / n_docs) ** (-1.0 / alpha)))
            for i in range(n_docs)]


def extract_corpus(seed: int):
    """Documents with the fixed heavy-tailed lengths above, in seeded order,
    filled by dealing the fixture's sentences from successive seeded
    shuffles of the whole fixture, so every long document holds each
    sentence about equally often whatever the seed. Every sixth document by
    length is in the test section, so the test share is fixed too."""
    rng = random.Random(f"extract/{seed}")
    pool = fixture_sentences()

    def deal():
        while True:
            yield from rng.sample(pool, len(pool))

    sentences = deal()
    lengths = extract_doc_lengths()
    ranks = list(range(len(lengths)))
    rng.shuffle(ranks)
    lines: list = []
    tokens_total = 0
    for d, rank in enumerate(ranks):
        section = PAPER_TEST_SECTION if rank % 6 == 5 else str(2 + d % 20)
        lines.append(f"#doc e{d:03d} {section}")
        for _ in range(lengths[rank]):
            sent = next(sentences)
            lines.extend(sent)
            lines.append("")
            tokens_total += len(sent)
    return "\n".join(lines) + "\n", tokens_total
