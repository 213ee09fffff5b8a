import io
import json

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from presup import config
from presup.config import ExtractionConfig, encode
from presup.errors import ParseError, UsageError
from presup.extraction import (MARKER, Document, ExtractionStats, Sample, _marker_problem,
                               _window, extract_positive, filter_too, find_occurrences,
                               parse_corpus, read_samples, resolve_governor, run_extraction,
                               sample_target, split_dataset, truncate_sample, write_samples)
from presup.rng import Rng

CFG = ExtractionConfig(test_sections=("22",))


def _doc(docs, doc_id):
    return next(d for d in docs if d.doc_id == doc_id)


def _occurrences(doc):
    return find_occurrences(doc, CFG, ExtractionStats())


# ---------------------------------------------------------------------------
# parsing


def test_parse_corpus_structure(corpus_docs):
    assert len(corpus_docs) == 16
    d01 = _doc(corpus_docs, "d01")
    assert d01.section_id == "2"
    assert d01.bounds == [(0, 9)]
    assert d01.tokens == ["We", "will", "go", "to", "the", "park", "again",
                          "tomorrow", "."]
    assert d01.pos[2] == "VB"
    assert d01.head[2] == -1 and d01.head[0] == 2
    d03 = _doc(corpus_docs, "d03")
    assert len(d03.bounds) == 2
    assert d03.bounds[0][0] == 0 and d03.bounds[0][1] == d03.bounds[1][0]
    assert d03.bounds[1][1] == len(d03.tokens) == len(d03.pos) == len(d03.head)


def test_parse_corpus_errors():
    with pytest.raises(ParseError, match="before any"):
        parse_corpus("word\tNN\t-1\n")
    with pytest.raises(ParseError, match="header"):
        parse_corpus("#doc onlyone\n")
    err = pytest.raises(ParseError, match="3 tab-separated")
    with err as e:
        parse_corpus("#doc d 1\nword\tNN\n")
    assert e.value.line == 2
    with pytest.raises(ParseError, match="not an integer"):
        parse_corpus("#doc d 1\nword\tNN\tx\n")
    with pytest.raises(ParseError, match="out of range"):
        parse_corpus("#doc d 1\na\tNN\t5\n\n")
    with pytest.raises(ParseError, match="empty token"):
        parse_corpus("#doc d 1\n\tNN\t-1\n")


def test_parse_corpus_reads_its_stream_line_by_line():
    def lines():
        yield "#doc d 1\n"
        yield "word\tNN\n"
        raise AssertionError("read past the malformed line")

    with pytest.raises(ParseError, match="3 tab-separated") as e:
        parse_corpus(lines())
    assert e.value.line == 2


# any text without a tab or a line break; header fields hold no whitespace either
_FIELD = st.text(st.characters(blacklist_categories=("Cc", "Zl", "Zp")), min_size=1, max_size=4)
_NAME = st.text(st.characters(blacklist_categories=("Cc", "Z")), min_size=1, max_size=4)
_BLANKS = st.lists(st.sampled_from(["", " ", "\t", " \t "]), max_size=2)


@st.composite
def _corpus(draw):
    """(corpus text, the Documents it encodes), written as the format
    describes: a header per document, one token<TAB>POS<TAB>head line per
    token, blank or whitespace-only lines between sentences (at least one
    unless a header or the end of the file follows)."""
    lines, docs = draw(_BLANKS), []
    for _ in range(draw(st.integers(0, 3))):
        doc = Document(draw(_NAME), draw(_NAME))
        lines += [f"#doc {doc.doc_id} {doc.section_id}"] + draw(_BLANKS)
        n_sent = draw(st.integers(0, 3))
        for k in range(n_sent):
            n = draw(st.integers(1, 4))
            tokens = draw(st.lists(st.one_of(_FIELD, st.sampled_from(["#doc", "#doc x"])),
                                   min_size=n, max_size=n))
            pos = draw(st.lists(_FIELD, min_size=n, max_size=n))
            head = draw(st.lists(st.integers(-1, n - 1), min_size=n, max_size=n))
            doc.bounds.append((len(doc.tokens), len(doc.tokens) + n))
            doc.tokens += tokens
            doc.pos += pos
            doc.head += head
            lines += ["\t".join(map(str, row)) for row in zip(tokens, pos, head)]
            last = k == n_sent - 1
            lines += ([] if last and draw(st.booleans()) else [""]) + draw(_BLANKS)
        docs.append(doc)
    return "\n".join(lines) + draw(st.sampled_from(["", "\n"])), docs


@settings(max_examples=200, deadline=None)
@given(_corpus())
def test_parse_corpus_round_trip_property(corpus):
    text, docs = corpus
    assert parse_corpus(text) == docs
    assert parse_corpus(io.StringIO(text)) == docs


# ---------------------------------------------------------------------------
# governor resolution and occurrence scanning


def test_resolve_governor_uses_head_annotation(corpus_docs):
    doc = _doc(corpus_docs, "d01")
    assert resolve_governor(doc, 0, 6, []) == 2  # "again" -> "go"


def test_resolve_governor_falls_back_to_nearest_verb(corpus_docs):
    doc = _doc(corpus_docs, "d08")  # "again" in sentence 0 has head -1
    assert resolve_governor(doc, 0, 3, []) == 1  # "went", nearest VB* to the left


def test_resolve_governor_unresolvable(corpus_docs):
    doc = _doc(corpus_docs, "d08")  # sentence 1, "Not yet .", has no verb
    assert resolve_governor(doc, 1, 1, []) is None


def _walk_governor(doc, sent_index, adverb_index):
    """Reference fallback: walk outward from the adverb, left before right."""
    start, end = doc.bounds[sent_index]
    head = doc.head[start + adverb_index]
    if head >= 0 and head != adverb_index:
        return head
    for dist in range(1, end - start):
        for idx in (adverb_index - dist, adverb_index + dist):
            if 0 <= idx < end - start and doc.pos[start + idx].startswith("VB"):
                return idx
    return None


@st.composite
def _headless_doc(draw):
    """A document whose sentences mix verbs, target adverbs and missing heads."""
    doc = Document("d", "0")
    for _ in range(draw(st.integers(1, 3))):
        n = draw(st.integers(1, 12))
        doc.bounds.append((len(doc.tokens), len(doc.tokens) + n))
        doc.tokens += draw(st.lists(st.sampled_from(["again", "Too", "go", "x"]),
                                    min_size=n, max_size=n))
        doc.pos += draw(st.lists(st.sampled_from(["VB", "VBD", "RB", "NN", "JJ"]),
                                 min_size=n, max_size=n))
        doc.head += draw(st.lists(st.integers(-1, n - 1), min_size=n, max_size=n))
    return doc


@settings(max_examples=300, deadline=None)
@given(_headless_doc())
def test_governor_fallback_matches_outward_walk(doc):
    for sent_index, (start, end) in enumerate(doc.bounds):
        nearest = []
        for i in range(end - start):
            expected = _walk_governor(doc, sent_index, i)
            assert resolve_governor(doc, sent_index, i, []) == expected
            assert resolve_governor(doc, sent_index, i, nearest) == expected
    expected = [(k, i, _walk_governor(doc, k, i))
                for k, (start, end) in enumerate(doc.bounds) for i in range(end - start)
                if doc.tokens[start + i].lower() in CFG.adverbs]
    found = [(o.sent_index, o.adverb_index, o.governor_index)
             for o in _occurrences(doc)]
    assert found == [e for e in expected if e[2] is not None]


def test_governor_fallback_inspects_each_position_once():
    n = 20_000
    inspected = 0

    class Tag(str):
        def startswith(self, *args):
            nonlocal inspected
            inspected += 1
            if inspected > 2 * n:  # an outward walk per adverb stops here
                raise AssertionError(f"{inspected} POS tags inspected for {n} tokens")
            return str.startswith(self, *args)

    # one head-less sentence of adverbs around a single verb
    pos = [Tag("RB")] * n
    pos[n // 2] = Tag("VBD")
    doc = Document("d", "0", tokens=["again"] * n, pos=pos, head=[-1] * n,
                   bounds=[(0, n)])
    occurrences = _occurrences(doc)
    assert inspected == n
    assert len(occurrences) == n - 1
    assert {o.governor_index for o in occurrences} == {n // 2}


def test_find_occurrences(corpus_docs):
    occs = _occurrences(_doc(corpus_docs, "d01"))
    assert len(occs) == 1
    occ = occs[0]
    assert (occ.adverb, occ.governor, occ.governor_pos) == ("again", "go", "VB")
    assert (occ.sent_index, occ.adverb_index, occ.governor_index) == (0, 6, 2)


def test_filter_too(corpus_docs):
    excess = _occurrences(_doc(corpus_docs, "d04"))[0]
    assert excess.governor_pos == "JJ"
    assert not filter_too(excess)  # "too far": excess-quantity sense, dropped
    additive = _occurrences(_doc(corpus_docs, "d05"))[0]
    assert additive.governor_pos == "VB"
    assert filter_too(additive)


# ---------------------------------------------------------------------------
# positive samples


def test_positive_deletes_adverb_and_marks_governor(corpus_docs):
    doc = _doc(corpus_docs, "d01")
    occ = _occurrences(doc)[0]
    sample = extract_positive(doc, occ, CFG)
    assert sample.label == "again"
    assert sample.tokens == ["We", "will", MARKER, "go", "to", "the", "park",
                             "tomorrow", "."]
    assert sample.pos == ["PRP", "MD", MARKER, "VB", "IN", "DT", "NN", "NN", "."]
    assert sample.section == "2"


def test_positive_with_residual_trigger_is_skipped(corpus_docs):
    doc = _doc(corpus_docs, "d12")
    # "He also went home again ." licenses two occurrences, each of which
    # leaves the other adverb in its window
    for occ in _occurrences(doc):
        if occ.sent_index == 1:
            assert extract_positive(doc, occ, CFG) is None


def test_window_crosses_sentences_and_truncates_to_max_len(corpus_docs):
    doc = _doc(corpus_docs, "d10")
    occ = _occurrences(doc)[0]
    assert occ.adverb == "still"
    sample = extract_positive(doc, occ, CFG)
    assert len(sample.tokens) == 60
    # 50-token backward window reaches f15; truncation then drops the two
    # oldest tokens, so the surviving context starts at f17
    assert sample.tokens[:3] == ["f17", "f18", "f19"]
    marker_at = sample.tokens.index(MARKER)
    assert sample.tokens[marker_at - 3:marker_at + 2] == [
        "the", "committee", "has", MARKER, "approved"]
    assert sample.tokens[-3:] == ["next", "week", "."]
    assert "still" not in sample.tokens


def test_window_tail_stops_past_max_len():
    # one 8,000-token sentence: every window's tail is capped, not the
    # rest of the sentence
    n = 8_000
    doc = Document("d", "0", tokens=["go"] * n, pos=["VB"] * n, head=[-1] * n,
                   bounds=[(0, n)])
    cfg = ExtractionConfig()
    longest = 0
    for g in range(n):
        tokens, _ = _window(doc, 0, g, cfg)
        prefix = min(g, cfg.window_before)
        longest = max(longest, len(tokens) - prefix - 2)
    assert longest == cfg.max_len + 1


def test_capped_window_truncates_to_the_uncapped_sample():
    # a long tail, the adverb after the governor, and a second target adverb
    # past the cap, which no truncated sample can hold
    n = 200
    tokens = [f"w{i}" for i in range(n)]
    pos = ["NN"] * n
    tokens[5], pos[5] = "went", "VBD"
    tokens[6], pos[6] = "again", "RB"
    tokens[150], pos[150] = "too", "RB"
    doc = Document("d", "0", tokens=tokens, pos=pos, head=[-1] * n, bounds=[(0, n)])
    occ = _occurrences(doc)[0]
    sample = extract_positive(doc, occ, CFG)
    full = [t for i, t in enumerate(tokens) if i != 6]
    assert sample.tokens == full[:5] + [MARKER] + full[5:5 + CFG.max_len - 6]
    assert "too" not in sample.tokens


def test_truncate_drops_tail_when_marker_is_early():
    tokens = [MARKER, "verb"] + [f"x{i}" for i in range(70)]
    sample = Sample(label="again", tokens=tokens, pos=["T"] * len(tokens))
    out = truncate_sample(sample, 60)
    assert len(out.tokens) == 60
    assert out.tokens[0] == MARKER  # the marker always survives
    assert out.tokens[-1] == "x57"


def test_truncate_noop_when_short():
    sample = Sample(label="again", tokens=["a", MARKER, "b"], pos=["x"] * 3)
    assert truncate_sample(sample, 60) is sample


# ---------------------------------------------------------------------------
# full pipeline on the fixture corpus

EXPECTED_POSITIVES = {
    ("We", "will", MARKER, "go", "to", "the", "park", "tomorrow", "."),
    ("She", MARKER, "plays", "piano", "."),
    ("He", "wants", "to", MARKER, "come", "."),
    ("The", "results", "have", "not", MARKER, "arrived", "."),
    ("John", MARKER, "went", "home"),
    ("He", MARKER, "juggles", "."),
    ("We", "will", MARKER, "go", "to", "the", "store", "tonight", "."),
}

EXPECTED_NEGATIVES = {
    ("They", MARKER, "go", "home", "early", "."),
    ("They", "go", "home", "early", ".", "He", MARKER, "plays", "tennis", "."),
    ("They", MARKER, "come", "back", "later", "."),
    ("They", "come", "back", "later", ".", "The", "package", MARKER,
     "arrived", "yesterday", "."),
    ("Mary", MARKER, "went", "home", "yesterday", "."),
    ("The", "board", MARKER, "approved", "the", "budget", "."),
    ("We", "will", "go", "to", "the", "store", "again", "tonight", ".",
     "You", MARKER, "go", "first", "."),
}


def _all_samples(split):
    return split.train + split.dev + split.test


def test_run_extraction_stats(corpus_docs):
    _, stats = run_extraction(corpus_docs, CFG, Rng(42))
    d = stats.to_dict()
    assert {a: s["positives"] for a, s in d.items()} == {
        "again": 4, "also": 1, "still": 1, "too": 1, "yet": 1}
    assert {a: s["negatives"] for a, s in d.items()} == {
        "again": 3, "also": 1, "still": 1, "too": 1, "yet": 1}
    assert d["again"]["unmatched_governors"] == 1  # nothing else "juggles"
    assert d["too"]["filtered_too"] == 1
    assert d["again"]["skipped_residual_adverb"] == 1
    assert d["also"]["skipped_residual_adverb"] == 1
    assert d["yet"]["unresolved_governors"] == 1
    # each mined negative answers exactly one positive
    for adverb, s in d.items():
        assert s["negatives"] + s["unmatched_governors"] == s["positives"]


def test_run_extraction_sample_contents(corpus_docs):
    datasets, _ = run_extraction(corpus_docs, CFG, Rng(42))
    everything = _all_samples(datasets["all"])
    positives = {tuple(s.tokens) for s in everything if s.label != "none"}
    negatives = {tuple(s.tokens) for s in everything if s.label == "none"}
    assert EXPECTED_POSITIVES <= positives
    assert len(positives) == 8  # the seven above plus the long d10 window
    assert negatives == EXPECTED_NEGATIVES
    for s in everything:
        assert _marker_problem(s.tokens, s.pos) is None
        assert len(s.tokens) <= CFG.max_len
        if sample_target(s):  # a positive holds no target adverb
            assert not any(t.lower() in CFG.targets for t in s.tokens)


def test_run_extraction_splits_by_section(corpus_docs):
    datasets, _ = run_extraction(corpus_docs, CFG, Rng(42))
    split = datasets["all"]
    assert {s.section for s in split.test} == {"22"}
    assert len(split.test) == 2
    assert all(s.section != "22" for s in split.train + split.dev)
    assert len(split.dev) == 1  # 10% of the 13 non-test samples
    assert len(split.train) == 12
    counts = split.counts()
    assert counts["test"] == {"positive": 1, "negative": 1, "total": 2}
    # per-adverb datasets partition "all"
    per_adverb_total = sum(len(_all_samples(datasets[a]))
                           for a in CFG.adverbs)
    assert per_adverb_total == len(_all_samples(split)) == 15


def test_run_extraction_is_deterministic(corpus_docs):
    def snapshot():
        datasets, _ = run_extraction(corpus_docs, CFG, Rng(42))
        return {name: [(s.label, tuple(s.tokens)) for s in _all_samples(split)]
                for name, split in datasets.items()}

    assert snapshot() == snapshot()


def test_run_extraction_seed_changes_split(corpus_docs):
    a, _ = run_extraction(corpus_docs, CFG, Rng(42))
    b, _ = run_extraction(corpus_docs, CFG, Rng(43))
    all_a = [(s.label, tuple(s.tokens)) for s in _all_samples(a["all"])]
    all_b = [(s.label, tuple(s.tokens)) for s in _all_samples(b["all"])]
    assert sorted(all_a) == sorted(all_b)  # same material, different order


# ---------------------------------------------------------------------------
# splitting


def test_section_spec_validation():
    rng = Rng(0)
    samples = [Sample("again", ["a", MARKER, "b"], ["x"] * 3, section=str(i))
               for i in range(30)]
    split = split_dataset(samples, ExtractionConfig(test_sections=("21-25",)), rng)
    assert {s.section for s in split.test} == {"21", "22", "23", "24", "25"}
    with pytest.raises(UsageError, match="overlapping"):
        split_dataset(samples, ExtractionConfig(test_sections=("1-5", "4-8")), rng)
    with pytest.raises(UsageError, match="bad section range"):
        split_dataset(samples, ExtractionConfig(test_sections=("a-b",)), rng)
    with pytest.raises(UsageError, match="bad section range"):
        split_dataset(samples, ExtractionConfig(test_sections=("9-2",)), rng)


def test_extraction_spec_is_derived_once_when_the_config_is_built(monkeypatch, corpus_docs):
    calls = []
    parse = config._parse_section_spec
    monkeypatch.setattr(config, "_parse_section_spec",
                        lambda sections: calls.append(sections) or parse(sections))
    cfg = ExtractionConfig(adverbs=["again", "too"], test_sections=("22", "1-3"))
    assert calls == [("22", "1-3")]
    assert cfg.targets == frozenset({"again", "too"})
    run_extraction(corpus_docs, cfg, Rng(5))  # six split_dataset calls
    assert len(calls) == 1
    # derived attributes are neither fields nor config keys
    assert set(encode(cfg)) == {"adverbs", "window_before", "max_len", "test_sections",
                                "dev_fraction"}
    with pytest.raises(UsageError, match="bad config"):
        config.decode(ExtractionConfig, {"targets": ["again"]})


# ---------------------------------------------------------------------------
# serialization


def test_samples_round_trip(tmp_path, corpus_docs):
    datasets, _ = run_extraction(corpus_docs, CFG, Rng(42))
    samples = _all_samples(datasets["all"])
    path = tmp_path / "samples.jsonl"
    write_samples(path, samples)
    back = read_samples(path)
    assert [(s.label, s.tokens, s.pos, s.section) for s in samples] == \
        [(s.label, s.tokens, s.pos, s.section) for s in back]


_TEXT = st.text(max_size=6)
_TOKEN = _TEXT.filter(lambda t: t != MARKER)


@st.composite
def _samples(draw):
    """Samples read_samples accepts: one aligned marker, then a governor."""
    before = draw(st.lists(st.tuples(_TOKEN, _TOKEN), max_size=4))
    after = draw(st.lists(st.tuples(_TOKEN, _TOKEN), min_size=1, max_size=4))
    pairs = before + [(MARKER, MARKER)] + after
    return Sample(draw(_TEXT), [t for t, _ in pairs], [p for _, p in pairs], draw(_TEXT))


@settings(max_examples=50, deadline=None)
@given(st.lists(_samples(), max_size=5))
def test_samples_round_trip_property(tmp_path_factory, samples):
    path = tmp_path_factory.mktemp("samples") / "samples.jsonl"
    write_samples(path, samples)
    assert read_samples(path) == samples


def test_read_samples_errors(tmp_path):
    bad_json = tmp_path / "bad.jsonl"
    bad_json.write_text('{"label": "again"\n')
    with pytest.raises(ParseError, match="invalid JSON"):
        read_samples(bad_json)

    missing = tmp_path / "missing.jsonl"
    missing.write_text('{"label": "again", "tokens": ["a"], "pos": ["x"]}\n')
    with pytest.raises(ParseError, match="section"):
        read_samples(missing)

    skewed = tmp_path / "skewed.jsonl"
    skewed.write_text(
        '{"label": "again", "tokens": ["a", "b"], "pos": ["x"], "section": "2"}\n')
    with pytest.raises(ParseError, match="lengths differ"):
        read_samples(skewed)


_GOOD = {"label": "again", "tokens": ["a", MARKER, "go"], "pos": ["x", MARKER, "V"],
         "section": "2"}


@pytest.mark.parametrize("record, field", [
    (dict(_GOOD, tokens=["a", 5, MARKER, "go"], pos=["x", "y", MARKER, "V"]), "tokens"),
    (dict(_GOOD, tokens=["a", None, MARKER, "go"], pos=["x", "y", MARKER, "V"]), "tokens"),
    (dict(_GOOD, tokens="a@@@@go"), "tokens"),
    (dict(_GOOD, pos=["x", MARKER, ["V"]]), "pos"),
    (dict(_GOOD, pos={"x": 1}), "pos"),
    (dict(_GOOD, label=1), "label"),
    (dict(_GOOD, label=None), "label"),
    (dict(_GOOD, section=22), "section"),
    ([1, 2], "JSON object"),
    ("again", "JSON object"),
], ids=["int-token", "null-token", "string-tokens", "list-tag", "object-pos",
        "int-label", "null-label", "int-section", "array", "string"])
def test_read_samples_checks_field_types(tmp_path, record, field):
    path = tmp_path / "typed.jsonl"
    path.write_text(json.dumps(_GOOD) + "\n" + json.dumps(record) + "\n")
    with pytest.raises(ParseError, match=field) as err:
        read_samples(path)
    assert err.value.line == 2


@pytest.mark.parametrize("tokens, pos, problem", [
    (["a", MARKER, "b"], ["x", MARKER, "y"], None),
    (["a", MARKER, "b"], ["x", MARKER], "lengths differ"),
    (["a", "b", "c"], ["x", "y", "z"], "exactly one marker"),
    (["a", "b", "c"], ["x", MARKER, "z"], "exactly one marker"),
    ([MARKER, "b", MARKER], [MARKER, "y", MARKER], "exactly one marker"),
    ([MARKER, "b", MARKER], ["x", "y", "z"], "exactly one marker"),
    (["a", MARKER, "b"], ["x", "y", "z"], "misaligned"),
    (["a", MARKER, "b"], [MARKER, "y", "z"], "misaligned"),
    (["a", MARKER, "b"], ["x", MARKER, MARKER], "misaligned"),
    (["a", MARKER, "b"], [MARKER, MARKER, "z"], "misaligned"),
    (["a", "b", MARKER], ["x", "y", MARKER], "no following governor"),
    (["a", "b", MARKER], ["x", MARKER, "z"], "misaligned"),  # fires before the governor check
    ([MARKER], [MARKER], "no following governor"),
])
def test_marker_problem_table(tokens, pos, problem):
    found = _marker_problem(tokens, pos)
    if problem is None:
        assert found is None
    else:
        assert problem in found
