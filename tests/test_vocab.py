import json
import os
import tracemalloc

import numpy as np
import pytest

from presup import vocab as vocab_module
from presup.errors import ParseError, UsageError
from presup.extraction import MARKER, Sample
from presup.rng import Rng
from presup.vocab import (PAD, UNK, Vocab, build_vocab,
                          build_embedding_table, load_embeddings,
                          parse_vector_file)


def _samples():
    return [
        Sample("again", ["b", "a", MARKER, "go", "a"],
               ["X", "Y", MARKER, "V", "Y"], "2"),
        Sample("none", ["a", "c", MARKER, "go"],
               ["Y", "Z", MARKER, "V"], "2"),
    ]


def test_build_vocab_orders_by_frequency_then_name():
    vocab = build_vocab(_samples())
    # a (3), go (2), then b/c (1 each) alphabetically, then specials
    assert vocab.tokens == ["a", "go", "b", "c", MARKER, UNK, PAD]
    assert vocab.token_to_id["a"] == 0
    assert vocab.token_ids(["never-seen"]) == [vocab.unk_id]
    assert vocab.token_to_id[MARKER] == 4
    assert vocab.token_to_id[PAD] == len(vocab) - 1
    assert vocab.token_ids(["a", "zzz", MARKER]) == [0, vocab.unk_id, 4]
    assert vocab.pos_ids(["Y", "??"]) == [vocab.pos_to_id["Y"],
                                          vocab.pos_to_id[UNK]]


def test_literal_special_tokens_map_to_their_special_ids():
    # PTB-style text holds a literal "<unk>"; it must not be a second vocabulary entry
    samples = [Sample("again", [UNK, "a", MARKER, "go", PAD], [UNK, "Y", MARKER, "V", PAD], "2"),
               Sample("none", [UNK, UNK, MARKER, "go"], ["Y", "Y", MARKER, PAD], "2")]
    vocab = build_vocab(samples)
    assert vocab.tokens == ["go", "a", MARKER, UNK, PAD]
    assert vocab.pos_tags == ["Y", "V", MARKER, UNK, PAD]
    assert vocab.token_ids([UNK, PAD]) == [vocab.unk_id, vocab.token_to_id[PAD]]
    assert vocab.pos_ids([UNK, PAD]) == [vocab.pos_to_id[UNK], vocab.pos_to_id[PAD]]


@pytest.mark.parametrize("field, value", [
    ("tokens", ["a", MARKER, PAD]),        # no <unk>
    ("pos_tags", ["X", MARKER, PAD]),
    ("tokens", ["a", 7, UNK]),             # not all strings
    ("pos_tags", [["X"], UNK]),
    ("tokens", "a" + UNK),                 # not a list
    ("pos_tags", None),
])
def test_vocab_lists_are_strings_holding_unk(field, value):
    lists = {"tokens": ["a", MARKER, UNK, PAD], "pos_tags": ["X", MARKER, UNK, PAD]}
    lists[field] = value
    with pytest.raises(UsageError, match=f"'vocab.{field}'"):
        Vocab(**lists)


def test_build_vocab_rejects_an_empty_set():
    with pytest.raises(UsageError):
        build_vocab([])


def test_parse_vector_file(data_dir):
    vectors, dim = parse_vector_file(data_dir / "tiny_vectors.txt")
    assert dim == 5
    assert len(vectors) == 6
    np.testing.assert_allclose(vectors["go"], [0.1, -0.2, 0.3, 0.0, 0.5])


def test_parse_vector_file_errors(tmp_path):
    ragged = tmp_path / "ragged.txt"
    ragged.write_text("a 1.0 2.0\nb 1.0\n")
    with pytest.raises(ParseError, match="expected 2"):
        parse_vector_file(ragged)
    junk = tmp_path / "junk.txt"
    junk.write_text("a 1.0 oops\n")
    with pytest.raises(ParseError, match="non-numeric"):
        parse_vector_file(junk)
    empty = tmp_path / "empty.txt"
    empty.write_text("")
    with pytest.raises(UsageError):
        parse_vector_file(empty)


# Lines split on single spaces, so a value never starts with one; "\t1" stands
# in for leading whitespace and "" is the field that a double space leaves.
@pytest.mark.parametrize("text", ["abc", "nan", "1e400", "0x1p3", "1_000", "\t1",
                                  "1\r", "-0", "inf", ""])
def test_parse_vector_file_reads_values_as_float_does(text, tmp_path):
    path = tmp_path / "vectors.txt"
    path.write_text(f"a 1.0 2.0\nb 3.0 {text}\n", encoding="utf-8")
    try:
        expected = float(text)
    except ValueError:
        with pytest.raises(ParseError, match="line 2.*non-numeric"):
            parse_vector_file(path)
        return
    if not np.isfinite(expected):  # a value float() takes, but no embedding can hold
        with pytest.raises(ParseError, match=r"vectors\.txt: line 2: non-finite .*'b'"):
            parse_vector_file(path)
        return
    vectors, _ = parse_vector_file(path)
    np.testing.assert_array_equal(vectors["b"], [3.0, expected])
    assert np.signbit(vectors["b"][1]) == np.signbit(expected)


def test_load_embeddings_mixes_known_and_random(data_dir, tmp_path):
    samples = [Sample("again", ["go", "mystery", MARKER, "park"],
                      ["V", "N", MARKER, "N"], "2")]
    vocab = build_vocab(samples)
    table = load_embeddings(data_dir / "tiny_vectors.txt", vocab, Rng(1), 5, tmp_path)
    assert table.shape == (len(vocab), 5)
    np.testing.assert_allclose(table[vocab.token_to_id["go"]],
                               [0.1, -0.2, 0.3, 0.0, 0.5])
    unknown_row = table[vocab.token_to_id["mystery"]]
    assert np.all(np.abs(unknown_row) <= 0.05)
    assert np.any(unknown_row != 0.0)
    np.testing.assert_array_equal(table[vocab.token_to_id[PAD]], np.zeros(5))
    # unknown-row fill is a pure function of the seed
    again = load_embeddings(data_dir / "tiny_vectors.txt", vocab, Rng(1), 5, tmp_path)
    np.testing.assert_array_equal(table, again)


def test_load_embeddings_dimension_mismatch(data_dir, tmp_path):
    vocab = build_vocab(_samples())
    vectors = data_dir / "tiny_vectors.txt"
    with pytest.raises(UsageError, match="dimension 5, configured 300"):
        load_embeddings(vectors, vocab, Rng(1), 300, tmp_path)  # parses, then caches
    assert (tmp_path / "vectors.bin").exists()
    with pytest.raises(UsageError, match="dimension 5, configured 300"):
        load_embeddings(vectors, vocab, Rng(1), 300, tmp_path)


def _vocab_of(tokens) -> Vocab:
    return build_vocab([Sample("again", list(tokens) + [MARKER], ["X"] * len(tokens)
                               + [MARKER], "2")])


def _no_parse(path):
    raise AssertionError(f"{path} was parsed, but the cache should have served it")


def test_a_cache_hit_gives_the_table_of_a_miss_without_parsing(data_dir, tmp_path,
                                                               monkeypatch):
    vocab = _vocab_of(["go", "we", "park", "mystery", "again"])
    other = _vocab_of(["plays", "the", "unseen"])
    vectors = data_dir / "tiny_vectors.txt"
    miss = load_embeddings(vectors, vocab, Rng(3), 5, tmp_path / "cache")
    other_miss = load_embeddings(vectors, other, Rng(4), 5, tmp_path / "fresh")
    monkeypatch.setattr(vocab_module, "parse_vector_file", _no_parse)
    hit = load_embeddings(vectors, vocab, Rng(3), 5, tmp_path / "cache")
    assert hit.tobytes() == miss.tobytes()
    # the cache holds every row of the file, so another vocabulary hits too
    other_hit = load_embeddings(vectors, other, Rng(4), 5, tmp_path / "cache")
    assert other_hit.tobytes() == other_miss.tobytes()


# A hit hashes the file in 1 MB chunks and reads the cache's header (one
# token per file row), then only the vocabulary's rows. Converting every row
# of the file, as a miss does, holds ROWS * DIM floats: four times the bound.
ROWS, DIM, HIT_PEAK_BYTES = 20_000, 100, 4_000_000


def test_a_cache_hit_costs_the_vocabulary_not_the_file(tmp_path, monkeypatch):
    assert ROWS * DIM * 8 >= 4 * HIT_PEAK_BYTES
    vectors = tmp_path / "vectors.txt"
    values = " ".join(["0.5"] * DIM)
    vectors.write_text("".join(f"w{i} {values}\n" for i in range(ROWS)), encoding="utf-8")
    vocab = _vocab_of([f"w{i}" for i in range(0, ROWS, 1000)])  # 20 of the 20,000 rows
    miss = load_embeddings(vectors, vocab, Rng(2), DIM, tmp_path / "cache")
    monkeypatch.setattr(vocab_module, "parse_vector_file", _no_parse)
    tracemalloc.start()
    try:
        hit = load_embeddings(vectors, vocab, Rng(2), DIM, tmp_path / "cache")
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert hit.tobytes() == miss.tobytes()
    assert peak < HIT_PEAK_BYTES


def test_the_cache_is_keyed_on_content_not_on_size_or_mtime(data_dir, tmp_path):
    vectors = tmp_path / "vectors.txt"
    text = (data_dir / "tiny_vectors.txt").read_text()
    vectors.write_text(text)
    vocab = _vocab_of(["go"])
    before = load_embeddings(vectors, vocab, Rng(1), 5, tmp_path / "cache")
    stat = vectors.stat()
    vectors.write_text(text.replace("go 0.10", "go 0.90"))  # same size
    os.utime(vectors, ns=(stat.st_atime_ns, stat.st_mtime_ns))
    assert vectors.stat().st_size == stat.st_size
    assert vectors.stat().st_mtime_ns == stat.st_mtime_ns
    after = load_embeddings(vectors, vocab, Rng(1), 5, tmp_path / "cache")
    assert before[vocab.token_to_id["go"]][0] == 0.1
    assert after[vocab.token_to_id["go"]][0] == 0.9


def _truncate(raw: bytes) -> bytes:
    return raw[:-8]


def _garbage(raw: bytes) -> bytes:
    return bytes(range(256)) * 4


def _header_only(raw: bytes) -> bytes:
    return raw[:raw.index(b"\n") // 2]


def _other_format(raw: bytes) -> bytes:
    return raw.replace(vocab_module.CACHE_FORMAT.encode(), b"presup-vectors-v0", 1)


def _other_digest(raw: bytes) -> bytes:
    return raw.replace(b'"sha256":"', b'"sha256":"0', 1)


@pytest.mark.parametrize("damage", [_truncate, _garbage, _header_only, _other_format,
                                    _other_digest])
def test_a_damaged_cache_is_rebuilt_and_never_used(damage, data_dir, tmp_path,
                                                   monkeypatch):
    vocab = _vocab_of(["go", "we", "mystery"])
    vectors = data_dir / "tiny_vectors.txt"
    expected = load_embeddings(vectors, vocab, Rng(5), 5, tmp_path)
    cache = tmp_path / "vectors.bin"
    good = cache.read_bytes()
    cache.write_bytes(damage(good))
    parsed = []
    monkeypatch.setattr(vocab_module, "parse_vector_file",
                        lambda path: parsed.append(path) or parse_vector_file(path))
    table = load_embeddings(vectors, vocab, Rng(5), 5, tmp_path)
    assert parsed == [vectors]
    assert table.tobytes() == expected.tobytes()
    assert cache.read_bytes() == good
    assert sorted(p.name for p in tmp_path.iterdir()) == ["vectors.bin"]


def test_a_repeated_token_keeps_its_first_position_and_last_values(tmp_path):
    vectors = tmp_path / "vectors.txt"
    vectors.write_text("a 1 2\nb 3 4\na 5 6\n")
    parsed, _ = parse_vector_file(vectors)
    assert list(parsed) == ["a", "b"]
    vocab = _vocab_of(["b", "a", "mystery"])
    miss = load_embeddings(vectors, vocab, Rng(6), 2, tmp_path / "cache")
    hit = load_embeddings(vectors, vocab, Rng(6), 2, tmp_path / "cache")
    assert miss.tobytes() == hit.tobytes()
    np.testing.assert_array_equal(hit[vocab.token_to_id["a"]], [5.0, 6.0])
    header = json.loads((tmp_path / "cache" / "vectors.bin").read_bytes().split(b"\n")[0])
    assert header["tokens"] == ["a", "b"]


def test_a_bad_vector_file_is_never_cached(tmp_path):
    vectors = tmp_path / "vectors.txt"
    vectors.write_text("a 1 2\nb 3 nan\n")
    with pytest.raises(ParseError, match="line 2"):
        load_embeddings(vectors, _vocab_of(["a"]), Rng(1), 2, tmp_path / "cache")
    assert not (tmp_path / "cache").exists()


class _FullDisk:
    def astype(self, *args, **kwargs):
        raise OSError(28, "No space left on device")


def test_a_failed_cache_write_leaves_no_file(tmp_path, monkeypatch):
    vectors = tmp_path / "vectors.txt"
    vectors.write_text("a 1 2\n")
    # the first row is written, the second one fails
    monkeypatch.setattr(vocab_module, "parse_vector_file",
                        lambda path: ({"a": np.ones(2), "b": _FullDisk()}, 2))
    with pytest.raises(OSError, match="No space"):
        load_embeddings(vectors, _vocab_of(["a"]), Rng(1), 2, tmp_path / "cache")
    assert list((tmp_path / "cache").iterdir()) == []


def test_build_embedding_table_without_file():
    vocab = build_vocab(_samples())
    table = build_embedding_table(vocab, Rng(2), dim=7)
    assert isinstance(table, np.ndarray) and table.dtype == np.float64
    assert table.shape == (len(vocab), 7)
    np.testing.assert_array_equal(table[vocab.token_to_id[PAD]], np.zeros(7))


def test_vocab_rejects_duplicates():
    from presup.vocab import Vocab
    with pytest.raises(UsageError):
        Vocab(tokens=["a", "a", MARKER, UNK, PAD], pos_tags=[MARKER, UNK, PAD])
