import numpy as np
import pytest

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
    assert vocab.id_of("a") == 0
    assert vocab.id_of("never-seen") == vocab.unk_id
    assert vocab.marker_id == 4
    assert vocab.pad_id == len(vocab) - 1
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
    assert vocab.token_ids([UNK, PAD]) == [vocab.unk_id, vocab.pad_id]
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
    vectors, _ = parse_vector_file(path)
    np.testing.assert_array_equal(vectors["b"], [3.0, expected])
    assert np.signbit(vectors["b"][1]) == np.signbit(expected)


def test_load_embeddings_mixes_known_and_random(data_dir):
    samples = [Sample("again", ["go", "mystery", MARKER, "park"],
                      ["V", "N", MARKER, "N"], "2")]
    vocab = build_vocab(samples)
    table = load_embeddings(data_dir / "tiny_vectors.txt", vocab, Rng(1), dim=5)
    assert table.shape == (len(vocab), 5)
    np.testing.assert_allclose(table[vocab.id_of("go")],
                               [0.1, -0.2, 0.3, 0.0, 0.5])
    unknown_row = table[vocab.id_of("mystery")]
    assert np.all(np.abs(unknown_row) <= 0.05)
    assert np.any(unknown_row != 0.0)
    np.testing.assert_array_equal(table[vocab.pad_id], np.zeros(5))
    # unknown-row fill is a pure function of the seed
    again = load_embeddings(data_dir / "tiny_vectors.txt", vocab, Rng(1), dim=5)
    np.testing.assert_array_equal(table, again)


def test_load_embeddings_dimension_mismatch(data_dir):
    vocab = build_vocab(_samples())
    with pytest.raises(UsageError, match="dimension"):
        load_embeddings(data_dir / "tiny_vectors.txt", vocab, Rng(1), dim=300)


def test_build_embedding_table_without_file():
    vocab = build_vocab(_samples())
    table = build_embedding_table(vocab, Rng(2), dim=7)
    assert isinstance(table, np.ndarray) and table.dtype == np.float64
    assert table.shape == (len(vocab), 7)
    np.testing.assert_array_equal(table[vocab.pad_id], np.zeros(7))


def test_vocab_rejects_duplicates():
    from presup.vocab import Vocab
    with pytest.raises(UsageError):
        Vocab(tokens=["a", "a", MARKER, UNK, PAD], pos_tags=[MARKER, UNK, PAD])
