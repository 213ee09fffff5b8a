import errno
import json
import os
import shutil
import subprocess
import sys
import tracemalloc
from pathlib import Path

import pytest
from hypothesis import given
from hypothesis import strategies as st

from presup.checkpoint import save_checkpoint
from presup.cli import main
from presup.config import ModelConfig, apply_overrides
from presup.errors import UsageError
from presup.extraction import MARKER, Sample, write_samples
from presup.models import VARIANTS
from presup.rng import Rng
from presup.vocab import build_vocab


def _write_config(tmp_path: Path, corpus_path: Path, dev_fraction=0.1,
                  **extra) -> Path:
    doc = {"paths": {"corpus": str(corpus_path)},
           "extraction": {"test_sections": ["22"],
                          "dev_fraction": dev_fraction}}
    doc.update(extra)
    path = tmp_path / "config.json"
    path.write_text(json.dumps(doc))
    return path


def _extract(tmp_path, corpus_path, out_name="out", seed="42"):
    cfg = _write_config(tmp_path, corpus_path)
    out = tmp_path / out_name
    rc = main(["extract", "--config", str(cfg), "--seed", seed,
               "--out", str(out)])
    assert rc == 0
    return cfg, out


def test_extract_writes_datasets_and_stats(tmp_path, corpus_path, capsys):
    _, out = _extract(tmp_path, corpus_path)
    for name in ("again", "also", "still", "too", "yet", "all"):
        for split in ("train", "dev", "test"):
            assert (out / "datasets" / name / f"{split}.jsonl").exists()
    stats = json.loads((out / "stats" / "extraction.json").read_text())
    assert stats["per_adverb"]["again"]["positives"] == 4
    assert stats["splits"]["all"]["test"]["total"] == 2
    assert "extracted 15 samples" in capsys.readouterr().out


def test_extract_same_seed_same_bytes(tmp_path, corpus_path):
    _, out1 = _extract(tmp_path, corpus_path, "out1")
    _, out2 = _extract(tmp_path, corpus_path, "out2")
    files1 = sorted(p.relative_to(out1) for p in out1.rglob("*") if p.is_file())
    files2 = sorted(p.relative_to(out2) for p in out2.rglob("*") if p.is_file())
    assert files1 == files2
    for rel in files1:
        assert (out1 / rel).read_bytes() == (out2 / rel).read_bytes()


def test_extract_set_override_changes_output(tmp_path, corpus_path):
    cfg = _write_config(tmp_path, corpus_path)
    out = tmp_path / "narrow"
    rc = main(["extract", "--config", str(cfg), "--seed", "42",
               "--out", str(out), "--set", "extraction.window_before=1"])
    assert rc == 0
    rows = [json.loads(line) for line in
            (out / "datasets" / "again" / "train.jsonl").read_text().splitlines()]
    # a one-token backward window keeps at most one token before the marker
    for row in rows:
        assert row["tokens"].index("@@@@") <= 1


_JSON = st.recursive(st.none() | st.booleans() | st.integers() | st.text(max_size=5),
                     lambda inner: st.lists(inner, max_size=3)
                     | st.dictionaries(st.text(max_size=3), inner, max_size=3),
                     max_leaves=6)
_KEY = st.lists(st.text("abcxyz_", min_size=1, max_size=3), min_size=1, max_size=3)


def _get(d, parts):
    for part in parts:
        d = d[part]
    return d


@given(st.lists(st.tuples(_KEY, _JSON), max_size=5))
def test_apply_overrides_sets_json_values_and_leaves_other_keys(items):
    d, kept = {}, []
    for parts, value in items:
        try:
            apply_overrides(d, [".".join(parts) + "=" + json.dumps(value)])
        except UsageError:  # an earlier override made a prefix a non-object
            continue
        n = len(parts)
        # a key that this one extends, or that extends it, has been replaced
        kept = [(k, v) for k, v in kept if k[:n] != parts and parts[:len(k)] != k]
        kept.append((parts, value))
        for k, v in kept:
            assert _get(d, k) == v


@given(st.text(min_size=1).filter(lambda raw: not _is_json(raw)))
def test_apply_overrides_keeps_non_json_values_as_strings(raw):
    assert apply_overrides({"a": {"b": 1}}, ["a.c=" + raw]) == {"a": {"b": 1, "c": raw}}


def _is_json(raw: str) -> bool:
    try:
        json.loads(raw)
    except json.JSONDecodeError:
        return False
    return True


def test_extract_usage_errors(tmp_path, corpus_path):
    missing = _write_config(tmp_path, tmp_path / "nope.txt")
    assert main(["extract", "--config", str(missing),
                 "--out", str(tmp_path / "o")]) == 2
    assert main(["extract", "--out", str(tmp_path / "o")]) == 2  # no corpus path
    bad = tmp_path / "bad.json"
    bad.write_text("{not json")
    assert main(["extract", "--config", str(bad),
                 "--out", str(tmp_path / "o")]) == 2


def test_extract_parse_error_exit_code(tmp_path):
    corrupt = tmp_path / "corrupt.txt"
    corrupt.write_text("#doc d 1\nword\tNN\n")
    cfg = _write_config(tmp_path, corrupt)
    assert main(["extract", "--config", str(cfg),
                 "--out", str(tmp_path / "o")]) == 2


def test_extract_parse_error_names_the_corpus_and_line(tmp_path, capsys):
    corrupt = tmp_path / "corrupt.txt"
    corrupt.write_text("#doc d 1\nword\tNN\t0\n\nword\tNN\n")
    cfg = _write_config(tmp_path, corrupt)
    assert main(["extract", "--config", str(cfg), "--out", str(tmp_path / "o")]) == 2
    assert f"error: {corrupt}: line 4: expected 3 tab-separated fields, got 2" \
        in capsys.readouterr().err


@pytest.mark.parametrize("newline", [b"\n", b"\r\n"])
def test_extract_rejects_a_corpus_that_is_not_utf8(tmp_path, corpus_path, capsys, newline):
    corpus = tmp_path / "latin1.txt"
    lines = corpus_path.read_bytes().splitlines()
    lines[2] = lines[2].replace(b"will", b"w\xffll")
    corpus.write_bytes(newline.join(lines) + newline)
    cfg = _write_config(tmp_path, corpus)
    assert main(["extract", "--config", str(cfg), "--out", str(tmp_path / "o")]) == 2
    assert f"error: {corpus}: line 3: not valid UTF-8 (byte 0xff)" in capsys.readouterr().err
    assert not (tmp_path / "o").exists()


def test_config_that_is_not_utf8_names_the_file_and_line(tmp_path, capsys):
    cfg = tmp_path / "latin1.json"
    cfg.write_bytes(b'{"paths": {"corpus": "\xff"}}\n')
    assert main(["extract", "--config", str(cfg), "--out", str(tmp_path / "o")]) == 2
    assert f"error: {cfg}: line 1: not valid UTF-8 (byte 0xff)" in capsys.readouterr().err


DEEP = "[" * 200_000  # deeper than the JSON decoder's recursion limit


def test_deeply_nested_config_is_a_usage_error(tmp_path, capsys):
    cfg = tmp_path / "deep.json"
    cfg.write_text(DEEP)
    assert main(["extract", "--config", str(cfg), "--out", str(tmp_path / "o")]) == 2
    assert f"error: config {cfg}: invalid JSON (" in capsys.readouterr().err


def test_deeply_nested_set_value_is_a_plain_string(tmp_path, corpus_path, capsys):
    cfg = _write_config(tmp_path, corpus_path)
    assert main(["train", "--config", str(cfg), "--out", str(tmp_path / "o"),
                 "--set", f"model.variant={DEEP}"]) == 2
    assert "error: unknown model variant '[[[" in capsys.readouterr().err


@pytest.fixture
def extracted(tmp_path, corpus_path):
    # a generous dev fraction keeps the small per-adverb dev splits nonempty
    cfg = _write_config(tmp_path, corpus_path, dev_fraction=0.3)
    out = tmp_path / "out"
    assert main(["extract", "--config", str(cfg), "--seed", "42",
                 "--out", str(out)]) == 0
    return cfg, out


def _train(cfg, out, *overrides):
    args = ["train", "--config", str(cfg), "--seed", "7", "--out", str(out)]
    for item in overrides:
        args += ["--set", item]
    return main(args)


def test_train_eval_compare_mfc_and_logreg(extracted, capsys):
    cfg, out = extracted
    assert _train(cfg, out, 'model.variant="mfc"') == 0
    assert _train(cfg, out, 'model.variant="logreg"') == 0
    mfc_ckpt = out / "checkpoints" / "mfc_all.json"
    logreg_ckpt = out / "checkpoints" / "logreg_all.json"
    assert mfc_ckpt.exists() and logreg_ckpt.exists()
    test_file = out / "datasets" / "all" / "test.jsonl"

    assert main(["eval", "--checkpoint", str(mfc_ckpt),
                 "--data", str(test_file), "--out", str(out)]) == 0
    report = json.loads(
        (out / "reports" / "eval_mfc_all_test.json").read_text())
    assert set(report["confusion"]) == {"tn", "fp", "fn", "tp"}
    assert 0.0 <= report["accuracy"] <= 1.0
    assert report["n_positive"] + report["n_negative"] == 2

    assert main(["compare", "--checkpoint-a", str(mfc_ckpt),
                 "--checkpoint-b", str(logreg_ckpt),
                 "--data", str(test_file), "--out", str(out)]) == 0
    doc = json.loads(
        (out / "reports" / "compare_mfc_all_vs_logreg_all.json").read_text())
    assert doc["n"] == 2
    assert set(doc["contingency"]) == {"a_both_correct", "b_a_only",
                                       "c_b_only", "d_both_wrong"}
    assert "chi2" in doc["mcnemar"] and "verdict" in doc
    assert "chi2=" in capsys.readouterr().out


def test_train_neural_writes_checkpoint_and_history(extracted, data_dir):
    cfg, out = extracted
    rc = _train(cfg, out,
                'model.variant="wp"', "model.hidden_size=3",
                "model.embed_dim=5", "model.dense_units=3",
                'train.dataset="again"', "train.max_epochs=2",
                "train.patience=1", "train.batch_size=2",
                f'paths.embeddings="{data_dir / "tiny_vectors.txt"}"')
    assert rc == 0
    ckpt = out / "checkpoints" / "wp_again.json"
    assert ckpt.exists()
    history = (out / "reports" / "history_wp_again.jsonl").read_text()
    records = [json.loads(line) for line in history.splitlines()]
    assert records and set(records[0]) == {"epoch", "train_loss", "dev_accuracy"}

    test_file = out / "datasets" / "again" / "test.jsonl"
    assert main(["eval", "--checkpoint", str(ckpt),
                 "--data", str(test_file), "--out", str(out)]) == 0


def test_compare_rejects_mismatched_datasets(extracted, tmp_path):
    cfg, out = extracted
    assert _train(cfg, out, 'model.variant="mfc"') == 0
    assert _train(cfg, out, 'model.variant="mfc"', 'train.dataset="again"') == 0
    rc = main(["compare",
               "--checkpoint-a", str(out / "checkpoints" / "mfc_all.json"),
               "--checkpoint-b", str(out / "checkpoints" / "mfc_again.json"),
               "--data", str(out / "datasets" / "all" / "test.jsonl"),
               "--out", str(out)])
    assert rc == 2


def test_eval_missing_checkpoint_is_usage_error(extracted):
    cfg, out = extracted
    rc = main(["eval", "--checkpoint", str(out / "checkpoints" / "ghost.json"),
               "--data", str(out / "datasets" / "all" / "test.jsonl"),
               "--out", str(out)])
    assert rc == 2


LONG = 5000  # characters: past every file system's name limit


@pytest.mark.parametrize("path, message", [
    (".", "Is a directory"),
    ("file/x", "Not a directory"),  # a path that runs through a file
    ("b" * LONG, "File name too long"),
], ids=["directory", "through_a_file", "too_long"])
def test_eval_checkpoint_path_that_cannot_be_a_file_is_usage_error(path, message, tmp_path,
                                                                   capsys):
    (tmp_path / "file").write_text("")
    checkpoint = str(tmp_path / path)
    rc = main(["eval", "--checkpoint", checkpoint, "--data", str(tmp_path / "x.jsonl"),
               "--out", str(tmp_path / "o")])
    assert rc == 2
    err = capsys.readouterr().err
    assert message in err and checkpoint in err


def test_extract_config_that_is_a_directory_is_usage_error(tmp_path, capsys):
    assert main(["extract", "--config", str(tmp_path), "--out", str(tmp_path / "o")]) == 2
    err = capsys.readouterr().err
    assert "Is a directory" in err and str(tmp_path) in err


def test_extract_overlong_corpus_path_is_usage_error(tmp_path, capsys):
    assert main(["extract", "--set", f"paths.corpus={'a' * LONG}",
                 "--out", str(tmp_path / "o")]) == 2
    err = capsys.readouterr().err
    assert "File name too long" in err and "a" * LONG in err
    assert not (tmp_path / "o").exists()


def test_failed_report_write_is_a_runtime_failure(extracted, monkeypatch, capsys):
    cfg, out = extracted
    assert _train(cfg, out, 'model.variant="mfc"') == 0

    def disk_full(path, write_fn):
        raise OSError(errno.ENOSPC, os.strerror(errno.ENOSPC), str(path))

    monkeypatch.setattr("presup.cli.atomic_write", disk_full)
    rc = main(["eval", "--checkpoint", str(out / "checkpoints" / "mfc_all.json"),
               "--data", str(out / "datasets" / "all" / "test.jsonl"), "--out", str(out)])
    assert rc == 1
    assert "error: OSError: [Errno 28] No space left on device" in capsys.readouterr().err


def test_train_missing_dataset_is_usage_error(tmp_path, corpus_path):
    cfg = _write_config(tmp_path, corpus_path)
    rc = main(["train", "--config", str(cfg), "--out", str(tmp_path / "void"),
               "--set", 'model.variant="mfc"'])
    assert rc == 2


def test_unknown_config_key_is_usage_error(tmp_path, corpus_path):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"paths": {"corpus": str(corpus_path)},
                               "surprise": 1}))
    assert main(["extract", "--config", str(cfg),
                 "--out", str(tmp_path / "o")]) == 2


def test_train_rejects_empty_split_before_writing(tmp_path, corpus_path, capsys):
    cfg, out = _extract(tmp_path, corpus_path)
    assert (out / "datasets" / "again" / "dev.jsonl").read_text() == ""
    assert _train(cfg, out, 'model.variant="logreg"', 'train.dataset="again"') == 2
    assert "again/dev.jsonl" in capsys.readouterr().err
    assert not (out / "checkpoints").exists()


def test_extract_warns_about_each_empty_split(tmp_path, corpus_path, caplog):
    with caplog.at_level("WARNING", logger="presup.cli"):
        _, out = _extract(tmp_path, corpus_path)
    warned = {(r.args[0], r.args[1]) for r in caplog.records if r.name == "presup.cli"}
    empty = {(path.parent.name, path.stem)
             for path in (out / "datasets").glob("*/*.jsonl") if path.stat().st_size == 0}
    assert ("again", "dev") in empty and ("all", "dev") not in empty
    assert warned == empty
    assert "dataset again: empty dev split" in caplog.text


@pytest.mark.parametrize("override, field", [
    ("model.cnn_widths=[70]", "cnn_widths"),
    ("model.cnn_widths=[0]", "cnn_widths"),
    ("model.cnn_widths=[]", "cnn_widths"),
    ("model.cnn_widths=[2.5]", "cnn_widths"),
    ("model.cnn_widths=[true]", "cnn_widths"),
    ("model.hidden_size=0", "hidden_size"),
    ("model.hidden_size=2.5", "hidden_size"),
    ("model.embed_dim=0", "embed_dim"),
    ("model.pos_dim=0", "pos_dim"),
    ("model.dense_units=0", "dense_units"),
    ("model.cnn_maps=0", "cnn_maps"),
    ("model.max_len=0", "max_len"),
    ("model.logreg_epochs=-1", "logreg_epochs"),
    ("model.logreg_lr=-1", "logreg_lr"),
    ("model.logreg_lr=0", "logreg_lr"),
    ("model.logreg_lr=NaN", "logreg_lr"),
    ("model.logreg_lr=Infinity", "logreg_lr"),
    ("model.logreg_l2=-5", "logreg_l2"),
    ("model.logreg_l2=NaN", "logreg_l2"),
    ("model.logreg_l2=Infinity", "logreg_l2"),
    ("train.lr=-1", "lr"),
    ("train.lr=0", "lr"),
    ("train.lr=Infinity", "lr"),
    ("train.max_epochs=0", "max_epochs"),
    ("train.max_epochs=1.5", "max_epochs"),
    ("train.batch_size=8.5", "batch_size"),
    ("extraction.window_before=2.5", "window_before"),
    ("extraction.max_len=10.5", "max_len"),
    ("train.clip_lo=2", "clip_lo"),
])
def test_train_rejects_bad_sizes_before_training(extracted, capsys, override, field):
    cfg, out = extracted
    capsys.readouterr()
    assert _train(cfg, out, 'model.variant="cnn"', override) == 2
    assert f"error: {field} must be" in capsys.readouterr().err
    assert not (out / "checkpoints").exists()


@pytest.mark.parametrize("override, field", [
    ("extraction.window_before=2.5", "window_before"),
    ("extraction.window_before=true", "window_before"),
    ("extraction.max_len=10.5", "max_len"),
])
def test_extract_rejects_bad_sizes_before_reading(tmp_path, corpus_path, capsys,
                                                  override, field):
    cfg = _write_config(tmp_path, corpus_path)
    out = tmp_path / "out"
    rc = main(["extract", "--config", str(cfg), "--seed", "42",
               "--out", str(out), "--set", override])
    assert rc == 2
    assert f"error: {field} must be" in capsys.readouterr().err
    assert not out.exists()


def test_eval_rejects_malformed_sample_with_line_number(extracted, capsys):
    cfg, out = extracted
    assert _train(cfg, out, 'model.variant="mfc"') == 0
    ckpt = out / "checkpoints" / "mfc_all.json"
    good = {"label": "again", "tokens": ["a", "@@@@", "b"],
            "pos": ["x", "@@@@", "y"], "section": "2"}
    bad = {
        "no marker": dict(good, tokens=["a", "c", "b"], pos=["x", "z", "y"]),
        "misaligned": dict(good, pos=["@@@@", "x", "y"]),
        "no governor": dict(good, tokens=["a", "b", "@@@@"], pos=["x", "y", "@@@@"]),
    }
    for name, record in bad.items():
        data = out / f"{name.replace(' ', '_')}.jsonl"
        data.write_text(json.dumps(good) + "\n" + json.dumps(record) + "\n")
        capsys.readouterr()
        rc = main(["eval", "--checkpoint", str(ckpt), "--data", str(data),
                   "--out", str(out)])
        assert rc == 2, name
        assert "line 2:" in capsys.readouterr().err, name


@pytest.mark.parametrize("variant", ["wp", "lstm"])
def test_eval_rejects_overlong_sample_before_attention(tmp_path, capsys, variant):
    n = 5_000
    samples = [Sample("again", ["we", MARKER, "go", "home"], ["PRP", MARKER, "VB", "NN"], "0")]
    cfg = ModelConfig(variant=variant, hidden_size=3, embed_dim=4, dense_units=3)
    vocab = build_vocab(samples)
    rng = Rng(3)
    model = VARIANTS[variant](cfg, vocab, rng.uniform(-0.5, 0.5, (len(vocab.tokens), 4)),
                              rng=rng)
    ckpt = tmp_path / f"{variant}.json"
    save_checkpoint(ckpt, model, "all")
    data = tmp_path / "long.jsonl"
    write_samples(data, [Sample("none", ["we", MARKER] + ["go"] * (n - 2),
                                ["PRP", MARKER] + ["VB"] * (n - 2), "0")], {})
    tracemalloc.start()
    try:
        rc = main(["eval", "--checkpoint", str(ckpt), "--data", str(data),
                   "--out", str(tmp_path)])
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert rc == 2
    assert f"longer than model.max_len={cfg.max_len}" in capsys.readouterr().err
    assert peak < n * n * 8 / 100  # one (T, T) float64 array is 200 MB


def _extract_exit(tmp_path, corpus_path, capsys, override):
    """(exit code, stderr) of an extract with one --set override."""
    cfg = _write_config(tmp_path, corpus_path)
    capsys.readouterr()
    rc = main(["extract", "--config", str(cfg), "--out", str(tmp_path / "out"),
               "--set", override])
    return rc, capsys.readouterr().err


@pytest.mark.parametrize("override, field", [
    ("extraction.adverbs=again", "adverbs"),  # a bare string, not a list
    ('extraction.adverbs=["again","again"]', "adverbs"),
    ('extraction.adverbs=["Again"]', "adverbs"),
    ("extraction.adverbs=[]", "adverbs"),
    ('extraction.adverbs=["again",5]', "adverbs"),
    ('extraction.adverbs=["none"]', "adverbs"),
    ('extraction.adverbs=["all"]', "adverbs"),
    ('extraction.adverbs=["../../escaped"]', "adverbs"),
    ('extraction.test_sections="23"', "test_sections"),
    ("seed=abc", "seed"),
    ("seed=1.5", "seed"),
    ("seed=true", "seed"),
    ('paths="abc"', "paths"),
    ("paths.corpus=5", "paths"),
], ids=["string-adverbs", "duplicate-adverb", "uppercase-adverb", "no-adverbs",
        "number-adverb", "adverb-none", "adverb-all", "path-adverb", "string-sections",
        "string-seed", "float-seed", "bool-seed", "string-paths", "number-path"])
def test_extract_rejects_badly_typed_fields_before_reading(tmp_path, corpus_path, capsys,
                                                           override, field):
    rc, err = _extract_exit(tmp_path, corpus_path, capsys, override)
    assert rc == 2
    assert f"error: {field} must be" in err
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize("dataset, message", [
    (5, "a non-empty string"), ("", "a non-empty string"), (None, "a non-empty string"),
    ("../../side/ds", "one path component"), ("a/b", "one path component"),
    ("a\\b", "one path component"), (".", "one path component"),
    ("..", "one path component"),
], ids=["number", "empty", "null", "escape", "slash", "backslash", "dot", "dotdot"])
def test_train_rejects_a_dataset_that_is_not_a_name(extracted, capsys, dataset, message):
    cfg, out = extracted
    side = out.parent / "side" / "ds"  # readable splits where datasets/../../side/ds leads
    side.mkdir(parents=True)
    for split in ("train", "dev"):
        shutil.copy(out / "datasets" / "all" / f"{split}.jsonl", side)
    before = sorted(out.parent.rglob("*"))
    capsys.readouterr()
    assert _train(cfg, out, 'model.variant="mfc"', f"train.dataset={json.dumps(dataset)}") == 2
    assert f"error: dataset must be {message}" in capsys.readouterr().err
    assert sorted(out.parent.rglob("*")) == before


def test_extract_names_a_bad_section_spec_before_the_corpus(tmp_path, capsys):
    rc, err = _extract_exit(tmp_path, tmp_path / "missing.txt", capsys,
                            'extraction.test_sections=["1-5","4-8"]')
    assert rc == 2
    assert "test_sections: overlapping ranges 1-5 and 4-8" in err
    assert "missing.txt" not in err


def test_eval_rejects_a_non_string_token_with_line_number(extracted, capsys):
    cfg, out = extracted
    assert _train(cfg, out, 'model.variant="logreg"') == 0
    good = {"label": "again", "tokens": ["a", "@@@@", "go"], "pos": ["x", "@@@@", "V"],
            "section": "2"}
    bad = dict(good, tokens=["a", 5, "@@@@", "go"], pos=["x", "y", "@@@@", "V"])
    data = out / "typed.jsonl"
    data.write_text(json.dumps(good) + "\n" + json.dumps(bad) + "\n")
    capsys.readouterr()
    rc = main(["eval", "--checkpoint", str(out / "checkpoints" / "logreg_all.json"),
               "--data", str(data), "--out", str(out)])
    assert rc == 2
    assert "line 2: field 'tokens' must be a list of strings" in capsys.readouterr().err


def test_eval_rejects_a_sample_file_that_is_not_utf8(extracted, capsys):
    cfg, out = extracted
    assert _train(cfg, out, 'model.variant="logreg"') == 0
    good = (out / "datasets" / "all" / "test.jsonl").read_bytes().splitlines(keepends=True)
    data = out / "latin1.jsonl"
    data.write_bytes(good[0] + good[1].replace(b'"label":"', b'"label":"\xff', 1))
    capsys.readouterr()
    rc = main(["eval", "--checkpoint", str(out / "checkpoints" / "logreg_all.json"),
               "--data", str(data), "--out", str(out)])
    assert rc == 2
    assert f"error: {data}: line 2: not valid UTF-8 (byte 0xff)" in capsys.readouterr().err


def test_eval_rejects_a_deeply_nested_sample_line(extracted, capsys):
    cfg, out = extracted
    assert _train(cfg, out, 'model.variant="mfc"') == 0
    good = (out / "datasets" / "all" / "test.jsonl").read_text().splitlines(keepends=True)
    data = out / "deep.jsonl"
    data.write_text(good[0] + DEEP + "\n")
    capsys.readouterr()
    rc = main(["eval", "--checkpoint", str(out / "checkpoints" / "mfc_all.json"),
               "--data", str(data), "--out", str(out)])
    assert rc == 2
    assert f"error: {data}: line 2: invalid JSON (nested too deeply)" in capsys.readouterr().err


def test_eval_rejects_a_deeply_nested_checkpoint_header(extracted, capsys):
    _, out = extracted
    ckpt = out / "deep.json"
    ckpt.write_text(DEEP + "\n")
    capsys.readouterr()
    rc = main(["eval", "--checkpoint", str(ckpt),
               "--data", str(out / "datasets" / "all" / "test.jsonl"), "--out", str(out)])
    assert rc == 2
    assert f"error: {ckpt}: not valid JSON (" in capsys.readouterr().err


def test_eval_parse_error_names_the_sample_file(extracted, capsys):
    cfg, out = extracted
    assert _train(cfg, out, 'model.variant="mfc"') == 0
    data = out / "cut.jsonl"
    data.write_text((out / "datasets" / "all" / "test.jsonl").read_text()[:-20] + "\n")
    capsys.readouterr()
    rc = main(["eval", "--checkpoint", str(out / "checkpoints" / "mfc_all.json"),
               "--data", str(data), "--out", str(out)])
    assert rc == 2
    assert f"error: {data}: line 2: invalid JSON" in capsys.readouterr().err


_TINY_WP = ('model.variant="wp"', "model.hidden_size=3", "model.embed_dim=5",
            "model.dense_units=3", 'train.dataset="again"', "train.max_epochs=2",
            "train.patience=1", "train.batch_size=2")


def _train_wp(cfg, out, vectors, *overrides):
    return _train(cfg, out, *_TINY_WP, f'paths.embeddings="{vectors}"', *overrides)


@pytest.mark.parametrize("token, value, line", [("park", "nan", 5), ("the", "1e309", 4)])
def test_train_rejects_a_non_finite_vector_value(extracted, data_dir, capsys,
                                                 token, value, line):
    cfg, out = extracted
    vectors = out.parent / "vectors.txt"
    rows = (data_dir / "tiny_vectors.txt").read_text().splitlines(keepends=True)
    assert rows[line - 1].startswith(token + " ")
    values = rows[line - 1].split()
    rows[line - 1] = " ".join([token, value, *values[2:]]) + "\n"
    vectors.write_text("".join(rows))
    capsys.readouterr()
    assert _train_wp(cfg, out, vectors) == 2
    assert f"{vectors}: line {line}: non-finite vector value for {token!r}" \
        in capsys.readouterr().err
    assert not (out / "cache").exists()


def test_train_rejects_a_vector_file_that_is_not_utf8(extracted, data_dir, capsys):
    cfg, out = extracted
    vectors = out.parent / "vectors.txt"
    rows = (data_dir / "tiny_vectors.txt").read_bytes().splitlines(keepends=True)
    rows[3] = b"\xfe" + rows[3]
    vectors.write_bytes(b"".join(rows))
    capsys.readouterr()
    assert _train_wp(cfg, out, vectors) == 2
    assert f"error: {vectors}: line 4: not valid UTF-8 (byte 0xfe)" in capsys.readouterr().err
    assert not (out / "cache").exists()


def test_train_from_the_vector_cache_matches_a_parsed_run(extracted, data_dir,
                                                          monkeypatch):
    cfg, out = extracted
    vectors = out.parent / "vectors.txt"
    shutil.copy(data_dir / "tiny_vectors.txt", vectors)
    before = {p: p.stat().st_mtime_ns for p in out.parent.rglob("*")
              if out not in p.parents and p != out}
    assert _train_wp(cfg, out, vectors) == 0
    assert (out / "cache" / "vectors.bin").exists()
    ckpt = out / "checkpoints" / "wp_again.json"
    history = out / "reports" / "history_wp_again.jsonl"
    parsed = ckpt.read_bytes(), history.read_bytes()

    def no_parse(path):
        raise AssertionError("the cached vectors were not used")
    monkeypatch.setattr("presup.vocab.parse_vector_file", no_parse)
    ckpt.unlink()
    history.unlink()
    assert _train_wp(cfg, out, vectors) == 0
    assert (ckpt.read_bytes(), history.read_bytes()) == parsed
    # nothing outside --out was written, and no temporary file is left in it
    after = {p: p.stat().st_mtime_ns for p in out.parent.rglob("*")
             if out not in p.parents and p != out}
    assert after == before
    assert not [p for p in out.rglob("*") if p.name.endswith(".tmp")]


def test_a_dimension_mismatch_exits_2_from_the_cache_as_from_the_file(extracted,
                                                                      data_dir, capsys):
    cfg, out = extracted
    vectors = data_dir / "tiny_vectors.txt"
    for label in ("miss", "hit"):
        capsys.readouterr()
        assert _train_wp(cfg, out, vectors, "model.embed_dim=4") == 2, label
        assert "has dimension 5, configured 4" in capsys.readouterr().err, label
        assert (out / "cache" / "vectors.bin").exists()


def test_extract_and_wp_train_and_eval_never_load_scipy(tmp_path, corpus_path, data_dir):
    cfg = _write_config(tmp_path, corpus_path, dev_fraction=0.3)
    out = tmp_path / "out"
    script = f"""
import sys
from presup.cli import main
out, cfg = {str(out)!r}, {str(cfg)!r}
assert main(["extract", "--config", cfg, "--seed", "42", "--out", out]) == 0
assert "scipy" not in sys.modules, "extract"
assert main(["train", "--config", cfg, "--seed", "7", "--out", out,
             *[a for s in {list(_TINY_WP)!r} for a in ("--set", s)],
             "--set", 'paths.embeddings="{data_dir / 'tiny_vectors.txt'}"']) == 0
assert "scipy" not in sys.modules, "train"
assert main(["eval", "--out", out, "--checkpoint", out + "/checkpoints/wp_again.json",
             "--data", out + "/datasets/again/test.jsonl"]) == 0
assert "scipy" not in sys.modules, "eval"
"""
    src = Path(__file__).resolve().parent.parent / "src"
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        [str(src)] + [p for p in [os.environ.get("PYTHONPATH")] if p]))
    done = subprocess.run([sys.executable, "-c", script], env=env,
                          capture_output=True, text=True, timeout=120)
    assert done.returncode == 0, done.stderr
