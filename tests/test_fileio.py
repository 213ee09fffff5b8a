import os

import pytest

from presup.checkpoint import load_checkpoint, save_checkpoint
from presup.extraction import MARKER, Sample, read_samples, write_samples
from presup.fileio import atomic_write
from presup.models import MfcModel

SAMPLE = Sample("again", ["we", MARKER, "go"], ["PRP", MARKER, "VB"], "2")


def test_atomic_write_replaces_the_file(tmp_path):
    path = tmp_path / "report.json"
    path.write_text("old\n", encoding="utf-8")
    atomic_write(path, lambda f: f.write("new\n"))
    assert path.read_text(encoding="utf-8") == "new\n"
    assert os.listdir(tmp_path) == ["report.json"]


def test_writer_that_raises_leaves_the_old_file(tmp_path):
    path = tmp_path / "train.jsonl"
    write_samples(path, [SAMPLE] * 3)
    old = path.read_bytes()

    def half_then_fail(f):
        f.write('{"label": "again", "tok')
        raise RuntimeError("disk gone")

    with pytest.raises(RuntimeError, match="disk gone"):
        atomic_write(path, half_then_fail)

    def samples():  # the real writer, interrupted after two records
        yield SAMPLE
        yield SAMPLE
        raise KeyboardInterrupt

    with pytest.raises(KeyboardInterrupt):
        write_samples(path, samples())
    assert path.read_bytes() == old
    assert os.listdir(tmp_path) == ["train.jsonl"]
    assert read_samples(path) == [SAMPLE] * 3


def test_checkpoint_is_fsynced_before_it_replaces_the_old_file(tmp_path, monkeypatch):
    path = tmp_path / "mfc.json"
    path.write_text("old\n", encoding="utf-8")
    seen = []
    fsync = os.fsync

    def spy(fd):
        seen.append(path.read_text(encoding="utf-8"))
        fsync(fd)

    monkeypatch.setattr(os, "fsync", spy)
    model = MfcModel()
    model.fit([SAMPLE])
    save_checkpoint(path, model, "all")
    assert seen == ["old\n"]
    assert load_checkpoint(path)[0].majority == 1
