"""The benchmark's tracer (perfbench/tracing.py) on a tiny traced run:
extract, train WP and eval the fixture corpus with the tracer installed.
A traced run that breaks, records nothing, or leaves presup patched fails
here, not first in a benchmark run."""

import importlib.util
import json
import sys
from pathlib import Path

import presup.cli
from presup.cli import main

TRACING = Path(__file__).resolve().parent.parent / "perfbench" / "tracing.py"


def _load_tracing():
    spec = importlib.util.spec_from_file_location("perfbench_tracing_run", TRACING)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def _presup_callables() -> dict:
    """Every callable bound in a presup module or in a presup class's own
    namespace, keyed by where it is bound."""
    found = {}
    for name, module in list(sys.modules.items()):
        if module is None or not name.startswith("presup"):
            continue
        for key, value in vars(module).items():
            if callable(value):
                found[(name, key)] = value
            if isinstance(value, type) and value.__module__ == name:
                for attr, member in vars(value).items():
                    if callable(member):
                        found[(name, key, attr)] = member
    return found


def test_a_traced_extract_train_eval_records_every_layer(tmp_path, corpus_path, data_dir):
    assert presup.cli.main is main  # every presup module is loaded
    before = _presup_callables()
    cfg = tmp_path / "config.json"
    cfg.write_text(json.dumps({"paths": {"corpus": str(corpus_path)},
                               "extraction": {"test_sections": ["22"], "dev_fraction": 0.3}}))
    out = tmp_path / "out"
    tracer = _load_tracing().Tracer()
    tracer.install()
    try:
        assert main(["extract", "--config", str(cfg), "--seed", "42", "--out", str(out)]) == 0
        assert main(["train", "--config", str(cfg), "--seed", "7", "--out", str(out),
                     "--set", 'model.variant="wp"', "--set", "model.hidden_size=3",
                     "--set", "model.embed_dim=5", "--set", "model.dense_units=3",
                     "--set", "train.max_epochs=1", "--set", "train.batch_size=4",
                     "--set", f'paths.embeddings="{data_dir / "tiny_vectors.txt"}"']) == 0
        assert main(["eval", "--checkpoint", str(out / "checkpoints" / "wp_all.json"),
                     "--data", str(out / "datasets" / "all" / "test.jsonl"),
                     "--out", str(out)]) == 0
    finally:
        tracer.uninstall()
    names = {span[0] for span in tracer.spans}
    assert tracer.counts["models.lstm_timesteps"] > 0
    assert {"models.lstm_bptt", "tensor.backward", "checkpoint.save_checkpoint"} <= names
    assert tracer.tape_nodes
    after = _presup_callables()
    assert after.keys() == before.keys()
    assert [key for key, fn in before.items() if after[key] is not fn] == []
