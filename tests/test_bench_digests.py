"""The benchmark (perfbench/) fails any run whose extraction outputs no
longer hash to the digest recorded in perfbench/reference.json, or whose
epoch-1 training loss moves from the recorded one by more than
pipeline.LOSS_TOLERANCE. This runs the same inputs through ``presup
extract`` (first three seeds of each workload) and ``presup train`` (one
epoch of each neural variant, first two seeds of paper and synth), so a
change to any mined sample, statistic or training numerics fails here
first. perfbench/ is only read."""

import importlib
import json
import sys
from pathlib import Path

import pytest

from presup.cli import main

PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"


@pytest.fixture(scope="module")
def pipeline():
    # perfbench's modules import each other by bare name; no bytecode is
    # cached next to them
    sys.path.insert(0, str(PERFBENCH))
    saved = sys.dont_write_bytecode
    sys.dont_write_bytecode = True
    try:
        return importlib.import_module("pipeline")
    finally:
        sys.dont_write_bytecode = saved
        sys.path.remove(str(PERFBENCH))


@pytest.mark.parametrize("seed", [1, 2, 3])
@pytest.mark.parametrize("workload", ["paper", "synth", "extract"])
def test_extract_digest_matches_reference(pipeline, tmp_path, workload, seed):
    pipeline.WORKLOADS[workload].write_inputs(tmp_path, seed)
    out = tmp_path / "out"
    assert main(["extract", "--config", str(tmp_path / "config.json"),
                 "--seed", str(seed), "--out", str(out)]) == 0
    expected = pipeline.load_reference(workload, seed)["extract_digest"]
    assert pipeline.tree_digest(out) == expected


@pytest.mark.parametrize("seed", [1, 2])
@pytest.mark.parametrize("workload", ["paper", "synth"])
def test_epoch1_losses_match_reference(pipeline, tmp_path, workload, seed):
    w = pipeline.WORKLOADS[workload]
    w.write_inputs(tmp_path, seed)
    cfg, out = str(tmp_path / "config.json"), str(tmp_path / "out")
    assert main(["extract", "--config", cfg, "--seed", str(seed), "--out", out]) == 0
    reference = pipeline.load_reference(workload, seed)
    for variant in ("wp", "cnn") if workload == "paper" else ("wp",):
        assert main(["train", "--config", cfg, "--seed", str(seed), "--out", out,
                     "--set", f"model.variant={variant}", "--set", "train.max_epochs=1"]) == 0
        history = tmp_path / "out" / "reports" / f"history_{variant}_all.jsonl"
        loss = json.loads(history.read_text().splitlines()[0])["train_loss"]
        expected = reference[f"epoch1_loss_{variant}"]
        assert abs(loss - expected) <= pipeline.LOSS_TOLERANCE, (variant, loss, expected)
