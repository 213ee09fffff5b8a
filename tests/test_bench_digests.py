"""The benchmark (perfbench/) fails any run whose extraction outputs no
longer hash to the digest recorded in perfbench/reference.json. This runs
the same inputs through ``presup extract`` for the first three seeds of each
workload, so a change to any mined sample or statistic fails here first.
perfbench/ is only read."""

import importlib
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
