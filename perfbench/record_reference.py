#!/usr/bin/env python3
"""Record the per-seed reference values that run.py checks.

For each workload and seed this stores the digest of the extraction
outputs and the epoch-1 training loss of every neural model, computed by
the program at the commit this is run on, in ``reference.json``. A run on
a recorded seed fails an operation whose output differs (digests exactly,
losses by more than 1e-9). Run from the repository root::

    python3 perfbench/record_reference.py 1 20          # seeds 1..20, all
    python3 perfbench/record_reference.py 1 20 synth    # one workload
"""

from __future__ import annotations

import json
import shutil
import sys

import run  # pins the BLAS threads before numpy is imported


def main(argv) -> int:
    first, last = int(argv[0]), int(argv[1])
    names = argv[2:] or None
    cli, _ = run.import_program()
    import pipeline
    table = json.loads(pipeline.REFERENCE.read_text()) if pipeline.REFERENCE.exists() else {}
    run.OUT.mkdir(exist_ok=True)
    for name, workload in pipeline.WORKLOADS.items():
        if names and name not in names:
            continue
        for seed in range(first, last + 1):
            work = run.OUT / f"record-{name}-{seed}"
            pipeline.prepare(workload, work, seed, cli, run.SRC)
            runner = pipeline.Runner(workload, work, seed, cli)
            runner.reference = {}
            runner.extract()
            for variant in workload.variants:
                if variant in ("wp", "lstm", "cnn"):
                    runner.train(variant, ("--set", "train.max_epochs=1"))
            shutil.rmtree(work)
            entry = {k: v for k, v in runner.checks.items()
                     if k == "extract_digest" or k.startswith("epoch1_loss_")}
            table.setdefault(name, {})[str(seed)] = entry
            print(name, seed, entry, flush=True)
    pipeline.REFERENCE.write_text(json.dumps(table, indent=1, sort_keys=True) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
