#!/usr/bin/env python3
"""End-to-end and per-layer benchmark of the presup pipeline.

Run from the repository root::

    python3 perfbench/run.py --workload paper --seed 1 --seconds 30 --trace 0
    python3 perfbench/run.py --workload all --seed 1   # all, untraced and traced

Each run generates its inputs from ``--seed`` (the same seed gives the same
inputs), writes them under ``.bench_out/``, and drives the real user
commands ``extract``, ``train``, ``eval`` and ``compare`` in this process
through ``presup.cli.main``. It repeats rounds of its command sequence until
``--seconds`` have passed (at least one round), checks every output, and
prints one ``name value unit`` line per metric, an ``env`` line, and as its
last line a JSON object with ``correct``, ``attempted``, ``failed`` and
``metrics``. Every command is one operation; a non-zero exit code or a
failed output check counts it as failed. A run that cannot import the
program from ``src/`` exits with code 2 and prints no result.

Thread policy
-------------
``OPENBLAS_NUM_THREADS``, ``OMP_NUM_THREADS`` and ``MKL_NUM_THREADS`` are
pinned to 1 before numpy is imported, and the effective OpenBLAS thread
count is read back and reported. With two threads on a two-core machine the
CNN ran about 4x slower and LSTM steps swung both ways, so one thread is
the only setting that measures the code rather than the scheduler. A change
that sets a thread policy inside the program is still measured under this
pinned policy.

Workloads
---------
Every workload runs the whole pipeline on its own inputs, because every
end-to-end metric must be measured on every workload; each one puts the
weight on a different layer.

``paper``
    160 article-sized documents (20-40 sentences of 8-30 tokens) over a
    Zipfian vocabulary of 2,560 types, 103 planted adverbs (32 of them in
    test documents whose verbs occur nowhere else, so the test split is
    always 64 samples and the train split 128), and a 300-d text vectors
    file. Extraction yields windows of up to 60 tokens; WP and CNN train for
    one epoch, which is two steps of B=64 (d=300, s=64, dense 64); both are
    evaluated on the test split, and ``compare`` runs WP vs CNN. Chosen
    because the LSTM forward and backpropagation through time do most of
    the work, and checkpoints carry a real 300-d embedding table, so their
    save and load cost shows.
``synth``
    The repetition task of ``tests/synth.py`` written as a corpus of 2,800
    one-sentence documents, plus 8,400 filler documents that yield no
    sample; extraction (``window_before`` 6) yields the task exactly, split
    2000/400/400. Eval and compare score all 2,800 samples, so each command
    runs long enough to time. WP (T=8, one-hot d=24, s=32, B=64,
    lr 0.005) trains for a fixed budget of 8 epochs and must reach 0.90 dev
    accuracy within it (at the default lr 1e-3 it took 9 to 12 epochs on four
    seeds, too long for one run; at 0.005, 3 to 6 epochs on six seeds); logistic regression and the majority class are fit;
    all three are evaluated, and ``compare`` runs WP vs logistic regression.
    Chosen because sequences are short and matrices tiny, so per-sample
    Python and tape bookkeeping dominate rather than BLAS: a FLOP-level
    change should not move it, a batching or tape-node change should.
``extract``
    The fixture corpus's sentences dealt in seeded order into 320 documents
    whose lengths are fixed quantiles of a Pareto law (median about 300
    tokens, longest about 3,000), about 180,000 tokens in all.
    Each round extracts, fits logistic regression and the majority class on
    the result, evaluates both, and compares them; no neural model runs.
    Eval and compare score every mined sample (train, dev and test), since
    the test split's size depends on which documents negative mining scans
    first.
    Chosen because extraction does most of the work, and because the
    window builder re-flattens the whole document for every window, a cost
    that grows faster than document length and that short documents alone
    would hide.

Output checks
-------------
Each failed check fails the command it belongs to.

- ``extract``: the sha256 of all outputs repeats within the run and, for a
  seed listed in ``reference.json`` (written by ``record_reference.py``),
  equals the recorded digest.
- ``train``: a checkpoint is written, with the same size on every repeat;
  for WP, LSTM and CNN every epoch's training loss is finite and the
  epoch-1 loss from the history report repeats exactly and lies within
  1e-9 of the recorded reference. (The epoch-1 loss rather than the first
  step's: the report gives it, so untraced runs need no hook into the
  program.) On ``synth``, WP must reach 0.90 dev accuracy within its
  budget.
- ``eval``: the confusion counts add up to n, the accuracy equals
  (tn + tp) / n and repeats, and it equals the recount from the
  predictions that ``compare`` tabulates.
- ``compare``: the contingency total equals n and McNemar's p lies in
  [0, 1].

End-to-end metrics (``--trace 0``)
----------------------------------
Rates use, for each distinct command of a kind, the median wall time over
its repeats in the run, and divide one instance's work by the sum of those
medians.

``setup_s`` (s)
    Median of three set-ups, each one a fresh interpreter importing numpy,
    scipy and presup, input generation, writing the inputs, and a warm-up
    extraction of two documents.
``train_samples_per_s`` (samples/s)
    Training samples processed (epochs run x train split; one pass for
    logistic regression and the majority class) over the wall time of the
    ``train`` commands, including their dev evaluation, vocabulary and
    embedding load and checkpoint save.
``eval_samples_per_s`` (samples/s)
    Samples scored (the test split on paper, every mined sample on synth
    and extract) over the wall time of ``eval``, checkpoint load included.
``compare_samples_per_s`` (samples/s)
    The same samples over the wall time of ``compare``: two checkpoint
    loads, two prediction passes, the contingency table and McNemar's test.
``extract_tokens_per_s`` (tokens/s)
    Corpus tokens over the wall time of ``extract`` (parse, mine, split,
    write).
``peak_rss_mb`` (MB)
    Peak resident memory of the run's process.

``time_to_target_s`` is reported with the per-layer metrics, from the
traced run: every end-to-end metric has to be measured on every workload,
and only ``synth`` has a target to reach.

On a two-vCPU virtual machine the whole machine runs up to a third slower
for minutes at a time (process CPU time grows with wall time, so it is not
steal), which moves every rate of a run together; bounds are set for that.

Per-layer metrics (``--trace 1``)
---------------------------------
A separate traced run wraps the public functions of each layer module from
this directory (see ``tracing.py``) and records spans in memory, written at
the end to ``.bench_out/trace_<workload>_<seed>.jsonl.gz``. Times are ms per
round of the workload's command sequence; counts are per round unless
noted. Each entry names the end-to-end metric and workloads it should move.

- ``models.lstm_fwd_ms``, ``models.lstm_bptt_ms`` (the VJP recorded by
  ``lstm_sequence``), ``models.lstm_timesteps`` (count): train, eval and
  compare rates on paper; small on synth; none on extract.
- ``models.aoa_ms`` (``attention_weights``), ``models.embed_ms``,
  ``models.forward_ms`` and ``models.forward_self_ms`` (head, pooling and
  dropout), ``models.forward_calls`` (count of WP/LSTM forwards): train and
  eval rates on paper.
- ``models.cnn_forward_ms``: train, eval and compare rates on paper.
- ``models.logreg_fit_ms``, ``models.predict_ms`` (``predict_label``):
  train and compare rates on synth and extract.
- ``tensor.tape_nodes_per_step`` (count, first WP or CNN step),
  ``tensor.backward_ms``, ``tensor.backward_self_ms`` (tape walk without the
  LSTM VJP): train rate and ``time_to_target_s`` on synth; smaller share on
  paper.
- ``optim.clip_ms``, ``optim.adam_ms``: train rate on synth; a few ms per
  step on paper.
- ``training.step_ms.p50``, ``training.step_ms.p90`` and
  ``training.step_ms.count`` (steps in the run), ``training.batch_loss_ms``,
  ``training.dev_eval_ms``, ``training.epochs_to_target`` (count, synth) and
  ``time_to_target_s`` (s, synth: from the start of ``train wp`` to the end
  of the first dev evaluation at >= 0.90): train rate on paper and synth.
- ``checkpoint.save_ms``, ``checkpoint.load_ms``, ``checkpoint.bytes``
  (bytes saved per round): eval and compare rates on paper; small on synth.
- ``vocab.build_ms``, ``vocab.embeddings_load_ms``: train rate on paper.
- ``extraction.parse_ms``, ``.occurrences_ms``, ``.positive_ms``,
  ``.negatives_ms``, ``.split_ms``, ``.write_ms``: extract rate on extract;
  small elsewhere. ``extraction.read_ms`` (``read_samples``): every command
  after extract. ``extraction.flat_calls_per_window`` (ratio of
  ``Document.flat`` calls to windows built) and
  ``extraction.negative_yield`` (negatives emitted / negative windows
  built): extract rate on extract.
- ``metrics.ms`` (confusion, contingency and McNemar): compare rate.
- ``cli.unattributed_ms``: command time inside no layer span.
- ``<layer>.self_ms``, ``<layer>.busy_ms`` and ``<layer>.calls`` for every
  layer, and ``trace.spans`` (count) and ``trace.overhead_pct`` (%): two
  ``eval`` runs traced against two untraced, alternating, in the same
  process.

The traced run fails (``correct`` false) if the layer self times of any
command do not add up to its wall time, or if a count that must repeat
exactly (tape nodes per step, ``Document.flat`` calls per window, epochs to
target, checkpoint bytes) differs between rounds, or from an earlier traced
run of the same seed and the same program source.
"""

from __future__ import annotations

import os

PINNED_THREADS = 1
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = str(PINNED_THREADS)

import argparse  # noqa: E402
import json  # noqa: E402
import math  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
from pathlib import Path  # noqa: E402
from time import perf_counter  # noqa: E402

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = ROOT / ".bench_out"
SETUP_REPEATS = 3

END_TO_END = {
    "setup_s": "s",
    "train_samples_per_s": "samples/s",
    "eval_samples_per_s": "samples/s",
    "compare_samples_per_s": "samples/s",
    "extract_tokens_per_s": "tokens/s",
    "peak_rss_mb": "MB",
}


def import_program():
    """Import presup from this checkout's src/ and return its cli module
    with the import time. Exits with code 2 if the program is not there."""
    if not (SRC / "presup" / "cli.py").is_file():
        print(f"error: no program at {SRC / 'presup'}", file=sys.stderr)
        sys.exit(2)
    sys.path.insert(0, str(SRC))
    sys.path.insert(0, str(HERE))
    start = perf_counter()
    import numpy  # noqa: F401
    import scipy.sparse  # noqa: F401
    import presup
    from presup import cli
    seconds = perf_counter() - start
    if Path(presup.__file__).resolve().parent != SRC / "presup":
        print(f"error: imported presup from {presup.__file__}", file=sys.stderr)
        sys.exit(2)
    return cli, seconds


def environment() -> dict:
    import ctypes
    import numpy
    import scipy
    blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
    effective = None
    for lib in sorted((Path(numpy.__file__).parent.parent / "numpy.libs").glob("*openblas*")):
        handle = ctypes.CDLL(str(lib))
        for symbol in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_",
                       "openblas_get_num_threads"):
            fn = getattr(handle, symbol, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                effective = fn()
                break
    src_lines = sum(len(p.read_text(encoding="utf-8").splitlines())
                    for p in sorted((SRC / "presup").glob("*.py")))
    return {
        "python": sys.version.split()[0],
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "blas_threads_pinned": PINNED_THREADS,
        "blas_threads_effective": effective,
        "nproc": os.cpu_count(),
        "nproc_affinity": len(os.sched_getaffinity(0)),
        "src_presup_lines": src_lines,
    }


def source_hash() -> str:
    """Hash of the program's and the benchmark's Python sources."""
    import hashlib
    h = hashlib.sha256()
    for p in sorted((SRC / "presup").glob("*.py")) + sorted(HERE.glob("*.py")):
        h.update(p.name.encode())
        h.update(p.read_bytes())
    return h.hexdigest()[:16]


def run_rounds(runner, seconds: float, after_round=None) -> int:
    """Rounds until `seconds` have passed, starting no round that would
    likely end past them (the first round always runs); returns the count."""
    rounds = 0
    start = perf_counter()
    while True:
        runner.round()
        rounds += 1
        if after_round is not None:
            after_round()
        elapsed = perf_counter() - start
        if elapsed * (rounds + 1) / rounds > seconds:
            return rounds


def run_workload(args) -> int:
    cli, import_s = import_program()
    import pipeline
    workload = pipeline.WORKLOADS[args.workload]
    OUT.mkdir(exist_ok=True)
    work = OUT / f"work-{args.workload}-{args.seed}-{os.getpid()}"
    try:
        setups = [pipeline.prepare(workload, work, args.seed, cli, SRC)
                  for _ in range(SETUP_REPEATS)]
        env = environment()
        runner = pipeline.Runner(workload, work, args.seed, cli)
        if args.trace:
            metrics, problems = traced(runner, workload, args)
        else:
            run_rounds(runner, args.seconds)
            metrics = {
                "setup_s": pipeline.median(setups),
                "train_samples_per_s": pipeline.rate(runner.ops, "train"),
                "eval_samples_per_s": pipeline.rate(runner.ops, "eval"),
                "compare_samples_per_s": pipeline.rate(runner.ops, "compare"),
                "extract_tokens_per_s": pipeline.rate(runner.ops, "extract"),
                "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
            }
            metrics = {k: (v, END_TO_END[k]) for k, v in metrics.items()}
            problems = []
    finally:
        shutil.rmtree(work, ignore_errors=True)

    failed_ops = [op for op in runner.ops if not op.ok]
    for op in failed_ops:
        print(f"failed: {op.label}: {op.why}")
    for why in problems:
        print(f"harness: {why}")
    for name, (value, unit) in metrics.items():
        print(f"{name} {value:.6g} {unit}")
    print("env " + json.dumps(env))
    result = {
        "correct": not failed_ops and not problems,
        "attempted": len(runner.ops),
        "failed": len(failed_ops),
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }
    detail = dict(result, workload=args.workload, seed=args.seed, trace=args.trace,
                  env=env, setup_runs_s=setups, import_s=import_s, problems=problems,
                  checks=runner.checks,
                  ops=[[op.label, op.n, round(op.seconds, 6), op.ok, op.why]
                       for op in runner.ops])
    (OUT / f"result_{args.workload}_{args.seed}_{args.trace}.json").write_text(
        json.dumps(detail, indent=1))
    print(json.dumps(result))
    return 0


def traced(runner, workload, args):
    """Traced rounds, then per-layer metrics, self-checks and overhead."""
    import tracing
    tracer = tracing.Tracer()
    runner.tracer = tracer
    tracer.install()
    round_counts = []
    marks = {"tape": 0, "flat": 0, "window": 0}

    def after_round():
        now = {"tape": len(tracer.tape_nodes),
               "flat": tracer.counts["extraction.flat"],
               "window": tracer.counts["extraction._window"]}
        round_counts.append({"tape": tracer.tape_nodes[marks["tape"]:now["tape"]],
                             "flat": now["flat"] - marks["flat"],
                             "window": now["window"] - marks["window"]})
        marks.update(now)

    try:
        run_rounds(runner, args.seconds, after_round)
    finally:
        tracer.uninstall()
        runner.tracer = None
    rounds = len(round_counts)
    analysis = tracer.analyse(range(len(runner.ops)))
    problems = []
    for op_id, sums in analysis["ops"].items():
        if abs(sums["root"] - sums["self_sum"]) > 1e-6:
            problems.append(f"op {op_id}: layer self times {sums['self_sum']:.6f}s do not "
                            f"add up to the command's {sums['root']:.6f}s")

    # exact counts: identical in every round, and across runs of this seed
    first = round_counts[0]
    for i, rc in enumerate(round_counts[1:], start=2):
        if rc != first:
            problems.append(f"round {i} counts {rc} differ from round 1 {first}")
    by_name = analysis["by_name"]

    def total_ms(*names):
        return sum(by_name.get(n, {}).get("total", 0.0) for n in names) * 1e3 / rounds

    def self_ms(*names):
        return sum(by_name.get(n, {}).get("self", 0.0) for n in names) * 1e3 / rounds

    def calls(*names):
        return sum(by_name.get(n, {}).get("calls", 0) for n in names) / rounds

    counts = tracer.counts
    steps = sorted(s * 1e3 for s in tracer.steps())
    ttt = 0.0
    if runner.epochs_to_target:
        wp_op = next(i for i, op in enumerate(runner.ops) if op.label == "train wp")
        ends = [end for op, end in tracer.dev_evals() if op == wp_op]
        root = next(s for s in tracer.spans if s[4] == wp_op and s[3] < 0)
        ttt = ends[runner.epochs_to_target - 1] - root[1]
    save_bytes = sum(tracer.saved_bytes) / rounds
    exact = {
        "tape_nodes_per_step": first["tape"][0] if first["tape"] else 0,
        "flat_calls_per_window": first["flat"] / first["window"] if first["window"] else 0.0,
        "epochs_to_target": runner.epochs_to_target,
        "checkpoint_bytes": save_bytes,
    }
    counts_dir = OUT / "counts"
    counts_dir.mkdir(exist_ok=True)
    counts_file = counts_dir / f"{workload.name}-{args.seed}-{source_hash()}.json"
    if counts_file.exists():
        earlier = json.loads(counts_file.read_text())
        if earlier != exact:
            problems.append(f"exact counts {exact} differ from an earlier run {earlier}")
    else:
        counts_file.write_text(json.dumps(exact))

    layer = analysis["layer"]
    m = {
        "models.lstm_fwd_ms": (total_ms("models.lstm_sequence"), "ms"),
        "models.lstm_bptt_ms": (total_ms("models.lstm_bptt"), "ms"),
        "models.lstm_timesteps": (counts["models.lstm_timesteps"] / rounds, "count"),
        "models.aoa_ms": (total_ms("models.attention_weights"), "ms"),
        "models.embed_ms": (total_ms("models.embed_sequence"), "ms"),
        "models.forward_ms": (total_ms("models.RecurrentClassifier.forward"), "ms"),
        "models.forward_self_ms": (self_ms("models.RecurrentClassifier.forward"), "ms"),
        "models.forward_calls": (calls("models.RecurrentClassifier.forward"), "count"),
        "models.cnn_forward_ms": (total_ms("models.CnnModel.forward"), "ms"),
        "models.logreg_fit_ms": (total_ms("models.LogRegModel.fit"), "ms"),
        "models.predict_ms": (total_ms("models.RecurrentClassifier.predict_label",
                                       "models.CnnModel.predict_label",
                                       "models.LogRegModel.predict_label",
                                       "models.MfcModel.predict_label"), "ms"),
        "tensor.tape_nodes_per_step": (exact["tape_nodes_per_step"], "count"),
        "tensor.backward_ms": (total_ms("tensor.backward"), "ms"),
        "tensor.backward_self_ms": (self_ms("tensor.backward"), "ms"),
        "optim.clip_ms": (total_ms("optim.clip_gradients"), "ms"),
        "optim.adam_ms": (total_ms("optim.adam_step"), "ms"),
        "training.step_ms.p50": (_quantile(steps, 0.5), "ms"),
        "training.step_ms.p90": (_quantile(steps, 0.9), "ms"),
        "training.step_ms.count": (len(steps), "count"),
        "training.batch_loss_ms": (total_ms("training.batch_loss"), "ms"),
        "training.dev_eval_ms": (sum(
            s[2] - s[1] for s in tracer.spans
            if s[0] == "training.evaluate" and runner.ops[s[4]].kind == "train") * 1e3 / rounds,
            "ms"),
        "training.epochs_to_target": (runner.epochs_to_target, "count"),
        "time_to_target_s": (ttt, "s"),
        "checkpoint.save_ms": (total_ms("checkpoint.save_checkpoint"), "ms"),
        "checkpoint.load_ms": (total_ms("checkpoint.load_checkpoint"), "ms"),
        "checkpoint.bytes": (save_bytes, "bytes"),
        "vocab.build_ms": (total_ms("vocab.build_vocab"), "ms"),
        "vocab.embeddings_load_ms": (total_ms("vocab.load_embeddings"), "ms"),
        "extraction.parse_ms": (total_ms("extraction.parse_corpus"), "ms"),
        "extraction.occurrences_ms": (total_ms("extraction.find_occurrences"), "ms"),
        "extraction.positive_ms": (total_ms("extraction.extract_positive"), "ms"),
        "extraction.negatives_ms": (total_ms("extraction.extract_negatives"), "ms"),
        "extraction.split_ms": (total_ms("extraction.split_dataset"), "ms"),
        "extraction.write_ms": (total_ms("extraction.write_samples"), "ms"),
        "extraction.read_ms": (total_ms("extraction.read_samples"), "ms"),
        "extraction.flat_calls_per_window": (exact["flat_calls_per_window"], "ratio"),
        "extraction.negative_yield": (
            counts["extraction.negatives_emitted"] / counts["extraction.negative_candidates"]
            if counts["extraction.negative_candidates"] else 0.0, "ratio"),
        "metrics.ms": (total_ms("metrics.confusion", "metrics.contingency",
                                "metrics.mcnemar"), "ms"),
        "cli.unattributed_ms": (self_ms("cli.main"), "ms"),
    }
    for name in tracing.LAYERS:
        if name != "cli":
            m[f"{name}.self_ms"] = (layer[name]["self"] * 1e3 / rounds, "ms")
        m[f"{name}.busy_ms"] = (layer[name]["busy"] * 1e3 / rounds, "ms")
        m[f"{name}.calls"] = (layer[name]["calls"] / rounds, "count")
    m["trace.spans"] = (len(tracer.spans) / rounds, "count")
    m["trace.overhead_pct"] = (overhead_pct(runner, workload), "%")
    tracer.write(OUT / f"trace_{workload.name}_{args.seed}.jsonl.gz")
    runner.checks["exact_counts"] = exact
    runner.checks["rounds"] = rounds
    return m, problems


def overhead_pct(runner, workload, pairs: int = 2) -> float:
    """Median eval wall time traced vs untraced, alternating, in percent."""
    import pipeline
    import tracing
    variant = workload.variants[0]
    plain, traced_s = [], []
    for _ in range(pairs):
        t = perf_counter()
        runner.evaluate(variant)
        plain.append(perf_counter() - t)
        tracer = tracing.Tracer()
        tracer.install()
        try:
            t = perf_counter()
            runner.evaluate(variant)
            traced_s.append(perf_counter() - t)
        finally:
            tracer.uninstall()
    base = pipeline.median(plain)
    return (pipeline.median(traced_s) - base) / base * 100.0


def _quantile(sorted_values: list, q: float) -> float:
    """Nearest-rank quantile; 0 for an empty list."""
    if not sorted_values:
        return 0.0
    return sorted_values[max(0, math.ceil(q * len(sorted_values)) - 1)]


def run_all(args) -> int:
    """Every workload untraced and traced, each in its own process, one
    after another; prints every metric and failed/attempted per run."""
    results = {}
    for name in ("paper", "synth", "extract"):
        for trace in (0, 1):
            cmd = [sys.executable, str(Path(__file__).resolve()), "--workload", name,
                   "--seed", str(args.seed), "--seconds", str(args.seconds),
                   "--trace", str(trace)]
            proc = subprocess.run(cmd, capture_output=True, text=True, check=False)
            lines = proc.stdout.strip().splitlines()
            print(f"== {name} trace={trace} (exit {proc.returncode})")
            if proc.returncode != 0 or not lines:
                sys.stderr.write(proc.stderr)
                return proc.returncode or 1
            print("\n".join(lines[:-1]))
            res = json.loads(lines[-1])
            print(f"failed/attempted {res['failed']}/{res['attempted']}")
            results[f"{name}.trace{trace}"] = res
    print(json.dumps({
        "correct": all(r["correct"] for r in results.values()),
        "attempted": sum(r["attempted"] for r in results.values()),
        "failed": sum(r["failed"] for r in results.values()),
        "metrics": {f"{run}.{k}": v for run, r in results.items() for k, v in r["metrics"].items()},
    }))
    return 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=["paper", "synth", "extract", "all"])
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=30)
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    args = parser.parse_args(argv)
    if args.workload == "all":
        return run_all(args)
    return run_workload(args)


if __name__ == "__main__":
    sys.exit(main())
