"""Workloads: seeded inputs, the command sequence of one round, and the
output checks that turn a wrong result into a failed operation.

Every command goes through ``presup.cli.main`` in this process, exactly as a
user would type it; the program sees only the files the set-up wrote.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import math
import shutil
import subprocess
import sys
from dataclasses import dataclass
from pathlib import Path
from time import perf_counter

import corpora

REFERENCE = Path(__file__).resolve().parent / "reference.json"
LOSS_TOLERANCE = 1e-9
SYNTH_TARGET = 0.90


@dataclass
class Op:
    label: str        # command and model, e.g. "eval wp"
    kind: str         # extract | train | eval | compare
    n: int            # tokens (extract) or samples (the rest) it processed
    seconds: float
    ok: bool = True
    why: str = ""


@dataclass
class Workload:
    name: str
    variants: tuple           # models trained, in order
    compare: tuple            # (model a, model b)
    extract_repeats: int
    eval_repeats: int
    compare_repeats: int
    eval_split: str = "test"  # or "all": every mined sample
    tokens: int = 0  # corpus tokens of the inputs last written

    def write_inputs(self, work: Path, seed: int) -> None:
        """Generate this workload's corpus, vectors and config into work."""
        raise NotImplementedError


class Paper(Workload):
    def __init__(self):
        super().__init__("paper", ("wp", "cnn"), ("wp", "cnn"),
                         extract_repeats=3, eval_repeats=1, compare_repeats=1)

    def write_inputs(self, work, seed):
        text, self.tokens, lexicon = corpora.paper_corpus(seed)
        (work / "corpus.txt").write_text(text, encoding="utf-8")
        (work / "vectors.txt").write_text(corpora.random_vectors(lexicon, 300, seed),
                                          encoding="utf-8")
        _write_config(work, {
            "paths": {"corpus": "corpus.txt", "embeddings": "vectors.txt"},
            "extraction": {"test_sections": [corpora.PAPER_TEST_SECTION]},
            "model": {"embed_dim": 300, "hidden_size": 64, "dense_units": 64,
                      "pos_mode": "off"},
            "train": {"batch_size": 64, "max_epochs": 1},
        })


SYNTH_EPOCH_BUDGET = 8


class Synth(Workload):
    def __init__(self):
        # Eval and compare score every mined sample (2800), so that each
        # command runs long enough to time steadily.
        super().__init__("synth", ("wp", "logreg", "mfc"), ("wp", "logreg"),
                         extract_repeats=5, eval_repeats=1, compare_repeats=1,
                         eval_split="all")

    def write_inputs(self, work, seed):
        text, self.tokens, vocab = corpora.synth_corpus(seed)
        dim = len(vocab) + 1  # one spare basis row for the padding id
        (work / "corpus.txt").write_text(text, encoding="utf-8")
        (work / "vectors.txt").write_text(corpora.one_hot_vectors(vocab, dim),
                                          encoding="utf-8")
        _write_config(work, {
            "paths": {"corpus": "corpus.txt", "embeddings": "vectors.txt"},
            "extraction": {"test_sections": [corpora.SYNTH_TEST_SECTION],
                           "window_before": 6, "dev_fraction": 0.1667},
            "model": {"embed_dim": dim, "hidden_size": 32, "pos_mode": "off"},
            "train": {"batch_size": 64, "max_epochs": SYNTH_EPOCH_BUDGET,
                      "lr": 0.005},
        })


class Extract(Workload):
    def __init__(self):
        # The size of the test split depends on which documents negative
        # mining scans first, so eval and compare score every mined sample.
        super().__init__("extract", ("logreg", "mfc"), ("logreg", "mfc"),
                         extract_repeats=1, eval_repeats=3, compare_repeats=3,
                         eval_split="all")

    def write_inputs(self, work, seed):
        text, self.tokens = corpora.extract_corpus(seed)
        (work / "corpus.txt").write_text(text, encoding="utf-8")
        _write_config(work, {
            "paths": {"corpus": "corpus.txt"},
            "extraction": {"test_sections": [corpora.PAPER_TEST_SECTION]},
        })


WORKLOADS = {w.name: w for w in (Paper(), Synth(), Extract())}


def _write_config(work: Path, cfg: dict) -> None:
    # the config names each input by its path inside the work directory
    cfg["paths"] = {k: str(work / v) for k, v in cfg["paths"].items()}
    (work / "config.json").write_text(json.dumps(cfg, indent=1), encoding="utf-8")


def _lines(path: Path) -> int:
    with open(path, encoding="utf-8") as f:
        return sum(1 for line in f if line.strip())


def tree_digest(out: Path) -> str:
    """sha256 over every extraction output (datasets and stats)."""
    h = hashlib.sha256()
    files = sorted((out / "datasets").rglob("*.jsonl")) + [out / "stats" / "extraction.json"]
    for path in files:
        h.update(str(path.relative_to(out)).encode())
        h.update(path.read_bytes())
    return h.hexdigest()


def load_reference(workload: str, seed: int) -> dict:
    if not REFERENCE.exists():
        return {}
    return json.loads(REFERENCE.read_text()).get(workload, {}).get(str(seed), {})


class Runner:
    """Runs one workload's rounds in a work directory and checks outputs."""

    def __init__(self, workload: Workload, work: Path, seed: int, cli, tracer=None):
        self.w = workload
        self.work = work
        self.out = work / "out"
        self.seed = seed
        self.cli = cli  # looked up per call, so a traced main is used
        self.tracer = tracer
        self.ops: list[Op] = []
        self.reference = load_reference(workload.name, seed)
        self.seen: dict = {}          # first value of each repeated check
        self.checks: dict = {}        # values recorded for the result file
        self.epochs_to_target = 0
        self.sizes: dict = {}         # split sizes, known after the first extract
        self.eval_data = self.out / "datasets" / "all" / "test.jsonl"

    # -- one command -------------------------------------------------------

    def command(self, label: str, kind: str, n: int, argv: list) -> Op:
        if self.tracer is not None:
            self.tracer.op = len(self.ops)
        sink = io.StringIO()
        start = perf_counter()
        try:
            with contextlib.redirect_stdout(sink):
                rc = self.cli.main(argv)
        except SystemExit as e:  # argparse rejects a command line this way
            rc = e.code
        seconds = perf_counter() - start
        op = Op(label, kind, n, seconds)
        if rc != 0:
            op.ok, op.why = False, f"exit code {rc}"
        self.ops.append(op)
        return op

    def _fail(self, op: Op, why: str) -> None:
        if op.ok:
            op.ok, op.why = False, why

    def _same(self, op: Op, key: str, value) -> None:
        """value must repeat exactly every time this key is checked."""
        first = self.seen.setdefault(key, value)
        if first != value:
            self._fail(op, f"{key} changed within the run: {first!r} -> {value!r}")

    # -- commands with their checks ------------------------------------------

    def extract(self) -> None:
        op = self.command("extract", "extract", self.w.tokens,
                          ["extract", "--config", str(self.work / "config.json"),
                           "--seed", str(self.seed), "--out", str(self.out)])
        if not op.ok:
            return
        digest = tree_digest(self.out)
        self._same(op, "extract digest", digest)
        self.checks["extract_digest"] = digest
        ref = self.reference.get("extract_digest")
        if ref is not None and ref != digest:
            self._fail(op, "extract digest differs from the recorded reference")
        if not self.sizes:
            ds = self.out / "datasets" / "all"
            splits = ("train", "dev", "test")
            self.sizes = {s: _lines(ds / f"{s}.jsonl") for s in splits}
            if self.w.eval_split == "all":
                self.eval_data = self.work / "all.jsonl"
                self.eval_data.write_text("".join((ds / f"{s}.jsonl").read_text(encoding="utf-8")
                                                  for s in splits), encoding="utf-8")
            self.sizes["eval"] = _lines(self.eval_data)

    def train(self, variant: str, extra: tuple = ()) -> None:
        ckpt = self.out / "checkpoints" / f"{variant}_all.json"
        op = self.command(f"train {variant}", "train", self.sizes["train"],
                          ["train", "--config", str(self.work / "config.json"),
                           "--seed", str(self.seed), "--out", str(self.out),
                           "--set", f"model.variant={variant}", *extra])
        if not op.ok:
            return
        if not ckpt.exists():
            self._fail(op, f"no checkpoint written for {variant}")
            return
        self._same(op, f"checkpoint bytes {variant}", ckpt.stat().st_size)
        history = self.out / "reports" / f"history_{variant}_all.jsonl"
        if not history.exists():  # mfc and logreg fit once
            return
        rows = [json.loads(line) for line in history.read_text().splitlines() if line]
        op.n = len(rows) * self.sizes["train"]
        losses = [r["train_loss"] for r in rows]
        if not all(math.isfinite(x) for x in losses):
            self._fail(op, f"non-finite training loss {losses}")
            return
        self._same(op, f"epoch-1 loss {variant}", losses[0])
        self.checks[f"epoch1_loss_{variant}"] = losses[0]
        ref = self.reference.get(f"epoch1_loss_{variant}")
        if ref is not None and abs(ref - losses[0]) > LOSS_TOLERANCE:
            self._fail(op, f"epoch-1 loss {losses[0]!r} != reference {ref!r}")
        if self.w.name == "synth" and variant == "wp":
            hit = [r["epoch"] for r in rows if r["dev_accuracy"] >= SYNTH_TARGET]
            if not hit:
                self._fail(op, f"dev accuracy never reached {SYNTH_TARGET} in "
                               f"{len(rows)} epochs: {[r['dev_accuracy'] for r in rows]}")
                return
            self.epochs_to_target = hit[0]
            self.checks["epochs_to_target"] = hit[0]
            self._same(op, "epochs to target", hit[0])

    def evaluate(self, variant: str) -> float | None:
        n = self.sizes["eval"]
        op = self.command(f"eval {variant}", "eval", n,
                          ["eval", "--out", str(self.out),
                           "--checkpoint", str(self.out / "checkpoints" / f"{variant}_all.json"),
                           "--data", str(self.eval_data)])
        if not op.ok:
            return None
        report = json.loads((self.out / "reports" /
                             f"eval_{variant}_all_{self.eval_data.stem}.json").read_text())
        cm = report["confusion"]
        total = cm["tn"] + cm["fp"] + cm["fn"] + cm["tp"]
        if total != n or report["accuracy"] != (cm["tn"] + cm["tp"]) / n:
            self._fail(op, f"eval report inconsistent: {report}")
        self._same(op, f"accuracy {variant}", report["accuracy"])
        return report["accuracy"]

    def compare(self, accuracy: dict) -> None:
        a, b = self.w.compare
        n = self.sizes["eval"]
        op = self.command(f"compare {a} {b}", "compare", n,
                          ["compare", "--out", str(self.out),
                           "--checkpoint-a", str(self.out / "checkpoints" / f"{a}_all.json"),
                           "--checkpoint-b", str(self.out / "checkpoints" / f"{b}_all.json"),
                           "--data", str(self.eval_data)])
        if not op.ok:
            return
        doc = json.loads((self.out / "reports" / f"compare_{a}_all_vs_{b}_all.json").read_text())
        t = doc["contingency"]
        total = t["a_both_correct"] + t["b_a_only"] + t["c_b_only"] + t["d_both_wrong"]
        p = doc["mcnemar"]["p"]
        if total != n or doc["n"] != n:
            self._fail(op, f"contingency total {total} != n {n}")
        elif not 0.0 <= p <= 1.0:
            self._fail(op, f"McNemar p {p} outside [0, 1]")
        # eval accuracy must equal the recount from compare's predictions
        recount = {a: (t["a_both_correct"] + t["b_a_only"]) / n,
                   b: (t["a_both_correct"] + t["c_b_only"]) / n}
        for variant, acc in accuracy.items():
            if variant in recount and acc is not None and acc != recount[variant]:
                self._fail(op, f"eval accuracy {acc} of {variant} != recount "
                               f"{recount[variant]} from the compare predictions")

    def round(self) -> None:
        """One round of the workload's commands. Repeats of a command are
        spread over the round, so a burst of machine noise lands on few of
        them."""
        w = self.w
        before = (w.extract_repeats + 1) // 2  # extractions before training
        for _ in range(before):
            self.extract()
        if not self.sizes:
            return
        for variant in w.variants:
            self.train(variant)
        accuracy = {}
        after = w.extract_repeats - before
        for i in range(max(w.eval_repeats, w.compare_repeats, after)):
            if i < w.eval_repeats:
                for variant in w.variants:
                    accuracy[variant] = self.evaluate(variant)
            if i < w.compare_repeats:
                self.compare(accuracy)
            if i < after:
                self.extract()


def prepare(workload: Workload, work: Path, seed: int, cli, src: Path) -> float:
    """One set-up, as a user pays it before the first command: a fresh
    interpreter importing numpy, scipy and presup (a child process, waited
    for), a fresh work directory with the generated inputs, and a warm-up
    extraction of the first two documents in this process, so first-call
    costs of the parsing and writing paths are paid here rather than in
    the first timed command. Returns its wall time."""
    start = perf_counter()
    subprocess.run([sys.executable, "-c",
                    f"import sys; sys.path.insert(0, {str(src)!r}); "
                    "import numpy, scipy.sparse, presup.cli"], check=True)
    if work.exists():
        shutil.rmtree(work)
    work.mkdir(parents=True)
    workload.write_inputs(work, seed)
    warm = work / "warmup"
    warm.mkdir()
    text = (work / "corpus.txt").read_text(encoding="utf-8")
    cut = text.find("#doc", text.find("#doc", 1) + 1)
    (warm / "corpus.txt").write_text(text[:cut], encoding="utf-8")
    with contextlib.redirect_stdout(io.StringIO()):
        cli.main(["extract", "--set", f"paths.corpus={warm / 'corpus.txt'}",
                  "--out", str(warm / "out")])
    shutil.rmtree(warm)
    return perf_counter() - start


def rate(ops: list, kind: str) -> float:
    """Work per second over the ops of one kind: for each distinct command
    (label) the median wall time of its repeats, then total work of one
    instance of each command over the sum of those medians."""
    by_label: dict = {}
    for op in ops:
        if op.kind == kind and op.ok:
            by_label.setdefault(op.label, []).append(op)
    if not by_label:
        return 0.0
    work = sum(median([op.n for op in group]) for group in by_label.values())
    seconds = sum(median([op.seconds for op in group]) for group in by_label.values())
    return work / seconds


def median(values):
    values = sorted(values)
    mid = len(values) // 2
    return values[mid] if len(values) % 2 else (values[mid - 1] + values[mid]) / 2
