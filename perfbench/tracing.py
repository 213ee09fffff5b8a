"""Span tracing of the presup layers, installed from the benchmark's side.

The tracer wraps the public functions of each layer module (and the
methods of the model classes) in place, records one span per call in memory
(name, start, end, parent span, op id) and keeps counters at the same
boundaries. Nothing inside the program is edited: a wrapper is bound under
every name a presup module uses for the function, and removed again by
:meth:`Tracer.uninstall`.

Spans nest strictly (the program is single-threaded), so a span's self time
is its duration minus its children's, and per op the self times of all spans
sum to the op's root span: time no layer claims is the ``cli.main`` self
time, reported as ``cli.unattributed_ms``.
"""

from __future__ import annotations

import gzip
import importlib
import json
import os
import sys
from collections import Counter, defaultdict
from time import perf_counter

LAYERS = ("extraction", "vocab", "models", "tensor", "optim", "training",
          "metrics", "checkpoint", "cli")

# (module, attribute) -> span name; "Class.method" attributes patch the class
# that defines the method, so subclasses are covered too.
SPANNED = {
    "cli": ["main"],
    "extraction": ["parse_corpus", "run_extraction", "find_occurrences",
                   "extract_positive", "extract_negatives", "split_dataset",
                   "write_samples", "read_samples"],
    "vocab": ["build_vocab", "load_embeddings", "parse_vector_file",
              "build_embedding_table"],
    "models": ["embed_sequence", "lstm_sequence", "attention_weights",
               "RecurrentClassifier.forward", "RecurrentClassifier.predict_label",
               "CnnModel.forward", "CnnModel.predict_label",
               "LogRegModel.fit", "LogRegModel.predict_label",
               "MfcModel.fit", "MfcModel.predict_label"],
    "tensor": ["backward"],
    "optim": ["clip_gradients", "adam_step"],
    "training": ["train", "batch_loss", "evaluate"],
    "checkpoint": ["save_checkpoint", "load_checkpoint"],
    "metrics": ["confusion", "contingency", "mcnemar"],
}
# counted but not spanned: called once per extraction window
COUNTED = {"extraction": ["Document.flat", "_window"]}


class Tracer:
    def __init__(self):
        self.spans: list = []      # [name, start, end, parent, op]
        self.stack: list = []      # indices of open spans
        self.op = -1
        self.counts: Counter = Counter()
        self.tape_nodes: list = []  # tape length at each backward()
        self.saved_bytes: list = []  # checkpoint file size per save
        self._undo: list = []

    # -- recording ---------------------------------------------------------

    def _spanned(self, fn, name, after=None):
        spans, stack = self.spans, self.stack

        def wrapper(*args, **kwargs):
            idx = len(spans)
            rec = [name, perf_counter(), 0.0, stack[-1] if stack else -1, self.op]
            spans.append(rec)
            stack.append(idx)
            try:
                out = fn(*args, **kwargs)
            finally:
                rec[2] = perf_counter()
                stack.pop()
            if after is not None:
                after(out, args)
            return out

        wrapper.__wrapped__ = fn
        return wrapper

    def _counted(self, fn, key):
        counts, spans, stack = self.counts, self.spans, self.stack

        def wrapper(*args, **kwargs):
            counts[key] += 1
            if key == "extraction._window" and stack and \
                    spans[stack[-1]][0] == "extraction.extract_negatives":
                counts["extraction.negative_candidates"] += 1
            return fn(*args, **kwargs)

        wrapper.__wrapped__ = fn
        return wrapper

    # -- hooks that turn calls into counts ---------------------------------

    def _after_lstm(self, out, args):
        from presup import tensor
        self.counts["models.lstm_timesteps"] += args[0].shape[0]
        tape = tensor._TAPE_STACK[-1] if tensor._TAPE_STACK else None
        if tape is not None and tape.nodes and tape.nodes[-1].out is out:
            node = tape.nodes[-1]
            node.vjp = self._spanned(node.vjp, "models.lstm_bptt")

    def _after_backward(self, out, args):
        self.tape_nodes.append(len(args[0]))

    def _after_save(self, out, args):
        self.saved_bytes.append(os.path.getsize(args[0]))

    def _after_negatives(self, out, args):
        self.counts["extraction.negatives_emitted"] += len(out)

    # -- installation ------------------------------------------------------

    def install(self) -> None:
        after = {"models.lstm_sequence": self._after_lstm,
                 "tensor.backward": self._after_backward,
                 "checkpoint.save_checkpoint": self._after_save,
                 "extraction.extract_negatives": self._after_negatives}
        for layer, attrs in SPANNED.items():
            for attr in attrs:
                name = f"{layer}.{attr}"
                self._patch(layer, attr, lambda fn, n=name: self._spanned(fn, n, after.get(n)))
        for layer, attrs in COUNTED.items():
            for attr in attrs:
                key = f"{layer}.{attr.split('.')[-1]}"
                self._patch(layer, attr, lambda fn, k=key: self._counted(fn, k))

    def _patch(self, layer, attr, make):
        module = importlib.import_module(f"presup.{layer}")
        if "." in attr:
            cls_name, meth = attr.split(".")
            cls = getattr(module, cls_name)
            orig = cls.__dict__[meth]
            setattr(cls, meth, make(orig))
            self._undo.append((cls, meth, orig))
            return
        orig = getattr(module, attr)
        wrapped = make(orig)
        for mod_name, mod in list(sys.modules.items()):
            if mod is None or not mod_name.startswith("presup"):
                continue
            for key, value in list(vars(mod).items()):
                if value is orig:
                    setattr(mod, key, wrapped)
                    self._undo.append((mod, key, orig))

    def uninstall(self) -> None:
        for target, key, orig in reversed(self._undo):
            setattr(target, key, orig)
        self._undo.clear()

    def write(self, path) -> None:
        with gzip.open(path, "wt", encoding="utf-8") as f:
            for name, start, end, parent, op in self.spans:
                f.write(json.dumps([name, round(start, 7), round(end, 7), parent, op]))
                f.write("\n")

    # -- analysis ----------------------------------------------------------

    def analyse(self, op_ids) -> dict:
        """Per-span self times and per-layer aggregates.

        Returns a dict with ``layer`` (self, busy seconds and calls per
        layer), ``by_name`` (total and self seconds and calls per span
        name) and ``ops`` (per op id: seconds of its root spans and the sum
        of the self times of all its spans).
        """
        spans = self.spans
        n = len(spans)
        child_time = [0.0] * n
        for name, start, end, parent, op in spans:
            if parent >= 0:
                child_time[parent] += end - start
        bit = {layer: 1 << i for i, layer in enumerate(LAYERS)}
        above = [0] * n
        layer_of = [s[0].split(".")[0] for s in spans]
        layer = {name: {"self": 0.0, "busy": 0.0, "calls": 0} for name in LAYERS}
        by_name = defaultdict(lambda: {"total": 0.0, "self": 0.0, "calls": 0})
        op_self = defaultdict(float)
        op_root = defaultdict(float)
        for i, (name, start, end, parent, op) in enumerate(spans):
            dur = end - start
            own = dur - child_time[i]
            lay = layer_of[i]
            if parent >= 0:
                above[i] = above[parent] | bit[layer_of[parent]]
            else:
                op_root[op] += dur
            agg = layer[lay]
            agg["self"] += own
            agg["calls"] += 1
            if not above[i] & bit[lay]:
                agg["busy"] += dur
            rec = by_name[name]
            rec["calls"] += 1
            rec["self"] += own
            rec["total"] += dur
            op_self[op] += own
        return {"layer": layer, "by_name": dict(by_name),
                "ops": {op: {"root": op_root[op], "self_sum": op_self[op]}
                        for op in op_ids}}

    def steps(self) -> list:
        """Training step durations (s): from the first model forward after
        the previous step to the end of its adam_step, for each train()."""
        spans = self.spans
        trains = {i for i, s in enumerate(spans) if s[0] == "training.train"}
        out, open_at = [], {}
        forwards = ("models.RecurrentClassifier.forward", "models.CnnModel.forward")
        for name, start, end, parent, op in spans:
            if parent not in trains:
                continue
            if name in forwards and parent not in open_at:
                open_at[parent] = start
            elif name == "optim.adam_step" and parent in open_at:
                out.append(end - open_at.pop(parent))
        return out

    def dev_evals(self) -> list:
        """(op, end time) of every evaluate() called inside train()."""
        spans = self.spans
        return [(s[4], s[2]) for s in spans
                if s[0] == "training.evaluate" and s[3] >= 0
                and spans[s[3]][0] == "training.train"]
