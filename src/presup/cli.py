"""Command-line front door: extract / train / eval / compare.

All commands are driven by a JSON config file; any leaf key can be
overridden on the command line with repeatable --set key.path=value flags.
Outputs land under --out with fixed relative names (datasets/, checkpoints/,
reports/, stats/, and cache/ for the parsed vector file). Exit codes: 0
success, 1 runtime failure, 2 usage error or malformed input (config,
corpus, vector file, sample file or checkpoint).
"""

from __future__ import annotations

import argparse
import errno
import json
import logging
import sys
from pathlib import Path

from .checkpoint import load_checkpoint, save_checkpoint
from .config import RunConfig, apply_overrides, load_config_dict
from .errors import ParseError, UsageError
from .extraction import (read_corpus, read_samples, run_extraction, sample_target,
                         write_samples)
from .fileio import atomic_write
from .metrics import ALPHA, contingency, mcnemar
from .models import VARIANTS
from .rng import Rng
from .training import evaluate, train
from .vocab import build_embedding_table, build_vocab, load_embeddings


def _load_run_config(args) -> RunConfig:
    d = load_config_dict(args.config) if args.config else {}
    apply_overrides(d, args.set)
    cfg = RunConfig.from_dict(d)
    if args.seed is not None:
        cfg.seed = args.seed
    return cfg


def _write_json(path: Path, doc: dict) -> None:
    path.parent.mkdir(parents=True, exist_ok=True)
    atomic_write(path, lambda f: f.write(json.dumps(doc, ensure_ascii=False, indent=2) + "\n"))


def cmd_extract(args) -> int:
    cfg = _load_run_config(args)
    corpus_path = cfg.paths.get("corpus")
    if not corpus_path:
        raise UsageError("config is missing paths.corpus")
    out = Path(args.out)
    rng = Rng(cfg.sub_seed("extraction"))
    # no name holds the corpus, so it is freed before the encoded lines exist
    datasets, stats = run_extraction(read_corpus(corpus_path), cfg.extraction, rng)

    lines = {}  # each sample's JSON line: "all" holds the per-adverb samples again
    split_counts = {}
    for name, split in sorted(datasets.items()):
        dataset_dir = out / "datasets" / name
        dataset_dir.mkdir(parents=True, exist_ok=True)
        for part in ("train", "dev", "test"):
            write_samples(dataset_dir / f"{part}.jsonl", getattr(split, part), lines)
            if not getattr(split, part):
                logging.getLogger(__name__).warning("dataset %s: empty %s split", name, part)
        split_counts[name] = split.counts()
    _write_json(out / "stats" / "extraction.json",
                {"per_adverb": stats.to_dict(), "splits": split_counts})
    # the "all" dataset holds every sample once; the per-adverb datasets
    # partition the same material, so counting both would double up
    pooled = split_counts.get("all") or next(iter(split_counts.values()))
    total = sum(pooled[split]["total"] for split in ("train", "dev", "test"))
    print(f"extracted {total} samples across {len(datasets)} datasets -> {out}")
    return 0


def _load_split(cfg: RunConfig, out: Path, split: str):
    dataset_dir = Path(cfg.paths.get("datasets") or out / "datasets")
    path = dataset_dir / cfg.train.dataset / f"{split}.jsonl"
    if not path.exists():
        raise UsageError(f"dataset split not found: {path}")
    samples = read_samples(path)
    if not samples:
        raise UsageError(f"dataset split is empty: {path}")
    return samples


def cmd_train(args) -> int:
    cfg = _load_run_config(args)
    out = Path(args.out)
    train_set = _load_split(cfg, out, "train")
    dev_set = _load_split(cfg, out, "dev")
    variant = cfg.model.variant
    model_cls = VARIANTS[variant]
    ckpt_dir = out / "checkpoints"
    ckpt_dir.mkdir(parents=True, exist_ok=True)
    ckpt_path = ckpt_dir / f"{variant}_{cfg.train.dataset}.json"

    if hasattr(model_cls, "fit"):  # baselines fitted in one call: no epochs, no history
        model = model_cls(cfg.model)
        model.fit(train_set)
        save_checkpoint(ckpt_path, model, dataset_id=cfg.train.dataset)
        acc = evaluate(model, dev_set).accuracy
        print(f"{variant} dev accuracy={acc:.4f}")
        return 0

    vocab = build_vocab(train_set)
    emb_rng = Rng(cfg.sub_seed("embeddings"))
    emb_path = cfg.paths.get("embeddings")
    if emb_path:
        embeddings = load_embeddings(emb_path, vocab, emb_rng, cfg.model.embed_dim,
                                     out / "cache")
    else:
        embeddings = build_embedding_table(vocab, emb_rng, cfg.model.embed_dim)
    model = model_cls(cfg.model, vocab, embeddings, rng=Rng(cfg.sub_seed("init")))
    result = train(model, train_set, dev_set, cfg.train, rng=Rng(cfg.sub_seed("train")))
    save_checkpoint(ckpt_path, model, dataset_id=cfg.train.dataset,
                    extra={"best_epoch": result.best_epoch,
                           "best_dev_accuracy": result.best_accuracy})
    history_path = out / "reports" / f"history_{variant}_{cfg.train.dataset}.jsonl"
    history_path.parent.mkdir(parents=True, exist_ok=True)
    atomic_write(history_path, lambda f: f.writelines(
        json.dumps(record.to_dict(), separators=(",", ":")) + "\n" for record in result.history))
    print(f"{variant} best dev accuracy={result.best_accuracy:.4f} "
          f"(epoch {result.best_epoch}) -> {ckpt_path}")
    return 0


def cmd_eval(args) -> int:
    out = Path(args.out)
    model, dataset_id = load_checkpoint(args.checkpoint)
    data = read_samples(args.data)
    if not data:
        raise UsageError(f"no samples in {args.data}")
    report = evaluate(model, data, model_id=Path(args.checkpoint).stem,
                      dataset_id=dataset_id or Path(args.data).stem)
    report_path = out / "reports" / f"eval_{Path(args.checkpoint).stem}_{Path(args.data).stem}.json"
    _write_json(report_path, report.to_dict())
    print(f"accuracy={report.accuracy:.6f} -> {report_path}")
    return 0


def cmd_compare(args) -> int:
    out = Path(args.out)
    model_a, dataset_a = load_checkpoint(args.checkpoint_a)
    model_b, dataset_b = load_checkpoint(args.checkpoint_b)
    if dataset_a and dataset_b and dataset_a != dataset_b:
        raise UsageError(
            f"checkpoints were trained on different datasets: {dataset_a!r} vs {dataset_b!r}")
    data = read_samples(args.data)
    if not data:
        raise UsageError(f"no samples in {args.data}")
    labels = [sample_target(s) for s in data]
    preds_a = model_a.predict_labels(data)
    preds_b = model_b.predict_labels(data)
    table = contingency(preds_a, preds_b, labels)
    result = mcnemar(table)
    doc = {
        "model_a": Path(args.checkpoint_a).stem,
        "model_b": Path(args.checkpoint_b).stem,
        "n": table.total,
        "contingency": table.to_dict(),
        "mcnemar": result.to_dict(),
        "verdict": f"significant at {ALPHA}" if result.significant else "not significant",
    }
    report_path = out / "reports" / (
        f"compare_{Path(args.checkpoint_a).stem}_vs_{Path(args.checkpoint_b).stem}.json")
    _write_json(report_path, doc)
    print(f"chi2={result.chi2:.4f} p={result.p:.3g} ({doc['verdict']}) -> {report_path}")
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="presup",
        description="Detect contexts licensing adverbial presupposition triggers")
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p):
        p.add_argument("--config", help="JSON run config")
        p.add_argument("--seed", type=int, default=None, help="override global seed")
        p.add_argument("--out", default="out", help="output directory")
        p.add_argument("--set", action="append", default=[], metavar="KEY=VALUE",
                       help="override a config leaf key (repeatable)")

    p = sub.add_parser("extract", help="mine datasets from an annotated corpus")
    common(p)
    p.set_defaults(fn=cmd_extract)

    p = sub.add_parser("train", help="train a model variant on an extracted dataset")
    common(p)
    p.set_defaults(fn=cmd_train)

    p = sub.add_parser("eval", help="evaluate a checkpoint on a sample file")
    common(p)
    p.add_argument("--checkpoint", required=True)
    p.add_argument("--data", required=True, help="sample .jsonl file")
    p.set_defaults(fn=cmd_eval)

    p = sub.add_parser("compare", help="contingency table + McNemar for two checkpoints")
    common(p)
    p.add_argument("--checkpoint-a", required=True)
    p.add_argument("--checkpoint-b", required=True)
    p.add_argument("--data", required=True, help="sample .jsonl file")
    p.set_defaults(fn=cmd_compare)
    return parser


# a path argument that is missing, names a directory, runs through a file
# or is longer than the file system allows: usage errors, not failures
BAD_PATH = (errno.ENOENT, errno.EISDIR, errno.ENOTDIR, errno.ENAMETOOLONG)


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.fn(args)
    except Exception as e:
        if isinstance(e, (UsageError, ParseError)) or \
                isinstance(e, OSError) and e.errno in BAD_PATH:  # its message names the path
            print(f"error: {e}", file=sys.stderr)
            return 2
        print(f"error: {type(e).__name__}: {e}", file=sys.stderr)  # runtime failure
        return 1


if __name__ == "__main__":
    sys.exit(main())
