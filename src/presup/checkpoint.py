"""Self-describing JSON model checkpoints.

A checkpoint is an envelope (format, dataset, variant) around the model's
own ``state()``: for the neural variants the config, the vocabulary, every
named parameter tensor and the frozen embedding matrix, so loading
reproduces evaluation outputs exactly. Arrays are written as base64 float64
bytes (v2); v1 files, which hold them as lists of floats, are still read. A checkpoint is written atomically and fsynced.
"""

from __future__ import annotations

import json
import os

from .errors import UsageError
from .fileio import atomic_write
from .models import VARIANTS

FORMAT = "presup-checkpoint-v2"
READABLE = ("presup-checkpoint-v1", FORMAT)


def save_checkpoint(path, model, dataset_id: str = "", extra: dict | None = None) -> None:
    doc = {"format": FORMAT, "dataset": dataset_id, "variant": model.variant,
           **model.state()}
    if extra:
        doc["extra"] = extra

    def write(f):  # json.dump streams: no second copy of the arrays' text
        json.dump(doc, f, ensure_ascii=False, separators=(",", ":"))
        f.write("\n")
        f.flush()
        os.fsync(f.fileno())  # a checkpoint costs a training run: keep it through a power cut
    atomic_write(path, write)


def load_checkpoint(path):
    """Returns (model, dataset_id); the model exposes predict_labels. A file
    that is not a well-formed checkpoint is a UsageError naming the path and
    the offending field."""
    with open(path, "r", encoding="utf-8") as f:
        try:
            doc = json.load(f)
        except ValueError as e:  # truncated or not JSON at all
            raise UsageError(f"{path}: not valid JSON ({e})") from None
    if not hasattr(doc, "get") or doc.get("format") not in READABLE:
        raise UsageError(f"{path}: not a {' or '.join(READABLE)} file")
    cls = VARIANTS.get(str(doc.get("variant")))
    if cls is None:
        raise UsageError(f"{path}: unknown variant {doc.get('variant')!r}")
    try:
        model = cls.from_state(doc)
    except UsageError as e:
        raise UsageError(f"{path}: {e}") from None
    return model, doc.get("dataset", "")
