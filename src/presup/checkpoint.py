"""Self-describing JSON model checkpoints.

A checkpoint is an envelope (format, dataset, variant) around the model's
own ``state()``: for the neural variants the config, the vocabulary, every
named parameter tensor (trainable and frozen) and the frozen embedding
matrix, so loading reproduces evaluation outputs exactly.
"""

from __future__ import annotations

import json

from .errors import UsageError
from .models import VARIANTS

FORMAT = "presup-checkpoint-v1"


def save_checkpoint(path, model, dataset_id: str = "", extra: dict | None = None) -> None:
    doc = {"format": FORMAT, "dataset": dataset_id, "variant": model.variant,
           **model.state()}
    if extra:
        doc["extra"] = extra
    with open(path, "w", encoding="utf-8") as f:
        json.dump(doc, f, ensure_ascii=False, separators=(",", ":"))
        f.write("\n")


def load_checkpoint(path):
    """Returns (model, dataset_id); the model exposes predict_labels. A file
    that is not a well-formed checkpoint is a UsageError naming the path and
    the offending field."""
    with open(path, "r", encoding="utf-8") as f:
        try:
            doc = json.load(f)
        except ValueError as e:  # truncated or not JSON at all
            raise UsageError(f"{path}: not valid JSON ({e})") from None
    if not hasattr(doc, "get") or doc.get("format") != FORMAT:
        raise UsageError(f"{path}: not a {FORMAT} file")
    cls = VARIANTS.get(str(doc.get("variant")))
    if cls is None:
        raise UsageError(f"{path}: unknown variant {doc.get('variant')!r}")
    try:
        model = cls.from_state(doc)
    except UsageError as e:
        raise UsageError(f"{path}: {e}") from None
    return model, doc.get("dataset", "")
