"""Self-describing model checkpoints.

A checkpoint is an envelope (format, dataset, variant) around the model's
own ``state()``: for the neural variants the config, the vocabulary, every
named parameter array and the frozen embedding matrix, so loading
reproduces evaluation outputs exactly.

A v3 file is one JSON header line, then a binary tail: the raw little-endian
float64 bytes of every array, one after another. In the header each array is
``{"shape", "dtype", "offset"}``, its byte position in the tail, and
``tail_bytes`` is the tail's length. Only the header is parsed as JSON. v2
files, which hold each array as the base64 of its bytes, and v1 files, which
hold lists of floats, are still read. A checkpoint is written atomically and
fsynced.
"""

from __future__ import annotations

import base64
import json
import math
import os

import numpy as np

from .errors import UsageError
from .fileio import atomic_write
from .models import VARIANTS

FORMAT = "presup-checkpoint-v3"
READABLE = ("presup-checkpoint-v1", "presup-checkpoint-v2", FORMAT)
ARRAY_DTYPE = "<f8"  # checkpoint arrays are little-endian float64 on every host


def _place(node, tail: list):
    """``node`` with every array replaced by its header entry; the arrays are
    appended to ``tail``, in file order, as contiguous little-endian float64."""
    if isinstance(node, np.ndarray):
        offset = sum(a.nbytes for a in tail)
        tail.append(np.ascontiguousarray(node, dtype=ARRAY_DTYPE))
        return {"shape": list(node.shape), "dtype": ARRAY_DTYPE, "offset": offset}
    if isinstance(node, dict):
        return {key: _place(value, tail) for key, value in node.items()}
    return node


def save_checkpoint(path, model, dataset_id: str, extra: dict | None = None) -> None:
    tail = []
    header = _place({"format": FORMAT, "tail_bytes": 0, "dataset": dataset_id,
                     "variant": model.variant, **model.state()}, tail)
    header["tail_bytes"] = sum(a.nbytes for a in tail)
    if extra:
        header["extra"] = extra
    line = json.dumps(header, ensure_ascii=False, separators=(",", ":")) + "\n"

    def write(f):
        f.buffer.write(line.encode("utf-8"))
        for arr in tail:
            f.buffer.write(arr.data)
        f.flush()
        os.fsync(f.fileno())  # a checkpoint costs a training run: keep it through a power cut
    atomic_write(path, write)


def _array(payload, name: str, tail) -> np.ndarray:
    """A writable float64 array from the payload of the field ``name``. v3
    places it by "offset" in ``tail``, a (file, start, length) triple for the
    bytes after the header line; v2 (``tail`` None) holds its bytes as "b64";
    v1 holds a "data" list of floats, and v1 logreg weights are a bare list.
    A malformed payload is a UsageError."""
    if isinstance(payload, list):
        payload = {"shape": [len(payload)], "data": payload}

    def get(key):
        if not isinstance(payload, dict) or key not in payload:
            raise UsageError(f"field {name!r}: missing key {key!r}")
        return payload[key]

    shape = get("shape")
    if not (isinstance(shape, list) and all(type(n) is int and n >= 0 for n in shape)):
        raise UsageError(f"field {name!r}: shape {shape!r} is not a list of sizes")
    if "data" in payload:
        try:
            return np.array(payload["data"], dtype=np.float64).reshape(shape)
        except (TypeError, ValueError) as e:
            raise UsageError(f"field {name!r}: data is not {shape} floats ({e})") from None
    if get("dtype") != ARRAY_DTYPE:
        raise UsageError(f"field {name!r}: dtype {payload['dtype']!r}, "
                         f"but only {ARRAY_DTYPE!r} is read")
    size = 8 * math.prod(shape)
    if tail is None:
        try:
            raw = base64.b64decode(get("b64"), validate=True)
        except (TypeError, ValueError) as e:  # binascii.Error is a ValueError
            raise UsageError(f"field {name!r}: b64 is not base64 ({e})") from None
        if len(raw) != size:
            raise UsageError(f"field {name!r}: b64 holds {len(raw)} bytes, "
                             f"but shape {shape} needs {size}")
        # astype copies: a writable array in the host's byte order, not a view of raw
        return np.frombuffer(raw, dtype=ARRAY_DTYPE).astype(np.float64).reshape(shape)
    f, start, length = tail
    offset = get("offset")
    if type(offset) is not int or offset < 0:
        raise UsageError(f"field {name!r}: offset {offset!r} is not a byte position")
    if offset + size > length:
        raise UsageError(f"field {name!r}: offset {offset} + {size} bytes lies "
                         f"past the {length}-byte tail")
    # read straight into the array: one copy, and no buffer of the whole tail
    arr = np.empty(shape, dtype=ARRAY_DTYPE)
    f.seek(start + offset)
    if f.readinto(arr) != size:
        raise UsageError(f"field {name!r}: the file shrank while it was read")
    return arr.astype(np.float64, copy=False)  # the host's byte order


def load_checkpoint(path):
    """Returns (model, dataset_id); the model exposes predict_labels. A file
    that is not a well-formed checkpoint is a UsageError naming the path and
    the offending field."""
    with open(path, "rb") as f:
        try:
            doc = json.loads(f.readline())  # v1 and v2 files are one line
        except (ValueError, RecursionError) as e:  # truncated, not JSON, not UTF-8 or too deep
            raise UsageError(f"{path}: not valid JSON ({e})") from None
        if not hasattr(doc, "get") or doc.get("format") not in READABLE:
            raise UsageError(f"{path}: not a {' or '.join(READABLE)} file")
        cls = VARIANTS.get(str(doc.get("variant")))
        if cls is None:
            raise UsageError(f"{path}: unknown variant {doc.get('variant')!r}")
        start = f.tell()
        length = os.fstat(f.fileno()).st_size - start
        declared = doc.get("tail_bytes", 0)
        if type(declared) is not int or declared != length:
            raise UsageError(f"{path}: {length} bytes follow the header line, "
                             f"but field 'tail_bytes' is {declared!r}")
        tail = (f, start, length) if doc["format"] == FORMAT else None
        try:
            model = cls.from_state(doc, lambda payload, name: _array(payload, name, tail))
        except UsageError as e:
            raise UsageError(f"{path}: {e}") from None
    return model, doc.get("dataset", "")
