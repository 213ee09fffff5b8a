"""Crash-safe output files."""

from __future__ import annotations

import os
from pathlib import Path


def atomic_write(path, write_fn) -> None:
    """Write the file ``path`` so that it holds either its old content or all
    of the new, never a part: ``write_fn(f)`` fills a temporary file in the
    same directory, which is then renamed over ``path``. ``f`` is a UTF-8 text
    file; a writer of bytes writes them to ``f.buffer``. If ``write_fn``
    raises, the temporary file is removed, ``path`` is untouched and the
    exception propagates.

    Nothing is fsynced here, because on a busy disk each fsync cost several
    milliseconds and an extract writes 19 files. A writer whose output must
    also survive a power cut fsyncs ``f`` itself before returning, as
    ``save_checkpoint`` does."""
    path = Path(path)
    tmp = path.with_name(f".{path.name}.{os.getpid()}.tmp")
    try:
        with open(tmp, "w", encoding="utf-8") as f:
            write_fn(f)
        os.replace(tmp, path)
    except BaseException:
        tmp.unlink(missing_ok=True)
        raise
