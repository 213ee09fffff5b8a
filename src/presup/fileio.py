"""Crash-safe output files, and UTF-8 input files whose undecodable bytes
are a ParseError that names the file and the line."""

from __future__ import annotations

import os
import re
from pathlib import Path

from .errors import ParseError

_ESCAPED_BYTE = re.compile("[\udc80-\udcff]")


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


def undecodable(path) -> ParseError:
    """The ParseError for a text file that is not valid UTF-8: it names the
    file, the first line holding a bad byte, and that byte. The file is read
    again to find the line, so a reader pays for this only on failure. Lines
    are counted as a text-mode reader counts them."""
    with open(path, "r", encoding="utf-8", errors="surrogateescape") as f:
        for lineno, line in enumerate(f, start=1):
            bad = _ESCAPED_BYTE.search(line)
            if bad:
                byte = ord(bad.group()) - 0xDC00
                return ParseError(f"not valid UTF-8 (byte 0x{byte:02x})", line=lineno, path=path)
    return ParseError("not valid UTF-8", path=path)


def text_lines(path):
    """(line number, line) of each line of the UTF-8 text file at `path`,
    counted from 1; a byte that is not UTF-8 raises undecodable(path)."""
    with open(path, "r", encoding="utf-8") as f:
        try:
            yield from enumerate(f, start=1)
        except UnicodeDecodeError:
            raise undecodable(path) from None
