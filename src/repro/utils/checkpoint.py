"""Crash-safe file writes for sweep stores, golden files and artifacts.

All writes here are *atomic*: content lands in a temporary file in the
destination directory, is fsynced, and is moved into place with
:func:`os.replace`.  A reader therefore observes either the old complete
file or the new complete file — never a truncated half-write — which is
what the resumable sweep stores rely on to survive kills mid-persist.
"""

from __future__ import annotations

import os
import tempfile
from pathlib import Path


def atomic_write_bytes(path: str | Path, payload: bytes) -> Path:
    """Write ``payload`` to ``path`` atomically (temp file + ``os.replace``)."""
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    descriptor, tmp_name = tempfile.mkstemp(
        dir=path.parent, prefix=path.name + ".", suffix=".tmp"
    )
    try:
        # repro-lint: disable=no-raw-write -- this IS the atomic writer: the raw write targets a same-directory temp file, fsyncs, and os.replace()s into place
        with os.fdopen(descriptor, "wb") as handle:
            handle.write(payload)
            handle.flush()
            os.fsync(handle.fileno())
        # mkstemp creates 0600; give the final file the ordinary
        # umask-derived mode so artifacts stay readable by whoever could
        # read a plainly-written file.
        umask = os.umask(0)
        os.umask(umask)
        os.chmod(tmp_name, 0o666 & ~umask)
        os.replace(tmp_name, path)
    except BaseException:
        try:
            os.unlink(tmp_name)
        except OSError:
            pass
        raise
    return path


def atomic_write_text(path: str | Path, text: str) -> Path:
    """Write ``text`` (UTF-8) to ``path`` atomically."""
    return atomic_write_bytes(path, text.encode("utf-8"))


def atomic_write_lines(path: str | Path, lines) -> Path:
    """Stream ``lines`` (newline-free strings) to ``path`` atomically.

    Unlike :func:`atomic_write_text`, the payload is written line by line
    as the iterable produces it, so a caller can emit millions of lines
    (e.g. a sweep-store compaction) without ever holding the whole file in
    memory.  Same crash-safety contract: temp file in the destination
    directory, fsync, ``os.replace``.
    """
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    descriptor, tmp_name = tempfile.mkstemp(
        dir=path.parent, prefix=path.name + ".", suffix=".tmp"
    )
    try:
        # repro-lint: disable=no-raw-write -- same atomic-writer internals as atomic_write_bytes: temp file, fsync, os.replace
        with os.fdopen(
            descriptor, "w", encoding="utf-8", newline="\n"
        ) as handle:
            for line in lines:
                handle.write(line)
                handle.write("\n")
            handle.flush()
            os.fsync(handle.fileno())
        umask = os.umask(0)
        os.umask(umask)
        os.chmod(tmp_name, 0o666 & ~umask)
        os.replace(tmp_name, path)
    except BaseException:
        try:
            os.unlink(tmp_name)
        except OSError:
            pass
        raise
    return path
