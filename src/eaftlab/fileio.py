"""Atomic file output: a reader never sees a half-written artifact."""

from __future__ import annotations

import contextlib
import os
from pathlib import Path


@contextlib.contextmanager
def atomic_write(path, mode: str = "w", **open_kwargs):
    """Open a temporary file beside ``path`` for writing and move it onto
    ``path`` with ``os.replace`` when the block completes.

    If the block raises, the temporary file is removed and whatever was at
    ``path`` before is left untouched. The file is created with the usual
    umask-derived permissions. There is no fsync: the rename guards against
    a writer that fails mid-file, not against power loss, and a process
    killed mid-write may leave its hidden ``.tmp`` file behind.
    """
    path = Path(path)
    tmp = path.with_name(f".{path.name}.{os.getpid()}-{os.urandom(4).hex()}.tmp")
    try:
        with open(tmp, mode, **open_kwargs) as fh:
            yield fh
        os.replace(tmp, path)
    except BaseException:
        with contextlib.suppress(FileNotFoundError):
            os.unlink(tmp)
        raise
