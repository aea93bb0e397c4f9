"""Atomic file replacement for the pipeline's outputs."""
from __future__ import annotations

import os
import secrets
from contextlib import contextmanager


@contextmanager
def atomic_write(path, mode: str = "w", **open_kwargs):
    """Open a temporary file next to ``path`` and move it there on success.

    The temporary file lives in the target directory, so the final
    ``os.replace`` is a same-filesystem rename: readers see either the old
    file or the complete new one, never a partial write.  If the block
    raises, the temporary file is removed and ``path`` is left untouched.
    """
    path = os.fspath(path)
    head, tail = os.path.split(path)
    tmp = os.path.join(head, f".{tail}.{secrets.token_hex(4)}.tmp")
    fd = os.open(tmp, os.O_WRONLY | os.O_CREAT | os.O_EXCL, 0o666)
    try:
        with os.fdopen(fd, mode, **open_kwargs) as fh:
            yield fh
        os.replace(tmp, path)
    except BaseException:
        try:
            os.unlink(tmp)
        except FileNotFoundError:
            pass
        raise
