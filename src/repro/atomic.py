"""Atomic file publication for writers whose readers must never see a
torn file (caches, checkpoints, reports, trace exports)."""

from __future__ import annotations

import os
import tempfile


def atomic_write_text(path: os.PathLike, text: str) -> None:
    """Publish ``text`` at ``path`` via a unique temp file in the same
    directory and ``os.replace``: readers and concurrent writers never see
    a torn file.  The temp file is removed on failure; one left by a
    killed writer keeps its ``*.tmp`` suffix, which cache ``gc`` sweeps.
    """
    directory, name = os.path.split(os.fspath(path))
    fd, tmp = tempfile.mkstemp(dir=directory or ".", prefix=name, suffix=".tmp")
    try:
        with os.fdopen(fd, "w") as handle:
            handle.write(text)
        os.replace(tmp, path)
    except BaseException:
        try:
            os.unlink(tmp)
        except OSError:
            pass
        raise
