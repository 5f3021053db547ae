"""Atomic artifact writes.

Every artifact the CLI leaves behind (CSVs, manifests, event logs,
cache entries) is written to a same-directory temp file and
``os.replace``d into place, so a reader — or a user after an interrupt
or a crash mid-write — sees either the previous file or the complete
new one, never a truncated file that looks like a real artifact.
"""

from __future__ import annotations

import os
from contextlib import contextmanager
from pathlib import Path
from typing import Iterator, TextIO

__all__ = ["atomic_write"]


@contextmanager
def atomic_write(path: Path | str, *, encoding: str | None = None,
                 newline: str | None = None) -> Iterator[TextIO]:
    """Open ``path`` for writing text, publishing it only on success.

    Yields a handle on ``<name>.tmp-<pid>`` beside ``path`` (the pid
    lets a sweeper tell a killed writer's leftover from a live
    writer's file).  A clean exit of the ``with`` block replaces
    ``path`` with it; an exception, interrupt included, deletes it and
    leaves ``path`` absent or unchanged.  ``encoding`` and ``newline``
    mean what they mean to :func:`open`.
    """
    path = Path(path)
    tmp = path.with_name(f"{path.name}.tmp-{os.getpid()}")
    try:
        with tmp.open("w", encoding=encoding, newline=newline) as handle:
            yield handle
        os.replace(tmp, path)
    finally:
        tmp.unlink(missing_ok=True)
