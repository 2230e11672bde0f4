"""Write-then-rename file emission so readers never observe partial artifacts.

An artifact goes to ``<name>.tmp`` beside its target and is renamed over the
target only once every byte is written. The text may come as one string or
as an iterable of string parts written in order, so a writer can format a
large table one block at a time. If a part raises, or a write or the
rename fails, the temp file is deleted and the error re-raised: the target
keeps its previous bytes and no ``.tmp`` file is left behind.
"""
from __future__ import annotations

import os
from pathlib import Path


def atomic_write_text(path, text) -> Path:
    """Write ``text``, a string or an iterable of strings, to ``path`` atomically."""
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    tmp = path.with_name(path.name + ".tmp")
    parts = (text,) if isinstance(text, str) else text
    try:
        with open(tmp, "w") as f:
            for part in parts:
                f.write(part)
        os.replace(tmp, path)
    except BaseException:
        tmp.unlink(missing_ok=True)
        raise
    return path
