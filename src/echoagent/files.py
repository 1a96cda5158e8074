"""The one whole-file writer, for traces and indexes.

A regular file is rewritten in place and cut at its new end, never truncated
to zero first: on ext4 (``auto_da_alloc``, on by default) a truncate to zero
makes ``close()`` start writing the new data back, and a 1.3 KB trace rewrite
took 0.06-0.07 ms that way against 0.009 ms in place (2-core x86-64 host).
Any other file, such as ``/dev/null`` or a FIFO, gets a plain write. A
symlink is written through, as ``Path.write_text`` would.
"""
from __future__ import annotations

import os
import stat


def rewrite(path: str | os.PathLike, *chunks) -> None:
    """Make the byte chunks, in order, the whole content of ``path``."""
    with open(os.open(path, os.O_WRONLY | os.O_CREAT, 0o666), "wb") as fh:
        for chunk in chunks:
            fh.write(chunk)
        if stat.S_ISREG(os.fstat(fh.fileno()).st_mode):
            fh.truncate()
