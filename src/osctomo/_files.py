"""The package's one rule for writing a text file: overwrite it in place.

``open(path, "w")`` truncates an existing file to zero when it opens it,
so the file system frees its blocks and then allocates new ones for the
same bytes.  Writing over the old bytes and cutting the file to the
written length afterwards writes the same file for a fraction of that
cost when the file already exists.  The file keeps its inode, its mode
and, for a symlink, its target, as with ``open(path, "w")``.  A write
that is interrupted leaves the old file's tail after the new bytes
instead of a short file.
"""

from __future__ import annotations

import os
import stat


def _open_without_truncating(path, flags: int) -> int:
    return os.open(path, flags & ~os.O_TRUNC, 0o666)


def write_in_place(path, text: str) -> None:
    """Write ``text`` to ``path`` with ``Path.write_text``'s encoding and
    newline handling, over an existing file instead of truncating it first.

    Only a regular file is then cut to the written length, so a character
    device or a FIFO, such as ``os.devnull``, takes the text as before.
    """
    with open(path, "w", opener=_open_without_truncating) as fh:
        fh.write(text)
        if stat.S_ISREG(os.fstat(fh.fileno()).st_mode):
            fh.truncate()
