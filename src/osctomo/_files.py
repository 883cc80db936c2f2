"""The package's one rule for writing a text file: overwrite it in place,
streaming the text in parts.

``open(path, "w")`` truncates an existing file to zero when it opens it,
so the file system frees its blocks and then allocates new ones for the
same bytes.  Writing over the old bytes and cutting the file to the
written length afterwards writes the same file for a fraction of that
cost when the file already exists.  The file keeps its inode, its mode
and, for a symlink, its target, as with ``open(path, "w")``.  The text
arrives as an iterable of parts, written one at a time, so a caller that
yields its text block by block never holds the whole of it.  The file is
opened before the first part is drawn, so a caller validates what it
writes before the call: a write that is interrupted, or a part that
fails to build, leaves the old file's tail after the new bytes instead
of a short file.
"""

from __future__ import annotations

import os
import stat
from collections.abc import Iterable


def _open_without_truncating(path, flags: int) -> int:
    return os.open(path, flags & ~os.O_TRUNC, 0o666)


def write_in_place(path, parts: Iterable[str]) -> None:
    """Write the concatenation of ``parts`` to ``path`` with
    ``Path.write_text``'s encoding and newline handling, over an existing
    file instead of truncating it first, one part at a time.

    Only a regular file is then cut to the written length, so a character
    device or a FIFO, such as ``os.devnull``, takes the text as before.
    """
    with open(path, "w", opener=_open_without_truncating) as fh:
        fh.writelines(parts)
        if stat.S_ISREG(os.fstat(fh.fileno()).st_mode):
            fh.truncate()
