"""The body of a figure CSV: ``"%.12g"`` with array operations.

A value becomes a field of 32 ASCII bytes, NUL where a character is left
out: a prefix word (the sign, and "0." and zeros for exponents -4..-1),
four 4-byte digit groups with the point in its group, and a suffix word
("e-05").  The first and the last byte of a field stay NUL, for the
separators of a row.  A block of rows is a run of such fixed-width fields,
and ``bytes.translate`` drops its NULs.  The bytes are those of Python's
``"%.12g" % v`` for every value; Python formats the few values whose
rounding the array arithmetic cannot settle (see :func:`format_g12`).
"""

from __future__ import annotations

from collections.abc import Iterator

import numpy as np

# The tables have one row per decimal exponent X = -325..309, at X + 325,
# and a last row for zero.
_ROWS = 636
_ZERO_ROW = _ROWS - 1
_BLOCK_VALUES = 4096  # values per block: every temporary stays small


def _three_digits(n: np.ndarray) -> np.ndarray:
    """The three ASCII digits of each integer 0..999 in ``n``, on a new last axis."""
    return (n[..., None] // np.array([100, 10, 1]) % 10 + ord("0")).astype(np.uint8)


def _decimal_tables():
    x = np.arange(-325, _ROWS - 325)
    x[_ZERO_ROW] = 0
    fixed = (x >= -4) & (x < 12)
    power = ~fixed
    power[_ZERO_ROW] = False

    # 10**(11 - X) as two factors, so that neither overflows, each correctly
    # rounded: parsed from "1e-149" .. "1e+168"
    k = np.arange(-149, 169)
    text = np.empty((k.size, 6), np.uint8)
    text[:, :2] = np.frombuffer(b"1e", np.uint8)
    text[:, 2] = np.where(k < 0, ord("-"), ord("+"))
    text[:, 3:] = _three_digits(np.abs(k))
    pow10 = text.view("S6").ravel().astype(float)
    half = (11 - x) // 2
    scale = pow10[np.stack([half, 11 - x - half]) - k[0]]

    # A digit group g = 0..999 in one of 5 modes: 0 all fractional, 1-3 the
    # point before its digit 0, 1 or 2, 4 all integer; and whether a nonzero
    # group follows.  Fractional digits after the last nonzero one are cut,
    # and the point with them when no fractional digit is left.
    digits = _three_digits(np.arange(1000))
    nonzero = digits != ord("0")
    last = np.where(nonzero.any(axis=1), 2 - np.argmax(nonzero[:, ::-1], axis=1), -1)
    groups = np.zeros((2, 5, 1000, 4), np.uint8)
    for later in (0, 1):
        for mode, first_fraction in enumerate((0, 0, 1, 2, 3)):
            kept = (np.arange(3) < first_fraction) | (np.arange(3) <= last[:, None])
            kept = np.where(later | kept, digits, 0)
            if mode in (0, 4):
                groups[later, mode, :, :3] = kept
                continue
            at = mode - 1
            groups[later, mode, :, :at] = kept[:, :at]
            groups[later, mode, :, at] = np.where(later | (last >= first_fraction), ord("."), 0)
            groups[later, mode, :, at + 1 :] = kept[:, at:]
    groups = groups.view(np.uint32).ravel()
    # the mode of each group: the point goes before digit X + 1 in fixed
    # notation, before digit 1 in exponent form; -3 puts every group in mode 0
    point = np.where(fixed, np.where(x >= 0, x + 1, -3), 1)
    point[_ZERO_ROW] = -3
    mode = 1000.0 * (np.clip(point - np.array([0, 3, 6, 9])[:, None], -1, 3) + 1)

    prefix = np.zeros((2, x.size, 8), np.uint8)  # without and with the sign
    prefix[1, :, 1] = ord("-")
    prefix[:, _ZERO_ROW, 2] = ord("0")
    for n in range(1, 5):  # X = -n: "0." and n - 1 zeros
        prefix[:, 325 - n, 2 : 3 + n] = np.frombuffer(b"0.000"[: n + 1], np.uint8)
    suffix = np.zeros((x.size, 8), np.uint8)
    suffix[power, 0] = ord("e")
    suffix[power, 1] = np.where(x[power] < 0, ord("-"), ord("+"))
    suffix[power, 2:5] = _three_digits(np.abs(x[power]))
    suffix[power & (np.abs(x) < 100), 2] = 0  # at least two exponent digits
    return scale, groups, mode, prefix.view(np.uint64).ravel(), suffix.view(np.uint64).ravel()


_SCALE, _GROUPS, _GROUP_MODE, _PREFIX, _SUFFIX = _decimal_tables()


def format_g12(a: np.ndarray, fields: np.ndarray | None = None) -> np.ndarray:
    """``"%.12g" % v`` for each ``v`` of ``a``, written into ``fields``, a
    (a.size, 4) uint64 array (a new one by default).  Returns the fields as
    (a.size, 32) bytes: a row's bytes without its NULs are the text.
    """
    a = a.ravel()
    if fields is None:
        fields = np.empty((a.size, 4), np.uint64)
    mag = np.abs(a)
    zero = mag == 0
    finite = np.isfinite(mag)
    work = np.where(finite & ~zero, mag, 1.0)
    # the mantissa m = work * 10**(11 - X) lies in [1e11, 1e12) for the
    # right X; log10 may be off by one next to a power of 10
    row = np.floor(np.log10(work)).astype(np.intp) + 325
    m = work * _SCALE[0][row] * _SCALE[1][row]
    off = np.flatnonzero((m < 1e11) | (m >= 1e12))
    if off.size:
        row[off] += np.where(m[off] < 1e11, -1, 1)
        m[off] = work[off] * _SCALE[0][row[off]] * _SCALE[1][row[off]]
    # m takes 4 roundings of at most half an ulp (two table factors, two
    # products), so it is within 4 * 2**-53 * 1e12 = 4.4e-4 of the exact
    # product, and rint(m) is the exact product correctly rounded unless
    # that lies within 4.4e-4 of a half-integer.  Python's "%.12g" formats
    # what is within 1e-3 of one (ties included), a mantissa rounded up to
    # 1e12 (a carry into the exponent) and the non-finite values.
    r = np.rint(m)
    slow = (np.abs(m - r) > 0.499) | (r < 1e11) | (r >= 1e12) | ~finite
    blank = zero | slow
    r[blank] = 0.0
    row[blank] = _ZERO_ROW
    fields[:, 0] = _PREFIX[row + np.signbit(a) * _ROWS]
    groups = fields.view(np.uint32)[:, 2:6]
    for k, unit in enumerate((1e9, 1e6, 1e3, 1.0)):
        g = np.floor(r / unit)
        r -= g * unit
        # a nonzero digit in a later group keeps this group's trailing zeros
        groups[:, k] = _GROUPS[(g + _GROUP_MODE[k][row] + 5000.0 * (r != 0)).astype(np.intp)]
    fields[:, 3] = _SUFFIX[row]
    text = fields.view(np.uint8)
    slow = np.flatnonzero(slow)
    if slow.size:
        exact = np.array([b"%.12g" % v for v in a[slow].tolist()], dtype="S30")
        text[slow, 1:-1] = exact.view(np.uint8).reshape(-1, 30)
    return text


def _left_justified(fields: np.ndarray) -> np.ndarray:
    """Each row of ``fields`` without its NULs, NUL-padded to the longest."""
    lengths = np.count_nonzero(fields, axis=1)
    text = np.zeros((len(fields), lengths.max()), np.uint8)
    text[np.arange(text.shape[1]) < lengths[:, None]] = np.frombuffer(
        fields.tobytes().translate(None, b"\0"), np.uint8)
    return text


def csv_rows(first: np.ndarray, second: np.ndarray, values: np.ndarray) -> Iterator[str]:
    """The rows ``"%.12g,%.12g,%.12g\\n" % (a, b, values[j, i])`` for
    ``a = first[i]``, ``b = second[j]``, ``i`` varying fastest, as text in
    blocks of whole slices.

    A generator: each block is yielded as soon as it is formatted, in one
    row buffer that every block reuses, so a writer that streams the
    blocks holds one block of text at a time, never the whole body.
    """
    fields = format_g12(np.concatenate([first, second]))
    a, b = _left_justified(fields[: first.size]), _left_justified(fields[first.size :])
    # the words of a row before its value: "a,b" and NULs
    width = -(-(a.shape[1] + 1 + b.shape[1]) // 8)
    a_words = np.zeros((first.size, 8 * width), np.uint8)
    a_words[:, : a.shape[1]] = a
    a_words[:, a.shape[1]] = ord(",")
    b_words = np.zeros((second.size, 8 * width), np.uint8)
    b_words[:, a.shape[1] + 1 : a.shape[1] + 1 + b.shape[1]] = b
    a_words, b_words = a_words.view(np.uint64), b_words.view(np.uint64)
    per_block = min(second.size, max(1, _BLOCK_VALUES // first.size))
    rows = np.empty((per_block * first.size, width + 4), np.uint64)
    for j in range(0, second.size, per_block):
        n = min(per_block, second.size - j)
        block = rows[: n * first.size]
        head = block[:, :width].reshape(n, first.size, width)
        for w in range(width):
            np.bitwise_or(a_words[:, w], b_words[j : j + n, w, None], out=head[..., w])
        format_g12(values[j : j + n], block[:, width:])
        text = block.view(np.uint8)
        text[:, 8 * width] = ord(",")
        text[:, -1] = ord("\n")
        yield text.tobytes().translate(None, b"\0").decode("ascii")
