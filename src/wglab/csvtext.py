"""CSV text of column tables, rendered a block of rows at a time.

`csv_lines` and `write_csv` take a header and equal-length columns.  A
numpy float, bool or int64 column is rendered without a Python string
per cell: each block of up to `_BLOCK_ROWS` rows lays every column out
as fixed-width byte slots, one uint8 vector of the block's cells per
slot, NUL where a cell has no byte; the block's slots and separators,
read row by row without the NULs, are its text.  Floats read as
`config.format_float` writes them (12 significant digits, `%g` layout),
ints as `str`, bools as "true"/"false".  Every cell the slots do not
decide takes one fallback, `_cell` (`format_float` or `str`), which is
also the slots' oracle: floats the slots cannot decide, -0, nan and the
infinities, and every cell of any other column (other integer dtypes,
an int64 column holding -2^63, lists and object arrays).  No cell text
holds a NUL byte.
"""

from __future__ import annotations

import functools

import numpy as np

from .config import format_float


def _cell(v) -> str:
    """One CSV cell by value: floats at 12 significant digits, bools
    lowercase.  The one fallback of the byte slots, and their oracle."""
    if isinstance(v, bool):
        return "true" if v else "false"
    if isinstance(v, float):
        return format_float(v)
    return str(v)


# rows per rendered block: a block's byte slots take about 0.4 KB per
# row, so 2^14 rows bound the renderer's transient arrays near 10 MB
_BLOCK_ROWS = 1 << 14
_POW10 = np.array([float(10 ** i) for i in range(23)])  # exact in float64
# a float cell's 33 byte slots: sign, "0.000", the 12 digits with a "."
# slot after each of the first 11, then "e+XX"
_F_LEAD, _F_DIGIT, _F_EXP, _F_SLOTS = 1, 6, 29, 33


@functools.cache
def _group_tables() -> tuple[np.ndarray, np.ndarray]:
    """The text of g in 0..9999 as "%04d", row i holding its i-th digit,
    and how many of the four digits are left once trailing zeros go.
    Built on first use: a process that writes no CSV never pays for them."""
    digits = np.array([
        np.tile(np.repeat(np.arange(48, 58, dtype=np.uint8), 10 ** (3 - i)), 10 ** i)
        for i in range(4)
    ])
    significant = np.max((digits != ord("0")) * np.arange(1, 5, dtype=np.uint8)[:, None], axis=0)
    return digits, significant


def _digits(groups: list[np.ndarray]) -> np.ndarray:
    """(4 * len(groups), n) ASCII digits of 4-digit groups, most
    significant group first."""
    table = _group_tables()[0]
    out = np.empty((4 * len(groups), groups[0].size), np.uint8)
    for k, g in enumerate(groups):
        for i in range(4):
            np.take(table[i], g, out=out[4 * k + i])
    return out


def _byte(mask: np.ndarray, char: str) -> np.ndarray:
    """char where mask holds, NUL elsewhere."""
    return np.multiply(mask, ord(char), dtype=np.uint8)


def _put(text: np.ndarray, at: np.ndarray, part: np.ndarray) -> None:
    """Write the cells of part into columns `at` of text."""
    for j in range(part.shape[0]):
        text[j, at] = part[j]
    text[part.shape[0]:, at] = 0


def _text_segment(texts) -> np.ndarray:
    """Byte slots of cell texts: column j of the (width, cells) array
    holds cell j left-aligned, NUL-padded."""
    raw = [t.encode() for t in texts]
    width = max(map(len, raw), default=0)
    flat = b"".join(r.ljust(width, b"\0") for r in raw)
    return np.frombuffer(flat, np.uint8).reshape(len(raw), width).T


def _float_slots(v: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Byte slots of finite nonzero float64 cells as `format_float` writes
    them, and the mask of cells this route cannot decide: |v| outside
    [1e-11, 1e33), a value next to a power of ten whose decade log10
    misses, or a 12-digit rounding within 1e-3 of a tie (the scaled
    value is off the exact one by at most half an ulp of 2^40, 6.1e-5)."""
    a = np.abs(v)
    ok = (a >= 1e-11) & (a < 1e33)
    a[~ok] = 1.0
    e = np.floor(np.log10(a)).astype(np.int64)
    np.clip(e, -11, 33, out=e)
    # s = a * 10^(11 - e) with one rounding: 10^|11 - e| <= 10^22 is exact
    power = _POW10[np.abs(11 - e)]
    s = np.where(e <= 11, a * power, a / power)
    m = np.rint(s)
    ok &= (s >= 1e11) & (s < 1e12) & (np.abs(s - m) < 0.499)
    carry = m == 1e12  # rounds up into the next decade
    m[carry] = 1e11
    e += carry
    # the three 4-digit groups of m, exact in float64 below 2^53
    hi = np.floor(m / 1e8)
    mid = np.floor((m - hi * 1e8) / 1e4)
    groups = [g.astype(np.intp) for g in (hi, mid, m - hi * 1e8 - mid * 1e4)]
    # significant digits left once %g strips the trailing zeros
    significant = _group_tables()[1]
    nd = np.where(
        groups[2] > 0, 8 + significant[groups[2]],
        np.where(groups[1] > 0, 4 + significant[groups[1]], significant[groups[0]]),
    )
    fixed = (e >= -4) & (e < 12)
    small = fixed & (e < 0)
    text = np.zeros((_F_SLOTS, v.size), np.uint8)
    text[0] = _byte(v < 0, "-")
    if small.any():
        text[_F_LEAD] = _byte(small, "0")
        text[_F_LEAD + 1] = _byte(small, ".")
        for z in range(1, 4):  # 0.0ddd down to 0.000ddd
            text[_F_LEAD + 1 + z] = _byte(small & (e <= -1 - z), "0")
    # fixed point writes every integer digit, trailing zeros or not
    shown = np.maximum(nd, np.where(fixed, e + 1, 0))
    text[_F_DIGIT:_F_EXP:2] = _digits(groups)
    for j in range(int(shown.min(initial=12)), 12):
        text[_F_DIGIT + 2 * j] *= j < shown
    dot = np.where(fixed, e, 0)
    dot[small | (nd <= dot + 1)] = -1
    for j in np.flatnonzero(np.bincount(dot + 1, minlength=12)[1:]):
        text[_F_DIGIT + 1 + 2 * j] = _byte(dot == j, ".")
    if not fixed.all():
        sci = ~fixed
        text[_F_EXP] = _byte(sci, "e")
        text[_F_EXP + 1] = _byte(sci & (e < 0), "-") + _byte(sci & (e >= 0), "+")
        text[_F_EXP + 2:] = _digits([np.abs(e)])[2:] * sci
    return text, ~ok


def _float_segment(col: np.ndarray) -> np.ndarray:
    """Byte slots of a float column: +0 reads "0", and the finite nonzero
    cells `_float_slots` decides read from its slots.  Every other cell
    (the undecided ones, -0, nan and the infinities) goes through `_cell`."""
    col = col.astype(np.float64, copy=False)
    live = np.flatnonzero(np.isfinite(col) & (col != 0))
    part, undecided = _float_slots(col[live])
    if live.size == col.size:
        return _scalar_cells(part, col, live[undecided])
    text = np.zeros((_F_SLOTS, col.size), np.uint8)
    text[0] = ord("0")
    _put(text, live, part)
    rest = (col != 0) | np.signbit(col)  # every cell but +0
    rest[live] = undecided
    return _scalar_cells(text, col, np.flatnonzero(rest))


def _scalar_cells(text: np.ndarray, col: np.ndarray, at: np.ndarray) -> np.ndarray:
    """text with the cells of col at `at` rewritten by `_cell`."""
    if at.size:
        _put(text, at, _text_segment(map(_cell, col[at].tolist())))
    return text


def _int_segment(col: np.ndarray) -> np.ndarray:
    """Byte slots of an int64 column holding no -2^63, as `str` writes it."""
    a = np.abs(col)
    width = len(str(a.max()))
    groups, rest = [], a
    for _ in range(0, width, 4):
        rest, g = np.divmod(rest, 10 ** 4)
        groups.insert(0, g)
    text = np.empty((1 + width, col.size), np.uint8)
    text[0] = _byte(col < 0, "-")
    text[1:] = _digits(groups)[-width:]
    # no leading zeros; a zero keeps its last digit
    for j in range(width - 1):
        text[1 + j] *= a >= 10 ** (width - 1 - j)
    return text


def _bool_segment(col: np.ndarray) -> np.ndarray:
    """Byte slots of a bool column: "true" or "false"."""
    true, false = (np.frombuffer(w, np.uint8)[:, None] for w in (b"true\0", b"false"))
    return np.where(col, true, false)


def _segment(col) -> np.ndarray:
    """(width, cells) byte slots of one block of a column, NUL where a
    cell has no byte: numpy float and bool arrays, and int64 arrays
    without -2^63 (which int64 cannot negate), in 1-D operations per
    slot; any other column cell by cell through `_cell`."""
    if isinstance(col, np.ndarray):
        if col.dtype.kind == "f":
            return _float_segment(col)
        if col.dtype.kind == "b":
            return _bool_segment(col)
        if col.dtype == np.int64 and col.min(initial=0) > np.iinfo(np.int64).min:
            return _int_segment(col)
        col = col.tolist()
    return _text_segment(map(_cell, col))


def _csv_blocks(header: list[str], columns: list):
    """The CSV bytes of equal-length columns, one per header field: the
    header line, then blocks of up to _BLOCK_ROWS rows.  A block stacks
    its columns' byte slots and separators, (slots, rows); read row by
    row without the NULs, they are the block's text."""
    yield (",".join(header) + "\n").encode()
    rows = min(map(len, columns), default=0)
    for lo in range(0, rows, _BLOCK_ROWS):
        n = min(rows - lo, _BLOCK_ROWS)
        segs = [_segment(col[lo:lo + n]) for col in columns]
        segs = [seg[seg.any(axis=1)] for seg in segs]  # drop slots no cell fills
        # a row stride of an odd multiple of 64 bytes spreads the
        # transposing read over the cache sets; 2^14 would hit one set
        stride = 128 * ((n + 63) // 128) + 64
        stack = np.empty((sum(len(seg) + 1 for seg in segs), stride), np.uint8)[:, :n]
        r = 0
        for seg in segs:
            stack[r:r + len(seg)] = seg
            stack[r + len(seg)] = ord(",")
            r += len(seg) + 1
        stack[-1] = ord("\n")
        yield stack.T.tobytes().translate(None, b"\0")


def csv_lines(header: list[str], columns: list) -> str:
    """CSV text of equal-length columns, one per header field."""
    return b"".join(_csv_blocks(header, columns)).decode()


def write_csv(path, header: list[str], columns: list) -> None:
    """Write the CSV of `csv_lines` to path one row block at a time."""
    with open(path, "wb") as fh:
        fh.writelines(_csv_blocks(header, columns))
