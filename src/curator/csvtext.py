"""CPython's ``%d`` and ``%.17g`` text of a float64 table, formatted in
whole-array numpy steps.

Each cell is formatted into a fixed run of byte slots, and a slot that
prints nothing holds NUL, so one ``bytes.translate`` gives a block's text.
A ``%.17g`` cell's 17 digits come from Dekker's error-free product (Numer.
Math. 1971), which gives v * 10^(16 - e) exactly as x + y; rounding that
half to even is the correctly rounded 17-digit decimal that CPython prints.
A cell is covered only where that is proven: v is 0, or e = floor(log10|v|)
is in [-6, 16], x + y >= 10^16 and the rounded digits stay below 10^17.
A ``%d`` cell is covered where |trunc(v)| < 10^10.  A row with any cell not
covered (a value past the exponent range, a log10 off by one, a carry to
10^17, inf, NaN) is printed with the ``%`` row template instead, so every
byte is CPython's.
"""
from __future__ import annotations

import numpy as np

_POW10 = 10.0 ** np.arange(23)  # exact doubles: 10^22 is the last power of ten that is one
_SPLIT = 134217729.0  # 2^27 + 1: Veltkamp's split of a double into two 26-bit halves
# the four ASCII digits of 0..9999, one row per digit
_DIGITS4 = (np.arange(10000) // np.array([[1000], [100], [10], [1]]) % 10
            + ord("0")).astype(np.uint8)
_INT_SLOTS = 1 + 10 + 1  # sign, up to 10 digits, separator
_FLOAT_SLOTS = 1 + 5 + 18 + 4 + 1  # sign, "0.000", 17 digits and a point, "e-0x", separator
_SLOT = np.arange(18, dtype=np.int8)[:, None, None]
# the "0.000" prefix slots, and the least case that prints each
_PREFIX = np.array(list(b"0.000"), dtype=np.uint8)[:, None, None]
_PREFIX_CASE = np.array([1, 2, 3, 4, 5], dtype=np.int8)[:, None, None]
_EXPONENT = np.array(list(b"e-0"), dtype=np.uint8)[:, None, None]


def _int_slots(v: np.ndarray, out: np.ndarray) -> np.ndarray:
    """Write the slots of ``%d`` of each value of v into out, of shape
    (_INT_SLOTS - 1, *v.shape); returns which values are covered."""
    covered = np.abs(v) < 1e10  # False for NaN
    t = np.trunc(np.where(covered, v, 0.0))  # so that no NaN reaches trunc
    a = np.abs(t).astype(np.int64)
    hi = a // 10**8
    rest = a - hi * 10**8
    mid = rest // 10**4
    np.multiply(t < 0, np.uint8(ord("-")), out=out[0])
    np.take(_DIGITS4[2:], hi, axis=1, out=out[1:3], mode="clip")
    np.take(_DIGITS4, mid, axis=1, out=out[3:7], mode="clip")
    np.take(_DIGITS4, rest - mid * 10**4, axis=1, out=out[7:11], mode="clip")
    # first: the slot of the leading digit; zeros before it print nothing
    first = (9 - np.searchsorted(_POW10[1:10], a, side="right")).astype(np.int8)
    out[1:11] *= _SLOT[:10] >= first
    return covered


def _float_slots(v: np.ndarray, out: np.ndarray) -> np.ndarray:
    """Write the slots of ``%.17g`` of each value of v into out, of shape
    (_FLOAT_SLOTS - 1, *v.shape); returns which values are covered."""
    a = np.abs(v)
    zero = a == 0.0
    e = np.full(v.shape, -1.0)  # a zero prints as if its exponent were -1
    np.log10(a, out=e, where=~zero)  # inf and NaN give inf and NaN, without a warning
    np.floor(e, out=e)
    in_range = (e >= -6) & (e <= 16)  # False for NaN
    ex = np.where(in_range, e, -1.0)
    w = np.where(in_range, a, 0.0)
    # Dekker's product of w and s = 10^(16 - ex): x = fl(w * s) and x + y = w * s
    s = _POW10[(16 - ex).astype(np.intp)]
    x = w * s
    c = _SPLIT * w
    wh = c - (c - w)
    wl = w - wh
    c = _SPLIT * s
    sh = c - (c - s)
    sl = s - sh
    y = ((wh * sh - x) + wh * sl + wl * sh) + wl * sl
    # x >= 10^16 is an even integer, so rounding y half to even rounds x + y so
    digits = x.astype(np.int64) + np.rint(y).astype(np.int64)
    covered = zero | (((x > 1e16) | ((x == 1e16) & (y >= 0))) & (digits < 10**17))

    # chars: NUL, the 17 digits, NUL, so that chars[1:] and chars[:-1] hold
    # a digit in the slot before and after the point
    chars = np.empty((19, *v.shape), dtype=np.uint8)
    chars[0] = chars[18] = 0
    lead = digits // 10**16
    np.add(lead, ord("0"), out=chars[1], casting="unsafe")
    rest = digits - lead * 10**16
    hi = rest // 10**8
    for g, part in enumerate([hi, rest - hi * 10**8]):
        top = part // 10**4
        np.take(_DIGITS4, top, axis=1, out=chars[2 + 8 * g:6 + 8 * g], mode="clip")
        np.take(_DIGITS4, part - top * 10**4, axis=1, out=chars[6 + 8 * g:10 + 8 * g], mode="clip")
    # last: the index of the last nonzero digit, -1 for a zero; point: the index
    # of the digit before the point, -1 where the prefix prints the point
    last = ((chars[1:18] != ord("0")) * _SLOT[:17]).max(axis=0) - zero
    ex = ex.astype(np.int8)
    point = np.maximum(ex, -1) + (ex <= -5)
    dot = ((last > point) & (point >= 0)) * np.uint8(ord("."))
    point += 1  # the slot of the point, and the slots of the digits up to the last
    last += 1
    body = out[6:24]
    np.multiply(chars[1:], _SLOT < point, out=body)
    body += chars[:-1] * ((_SLOT > point) & (_SLOT <= last))
    body += dot * (_SLOT == point)
    # case: 0 prints the digits bare, 1 is a zero, 2..5 print "0." and 0..3
    # zeros before them, 6 and 7 print "e-05" and "e-06" after them
    case = (1 - ex) * (ex < 0) - zero
    np.multiply(np.signbit(v), np.uint8(ord("-")), out=out[0])
    np.multiply(_PREFIX, (case >= _PREFIX_CASE) & (case <= 5), out=out[1:6])
    sci = case >= 6
    np.multiply(_EXPONENT, sci, out=out[24:27])
    out[27] = (case + (ord("5") - 6)) * sci
    return covered


def format_block(block: np.ndarray, int_columns: int) -> bytes:
    """CPython's text of every row of the float64 2-d ``block``: the ``%d``
    of its first ``int_columns`` columns and the ``%.17g`` of the rest,
    comma separated, each row ending in a newline.

    The text is built slot-major, one row of ``slots`` per slot of a line,
    so every numpy step runs along the block's rows, and one transpose
    lays it out line by line."""
    rows, cols = block.shape
    split = int_columns * _INT_SLOTS
    slots = np.empty((split + (cols - int_columns) * _FLOAT_SLOTS, rows), dtype=np.uint8)
    ok = np.ones(rows, dtype=bool)
    for width, kernel, part, cells in [
            (_INT_SLOTS, _int_slots, block[:, :int_columns], slots[:split]),
            (_FLOAT_SLOTS, _float_slots, block[:, int_columns:], slots[split:])]:
        cells = cells.reshape(part.shape[1], width, rows)
        ok &= kernel(np.ascontiguousarray(part.T), cells[:, :-1].transpose(1, 0, 2)).all(axis=0)
        cells[:, -1] = ord(",")
    slots[-1] = ord("\n")
    slots = slots[slots.any(axis=1)]  # a slot that no line of the block prints is dropped whole
    if ok.all():
        return slots.T.tobytes().translate(None, b"\0")
    lines = np.ascontiguousarray(slots.T)
    template = ",".join(["%d"] * int_columns + ["%.17g"] * (cols - int_columns)) + "\n"
    parts, start = [], 0
    for r in np.flatnonzero(~ok).tolist():
        parts.append(lines[start:r].tobytes().translate(None, b"\0"))
        parts.append((template % tuple(block[r].tolist())).encode())
        start = r + 1
    parts.append(lines[start:].tobytes().translate(None, b"\0"))
    return b"".join(parts)
