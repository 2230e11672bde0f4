"""Write-then-rename file emission, and the exact '%.17g' text of float tables.

An artifact goes to ``<name>.tmp`` beside its target and is renamed over the
target only once every byte is written. The text may come as one string or
as an iterable of string parts written in order, so a writer can format a
large table one chunk of rows at a time. If a part raises, or a write or the
rename fails, the temp file is deleted and the error re-raised: the target
keeps its previous bytes and no ``.tmp`` file is left behind.

format_rows writes a float table as comma-separated '%.17g' fields, byte for
byte the text of Python's '%' operator, with the digits computed in numpy;
format_chunks yields the same text one chunk of rows at a time.
'%.17g' prints N * 10**(E - 16), where E is the decimal exponent of |x| and
N = |x| * 10**(16 - E) rounded half to even, an integer in [1e16, 1e17]. For
1e-27 <= |x| < 1e17, N is exact:

- E comes from log10, and the product P = |x| * 10**k (k = 16 - E) is held as
  a pair of doubles h + l by Dekker's TwoProduct ("A floating-point technique
  for extending the available precision", 1971) with the exact power 10**k
  (k <= 22). log10's exponent can be one off next to a power of ten; the exact
  pair is compared with 1e16 and 1e17 and the product redone at k +- 1.
- P >= 1e16 > 2**53, so h is an even integer, and rounding h + l half to even
  is h + rint(l).
- N = 1e17 would carry into E + 1. That needs P within 0.5 of 1e17, so h on
  1e17, and such values fall back (of the doubles in range, only 1e-14
  rounds up so).
- For 22 < k <= 44 (|x| < 1e-6) the product takes two steps, 10**22 and
  10**(k - 22), and the pair carries an error below 1e-14. A value within
  1e-9 of a rounding tie is left to the fallback. The error could also move
  a comparison with 1e16, but only for |x| within two ulps of a power of
  ten, and the tests format every such double.

The 17 digits come from a table of 4-digit groups. Each value is laid out in
48 bytes (six little-endian words): sign, the "0.000" prefix of
-4 <= E < 0, the digits with a slot for '.' after each, the "e-XX" suffix of
E < -4 and the separator. Unused bytes are NUL, and one bytes.translate per
call drops them all: trailing zeros, a bare '.', and everything %g omits.
0, -0, nan and +-inf take fixed templates. What is left, subnormals,
|x| < 1e-27, |x| >= 1e17 and the near ties above, is formatted one value at a
time with '%.17g'.
"""
from __future__ import annotations

import os
from pathlib import Path

import numpy as np


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


# values formatted per call: its temporaries peak near 250 bytes a value
_CHUNK = 2560
_TINY = 1e-27  # the least |x| on the exact path: k = 16 - E <= 44
_GUARD = 1e-9  # distance from a rounding tie within which a two-step product falls back

_SPLIT = 134217729.0  # 2**27 + 1, Veltkamp's splitter
_POW10 = np.array([10.0**k for k in range(23)])  # exact up to 10**22
_POW10_HI = _POW10 * _SPLIT - (_POW10 * _SPLIT - _POW10)
_POW10_LO = _POW10 - _POW10_HI

_WORD = np.dtype("<u8")
_E_OFF = 28  # exponents -28..16 index rows 0..44 of the per-exponent tables
# the four ASCII digits of 0..9999, one per even byte of a word, and their
# trailing zeros (0 has four), built from those of 0..99
_PAIRS = np.arange(100)
_DIGITS2 = (_PAIRS // 10 + 48) | (_PAIRS % 10 + 48) << 16
_DIGITS4 = (_DIGITS2[:, None] | _DIGITS2 << 32).astype(_WORD).ravel()
_TRAILING2 = (_PAIRS % 10 == 0).astype(np.intp) + (_PAIRS == 0)
_TRAILING4 = np.where(_PAIRS == 0, 2 + _TRAILING2[:, None], _TRAILING2).astype(np.uint8).ravel()
# per exponent: word 0's "0.000" prefix (bytes 1-5), word 5's suffix and
# separator, the index of the last integer digit, and the digit '.' follows
# (16: none, as in "0.00123" or "12345678901234567")
_PREFIX = np.zeros(45, _WORD)
_SUFFIX = np.full(45, 44 << 56, _WORD)  # ',' in byte 7
_INT_LAST = np.zeros(45, np.intp)
_DOT_AFTER = np.zeros(45, np.intp)
for _e in range(-28, 17):
    if _e < -4:
        _SUFFIX[_e + _E_OFF] |= int.from_bytes(b"e-%02d" % -_e, "little")
    elif _e < 0:
        _PREFIX[_e + _E_OFF] = int.from_bytes(b"0.000"[: 1 - _e], "little") << 8
        _DOT_AFTER[_e + _E_OFF] = 16
    else:
        _INT_LAST[_e + _E_OFF] = _DOT_AFTER[_e + _E_OFF] = _e
# words 1-4 keeping digits 1..L-1 of 17, for L = 0..17
_KEEP = np.zeros((18, 4), _WORD)
for _n in range(18):
    for _j in range(1, _n):
        _KEEP[_n, (_j - 1) // 4] |= 0xFF << (16 * ((_j - 1) % 4))
# word 0 and words 1-4 holding a '.' after digit q, for q = 0..16 (16: none)
_DOT_LEAD = np.zeros(17, _WORD)
_DOT_LEAD[0] = 46 << 56
_DOT = np.zeros((17, 4), _WORD)
for _q in range(1, 16):
    _DOT[_q, (_q - 1) // 4] = 46 << (16 * ((_q - 1) % 4) + 8)
# bytes 0-46 of 0, -0, nan, inf and -inf ('%g' prints no sign on a NaN)
_SPECIAL = np.zeros((5, 47), np.uint8)
for _i, _s in enumerate([b"0", b"-0", b"nan", b"inf", b"-inf"]):
    _SPECIAL[_i, : len(_s)] = np.frombuffer(_s, np.uint8)


def _times_pow10(a, k):
    """(p, e) with p = fl(a * 10**k) and p + e = a * 10**k exactly, for k <= 22."""
    p = a * np.take(_POW10, k)
    t = a * _SPLIT
    hi = t - (t - a)
    lo = a - hi
    ch, cl = np.take(_POW10_HI, k), np.take(_POW10_LO, k)
    return p, ((hi * ch - p) + hi * cl + lo * ch) + lo * cl


def _scaled(y, k):
    """(h, l) with h + l = y * 10**k: exact for k <= 22; for 22 < k <= 44 the
    second product's rounding of l * 10**(k - 22) leaves an error below 1e-14."""
    h, l = _times_pow10(y, np.minimum(k, 22))
    deep = np.flatnonzero(k > 22)
    if deep.size:
        b = k[deep] - 22
        p, e = _times_pow10(h[deep], b)
        s = e + l[deep] * np.take(_POW10, b)
        h[deep] = hd = p + s
        l[deep] = s - (hd - p)
    return h, l


def _significands(ax):
    """N (int64), E + _E_OFF, and where the exact path does not apply, for |x| = ax."""
    exact = (ax >= _TINY) & (ax < 1e17)
    y = np.where(exact, ax, 1.0)
    k = (16.0 - np.floor(np.log10(y))).astype(np.intp)
    np.maximum(k, 0, out=k)
    h, l = _scaled(y, k)
    low = (h < 1e16) | ((h == 1e16) & (l < 0))
    high = (h > 1e17) | ((h == 1e17) & (l >= 0))
    off = np.flatnonzero(low | high)
    if off.size:  # log10 was one off
        k[off] += low[off].astype(np.intp) - high[off]
        h[off], l[off] = _scaled(y[off], k[off])
    r = np.rint(l)
    near_tie = np.abs(np.abs(l - r) - 0.5) < _GUARD
    n = h.astype(np.int64) + r.astype(np.int64)
    return n, _E_OFF + 16 - k, ~exact | (h == 1e17) | (k > 22) & near_tie


def _words(n, ei, negative):
    """The (len(n), 6) words of each value's text, NUL padded."""
    lead = n // 10**16
    rest = n - lead * 10**16
    hi = rest // 10**8
    lo = (rest - hi * 10**8).astype(np.uint32)
    hi = hi.astype(np.uint32)
    groups = np.empty((n.size, 4), np.intp)
    groups[:, 0], groups[:, 1] = np.divmod(hi, 10000)
    groups[:, 2], groups[:, 3] = np.divmod(lo, 10000)
    # trailing zeros: a group's own, plus the earlier group's if it is all zeros
    t = np.take(_TRAILING4, groups)
    zeros = t[:, 1] + (t[:, 1] == 4) * t[:, 0]
    zeros = t[:, 3] + (t[:, 3] == 4) * (t[:, 2] + (t[:, 2] == 4) * zeros)
    digits = 17 - zeros  # significant digits
    dot_after = np.take(_DOT_AFTER, ei)
    dot_after = np.where(digits > dot_after + 1, dot_after, 16)
    body = np.take(_DIGITS4, groups)
    body &= np.take(_KEEP, np.maximum(digits, np.take(_INT_LAST, ei) + 1), axis=0)
    body |= np.take(_DOT, dot_after, axis=0)
    words = np.empty((n.size, 6), _WORD)
    words[:, 0] = np.take(_PREFIX, ei) | np.take(_DOT_LEAD, dot_after) | negative * np.uint64(45)
    words[:, 0] |= (lead + 48).astype(np.uint64) << np.uint64(48)
    words[:, 1:5] = body
    words[:, 5] = np.take(_SUFFIX, ei)
    return words


def _format_chunk(x, cols):
    """The text of x, whole rows of ``cols`` values flattened."""
    with np.errstate(all="ignore"):
        ax = np.abs(x)
        n, ei, fallback = _significands(ax)
        words = _words(n, ei, np.signbit(x))
        special = np.flatnonzero(~((ax > 0) & (ax < np.inf)))
        fallback = np.flatnonzero(fallback & (ax > 0) & (ax < np.inf))
    words.reshape(-1, cols, 6)[:, -1, 5] ^= np.uint64((44 ^ 10) << 56)  # '\n' ends a row
    text = words.view(np.uint8).reshape(x.size, 48)
    if special.size:
        v = x[special]
        kind = np.where(v == 0, np.signbit(v), np.where(np.isnan(v), 2, 3 + np.signbit(v)))
        text[special, :47] = _SPECIAL[kind]
    for i, v in zip(fallback.tolist(), x[fallback].tolist()):
        s = b"%.17g" % v
        text[i, :47] = 0
        text[i, : len(s)] = np.frombuffer(s, np.uint8)
    return words.tobytes().translate(None, b"\0").decode("ascii")


def format_rows(block) -> str:
    """The text ``(row * rows) % tuple(block.ravel().tolist())`` gives for a
    (rows, cols) float block, with row = ",".join(["%.17g"] * cols) + "\\n"."""
    return "".join(format_chunks([np.asarray(block, dtype=np.float64)]))


def format_chunks(columns):
    """Yield format_rows' text of np.hstack(columns), for 2-D float blocks of
    equal row count, one chunk of whole rows (about _CHUNK values) at a time:
    a chunk's rows are sliced from the blocks, formatted and yielded before
    the next chunk is read, so one chunk's text and temporaries are alive."""
    rows, cols = columns[0].shape[0], sum(c.shape[1] for c in columns)
    step = max(1, _CHUNK // cols)
    for i in range(0, rows, step):
        yield _format_chunk(np.ravel(np.hstack([c[i : i + step] for c in columns])), cols)
