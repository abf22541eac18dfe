"""The coefficient table of ``hyperlog eval`` as TSV bytes, built with numpy.

Every number is written exactly as C's ``%.15g`` writes it.  ``g15`` finds
the 15 correctly rounded digits of each double from a double-double product
with a power of ten (Dekker's exact two-product), so an element is decided
unless its scaled value lies within 1e-9 of a rounding tie, its magnitude is
outside ``[1e-40, 1e40)`` (subnormals, huge values, inf and nan), or the
``log10`` guess of its decimal exponent misses.  Those few go through
Python's ``%``, which is correctly rounded (Gay's ``dtoa``), so the bytes
equal ``b'%.15g' % v`` for every double.

Fields sit at fixed offsets with NUL padding, and one pass over the rows
drops the NULs; letter names never contain NUL (``Alphabet`` rejects control
characters).  Multi-byte fields are little-endian uint64 lanes.
"""

from __future__ import annotations

import functools

import numpy as np

from .cache import bounded_cache
from .words import graded_starts

G15_WIDTH = 32  # bytes of a g15 field, as 4 uint64 lanes: sign and "0.000", 2 of digits, "e-dd"
_E_MIN, _E_MAX = -40, 40  # decimal exponents decided without Python's `%` (below _E_MAX)
_SPLIT = 134217729.0  # 2**27 + 1, Dekker's splitter for doubles
_MASK64 = (1 << 64) - 1
_G15_LONGEST = 22  # len(b"%.15g" % -1.23456789012345e-308)
_BLOCK = 4096  # rows per g15 call, which bounds its float64 temporaries


@functools.cache
def _tables() -> dict:
    """Per decimal exponent e in ``[_E_MIN, _E_MAX]``, a column of two uint64
    tables, each read with one ``take``.  ``floats``, read before rounding
    settles e, holds 10^(14-e) as ``hi`` + ``lo`` with ``hi`` split in
    Dekker's halves ``hh`` + ``hl`` (float64 bits, in rows hi, hh, hl, lo).
    ``text``, read after, holds in its rows: ``q``, the modulus whose
    remainder is the digits after the point (float64 bits); the text
    ``before`` the digits (the sign's byte, then "0.000") and ``after``
    them ("e-dd"); the masks of the 16-byte digit field, each as halves
    ``0`` and ``1``, that place the point (``low``, ``high``, ``dot``) and
    restore the zeros of the integer part (``int``).  ``group3`` holds the
    ASCII of 0..999 as 3 digits and a NUL: plain, then with trailing zeros
    as NUL."""
    rows = []
    for e in range(_E_MIN, _E_MAX + 1):
        num, den = (10 ** (14 - e), 1) if e <= 14 else (1, 10 ** (e - 14))
        hi = num / den  # int / int rounds correctly
        p, q = hi.as_integer_ratio()
        lo = (num * q - p * den) / (den * q)  # 10^(14-e) - hi, rounded once
        c = _SPLIT * hi
        hh = c - (c - hi)
        fixed = -4 <= e < 15
        point = (e if e >= 0 else 15) if fixed else 0  # the point follows digit `point`
        floats = [hi, hh, hi - hh, lo, 10.0 ** (14 - point) if point < 15 else 1.0]
        before = b"\0" + (b"0." + b"0" * (-e - 1) if fixed and e < 0 else b"")
        after = b"" if fixed else b"e%+03d" % e
        masks = (
            (1 << 8 * (point + 1)) - 1,  # bytes 0..point keep their digit
            (1 << 128) - (1 << 8 * min(point + 2, 16)),  # bytes point+2.. take the one before
            ord(".") << 8 * (point + 1) if point < 15 else 0,
            int.from_bytes(b"0" * (e + 1), "little") if fixed and e >= 0 else 0,
        )
        rows.append(
            np.array(floats).view(np.uint64).tolist()
            + [int.from_bytes(t, "little") for t in (before, after)]
            + [m >> s & _MASK64 for m in masks for s in (0, 64)]
        )
    columns = np.array(rows, np.uint64).T.copy()
    tables = {"floats": columns[:4], "text": columns[4:]}
    digits = np.zeros((2, 1000, 4), np.uint8)
    digits[:, :, :3] = np.indices((10,) * 3, dtype=np.uint8).reshape(3, -1).T + np.uint8(ord("0"))
    digits[1, :, :3] *= ~np.logical_and.accumulate(digits[1, :, 2::-1] == ord("0"), axis=1)[:, ::-1]
    tables["group3"] = digits.view("<u4").ravel()
    return tables


def g15(x: np.ndarray, out: np.ndarray) -> None:
    """Write ``b'%.15g' % v`` for each float64 v of ``x`` into ``out`` (uint64
    of shape ``x.shape + (4,)``, read as little-endian bytes), NUL padded; the
    last byte of each field stays NUL."""
    c = _tables()
    a = np.abs(x)
    zero = a == 0
    a[zero] = 1.0  # zero is spelled from the digits of 1
    e = np.floor(np.log10(a))
    sure = (e >= _E_MIN) & (e < _E_MAX)  # false for inf and nan
    a[~sure] = 1.0
    e = np.where(sure, e - _E_MIN, -_E_MIN).astype(np.intp)  # e's column of the tables
    m, t = _round15(a, e)
    # 10^14 rounded up from below is a missed guess of e; 10^15, from either
    # side, is 10^14 at e + 1
    sure &= (t > 1e-9) & (t < 1 - 1e-9) & ((m > 1e14) | (m == 1e14) & (t >= 0.5)) & (m <= 1e15)
    carry = m == 1e15
    e += carry
    m[carry] = 1e14

    q, before, after, low0, low1, high0, high1, dot0, dot1, int0, int1 = c["text"].take(e, axis=1)
    v0, v1 = _digit_lanes(m, int0, int1)
    # the digits after the point move up a byte, behind the point if any
    # digit follows it (frac)
    q = q.view(np.float64)
    frac = m != np.floor(m / q) * q
    out[..., 0] = before | np.signbit(x) * np.uint64(ord("-"))
    out[..., 1] = (v0 & low0) | ((v0 << 8) & high0) | (dot0 * frac)
    high = ((v1 << 8) | (v0 >> 56)) & high1
    out[..., 2] = (v1 & low1) | high | (dot1 * frac)
    out[..., 3] = after
    out[..., 1] ^= zero  # "1" ^ 1 is "0"
    for i in zip(*np.nonzero(~sure)):
        text = b"%.15g" % x[i]
        out[i] = 0
        out[i].view(np.uint8)[: len(text)] = np.frombuffer(text, np.uint8)


def _round15(a: np.ndarray, e: np.ndarray):
    """``m``, a * 10^(14-e) rounded to an integer (``e`` as table columns),
    and ``t``, the fraction rounded off plus 0.5: 0 at a tie, below 0.5
    where m rounded up.  a * hi is p + err exactly (Dekker's two-product)."""
    hi, hh, hl, lo = _tables()["floats"].take(e, axis=1).view(np.float64)
    ah = _SPLIT * a
    ah -= ah - a
    al = a - ah
    p = a * hi
    err = ah * hh - p
    err += al * hh
    err += ah * hl
    err += al * hl
    err += a * lo
    m = np.floor(p)
    t = p - m
    t += err
    t += 0.5
    k = np.floor(t)
    t -= k
    m += k
    return m, t


def _digit_lanes(m: np.ndarray, int0: np.ndarray, int1: np.ndarray):
    """The 15 digits of ``m`` as ASCII bytes 0..14 of two uint64 lanes, the
    trailing zeros NUL except in the integer part of a fixed form, whose
    zeros ``int0`` and ``int1`` restore."""
    group3 = _tables()["group3"]
    # 5 groups of 3, exact in float64 (m < 2^53); a group has its trailing
    # zeros as NUL when every later group is zero
    d3, d6, d9, d12 = (np.floor(m / 10.0**k) for k in (3, 6, 9, 12))
    g0, g1, g2, g3, g4 = (
        group3.take((g + 1e3 * strip).astype(np.intp)).astype(np.uint64)
        for g, strip in (
            (d12, m == d12 * 1e12),
            (d9 - d12 * 1e3, m == d9 * 1e9),
            (d6 - d9 * 1e3, m == d6 * 1e6),
            (d3 - d6 * 1e3, m == d3 * 1e3),
            (m - d3 * 1e3, True),
        )
    )
    v0 = g0 | (g1 << 24) | (g2 << 48) | int0
    v1 = (g2 >> 16) | (g3 << 8) | (g4 << 32) | int1
    return v0, v1


def coefficient_tsv(table, names) -> bytes:
    """The rows ``word  re  im  err`` of a ``CoefficientTable`` as UTF-8
    bytes, each word spelled from the letter ``names``.  At most two buffers
    of ``row_width`` bytes per word are alive at once: the rows, then their
    copy that ``translate`` reads."""
    return _rows(table, names).tobytes().translate(None, b"\0")


def row_width(N: int, names, err_len: int = _G15_LONGEST) -> int:
    """Bytes of a row of the table of words up to length ``N``: the word and a
    tab, then two g15 fields, then an error of ``err_len`` bytes (by default
    the longest ``%.15g``) and a newline, each part padded to 8 bytes."""
    slot = max(len(name.encode()) for name in names) + 1
    return _pad8(N * slot + 2) + 2 * G15_WIDTH + _pad8(err_len + 1)


def _pad8(n: int) -> int:
    return -(-n // 8) * 8


@bounded_cache(1 << 20)
def _spelled(L: int, N: int, names: tuple) -> np.ndarray:
    """The start of the rows of the words up to length ``N`` over the letter
    ``names`` (L of them): each word, NUL padded, then a tab (uint8, a row
    per word)."""
    letters = [name.encode() for name in names]
    slot = max(map(len, letters)) + 1  # a letter's name and its "."
    num = _pad8(N * slot + 2)  # byte of the first number, past the word and a tab
    rows = np.zeros((graded_starts(L, N)[-1], num), np.uint8)
    spell = np.zeros((L, slot), np.uint8)
    for i, b in enumerate(letters):
        spell[i, : len(b)] = np.frombuffer(b, np.uint8)
    spell[:, -1] = ord(".")
    rows[0, 0] = ord("1")
    lo, prev = 1, rows[:1]
    for ln in range(1, N + 1):
        # a word of length ln is a letter, its "." and a word of length
        # ln - 1 as the previous stratum spells it; the last "." goes
        part = rows[lo : lo + L**ln]
        split = part.reshape(L, -1, num)
        split[:, :, :slot] = spell[:, None]
        split[:, :, slot : ln * slot] = prev[:, : (ln - 1) * slot]
        part[:, ln * slot - 1] = 0
        lo, prev = lo + L**ln, part
    rows[:, -1] = ord("\t")
    return rows


def _rows(table, names) -> np.ndarray:
    """The TSV rows at fixed offsets, NUL padded (uint8, a row per word)."""
    L, N, y = table.letters, table.truncation, table.coeffs
    errs = [b"%.15g" % e for e in table.error_estimates.values()]
    words = _spelled(L, N, tuple(names))
    num = words.shape[1]
    width = row_width(N, names, max(map(len, errs)))
    rows = np.zeros((len(y), width), np.uint8)
    rows[:, :num] = words
    starts = graded_starts(L, N)
    for ln, err in enumerate(errs):
        rows[starts[ln] : starts[ln + 1], -1 - len(err) : -1] = np.frombuffer(err, np.uint8)
    lanes = rows.view(np.uint64)[:, num // 8 : num // 8 + 8].reshape(len(y), 2, 4)
    values = y.view(np.float64).reshape(len(y), 2)
    for lo in range(0, len(y), _BLOCK):
        g15(values[lo : lo + _BLOCK], lanes[lo : lo + _BLOCK])
    for col in (num + G15_WIDTH - 1, num + 2 * G15_WIDTH - 1):
        rows[:, col] = ord("\t")
    rows[:, -1] = ord("\n")
    return rows
