"""Deterministic report and trajectory serialization.

Identical inputs produce byte-identical files.  A JSON report is the text of
:func:`json.dumps` with sorted keys and a two-space indent: each float is the
shortest text that reads back as the same double (an integral float keeps its
``.0``), and non-finite floats are ``NaN`` and ``Infinity``.  The trajectory
CSV writes every float as ``"%.17g" % x`` writes it, ``nan`` and ``inf``
included, from an exact integer kernel over blocks of cells, after Adams,
*Ryu revisited: printf floating point conversion* (OOPSLA 2019).

The kernel writes each cell into a 32-byte slot of four little-endian
``uint64`` words, then drops the slots' NUL bytes in one pass:

* word 0: the sign, the ``0.000`` that leads fixed notation below 1, the
  first digit and a dot;
* words 1 and 2: the other 16 digits, eight ASCII digits each, one look-up
  per half of four digits in a 10,000-entry table;
* word 3: the exponent ``e-dd`` and, in its last byte, the separator.

Only cells with a trailing zero digit (cleared by word masks) or with a dot
inside their digits (``|x| >= 10``: the integer digits move one byte left)
take a second pass.

The kernel's full-size arrays live in one :class:`_Scratch` that every block of
a file reuses.  Fresh ones per block (about 1.3 MiB for 8192 cells) would each
time be given back to the system and faulted in again, as glibc trims the free
top of its heap once it exceeds the trim threshold (128 KiB in a fresh process).
"""

from __future__ import annotations

import json
from pathlib import Path

import numpy as np

from .dynamics import Trajectory

__all__ = ["canonical_json", "write_report", "write_trajectory_csv"]

# Cells formatted per block: its scratch comes to about 1.3 MiB, so peak
# memory does not move (blocks of 32,768 cells were no faster).
_CHUNK_CELLS = 8192
_U = np.uint64
_LOW32, _32, _1 = _U(0xFFFFFFFF), _U(32), _U(1)
_POW5 = np.array([5 ** t for t in range(28)], dtype=_U)


def _word(text: bytes, at: int = 0) -> int:
    """The little-endian 64-bit word that holds ``text`` from byte ``at`` on."""
    return int.from_bytes(bytes(at) + text, "little")


def _word_pairs(values):
    """128-bit ``values`` as their low and high ``uint64`` words."""
    return (np.array([v & (2**64 - 1) for v in values], dtype=_U),
            np.array([v >> 64 for v in values], dtype=_U))


# Per decimal exponent k in [-11, 16]: word 0 with the "0.0.." that leads fixed
# notation below 1 (bytes 1-5), or with the dot after the first digit (byte 7)
# for scientific notation and k = 0; word 3 with the exponent of scientific
# notation and a ",".
_HEAD = np.array([_word(("0." + "0" * (-k - 1)).encode(), 1) if -4 <= k < 0 else
                  _word(b".", 7) if k < -4 or k == 0 else 0 for k in range(-11, 17)], dtype=_U)
_TAIL = np.array([_word(b"e-%02d" % -k if k < -4 else b"") | _word(b",", 7) for k in range(-11, 17)], dtype=_U)
_END_OF_ROW = _U(_word(b",", 7) ^ _word(b"\n", 7))
_ALL, _BYTE7 = _U(2**64 - 1), _U(0xFF << 56)
_ASCII_ZEROS, _SEVENS, _HIGH_BITS = _U(0x3030303030303030), _U(0x7F7F7F7F7F7F7F7F), _U(0x8080808080808080)
# Per count c in [0, 16] of integer digits after the first, over the 16 digits
# of words 1-2 as one 128-bit (low, high) pair: the c integer digits, where
# the first c - 1 of them land after a move of one byte, and the dot after them.
_INTEGER = _word_pairs([(1 << 8 * c) - 1 for c in range(17)])
_MOVED = _word_pairs([(1 << 8 * c - 8) - 1 if c else 0 for c in range(17)])
_DOT = _word_pairs([ord(".") << 8 * c - 8 if c else 0 for c in range(17)])
# The four ASCII digits of each n < 10**4, most significant in the lowest byte:
# row n of the grid of digit bytes, read as a little-endian word.  Built from
# bytes, the table adds about 0.3 MiB to the peak memory of an import; built
# with int64 arithmetic, about 1.3 MiB (numpy 2.4 on Linux), which shows in
# runs that write no CSV.
_ASCII4 = np.stack(np.meshgrid(*[np.arange(ord("0"), ord("9") + 1, dtype=np.uint8)] * 4, indexing="ij"),
                   axis=-1).reshape(-1, 4).view("<u4").ravel().astype(_U)


class _Scratch:
    """The full-size arrays of formatting ``size`` cells, made once for every block of that size.

    ``words`` is the ``(size, 4)`` slot array over the bytes of ``text``.
    """

    def __init__(self, size: int):
        self.size = size
        self.a, self.frac = np.empty((2, size))
        self.e = np.empty(size, dtype=np.intc)
        self.k, self.r, self.s = np.empty((3, size), dtype=np.int64)
        self.m, self.q, self.shift, self.head = np.empty((4, size), dtype=_U)
        self.u = np.empty((6, size), dtype=_U)
        self.exact, self.up, self.b = np.empty((3, size), dtype=bool)
        self.text = bytearray(32 * size)
        self.words = np.frombuffer(self.text, dtype="<u8").reshape(size, 4)


def _scaled(m, e, k, w: _Scratch):
    """``m * 2**(e - 53) * 10**(16 - k)`` truncated, and whether it rounds up (half to even).

    ``m * 5**(16 - k)`` is carried in 128 bits as four 32-bit partial products,
    in ``w.u[:5]``; the results are ``w.q`` and ``w.up``.
    """
    r, s, shift, q, up = w.r, w.s, w.shift, w.q, w.up
    ml, mh, pl, ph, lo = w.u[:5]
    np.add(k, 37, out=r)
    r -= e
    np.subtract(1, r, out=s)
    np.maximum(s, 0, out=s)  # an integer |x| >= 2**51: shift left, so r >= 1
    np.copyto(shift, s, casting="unsafe")
    np.left_shift(m, shift, out=ml)
    r += s
    np.copyto(shift, r, casting="unsafe")
    np.subtract(16, k, out=s)
    np.take(_POW5, s, out=pl, mode="wrap")  # 16 - k lies in [0, 27]
    np.right_shift(pl, _32, out=ph)
    pl &= _LOW32
    np.right_shift(ml, _32, out=mh)
    ml &= _LOW32
    np.multiply(ml, pl, out=lo)  # ll
    ml *= ph
    pl *= mh
    ml += pl
    np.right_shift(lo, _32, out=pl)
    ml += pl  # mid = ml * ph + mh * pl + (ll >> 32)
    lo &= _LOW32
    np.left_shift(ml, _32, out=pl)
    lo |= pl  # lo = (mid << 32) | (ll & _LOW32)
    mh *= ph
    ml >>= _32
    mh += ml
    np.subtract(_U(64), shift, out=ph)
    np.left_shift(mh, ph, out=q)
    np.right_shift(lo, shift, out=ph)
    q |= ph  # q = ((mh * ph + (mid >> 32)) << (64 - r)) | (lo >> r)
    np.left_shift(_1, shift, out=ph)
    ph -= _1
    lo &= ph  # rem = lo & ((1 << r) - 1)
    shift -= _1
    np.left_shift(_1, shift, out=ph)  # half = 1 << (r - 1)
    np.greater(lo, ph, out=up)
    np.equal(lo, ph, out=w.b)
    np.bitwise_and(q, _1, out=ml)
    np.logical_and(w.b, ml, out=w.b)
    up |= w.b  # (rem > half) | ((rem == half) & (q & 1 != 0))
    return q, up


def _decimal17(x, w: _Scratch | None = None):
    """``q, k, exact``: ``|x|`` rounds to ``q * 10**(k - 16)``, ``10**16 <= q < 10**17``.

    ``exact`` marks the cells computed, those with ``1e-11 < |x| < 1e17``.
    ``q`` and ``k`` are arrays of ``w``, a new scratch if none is given.
    """
    w = _Scratch(x.size) if w is None else w
    a, exact, k, m = w.a, w.exact, w.k, w.m
    np.abs(x, out=a)
    np.greater(a, 1e-11, out=exact)
    np.less(a, 1e17, out=w.b)
    exact &= w.b
    np.logical_not(exact, out=w.b)
    np.copyto(a, 1.0, where=w.b)
    frac, e = np.frexp(a, out=(w.frac, w.e))
    frac *= 2.0 ** 53
    np.copyto(m, frac, casting="unsafe")
    np.log10(a, out=a)
    np.floor(a, out=a)
    np.copyto(k, a, casting="unsafe")
    np.maximum(k, -11, out=k)
    np.minimum(k, 16, out=k)
    q, up = _scaled(m, e, k, w)
    # Next to a power of ten, log10 (its accuracy varies with numpy's SIMD path)
    # can be off by one; the redone cells are checked.
    low, high = q < _U(10 ** 16), q >= _U(10 ** 17)
    redo = np.flatnonzero(low | high)
    if redo.size:
        k[redo] += high[redo].astype(np.int64) - low[redo]
        q[redo], up[redo] = _scaled(m[redo], e[redo], k[redo], _Scratch(redo.size))
        exact &= (q >= _U(10 ** 16)) & (q < _U(10 ** 17))
    q += up
    # A carry to 10**17 needs a double just below a power of ten, and no such
    # double in the range rounds up to it; the check keeps one on the % path.
    return q, k, exact & (q < _U(10 ** 17))


def _eight_digits(v, high, product):
    """The eight ASCII digits of each ``v < 10**8``, most significant in the lowest byte, in place.

    ``high`` and ``product`` are work arrays of the shape of ``v``.  Each half
    of four digits is one look-up in :data:`_ASCII4`, indexed through ``int64``
    views so that the index cast does not depend on numpy's casting rules.
    """
    np.floor_divide(v, _U(10_000), out=high)
    v -= np.multiply(high, _U(10_000), out=product)
    np.take(_ASCII4, v.view(np.int64), out=product, mode="wrap")
    product <<= _32
    np.take(_ASCII4, high.view(np.int64), out=v, mode="wrap")
    v |= product
    return v


def _through_last_nonzero(digits):
    """``0xFF`` in each byte of ``digits`` (byte values 0-9) at or below its highest nonzero byte."""
    t = (digits + _SEVENS) & _HIGH_BITS
    for shift in (8, 16, 32):
        t |= t >> _U(shift)
    return (t >> _U(7)) * _U(0xFF)


def _format_cells(block, w: _Scratch | None = None) -> bytearray:
    """The bytes of ``"%.17g" % x`` for every cell of ``block``, ``,``-separated, one line per row.

    Each cell fills one 32-byte slot of four words (see the module docstring);
    unused bytes hold 0 and are dropped at the end.  ``%.17g`` picks fixed
    notation for ``-4 <= k < 17`` and strips trailing zeros but integer digits.
    The first pass writes every cell as if it had neither; the cells whose last
    digit is 0 or with ``k >= 1`` then clear their trailing zeros, keep their
    dot only before a kept digit, and (``k >= 1``) move the ``k`` integer digits
    after the first one byte left, to make room for the dot.  Cells outside the
    exact range take ``%`` one at a time.  The full-size arrays are those of
    ``w``, a new scratch unless it has the block's size.
    """
    x = np.ascontiguousarray(block, dtype=float).ravel()
    n = x.size
    w = w if w is not None and w.size == n else _Scratch(n)
    q, k, exact = _decimal17(x, w)
    digits, spare = w.u[:2], w.u[2:]
    head = np.floor_divide(q, _U(10**16), out=w.head)  # the first digit
    q -= np.multiply(head, _U(10**16), out=digits[0])
    np.floor_divide(q, _U(10**8), out=digits[0])
    np.subtract(q, np.multiply(digits[0], _U(10**8), out=digits[1]), out=digits[1])
    low, high = _eight_digits(digits, spare[:2], spare[2:])
    head += _U(ord("0"))
    head <<= _U(48)
    row = np.add(k, 11, out=w.r)  # of _HEAD and _TAIL, in [0, 27]
    head |= np.take(_HEAD, row, out=spare[0], mode="wrap")
    head |= np.multiply(np.right_shift(x.view(_U), _U(63), out=spare[0]), _U(ord("-")), out=spare[0])
    np.equal(np.right_shift(high, _U(56), out=spare[0]), _U(ord("0")), out=w.b)
    w.b |= np.greater_equal(k, 1, out=w.up)
    cells = np.flatnonzero(w.b)
    if cells.size:
        c = np.maximum(k[cells], 0)
        lo, hi, integer_lo, integer_hi = low[cells], high[cells], _INTEGER[0][c], _INTEGER[1][c]
        hi_digits = hi - _ASCII_ZEROS
        hi &= _through_last_nonzero(hi_digits) | integer_hi
        lo &= _through_last_nonzero(lo - _ASCII_ZEROS) | integer_lo | (hi_digits != 0) * _ALL
        lo_fraction, hi_fraction = lo & ~integer_lo, hi & ~integer_hi
        dot = (lo_fraction | hi_fraction) != 0
        head[cells] = (head[cells] & np.where(dot, _ALL, ~_BYTE7)) | ((lo << _U(56)) & ((c > 0) * _BYTE7))
        low[cells] = ((((lo >> _U(8)) | (hi << _U(56))) & _MOVED[0][c]) | (_DOT[0][c] * dot) | lo_fraction)
        high[cells] = (((hi >> _U(8)) & _MOVED[1][c]) | (_DOT[1][c] * dot) | hi_fraction)
    words = w.words
    words[:, 0], words[:, 1], words[:, 2] = head, low, high
    words[:, 3] = np.take(_TAIL, row, out=spare[0], mode="wrap")
    words[block.shape[-1] - 1::block.shape[-1], 3] ^= _END_OF_ROW
    out = words.view(np.uint8).reshape(n, 32)
    for cell in np.flatnonzero(~exact):
        out[cell, :31] = np.frombuffer(("%.17g" % x[cell]).encode().ljust(31, b"\0"), dtype=np.uint8)
    return w.text.translate(None, b"\0")


def _plain(obj):
    """The Python value of a numpy scalar or array, for :func:`json.dumps`."""
    if isinstance(obj, (np.generic, np.ndarray)):
        return obj.tolist()
    raise TypeError(f"cannot serialize {type(obj).__name__}")


def canonical_json(obj) -> str:
    """``obj`` as deterministic JSON text: sorted keys, two-space indent, a final newline."""
    return json.dumps(obj, indent=2, sort_keys=True, default=_plain) + "\n"


def write_report(obj, path) -> Path:
    """Write :func:`canonical_json` of ``obj`` to ``path``, rendered before the file is
    opened: a value that cannot be written raises and leaves the file as it was."""
    text = canonical_json(obj)
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    with open(path, "w", newline="\n") as fh:
        fh.write(text)
    return path


def write_trajectory_csv(traj: Trajectory, path) -> Path:
    """Write a trajectory as CSV: t, Re/Im of each amplitude, norm, energy.

    Each block of at most ``_CHUNK_CELLS`` cells is one ``(rows, 2n + 3)``
    float array (the float view of the states interleaves ``re_k, im_k``),
    written as the bytes ``"%.17g" %`` gives each cell, by :func:`_format_cells`
    on one scratch for all full blocks.
    """
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    n = traj.dim
    header = ["t"]
    for k in range(n):
        header += [f"re_{k}", f"im_{k}"]
    header += ["norm", "energy"]
    step = max(1, _CHUNK_CELLS // len(header))
    scratch = _Scratch(min(step, len(traj)) * len(header))
    with open(path, "wb") as fh:
        fh.write((",".join(header) + "\n").encode())
        for start in range(0, len(traj), step):
            rows = slice(start, start + step)
            fh.write(_format_cells(np.column_stack((
                traj.times[rows], np.asarray(traj.states[rows], dtype=complex).view(float),
                traj.norms[rows], traj.energies[rows])), scratch))
    return path
