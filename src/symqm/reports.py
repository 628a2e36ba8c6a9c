"""Deterministic report and trajectory serialization.

Every finite float is written as ``"%.17g" % x`` writes it, and object keys
are sorted, so identical inputs produce byte-identical files.  JSON reports
write non-finite floats as :func:`json.dumps` does (``NaN``, ``Infinity``);
the trajectory CSV keeps ``%``'s ``nan`` and ``inf``.  The CSV gets its bytes
from an exact integer kernel over blocks of cells, after Adams, *Ryu
revisited: printf floating point conversion* (OOPSLA 2019).
"""

from __future__ import annotations

import json
import math
from pathlib import Path

import numpy as np

from .dynamics import Trajectory

__all__ = ["canonical_json", "write_report", "write_trajectory_csv"]

# Cells formatted per block: its temporaries come to about 1 MiB, so peak
# memory does not move (blocks of 32,768 cells were no faster).
_CHUNK_CELLS = 8192
_U = np.uint64
_LOW32, _32, _1 = _U(0xFFFFFFFF), _U(32), _U(1)
_POW5 = np.array([5 ** t for t in range(28)], dtype=_U)
# Per decimal exponent k in [-11, 16]: the "0.0.." that leads fixed notation
# below 1, and the exponent of scientific notation.
_LEAD = np.array([("0." + "0" * (-k - 1)).encode() if -4 <= k < 0 else b"" for k in range(-11, 17)], dtype="S8")
_EXPONENT = np.array([b"e-%02d" % -k if k < -4 else b"" for k in range(-11, 17)], dtype="S4")


def _scaled(m, e, k):
    """``m * 2**(e - 53) * 10**(16 - k)`` truncated, and whether it rounds up (half to even).

    ``m * 5**(16 - k)`` is carried in 128 bits as four 32-bit partial products.
    """
    r = k + 37 - e
    s = np.maximum(1 - r, 0)  # an integer |x| >= 2**51: shift left, so r >= 1
    m = m << s.astype(_U)
    r = (r + s).astype(_U)
    p = _POW5[16 - k]
    ml, mh, pl, ph = m & _LOW32, m >> _32, p & _LOW32, p >> _32
    ll = ml * pl
    mid = ml * ph + mh * pl + (ll >> _32)
    lo = (mid << _32) | (ll & _LOW32)
    q = ((mh * ph + (mid >> _32)) << (_U(64) - r)) | (lo >> r)
    rem, half = lo & ((_1 << r) - _1), _1 << (r - _1)
    return q, (rem > half) | ((rem == half) & (q & _1).astype(bool))


def _decimal17(x):
    """``q, k, exact``: ``|x|`` rounds to ``q * 10**(k - 16)``, ``10**16 <= q < 10**17``.

    ``exact`` marks the cells computed, those with ``1e-11 < |x| < 1e17``.
    """
    a = np.abs(x)
    exact = (a > 1e-11) & (a < 1e17)
    a = np.where(exact, a, 1.0)
    frac, e = np.frexp(a)
    m = (frac * 2.0 ** 53).astype(_U)
    k = np.minimum(np.maximum(np.floor(np.log10(a)).astype(np.int64), -11), 16)
    q, up = _scaled(m, e, k)
    # Next to a power of ten, log10 (its accuracy varies with numpy's SIMD path)
    # can be off by one; the redone cells are checked.
    low, high = q < _U(10 ** 16), q >= _U(10 ** 17)
    redo = np.flatnonzero(low | high)
    if redo.size:
        k[redo] += high[redo].astype(np.int64) - low[redo]
        q[redo], up[redo] = _scaled(m[redo], e[redo], k[redo])
        exact &= (q >= _U(10 ** 16)) & (q < _U(10 ** 17))
    q += up
    # A carry to 10**17 needs a double just below a power of ten, and no such
    # double in the range rounds up to it; the check keeps one on the % path.
    return q, k, exact & (q < _U(10 ** 17))


def _format_cells(block) -> bytes:
    """The bytes of ``"%.17g" % x`` for every cell of ``block``, ``,``-separated, one line per row.

    Each cell gets the slots ``sign | "0.000" | 17 x (digit, dot) | e-dd | ,``;
    unused slots hold 0 and are dropped at the end.  ``%.17g`` picks fixed
    notation for ``-4 <= k < 17`` and strips trailing zeros but integer digits.
    Cells outside the exact range take ``%`` one at a time.
    """
    x = np.ascontiguousarray(block, dtype=float).ravel()
    n = x.size
    q, k, exact = _decimal17(x)
    half = np.stack((q // _U(10 ** 9), q % _U(10 ** 9))).astype(np.uint32)
    digits = np.empty((2, 9, n), dtype=np.uint8)
    for j in range(8, -1, -1):
        rest = half // np.uint32(10)
        digits[:, j] = half - rest * np.uint32(10)
        half = rest
    digits = digits.reshape(18, n)[1:]  # the first of 18 is always 0
    tail = digits.copy()  # row j: the largest digit at j or after it
    for j in range(15, -1, -1):
        np.maximum(tail[j], tail[j + 1], out=tail[j])
    keep = np.maximum((tail != 0).sum(axis=0) - 1, k) + 1
    out = np.zeros((n, 45), dtype=np.uint8)
    out[:, 0] = np.signbit(x) * ord("-")
    out[:, 1:6] = _LEAD[k + 11].view(np.uint8).reshape(n, 8)[:, :5]
    out[:, 6:40:2] = ((digits + ord("0")) * (np.arange(17)[:, None] < keep)).T
    dot = np.maximum(k, 0)
    cells = np.flatnonzero((keep > dot + 1) & ((k >= 0) | (k < -4)))
    out[cells, 7 + 2 * dot[cells]] = ord(".")
    out[:, 40:44] = _EXPONENT[k + 11].view(np.uint8).reshape(n, 4)
    out[:, 44] = ord(",")
    out[block.shape[-1] - 1::block.shape[-1], 44] = ord("\n")
    for cell in np.flatnonzero(~exact):
        text = ("%.17g" % x[cell]).encode()
        out[cell, :44] = 0
        out[cell, :len(text)] = np.frombuffer(text, dtype=np.uint8)
    return out.tobytes().translate(None, b"\0")


def _render(obj, indent: int) -> str:
    pad = "  " * indent
    if obj is None:
        return "null"
    if isinstance(obj, (bool, np.bool_)):
        return "true" if obj else "false"
    if isinstance(obj, (int, np.integer)):
        return str(int(obj))
    if isinstance(obj, (float, np.floating)):
        x = float(obj)
        return "%.17g" % x if math.isfinite(x) else json.dumps(x)
    if isinstance(obj, str):
        return json.dumps(obj)
    if isinstance(obj, (list, tuple, np.ndarray)):
        items = list(obj)
        if not items:
            return "[]"
        body = ",\n".join(f"{pad}  {_render(v, indent + 1)}" for v in items)
        return f"[\n{body}\n{pad}]"
    if isinstance(obj, dict):
        if not obj:
            return "{}"
        body = ",\n".join(
            f"{pad}  {json.dumps(str(k))}: {_render(obj[k], indent + 1)}"
            for k in sorted(obj, key=str)
        )
        return f"{{\n{body}\n{pad}}}"
    raise TypeError(f"cannot serialize {type(obj).__name__}")


def canonical_json(obj) -> str:
    """Render ``obj`` as deterministic JSON text."""
    return _render(obj, 0) + "\n"


def write_report(obj, path) -> Path:
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    with open(path, "w", newline="\n") as fh:
        fh.write(canonical_json(obj))
    return path


def write_trajectory_csv(traj: Trajectory, path) -> Path:
    """Write a trajectory as CSV: t, Re/Im of each amplitude, norm, energy.

    Each block of at most ``_CHUNK_CELLS`` cells is one ``(rows, 2n + 3)``
    float array (the float view of the states interleaves ``re_k, im_k``),
    written as the bytes ``"%.17g" %`` gives each cell, by :func:`_format_cells`.
    """
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    n = traj.dim
    header = ["t"]
    for k in range(n):
        header += [f"re_{k}", f"im_{k}"]
    header += ["norm", "energy"]
    step = max(1, _CHUNK_CELLS // len(header))
    with open(path, "wb") as fh:
        fh.write((",".join(header) + "\n").encode())
        for start in range(0, len(traj), step):
            rows = slice(start, start + step)
            fh.write(_format_cells(np.column_stack((
                traj.times[rows], np.asarray(traj.states[rows], dtype=complex).view(float),
                traj.norms[rows], traj.energies[rows]))))
    return path
