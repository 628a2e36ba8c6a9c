"""Deterministic report and trajectory serialization.

Floating-point values are written with 17 significant decimal digits and
object keys are sorted, so identical inputs produce byte-identical files.
"""

from __future__ import annotations

import json
from pathlib import Path

import numpy as np

from .dynamics import Trajectory
from .operators import _row_blocks

__all__ = ["canonical_json", "write_report", "write_trajectory_csv"]


def _format_float(x: float) -> str:
    return "%.17g" % x


def _render(obj, indent: int) -> str:
    pad = "  " * indent
    if obj is None:
        return "null"
    if isinstance(obj, (bool, np.bool_)):
        return "true" if obj else "false"
    if isinstance(obj, (int, np.integer)):
        return str(int(obj))
    if isinstance(obj, (float, np.floating)):
        return _format_float(float(obj))
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

    Each block of rows is one ``(rows, 2n + 3)`` float array (the float view
    of the states interleaves ``re_k, im_k``), and each row is written with
    one ``%``-format, converted to Python floats one row at a time.
    """
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    n = traj.dim
    header = ["t"]
    for k in range(n):
        header += [f"re_{k}", f"im_{k}"]
    header += ["norm", "energy"]
    row_format = ",".join(["%.17g"] * len(header)) + "\n"
    with open(path, "w", newline="\n") as fh:
        fh.write(",".join(header) + "\n")
        for rows in _row_blocks(len(traj)):
            block = np.column_stack((traj.times[rows],
                                     np.asarray(traj.states[rows], dtype=complex).view(float),
                                     traj.norms[rows], traj.energies[rows]))
            for row in block:
                fh.write(row_format % tuple(row.tolist()))
    return path
