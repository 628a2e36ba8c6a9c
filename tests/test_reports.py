"""Trajectory CSV bytes against a per-cell reference writer kept in this file."""

import numpy as np
import pytest

from symqm import IntegratorConfig, ObservableFunction, SymplecticSpace, integrate, make_hermitian
from symqm.dynamics import Trajectory
from symqm.reports import write_trajectory_csv
from symqm.sampling import random_hermitian, random_unit_state

SPECIAL = [-0.0, 0.0, np.nan, -np.inf, np.inf, 5e-324, -5e-324, 1e300, -1e-300, 0.1, 1.0 / 3.0]


def _reference_csv(traj, path):
    """One ``"%.17g"`` call per cell, row by row."""
    header = ["t"]
    for k in range(traj.dim):
        header += [f"re_{k}", f"im_{k}"]
    header += ["norm", "energy"]
    with open(path, "w", newline="\n") as fh:
        fh.write(",".join(header) + "\n")
        for row in range(len(traj)):
            values = [traj.times[row]]
            for k in range(traj.dim):
                z = traj.states[row, k]
                values += [z.real, z.imag]
            values += [traj.norms[row], traj.energies[row]]
            fh.write(",".join("%.17g" % float(v) for v in values) + "\n")


def _special_trajectory(rows, n):
    """Every cell but the times is one of the values that format specially."""
    rng = np.random.default_rng(rows * 31 + n)
    cells = rng.permutation(np.resize(SPECIAL, rows * (2 * n + 2))).reshape(rows, 2 * n + 2)
    states = np.empty((rows, n), dtype=complex)
    states.real, states.imag = cells[:, 0:2 * n:2], cells[:, 1:2 * n:2]
    return Trajectory(
        times=0.1 * np.arange(rows),
        states=states,
        norms=cells[:, -2],
        energies=cells[:, -1],
        solver_iterations=np.zeros(rows, dtype=int),
        method="midpoint",
    )


# A few rows; more rows than one block of the writer; wide rows.
@pytest.mark.parametrize("rows, n", [(3, 1), (300, 3), (513, 1), (20, 64)])
def test_csv_bytes_match_per_cell_reference_on_special_values(tmp_path, rows, n):
    traj = _special_trajectory(rows, n)
    _reference_csv(traj, tmp_path / "ref.csv")
    write_trajectory_csv(traj, tmp_path / "out.csv")
    assert (tmp_path / "out.csv").read_bytes() == (tmp_path / "ref.csv").read_bytes()
    text = (tmp_path / "out.csv").read_text()
    for word in ("-0", "nan", "-inf", "4.9406564584124654e-324", "1.0000000000000001e+300"):
        assert word in text


@pytest.mark.parametrize("method", ["exact", "midpoint"])
def test_csv_bytes_match_per_cell_reference_on_a_flow(tmp_path, method):
    h = make_hermitian(random_hermitian(4, 5))
    f = ObservableFunction.expectation_of(h, SymplecticSpace(4, hbar=0.7))
    traj = integrate(f, random_unit_state(4, 5, 1), IntegratorConfig(method, 1e-2, 600))
    _reference_csv(traj, tmp_path / "ref.csv")
    write_trajectory_csv(traj, tmp_path / "out.csv")
    assert (tmp_path / "out.csv").read_bytes() == (tmp_path / "ref.csv").read_bytes()
