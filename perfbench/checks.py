"""Output checks, computed apart from symqm.

The references come from the chain itself, never from stored program
output:

* The spectrum of the open chain ``H_q`` is that of free fermions
  (Jordan-Wigner): ``sum_k eps_k (n_k - 1/2)`` over ``n_k in {0, 1}``,
  where ``eps_k`` are the positive eigenvalues of ``i*A`` and ``A`` is the
  real antisymmetric Majorana hopping matrix with ``2*0.3`` on the on-site
  bonds and ``2*0.5`` on the inter-site bonds.  Signs on a path can be
  gauged away, so they do not enter.
* ``<+...+|H_q|+...+> = 0.5*(q-1)``, and the norm is 1; midpoint and Cayley
  conserve both quadratic invariants (Hairer, Lubich & Wanner, *Geometric
  Numerical Integration*, 2006), the spectral propagator does trivially.
* The final state is compared with a propagation of ``|+...+>`` through
  the eigendecomposition of a dense matrix built here from Kronecker
  products.

Each ``check_*`` function raises :class:`CheckError` on the first
violation.
"""

from __future__ import annotations

import json
import math

import numpy as np

from workloads import COUPLING, FIELD, chain_expr, second_operator_expr

# Conservation tolerance for the CSV norm and energy rows: about 1000 times
# the round-off drift seen on every workload (below 1e-13), and far below
# the 1e-5 deviation tolerance a non-conserving integrator would use up.
CONSERVATION_TOL = 1e-10
# The program's rule for degenerate_flag (operators.DEGENERACY_TOL).
DEGENERACY_TOL = 1e-9
# A spectral gap this many times above or below the degeneracy threshold
# decides the flag without depending on eigensolver round-off.
GAP_MARGIN = 1e3


class CheckError(Exception):
    """An output of the program is wrong."""


def single_particle_energies(q: int) -> np.ndarray:
    """The ``q`` positive fermion energies of ``H_q``, ascending."""
    a = np.zeros((2 * q, 2 * q))
    for k in range(q):
        a[2 * k, 2 * k + 1] = 2.0 * FIELD
    for k in range(q - 1):
        a[2 * k + 1, 2 * k + 2] = 2.0 * COUPLING
    a = a - a.T
    w = np.linalg.eigvalsh(1j * a)
    return np.sort(w[w > 0])


def chain_spectrum(q: int) -> np.ndarray:
    """All ``2^q`` eigenvalues of ``H_q``, ascending."""
    eps = single_particle_energies(q)
    occupations = (np.arange(2 ** q)[:, None] >> np.arange(q)) & 1
    return np.sort((occupations - 0.5) @ eps)


def chain_matrix(q: int) -> np.ndarray:
    """Dense real ``H_q`` from Kronecker products, site 0 leftmost."""
    eye = np.eye(2)
    x = np.array([[0.0, 1.0], [1.0, 0.0]])
    z = np.array([[1.0, 0.0], [0.0, -1.0]])

    def embed(factors: dict) -> np.ndarray:
        m = np.ones((1, 1))
        for site in range(q):
            m = np.kron(m, factors.get(site, eye))
        return m

    h = np.zeros((2 ** q, 2 ** q))
    for k in range(q - 1):
        h += COUPLING * embed({k: x, k + 1: x})
    for k in range(q):
        h += FIELD * embed({k: z})
    return h


class Reference:
    """Everything the checks need about ``H_q``, computed once per run."""

    def __init__(self, q: int):
        self.q = q
        self.dimension = 2 ** q
        self.expr = chain_expr(q)
        self.second_expr = second_operator_expr(q)
        self.spectrum = chain_spectrum(q)
        self.norm = float(np.max(np.abs(self.spectrum)))
        self.min_gap = float(np.min(np.diff(self.spectrum)))
        self.energy = 0.5 * (q - 1)
        self.uniform = np.full(self.dimension, 1.0 / math.sqrt(self.dimension))
        self._eigh = None

    def degenerate(self) -> bool:
        threshold = DEGENERACY_TOL * (1.0 + self.norm)
        if self.min_gap >= GAP_MARGIN * threshold:
            return False
        if self.min_gap <= threshold / GAP_MARGIN:
            return True
        raise CheckError(f"spectral gap {self.min_gap:.3e} too close to the "
                         f"degeneracy threshold {threshold:.3e} to decide the flag")

    def propagate_uniform(self, t: float) -> np.ndarray:
        """``exp(-i H_q t) |+...+>`` (hbar = 1)."""
        if self._eigh is None:
            self._eigh = np.linalg.eigh(chain_matrix(self.q))
        w, v = self._eigh
        return v @ (np.exp(-1j * w * t) * (v.T @ self.uniform))


def _within(label: str, value, tol: float) -> None:
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        raise CheckError(f"{label}: expected a number, got {value!r}")
    if not math.isfinite(value):
        raise CheckError(f"{label}: residual {value!r} is not finite")
    if not value <= tol:
        raise CheckError(f"{label}: residual {value:.3e} above tolerance {tol:.3e}")


def _equal(label: str, value, expected) -> None:
    if value != expected:
        raise CheckError(f"{label}: expected {expected!r}, got {value!r}")


def _check_echo(report: dict, command: str, scenario: dict, ref: Reference) -> None:
    _equal("command", report.get("command"), command)
    _equal("passed", report.get("passed"), True)
    echo = report["scenario"]
    _equal("scenario.operator", echo["operator"], ref.expr)
    _equal("scenario.dimension", echo["dimension"], ref.dimension)
    _equal("scenario.seed", echo["seed"], scenario["seed"])
    _equal("scenario.samples", echo["samples"], scenario["samples"])
    for key, value in scenario["integrator"].items():
        _equal(f"scenario.integrator.{key}", echo["integrator"][key], value)


def _check_bracket_section(section: dict, scenario: dict, ref: Reference) -> None:
    tol = scenario["tolerances"]
    # ||Y0*I||_2 = 1, so the scale is 1 + ||H_q||_2.
    scale = 1.0 + ref.norm
    value = section["scale"]
    if not (isinstance(value, float) and abs(value - scale) <= 1e-12 * scale):
        raise CheckError(f"bracket scale {value!r} differs from 1 + ||H||_2 = {scale!r}")
    _within("bracket.analytic_max", section["analytic_max"], tol["bracket_analytic"] * scale)
    _within("bracket.finite_difference_max", section["finite_difference_max"],
            tol["bracket_finite_difference"] * scale)
    _equal("bracket.passed", section["passed"], True)


def check_verify_report(report: dict, scenario: dict, ref: Reference) -> None:
    _check_echo(report, "verify", scenario, ref)
    axioms = report["axioms"]
    for name, value in axioms["residuals"].items():
        _within(f"axioms.{name}", value, scenario["tolerances"][f"axiom_{name}"])
    _equal("axioms.passed", axioms["passed"], True)
    _equal("axioms.degenerate_flag", axioms["degenerate_flag"], ref.degenerate())
    if "second_operator" in scenario:
        _check_bracket_section(report["bracket_commutator"], scenario, ref)


def check_bracket_report(report: dict, scenario: dict, ref: Reference) -> None:
    _check_echo(report, "bracket", scenario, ref)
    _equal("scenario.second_operator", report["scenario"]["second_operator"], ref.second_expr)
    _check_bracket_section(report["bracket_commutator"], scenario, ref)


def check_evolve_report(report: dict, scenario: dict, ref: Reference) -> None:
    _check_echo(report, "evolve", scenario, ref)
    tol = scenario["tolerances"]
    _within("deviation_from_exact", report["deviation_from_exact"], tol["evolve_deviation"])
    phase = report["phase_evolution"]
    eigenvalues = np.asarray(phase["eigenvalues"], dtype=float)
    if eigenvalues.shape != ref.spectrum.shape:
        raise CheckError(f"{eigenvalues.shape[0]} eigenvalues, expected {ref.dimension}")
    spectrum_error = float(np.max(np.abs(np.sort(eigenvalues) - ref.spectrum)))
    _within("eigenvalues vs free-fermion spectrum", spectrum_error, 1e-10 * (1.0 + ref.norm))
    if len(phase["residuals"]) != ref.dimension:
        raise CheckError(f"{len(phase['residuals'])} phase residuals, expected {ref.dimension}")
    for k, value in enumerate(phase["residuals"]):
        _within(f"phase_evolution.residuals[{k}]", value, tol["evolve_phase"])
    diagnostics = report["diagnostics"]
    _within("diagnostics.max_norm_drift", diagnostics["max_norm_drift"], CONSERVATION_TOL)
    _within("diagnostics.max_energy_drift", diagnostics["max_energy_drift"], CONSERVATION_TOL)
    integrator = scenario["integrator"]
    _equal("diagnostics.steps_stored", diagnostics["steps_stored"], integrator["steps"] + 1)
    _equal("diagnostics.method", diagnostics["method"], integrator["method"])
    _equal("trajectory_file", report["trajectory_file"], scenario["outputs"]["trajectory"])


def check_reconstruct_report(report: dict, scenario: dict, ref: Reference) -> None:
    _check_echo(report, "reconstruct", scenario, ref)
    tol = scenario["tolerances"]
    rec = report["reconstruction"]
    limits = {
        "flow_equation_residual_analytic": tol["reconstruction_analytic"],
        "flow_equation_residual_fd": tol["reconstruction_finite_difference"],
        "value_residual": tol["reconstruction_analytic"],
        "norm_residual": tol["reconstruction_analytic"],
        "stationary_residual": tol["reconstruction_analytic"],
        "intertwining_residual": tol["reconstruction_intertwining"],
    }
    for name, limit in limits.items():
        _within(f"reconstruction.{name}", rec[name], limit)
    _equal("qfe.phi_map", report["qfe"]["phi_map"], "reconstruction")
    _within("qfe.residual", report["qfe"]["residual"], tol["qfe"])
    _equal("degenerate_flag", report["degenerate_flag"], ref.degenerate())
    _equal("reconstruction.degenerate_flag", rec["degenerate_flag"], ref.degenerate())


def check_trajectory_csv(path, scenario: dict, ref: Reference) -> None:
    """Header, times, norm and energy rows, and the final state."""
    n = ref.dimension
    with open(path) as fh:
        header = fh.readline().rstrip("\n").split(",")
    expected = ["t"] + [f"{part}_{k}" for k in range(n) for part in ("re", "im")]
    _equal("csv header", header, expected + ["norm", "energy"])
    integrator = scenario["integrator"]
    steps, dt = integrator["steps"], integrator["dt"]
    try:
        table = np.loadtxt(path, delimiter=",", skiprows=1, ndmin=2)
    except ValueError as exc:
        raise CheckError(f"csv rows are not a rectangle of numbers: {exc}") from exc
    _equal("csv shape", table.shape, (steps + 1, 2 * n + 3))
    if not np.all(np.isfinite(table)):
        raise CheckError("csv holds a non-finite value")
    times = np.arange(steps + 1) * dt
    _within("csv t column", float(np.max(np.abs(table[:, 0] - times))),
            1e-12 * (1.0 + times[-1]))
    _within("csv norm rows", float(np.max(np.abs(table[:, -2] - 1.0))), CONSERVATION_TOL)
    _within("csv energy rows", float(np.max(np.abs(table[:, -1] - ref.energy))),
            CONSERVATION_TOL * (1.0 + ref.norm))
    states = table[:, 1:-2:2] + 1j * table[:, 2:-2:2]
    _within("csv initial state", float(np.max(np.abs(states[0] - ref.uniform))), 1e-15)
    exact = ref.propagate_uniform(steps * dt)
    _within("csv final state vs own propagation", float(np.linalg.norm(states[-1] - exact)),
            scenario["tolerances"]["evolve_deviation"])


REPORT_CHECKS = {
    "verify": check_verify_report,
    "bracket": check_bracket_report,
    "evolve": check_evolve_report,
    "reconstruct": check_reconstruct_report,
}


def check_outputs(command: str, out_dir, scenario: dict, ref: Reference) -> None:
    """Check the report (and, for ``evolve``, the CSV) one command wrote."""
    try:
        report = json.loads((out_dir / scenario["outputs"]["report"]).read_text())
        REPORT_CHECKS[command](report, scenario, ref)
        if command == "evolve":
            check_trajectory_csv(out_dir / scenario["outputs"]["trajectory"], scenario, ref)
    except (OSError, KeyError, IndexError, TypeError, ValueError) as exc:
        raise CheckError(f"malformed output: {exc!r}") from exc
