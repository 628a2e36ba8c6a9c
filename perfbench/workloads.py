"""The benchmark's workloads and the scenario files they generate.

Every operator is the open Ising-like chain

    H_q = sum_k 0.5 * X_k X_{k+1} + sum_k 0.3 * Z_k

on ``q`` qubits (n = 2^q), started from the uniform state ``|+...+>``.
The workload seed goes into the scenario's ``seed`` field, which selects
the sampled states of ``verify``, ``bracket`` and ``reconstruct``.
"""

from __future__ import annotations

import dataclasses
from dataclasses import dataclass

COUPLING = 0.5
FIELD = 0.3

# The benchmark's own copy of the program's default tolerances.  They are
# written into every scenario, so the output checks compare residuals
# against values the benchmark chose rather than against the report echo.
TOLERANCES = {
    "axiom_decomposition": 1e-10,
    "axiom_bracket": 1e-10,
    "axiom_normalization": 1e-10,
    "axiom_stationary_delta": 1e-10,
    "axiom_stationary_value": 1e-10,
    "bracket_analytic": 1e-9,
    "bracket_finite_difference": 1e-5,
    "evolve_deviation": 1e-5,
    "evolve_phase": 1e-5,
    "reconstruction_analytic": 1e-10,
    "reconstruction_finite_difference": 1e-5,
    "reconstruction_intertwining": 1e-5,
    "qfe": 1e-5,
}
SAMPLES = 100
OUTPUTS = {"report": "report.json", "trajectory": "trajectory.csv"}


def chain_expr(q: int) -> str:
    """Pauli-sum text of ``H_q``."""
    bonds = [f"{COUPLING}*X{k}*X{k + 1}" for k in range(q - 1)]
    fields = [f"{FIELD}*Z{k}" for k in range(q)]
    return " + ".join(bonds + fields)


def second_operator_expr(q: int) -> str:
    """``Y`` on site 0, padded with ``I`` on the last site.

    The scenario loader sizes each Pauli expression by its own highest
    site, so a bare ``Y0`` would be a 2x2 matrix and be rejected against
    the ``2^q``-dimensional chain.
    """
    return f"Y0*I{q - 1}"


@dataclass(frozen=True)
class Workload:
    name: str
    qubits: int
    commands: tuple
    integrator: dict
    with_second_operator: bool = False

    def scenario(self, seed: int) -> dict:
        """The scenario file, as a JSON-ready dict."""
        scenario = {
            "hbar": 1.0,
            "operator": chain_expr(self.qubits),
            "initial_state": "uniform",
            "integrator": dict(self.integrator),
            "seed": int(seed),
            "samples": SAMPLES,
            "tolerances": dict(TOLERANCES),
            "outputs": dict(OUTPUTS),
        }
        if self.with_second_operator:
            scenario["second_operator"] = second_operator_expr(self.qubits)
        return scenario

    def smallest(self) -> "Workload":
        """The same commands on two qubits and 20 steps, for the self-check."""
        return dataclasses.replace(
            self, qubits=2, integrator={**self.integrator, "steps": 20}
        )


WORKLOADS = {
    w.name: w
    for w in (
        Workload(
            "dense-checks", 9, ("verify", "evolve"),
            {"method": "cayley", "dt": 1e-3, "steps": 1000},
        ),
        Workload(
            "fd-brackets", 4, ("verify", "bracket", "reconstruct"),
            {"method": "midpoint", "dt": 1e-3, "steps": 1000},
            with_second_operator=True,
        ),
        Workload(
            "long-flow", 3, ("evolve",),
            {"method": "midpoint", "dt": 1e-3, "steps": 40000},
        ),
        Workload(
            "wide-build", 10, ("evolve",),
            {"method": "exact", "dt": 1e-3, "steps": 10},
        ),
    )
}
