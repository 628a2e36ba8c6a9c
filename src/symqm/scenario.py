"""Scenario files: a JSON object configuring one CLI run.

Recognized keys::

    hbar            positive finite real, default 1
    operator        Pauli-sum expression, or "file:PATH" for a dense matrix;
                    at most MAX_DENSE_DIM = 4096 dimensions (12 qubits)
    second_operator optional, same forms; enables bracket reports
    initial_state   "uniform" | "basis:k" | list of entries ("a+bj" strings
                    or plain numbers); normalized on load
    integrator      {method, dt, steps, solver_tol, solver_max_iter, stride}
    outputs         {report: NAME, trajectory: NAME} relative to --out
    seed            nonnegative integer, default 0
    samples         positive integer, default 100
    tolerances      per-check overrides, see DEFAULT_TOLERANCES
    phi_map         "reconstruction" | "identity" | "constant" (reconstruct
                    command only; "constant" is the negative control)

Defaults are applied on load and echoed into every report.
"""

from __future__ import annotations

import json
from dataclasses import asdict, dataclass
from pathlib import Path

import numpy as np

from .dynamics import IntegratorConfig
from .errors import (
    NonHermitianError,
    NonSquareError,
    OperatorSyntaxError,
    ScenarioError,
)
from .operators import MAX_DENSE_DIM, HermitianOperator, make_hermitian, read_matrix_file
from .pauli import parse_operator_expr
from .spaces import SymplecticSpace

__all__ = ["Scenario", "load_scenario", "DEFAULT_TOLERANCES", "PHI_MAPS"]

DEFAULT_TOLERANCES = {
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

PHI_MAPS = ("reconstruction", "identity", "constant")

_KNOWN_KEYS = {
    "hbar", "operator", "second_operator", "initial_state", "integrator",
    "outputs", "seed", "samples", "tolerances", "phi_map",
}
_OUTPUT_KEYS = {"report", "trajectory"}
_DEFAULT_INTEGRATOR = {"method": "midpoint", "dt": 1e-3, "steps": 1000}


@dataclass
class Scenario:
    """A fully resolved scenario, defaults applied."""

    space: SymplecticSpace
    operator_text: str
    operator: HermitianOperator
    second_operator_text: str | None
    second_operator: HermitianOperator | None
    initial_state: np.ndarray
    integrator: IntegratorConfig
    outputs: dict
    seed: int
    samples: int
    tolerances: dict
    phi_map: str = "reconstruction"

    @property
    def dimension(self) -> int:
        return self.operator.dim

    @property
    def hbar(self) -> float:
        return self.space.hbar

    def tolerance(self, name: str) -> float:
        return self.tolerances[name]

    def scale_tolerances(self, factor: float) -> None:
        scaled = {k: v * factor for k, v in self.tolerances.items()}
        if not all(0 < v < np.inf for v in scaled.values()):
            raise ScenarioError(f"scaling by {factor!r} leaves a tolerance that is not "
                                "positive and finite", "tolerances")
        self.tolerances = scaled

    def resolved_dict(self) -> dict:
        """Echo of the resolved configuration, embedded in reports."""
        return {
            "hbar": self.hbar,
            "operator": self.operator_text,
            "second_operator": self.second_operator_text,
            "dimension": self.dimension,
            "initial_state": [[float(z.real), float(z.imag)] for z in self.initial_state],
            "integrator": asdict(self.integrator),
            "outputs": dict(self.outputs),
            "seed": self.seed,
            "samples": self.samples,
            "tolerances": dict(self.tolerances),
            "phi_map": self.phi_map,
        }


def _resolve_operator(text, base_dir: Path, fieldname: str,
                      num_qubits: int | None = None) -> HermitianOperator:
    """Build the operator of ``text``; a Pauli sum on ``num_qubits`` sites if given."""
    if not isinstance(text, str) or not text.strip():
        raise ScenarioError("must be a non-empty string", fieldname)
    text = text.strip()
    if text.startswith("file:"):
        path = Path(text[len("file:"):])
        if not path.is_absolute():
            path = base_dir / path
        try:
            matrix = read_matrix_file(path)
        except (OSError, ValueError) as exc:
            raise ScenarioError(f"cannot read matrix file: {exc}", fieldname) from exc
    else:
        try:
            expr = parse_operator_expr(text)
        except OperatorSyntaxError as exc:
            raise ScenarioError(f"cannot parse operator expression {text!r}: {exc}",
                                fieldname) from exc
        qubits = max(expr.num_qubits, num_qubits or 0)
        if qubits >= MAX_DENSE_DIM.bit_length():  # 2**qubits > MAX_DENSE_DIM, a power of 2
            raise ScenarioError(f"{qubits} qubits exceed the dense limit of "
                                f"{MAX_DENSE_DIM} dimensions", fieldname)
        try:
            matrix = expr.to_matrix(num_qubits=num_qubits)
        except ValueError as exc:
            raise ScenarioError(str(exc), fieldname) from exc
    try:
        return make_hermitian(matrix, label=text)
    except NonHermitianError as exc:  # also a non-finite entry
        raise ScenarioError(f"operator {text!r}: {exc}", fieldname) from exc
    except NonSquareError as exc:
        raise ScenarioError(f"operator {text!r} is not square: {exc}", fieldname) from exc


def _resolve_initial_state(spec, dim: int) -> np.ndarray:
    if isinstance(spec, str):
        name = spec.strip()
        if name == "uniform":
            return np.ones(dim, dtype=complex) / np.sqrt(dim)
        if name.startswith("basis:"):
            try:
                k = int(name[len("basis:"):])
            except ValueError as exc:
                raise ScenarioError(f"bad basis index in {spec!r}", "initial_state") from exc
            if not 0 <= k < dim:
                raise ScenarioError(
                    f"basis index {k} out of range for dimension {dim}", "initial_state"
                )
            state = np.zeros(dim, dtype=complex)
            state[k] = 1.0
            return state
        raise ScenarioError(f"unknown preset {spec!r}", "initial_state")
    if isinstance(spec, (list, tuple)):
        entries = []
        for item in spec:
            if isinstance(item, (int, float)):
                entries.append(complex(item))
            elif isinstance(item, str):
                try:
                    entries.append(complex(item))
                except ValueError as exc:
                    raise ScenarioError(f"bad amplitude {item!r}", "initial_state") from exc
            else:
                raise ScenarioError(f"bad amplitude {item!r}", "initial_state")
        state = np.array(entries, dtype=complex)
        if state.shape[0] != dim:
            raise ScenarioError(
                f"length {state.shape[0]} does not match operator dimension {dim}",
                "initial_state",
            )
        nrm = float(np.linalg.norm(state))
        if nrm == 0.0:
            raise ScenarioError("initial state must be nonzero", "initial_state")
        return state / nrm
    raise ScenarioError("must be a preset string or a list of amplitudes", "initial_state")


def _resolve_integrator(spec) -> IntegratorConfig:
    if not isinstance(spec, dict):
        raise ScenarioError("must be an object", "integrator")
    merged = dict(_DEFAULT_INTEGRATOR)
    known = {"method", "dt", "steps", "solver_tol", "solver_max_iter", "stride"}
    for key in spec:
        if key not in known:
            raise ScenarioError(f"unknown key {key!r}", "integrator")
    merged.update(spec)
    try:
        return IntegratorConfig(**merged)
    except (TypeError, ValueError) as exc:
        raise ScenarioError(str(exc), "integrator") from exc


def _resolve_tolerances(spec) -> dict:
    merged = dict(DEFAULT_TOLERANCES)
    if spec is None:
        return merged
    if not isinstance(spec, dict):
        raise ScenarioError("must be an object mapping check names to reals", "tolerances")
    for key, value in spec.items():
        if key not in DEFAULT_TOLERANCES:
            raise ScenarioError(
                f"unknown check {key!r}; known: {sorted(DEFAULT_TOLERANCES)}", "tolerances"
            )
        if not isinstance(value, (int, float)) or not 0 < value < np.inf:
            raise ScenarioError(f"{key} must be a positive finite real", "tolerances")
        merged[key] = float(value)
    return merged


def load_scenario(path) -> Scenario:
    """Load, validate and resolve a scenario file."""
    path = Path(path)
    try:
        text = path.read_text()
    except OSError as exc:
        raise ScenarioError(f"cannot read scenario file: {exc}") from exc
    try:
        raw = json.loads(text)
    except json.JSONDecodeError as exc:
        raise ScenarioError(
            f"invalid JSON at line {exc.lineno}, column {exc.colno}: {exc.msg}"
        ) from exc
    if not isinstance(raw, dict):
        raise ScenarioError("scenario must be a JSON object")
    for key in raw:
        if key not in _KNOWN_KEYS:
            raise ScenarioError(f"unknown field {key!r}", key)
    if "operator" not in raw:
        raise ScenarioError("required field missing", "operator")

    base_dir = path.parent
    operator = _resolve_operator(raw["operator"], base_dir, "operator")
    try:
        space = SymplecticSpace(operator.dim, raw.get("hbar", 1.0))
    except (TypeError, ValueError) as exc:
        raise ScenarioError("must be a positive finite real", "hbar") from exc
    second = None
    if raw.get("second_operator") is not None:
        # A Pauli second operator acts on the operator's qubits, so "Y0"
        # next to a two-qubit operator means Y0*I1.
        qubits = operator.dim.bit_length() - 1
        second = _resolve_operator(raw["second_operator"], base_dir, "second_operator",
                                   qubits if operator.dim == 2 ** qubits else None)
        if second.dim != operator.dim:
            raise ScenarioError(
                f"dimension {second.dim} does not match operator dimension {operator.dim}",
                "second_operator",
            )

    initial_state = _resolve_initial_state(raw.get("initial_state", "uniform"), operator.dim)
    integrator = _resolve_integrator(raw.get("integrator", {}))

    outputs = raw.get("outputs", {})
    if not isinstance(outputs, dict):
        raise ScenarioError("must be an object", "outputs")
    for key, value in outputs.items():
        if key not in _OUTPUT_KEYS:
            raise ScenarioError(f"unknown output {key!r}", "outputs")
        if not isinstance(value, str) or not value:
            raise ScenarioError(f"{key} must be a non-empty file name", "outputs")

    seed = raw.get("seed", 0)
    if not isinstance(seed, int) or isinstance(seed, bool) or seed < 0:
        raise ScenarioError("must be a nonnegative integer", "seed")
    samples = raw.get("samples", 100)
    if not isinstance(samples, int) or isinstance(samples, bool) or samples < 1:
        raise ScenarioError("must be a positive integer", "samples")

    phi_map = raw.get("phi_map", "reconstruction")
    if phi_map not in PHI_MAPS:
        raise ScenarioError(f"must be one of {PHI_MAPS}", "phi_map")

    return Scenario(
        space=space,
        operator_text=str(raw["operator"]).strip(),
        operator=operator,
        second_operator_text=(str(raw["second_operator"]).strip()
                              if second is not None else None),
        second_operator=second,
        initial_state=initial_state,
        integrator=integrator,
        outputs=dict(outputs),
        seed=int(seed),
        samples=int(samples),
        tolerances=_resolve_tolerances(raw.get("tolerances")),
        phi_map=str(phi_map),
    )
