"""Scenario files: a JSON object configuring one CLI run.

The file is read as JSON bytes, in UTF-8 (a byte-order mark is allowed),
UTF-16 or UTF-32.  Recognized keys::

    hbar            positive finite real, default 1
    operator        Pauli-sum expression, or "file:PATH" for a dense matrix;
                    at most MAX_DENSE_DIM = 4096 dimensions (12 qubits)
    second_operator optional, same forms; enables bracket reports
    initial_state   "uniform" | "basis:k" | list of finite entries ("a+bj"
                    strings or plain numbers) whose squared norm is a nonzero
                    finite float, neither overflowing nor underflowing;
                    normalized on load
    integrator      {method, dt, steps, solver_tol, solver_max_iter, stride};
                    dt * steps must be a finite float, and steps / stride at
                    most 10**6.  Every command integrates the expectation of
                    the operator, a linear field, on which midpoint and Cayley
                    take one step; solver_tol and solver_max_iter govern only
                    the fixed-point loop of generic observables
    outputs         {report: NAME, trajectory: NAME} relative to --out, with
                    no NUL; for evolve the two must be different files
    seed            whole number >= 0, default 0
    samples         whole number from 1 to MAX_SAMPLES = 10**6, default 100;
                    samples * dimension at most MAX_DENSE_DIM**2 = 2**24, the
                    entries of the largest dense operator
    tolerances      per-check overrides, see DEFAULT_TOLERANCES
    phi_map         "reconstruction" | "identity" | "constant" (reconstruct
                    command only; "constant" is the negative control)

Each kind of value has one check in :mod:`symqm.errors`, which names the
field: a whole number (``steps``, ``stride``, ``solver_max_iter``, ``seed``,
``samples``) may be written ``100`` or ``100.0``, not ``100.5`` or ``true``;
a real (``hbar``, ``dt``, ``solver_tol``, each tolerance) must be positive
and finite; an object may hold only its known keys.  The CLI's ``--seed``
and ``--tol-scale`` pass the same checks as the fields they replace.
Defaults are applied on load and echoed into every report.

``DEFAULT_TOLERANCES`` is the one table of default tolerances, one per check
the CLI judges: the library measures residuals, and ``symqm.cli`` holds each
against its entry here, overridden and scaled.
"""

from __future__ import annotations

import json
from dataclasses import asdict, dataclass, fields
from pathlib import Path

import numpy as np

from .dynamics import IntegratorConfig
from .errors import (
    NonHermitianError,
    NonSquareError,
    OperatorSyntaxError,
    ScenarioError,
    _count,
    _object,
    _positive,
)
from .operators import MAX_DENSE_DIM, HermitianOperator, make_hermitian, read_matrix_file
from .pauli import parse_operator_expr
from .spaces import SymplecticSpace

__all__ = ["Scenario", "load_scenario", "DEFAULT_TOLERANCES", "PHI_MAPS", "MAX_SAMPLES"]

MAX_SAMPLES = 10**6  # the bound stored steps have, checked before any draw

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

_FIELDS = (
    "hbar", "operator", "second_operator", "initial_state", "integrator",
    "outputs", "seed", "samples", "tolerances", "phi_map",
)
_DEFAULT_INTEGRATOR = {"method": "midpoint", "dt": 1e-3, "steps": 1000}


@dataclass(frozen=True)
class Scenario:
    """A fully resolved scenario, defaults applied."""

    space: SymplecticSpace
    operator: HermitianOperator
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

    def resolved_dict(self) -> dict:
        """Echo of the resolved configuration, embedded in reports."""
        return {
            "hbar": self.hbar,
            "operator": self.operator.label,
            "second_operator": self.second_operator.label if self.second_operator else None,
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
            try:  # a number or a string such as "a+bj"; a boolean is neither
                if isinstance(item, bool) or not isinstance(item, (int, float, str)):
                    raise ValueError
                entries.append(complex(item))
            except (ValueError, OverflowError) as exc:  # OverflowError: an int too large for a float
                raise ScenarioError(f"bad amplitude {item!r}", "initial_state") from exc
        state = np.array(entries, dtype=complex)
        if state.shape[0] != dim:
            raise ScenarioError(
                f"length {state.shape[0]} does not match operator dimension {dim}",
                "initial_state",
            )
        with np.errstate(over="ignore"):
            nrm = float(np.linalg.norm(state))
        if not np.finfo(float).tiny <= nrm * nrm < np.inf:  # also a NaN or an infinite entry
            raise ScenarioError("amplitudes must be finite, with a nonzero squared norm that "
                                "neither overflows nor underflows", "initial_state")
        return state / nrm
    raise ScenarioError("must be a preset string or a list of amplitudes", "initial_state")


def load_scenario(path) -> Scenario:
    """Load, validate and resolve a scenario file."""
    path = Path(path)
    try:
        data = path.read_bytes()  # json.loads detects UTF-8, -16 or -32
    except OSError as exc:
        raise ScenarioError(f"cannot read scenario file: {exc}") from exc
    try:
        raw = json.loads(data)
    except json.JSONDecodeError as exc:
        raise ScenarioError(
            f"invalid JSON at line {exc.lineno}, column {exc.colno}: {exc.msg}"
        ) from exc
    except ValueError as exc:  # undecodable bytes, or a whole number of too many digits
        raise ScenarioError(f"invalid JSON: {exc}") from exc
    if "operator" not in _object(raw, "scenario", _FIELDS):
        raise ScenarioError("required field missing", "operator")

    base_dir = path.parent
    operator = _resolve_operator(raw["operator"], base_dir, "operator")
    space = SymplecticSpace(operator.dim, raw.get("hbar", 1.0))
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
    integrator = _object(raw.get("integrator", {}), "integrator",
                         [field.name for field in fields(IntegratorConfig)])
    try:
        integrator = IntegratorConfig(**{**_DEFAULT_INTEGRATOR, **integrator})
    except ValueError as exc:
        raise ScenarioError(str(exc), "integrator") from exc

    outputs = _object(raw.get("outputs", {}), "outputs", ("report", "trajectory"))
    for key, value in outputs.items():
        if not isinstance(value, str) or not value or "\0" in value:
            raise ScenarioError(f"{key} must be a non-empty file name without a NUL", "outputs")
    tolerances = raw.get("tolerances")  # null stands for the defaults
    tolerances = _object({} if tolerances is None else tolerances, "tolerances",
                         DEFAULT_TOLERANCES)

    samples = _count(raw.get("samples", 100), "samples")
    if samples > MAX_SAMPLES:
        raise ScenarioError(f"must be at most {MAX_SAMPLES}", "samples")
    if samples * operator.dim > MAX_DENSE_DIM**2:  # the states drawn, checked before any draw
        raise ScenarioError(f"{samples} states of dimension {operator.dim} exceed the "
                            f"{MAX_DENSE_DIM**2} entries of the largest dense operator", "samples")

    phi_map = raw.get("phi_map", "reconstruction")
    if phi_map not in PHI_MAPS:
        raise ScenarioError(f"must be one of {PHI_MAPS}", "phi_map")

    return Scenario(
        space=space,
        operator=operator,
        second_operator=second,
        initial_state=initial_state,
        integrator=integrator,
        outputs=dict(outputs),
        seed=_count(raw.get("seed", 0), "seed", 0),
        samples=samples,
        tolerances={**DEFAULT_TOLERANCES, **{name: _positive(tol, f"tolerances.{name}")
                                             for name, tol in tolerances.items()}},
        phi_map=str(phi_map),
    )
