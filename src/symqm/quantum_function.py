"""Quantum functions: observables carrying eigenvalues, eigenfunctions and
stationary states.

A quantum function is a bundle ``(f, a_n, u_n, xi_n)`` satisfying

* decomposition         ``f = sum_n a_n |u_n|^2``
* bracket               ``i*hbar*{f, u_n} = a_n u_n``
* normalization         ``sum_n |u_n|^2 = 1``
* stationary evaluation ``u_n(xi_m) = delta_mn`` and ``f(xi_n) = a_n``

Every Hermitian operator induces one through its spectral decomposition
(:func:`from_operator`); :func:`verify_axioms` measures the residuals of
the four properties on seeded random states.  The reconstruction map sends
phase-space points back to a Hilbert-space picture, and the residual of
the quantum-function equation ``i*hbar*{<Phi|A|Phi>, Phi} = A Phi`` tests
arbitrary candidate maps ``Phi``.
"""

from __future__ import annotations

from dataclasses import asdict, dataclass
from typing import Callable, Sequence

import numpy as np

from .brackets import (
    BRACKET_REPORT_STEP,
    ComplexFunction,
    ObservableFunction,
    _apply_canonical_j,
    _central_differences,
    _fd_field,
    _worst,
)
from .errors import DimensionMismatchError, NormalizationError, PreconditionFailedError
from .operators import (
    HermitianOperator,
    _evolved_coefficients,
    _row_blocks,
    expectations,
    make_hermitian,
    quadratic_form,
    spectral_decompose,
)
from .sampling import random_unit_state
from .spaces import (
    StatePoint,
    SymplecticSpace,
    _as_complex_vector,
    to_real_coords,
)

__all__ = [
    "QuantumFunction",
    "ReconstructionMap",
    "AxiomTolerances",
    "AxiomReport",
    "ReconstructionReport",
    "from_operator",
    "evaluate",
    "verify_axioms",
    "reconstruction_map",
    "verify_reconstruction",
    "qfe_residual",
    "quantum_function_from_qfe",
]

UNIT_STATE_TOL = 1e-9


@dataclass(frozen=True)
class QuantumFunction:
    """An observable with eigenvalues, eigenfunctions and stationary states.

    ``f`` backs flows and brackets; :meth:`value` evaluates the defining
    sum ``sum_n a_n |u_n|^2`` directly from the quantum coordinates.
    """

    space: SymplecticSpace
    eigenvalues: np.ndarray
    eigenfunctions: tuple
    stationary_states: tuple
    f: ObservableFunction
    degenerate_flag: bool
    coords_fn: Callable[[np.ndarray], np.ndarray] | None = None

    def __post_init__(self):
        a = np.asarray(self.eigenvalues, dtype=float).copy()
        a.setflags(write=False)
        object.__setattr__(self, "eigenvalues", a)
        object.__setattr__(self, "eigenfunctions", tuple(self.eigenfunctions))
        object.__setattr__(self, "stationary_states", tuple(self.stationary_states))
        n = a.shape[0]
        if len(self.eigenfunctions) != n or len(self.stationary_states) != n:
            raise DimensionMismatchError(
                "eigenvalues, eigenfunctions and stationary states counts differ"
            )

    @property
    def size(self) -> int:
        return self.eigenvalues.shape[0]

    def quantum_coordinates(self, xi) -> np.ndarray:
        """The vector ``(u_1(xi), ..., u_n(xi))``."""
        v = _as_complex_vector(xi)
        if self.coords_fn is not None:
            return np.asarray(self.coords_fn(v), dtype=complex)
        return np.array([u(v) for u in self.eigenfunctions], dtype=complex)

    def coordinate_matrix(self) -> np.ndarray | None:
        """The vectors ``phi_n`` of coordinate eigenfunctions ``u_n = <phi_n|.>``.

        Returned as the columns of a new ``(dim, size)`` array, so
        ``psi.conj() @ U`` holds every ``conj(u_n(psi))``; ``None`` when
        some ``u_n`` is a generic function.
        """
        if any(u.vector is None for u in self.eigenfunctions):
            return None
        return np.column_stack([u.vector for u in self.eigenfunctions])

    @property
    def operator_backed(self) -> bool:
        """``f = <A>`` and every ``u_n`` a coordinate functional: the closed forms apply."""
        return self.f.operator is not None and all(u.vector is not None for u in self.eigenfunctions)

    def value(self, xi) -> float:
        """Evaluate the defining sum ``sum_n a_n |u_n(xi)|^2``."""
        coords = self.quantum_coordinates(xi)
        return float(np.sum(self.eigenvalues * np.abs(coords) ** 2))


def from_operator(a: HermitianOperator, space: SymplecticSpace) -> QuantumFunction:
    """The quantum function induced by a Hermitian operator.

    Spectrally decomposes ``A``; the eigenfunctions are the coordinate
    functionals of the (gauge-fixed) eigenvectors, which double as the
    stationary states, and ``f`` is the expectation-value function of
    ``A`` itself.
    """
    if a.dim != space.complex_dim:
        raise DimensionMismatchError(
            f"operator dimension {a.dim} != space complex_dim {space.complex_dim}"
        )
    spectral = spectral_decompose(a)
    basis = spectral.eigenvectors
    eigenfunctions = tuple(
        ComplexFunction.coordinate(basis[:, k], space, label=f"u_{k}")
        for k in range(a.dim)
    )
    stationary = tuple(StatePoint(basis[:, k], normalized=True) for k in range(a.dim))
    return QuantumFunction(
        space=space,
        eigenvalues=spectral.eigenvalues,
        eigenfunctions=eigenfunctions,
        stationary_states=stationary,
        f=ObservableFunction.expectation_of(a, space),
        degenerate_flag=spectral.degenerate_flag,
        # conj(v^H B) equals B^H v without conjugating all of B per call.
        coords_fn=lambda v, b=basis: (v.conj() @ b).conj(),
    )


def evaluate(qf: QuantumFunction, xi) -> float:
    """Evaluate ``qf`` at a unit state; rejects non-normalized input."""
    v = _as_complex_vector(xi)
    deviation = abs(float(np.linalg.norm(v)) - 1.0)
    if deviation > UNIT_STATE_TOL:
        raise NormalizationError(
            f"state deviates from unit norm by {deviation:.3e}"
        )
    return qf.value(v)


@dataclass(frozen=True)
class AxiomTolerances:
    """Per-axiom residual tolerances."""

    decomposition: float = 1e-10
    bracket: float = 1e-10
    normalization: float = 1e-10
    stationary_delta: float = 1e-10
    stationary_value: float = 1e-10

    @classmethod
    def finite_difference(cls) -> "AxiomTolerances":
        """Looser defaults for quantum functions checked with numeric brackets."""
        return cls(1e-5, 1e-5, 1e-5, 1e-5, 1e-5)

    def scaled(self, factor: float) -> "AxiomTolerances":
        return AxiomTolerances(**{name: tol * factor for name, tol in asdict(self).items()})


@dataclass(frozen=True)
class AxiomReport:
    """Residuals of the quantum-function axioms over sampled states."""

    decomposition: float
    bracket: float
    normalization: float
    stationary_delta: float
    stationary_value: float
    samples: int
    seed: int
    method: str
    degenerate_flag: bool
    tolerances: AxiomTolerances

    def checks(self) -> dict:
        """Residual vs tolerance verdict per axiom."""
        return {name: getattr(self, name) <= tol for name, tol in asdict(self.tolerances).items()}

    @property
    def passed(self) -> bool:
        return all(self.checks().values())

    def as_dict(self) -> dict:
        return {
            "residuals": {name: getattr(self, name) for name in asdict(self.tolerances)},
            "tolerances": asdict(self.tolerances),
            "checks": self.checks(),
            "samples": self.samples,
            "seed": self.seed,
            "method": self.method,
            "degenerate_flag": self.degenerate_flag,
            "passed": self.passed,
        }


def _coordinate_rows(qf: QuantumFunction, basis, states: np.ndarray) -> np.ndarray:
    """Every ``u_n`` at every row of ``states``: one product with ``basis``, else a call per row."""
    if basis is not None:
        return (states.conj() @ basis).conj()
    return np.array([qf.quantum_coordinates(psi) for psi in states], dtype=complex)


def _analytic_brackets(qf: QuantumFunction, psi: np.ndarray, basis: np.ndarray) -> np.ndarray:
    """Every ``{f, u_n}(psi) = <phi_n, -(i/hbar) A psi>`` from one product."""
    field = -1j / qf.space.hbar * qf.f.operator.apply(psi)
    return (field.conj() @ basis).conj()


def _fd_brackets(qf: QuantumFunction, psi: np.ndarray, basis) -> np.ndarray:
    """Every ``{f, u_n}(psi)`` from one central-difference gradient of ``f`` and
    one Jacobian of all the ``u_n``, step ``BRACKET_REPORT_STEP``; no closed-form field."""
    field = _fd_field(qf.f, psi, BRACKET_REPORT_STEP)
    jac = _central_differences(lambda s: _coordinate_rows(qf, basis, s), qf.space,
                               to_real_coords(psi, qf.space), BRACKET_REPORT_STEP)
    return field @ jac


def verify_axioms(qf: QuantumFunction, samples: int, seed: int,
                  tol: AxiomTolerances | None = None,
                  method: str = "auto") -> AxiomReport:
    """Measure the four axiom residuals on seeded random unit states.

    ``method`` selects the bracket backend: ``"auto"`` picks the analytic
    path when the quantum function is operator-backed, else central finite
    differences (step ``1e-5``).  Either path checks all ``n`` brackets of
    a sample at once: with ``U`` the coordinate vectors, the analytic
    ``i*hbar*U^H X_f(psi)`` (``X_f(psi) = -(i/hbar) A psi``) or the
    finite-difference ``i*hbar*{f, u_n}`` against ``a * coords``, where
    ``coords`` come from :meth:`QuantumFunction.quantum_coordinates`.  A
    NaN residual fails.
    """
    n = qf.space.complex_dim
    basis = qf.coordinate_matrix()
    if method == "auto":
        method = "analytic" if qf.operator_backed else "finite_difference"
    if method == "analytic" and not qf.operator_backed:
        raise ValueError("analytic axiom verification requires an operator-backed quantum function")
    if tol is None:
        tol = AxiomTolerances() if method == "analytic" else AxiomTolerances.finite_difference()

    ih = 1j * qf.space.hbar

    decomposition = bracket = normalization = 0.0
    for i in range(int(samples)):
        psi = random_unit_state(n, seed, i)
        coords = qf.quantum_coordinates(psi)
        weight = float(np.sum(qf.eigenvalues * np.abs(coords) ** 2))
        decomposition = _worst(decomposition, abs(qf.f(psi) - weight))
        normalization = _worst(normalization, abs(float(np.sum(np.abs(coords) ** 2)) - 1.0))
        brackets = (_analytic_brackets if method == "analytic" else _fd_brackets)(qf, psi, basis)
        bracket = _worst(bracket, float(np.max(np.abs(ih * brackets - qf.eigenvalues * coords))))

    stationary_delta = stationary_value = 0.0
    for m, xi in enumerate(qf.stationary_states):
        coords = qf.quantum_coordinates(xi)
        target = np.zeros(qf.size)
        target[m] = 1.0
        stationary_delta = _worst(stationary_delta, float(np.max(np.abs(coords - target))))
        stationary_value = _worst(stationary_value, abs(qf.f(xi) - qf.eigenvalues[m]))

    return AxiomReport(
        decomposition=float(decomposition),
        bracket=float(bracket),
        normalization=float(normalization),
        stationary_delta=float(stationary_delta),
        stationary_value=float(stationary_value),
        samples=int(samples),
        seed=int(seed),
        method=method,
        degenerate_flag=qf.degenerate_flag,
        tolerances=tol,
    )


@dataclass(frozen=True)
class ReconstructionMap:
    """The map ``xi -> (u_1(xi), ..., u_n(xi))`` into the recovered basis.

    ``recovered_operator`` is the diagonal operator with the quantum
    function's eigenvalues, whose expectation in the image reproduces the
    quantum function's values.
    """

    qf: QuantumFunction
    recovered_operator: HermitianOperator

    def __call__(self, xi) -> np.ndarray:
        return self.qf.quantum_coordinates(xi)


def reconstruction_map(qf: QuantumFunction) -> ReconstructionMap:
    """Bundle the quantum coordinates with the recovered diagonal operator."""
    recovered = make_hermitian(np.diag(qf.eigenvalues), label="recovered")
    return ReconstructionMap(qf=qf, recovered_operator=recovered)


@dataclass(frozen=True)
class ReconstructionReport:
    """Residuals of the recovered Hilbert-space picture.

    ``intertwining_residual`` compares the image of a Hamiltonian
    trajectory with the spectral evolution of its initial image; the
    remaining fields measure the pointwise identities (flow equation,
    value decomposition, unit norm of the image, stationary-state images)
    on sampled states.
    """

    intertwining_residual: float
    flow_equation_residual_analytic: float | None
    flow_equation_residual_fd: float
    value_residual: float
    norm_residual: float
    stationary_residual: float
    samples: int
    seed: int
    degenerate_flag: bool


def verify_reconstruction(qf: QuantumFunction, traj, samples: int = 100,
                          seed: int = 0) -> ReconstructionReport:
    """Check the recovered picture against a trajectory of the flow of ``qf.f``.

    The trajectory must have been generated by the flow of ``qf.f``; its
    image under the reconstruction map is compared with the exact spectral
    evolution generated by the recovered diagonal operator, one block of
    stored steps at a time.  Pointwise identities are measured on
    ``samples`` seeded random unit states, every eigen-index of a sample at
    once: the finite-difference flow check takes one gradient of ``f`` and
    one Jacobian of all the ``u_n`` per sample.
    """
    hbar = qf.space.hbar
    a = qf.eigenvalues
    basis = qf.coordinate_matrix()

    image0 = qf.quantum_coordinates(traj.states[0])
    elapsed = traj.times - traj.times[0]
    intertwining = 0.0
    for rows in _row_blocks(len(traj)):
        evolved = _evolved_coefficients(image0, a, elapsed[rows], hbar)
        drift = np.linalg.norm(_coordinate_rows(qf, basis, traj.states[rows]) - evolved, axis=1)
        intertwining = _worst(intertwining, float(np.max(drift)))

    ih = 1j * hbar
    flow_analytic = 0.0 if qf.operator_backed else None
    flow_fd = value = norm_res = 0.0
    for i in range(int(samples)):
        psi = random_unit_state(qf.space.complex_dim, seed, i)
        coords = qf.quantum_coordinates(psi)
        target = a * coords
        if flow_analytic is not None:
            lhs = ih * _analytic_brackets(qf, psi, basis)
            flow_analytic = _worst(flow_analytic, float(np.max(np.abs(lhs - target))))
        lhs = ih * _fd_brackets(qf, psi, basis)
        flow_fd = _worst(flow_fd, float(np.max(np.abs(lhs - target))))
        value = _worst(value, abs(qf.f(psi) - float(np.sum(a * np.abs(coords) ** 2))))
        norm_res = _worst(norm_res, abs(float(np.linalg.norm(coords)) - 1.0))

    stationary = 0.0
    for m, xi in enumerate(qf.stationary_states):
        target = np.zeros(qf.size, dtype=complex)
        target[m] = 1.0
        stationary = _worst(stationary, float(np.linalg.norm(qf.quantum_coordinates(xi) - target)))

    return ReconstructionReport(
        intertwining_residual=float(intertwining),
        flow_equation_residual_analytic=None if flow_analytic is None else float(flow_analytic),
        flow_equation_residual_fd=float(flow_fd),
        value_residual=float(value),
        norm_residual=float(norm_res),
        stationary_residual=float(stationary),
        samples=int(samples),
        seed=int(seed),
        degenerate_flag=qf.degenerate_flag,
    )


def _map_callable(phi) -> Callable[[np.ndarray], np.ndarray]:
    return lambda v: np.asarray(phi(v), dtype=complex)


def qfe_residual(a: HermitianOperator, phi, space: SymplecticSpace,
                 samples: int = 100, seed: int = 0,
                 norm_tol: float = UNIT_STATE_TOL) -> float:
    """Max residual of ``i*hbar*{<Phi|A|Phi>, Phi} = A Phi`` on sampled states.

    ``phi`` maps unit states of ``space`` to unit vectors of the operator's
    Hilbert space (checked on the samples to ``norm_tol``).  The bracket of
    the induced observable with each component of ``phi`` is computed by
    central differences: ``phi`` is evaluated once at each of the ``4n``
    perturbed states of a sample, and both the gradient of the induced
    observable and the Jacobian of ``phi`` come from those images.  The
    residual is the max over components and samples.
    """
    phi_fn = _map_callable(phi)
    states = [random_unit_state(space.complex_dim, seed, i) for i in range(int(samples))]

    images = []
    worst_norm = 0.0
    for psi in states:
        img = phi_fn(psi)
        if img.ndim != 1 or img.shape[0] != a.dim:
            raise DimensionMismatchError(
                f"map output has shape {img.shape}, operator has dimension {a.dim}"
            )
        worst_norm = _worst(worst_norm, abs(float(np.linalg.norm(img)) - 1.0))
        images.append(img)
    if not worst_norm <= norm_tol:
        raise NormalizationError(
            f"map violates unit-norm output by {worst_norm:.3e} (tolerance {norm_tol:.1e})"
        )

    def induced_and_images(rows: np.ndarray) -> np.ndarray:
        # Column 0 holds <Phi|A|Phi>, the others Phi, per perturbed state.
        out = np.array([phi_fn(v) for v in rows], dtype=complex)
        return np.column_stack([expectations(a, out), out])

    ih = 1j * space.hbar
    residual = 0.0
    for psi, img in zip(states, images):
        jac = _central_differences(induced_and_images, space, to_real_coords(psi, space),
                                   BRACKET_REPORT_STEP)
        bracket_vec = _apply_canonical_j(space, jac[:, 0].real) @ jac[:, 1:]
        residual = _worst(residual, float(np.max(np.abs(ih * bracket_vec - a.apply(img)))))
    return float(residual)


def quantum_function_from_qfe(a: HermitianOperator, phi, xi_n: Sequence,
                              space: SymplecticSpace, samples: int = 100,
                              seed: int = 0, tol: float = 1e-5) -> QuantumFunction:
    """Package ``<Phi|A|Phi>`` as a quantum function, checking the hypotheses.

    Verifies in order: unit-norm outputs on sampled states, stationary
    images ``Phi(xi_n) = psi_n`` up to a per-``n`` global phase, and the
    quantum-function equation residual, each against ``tol``.  The
    resulting eigenfunctions are the expansion coefficients of ``Phi`` in
    the eigenbasis of ``A``.  A NaN residual fails its check.
    """
    phi_fn = _map_callable(phi)
    spectral = spectral_decompose(a)
    if len(xi_n) != a.dim:
        raise DimensionMismatchError(
            f"expected {a.dim} stationary states, got {len(xi_n)}"
        )

    worst_norm = 0.0
    for i in range(int(samples)):
        psi = random_unit_state(space.complex_dim, seed, i)
        worst_norm = _worst(worst_norm, abs(float(np.linalg.norm(phi_fn(psi))) - 1.0))
    if not worst_norm <= tol:
        raise PreconditionFailedError("normalization", worst_norm)

    basis = spectral.eigenvectors
    worst_match = 0.0
    for k, xi in enumerate(xi_n):
        image = phi_fn(_as_complex_vector(xi))
        overlap = complex(np.vdot(basis[:, k], image))
        phase = overlap / abs(overlap) if abs(overlap) > 0 else 1.0
        worst_match = _worst(
            worst_match, float(np.linalg.norm(image * np.conj(phase) - basis[:, k]))
        )
    if not worst_match <= tol:
        raise PreconditionFailedError("stationary-state match", worst_match)

    equation_residual = qfe_residual(a, phi_fn, space, samples=samples, seed=seed, norm_tol=tol)
    if not equation_residual <= tol:
        raise PreconditionFailedError("quantum-function equation", equation_residual)

    def coords_fn(v: np.ndarray, b=basis) -> np.ndarray:
        return b.conj().T @ phi_fn(v)

    eigenfunctions = tuple(
        ComplexFunction.from_callable(
            lambda v, k=k: complex(coords_fn(v)[k]), space, label=f"u_{k}"
        )
        for k in range(a.dim)
    )
    induced = ObservableFunction.from_callable(
        lambda v: quadratic_form(a, phi_fn(v)).real, space, label="induced"
    )
    return QuantumFunction(
        space=space,
        eigenvalues=spectral.eigenvalues,
        eigenfunctions=eigenfunctions,
        stationary_states=tuple(
            xi if isinstance(xi, StatePoint) else StatePoint(xi) for xi in xi_n
        ),
        f=induced,
        degenerate_flag=spectral.degenerate_flag,
        coords_fn=coords_fn,
    )
