"""Quantum functions: observables carrying eigenvalues, quantum coordinates
and stationary states.

A quantum function is a bundle ``(f, a_n, u_n, xi_n)`` satisfying

* decomposition         ``f = sum_n a_n |u_n|^2``
* bracket               ``i*hbar*{f, u_n} = a_n u_n``
* normalization         ``sum_n |u_n|^2 = 1``
* stationary evaluation ``u_n(xi_m) = delta_mn`` and ``f(xi_n) = a_n``

It holds its ``u_n`` in one coordinate source: the matrix of the
``phi_n`` of ``u_n = <phi_n|.>``, or one row-wise map from a stack of states
to their coordinates.  Every Hermitian operator induces one through its
spectral decomposition (:func:`from_operator`), whose eigenvector matrix is
its coordinates and, transposed, its stationary states.  Every check reads
the coordinates over the rows of a matrix of states, in one call:
:func:`verify_axioms` and :func:`verify_reconstruction` measure the
residuals through one core, a matrix of seeded unit states, drawn once,
with its quantum coordinates and value residuals; each report reduces them
its own way.  The reconstruction map (:func:`reconstruction_map`, a
:class:`RowwiseMap` of the coordinates) sends phase-space points back to a
Hilbert-space picture, and the residual of the quantum-function equation
``i*hbar*{<Phi|A|Phi>, Phi} = A Phi`` tests arbitrary candidate maps ``Phi``.
"""

from __future__ import annotations

from dataclasses import asdict, dataclass
from functools import cached_property
from typing import Callable, Sequence

import numpy as np

from .brackets import (
    BRACKET_REPORT_STEP,
    ComplexFunction,
    ObservableFunction,
    _checked_field,
    _closed_form_field,
    _fd_bracket,
    _fd_fields,
    _largest,
    _observable_values,
    _use_closed_form,
)
from .errors import DimensionMismatchError, NormalizationError, PreconditionFailedError, _count
from .operators import (
    HermitianOperator,
    _coordinates,
    _product,
    _row_blocks,
    _spectral_drift,
    quadratic_form,
    spectral_decompose,
)
from .sampling import random_unit_states
from .spaces import SymplecticSpace, _as_complex_vector, _frozen, hermitian_inner

__all__ = [
    "QuantumFunction",
    "RowwiseMap",
    "AxiomTolerances",
    "AxiomReport",
    "ReconstructionReport",
    "from_operator",
    "verify_axioms",
    "reconstruction_map",
    "verify_reconstruction",
    "qfe_residual",
    "quantum_function_from_qfe",
]

UNIT_STATE_TOL = 1e-9


@dataclass(frozen=True)
class QuantumFunction:
    """An observable with eigenvalues, quantum coordinates and stationary states.

    ``coordinates`` is the one source of the ``u_n``: either the read-only
    ``(dim, n)`` matrix whose columns are the ``phi_n`` of ``u_n = <phi_n|.>``
    (``psi.conj() @ coordinates`` holds each ``conj(u_n(psi))``, and the
    closed forms apply), or a :class:`RowwiseMap` from a ``(rows, dim)`` stack
    of states to its ``(rows, n)`` coordinates.  ``stationary_states`` is the
    read-only ``(n, dim)`` array whose row ``m`` is ``xi_m``.  Both keep the
    dtype they are given: float64 for the eigenbasis of a real operator,
    complex128 otherwise.  :attr:`eigenfunctions` are the ``u_n`` one by one,
    derived from ``coordinates``.  ``f`` backs flows and brackets.
    """

    space: SymplecticSpace
    eigenvalues: np.ndarray
    coordinates: np.ndarray | RowwiseMap
    stationary_states: np.ndarray
    f: ObservableFunction
    degenerate_flag: bool

    def __post_init__(self):
        object.__setattr__(self, "eigenvalues", _frozen(self.eigenvalues, float))
        object.__setattr__(self, "stationary_states", _frozen(self.stationary_states, None))
        dims = (self.space.complex_dim, self.size)
        matrix = not isinstance(self.coordinates, RowwiseMap)
        if matrix:
            object.__setattr__(self, "coordinates", _frozen(self.coordinates, None))
        if self.stationary_states.shape != dims[::-1] or matrix and self.coordinates.shape != dims:
            raise DimensionMismatchError(f"{self.size} eigenvalues on {dims[0]} dimensions need "
                                         f"stationary states {dims[::-1]} and coordinates {dims}")

    @property
    def size(self) -> int:
        return self.eigenvalues.shape[0]

    @cached_property
    def eigenfunctions(self) -> tuple:
        """The ``u_n`` one by one, for the per-function API: a column of the coordinate
        matrix each (a view), or entry ``n`` of the coordinate map."""
        if isinstance(self.coordinates, np.ndarray):
            return tuple(ComplexFunction.coordinate(phi, self.space, label=f"u_{k}")
                         for k, phi in enumerate(self.coordinates.T))
        return tuple(ComplexFunction.from_callable(lambda v, k=k: complex(_coordinate_rows(self, v)[k]),
                                                   self.space, label=f"u_{k}") for k in range(self.size))

    @property
    def operator_backed(self) -> bool:
        """``f = <A>`` and every ``u_n`` a coordinate functional: the closed forms apply."""
        return self.f.operator is not None and isinstance(self.coordinates, np.ndarray)


def from_operator(a: HermitianOperator, space: SymplecticSpace) -> QuantumFunction:
    """The quantum function induced by a Hermitian operator.

    Spectrally decomposes ``A``; the (gauge-fixed) eigenvector matrix is the
    coordinate matrix, and its transpose the stationary states, both adopted
    as read-only views of the one eigenbasis; ``f`` is the expectation-value
    function of ``A`` itself.
    """
    if a.dim != space.complex_dim:
        raise DimensionMismatchError(
            f"operator dimension {a.dim} != space complex_dim {space.complex_dim}"
        )
    spectral = spectral_decompose(a)
    return QuantumFunction(
        space=space,
        eigenvalues=spectral.eigenvalues,
        coordinates=spectral.eigenvectors,
        stationary_states=spectral.eigenvectors.T,
        f=ObservableFunction.expectation_of(a, space),
        degenerate_flag=spectral.degenerate_flag,
    )


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


def _coordinate_rows(qf: QuantumFunction, states: np.ndarray) -> np.ndarray:
    """Every ``u_n`` at one state or at every row of ``states``: one product with the
    coordinate matrix, or one call of the coordinate map."""
    if isinstance(qf.coordinates, np.ndarray):
        return _coordinates(states, qf.coordinates)
    coords = _map_rows(qf.coordinates, np.atleast_2d(states), qf.size)
    return coords.reshape(states.shape[:-1] + (qf.size,))


def _sampled_rows(qf: QuantumFunction, samples: int, seed: int):
    """The core both verifications share: ``samples`` seeded unit states as the rows of
    one matrix, their quantum coordinates and the value residual ``|f - sum_n a_n |u_n|^2|``."""
    states = random_unit_states(qf.space.complex_dim, seed, _count(samples, "samples"))
    coords = _coordinate_rows(qf, states)
    weights = np.sum(qf.eigenvalues * np.abs(coords) ** 2, axis=1)
    return states, coords, np.abs(_observable_values(qf.f, states) - weights)


def _flow_residual(qf: QuantumFunction, states, coords, field=None, analytic=False) -> float:
    """Max of ``|i*hbar*{f, u_n} - a_n u_n|`` over the rows of ``states`` and every ``n``, ``field``
    the ``X_f`` per row: the linear ``u_n`` at it (default: the closed form) if ``analytic``, else the
    FD kernel of the ``u_n`` along it (default: ``J grad f`` from ``f``), step ``BRACKET_REPORT_STEP``."""
    if field is None:
        field = _closed_form_field(qf.f, states) if analytic else _fd_fields(
            lambda s: _observable_values(qf.f, s), qf.space, states, BRACKET_REPORT_STEP)
    brackets = _coordinate_rows(qf, field) if analytic else _fd_bracket(
        lambda s: _coordinate_rows(qf, s), qf.space, states, field, BRACKET_REPORT_STEP)
    return _largest(np.abs(1j * qf.space.hbar * brackets - qf.eigenvalues * coords))


def _stationary_blocks(qf: QuantumFunction):
    """``(rows, xi, u(xi) - e)`` for the stationary states ``xi_m``, ``m`` in one block of rows;
    ``xi`` is a C-contiguous copy, so the products see one layout even where the states are
    a transposed view (:func:`from_operator`)."""
    for rows in _row_blocks(qf.size, max(qf.size, qf.space.complex_dim)):
        xi = np.ascontiguousarray(qf.stationary_states[rows])
        yield rows, xi, _coordinate_rows(qf, xi) - np.eye(len(xi), qf.size, rows.start)


def verify_axioms(qf: QuantumFunction, samples: int, seed: int,
                  tol: AxiomTolerances | None = None,
                  method: str = "auto") -> AxiomReport:
    """Measure the four axiom residuals on seeded random unit states.

    ``method`` selects the bracket backend: ``"auto"`` picks the analytic
    path when the quantum function is operator-backed, else central finite
    differences (step ``1e-5``), which ``"finite_difference"`` forces; the
    report names the path taken.  The samples, their coordinates and value
    residuals come from the core shared with :func:`verify_reconstruction`;
    every ``i*hbar*{f, u_n}`` is compared with ``a_n u_n``, the analytic
    ones (``X_f(psi) = -(i/hbar) A psi``) as products over all samples.
    This report reduces by max-abs, normalization as ``|sum_n |u_n|^2 - 1|``.
    A NaN residual fails.
    """
    analytic = _use_closed_form(method, qf.operator_backed)
    if tol is None:
        tol = AxiomTolerances() if analytic else AxiomTolerances.finite_difference()

    states, coords, value = _sampled_rows(qf, samples, seed)
    stationary_delta = stationary_value = 0.0
    for rows, xi, offsets in _stationary_blocks(qf):
        stationary_delta = np.maximum(stationary_delta, _largest(np.abs(offsets)))
        stationary_value = np.maximum(stationary_value, _largest(
            np.abs(_observable_values(qf.f, xi) - qf.eigenvalues[rows])))

    return AxiomReport(
        decomposition=_largest(value),
        bracket=_flow_residual(qf, states, coords, analytic=analytic),
        normalization=_largest(np.abs(np.sum(np.abs(coords) ** 2, axis=1) - 1.0)),
        stationary_delta=float(stationary_delta),
        stationary_value=float(stationary_value),
        samples=int(samples),
        seed=int(seed),
        method="analytic" if analytic else "finite_difference",
        degenerate_flag=qf.degenerate_flag,
        tolerances=tol,
    )


class RowwiseMap:
    """A map ``Phi`` declared row-wise: ``rows`` maps a ``(rows, n)`` matrix of states in one call."""

    def __init__(self, rows: Callable[[np.ndarray], np.ndarray]):
        self.rows = rows

    def __call__(self, xi) -> np.ndarray:  # the one-row case
        return self.rows(_as_complex_vector(xi)[None])[0]


def reconstruction_map(qf: QuantumFunction) -> RowwiseMap:
    """The map ``xi -> (u_1(xi), ..., u_n(xi))`` of the quantum coordinates of ``qf``, row-wise."""
    return RowwiseMap(lambda rows: _coordinate_rows(qf, rows))


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
    field_check_residual: float | None
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
    stored steps at a time.  The pointwise identities use the sampling core
    shared with :func:`verify_axioms`, but reduce by row norm: the norm
    residual is ``abs(norm(u) - 1)`` and the stationary one
    ``norm(u(xi_m) - e_m)``, which needs no value of ``f``.  For ``f = <A>`` the FD
    flow residual takes the closed-form ``X_f``, checked in ``field_check_residual``.
    """
    intertwining = 0.0
    for drift in _spectral_drift(lambda block: _coordinate_rows(qf, block), traj.states,
                                 qf.eigenvalues, traj.times, qf.space.hbar):
        intertwining = np.maximum(intertwining, _largest(np.linalg.norm(drift, axis=1)))

    states, coords, value = _sampled_rows(qf, samples, seed)
    field, check = _checked_field(qf.f, states, seed) if qf.f.operator is not None else (None, None)
    stationary = 0.0
    for _, _, offsets in _stationary_blocks(qf):
        stationary = np.maximum(stationary, _largest(np.linalg.norm(offsets, axis=1)))

    return ReconstructionReport(
        intertwining_residual=float(intertwining),
        flow_equation_residual_analytic=(
            _flow_residual(qf, states, coords, field, True) if qf.operator_backed else None),
        flow_equation_residual_fd=_flow_residual(qf, states, coords, field),
        field_check_residual=check,
        value_residual=_largest(value),
        norm_residual=_largest(np.abs(np.linalg.norm(coords, axis=1) - 1.0)),
        stationary_residual=float(stationary),
        samples=int(samples),
        seed=int(seed),
        degenerate_flag=qf.degenerate_flag,
    )


def _map_rows(phi, states, dim: int) -> np.ndarray:
    """``phi`` at every row of ``states``, as the rows of one array: one call of ``phi.rows`` for a
    :class:`RowwiseMap`, else one call of ``phi`` per row; a wrong shape raises."""
    if isinstance(phi, RowwiseMap):
        images = np.asarray(phi.rows(np.asarray(states, dtype=complex)), dtype=complex)
        wrong = [] if images.shape == (len(states), dim) else [images.shape[1:]]
    else:
        images = [np.asarray(phi(psi), dtype=complex) for psi in states]
        wrong = [img.shape for img in images if img.shape != (dim,)]
    if wrong:
        raise DimensionMismatchError(f"map output has shape {wrong[0]}, expected ({dim},)")
    return np.asarray(images).reshape(len(images), dim)


def _image_pass(a: HermitianOperator, phi, space: SymplecticSpace, samples: int, seed: int):
    """The sample matrix, ``Phi`` at its rows, and the worst ``abs(norm(Phi) - 1)``."""
    states = random_unit_states(space.complex_dim, seed, _count(samples, "samples"))
    images = _map_rows(phi, states, a.dim)
    return states, images, _largest(np.abs(np.linalg.norm(images, axis=1) - 1.0))


def _qfe_equation(a: HermitianOperator, phi, space: SymplecticSpace, states, images) -> float:
    """Max of ``|i*hbar*{<Phi|A|Phi>, Phi} - A Phi|`` over the rows of ``states``.

    ``Phi`` is differenced as a black box: ``grad <Phi|A|Phi>`` from the differences of ``Phi``
    alone, each contracted with ``A Phi`` (:func:`_fd_fields`), and the bracket along that field.
    """
    def mapped(rows: np.ndarray) -> np.ndarray:
        return _map_rows(phi, rows, a.dim)

    a_images = _product(images, a.matrix.T)
    field = _fd_fields(mapped, space, states, BRACKET_REPORT_STEP, a_images)
    brackets = _fd_bracket(mapped, space, states, field, BRACKET_REPORT_STEP)
    return _largest(np.abs(1j * space.hbar * brackets - a_images))


def qfe_residual(a: HermitianOperator, phi, space: SymplecticSpace,
                 samples: int = 100, seed: int = 0) -> float:
    """Max residual of ``i*hbar*{<Phi|A|Phi>, Phi} = A Phi`` on sampled states.

    ``phi`` maps unit states of ``space`` to unit vectors of the operator's
    Hilbert space (checked on the samples to ``UNIT_STATE_TOL``).  The bracket of
    the induced observable with each component of ``phi`` is the FD kernel
    along ``J grad <Phi|A|Phi>``.  That gradient differences ``phi`` alone,
    ``2 Re <A Phi, (Phi(psi + h e) - Phi(psi - h e)) / 2h>`` along each real
    axis ``e``, over blocks of (sample, axis) pairs, so ``A`` never meets the
    perturbed points.  A :class:`RowwiseMap` is called once per block of
    perturbed states, any other ``phi`` once per state.  The residual is the
    max over components and samples.
    """
    states, images, worst_norm = _image_pass(a, phi, space, samples, seed)
    if not worst_norm <= UNIT_STATE_TOL:
        raise NormalizationError(
            f"map violates unit-norm output by {worst_norm:.3e} (tolerance {UNIT_STATE_TOL:.1e})"
        )
    return _qfe_equation(a, phi, space, states, images)


def quantum_function_from_qfe(a: HermitianOperator, phi, xi_n: Sequence,
                              space: SymplecticSpace, samples: int = 100,
                              seed: int = 0, tol: float = 1e-5) -> QuantumFunction:
    """Package ``<Phi|A|Phi>`` as a quantum function, checking the hypotheses.

    Verifies in order: unit-norm outputs on sampled states, stationary
    images ``Phi(xi_n) = psi_n`` up to a per-``n`` global phase, and the
    quantum-function equation residual, each against ``tol``; the norm and
    equation checks share one pass of images, as in :func:`qfe_residual`.
    The resulting coordinates are one :class:`RowwiseMap`, the expansion
    coefficients of ``Phi`` in the eigenbasis of ``A`` at every row of a stack
    of states.  A NaN residual fails its check.
    """
    spectral = spectral_decompose(a)
    if len(xi_n) != a.dim:
        raise DimensionMismatchError(
            f"expected {a.dim} stationary states, got {len(xi_n)}"
        )

    states, images, worst_norm = _image_pass(a, phi, space, samples, seed)
    if not worst_norm <= tol:
        raise PreconditionFailedError("normalization", worst_norm)

    stationary = np.array([space.check_dim(xi, "stationary state") for xi in xi_n])
    # Phi(xi_k) against psi_k, each up to the global phase of <psi_k|Phi(xi_k)>; row k of each.
    matched, targets = _map_rows(phi, stationary, a.dim), spectral.eigenvectors.T
    phases = np.exp(1j * np.angle(hermitian_inner(targets, matched)))
    worst_match = _largest(np.linalg.norm(matched * phases.conj()[:, None] - targets, axis=1))
    if not worst_match <= tol:
        raise PreconditionFailedError("stationary-state match", worst_match)

    equation_residual = _qfe_equation(a, phi, space, states, images)
    if not equation_residual <= tol:
        raise PreconditionFailedError("quantum-function equation", equation_residual)

    induced = ObservableFunction.from_callable(
        lambda v: quadratic_form(a, phi(v)).real, space, label="induced"
    )
    return QuantumFunction(
        space=space,
        eigenvalues=spectral.eigenvalues,
        coordinates=RowwiseMap(lambda rows: _coordinates(_map_rows(phi, rows, a.dim), spectral.eigenvectors)),
        stationary_states=stationary,
        f=induced,
        degenerate_flag=spectral.degenerate_flag,
    )
