"""Differentials, Hamiltonian vector fields and Poisson brackets.

Expectation-value functions ``<A>`` and coordinate functionals ``<phi|.>``
get closed forms, each written once over the rows of a ``(rows, n)`` matrix
of states: the single-state functions are its one-row case.  Any other
function falls back to central finite differences (FD) on the canonical real
coordinates.  :func:`poisson_bracket`, :func:`complex_bracket` and
``verify_axioms`` take the closed form iff ``method="auto"`` and every
function has one (an ``operator``, a ``vector``, ``operator_backed``);
``"finite_difference"`` forces FD, and any other value raises ``ValueError``.
Every FD bracket is the kernel ``du_k(X_f) = (J grad f) . Jac(u_k)``, one
central-difference pass over values, never a closed form: the paths check
each other in the bracket report.

Conventions (all consequences of the sign fixed in :mod:`symqm.spaces`):

* ``X_<A>(psi) = -(i/hbar) A psi``
* ``poisson_bracket(f, g) = Omega(X_f, X_g)``, which for expectations is
  ``(2/hbar) Im <A psi | B psi>`` and satisfies
  ``i*hbar*{<A>,<B>} = <[A,B]>``.
* ``complex_bracket(f, u)`` is the derivative of ``u`` along ``X_f`` (the
  rate of change of ``u`` under the flow of ``f``), so that
  ``i*hbar*complex_bracket(<A>, u_n) = a_n u_n`` when ``u_n`` is the
  coordinate of an eigenvector of ``A``.  For real ``u`` this equals
  ``poisson_bracket(u, f)``; the two bracket operations compose their
  arguments in opposite order.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

import numpy as np

from .errors import DimensionMismatchError
from .operators import HermitianOperator, commutator, expectations
from .sampling import random_unit_states
from .spaces import (
    SymplecticSpace,
    _as_complex_vector,
    from_real_coords,
    hermitian_inner,
    to_real_coords,
)

__all__ = [
    "ObservableFunction",
    "ComplexFunction",
    "differential",
    "hamiltonian_vector_field",
    "poisson_bracket",
    "complex_bracket",
    "bracket_commutator_report",
    "BracketCommutatorReport",
]

_SQRT_EPS = float(np.sqrt(np.finfo(float).eps))

# Step used by bracket reports, where two first-order differentiations
# compose and the optimal single-derivative step would be too small.
BRACKET_REPORT_STEP = 1e-5


@dataclass(frozen=True)
class ObservableFunction:
    """A real-valued differentiable function on phase space.

    Either the expectation form ``psi -> <psi|A|psi>`` (``operator`` set)
    or a generic closure evaluated on amplitude vectors (``func`` set).
    """

    space: SymplecticSpace
    operator: HermitianOperator | None = None
    func: Callable[[np.ndarray], float] | None = None
    label: str | None = None

    def __post_init__(self):
        if (self.operator is None) == (self.func is None):
            raise ValueError("exactly one of operator= or func= must be given")
        if self.operator is not None and self.operator.dim != self.space.complex_dim:
            raise DimensionMismatchError(
                f"operator dimension {self.operator.dim} does not match space "
                f"complex_dim {self.space.complex_dim}"
            )

    @classmethod
    def expectation_of(cls, a: HermitianOperator, space: SymplecticSpace) -> "ObservableFunction":
        return cls(space=space, operator=a, label=a.label)

    @classmethod
    def from_callable(cls, func, space: SymplecticSpace, label=None) -> "ObservableFunction":
        return cls(space=space, func=func, label=label)

    @property
    def kind(self) -> str:
        return "expectation" if self.operator is not None else "generic"

    def __call__(self, psi) -> float:
        v = _as_complex_vector(psi)
        self.space.check_dim(v, "state")
        return float(_observable_values(self, v[None])[0])


@dataclass(frozen=True)
class ComplexFunction:
    """A complex-valued function on phase space.

    Either a coordinate functional ``psi -> <phi|psi>`` for a fixed vector
    ``phi`` (``vector`` set) or a generic closure (``func`` set).
    """

    space: SymplecticSpace
    vector: np.ndarray | None = None
    func: Callable[[np.ndarray], complex] | None = None
    label: str | None = None

    def __post_init__(self):
        if (self.vector is None) == (self.func is None):
            raise ValueError("exactly one of vector= or func= must be given")
        if self.vector is not None:
            v = _as_complex_vector(self.vector).copy()
            self.space.check_dim(v, "coordinate vector")
            v.setflags(write=False)
            object.__setattr__(self, "vector", v)

    @classmethod
    def coordinate(cls, phi, space: SymplecticSpace, label=None) -> "ComplexFunction":
        return cls(space=space, vector=phi, label=label)

    @classmethod
    def from_callable(cls, func, space: SymplecticSpace, label=None) -> "ComplexFunction":
        return cls(space=space, func=func, label=label)

    @property
    def kind(self) -> str:
        return "coordinate" if self.vector is not None else "generic"

    def __call__(self, psi) -> complex:
        v = _as_complex_vector(psi)
        self.space.check_dim(v, "state")
        return complex(_complex_values(self, v[None])[0])


def _largest(residuals) -> float:
    """The largest of an array of residuals, 0 for none; NaN when any is NaN.

    The builtin ``max(0.0, nan)`` returns ``0.0`` and would report a NaN
    residual as zero; running maxima use ``np.maximum``, which keeps NaN.
    """
    return float(np.max(residuals, initial=0.0))


def _coordinate_steps(x: np.ndarray, step) -> np.ndarray:
    if step is not None:
        return np.full(x.shape, float(step))
    return _SQRT_EPS * (1.0 + np.abs(x))


def _central_differences(values, space: SymplecticSpace, x: np.ndarray, step=None) -> np.ndarray:
    """Central differences of a function of the canonical real coordinates.

    The ``2m`` points ``x +- h_i e_i`` (``m = 2n``) are the rows of one
    ``(2m, m)`` array, turned into complex states by one :func:`from_real_coords`.
    ``values`` maps that ``(2m, n)`` stack to a real or complex value (or
    row of values) per state; row ``i`` of the result is
    ``(values(x + h_i e_i) - values(x - h_i e_i)) / (2 h_i)``.
    """
    m = x.shape[0]
    h = _coordinate_steps(x, step)
    points = np.tile(x, (2 * m, 1))
    diag = np.arange(m)
    points[diag, diag] += h
    points[m + diag, diag] -= h
    rows = values(from_real_coords(points, space))
    diff = rows[:m] - rows[m:]
    width = (2.0 * h).reshape((m,) + (1,) * (diff.ndim - 1))
    if np.iscomplexobj(diff):  # Re and Im each divided as a real function's
        return diff.real / width + 1j * (diff.imag / width)
    return diff / width


def _observable_values(f: ObservableFunction, states: np.ndarray) -> np.ndarray:
    """``f`` at every row of ``states``: one guarded product for ``<A>``, else ``f.func`` per row."""
    if f.operator is not None:
        return expectations(f.operator, states)
    return np.array([float(f.func(psi)) for psi in states], dtype=float)


def _complex_values(u: ComplexFunction, states: np.ndarray) -> np.ndarray:
    """``u`` at every row of ``states``: one product for ``<phi|.>``, else ``u.func`` per row."""
    if u.vector is not None:
        return (states.conj() @ u.vector).conj()
    return np.array([complex(u.func(psi)) for psi in states], dtype=complex)


def _fd_gradient(f: ObservableFunction, psi: np.ndarray) -> np.ndarray:
    return _central_differences(lambda s: _observable_values(f, s), f.space,
                                to_real_coords(psi, f.space))


def _apply_canonical_j(space: SymplecticSpace, x: np.ndarray) -> np.ndarray:
    """Multiply by ``J = [[0, I], [-I, 0]]`` without forming the matrix."""
    n = space.complex_dim
    return np.concatenate([x[n:], -x[:n]])


def _fd_bracket(values, space: SymplecticSpace, psi: np.ndarray, step=None) -> np.ndarray:
    """The FD kernel at ``psi``; ``values`` gives per state ``f`` in column 0, the ``u_k`` after."""
    jac = _central_differences(values, space, to_real_coords(psi, space), step)
    return _apply_canonical_j(space, jac[:, 0].real) @ jac[:, 1:]


def _closed_form_field(f: ObservableFunction, states: np.ndarray) -> np.ndarray:
    """``X_<A> = -(i/hbar) A psi`` at one state, or at every row of a matrix of states."""
    return -1j / f.space.hbar * (states @ f.operator.matrix.T)


def _closed_form_brackets(f: ObservableFunction, g: ObservableFunction, states: np.ndarray) -> np.ndarray:
    """``{<A>, <B>} = (2/hbar) Im <A psi | B psi>`` per row; ``A psi`` is a row of ``states @ A^T``."""
    return (2.0 / f.space.hbar) * np.einsum(
        "ki,ki->k", (states @ f.operator.matrix.T).conj(), states @ g.operator.matrix.T).imag


def _use_closed_form(method: str, closed_form: bool) -> bool:
    """The path rule of the module docstring: ``True`` for the closed form."""
    if method not in ("auto", "finite_difference"):
        raise ValueError(f"method must be 'auto' or 'finite_difference', not {method!r}")
    return method == "auto" and closed_form


def differential(f: ObservableFunction, psi, y) -> float:
    """The differential ``df`` at ``psi`` applied to the direction ``y``.

    Expectation functions use the exact formula ``2 Re <A psi | y>``;
    generic functions use central finite differences.
    """
    v = _as_complex_vector(psi)
    w = _as_complex_vector(y)
    f.space.check_dim(v, "state")
    if v.shape != w.shape:
        raise DimensionMismatchError(f"direction length {w.shape[0]} != state length {v.shape[0]}")
    if f.operator is not None:
        return 2.0 * hermitian_inner(f.operator.apply(v), w).real
    grad = _fd_gradient(f, v)
    return float(grad @ to_real_coords(w, f.space))


def hamiltonian_vector_field(f: ObservableFunction, psi) -> np.ndarray:
    """The vector field ``X_f`` with ``Omega(X_f, Y) = df(Y)`` for all ``Y``.

    Returned as a complex vector.  For ``f = <A>`` this is
    ``-(i/hbar) A psi`` exactly; otherwise the finite-difference gradient
    is mapped through the canonical form, ``X_f = J grad f``.
    """
    v = _as_complex_vector(psi)
    f.space.check_dim(v, "state")
    if f.operator is not None:
        return _closed_form_field(f, v)
    return from_real_coords(_apply_canonical_j(f.space, _fd_gradient(f, v)), f.space)


def _require_same_space(f: ObservableFunction, g) -> None:
    if f.space.complex_dim != g.space.complex_dim or f.space.hbar != g.space.hbar:
        raise DimensionMismatchError("functions live on different spaces")


def poisson_bracket(f: ObservableFunction, g: ObservableFunction, psi,
                    method: str = "auto", step=None) -> float:
    """``{f, g}(psi) = Omega(X_f, X_g)(psi)``.

    When both functions are expectation forms the closed expression
    ``(2/hbar) Im <A psi | B psi>`` is used, which makes
    ``i*hbar*{<A>,<B>}(psi)`` equal to ``<psi|[A,B]|psi>``.  Otherwise the
    bracket is ``df(X_g)`` from the finite-difference kernel, which takes the
    gradients of ``g`` and ``f`` in canonical real coordinates from one pass.

    ``method`` is ``"auto"`` or ``"finite_difference"``, which forces the
    finite-difference backend.
    """
    _require_same_space(f, g)
    v = _as_complex_vector(psi)
    f.space.check_dim(v, "state")
    if _use_closed_form(method, f.operator is not None and g.operator is not None):
        return float(_closed_form_brackets(f, g, v[None])[0])
    return float(_fd_bracket(lambda s: np.column_stack(
        [_observable_values(g, s), _observable_values(f, s)]), f.space, v, step)[0])


def complex_bracket(f: ObservableFunction, u: ComplexFunction, psi,
                    method: str = "auto", step=None) -> complex:
    """Derivative of the complex function ``u`` along the flow of ``f``.

    For a coordinate functional ``u = <phi|.>`` and ``f = <A>`` this is
    exactly ``<phi, -(i/hbar) A psi>``, so that
    ``i*hbar*complex_bracket(<A>, u_n, psi) = a_n u_n(psi)`` whenever
    ``phi`` is an eigenvector of ``A``.  Any other pair, or
    ``method="finite_difference"``, takes the FD kernel.
    """
    _require_same_space(f, u)
    v = _as_complex_vector(psi)
    f.space.check_dim(v, "state")
    if _use_closed_form(method, f.operator is not None and u.vector is not None):
        return complex(_complex_values(u, _closed_form_field(f, v)[None])[0])
    return complex(_fd_bracket(lambda s: np.column_stack(
        [_observable_values(f, s), _complex_values(u, s)]), f.space, v, step)[0])


@dataclass(frozen=True)
class BracketCommutatorReport:
    """Max residual of ``i*hbar*{<A>,<B>} - <[A,B]>`` over sampled states.

    ``analytic_max`` uses the closed-form bracket, ``finite_difference_max``
    the numeric backend with step :data:`BRACKET_REPORT_STEP`.  ``scale``
    is ``1 + ||A||_2 ||B||_2``, the factor tolerances multiply.
    """

    dimension: int
    samples: int
    seed: int
    hbar: float
    analytic_max: float
    finite_difference_max: float
    scale: float


def bracket_commutator_report(a: HermitianOperator, b: HermitianOperator,
                              space: SymplecticSpace, samples: int, seed: int
                              ) -> BracketCommutatorReport:
    """Verify ``i*hbar*{<A>,<B>} = <[A,B]>`` on seeded random unit states.

    Both the analytic and the finite-difference bracket backends are
    exercised; the report records the max residual of each.  Over the
    matrix of states, the analytic side and ``<psi|[A,B]|psi>`` are one
    product each; :func:`poisson_bracket` runs once per sample.
    """
    if a.dim != b.dim:
        raise DimensionMismatchError(f"operator dimensions differ: {a.dim} vs {b.dim}")
    if a.dim != space.complex_dim:
        raise DimensionMismatchError("operators do not match the space dimension")
    f = ObservableFunction.expectation_of(a, space)
    g = ObservableFunction.expectation_of(b, space)
    states = random_unit_states(space.complex_dim, seed, samples)
    target = np.einsum("ki,ki->k", states.conj(), states @ commutator(a, b).T)
    analytic = _closed_form_brackets(f, g, states)
    fd = np.array([poisson_bracket(f, g, psi, method="finite_difference", step=BRACKET_REPORT_STEP)
                   for psi in states])
    ih = 1j * space.hbar
    scale = 1.0 + a.spectral_norm * b.spectral_norm
    return BracketCommutatorReport(
        dimension=a.dim,
        samples=int(samples),
        seed=int(seed),
        hbar=space.hbar,
        analytic_max=_largest(np.abs(ih * analytic - target)),
        finite_difference_max=_largest(np.abs(ih * fd - target)),
        scale=float(scale),
    )
