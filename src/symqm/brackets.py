"""Differentials, Hamiltonian vector fields and Poisson brackets.

Expectation-value functions ``<A>`` get closed-form derivatives; any other
differentiable function falls back to central finite differences on the
canonical real coordinates.  The two code paths cross-check each other in
the bracket/commutator report.

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
from .operators import HermitianOperator, commutator, expectation, quadratic_form
from .sampling import random_unit_state
from .spaces import (
    SymplecticSpace,
    TangentVector,
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
        if self.operator is not None:
            return expectation(self.operator, v)
        return float(self.func(v))


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
        if self.vector is not None:
            return hermitian_inner(self.vector, v)
        return complex(self.func(v))


def _worst(a: float, b: float) -> float:
    """The larger of two residuals; NaN when either is NaN.

    The builtin ``max(0.0, nan)`` returns ``0.0``, so a residual loop that
    reduces with it would report a NaN residual as zero.
    """
    return a if a != a or a > b else b


def _coordinate_steps(x: np.ndarray, step) -> np.ndarray:
    if step is not None:
        return np.full(x.shape, float(step))
    return _SQRT_EPS * (1.0 + np.abs(x))


def _real_gradient(eval_real, x: np.ndarray, step=None) -> np.ndarray:
    """Central-difference gradient of a scalar function of real coordinates."""
    h = _coordinate_steps(x, step)
    grad = np.empty_like(x)
    for i in range(x.shape[0]):
        xp = x.copy()
        xm = x.copy()
        xp[i] += h[i]
        xm[i] -= h[i]
        grad[i] = (eval_real(xp) - eval_real(xm)) / (2.0 * h[i])
    return grad


def _observable_on_reals(f: ObservableFunction):
    space = f.space
    return lambda x: f(from_real_coords(x, space))


def _fd_gradient(f: ObservableFunction, psi: np.ndarray, step=None) -> np.ndarray:
    return _real_gradient(_observable_on_reals(f), to_real_coords(psi, f.space), step)


def _apply_canonical_j(space: SymplecticSpace, x: np.ndarray) -> np.ndarray:
    """Multiply by ``J = [[0, I], [-I, 0]]`` without forming the matrix."""
    n = space.complex_dim
    return np.concatenate([x[n:], -x[:n]])


def differential(f: ObservableFunction, psi, y, step=None) -> float:
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
    grad = _fd_gradient(f, v, step)
    return float(grad @ to_real_coords(w, f.space))


def hamiltonian_vector_field(f: ObservableFunction, psi, step=None) -> TangentVector:
    """The vector field ``X_f`` with ``Omega(X_f, Y) = df(Y)`` for all ``Y``.

    For ``f = <A>`` this is ``-(i/hbar) A psi`` exactly; otherwise the
    finite-difference gradient is mapped through the canonical form.
    """
    v = _as_complex_vector(psi)
    f.space.check_dim(v, "state")
    if f.operator is not None:
        return TangentVector(-1j / f.space.hbar * f.operator.apply(v))
    grad = _fd_gradient(f, v, step)
    return TangentVector(from_real_coords(_apply_canonical_j(f.space, grad), f.space))


def _require_same_space(f: ObservableFunction, g) -> None:
    if f.space.complex_dim != g.space.complex_dim or f.space.hbar != g.space.hbar:
        raise DimensionMismatchError("functions live on different spaces")


def poisson_bracket(f: ObservableFunction, g: ObservableFunction, psi,
                    method: str = "auto", step=None) -> float:
    """``{f, g}(psi) = Omega(X_f, X_g)(psi)``.

    When both functions are expectation forms the closed expression
    ``(2/hbar) Im <A psi | B psi>`` is used, which makes
    ``i*hbar*{<A>,<B>}(psi)`` equal to ``<psi|[A,B]|psi>``.  Otherwise the
    bracket is the pairing ``grad(f)^T J grad(g)`` of finite-difference
    gradients in canonical real coordinates.

    ``method`` may force a backend: ``"analytic"`` (expectation inputs
    only) or ``"finite_difference"``.
    """
    _require_same_space(f, g)
    v = _as_complex_vector(psi)
    f.space.check_dim(v, "state")
    analytic = f.operator is not None and g.operator is not None
    if method == "analytic" and not analytic:
        raise ValueError("analytic bracket requires two expectation observables")
    if analytic and method != "finite_difference":
        return (2.0 / f.space.hbar) * hermitian_inner(f.operator.apply(v), g.operator.apply(v)).imag
    grad_f = _fd_gradient(f, v, step)
    grad_g = _fd_gradient(g, v, step)
    return float(grad_f @ _apply_canonical_j(f.space, grad_g))


def complex_bracket(f: ObservableFunction, u: ComplexFunction, psi,
                    method: str = "auto", step=None) -> complex:
    """Derivative of the complex function ``u`` along the flow of ``f``.

    For a coordinate functional ``u = <phi|.>`` and ``f = <A>`` this is
    exactly ``<phi, -(i/hbar) A psi>``, so that
    ``i*hbar*complex_bracket(<A>, u_n, psi) = a_n u_n(psi)`` whenever
    ``phi`` is an eigenvector of ``A``.  Generic inputs differentiate
    ``u`` by central finite differences along the (analytic or numeric)
    field ``X_f``.
    """
    _require_same_space(f, u)
    v = _as_complex_vector(psi)
    f.space.check_dim(v, "state")
    if method == "analytic" and (f.operator is None or u.vector is None):
        raise ValueError("analytic complex bracket requires an expectation observable "
                         "and a coordinate functional")
    use_fd = method == "finite_difference"
    if f.operator is not None and not use_fd:
        field = -1j / f.space.hbar * f.operator.apply(v)
    else:
        grad = _fd_gradient(f, v, step)
        field = from_real_coords(_apply_canonical_j(f.space, grad), f.space)
    if u.vector is not None and not use_fd:
        return hermitian_inner(u.vector, field)
    x = to_real_coords(v, f.space)
    grad_re = _real_gradient(lambda xr: u(from_real_coords(xr, u.space)).real, x, step)
    grad_im = _real_gradient(lambda xr: u(from_real_coords(xr, u.space)).imag, x, step)
    y = to_real_coords(field, f.space)
    return complex(grad_re @ y + 1j * (grad_im @ y))


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

    def as_dict(self) -> dict:
        return {
            "dimension": self.dimension,
            "samples": self.samples,
            "seed": self.seed,
            "hbar": self.hbar,
            "analytic_max": self.analytic_max,
            "finite_difference_max": self.finite_difference_max,
            "scale": self.scale,
            "identity": "i*hbar*{<A>,<B>} = <[A,B]>",
        }


def bracket_commutator_report(a: HermitianOperator, b: HermitianOperator,
                              space: SymplecticSpace, samples: int, seed: int
                              ) -> BracketCommutatorReport:
    """Verify ``i*hbar*{<A>,<B>} = <[A,B]>`` on seeded random unit states.

    Both the analytic and the finite-difference bracket backends are
    exercised; the report records the max residual of each.
    """
    if a.dim != b.dim:
        raise DimensionMismatchError(f"operator dimensions differ: {a.dim} vs {b.dim}")
    if a.dim != space.complex_dim:
        raise DimensionMismatchError("operators do not match the space dimension")
    f = ObservableFunction.expectation_of(a, space)
    g = ObservableFunction.expectation_of(b, space)
    comm = commutator(a, b)
    ih = 1j * space.hbar
    analytic_max = 0.0
    fd_max = 0.0
    for i in range(int(samples)):
        psi = random_unit_state(space.complex_dim, seed, i)
        target = quadratic_form(comm, psi)
        analytic_max = _worst(analytic_max, abs(ih * poisson_bracket(f, g, psi) - target))
        fd = poisson_bracket(f, g, psi, method="finite_difference", step=BRACKET_REPORT_STEP)
        fd_max = _worst(fd_max, abs(ih * fd - target))
    scale = 1.0 + a.spectral_norm * b.spectral_norm
    return BracketCommutatorReport(
        dimension=a.dim,
        samples=int(samples),
        seed=int(seed),
        hbar=space.hbar,
        analytic_max=float(analytic_max),
        finite_difference_max=float(fd_max),
        scale=float(scale),
    )
