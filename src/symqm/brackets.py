"""Hamiltonian vector fields and Poisson brackets.

Expectation-value functions ``<A>`` and coordinate functionals ``<phi|.>``
get closed forms, each written once over the rows of a ``(rows, n)`` matrix
of states.  The reports work on such matrices; the per-state functions
(:func:`hamiltonian_vector_field`, :func:`poisson_bracket`,
:func:`complex_bracket` and calling a function at a state) are their one-row
case, which the generic flows of :mod:`symqm.dynamics` step with.  Any other
function falls back to central finite differences (FD).
:func:`poisson_bracket`, :func:`complex_bracket` and ``verify_axioms`` take
the closed form iff ``method="auto"`` and every function has one (an
``operator``, a ``vector``, ``operator_backed``); ``"finite_difference"``
forces FD, and any other value raises ``ValueError``.  Every central
difference is the kernel ``_fd_bracket``: ``du(X)`` along the field ``X`` at
every row of a matrix of states.  FD paths (``"finite_difference"``, generic
``f``, the QFE) take ``X_f = J grad f``, the gradient as ``2n`` directional
differences of ``f`` along the real coordinate axes, one kernel call per
block of (state, axis) pairs whose arrays hold at most ``2**16`` entries.
The QFE differences the map ``Phi`` alone and contracts each block with
``A Phi``, so ``A`` never meets the perturbed points.  The reports that
cross-check closed forms (the bracket report;
``verify_reconstruction`` for ``f = <A>``) take the closed-form field and
check it by FD on seeded ``r``, ``dg(r) = Omega(X_g, r)``: Freivalds' check
(IFIP Congress 1977).

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

from .errors import DimensionMismatchError, _count, _positive
from .operators import HermitianOperator, _coordinates, _product, _row_blocks, commutator, expectations
from .sampling import random_unit_directions, random_unit_states
from .spaces import SymplecticSpace, _frozen, from_real_coords, hermitian_inner, symplectic_form

__all__ = [
    "ObservableFunction",
    "ComplexFunction",
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

    def __call__(self, psi) -> float:
        v = self.space.check_dim(psi, "state")
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
        if self.vector is not None:  # kept float64 if real, as a column of a real eigenbasis
            v = self.space.check_dim(_frozen(self.vector, None), "coordinate vector")
            object.__setattr__(self, "vector", v)

    @classmethod
    def coordinate(cls, phi, space: SymplecticSpace, label=None) -> "ComplexFunction":
        return cls(space=space, vector=phi, label=label)

    @classmethod
    def from_callable(cls, func, space: SymplecticSpace, label=None) -> "ComplexFunction":
        return cls(space=space, func=func, label=label)

    def __call__(self, psi) -> complex:
        v = self.space.check_dim(psi, "state")
        return complex(_complex_values(self, v[None])[0])


def _largest(residuals) -> float:
    """The largest of an array of residuals, 0 for none; NaN when any is NaN.

    The builtin ``max(0.0, nan)`` returns ``0.0`` and would report a NaN
    residual as zero; running maxima use ``np.maximum``, which keeps NaN.
    """
    return float(np.max(residuals, initial=0.0))


def _observable_values(f: ObservableFunction, states: np.ndarray) -> np.ndarray:
    """``f`` at every row of ``states``: one guarded product for ``<A>``, else ``f.func`` per row."""
    if f.operator is not None:
        return expectations(f.operator, states)
    return np.array([float(f.func(psi)) for psi in states], dtype=float)


def _complex_values(u: ComplexFunction, states: np.ndarray) -> np.ndarray:
    """``u`` at every row of ``states``: one product for ``<phi|.>``, else ``u.func`` per row."""
    if u.vector is not None:
        return _coordinates(states, u.vector)
    return np.array([complex(u.func(psi)) for psi in states], dtype=complex)


def _fd_fields(values, space: SymplecticSpace, states: np.ndarray, step=None, covector=None) -> np.ndarray:
    """``X_f = J grad f``, ``J = [[0, I], [-I, 0]]``, at every row of ``states``.

    ``grad f`` is ``df`` along the ``2n`` real coordinate axes (``e_k``, then ``i e_k``, over
    ``sqrt(2 hbar)``): one kernel call per block of :func:`_row_blocks` over the ``(state, axis)``
    pairs in order, two points of ``n`` entries per pair.  Without a ``covector``, ``values`` is
    ``f`` per point.  With one, ``values`` is a map ``Phi`` (a row per
    point), ``f = <Phi|A|Phi>`` and row ``c`` of ``covector`` is ``A Phi`` at that state:
    ``df(e) = 2 Re <c, dPhi(e)>``, ``dPhi(e)`` the difference of ``Phi`` alone, contracted inside
    the block, so that no block's derivative rows outlive it.
    """
    k, n = states.shape
    grads = np.empty(k * 2 * n)
    for pairs in _row_blocks(grads.size, 2 * n):
        state, axis = np.divmod(np.arange(pairs.start, pairs.stop), 2 * n)
        axes = np.zeros((axis.size, n), dtype=complex)
        axes[np.arange(axis.size), axis % n] = np.where(axis < n, 1.0, 1j) / space.coord_scale
        d = _fd_bracket(values, space, states[state], axes, step)
        grads[pairs] = d if covector is None else 2.0 * hermitian_inner(covector[state], d).real
    grads = grads.reshape(k, 2 * n)  # (q, p)
    return from_real_coords(np.concatenate([grads[:, n:], -grads[:, :n]], axis=1), space)


def _fd_bracket(values, space: SymplecticSpace, states, fields, step=None) -> np.ndarray:
    """``du(X)`` at every row of ``states``, ``X`` that row of ``fields``: the central difference
    ``(u(psi + h X) - u(psi - h X)) / 2h`` from one call of ``values`` (``u`` per state) over the
    stack; ``h`` is the largest step with ``sqrt(2 hbar) |h X_k|`` within ``step`` (default
    ``sqrt(eps) (1 + sqrt(2 hbar) |psi_k|)``) for every ``k``.  Re and Im of a complex ``u`` are
    each divided as a real function's."""
    scale = space.coord_scale
    limit = _positive(step, "step") if step is not None else _SQRT_EPS * (1.0 + scale * np.abs(states))
    with np.errstate(over="ignore"):  # inf where X_k is 0 or tiny; the min skips it
        h = np.min(limit / np.maximum(scale * np.abs(fields), np.finfo(float).tiny), axis=1)
    del limit
    h[np.isinf(h)] = 1.0  # X is 0 or subnormal in every entry: its difference is 0 at any step
    k = len(h)  # points: the k rows psi + h X, then the k rows psi - h X
    points = np.empty((2 * k, fields.shape[1]), dtype=complex)
    shifts = np.multiply(h[:, None], fields, out=points[k:])  # h X, made where psi - h X goes
    np.add(states, shifts, out=points[:k])
    np.subtract(states, shifts, out=shifts)
    rows = values(points)
    diff = rows[:k] - rows[k:]
    width = (2.0 * h).reshape((k,) + (1,) * (diff.ndim - 1))
    if np.iscomplexobj(diff):
        return diff.real / width + 1j * (diff.imag / width)
    return diff / width


def _closed_form_field(f: ObservableFunction, states: np.ndarray) -> np.ndarray:
    """``X_<A> = -(i/hbar) A psi`` at one state, or at every row of a matrix of states."""
    return -1j / f.space.hbar * _product(states, f.operator.matrix.T)


def _checked_field(g: ObservableFunction, states: np.ndarray, seed: int):
    """The closed-form ``X_g`` at every row, and the worst ``|dg(r) - Omega(X_g, r)|`` over four
    unit directions ``r`` per row drawn from ``seed``, ``dg(r)`` by FD at ``BRACKET_REPORT_STEP``."""
    k, field = 4, _closed_form_field(g, states)
    r = random_unit_directions(g.space.complex_dim, seed, k * len(states))
    dg = _fd_bracket(lambda s: _observable_values(g, s), g.space, np.repeat(states, k, axis=0), r,
                     BRACKET_REPORT_STEP)
    return field, _largest(np.abs(dg - symplectic_form(np.repeat(field, k, axis=0), r, g.space)))


def _closed_form_brackets(f: ObservableFunction, g: ObservableFunction, states: np.ndarray) -> np.ndarray:
    """``{<A>, <B>} = (2/hbar) Im <A psi | B psi>`` per row; ``A psi`` is a row of ``states @ A^T``."""
    a_psi, b_psi = _product(states, f.operator.matrix.T), _product(states, g.operator.matrix.T)
    return (2.0 / f.space.hbar) * hermitian_inner(a_psi, b_psi).imag


def _use_closed_form(method: str, closed_form: bool) -> bool:
    """The path rule of the module docstring: ``True`` for the closed form."""
    if method not in ("auto", "finite_difference"):
        raise ValueError(f"method must be 'auto' or 'finite_difference', not {method!r}")
    return method == "auto" and closed_form


def hamiltonian_vector_field(f: ObservableFunction, psi) -> np.ndarray:
    """The vector field ``X_f`` with ``Omega(X_f, Y) = df(Y)`` for all ``Y``.

    Returned as a complex vector.  For ``f = <A>`` this is
    ``-(i/hbar) A psi`` exactly; otherwise the finite-difference gradient
    is mapped through the canonical form, ``X_f = J grad f``.
    """
    v = f.space.check_dim(psi, "state")
    if f.operator is not None:
        return _closed_form_field(f, v)
    return _fd_fields(lambda s: _observable_values(f, s), f.space, v[None])[0]


def _shared_state(f: ObservableFunction, g, psi) -> np.ndarray:
    """``psi`` as a state of the one space of ``f`` and ``g``."""
    if f.space.complex_dim != g.space.complex_dim or f.space.hbar != g.space.hbar:
        raise DimensionMismatchError("functions live on different spaces")
    return f.space.check_dim(psi, "state")


def poisson_bracket(f: ObservableFunction, g: ObservableFunction, psi,
                    method: str = "auto", step=None) -> float:
    """``{f, g}(psi) = Omega(X_f, X_g)(psi)``.

    When both functions are expectation forms the closed expression
    ``(2/hbar) Im <A psi | B psi>`` is used, which makes
    ``i*hbar*{<A>,<B>}(psi)`` equal to ``<psi|[A,B]|psi>``.  Otherwise the
    bracket is ``df(X_g)``: one central difference of ``f`` along
    ``X_g = J grad g``, whose gradient is ``2n`` directional differences of ``g``
    through the same kernel.

    ``method`` is ``"auto"`` or ``"finite_difference"``, which forces the
    finite-difference backend.
    """
    v = _shared_state(f, g, psi)
    if _use_closed_form(method, f.operator is not None and g.operator is not None):
        return float(_closed_form_brackets(f, g, v[None])[0])
    field = _fd_fields(lambda s: _observable_values(g, s), f.space, v[None], step)
    return float(_fd_bracket(lambda s: _observable_values(f, s), f.space, v[None], field, step)[0])


def complex_bracket(f: ObservableFunction, u: ComplexFunction, psi,
                    method: str = "auto", step=None) -> complex:
    """Derivative of the complex function ``u`` along the flow of ``f``.

    For a coordinate functional ``u = <phi|.>`` and ``f = <A>`` this is
    exactly ``<phi, -(i/hbar) A psi>``, so that
    ``i*hbar*complex_bracket(<A>, u_n, psi) = a_n u_n(psi)`` whenever
    ``phi`` is an eigenvector of ``A``.  Any other pair, or
    ``method="finite_difference"``, differences ``u`` along ``X_f = J grad f``.
    """
    v = _shared_state(f, u, psi)
    if _use_closed_form(method, f.operator is not None and u.vector is not None):
        return complex(_complex_values(u, _closed_form_field(f, v)[None])[0])
    field = _fd_fields(lambda s: _observable_values(f, s), f.space, v[None], step)
    return complex(_fd_bracket(lambda s: _complex_values(u, s), f.space, v[None], field, step)[0])


@dataclass(frozen=True)
class BracketCommutatorReport:
    """Max residual of ``i*hbar*{<A>,<B>} - <[A,B]>`` over sampled states.

    ``analytic_max`` uses the closed-form bracket, ``finite_difference_max``
    the FD kernel along ``X_<B>``, ``field_check_max`` that field's FD check,
    both with step :data:`BRACKET_REPORT_STEP`.  ``scale``
    is ``1 + ||A||_2 ||B||_2``, the factor tolerances multiply.
    """

    dimension: int
    samples: int
    seed: int
    hbar: float
    analytic_max: float
    finite_difference_max: float
    field_check_max: float
    scale: float


def bracket_commutator_report(a: HermitianOperator, b: HermitianOperator,
                              space: SymplecticSpace, samples: int, seed: int
                              ) -> BracketCommutatorReport:
    """Verify ``i*hbar*{<A>,<B>} = <[A,B]>`` on seeded random unit states.

    Both the analytic and the finite-difference bracket backends are
    exercised; the report records the max residual of each.  Over the
    matrix of states, the analytic side and ``<psi|[A,B]|psi>`` are one
    product each; so is the FD side, ``d<A>(X_<B>)`` along the checked
    closed-form ``X_<B>``.
    """
    if a.dim != b.dim:
        raise DimensionMismatchError(f"operator dimensions differ: {a.dim} vs {b.dim}")
    if a.dim != space.complex_dim:
        raise DimensionMismatchError("operators do not match the space dimension")
    f = ObservableFunction.expectation_of(a, space)
    g = ObservableFunction.expectation_of(b, space)
    states = random_unit_states(space.complex_dim, seed, _count(samples, "samples"))
    target = hermitian_inner(states, _product(states, commutator(a, b).T))
    analytic = _closed_form_brackets(f, g, states)
    field, field_check = _checked_field(g, states, seed)
    fd = _fd_bracket(lambda s: _observable_values(f, s), space, states, field, BRACKET_REPORT_STEP)
    ih = 1j * space.hbar
    return BracketCommutatorReport(
        dimension=a.dim,
        samples=int(samples),
        seed=int(seed),
        hbar=space.hbar,
        analytic_max=_largest(np.abs(ih * analytic - target)),
        finite_difference_max=_largest(np.abs(ih * fd - target)),
        field_check_max=field_check,
        scale=float(1.0 + a.spectral_norm * b.spectral_norm),
    )
