"""Real-manifold view of a finite-dimensional complex Hilbert space.

A complex vector ``psi`` of length ``n`` is identified with the real vector
``(q, p)`` of length ``2n`` where ``q_k = sqrt(2*hbar) * Re(psi_k)`` and
``p_k = sqrt(2*hbar) * Im(psi_k)``.  Under this scaling the bilinear form

    Omega(v, w) = 2 * hbar * Im <v|w>

(with the inner product conjugate-linear in its first argument) coincides
with the canonical flat form ``x^T J y`` on the real coordinates, where
``J = [[0, I], [-I, 0]]``.  The sign of Omega is fixed so that the
Hamiltonian vector field of an expectation-value function ``<A>`` is
``-(i/hbar) * A psi``; see :mod:`symqm.brackets`.

:func:`hermitian_inner` and :func:`symplectic_form` are the one place each
formula is written.  Both work over rows: given two vectors they return one
value, given two ``(k, n)`` stacks one value per row.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import DimensionMismatchError, _count, _positive

__all__ = [
    "SymplecticSpace",
    "to_real_coords",
    "from_real_coords",
    "hermitian_inner",
    "symplectic_form",
]


def _as_complex_vector(v) -> np.ndarray:
    """Coerce an array-like to a 1-d complex array."""
    arr = np.asarray(v, dtype=complex)
    if arr.ndim != 1:
        raise DimensionMismatchError(f"expected a vector, got shape {arr.shape}")
    return arr


def _frozen(value, dtype) -> np.ndarray:
    """``value`` as a read-only array of ``dtype``: the one rule by which a container keeps an array.

    ``dtype`` None keeps the kind of the converted array: float64 for a real
    one (integers included), complex128 for a complex one.  The array is
    adopted, not copied, when the conversion made it
    (from a list, or from an array of another dtype), or when it is read-only
    down to the array that owns its memory: the arrays that
    :meth:`PauliSumExpr.to_matrix`, ``HermitianOperator.spectral`` and
    :func:`~symqm.dynamics.integrate` hand over, and any read-only view of them
    (a column of the eigenvectors, a row of the states).  Anything else is
    copied: a writable array, a read-only view of one, or a writable array that
    an object's ``__array__`` returns, which the object may still hold.  So a
    container never aliases memory that its caller can still write.
    """
    arr = np.asarray(value, dtype=dtype)
    if dtype is None:
        arr = arr.astype(np.result_type(arr, float), copy=False)
    made = arr is not value and (isinstance(value, np.ndarray) or not hasattr(value, "__array__"))
    owner = arr
    while not owner.flags.writeable and isinstance(owner.base, np.ndarray):
        owner = owner.base
    if owner.base is not None or owner.flags.writeable and not (made and owner is arr):
        arr = arr.copy()
    arr.setflags(write=False)
    return arr


@dataclass(frozen=True)
class SymplecticSpace:
    """Flat phase space underlying an ``n``-dimensional complex Hilbert space.

    Parameters
    ----------
    complex_dim : int
        Complex dimension ``n``; the real dimension is ``2n``.
    hbar : float
        Action scale, positive and finite, default 1 (natural units).  Every
        function on the space reads ``hbar`` from here.

    Notes
    -----
    The form is ``Omega(v, w) = +2 * hbar * Im <v|w>``: with the inner
    product conjugate-linear in the first argument, ``+`` is the unique sign
    for which ``Omega(-(i/hbar) A psi, Y) = d<A>(Y)`` holds for every
    Hermitian ``A``.
    """

    complex_dim: int
    hbar: float = 1.0

    def __post_init__(self):
        object.__setattr__(self, "complex_dim", _count(self.complex_dim, "complex_dim"))
        object.__setattr__(self, "hbar", _positive(self.hbar, "hbar"))

    @property
    def real_dim(self) -> int:
        return 2 * self.complex_dim

    @property
    def coord_scale(self) -> float:
        """Scale factor ``sqrt(2*hbar)`` between complex parts and real coordinates."""
        return float(np.sqrt(2.0 * self.hbar))

    def canonical_form_matrix(self) -> np.ndarray:
        """The ``2n x 2n`` matrix ``J = [[0, I], [-I, 0]]`` of the canonical form."""
        n = self.complex_dim
        j = np.zeros((2 * n, 2 * n))
        j[:n, n:] = np.eye(n)
        j[n:, :n] = -np.eye(n)
        return j

    def check_dim(self, v, what: str = "vector") -> np.ndarray:
        """``v`` as a complex vector of this space; a matrix or a wrong length raises."""
        v = _as_complex_vector(v)
        if v.shape[0] != self.complex_dim:
            raise DimensionMismatchError(
                f"{what} has length {v.shape[0]}, space has complex_dim {self.complex_dim}"
            )
        return v


def to_real_coords(psi, space: SymplecticSpace) -> np.ndarray:
    """Translate a complex vector into canonical real coordinates.

    Returns the length-``2n`` vector ``(q, p)`` with
    ``q_k = sqrt(2*hbar) Re(psi_k)`` and ``p_k = sqrt(2*hbar) Im(psi_k)``.
    """
    v = space.check_dim(psi)
    s = space.coord_scale
    return np.concatenate([s * v.real, s * v.imag])


def from_real_coords(x, space: SymplecticSpace) -> np.ndarray:
    """Inverse of :func:`to_real_coords`, for one vector or a ``(k, 2n)`` stack of rows.

    The round trip is exact whenever ``sqrt(2*hbar)`` is a power of two
    (e.g. ``hbar`` = 0.5 or 2); for other values of ``hbar`` each component
    round-trips to within one unit in the last place, which is the best any
    value-faithful scaling can do.
    """
    arr = np.asarray(x, dtype=float)
    if arr.ndim not in (1, 2) or arr.shape[-1] != space.real_dim:
        raise DimensionMismatchError(
            f"expected real vectors of length {space.real_dim}, got shape {arr.shape}"
        )
    n = space.complex_dim
    s = space.coord_scale
    return arr[..., :n] / s + 1j * (arr[..., n:] / s)


def hermitian_inner(v, w) -> complex | np.ndarray:
    """Hermitian inner product ``<v|w>``, conjugate-linear in the first argument, over rows.

    Two vectors give one complex number; two ``(k, n)`` stacks give the
    length-``k`` array of ``<v_i|w_i>``, one value per row.  Real operands
    are read as they are, never copied to complex: two real stacks give real
    values.
    """
    a, b = np.asarray(v), np.asarray(w)
    if a.ndim not in (1, 2) or a.shape != b.shape:
        raise DimensionMismatchError(f"expected two vectors or two stacks of one shape: {a.shape}, {b.shape}")
    values = np.einsum("...i,...i->...", a.conj() if np.iscomplexobj(a) else a, b)
    return complex(values) if a.ndim == 1 else values


def symplectic_form(v, w, space: SymplecticSpace) -> float | np.ndarray:
    """Evaluate ``Omega(v, w) = 2 * hbar * Im <v|w>`` over rows, as :func:`hermitian_inner`.

    Antisymmetric and non-degenerate; equals the canonical form
    ``x^T J y`` of the real coordinates of ``v`` and ``w``.  Two vectors of
    ``space`` give one float, two ``(k, n)`` stacks one value per row.
    """
    if np.shape(v)[-1:] != (space.complex_dim,):
        raise DimensionMismatchError(f"shape {np.shape(v)}, space has complex_dim {space.complex_dim}")
    return 2.0 * space.hbar * hermitian_inner(v, w).imag

