"""Hermitian operators: validation, algebra and spectral decomposition."""

from __future__ import annotations

from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from .errors import (
    DimensionMismatchError,
    EigensolverError,
    NonHermitianError,
    NonSquareError,
)
from .spaces import _as_complex_vector

__all__ = [
    "HermitianOperator",
    "SpectralData",
    "make_hermitian",
    "commutator",
    "spectral_decompose",
    "quadratic_form",
    "expectation",
    "reconstruct_from_spectrum",
    "read_matrix_file",
]

HERMITICITY_TOL = 1e-12
DEGENERACY_TOL = 1e-9


@dataclass(frozen=True)
class HermitianOperator:
    """A validated ``n x n`` complex Hermitian matrix.

    Construction rejects matrices with
    ``max|M - M†| > 1e-12 * (1 + max|M|)``.

    Parameters
    ----------
    matrix : ndarray
        Square complex matrix.
    label : str, optional
        Source expression or free-form tag, carried through reports.
    """

    matrix: np.ndarray
    label: str | None = None
    #: Max-abs-entry norm, the scale used in construction tolerances.
    max_norm: float = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        m = np.asarray(self.matrix, dtype=complex)
        if m.ndim != 2 or m.shape[0] != m.shape[1]:
            raise NonSquareError(f"expected a square matrix, got shape {m.shape}")
        max_norm = float(np.max(np.abs(m))) if m.size else 0.0
        scale = 1.0 + max_norm
        deviation = float(np.max(np.abs(m - m.conj().T))) if m.size else 0.0
        if deviation > HERMITICITY_TOL * scale:
            raise NonHermitianError(deviation)
        m = m.copy()
        m.setflags(write=False)
        object.__setattr__(self, "matrix", m)
        object.__setattr__(self, "max_norm", max_norm)

    @property
    def dim(self) -> int:
        return self.matrix.shape[0]

    @property
    def spectral_norm(self) -> float:
        return float(np.linalg.norm(self.matrix, 2))

    def apply(self, psi) -> np.ndarray:
        v = _as_complex_vector(psi)
        if v.shape[0] != self.dim:
            raise DimensionMismatchError(
                f"state has length {v.shape[0]}, operator has dimension {self.dim}"
            )
        return self.matrix @ v


@dataclass(frozen=True)
class SpectralData:
    """Eigendecomposition of a Hermitian operator.

    ``eigenvalues`` ascend; the columns of ``eigenvectors`` are orthonormal
    and gauge-fixed so each column's largest-magnitude component is real
    positive.  ``degenerate_flag`` is set when two consecutive eigenvalues
    are closer than ``1e-9 * (1 + max|a_n|)``.
    """

    eigenvalues: np.ndarray
    eigenvectors: np.ndarray
    degenerate_flag: bool

    def __post_init__(self):
        a = np.asarray(self.eigenvalues, dtype=float).copy()
        v = np.asarray(self.eigenvectors, dtype=complex).copy()
        a.setflags(write=False)
        v.setflags(write=False)
        object.__setattr__(self, "eigenvalues", a)
        object.__setattr__(self, "eigenvectors", v)

    @property
    def dim(self) -> int:
        return self.eigenvalues.shape[0]

    def vector(self, k: int) -> np.ndarray:
        return self.eigenvectors[:, k]


def make_hermitian(m, label: str | None = None) -> HermitianOperator:
    """Validate ``m`` and wrap it as a :class:`HermitianOperator`."""
    return HermitianOperator(np.asarray(m, dtype=complex), label=label)


def _as_matrix(op) -> np.ndarray:
    if isinstance(op, HermitianOperator):
        return op.matrix
    return np.asarray(op, dtype=complex)


def commutator(a, b) -> np.ndarray:
    """The commutator ``AB - BA``; anti-Hermitian for Hermitian inputs."""
    ma, mb = _as_matrix(a), _as_matrix(b)
    if ma.shape != mb.shape:
        raise DimensionMismatchError(f"shape mismatch: {ma.shape} vs {mb.shape}")
    return ma @ mb - mb @ ma


def _fix_phase(column: np.ndarray) -> np.ndarray:
    """Rotate so the largest-magnitude component (first on ties) is real positive."""
    mags = np.abs(column)
    k = int(np.argmax(mags))  # argmax takes the first index on exact ties
    if mags[k] == 0.0:
        return column
    return column * (column[k].conjugate() / mags[k])


def spectral_decompose(a: HermitianOperator) -> SpectralData:
    """Ascending eigenvalues and a gauge-fixed orthonormal eigenbasis.

    Exact eigenvalue ties are ordered by lexicographic comparison of the
    phase-fixed eigenvectors' real parts, so the output is deterministic.
    """
    try:
        vals, vecs = np.linalg.eigh(_as_matrix(a))
    except np.linalg.LinAlgError as exc:
        raise EigensolverError(f"eigendecomposition failed: {exc}") from exc
    cols = [_fix_phase(vecs[:, k]) for k in range(vals.shape[0])]
    order = sorted(
        range(vals.shape[0]),
        key=lambda k: (vals[k], tuple(cols[k].real)),
    )
    vals = vals[order]
    vecs = np.column_stack([cols[k] for k in order])
    scale = 1.0 + float(np.max(np.abs(vals))) if vals.size else 1.0
    gaps = np.diff(vals)
    degenerate = bool(gaps.size and np.min(gaps) <= DEGENERACY_TOL * scale)
    return SpectralData(vals, vecs, degenerate)


def quadratic_form(mx, psi) -> complex:
    """``<psi | M psi>`` for an arbitrary square complex matrix ``M``."""
    m = _as_matrix(mx)
    v = _as_complex_vector(psi)
    if m.shape[1] != v.shape[0]:
        raise DimensionMismatchError(
            f"state has length {v.shape[0]}, matrix has shape {m.shape}"
        )
    return complex(np.vdot(v, m @ v))


def _imaginary_tolerance(a) -> float:
    """``1e-12 * (1 + max|A|)``, the largest imaginary part an expectation may carry."""
    max_norm = a.max_norm if isinstance(a, HermitianOperator) else float(np.max(np.abs(_as_matrix(a))))
    return 1e-12 * (1.0 + max_norm)


def expectation(a: HermitianOperator, psi) -> float:
    """The real expectation value ``<psi | A psi>``.

    The imaginary part must vanish to ``1e-12 * (1 + max|A|)``; a larger
    residue indicates a corrupted operator and raises.
    """
    value = quadratic_form(a, psi)
    if abs(value.imag) > _imaginary_tolerance(a):
        raise NonHermitianError(abs(value.imag), "expectation value has a nonzero imaginary part")
    return value.real


def reconstruct_from_spectrum(spectral: SpectralData) -> np.ndarray:
    """Rebuild the matrix ``sum_n a_n |psi_n><psi_n|`` from its spectral data."""
    v = spectral.eigenvectors
    return (v * spectral.eigenvalues) @ v.conj().T


def read_matrix_file(path) -> np.ndarray:
    """Read a dense complex matrix from the plain-text exchange format.

    The first line holds the dimension ``n``; each of the following ``n``
    lines holds ``n`` whitespace-separated entries such as ``1.5``,
    ``2+3j`` or ``-1-0.5j`` (``j`` suffix mandatory for imaginary parts,
    omitted for purely real entries).
    """
    text = Path(path).read_text()
    lines = [ln for ln in text.splitlines() if ln.strip()]
    if not lines:
        raise ValueError(f"{path}: empty matrix file")
    try:
        n = int(lines[0].strip())
    except ValueError as exc:
        raise ValueError(f"{path}: first line must be the dimension, got {lines[0]!r}") from exc
    if n < 1:
        raise ValueError(f"{path}: dimension must be positive, got {n}")
    if len(lines) - 1 < n:
        raise ValueError(f"{path}: expected {n} rows, found {len(lines) - 1}")
    rows = []
    for i, line in enumerate(lines[1 : n + 1], start=2):
        tokens = line.split()
        if len(tokens) != n:
            raise ValueError(f"{path}: line {i}: expected {n} entries, found {len(tokens)}")
        try:
            rows.append([complex(tok) for tok in tokens])
        except ValueError as exc:
            raise ValueError(f"{path}: line {i}: could not parse entry: {exc}") from exc
    return np.array(rows, dtype=complex)
