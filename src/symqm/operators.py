"""Hermitian operators: validation, algebra and spectral decomposition."""

from __future__ import annotations

import functools
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
    "expectations",
    "reconstruct_from_spectrum",
    "read_matrix_file",
]

HERMITICITY_TOL = 1e-12
DEGENERACY_TOL = 1e-9
# Largest dimension n of a dense n x n operator (12 qubits, 256 MiB).
MAX_DENSE_DIM = 4096

# Rows (times or stored steps) handled per block by the array products along
# a trajectory.  Each block's ``(rows, n)`` temporaries stay a fraction of
# the trajectory itself, so they add little to peak memory at large ``n``.
_ROW_BLOCK = 256
# Entries of an n x n matrix per validation block, so that the block's complex
# temporaries come to 1 MiB at every n (a sixteenth of the matrix at n = 1024);
# also the bound on the entries of a linear flow's table of step powers.
_BLOCK_ENTRIES = 2**16


def _row_blocks(count: int):
    """Slices that cover ``range(count)`` in blocks of ``_ROW_BLOCK`` rows."""
    for start in range(0, count, _ROW_BLOCK):
        yield slice(start, min(start + _ROW_BLOCK, count))


def _coordinates(states: np.ndarray, basis: np.ndarray) -> np.ndarray:
    """``<phi_n|psi>`` for every row ``psi`` of ``states`` (or one state) and column ``phi_n`` of ``basis``."""
    return (states.conj() @ basis).conj()


def _evolved_coefficients(coeffs, eigenvalues, elapsed, hbar: float) -> np.ndarray:
    """Row ``k`` holds ``exp(-i a (t_k - t_0) / hbar) c_0`` for ``elapsed[k] = t_k - t_0``.

    The spectral coefficients ``c_0`` of a state, advanced along the flow of
    ``<H>`` for the eigenvalues ``a`` of ``H``: the one place the phase
    formula is written.
    """
    a = np.asarray(eigenvalues, dtype=float)
    return coeffs * np.exp(-1j * a * (np.asarray(elapsed, dtype=float)[:, None] / float(hbar)))


def _spectral_drift(coordinates, states: np.ndarray, eigenvalues, times, hbar: float):
    """Yield ``C - exp(-i a (t - t_0) / hbar) C_0`` per block of ``_ROW_BLOCK`` rows of ``states``,
    ``C = coordinates(block)`` their eigen-coordinates; ``C_0``, row 0 of the first
    block's product, cancels the ``t_0`` row exactly, and a NaN coordinate stays NaN."""
    elapsed = np.asarray(times, dtype=float) - float(times[0])
    c0 = None
    for rows in _row_blocks(states.shape[0]):
        coords = coordinates(states[rows])
        if c0 is None:
            c0 = coords[0].copy()
        yield coords - _evolved_coefficients(c0, eigenvalues, elapsed[rows], hbar)


@dataclass(frozen=True)
class HermitianOperator:
    """A validated ``n x n`` complex Hermitian matrix, ``n >= 1``.

    Construction rejects an empty matrix, and matrices with a non-finite entry
    or with ``max|M - M†| > 1e-12 * (1 + max|M|)``.  The operator keeps a
    read-only array it owns: it adopts a read-only array that owns its data
    (as :meth:`PauliSumExpr.to_matrix` returns) or one made by the conversion
    to complex, and copies any other, so it never aliases a caller's writable
    array.

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
        if m.ndim != 2 or m.shape[0] != m.shape[1] or m.shape[0] == 0:
            raise NonSquareError(f"expected a non-empty square matrix, got shape {m.shape}")
        max_norm = _max_abs_by_rows(m.shape[0], lambda rows: m[rows])
        if not np.isfinite(max_norm):
            raise NonHermitianError(max_norm, "matrix has a non-finite entry")
        scale = 1.0 + max_norm
        deviation = _max_abs_by_rows(m.shape[0], lambda rows: m[rows] - m[:, rows].T.conj())
        if deviation > HERMITICITY_TOL * scale:
            raise NonHermitianError(deviation)
        if m.base is not None or (m is self.matrix and m.flags.writeable):
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

    @functools.cached_property
    def spectral(self) -> SpectralData:
        """The :func:`spectral_decompose` data, computed once: the matrix is immutable.

        A matrix with no nonzero imaginary part takes the real symmetric solver.
        Each connected block of the nonzero pattern is decomposed apart, one
        stacked solver call per block size (:func:`_block_eigh`); the gauge fix,
        the order and the tie-break then act on the full columns, as for a
        matrix that is one block.
        """
        m = self.matrix
        try:
            vals, vecs = _block_eigh(m if m.imag.any() else m.real)
        except np.linalg.LinAlgError as exc:
            raise EigensolverError(f"eigendecomposition failed: {exc}") from exc
        # Rotate each column's first largest-magnitude entry to real positive (never
        # zero: eigh returns unit columns; a sign if real); order as spectral_decompose says.
        peak = vecs[np.argmax(np.abs(vecs), axis=0), np.arange(vals.shape[0])]
        vecs *= peak.conj() / np.abs(peak)
        order = np.argsort(vals, kind="stable")
        vals = vals[order]
        _, starts, counts = np.unique(vals, return_index=True, return_counts=True)
        for start, count in zip(starts[counts > 1], counts[counts > 1]):
            run = order[start:start + count]
            order[start:start + count] = sorted(run, key=lambda k: tuple(vecs[:, k].real))
        vecs = vecs[:, order]
        scale = 1.0 + float(np.max(np.abs(vals)))
        gaps = np.diff(vals)
        degenerate = bool(gaps.size and np.min(gaps) <= DEGENERACY_TOL * scale)
        return SpectralData(vals, vecs, degenerate)


def _max_abs_by_rows(n: int, entries) -> float:
    """``max|entries(rows)|`` over the row blocks of an ``n x n`` matrix, ``n >= 1``.

    Each block holds at most ``_BLOCK_ENTRIES`` entries (whole rows, at least
    one), so its temporaries stay a small part of the matrix at every ``n``;
    the maximum is the one of the whole, and a NaN propagates.
    """
    rows = max(1, _BLOCK_ENTRIES // n)
    return float(np.max([np.max(np.abs(entries(slice(start, start + rows)))) for start in range(0, n, rows)]))


def _connected_blocks(m: np.ndarray) -> list[np.ndarray]:
    """The connected components of the nonzero pattern of ``m``, as ascending index arrays
    ordered by their lowest index.

    A breadth-first search over the ``n x n`` boolean matrix of the pattern, made
    symmetric one pair of ``_ROW_BLOCK``-row tiles at a time (a whole transpose
    misses the cache at large ``n``); each level reads its frontier's rows once.
    """
    n = m.shape[0]
    linked = m != 0
    for rows in _row_blocks(n):
        for cols in _row_blocks(n):
            linked[rows, cols] |= linked[cols, rows].T
    labels = np.empty(n, dtype=int)
    unseen = np.ones(n, dtype=bool)
    count = 0
    for start in range(n):
        if not unseen[start]:
            continue
        frontier = np.array([start])
        while frontier.size:
            unseen[frontier] = False
            labels[frontier] = count
            frontier = np.flatnonzero(linked[frontier].any(axis=0) & unseen)
        count += 1
    return np.split(np.argsort(labels, kind="stable"), np.cumsum(np.bincount(labels))[:-1])


def _block_eigh(m: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """``np.linalg.eigh`` of ``m``, one block of :func:`_connected_blocks` at a time.

    The blocks of each size go to one stacked ``eigh`` call, and each block's
    eigenvectors fill its own rows of their columns; every other entry is 0.
    A stacked call gives each block the bits of its own call, and a matrix
    that is one block goes to ``eigh`` unchanged, so its data is that of ``eigh(m)``.
    """
    n = m.shape[0]
    blocks = _connected_blocks(m)
    vals = np.empty(n)
    vecs = np.zeros((n, n), dtype=m.dtype)
    col = 0
    for size in sorted({b.size for b in blocks}):  # np.unique would import numpy.ma
        idx = np.stack([b for b in blocks if b.size == size])
        stack_vals, stack_vecs = np.linalg.eigh(
            m[None] if size == n else m[idx[:, :, None], idx[:, None, :]])
        for rows, block_vals, block_vecs in zip(idx, stack_vals, stack_vecs):
            vals[col:col + size] = block_vals
            vecs[rows, col:col + size] = block_vecs
            col += size
    return vals, vecs


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
        a = np.array(self.eigenvalues, dtype=float)
        v = np.array(self.eigenvectors, dtype=complex, order="C")
        a.setflags(write=False)
        v.setflags(write=False)
        object.__setattr__(self, "eigenvalues", a)
        object.__setattr__(self, "eigenvectors", v)

    def vector(self, k: int) -> np.ndarray:
        return self.eigenvectors[:, k]

    def propagate(self, psi0, times, hbar: float) -> np.ndarray:
        """The spectral solution ``V exp(-i a t / hbar) V^H psi0`` of
        ``i*hbar*dpsi/dt = H psi`` at every ``t`` in ``times``.

        Row ``k`` of the result is the state at ``times[k]``, formed by one
        product per block of ``_ROW_BLOCK`` rows.
        """
        v = self.eigenvectors
        coeffs = _coordinates(_as_complex_vector(psi0), v)
        times = np.asarray(times, dtype=float)
        states = np.empty((times.shape[0], v.shape[0]), dtype=complex)
        for rows in _row_blocks(times.shape[0]):
            states[rows] = _evolved_coefficients(coeffs, self.eigenvalues, times[rows], hbar) @ v.T
        return states


def make_hermitian(m, label: str | None = None) -> HermitianOperator:
    """Validate ``m`` and wrap it as a :class:`HermitianOperator`."""
    return HermitianOperator(m, label=label)


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


def spectral_decompose(a: HermitianOperator) -> SpectralData:
    """Ascending eigenvalues and a gauge-fixed orthonormal eigenbasis.

    Exact eigenvalue ties are ordered by lexicographic comparison of the
    phase-fixed eigenvectors' real parts, so the output is deterministic.
    Each operator is decomposed once; later calls return the same data.
    A real matrix takes the real symmetric solver, and each connected block
    of the nonzero pattern (the two parity sectors of an Ising chain, say) is
    decomposed apart, with one stacked solver call per block size, so each
    eigenvector lies in one block.  A matrix that is one block decomposes bit
    for bit as by one solver call on the whole (see ``HermitianOperator.spectral``).
    """
    return a.spectral


def quadratic_form(mx, psi) -> complex:
    """``<psi | M psi>`` for an arbitrary square complex matrix ``M``."""
    m = _as_matrix(mx)
    v = _as_complex_vector(psi)
    if m.shape[1] != v.shape[0]:
        raise DimensionMismatchError(
            f"state has length {v.shape[0]}, matrix has shape {m.shape}"
        )
    return complex(np.vdot(v, m @ v))


def _imaginary_tolerance(a: HermitianOperator) -> float:
    """``1e-12 * (1 + max|A|)``, the largest imaginary part an expectation of a unit state may carry."""
    return 1e-12 * (1.0 + a.max_norm)


def expectation(a: HermitianOperator, psi) -> float:
    """The real expectation value ``<psi | A psi>``: :func:`expectations` at one row."""
    return float(expectations(a, _as_complex_vector(psi)[None])[0])


def expectations(a: HermitianOperator, states: np.ndarray) -> np.ndarray:
    """The real ``<psi | A psi>`` of every row of ``states``, from one product ``states A^T``.

    An imaginary part above ``1e-12 * (1 + max|A|) * max(1, ||psi||^2)`` (round-off grows
    with ``||psi||^2``, so a growing flow passes) means a corrupted operator: the first such
    row raises.  The norms are computed only if a row exceeds the tolerance of a unit state.
    """
    if states.shape[-1] != a.dim:
        raise DimensionMismatchError(f"states have length {states.shape[-1]}, operator has dimension {a.dim}")
    values = np.einsum("ki,ki->k", states.conj(), states @ a.matrix.T)
    residue = np.abs(values.imag)
    bad = residue > _imaginary_tolerance(a)
    if np.any(bad):
        bad &= residue > _imaginary_tolerance(a) * np.maximum(np.einsum("ki,ki->k", states.conj(), states).real, 1.0)
    if np.any(bad):
        raise NonHermitianError(residue[bad][0], "expectation value has a nonzero imaginary part")
    return values.real


def reconstruct_from_spectrum(spectral: SpectralData) -> np.ndarray:
    """Rebuild the matrix ``sum_n a_n |psi_n><psi_n|`` from its spectral data."""
    v = spectral.eigenvectors
    return (v * spectral.eigenvalues) @ v.conj().T


def read_matrix_file(path) -> np.ndarray:
    """Read a dense complex matrix from the plain-text exchange format.

    The first line holds the dimension ``n``; each of exactly ``n`` more
    non-blank lines holds ``n`` whitespace-separated entries such as ``1.5``,
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
    if n > MAX_DENSE_DIM:
        raise ValueError(f"{path}: dimension {n} exceeds the dense limit {MAX_DENSE_DIM}")
    if len(lines) - 1 != n:
        raise ValueError(f"{path}: expected {n} rows, found {len(lines) - 1}")
    rows = []
    for i, line in enumerate(lines[1:], start=2):
        tokens = line.split()
        if len(tokens) != n:
            raise ValueError(f"{path}: line {i}: expected {n} entries, found {len(tokens)}")
        try:
            rows.append([complex(tok) for tok in tokens])
        except ValueError as exc:
            raise ValueError(f"{path}: line {i}: could not parse entry: {exc}") from exc
    return np.array(rows, dtype=complex)
