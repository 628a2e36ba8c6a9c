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
from .spaces import _as_complex_vector, _frozen, hermitian_inner

__all__ = [
    "HermitianOperator",
    "SpectralData",
    "make_hermitian",
    "commutator",
    "spectral_decompose",
    "quadratic_form",
    "expectations",
    "reconstruct_from_spectrum",
    "read_matrix_file",
]

HERMITICITY_TOL = 1e-12
DEGENERACY_TOL = 1e-9
# Largest dimension n of a dense n x n operator (12 qubits): 256 MiB complex,
# 128 MiB real.
MAX_DENSE_DIM = 4096

# Rows (times, stored steps, samples or FD points) handled per block by the
# array products, at most.
_ROW_BLOCK = 256
# Bound on the entries of a block of rows, and of a linear flow's table of
# step powers, so that each complex temporary comes to at most 1 MiB at
# every n (a block of rows always holds at least one row).
_BLOCK_ENTRIES = 2**16
# Side of the square tiles that an n x n matrix is read in, a tile and its
# mirror image at a time: a complex tile's temporaries come to 256 KiB (a
# quarter of _BLOCK_ENTRIES), and at n = 1024 the check of Hermiticity took
# half the time on tiles of 128 as on tiles of 256.
_TILE = 128


def _row_blocks(count: int, width: int):
    """Slices that cover ``range(count)`` in order, in blocks of rows ``width`` entries wide: each
    block has at most ``_ROW_BLOCK`` rows and ``_BLOCK_ENTRIES`` entries, and at least one row.
    So up to ``width`` 256 a block has ``_ROW_BLOCK`` rows, and from 512 up a complex ``(rows,
    width)`` temporary of a block holds 1 MiB."""
    size = max(1, min(_ROW_BLOCK, _BLOCK_ENTRIES // width))
    for start in range(0, count, size):
        yield slice(start, min(start + size, count))


def _tile_pairs(n: int):
    """Row and column slices ``(r, c)`` of the ``_TILE``-sided tiles on and above the
    diagonal of an ``n x n`` matrix: the tile ``(r, c)`` and its mirror ``(c, r)``
    hold each entry and the one across the diagonal from it, and each row of a tile
    is read in order."""
    return ((slice(r, r + _TILE), slice(c, c + _TILE)) for r in range(0, n, _TILE) for c in range(r, n, _TILE))


def _product(rows: np.ndarray, matrix: np.ndarray) -> np.ndarray:
    """``rows @ matrix`` for one state or a ``(k, n)`` stack of rows: the one product of states
    with an operator matrix or an eigenbasis.

    A complex ``matrix`` multiplies the rows as they are.  A float64 ``matrix`` meets complex rows
    as one real product per block of :func:`_row_blocks`, over their ``2b`` stacked real and
    imaginary parts, written into the complex result: the matrix is read at half the bytes, and
    with half the flops, of the complex product it equals to round-off, and it is never copied
    to complex.  The stacked parts of a block are all the temporaries, a fraction of the result.
    """
    if np.iscomplexobj(matrix) or not np.iscomplexobj(rows):
        return rows @ matrix
    flat = rows.reshape(-1, rows.shape[-1])
    out = np.empty((flat.shape[0],) + matrix.shape[1:], dtype=complex)
    for block in _row_blocks(flat.shape[0], max(matrix.shape)):
        rows_in, rows_out = flat[block], out[block]
        parts = np.concatenate((rows_in.real, rows_in.imag)) @ matrix
        rows_out.real, rows_out.imag = parts[:len(rows_in)], parts[len(rows_in):]
    return out.reshape(rows.shape[:-1] + matrix.shape[1:])


def _coordinates(states: np.ndarray, basis: np.ndarray) -> np.ndarray:
    """``<phi_n|psi>`` for every row ``psi`` of ``states`` (or one state) and column ``phi_n`` of ``basis``:
    ``conj(conj(psi) @ basis)``, which for a real ``basis`` is ``psi @ basis`` bit for bit."""
    if np.isrealobj(basis):
        return _product(states, basis)
    return _product(states.conj(), basis).conj()


def _evolved_coefficients(coeffs, eigenvalues, elapsed, hbar: float) -> np.ndarray:
    """Row ``k`` holds ``exp(-i a (t_k - t_0) / hbar) c_0`` for ``elapsed[k] = t_k - t_0``.

    The spectral coefficients ``c_0`` of a state, advanced along the flow of
    ``<H>`` for the eigenvalues ``a`` of ``H``: the one place the phase
    formula is written.
    """
    a = np.asarray(eigenvalues, dtype=float)
    return coeffs * np.exp(-1j * a * (np.asarray(elapsed, dtype=float)[:, None] / float(hbar)))


def _spectral_drift(coordinates, states: np.ndarray, eigenvalues, times, hbar: float):
    """Yield ``C - exp(-i a (t - t_0) / hbar) C_0`` per block of :func:`_row_blocks` of ``states``,
    ``C = coordinates(block)`` their eigen-coordinates; ``C_0``, row 0 of the first
    block's product, cancels the ``t_0`` row exactly, and a NaN coordinate stays NaN."""
    elapsed = np.asarray(times, dtype=float) - float(times[0])
    c0 = None
    for rows in _row_blocks(states.shape[0], max(states.shape[1], len(eigenvalues))):
        coords = coordinates(states[rows])
        if c0 is None:
            c0 = coords[0].copy()
        yield coords - _evolved_coefficients(c0, eigenvalues, elapsed[rows], hbar)


@dataclass(frozen=True)
class HermitianOperator:
    """A validated ``n x n`` Hermitian matrix, ``n >= 1``, stored float64 when it is real.

    Construction rejects an empty matrix, and matrices with a non-finite entry
    or with ``max|M - M†| > 1e-12 * (1 + max|M|)`` (``|M - M^T|`` for a real
    one); both maxima, and whether any imaginary part is nonzero, come from one
    walk over the pairs of :func:`_tile_pairs`.  A real matrix is kept float64,
    and a complex one whose imaginary parts are all zero is stored as its real
    part; any other stays complex128.  The matrix is kept read-only by the rule
    of :func:`symqm.spaces._frozen`, so the one that
    :meth:`PauliSumExpr.to_matrix` returns is adopted and a writable one copied.

    Parameters
    ----------
    matrix : ndarray
        Square real or complex matrix.
    label : str, optional
        Source expression or free-form tag, carried through reports.
    """

    matrix: np.ndarray
    label: str | None = None
    #: Max-abs-entry norm, the scale used in construction tolerances.
    max_norm: float = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        m = _frozen(self.matrix, None)
        if m.ndim != 2 or m.shape[0] != m.shape[1] or m.shape[0] == 0:
            raise NonSquareError(f"expected a non-empty square matrix, got shape {m.shape}")
        norms, deviations, imaginary = [], [], False
        complex_entries = np.iscomplexobj(m)
        with np.errstate(invalid="ignore"):  # inf - inf: the non-finite entry raises below
            for rows, cols in _tile_pairs(m.shape[0]):
                tile, mirror = m[rows, cols], m[cols, rows]
                norms += [np.max(np.abs(tile)), np.max(np.abs(mirror))]
                # |a - conj(b)| and |b - conj(a)| are one double: the tile stands for both.
                deviations.append(np.max(np.abs(tile - (mirror.T.conj() if complex_entries else mirror.T))))
                imaginary = imaginary or complex_entries and bool(tile.imag.any() or mirror.imag.any())
        max_norm = float(np.max(norms))  # np.max, so that a NaN propagates
        if not np.isfinite(max_norm):
            raise NonHermitianError(max_norm, "matrix has a non-finite entry")
        deviation = float(np.max(deviations))
        if deviation > HERMITICITY_TOL * (1.0 + max_norm):
            raise NonHermitianError(deviation)
        if complex_entries and not imaginary:
            m = m.real.copy()
            m.setflags(write=False)
        object.__setattr__(self, "matrix", m)
        object.__setattr__(self, "max_norm", max_norm)

    @property
    def dim(self) -> int:
        return self.matrix.shape[0]

    @property
    def spectral_norm(self) -> float:
        """``||A||_2 = max_n |a_n|``, read from the eigenvalues of the one decomposition :attr:`spectral`."""
        return float(np.max(np.abs(self.spectral.eigenvalues)))

    @functools.cached_property
    def spectral(self) -> SpectralData:
        """The :func:`spectral_decompose` data, computed once: the matrix is immutable.

        A real matrix (see :class:`HermitianOperator`) takes the real symmetric
        solver and has a float64 eigenbasis; a complex one, the complex
        Hermitian solver and a complex128 eigenbasis.  Each connected block of
        the nonzero pattern is decomposed apart, one stacked solver call per
        block size of :attr:`sectors` (:func:`_block_eigh`), the one search for
        the blocks that the linear flow reads too.  The order comes from the
        eigenvalues alone, and each column's gauge from its own block: a
        column is zero off its block, whose rows ascend, so the block holds the
        column's first largest entry.  The gauged blocks are then written once
        into the eigenvector matrix, of the matrix's dtype, at their final
        columns.  Only runs of equal eigenvalues are ordered on the full
        columns, as for a matrix that is one block.
        """
        m = self.matrix
        # Allocated before the solver's arrays: allocated after them, it raised
        # the peak resident memory of a process that decomposes n = 512 twice.
        vecs = np.empty(m.shape, dtype=m.dtype)
        try:
            stacks = _block_eigh(m, self.sectors)
        except np.linalg.LinAlgError as exc:
            raise EigensolverError(f"eigendecomposition failed: {exc}") from exc
        vals = np.concatenate([stack_vals.ravel() for _, stack_vals, _ in stacks])
        phases = np.concatenate([_fix_gauge(stack_vecs).ravel() for _, _, stack_vecs in stacks])
        order = np.argsort(vals, kind="stable")
        # The final column of each solver column: a scatter, as the first argsort of
        # integers in a process pages in about 0.3 MiB of numpy's sorting code.
        column = np.empty_like(order)
        column[order] = np.arange(order.size)
        if stacks[0][0].shape[1] < order.size:  # more than one block: the zeros off them, signed as 0 * phase
            vecs[...] = (np.zeros(1, phases.dtype) * phases)[order]
        for idx, _, stack_vecs in stacks:
            cols, column = np.split(column, [idx.size])
            vecs[idx[:, :, None], cols.reshape(idx.shape)[:, None, :]] = stack_vecs
        vals = vals[order]
        _, starts, counts = np.unique(vals, return_index=True, return_counts=True)
        for start, count in zip(starts[counts > 1], counts[counts > 1]):
            # A run's full columns ordered by their real parts; a row that is zero in
            # every column of the run cannot decide the order, so it is left out.
            real = vecs[:, start:start + count].real
            key = real[np.any(real != 0, axis=1)].T.tolist()
            perm = sorted(range(count), key=key.__getitem__)
            vecs[:, start:start + count] = vecs[:, start + np.array(perm)]
        scale = 1.0 + float(np.max(np.abs(vals)))
        gaps = np.diff(vals)
        degenerate = bool(gaps.size and np.min(gaps) <= DEGENERACY_TOL * scale)
        vals.setflags(write=False)  # made here, so SpectralData adopts both
        vecs.setflags(write=False)
        return SpectralData(vals, vecs, degenerate)

    @functools.cached_property
    def sectors(self) -> tuple[np.ndarray, ...]:
        """The connected blocks of the nonzero pattern, found once: one read-only ``(k, s)``
        index stack per block size ``s``, ascending in ``s``.

        Row ``j`` of a stack holds one block's ascending indices, and a size's blocks follow
        their lowest indices (:func:`_connected_blocks`).  Every function of the matrix keeps
        them apart (the two parity sectors of an open Ising chain, say): the decomposition
        solves them one stacked call per size, and the linear flow steps them so.  A matrix
        that is one block has the one stack ``[arange(n)]``.
        """
        blocks = _connected_blocks(self.matrix)
        stacks = tuple(np.stack([b for b in blocks if b.size == size])
                       for size in sorted({b.size for b in blocks}))  # np.unique would import numpy.ma
        for idx in stacks:
            idx.setflags(write=False)
        return stacks


def _fix_gauge(vecs: np.ndarray) -> np.ndarray:
    """Rotate each column of each matrix in the stack ``vecs`` in place by
    ``conj(p) / |p|``, ``p`` its first largest-magnitude entry, so that ``p``
    turns real positive; return the phases, one row per matrix.

    The entry is found by reductions along the rows, which read a C-ordered
    array in row order (an argmax down its columns reads it column by column).
    ``p`` is never zero, as ``eigh`` returns unit columns; for a real ``vecs``
    the phase is a sign.
    """
    size = vecs.shape[-1]
    mags = np.abs(vecs)
    first = np.where(mags == mags.max(axis=-2, keepdims=True), np.arange(size)[:, None], size).min(axis=-2)
    peak = np.take_along_axis(vecs, first[:, None, :], axis=-2)[:, 0, :]
    phases = peak.conj() / np.abs(peak)
    vecs *= phases[:, None, :]
    return phases


def _connected_blocks(m: np.ndarray) -> list[np.ndarray]:
    """The connected components of the nonzero pattern of ``m``, as ascending index arrays
    ordered by their lowest index.

    A breadth-first search over the ``n x n`` boolean matrix of the pattern, made
    symmetric one pair of :func:`_tile_pairs` at a time (a whole transpose misses
    the cache at large ``n``); each level reads its frontier's rows once.
    """
    n = m.shape[0]
    linked = m != 0
    for rows, cols in _tile_pairs(n):
        linked[rows, cols] |= linked[cols, rows].T
        linked[cols, rows] = linked[rows, cols].T
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


def _sector_blocks(m: np.ndarray, idx: np.ndarray) -> np.ndarray:
    """The ``(k, s, s)`` stack of the blocks ``m[idx[j]][:, idx[j]]`` of one index stack of
    :attr:`HermitianOperator.sectors`; a matrix that is one block is the view ``m[None]``."""
    return m[None] if idx.shape[1] == m.shape[0] else m[idx[:, :, None], idx[:, None, :]]


def _block_eigh(m: np.ndarray, sectors) -> list[tuple[np.ndarray, np.ndarray, np.ndarray]]:
    """``np.linalg.eigh`` of ``m``, one stacked call per index stack of ``sectors``.

    ``sectors`` are the operator's :attr:`HermitianOperator.sectors`, ascending in
    block size.  Each call returns ``(idx, eigenvalues, eigenvectors)``: row ``k`` of
    ``idx`` holds block ``k``'s ascending row indices into ``m``, and entry ``k`` of
    the solver's stacks its data for ``m[idx[k]][:, idx[k]]``.  A stacked call gives
    each block the bits of its own call, and a matrix that is one block goes to
    ``eigh`` unchanged, so its data is that of ``eigh(m)``.
    """
    return [(idx, *np.linalg.eigh(_sector_blocks(m, idx))) for idx in sectors]


@dataclass(frozen=True)
class SpectralData:
    """Eigendecomposition of a Hermitian operator.

    ``eigenvalues`` ascend; the columns of ``eigenvectors`` are orthonormal
    and gauge-fixed so each column's largest-magnitude component is real
    positive.  ``eigenvectors`` keeps its dtype: float64 for a real operator,
    complex128 otherwise.  ``degenerate_flag`` is set when two consecutive
    eigenvalues are closer than ``1e-9 * (1 + max|a_n|)``.
    """

    eigenvalues: np.ndarray
    eigenvectors: np.ndarray
    degenerate_flag: bool

    def __post_init__(self):
        object.__setattr__(self, "eigenvalues", _frozen(self.eigenvalues, float))
        object.__setattr__(self, "eigenvectors", _frozen(self.eigenvectors, None))

    def propagate(self, psi0, times, hbar: float) -> np.ndarray:
        """The spectral solution ``V exp(-i a t / hbar) V^H psi0`` of
        ``i*hbar*dpsi/dt = H psi`` at every ``t`` in ``times``.

        Row ``k`` of the result is the state at ``times[k]``, formed by one
        product per block of :func:`_row_blocks`.
        """
        v = self.eigenvectors
        coeffs = _coordinates(_as_complex_vector(psi0), v)
        times = np.asarray(times, dtype=float)
        states = np.empty((times.shape[0], v.shape[0]), dtype=complex)
        for rows in _row_blocks(times.shape[0], v.shape[0]):
            states[rows] = _product(_evolved_coefficients(coeffs, self.eigenvalues, times[rows], hbar), v.T)
        return states


def make_hermitian(m, label: str | None = None) -> HermitianOperator:
    """Validate ``m`` and wrap it as a :class:`HermitianOperator`."""
    return HermitianOperator(m, label=label)


def _as_matrix(op) -> np.ndarray:
    """An operator's matrix, or an array-like as it is: a real one is never made complex."""
    return op.matrix if isinstance(op, HermitianOperator) else np.asarray(op)


def commutator(a, b) -> np.ndarray:
    """The commutator ``AB - BA``; anti-Hermitian for Hermitian inputs.

    Real if both are real.  A real factor of a complex one is the matrix of
    :func:`_product` (``XY = (Y^T X^T)^T``), so it is never copied to complex.
    """
    ma, mb = _as_matrix(a), _as_matrix(b)
    if ma.shape != mb.shape:
        raise DimensionMismatchError(f"shape mismatch: {ma.shape} vs {mb.shape}")

    def times(x, y):
        return _product(y.T, x.T).T if np.isrealobj(x) and np.iscomplexobj(y) else _product(x, y)

    return times(ma, mb) - times(mb, ma)


def spectral_decompose(a: HermitianOperator) -> SpectralData:
    """Ascending eigenvalues and a gauge-fixed orthonormal eigenbasis.

    Exact eigenvalue ties are ordered by lexicographic comparison of the
    phase-fixed eigenvectors' real parts, so the output is deterministic.
    Each operator is decomposed once; later calls return the same data.
    A real matrix takes the real symmetric solver and gets a float64
    eigenbasis, a complex one a complex128 eigenbasis; each connected block
    of the nonzero pattern (the two parity sectors of an Ising chain, say) is
    decomposed apart, with one stacked solver call per block size, so each
    eigenvector lies in one block; its gauge is read from the solver's block
    and the blocks are written once at their final columns.  The data is bit
    for bit that of one solver call per block followed by a gauge fix and an
    order on the full columns, and a matrix that is one block decomposes as by
    one solver call on the whole (see ``HermitianOperator.spectral``).
    """
    return a.spectral


def quadratic_form(mx, psi) -> complex:
    """``<psi | M psi>`` for an arbitrary square real or complex matrix ``M``."""
    m = _as_matrix(mx)
    v = _as_complex_vector(psi)
    if m.shape[1] != v.shape[0]:
        raise DimensionMismatchError(
            f"state has length {v.shape[0]}, matrix has shape {m.shape}"
        )
    return hermitian_inner(v, _product(v, m.T))


def _imaginary_tolerance(a: HermitianOperator) -> float:
    """``1e-12 * (1 + max|A|)``, the largest imaginary part an expectation of a unit state may carry."""
    return 1e-12 * (1.0 + a.max_norm)


def expectations(a: HermitianOperator, states: np.ndarray) -> np.ndarray:
    """The real ``<psi | A psi>`` of every row of ``states``, from one product ``states A^T``.

    An imaginary part above ``1e-12 * (1 + max|A|) * max(1, ||psi||^2)`` (round-off grows
    with ``||psi||^2``, so a growing flow passes) means a corrupted operator: the first such
    row raises.  The norms are computed only if a row exceeds the tolerance of a unit state.
    """
    if states.shape[-1] != a.dim:
        raise DimensionMismatchError(f"states have length {states.shape[-1]}, operator has dimension {a.dim}")
    values = hermitian_inner(states, _product(states, a.matrix.T))
    residue = np.abs(values.imag)
    bad = residue > _imaginary_tolerance(a)
    if np.any(bad):
        bad &= residue > _imaginary_tolerance(a) * np.maximum(hermitian_inner(states, states).real, 1.0)
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
