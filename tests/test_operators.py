"""Tests for operator validation, algebra and spectral decomposition."""

import dataclasses
import tracemalloc

import numpy as np
import pytest
from scipy.sparse.csgraph import connected_components

from symqm import (
    ComplexFunction,
    SpectralData,
    SymplecticSpace,
    Trajectory,
    commutator,
    from_operator,
    make_hermitian,
    parse_operator_expr,
    quadratic_form,
    read_matrix_file,
    reconstruct_from_spectrum,
    spectral_decompose,
)
from symqm.errors import DimensionMismatchError, NonHermitianError, NonSquareError
from symqm.operators import _BLOCK_ENTRIES, _ROW_BLOCK, _connected_blocks, _row_blocks, expectations

X = np.array([[0, 1], [1, 0]], dtype=complex)
Y = np.array([[0, -1j], [1j, 0]], dtype=complex)
Z = np.array([[1, 0], [0, -1]], dtype=complex)


def _random_hermitian(rng, n):
    m = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
    return (m + m.conj().T) / 2


def test_make_hermitian_accepts_paulis():
    assert make_hermitian(Z).dim == 2
    assert make_hermitian(Y).dim == 2
    labeled = make_hermitian(X, label="X0")
    assert labeled.label == "X0"


def test_make_hermitian_rejections():
    with pytest.raises(NonHermitianError) as err:
        make_hermitian([[0, 1], [0, 0]])  # raising operator
    assert err.value.deviation > 0.5
    with pytest.raises(NonSquareError):
        make_hermitian(np.zeros((2, 3)))
    with pytest.raises(NonSquareError):  # it had no spectrum to decompose
        make_hermitian(np.zeros((0, 0)))


class _Holder:
    """An object that hands out the writable array it keeps."""

    def __init__(self, data):
        self.data = data

    def __array__(self, dtype=None, copy=None):
        return self.data


def test_make_hermitian_never_aliases_a_writable_array():
    m = Z.copy()
    h = make_hermitian(m)
    m[0, 0] = 5.0
    assert h.matrix[0, 0] == 1.0 and not h.matrix.flags.writeable
    borrowed = m.view()
    borrowed.setflags(write=False)
    assert not np.shares_memory(make_hermitian(borrowed).matrix, m)
    # Every container keeps its arrays by one rule (spaces._frozen): it copies a
    # writable array and a read-only view of one, and adopts a read-only owner
    # and its views.
    space = SymplecticSpace(2)
    qf = from_operator(h, space)
    keeps = [
        # A complex operator stays complex, a real one float64 (see the test of the dtype rule).
        (Y, lambda a: make_hermitian(a).matrix),
        (Z.real.copy(), lambda a: make_hermitian(a).matrix),
        (np.eye(2, dtype=complex), lambda a: SpectralData(np.array([-1.0, 1.0]), a, False).eigenvectors),
        (np.array([0, 1], dtype=complex), lambda a: ComplexFunction.coordinate(a, space).vector),
        (np.array([-1.0, 1.0]), lambda a: dataclasses.replace(qf, eigenvalues=a).eigenvalues),
        (np.eye(2, dtype=complex),
         lambda a: Trajectory([0.0, 1.0], a, [1.0, 1.0], [0.0, 0.0], [0, 0], "exact").states),
    ]
    for given, keep in keeps:
        writable = given.copy()
        view = writable.view()
        view.setflags(write=False)
        for arr in (writable, view, _Holder(writable)):
            kept = keep(arr)
            assert not kept.flags.writeable and not np.shares_memory(kept, writable)
            np.testing.assert_array_equal(kept, given)
        assert writable.flags.writeable
        owner = given.copy()
        owner.setflags(write=False)
        assert keep(owner) is owner and np.shares_memory(keep(owner.view()), owner)


def test_commutator_examples():
    np.testing.assert_allclose(commutator(X, Y), 2j * Z, atol=0)
    a = make_hermitian(_random_hermitian(np.random.default_rng(0), 4))
    np.testing.assert_array_equal(commutator(a, a), np.zeros((4, 4)))
    np.testing.assert_array_equal(commutator(Z, np.eye(2)), np.zeros((2, 2)))
    with pytest.raises(DimensionMismatchError):
        commutator(Z, np.eye(3))


def test_commutator_anti_hermitian():
    rng = np.random.default_rng(1)
    for n in (2, 5, 8):
        a, b = _random_hermitian(rng, n), _random_hermitian(rng, n)
        c = commutator(a, b)
        scale = 1 + np.max(np.abs(c))
        assert np.max(np.abs(c + c.conj().T)) <= 1e-12 * scale


def test_spectral_decompose_diagonal():
    data = spectral_decompose(make_hermitian(np.diag([3.0, 1.0])))
    np.testing.assert_allclose(data.eigenvalues, [1.0, 3.0])
    np.testing.assert_allclose(np.abs(data.eigenvectors[:, 0]), [0, 1], atol=1e-15)
    np.testing.assert_allclose(np.abs(data.eigenvectors[:, 1]), [1, 0], atol=1e-15)
    assert not data.degenerate_flag


def test_spectral_decompose_pauli_x_gauge():
    data = spectral_decompose(make_hermitian(X))
    np.testing.assert_allclose(data.eigenvalues, [-1.0, 1.0])
    # phase fixing: first component real positive on ties
    np.testing.assert_allclose(data.eigenvectors[:, 0], np.array([1, -1]) / np.sqrt(2), atol=1e-15)
    np.testing.assert_allclose(data.eigenvectors[:, 1], np.array([1, 1]) / np.sqrt(2), atol=1e-15)


def test_spectral_decompose_degenerate_identity():
    data = spectral_decompose(make_hermitian(np.eye(3)))
    np.testing.assert_allclose(data.eigenvalues, [1.0, 1.0, 1.0])
    assert data.degenerate_flag


def test_spectral_invariants_random():
    rng = np.random.default_rng(2)
    for n in (2, 3, 8):
        a = make_hermitian(_random_hermitian(rng, n))
        data = spectral_decompose(a)
        norm_a = np.linalg.norm(a.matrix, 2)
        for k in range(n):
            residual = np.linalg.norm(a.matrix @ data.eigenvectors[:, k] - data.eigenvalues[k] * data.eigenvectors[:, k])
            assert residual <= 1e-10 * (1 + abs(data.eigenvalues[k])) * norm_a
        gram = data.eigenvectors.conj().T @ data.eigenvectors
        assert np.max(np.abs(gram - np.eye(n))) <= 1e-12
        assert np.all(np.diff(data.eigenvalues) >= 0)


def test_spectral_reconstruction():
    rng = np.random.default_rng(3)
    for n in (2, 4, 8):
        a = make_hermitian(_random_hermitian(rng, n))
        rebuilt = reconstruct_from_spectrum(spectral_decompose(a))
        assert np.max(np.abs(rebuilt - a.matrix)) <= 1e-10 * (1 + np.max(np.abs(a.matrix)))


@pytest.mark.parametrize("bad", [np.nan, np.inf, complex(0, np.inf)])
def test_non_finite_entries_rejected(bad):
    m = np.eye(2, dtype=complex)
    m[0, 1] = m[1, 0] = bad
    with pytest.raises(NonHermitianError, match="non-finite"):
        make_hermitian(m)


def test_row_block_validation_matches_the_whole_matrix():
    # 600 rows span five tiles of 128, the last one partial; (550, 20) sits in a
    # tile below the diagonal, (599, 599) in the last, partial diagonal tile.
    rng = np.random.default_rng(5)
    m = _random_hermitian(rng, 600)
    m[550, 20] += 3e-13
    assert make_hermitian(m).max_norm == float(np.max(np.abs(m)))
    m[550, 20] += 1e-9
    with pytest.raises(NonHermitianError) as err:
        make_hermitian(m)
    assert err.value.deviation == float(np.max(np.abs(m - m.conj().T)))
    m[599, 599] = np.nan
    with pytest.raises(NonHermitianError, match="non-finite"):
        make_hermitian(m)


# One entry per kind of tile, for n = 129 and 600 (neither a multiple of the
# tile side of 128): in a diagonal tile, above and below the diagonal, and in
# the last, partial tile.
TILE_ENTRIES = {
    129: {"diagonal": (5, 70), "above": (3, 128), "below": (128, 3), "last partial": (128, 128)},
    600: {"diagonal": (200, 140), "above": (130, 400), "below": (400, 130), "last partial": (599, 520)},
}


@pytest.mark.parametrize("count", [0, 1, 255, 256, 257, 1000])
@pytest.mark.parametrize("width", [1, 16, 256, 257, 512, 1024, 2**16, 2**16 + 1])
def test_row_blocks_cover_the_rows_in_bounded_blocks(count, width):
    blocks = list(_row_blocks(count, width))
    assert [i for rows in blocks for i in range(count)[rows]] == list(range(count))
    for rows in blocks:
        size = len(range(count)[rows])
        assert 1 <= size <= _ROW_BLOCK and size * width <= max(width, _BLOCK_ENTRIES)


@pytest.mark.parametrize("n, tile", [(n, tile) for n in TILE_ENTRIES for tile in TILE_ENTRIES[n]])
def test_tile_walk_reads_every_tile(n, tile):
    i, j = TILE_ENTRIES[n][tile]
    m = _random_hermitian(np.random.default_rng(n), n)
    # The largest entry sits in the tile, so the norm must be read there.
    m[i, j] = 7 + 2j * (i != j)
    m[j, i] = m[i, j].conj()
    assert make_hermitian(m).max_norm == float(np.max(np.abs(m))) == float(np.abs(m[i, j]))
    m[i, j] += 1e-9j
    with pytest.raises(NonHermitianError) as err:
        make_hermitian(m)
    assert err.value.deviation == float(np.max(np.abs(m - m.conj().T)))
    m[i, j] = np.nan
    with pytest.raises(NonHermitianError, match="non-finite"):
        make_hermitian(m)


def _canonical(blocks):
    return sorted(tuple(int(i) for i in b) for b in blocks)


def _csgraph_blocks(pattern):
    count, labels = connected_components(pattern, directed=False)
    return [np.flatnonzero(labels == c) for c in range(count)]


@pytest.mark.parametrize("seed", range(6))
def test_connected_blocks_match_csgraph(seed):
    rng = np.random.default_rng(seed)
    n = int(rng.integers(1, 120))
    # Sparse random patterns, some one-sided (a pattern need not be symmetric).
    pattern = rng.random((n, n)) < rng.choice([0.0, 0.002, 0.01, 0.05])
    if seed % 2:
        pattern |= pattern.T
    blocks = _connected_blocks(pattern)
    assert [list(b) for b in blocks] == [sorted(b) for b in blocks]
    assert [b[0] for b in blocks] == sorted(b[0] for b in blocks)
    assert _canonical(blocks) == _canonical(_csgraph_blocks(pattern))


@pytest.mark.parametrize("shape", ["diagonal", "tridiagonal"])
def test_connected_blocks_at_the_dense_limit(shape):
    n = 4096
    pattern = np.eye(n, dtype=bool)
    if shape == "tridiagonal":
        pattern |= np.eye(n, k=1, dtype=bool) | np.eye(n, k=-1, dtype=bool)
    blocks = _connected_blocks(pattern)
    assert _canonical(blocks) == _canonical(_csgraph_blocks(pattern))
    assert len(blocks) == (n if shape == "diagonal" else 1)


def _chain(q):
    terms = [f"0.5*X{k}*X{k + 1}" for k in range(q - 1)] + [f"0.3*Z{k}" for k in range(q)]
    return parse_operator_expr(" + ".join(terms)).to_matrix(q)


def test_spectral_decomposes_the_parity_blocks_apart():
    h = make_hermitian(_chain(4))
    assert [b.size for b in _connected_blocks(h.matrix)] == [8, 8]
    spectral = spectral_decompose(h)
    rebuilt = reconstruct_from_spectrum(spectral)
    assert np.max(np.abs(rebuilt - h.matrix)) <= 1e-13
    # Each eigenvector lies in one parity sector.
    parity = np.array([bin(i).count("1") % 2 for i in range(16)])
    for k in range(16):
        assert np.unique(parity[spectral.eigenvectors[:, k] != 0]).size == 1


def test_validation_makes_no_full_size_temporaries():
    m = _chain(10)  # n = 1024, 16 MiB
    tracemalloc.start()
    try:
        make_hermitian(m)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    # The stored copy alone is 1x; full-size conj, difference and abs made 2x.
    assert peak <= 1.25 * m.nbytes


def test_pauli_build_adopts_its_matrix():
    tracemalloc.start()
    try:
        h = make_hermitian(_chain(10))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    # to_matrix returns its array read-only and the operator keeps it; a copy
    # of it peaked at 2x.
    assert peak <= 1.25 * h.matrix.nbytes


def test_first_decomposition_peak_memory():
    m = _chain(10)
    h = make_hermitian(m)
    tracemalloc.start()
    try:
        h.spectral
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    # About 2.6x the real matrix's bytes (20.6 MiB): the float64 eigenvector
    # matrix, allocated first (and not yet written), then the two real 512-blocks,
    # their eigenvectors and the gauge's temporaries on both.  With the matrix
    # and its eigenbasis complex the peak was 1.79x the complex matrix's bytes
    # (28.6 MiB), under a bound of 2.0x (32 MiB); full-size scaled and doubly
    # copied eigenvectors peaked at 40 MiB.
    assert m.dtype == np.float64
    assert peak <= 2.75 * m.nbytes


@pytest.mark.parametrize("qubits", [9, 10])
def test_quantum_function_holds_its_eigenbasis_once(qubits):
    h = make_hermitian(_chain(qubits))
    tracemalloc.start()
    try:
        qf = from_operator(h, SymplecticSpace(h.dim))
        held = tracemalloc.get_traced_memory()[0]
    finally:
        tracemalloc.stop()
    basis = spectral_decompose(h).eigenvectors
    # The coordinates and the stationary states are the eigenvectors and their
    # transpose.  A column-stacked coordinate matrix next to them held 2.03-2.06x.
    assert np.shares_memory(qf.coordinates, basis)
    assert np.shares_memory(qf.stationary_states, basis)
    assert held <= 1.1 * basis.nbytes


def test_spectral_norm_reads_the_one_decomposition(monkeypatch):
    # ||A||_2 = max |a_n| of the cached decomposition: no SVD, and no second eigh.
    a = make_hermitian(_random_hermitian(np.random.default_rng(90), 6))
    reference = np.linalg.norm(a.matrix, 2)
    calls = []

    def counting(name, solver):
        return lambda *args, **kwargs: calls.append(name) or solver(*args, **kwargs)

    for name in ("svd", "eigh", "eigvalsh"):
        monkeypatch.setattr(np.linalg, name, counting(name, getattr(np.linalg, name)))
    assert abs(a.spectral_norm - reference) <= 1e-14 * reference
    assert a.spectral_norm == np.max(np.abs(a.spectral.eigenvalues))
    assert calls == ["eigh"]


def test_quadratic_form_examples():
    psi = np.array([1, 0])
    assert quadratic_form(np.eye(2), psi) == 1
    assert quadratic_form(2j * Z, psi) == 2j
    uniform = np.array([1, 1]) / np.sqrt(2)
    assert abs(quadratic_form(Z, uniform)) <= 1e-16
    with pytest.raises(DimensionMismatchError):
        quadratic_form(np.eye(3), psi)


def test_expectation_examples():
    z = make_hermitian(Z)
    x = make_hermitian(X)
    uniform = np.array([1, 1]) / np.sqrt(2)
    values = expectations(z, np.array([[1, 0], uniform], dtype=complex))
    assert values[0] == 1.0
    assert abs(values[1]) <= 1e-16
    assert abs(expectations(x, uniform[None].astype(complex))[0] - 1.0) <= 1e-15


def test_expectation_real_for_random_hermitian():
    rng = np.random.default_rng(4)
    for n in (2, 5, 16):
        a = make_hermitian(_random_hermitian(rng, n))
        for _ in range(10):
            psi = rng.standard_normal(n) + 1j * rng.standard_normal(n)
            psi /= np.linalg.norm(psi)
            # the imaginary-residue assertion lives inside expectations()
            value = expectations(a, psi[None])[0]
            assert np.isreal(value)


def test_quadratic_form_of_commutator_is_imaginary():
    rng = np.random.default_rng(5)
    for n in (2, 4):
        a, b = _random_hermitian(rng, n), _random_hermitian(rng, n)
        comm = commutator(a, b)
        scale = 1 + np.linalg.norm(a, 2) * np.linalg.norm(b, 2)
        for _ in range(10):
            psi = rng.standard_normal(n) + 1j * rng.standard_normal(n)
            psi /= np.linalg.norm(psi)
            assert abs(quadratic_form(comm, psi).real) <= 1e-12 * scale


def test_read_matrix_file_round_trip(tmp_path):
    path = tmp_path / "op.mat"
    path.write_text("2\n1 2+3j\n2-3j -0.5\n")
    m = read_matrix_file(path)
    np.testing.assert_array_equal(m, [[1, 2 + 3j], [2 - 3j, -0.5]])
    make_hermitian(m)


def test_read_matrix_file_errors(tmp_path):
    bad_header = tmp_path / "a.mat"
    bad_header.write_text("two\n1 0\n0 1\n")
    with pytest.raises(ValueError):
        read_matrix_file(bad_header)
    short = tmp_path / "b.mat"
    short.write_text("2\n1 0\n")
    with pytest.raises(ValueError):
        read_matrix_file(short)
    bad_entry = tmp_path / "c.mat"
    bad_entry.write_text("1\nnope\n")
    with pytest.raises(ValueError):
        read_matrix_file(bad_entry)


@pytest.mark.parametrize("text, dtype", [
    ("Z0", np.float64), ("X0*X1 + 0.3*Z0", np.float64), ("Y0*Y1", np.float64),
    ("Y0", np.complex128), ("X0*Y1", np.complex128), ("0.2*Y0*Z1", np.complex128),
])
def test_pauli_sum_dtype_is_decided_once_at_the_build(text, dtype):
    # Real iff i^phase of every term's bit form is real (Y0*Y1 = -(XZ)(XZ) is real);
    # the operator adopts that matrix, and its eigenbasis, coordinates and
    # stationary states keep the dtype.
    m = parse_operator_expr(text).to_matrix()
    h = make_hermitian(m)
    assert m.dtype == dtype and h.matrix is m
    qf = from_operator(h, SymplecticSpace(h.dim))
    assert spectral_decompose(h).eigenvectors.dtype == dtype
    assert qf.coordinates.dtype == dtype and qf.stationary_states.dtype == dtype
    assert np.shares_memory(qf.coordinates, spectral_decompose(h).eigenvectors)


def test_matrix_file_dtype_follows_its_imaginary_parts(tmp_path):
    # All imaginary parts zero (a signed zero among them): stored as the real part.
    zero = tmp_path / "zero.mat"
    zero.write_text("2\n1 2+0j\n2-0j -0.5\n")
    h = make_hermitian(read_matrix_file(zero))
    assert h.matrix.dtype == np.float64 and not h.matrix.flags.writeable
    np.testing.assert_array_equal(h.matrix, [[1, 2], [2, -0.5]])
    assert spectral_decompose(h).eigenvectors.dtype == np.float64
    # One pair of the smallest subnormal imaginary parts keeps it complex.
    pair = tmp_path / "pair.mat"
    pair.write_text("3\n1 0 2+5e-324j\n0 1 0\n2-5e-324j 0 -0.5\n")
    h = make_hermitian(read_matrix_file(pair))
    assert h.matrix.dtype == np.complex128 and h.matrix[0, 2].imag == 5e-324
    assert spectral_decompose(h).eigenvectors.dtype == np.complex128
    # A read-only complex owner with zero imaginary parts is not adopted: its real part is copied.
    owner = Z.copy()
    owner.setflags(write=False)
    kept = make_hermitian(owner).matrix
    assert kept.dtype == np.float64 and not kept.flags.writeable and not np.shares_memory(kept, owner)


def test_real_chain_build_and_decomposition_hold_half_the_complex_bytes():
    n = 1024
    tracemalloc.start()
    try:
        h = make_hermitian(_chain(10))
        spectral = spectral_decompose(h)
        held = tracemalloc.get_traced_memory()[0]
    finally:
        tracemalloc.stop()
    # The matrix and its eigenbasis, float64: 16 MiB.  Both complex held 32 MiB.
    assert h.matrix.dtype == spectral.eigenvectors.dtype == np.float64
    assert held <= 0.51 * (2 * n * n * np.dtype(complex).itemsize)


def test_commutator_of_a_real_and_a_complex_operator():
    # The real factor is the matrix of the row product, never copied to complex.
    rng = np.random.default_rng(3)
    a = rng.standard_normal((5, 5))
    a += a.T
    b = _random_hermitian(rng, 5)
    reference = a.astype(complex) @ b - b @ a.astype(complex)
    scale = np.finfo(float).eps * 5 * (np.abs(a) @ np.abs(b) + np.abs(b) @ np.abs(a))
    for c in (commutator(a, b), -commutator(b, a)):
        assert c.dtype == np.complex128
        assert np.all(np.abs(c - reference) <= 2 * scale)
    assert commutator(a, np.diag(np.arange(5.0))).dtype == np.float64
