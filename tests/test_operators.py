"""Tests for operator validation, algebra and spectral decomposition."""

import numpy as np
import pytest

from symqm import (
    StatePoint,
    commutator,
    expectation,
    make_hermitian,
    quadratic_form,
    read_matrix_file,
    reconstruct_from_spectrum,
    spectral_decompose,
)
from symqm.errors import DimensionMismatchError, NonHermitianError, NonSquareError

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
    np.testing.assert_allclose(np.abs(data.vector(0)), [0, 1], atol=1e-15)
    np.testing.assert_allclose(np.abs(data.vector(1)), [1, 0], atol=1e-15)
    assert not data.degenerate_flag


def test_spectral_decompose_pauli_x_gauge():
    data = spectral_decompose(make_hermitian(X))
    np.testing.assert_allclose(data.eigenvalues, [-1.0, 1.0])
    # phase fixing: first component real positive on ties
    np.testing.assert_allclose(data.vector(0), np.array([1, -1]) / np.sqrt(2), atol=1e-15)
    np.testing.assert_allclose(data.vector(1), np.array([1, 1]) / np.sqrt(2), atol=1e-15)


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
            residual = np.linalg.norm(a.matrix @ data.vector(k) - data.eigenvalues[k] * data.vector(k))
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


def test_quadratic_form_examples():
    psi = StatePoint([1, 0], normalized=True)
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
    assert expectation(z, [1, 0]) == 1.0
    assert abs(expectation(z, uniform)) <= 1e-16
    assert abs(expectation(x, uniform) - 1.0) <= 1e-15


def test_expectation_real_for_random_hermitian():
    rng = np.random.default_rng(4)
    for n in (2, 5, 16):
        a = make_hermitian(_random_hermitian(rng, n))
        for _ in range(10):
            psi = rng.standard_normal(n) + 1j * rng.standard_normal(n)
            psi /= np.linalg.norm(psi)
            # the imaginary-residue assertion lives inside expectation()
            value = expectation(a, psi)
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
