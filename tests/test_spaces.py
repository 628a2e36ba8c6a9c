"""Tests for the real symplectic view of the Hilbert space."""

import numpy as np
import pytest

from symqm import (
    SymplecticSpace,
    from_real_coords,
    hermitian_inner,
    symplectic_form,
    to_real_coords,
)
from symqm.errors import DimensionMismatchError


def test_space_validation():
    sp = SymplecticSpace(3, hbar=0.5)
    assert sp.real_dim == 6
    with pytest.raises(ValueError):
        SymplecticSpace(0)
    with pytest.raises(ValueError):
        SymplecticSpace(2, hbar=-1.0)


def test_canonical_form_matrix_full_rank():
    for n in (1, 2, 5):
        j = SymplecticSpace(n).canonical_form_matrix()
        assert np.linalg.matrix_rank(j) == 2 * n
        np.testing.assert_allclose(j, -j.T)


def test_to_real_coords_examples():
    sp = SymplecticSpace(2, hbar=1.0)
    np.testing.assert_array_equal(
        to_real_coords([1, 0], sp), [np.sqrt(2), 0.0, 0.0, 0.0]
    )
    np.testing.assert_array_equal(to_real_coords([0, 0], sp), np.zeros(4))
    # hand evaluation of sqrt(2*hbar)*Im at hbar = 0.5
    sp_half = SymplecticSpace(2, hbar=0.5)
    np.testing.assert_array_equal(to_real_coords([1j, 0], sp_half), [0, 0, 1, 0])


def test_from_real_coords_examples():
    sp = SymplecticSpace(2)
    np.testing.assert_array_equal(
        from_real_coords([np.sqrt(2), 0, 0, 0], sp), [1, 0]
    )
    np.testing.assert_array_equal(from_real_coords(np.zeros(4), sp), [0, 0])


def test_from_real_coords_maps_each_row_of_a_stack():
    sp = SymplecticSpace(3, hbar=0.7)
    rows = np.random.default_rng(44).standard_normal((5, 6))
    stacked = from_real_coords(rows, sp)
    assert stacked.shape == (5, 3)
    for x, psi in zip(rows, stacked):
        np.testing.assert_array_equal(psi, from_real_coords(x, sp))
    with pytest.raises(DimensionMismatchError):
        from_real_coords(rows[:, :5], sp)
    with pytest.raises(DimensionMismatchError):
        from_real_coords(rows[None], sp)


@pytest.mark.parametrize("hbar", [0.5, 2.0])
def test_round_trip_bit_exact_power_of_two_scale(hbar):
    # sqrt(2*hbar) is a power of two here, so both scalings are exact.
    rng = np.random.default_rng(42)
    sp = SymplecticSpace(5, hbar=hbar)
    for _ in range(100):
        psi = rng.standard_normal(5) + 1j * rng.standard_normal(5)
        np.testing.assert_array_equal(from_real_coords(to_real_coords(psi, sp), sp), psi)
        x = rng.standard_normal(10)
        np.testing.assert_array_equal(to_real_coords(from_real_coords(x, sp), sp), x)


def test_round_trip_one_ulp_generic_scale():
    # For generic hbar the scale is irrational and a correctly rounded
    # multiply/divide pair can disagree by one ulp per component.
    rng = np.random.default_rng(43)
    sp = SymplecticSpace(4, hbar=1.0)
    for _ in range(100):
        psi = rng.standard_normal(4) + 1j * rng.standard_normal(4)
        back = from_real_coords(to_real_coords(psi, sp), sp)
        for a, b in zip(psi, back):
            assert abs(a.real - b.real) <= np.spacing(abs(a.real))
            assert abs(a.imag - b.imag) <= np.spacing(abs(a.imag))


def test_coord_maps_reject_bad_dimensions():
    sp = SymplecticSpace(2)
    with pytest.raises(DimensionMismatchError):
        to_real_coords([1, 0, 0], sp)
    with pytest.raises(DimensionMismatchError):
        from_real_coords([1, 0, 0], sp)


def test_hermitian_inner_examples():
    assert hermitian_inner([1, 0], [1, 0]) == 1
    assert hermitian_inner([1, 0], [1j, 0]) == 1j
    assert hermitian_inner([1j, 0], [1, 0]) == -1j
    with pytest.raises(DimensionMismatchError):
        hermitian_inner([1, 0], [1, 0, 0])


def test_hermitian_inner_over_rows():
    rng = np.random.default_rng(2)
    v = rng.standard_normal((5, 3)) + 1j * rng.standard_normal((5, 3))
    w = rng.standard_normal((5, 3)) + 1j * rng.standard_normal((5, 3))
    rows = hermitian_inner(v, w)
    assert rows.shape == (5,)
    for k in range(5):
        bound = 1e-15 * np.linalg.norm(v[k]) * np.linalg.norm(w[k])
        assert abs(rows[k] - hermitian_inner(v[k], w[k])) <= bound
        assert abs(rows[k] - np.vdot(v[k], w[k])) <= bound
    for a, b in ((v, w[:4]), (v, w[:, :2]), (v[0], w), (v[None], w[None])):
        with pytest.raises(DimensionMismatchError):
            hermitian_inner(a, b)


def test_symplectic_form_over_rows():
    sp = SymplecticSpace(3, hbar=0.7)
    rng = np.random.default_rng(3)
    v = rng.standard_normal((4, 3)) + 1j * rng.standard_normal((4, 3))
    w = rng.standard_normal((4, 3)) + 1j * rng.standard_normal((4, 3))
    rows = symplectic_form(v, w, sp)
    assert rows.shape == (4,)
    single = [symplectic_form(v[k], w[k], sp) for k in range(4)]
    np.testing.assert_allclose(rows, single, rtol=0, atol=1e-14)
    np.testing.assert_allclose(rows, -symplectic_form(w, v, sp), rtol=0, atol=1e-14)
    with pytest.raises(DimensionMismatchError):
        symplectic_form(v[:, :2], w[:, :2], sp)


def test_symplectic_form_examples():
    sp = SymplecticSpace(2)
    rng = np.random.default_rng(0)
    v = rng.standard_normal(2) + 1j * rng.standard_normal(2)
    assert symplectic_form(v, v, sp) == 0.0
    assert symplectic_form([1, 0], [1j, 0], sp) == 2.0
    # parallel real multiples of a real vector pair to zero
    assert symplectic_form([1.0, 0], [3.5, 0], sp) == 0.0


def test_symplectic_form_bilinear_antisymmetric():
    rng = np.random.default_rng(1)
    sp = SymplecticSpace(4, hbar=0.7)
    for _ in range(20):
        v = rng.standard_normal(4) + 1j * rng.standard_normal(4)
        w = rng.standard_normal(4) + 1j * rng.standard_normal(4)
        alpha, beta = rng.standard_normal(2)
        lhs = symplectic_form(v, alpha * v + beta * w, sp)
        rhs = alpha * symplectic_form(v, v, sp) + beta * symplectic_form(v, w, sp)
        assert abs(lhs - rhs) <= 1e-12 * (1 + abs(lhs))
        assert abs(symplectic_form(v, w, sp) + symplectic_form(w, v, sp)) <= 1e-12


def test_symplectic_form_matches_canonical_real_form():
    rng = np.random.default_rng(2)
    for hbar in (1.0, 0.3, 2.0):
        sp = SymplecticSpace(3, hbar=hbar)
        j = sp.canonical_form_matrix()
        for _ in range(20):
            v = rng.standard_normal(3) + 1j * rng.standard_normal(3)
            w = rng.standard_normal(3) + 1j * rng.standard_normal(3)
            omega = symplectic_form(v, w, sp)
            canonical = to_real_coords(v, sp) @ j @ to_real_coords(w, sp)
            assert abs(omega - canonical) <= 1e-12 * (1 + abs(omega))


def test_bootstrap_sign_invariant():
    # -(i/hbar) A psi must satisfy Omega(X, Y) = d<A>(Y), with the
    # differential measured by independent central finite differences.
    rng = np.random.default_rng(3)
    for n in (2, 3, 5):
        sp = SymplecticSpace(n)
        for _ in range(20):
            m = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
            a = (m + m.conj().T) / 2
            psi = rng.standard_normal(n) + 1j * rng.standard_normal(n)
            psi /= np.linalg.norm(psi)
            x_field = -1j / sp.hbar * (a @ psi)
            scale = 1.0 + np.linalg.norm(a, 2)
            for _ in range(20):
                y = rng.standard_normal(n) + 1j * rng.standard_normal(n)
                h = 1e-6
                expect = lambda p: np.vdot(p, a @ p).real
                d_fd = (expect(psi + h * y) - expect(psi - h * y)) / (2 * h)
                assert abs(symplectic_form(x_field, y, sp) - d_fd) <= 1e-6 * scale


def test_tangent_vector_round_trip():
    sp = SymplecticSpace(3, hbar=0.5)
    vec = np.array([1j, 0.25, -2])
    x = to_real_coords(vec, sp)
    np.testing.assert_array_equal(from_real_coords(x, sp), vec)


@pytest.mark.parametrize("hbar", [np.inf, np.nan, -np.inf])
def test_space_rejects_non_finite_hbar(hbar):
    with pytest.raises(ValueError, match="hbar"):
        SymplecticSpace(2, hbar=hbar)
