"""Tests for differentials, Hamiltonian fields and Poisson brackets."""

import numpy as np
import pytest

import symqm.brackets
from symqm import (
    DEFAULT_TOLERANCES,
    ComplexFunction,
    ObservableFunction,
    SymplecticSpace,
    bracket_commutator_report,
    commutator,
    complex_bracket,
    from_operator,
    hamiltonian_vector_field,
    integrate,
    IntegratorConfig,
    make_hermitian,
    parse_operator_expr,
    poisson_bracket,
    quadratic_form,
    symplectic_form,
    verify_axioms,
    verify_reconstruction,
)
from symqm.errors import DimensionMismatchError
from symqm.sampling import random_hermitian, random_unit_state

X = make_hermitian([[0, 1], [1, 0]])
Y = make_hermitian([[0, -1j], [1j, 0]])
Z = make_hermitian([[1, 0], [0, -1]])
IDENT = make_hermitian(np.eye(2))
SPACE = SymplecticSpace(2)


def _fd_directional(func, psi, y, h=1e-7):
    """Independent directional derivative, used as the oracle throughout."""
    return (func(psi + h * y) - func(psi - h * y)) / (2 * h)


def test_observable_function_kinds():
    f = ObservableFunction.expectation_of(Z, SPACE)
    assert f.operator is Z and f.func is None
    assert f([1, 0]) == 1.0
    g = ObservableFunction.from_callable(lambda v: float(np.vdot(v, v).real), SPACE)
    assert g.operator is None
    assert g([1, 0]) == 1.0
    with pytest.raises(ValueError):
        ObservableFunction(space=SPACE)


def test_complex_function_kinds():
    u = ComplexFunction.coordinate([1, 0], SPACE)
    assert u.vector is not None and u.func is None
    assert u([1j, 0]) == 1j
    v = ComplexFunction.from_callable(lambda a: complex(a[0] * a[1]), SPACE)
    assert v.vector is None


def test_coordinate_functional_real_linear():
    rng = np.random.default_rng(0)
    u = ComplexFunction.coordinate(random_unit_state(2, 1), SPACE)
    psi = rng.standard_normal(2) + 1j * rng.standard_normal(2)
    for t in (0.25, -3.0):
        assert abs(u(t * psi) - t * u(psi)) <= 1e-12 * (1 + abs(u(psi)))


def _differential(f, psi, y):
    """``df(y) = Omega(X_f, y)`` at ``psi``: the defining relation of the Hamiltonian field."""
    return symplectic_form(hamiltonian_vector_field(f, psi), np.asarray(y, dtype=complex), f.space)


def test_differential_examples():
    f_ident = ObservableFunction.expectation_of(IDENT, SPACE)
    psi = random_unit_state(2, 2)
    assert _differential(f_ident, psi, 1j * psi) == 0.0

    f_z = ObservableFunction.expectation_of(Z, SPACE)
    assert _differential(f_z, [1, 0], [0, 1]) == 0.0


def test_differential_analytic_vs_finite_difference():
    rng = np.random.default_rng(3)
    for trial in range(50):
        n = int(rng.integers(2, 6))
        space = SymplecticSpace(n)
        a = make_hermitian(random_hermitian(n, 100, index=trial))
        f = ObservableFunction.expectation_of(a, space)
        psi = random_unit_state(n, 101, index=trial)
        y = rng.standard_normal(n) + 1j * rng.standard_normal(n)
        oracle = _fd_directional(lambda p: np.vdot(p, a.matrix @ p).real, psi, y)
        assert abs(_differential(f, psi, y) - oracle) <= 1e-6 * (1 + np.linalg.norm(a.matrix, 2))
        # generic backend agrees with the analytic one
        g = ObservableFunction.from_callable(lambda v: np.vdot(v, a.matrix @ v).real, space)
        assert abs(_differential(f, psi, y) - _differential(g, psi, y)) <= 1e-6


def test_hamiltonian_vector_field_examples():
    f_z = ObservableFunction.expectation_of(Z, SPACE)
    np.testing.assert_allclose(np.asarray(hamiltonian_vector_field(f_z, [1, 0])), [-1j, 0])

    f_i = ObservableFunction.expectation_of(IDENT, SPACE)
    psi = random_unit_state(2, 4)
    np.testing.assert_allclose(np.asarray(hamiltonian_vector_field(f_i, psi)), -1j * psi)

    f_zero = ObservableFunction.expectation_of(make_hermitian(np.zeros((2, 2))), SPACE)
    np.testing.assert_array_equal(np.asarray(hamiltonian_vector_field(f_zero, psi)), [0, 0])


def test_hamiltonian_vector_field_generic_path():
    rng = np.random.default_rng(5)
    for trial in range(20):
        n = int(rng.integers(2, 5))
        space = SymplecticSpace(n, hbar=0.5 if trial % 2 else 1.0)
        a = make_hermitian(random_hermitian(n, 200, index=trial))
        psi = random_unit_state(n, 201, index=trial)
        analytic = -1j / space.hbar * (a.matrix @ psi)
        g = ObservableFunction.from_callable(lambda v: np.vdot(v, a.matrix @ v).real, space)
        numeric = np.asarray(hamiltonian_vector_field(g, psi))
        assert np.max(np.abs(numeric - analytic)) <= 1e-6 * (1 + np.linalg.norm(a.matrix, 2))


def test_poisson_bracket_examples():
    f = ObservableFunction.expectation_of(X, SPACE)
    g = ObservableFunction.expectation_of(Y, SPACE)
    psi = random_unit_state(2, 6)
    assert poisson_bracket(f, f, psi) == 0.0
    assert poisson_bracket(f, g, [1, 0]) == 2.0
    ident = ObservableFunction.expectation_of(IDENT, SPACE)
    assert abs(poisson_bracket(f, ident, psi)) <= 1e-15


def test_poisson_bracket_antisymmetry_and_backends():
    rng = np.random.default_rng(7)
    for trial in range(10):
        n = int(rng.integers(2, 5))
        space = SymplecticSpace(n)
        a = make_hermitian(random_hermitian(n, 300, index=trial))
        b = make_hermitian(random_hermitian(n, 301, index=trial))
        f = ObservableFunction.expectation_of(a, space)
        g = ObservableFunction.expectation_of(b, space)
        psi = random_unit_state(n, 302, index=trial)
        fg = poisson_bracket(f, g, psi)
        gf = poisson_bracket(g, f, psi)
        assert abs(fg + gf) <= 1e-12 * (1 + abs(fg))
        scale = 1 + np.linalg.norm(a.matrix, 2) * np.linalg.norm(b.matrix, 2)
        # Central differences of <A> are exact at any step; at 5 the step bound of
        # each FD gradient axis overflows in the axis's zero entries.
        for step in (1e-5, 5.0):
            numeric = poisson_bracket(f, g, psi, method="finite_difference", step=step)
            assert abs(fg - numeric) <= 1e-6 * scale
            num_anti = poisson_bracket(g, f, psi, method="finite_difference", step=step)
            assert abs(numeric + num_anti) <= 1e-6 * scale


def test_poisson_bracket_bilinear_over_operators():
    rng = np.random.default_rng(8)
    space = SymplecticSpace(3)
    a = make_hermitian(random_hermitian(3, 400))
    b = make_hermitian(random_hermitian(3, 401))
    c = make_hermitian(random_hermitian(3, 402))
    alpha, beta = rng.standard_normal(2)
    combo = make_hermitian(alpha * a.matrix + beta * b.matrix)
    psi = random_unit_state(3, 403)
    f_combo = ObservableFunction.expectation_of(combo, space)
    f_c = ObservableFunction.expectation_of(c, space)
    lhs = poisson_bracket(f_combo, f_c, psi)
    rhs = (alpha * poisson_bracket(ObservableFunction.expectation_of(a, space), f_c, psi)
           + beta * poisson_bracket(ObservableFunction.expectation_of(b, space), f_c, psi))
    assert abs(lhs - rhs) <= 1e-12 * (1 + abs(lhs))


def test_complex_bracket_eigencoordinate():
    # i*hbar*{<Z>, u} = a u with u the coordinate of the +1 eigenvector
    f = ObservableFunction.expectation_of(Z, SPACE)
    u = ComplexFunction.coordinate([1, 0], SPACE)
    psi = np.array([1, 1]) / np.sqrt(2)
    value = 1j * complex_bracket(f, u, psi)
    assert abs(value - (+1) * (1 / np.sqrt(2))) <= 1e-15


def test_complex_bracket_zero_and_identity():
    f = ObservableFunction.expectation_of(Z, SPACE)
    zero = ComplexFunction.coordinate([0, 0], SPACE)
    psi = random_unit_state(2, 9)
    assert complex_bracket(f, zero, psi) == 0

    # the identity operator generates a global phase: i*hbar*{<I>, u} = u
    ident = ObservableFunction.expectation_of(IDENT, SPACE)
    u = ComplexFunction.coordinate(random_unit_state(2, 10), SPACE)
    value = 1j * complex_bracket(ident, u, psi)
    assert abs(value - u(psi)) <= 1e-15
    fd = 1j * complex_bracket(ident, u, psi, method="finite_difference", step=1e-5)
    assert abs(fd - u(psi)) <= 1e-6


def test_complex_bracket_backends_agree():
    rng = np.random.default_rng(11)
    for trial in range(10):
        n = int(rng.integers(2, 5))
        space = SymplecticSpace(n)
        a = make_hermitian(random_hermitian(n, 500, index=trial))
        f = ObservableFunction.expectation_of(a, space)
        u = ComplexFunction.coordinate(random_unit_state(n, 501, index=trial), space)
        psi = random_unit_state(n, 502, index=trial)
        analytic = complex_bracket(f, u, psi)
        for step in (1e-5, 5.0):
            numeric = complex_bracket(f, u, psi, method="finite_difference", step=step)
            assert abs(analytic - numeric) <= 1e-6 * (1 + np.linalg.norm(a.matrix, 2))


@pytest.mark.parametrize("method", ["fd", "finite-difference", "analytic"])
def test_bracket_method_accepts_only_auto_and_finite_difference(method):
    f = ObservableFunction.expectation_of(X, SPACE)
    g = ObservableFunction.expectation_of(Y, SPACE)
    u = ComplexFunction.coordinate([1, 0], SPACE)
    psi = random_unit_state(2, 3)
    with pytest.raises(ValueError, match="method"):
        poisson_bracket(f, g, psi, method=method)
    with pytest.raises(ValueError, match="method"):
        complex_bracket(f, u, psi, method=method)
    with pytest.raises(ValueError, match="method"):
        verify_axioms(from_operator(Z, SPACE), 5, 0, method=method)


@pytest.mark.parametrize("n", (2, 5))
def test_complex_bracket_of_a_generic_function_matches_the_closed_form(n):
    # <A> has a closed form and u does not, so "auto" takes the FD kernel.
    space = SymplecticSpace(n, hbar=0.7)
    a = make_hermitian(random_hermitian(n, 510 + n))
    f = ObservableFunction.expectation_of(a, space)
    phi = random_unit_state(n, 511, n)
    coordinate = ComplexFunction.coordinate(phi, space)
    generic = ComplexFunction.from_callable(lambda v: np.vdot(phi, v), space)
    for i in range(5):
        psi = random_unit_state(n, 512, i)
        closed = complex_bracket(f, coordinate, psi)
        assert abs(complex_bracket(f, generic, psi) - closed) <= 1e-6 * (1 + np.linalg.norm(a.matrix, 2))


def test_bracket_commutator_report_same_operator():
    rep = bracket_commutator_report(X, X, SPACE, 10, seed=0)
    assert rep.analytic_max == 0.0


def test_bracket_commutator_report_pauli_pair():
    rep = bracket_commutator_report(X, Y, SPACE, 100, seed=0)
    assert rep.analytic_max <= 1e-12
    assert rep.finite_difference_max <= 1e-5


def test_bracket_commutator_report_random_8x8():
    space = SymplecticSpace(8)
    a = make_hermitian(random_hermitian(8, 600))
    b = make_hermitian(random_hermitian(8, 601))
    rep = bracket_commutator_report(a, b, space, 20, seed=1)
    assert rep.finite_difference_max <= 1e-5 * rep.scale
    assert rep.analytic_max <= 1e-12 * rep.scale


def test_bracket_commutator_report_deterministic():
    rep1 = bracket_commutator_report(X, Z, SPACE, 25, seed=7)
    rep2 = bracket_commutator_report(X, Z, SPACE, 25, seed=7)
    assert rep1 == rep2


def test_bracket_identity_pointwise():
    # i*hbar*{<A>,<B>}(psi) equals <psi|[A,B]|psi> for each sampled state
    space = SymplecticSpace(4, hbar=0.7)
    a = make_hermitian(random_hermitian(4, 700))
    b = make_hermitian(random_hermitian(4, 701))
    f = ObservableFunction.expectation_of(a, space)
    g = ObservableFunction.expectation_of(b, space)
    comm = commutator(a, b)
    for i in range(20):
        psi = random_unit_state(4, 702, index=i)
        lhs = 1j * space.hbar * poisson_bracket(f, g, psi)
        rhs = quadratic_form(comm, psi)
        assert abs(lhs - rhs) <= 1e-12 * (1 + abs(rhs))


def test_dimension_mismatch_raises():
    f = ObservableFunction.expectation_of(Z, SPACE)
    with pytest.raises(DimensionMismatchError):
        hamiltonian_vector_field(f, [1, 0, 0])
    g3 = ObservableFunction.expectation_of(make_hermitian(np.eye(3)), SymplecticSpace(3))
    with pytest.raises(DimensionMismatchError):
        poisson_bracket(f, g3, [1, 0])


@pytest.mark.parametrize("step", [0, 0.0, -1e-5, np.nan, np.inf, -np.inf])
def test_invalid_fd_step_raises(step):
    f = ObservableFunction.expectation_of(X, SPACE)
    g = ObservableFunction.expectation_of(Y, SPACE)
    u = ComplexFunction.coordinate([1, 0], SPACE)
    psi = random_unit_state(2, 5, 0)
    with pytest.raises(ValueError, match="step"):
        poisson_bracket(f, g, psi, method="finite_difference", step=step)
    with pytest.raises(ValueError, match="step"):
        complex_bracket(f, u, psi, method="finite_difference", step=step)


@pytest.mark.parametrize("step", [5.0, 1e3])
def test_zero_field_differences_to_zero_at_a_large_step(step):
    # X_g of a constant g is 0 in every entry; its step bound step / tiny
    # overflowed to inf from a step of about 4 on, and inf * 0 made the
    # shifted points NaN.
    f = ObservableFunction.expectation_of(X, SPACE)
    g = ObservableFunction.from_callable(lambda v: 1.0, SPACE)
    u = ComplexFunction.coordinate([1, 0], SPACE)
    assert poisson_bracket(f, g, [1, 0], method="finite_difference", step=step) == 0.0
    assert complex_bracket(g, u, [1, 0], method="finite_difference", step=step) == 0.0


# Planted defects in the closed-form field X_<B> = -(i/hbar) B psi that the FD
# sides of the bracket and reconstruction reports difference along: a field
# scaled by 1 + 1e-3, and, for a complex B, one built from B^T.  Each must
# fail both the field check and the FD residual under default tolerances.
_COMPLEX_B = make_hermitian(parse_operator_expr("Y0*I1 + 0.3*Z1").to_matrix(num_qubits=2))


def _planted_fields():
    closed = symqm.brackets._closed_form_field
    return {
        "scaled": lambda f, states: (1.0 + 1e-3) * closed(f, states),
        "transposed": lambda f, states: -1j / f.space.hbar * (states @ f.operator.matrix),
    }


@pytest.mark.parametrize("defect", ["clean", "scaled", "transposed"])
def test_bracket_report_fails_a_planted_field(monkeypatch, defect):
    space = SymplecticSpace(4, hbar=0.7)
    a = make_hermitian(random_hermitian(4, 610))
    if defect != "clean":
        monkeypatch.setattr(symqm.brackets, "_closed_form_field", _planted_fields()[defect])
    rep = bracket_commutator_report(a, _COMPLEX_B, space, 20, seed=3)
    tol = DEFAULT_TOLERANCES["bracket_finite_difference"] * rep.scale
    assert rep.analytic_max <= 1e-12 * rep.scale
    assert (rep.field_check_max > tol) is (defect != "clean"), rep.field_check_max
    assert (rep.finite_difference_max > tol) is (defect != "clean"), rep.finite_difference_max


@pytest.mark.parametrize("defect", ["clean", "scaled", "transposed"])
def test_reconstruction_fails_a_planted_field(monkeypatch, defect):
    space = SymplecticSpace(4, hbar=2.0)
    qf = from_operator(_COMPLEX_B, space)
    traj = integrate(qf.f, random_unit_state(4, 620, 0), IntegratorConfig("exact", 1e-2, 20))
    if defect != "clean":
        monkeypatch.setattr(symqm.brackets, "_closed_form_field", _planted_fields()[defect])
    rec = verify_reconstruction(qf, traj, samples=20, seed=3)
    tol = DEFAULT_TOLERANCES["reconstruction_finite_difference"]
    assert (rec.field_check_residual > tol) is (defect != "clean"), rec.field_check_residual
    assert (rec.flow_equation_residual_fd > tol) is (defect != "clean"), rec.flow_equation_residual_fd


def test_bracket_report_evaluates_a_fixed_number_of_states_per_sample(monkeypatch):
    rows = []
    counted = symqm.brackets.expectations
    monkeypatch.setattr(symqm.brackets, "expectations",
                        lambda a, states: rows.append(len(states)) or counted(a, states))
    per_sample = {}
    for n in (2, 4, 8):
        a, b = (make_hermitian(random_hermitian(n, 630 + k)) for k in range(2))
        rows.clear()
        bracket_commutator_report(a, b, SymplecticSpace(n), 5, seed=1)
        per_sample[n] = sum(rows) / 5
    # Two states along X_<B>, and two along each of the 4 directions of its
    # check, whatever n is; a full FD gradient would take 4n.
    assert per_sample == {2: 10, 4: 10, 8: 10}
