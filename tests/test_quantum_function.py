"""Tests for quantum functions, axiom verification and reconstruction."""

import dataclasses

import numpy as np
import pytest

from symqm import (
    ComplexFunction,
    IntegratorConfig,
    ObservableFunction,
    StatePoint,
    SymplecticSpace,
    evaluate,
    expectation,
    from_operator,
    integrate,
    make_hermitian,
    qfe_residual,
    quantum_function_from_qfe,
    reconstruction_map,
    spectral_decompose,
    verify_axioms,
    verify_reconstruction,
)
from symqm.errors import NormalizationError, PreconditionFailedError
from symqm.quantum_function import AxiomTolerances
from symqm.sampling import random_hermitian, random_unit_state

Z = make_hermitian([[1, 0], [0, -1]])
SPACE = SymplecticSpace(2)
UNIFORM = np.array([1, 1]) / np.sqrt(2)


def test_from_operator_pauli_z():
    qf = from_operator(Z, SPACE)
    np.testing.assert_allclose(qf.eigenvalues, [-1.0, 1.0])
    # gauge: the -1 eigenvector is e_1, the +1 eigenvector e_0
    np.testing.assert_array_equal(qf.stationary_states[0].amplitudes, [0, 1])
    np.testing.assert_array_equal(qf.stationary_states[1].amplitudes, [1, 0])
    psi = random_unit_state(2, 0)
    assert qf.eigenfunctions[0](psi) == psi[1]
    assert qf.eigenfunctions[1](psi) == psi[0]
    assert not qf.degenerate_flag


def test_from_operator_identity_degenerate():
    qf = from_operator(make_hermitian(np.eye(2)), SPACE)
    assert qf.degenerate_flag
    for _ in range(5):
        psi = random_unit_state(2, 1)
        assert abs(evaluate(qf, psi) - 1.0) <= 1e-12


def test_stationary_states_are_kronecker_delta():
    qf = from_operator(Z, SPACE)
    for m, xi in enumerate(qf.stationary_states):
        coords = qf.quantum_coordinates(xi)
        target = np.zeros(2)
        target[m] = 1
        np.testing.assert_allclose(coords, target, atol=1e-15)


def test_evaluate_examples():
    qf = from_operator(Z, SPACE)
    # e_0 is the +1 stationary state under the gauge
    assert abs(evaluate(qf, [1, 0]) - 1.0) <= 1e-15
    assert abs(evaluate(qf, UNIFORM)) <= 1e-15


def test_evaluate_matches_expectation():
    rng = np.random.default_rng(2)
    for n in (2, 3, 5):
        space = SymplecticSpace(n)
        a = make_hermitian(random_hermitian(n, 40, index=n))
        qf = from_operator(a, space)
        for i in range(100):
            psi = random_unit_state(n, 41, index=i)
            assert abs(evaluate(qf, psi) - expectation(a, psi)) <= 1e-12


def test_evaluate_rejects_non_normalized():
    qf = from_operator(Z, SPACE)
    with pytest.raises(NormalizationError):
        evaluate(qf, [1, 1])


def test_verify_axioms_from_operator():
    for n in (2, 3, 8):
        space = SymplecticSpace(n)
        a = make_hermitian(random_hermitian(n, 50, index=n))
        report = verify_axioms(from_operator(a, space), 100, seed=7)
        assert report.method == "analytic"
        assert report.passed, report.as_dict()
        for value in report.as_dict()["residuals"].values():
            assert value <= 1e-10


def test_verify_axioms_tampered_eigenvalue():
    qf = from_operator(Z, SPACE)
    tampered = dataclasses.replace(
        qf, eigenvalues=np.array([qf.eigenvalues[0] + 1.0, qf.eigenvalues[1]])
    )
    report = verify_axioms(tampered, 100, seed=3)
    assert report.bracket >= 0.4
    assert not report.passed


def test_verify_axioms_non_orthonormal_eigenfunctions():
    qf = from_operator(Z, SPACE)
    skewed = ComplexFunction.coordinate(np.array([0.6, 0.9]), SPACE)
    broken = dataclasses.replace(
        qf,
        eigenfunctions=(qf.eigenfunctions[0], skewed),
        coords_fn=None,
    )
    report = verify_axioms(broken, 100, seed=4)
    assert report.normalization > 1e-3
    assert not report.passed


def test_verify_axioms_nan_fails():
    # f is NaN on part of the phase space; the stationary state e_0 lies in it
    def f(v):
        return np.nan if abs(v[0]) > 0.5 else expectation(Z, v)

    qf = dataclasses.replace(from_operator(Z, SPACE),
                             f=ObservableFunction.from_callable(f, SPACE))
    report = verify_axioms(qf, 30, seed=2)
    assert report.method == "finite_difference"
    assert np.isnan(report.stationary_value)
    assert not report.passed


def test_axiom_tolerances_scaling():
    tol = AxiomTolerances().scaled(10.0)
    assert tol.bracket == pytest.approx(1e-9)
    report = verify_axioms(from_operator(Z, SPACE), 10, seed=0,
                           tol=AxiomTolerances().scaled(1e-12))
    # unreachable tolerance: decomposition residual ~1e-16 > 1e-22
    assert not report.passed


def test_reconstruction_map_basics():
    qf = from_operator(Z, SPACE)
    phi = reconstruction_map(qf)
    np.testing.assert_allclose(phi(qf.stationary_states[0]), [1, 0], atol=1e-15)
    np.testing.assert_allclose(phi(qf.stationary_states[1]), [0, 1], atol=1e-15)
    np.testing.assert_allclose(
        phi.recovered_operator.matrix, np.diag(qf.eigenvalues)
    )
    for i in range(20):
        psi = random_unit_state(2, 60, index=i)
        image = phi(psi)
        assert abs(np.linalg.norm(image) - 1) <= 1e-12
        recovered = np.vdot(image, phi.recovered_operator.matrix @ image).real
        assert abs(recovered - evaluate(qf, psi)) <= 1e-12


def test_recovered_operator_eigenvalues_match():
    a = make_hermitian(random_hermitian(5, 70))
    qf = from_operator(a, SymplecticSpace(5))
    recovered = reconstruction_map(qf).recovered_operator
    original = spectral_decompose(a).eigenvalues
    recovered_vals = spectral_decompose(recovered).eigenvalues
    np.testing.assert_allclose(recovered_vals, original, atol=1e-10)


def test_verify_reconstruction_on_midpoint_trajectory():
    qf = from_operator(Z, SPACE)
    traj = integrate(qf.f, UNIFORM, IntegratorConfig("midpoint", 1e-3, 1000))
    report = verify_reconstruction(qf, traj, samples=100, seed=1)
    assert report.intertwining_residual <= 1e-5
    assert report.flow_equation_residual_analytic <= 1e-10
    assert report.flow_equation_residual_fd <= 1e-5
    assert report.value_residual <= 1e-12
    assert report.norm_residual <= 1e-12
    assert report.stationary_residual <= 1e-12


def test_verify_reconstruction_at_time_zero():
    qf = from_operator(Z, SPACE)
    traj = integrate(qf.f, UNIFORM, IntegratorConfig("exact", 1e-3, 1))
    report = verify_reconstruction(qf, traj, samples=10, seed=2)
    assert report.intertwining_residual <= 1e-12


def test_qfe_residual_identity_embedding():
    residual = qfe_residual(Z, lambda v: np.asarray(v, dtype=complex), SPACE,
                            samples=50, seed=5)
    assert residual <= 1e-5


def test_qfe_residual_reconstruction_map():
    a = make_hermitian(random_hermitian(3, 80, norm_bound=2.0))
    space = SymplecticSpace(3)
    qf = from_operator(a, space)
    residual = qfe_residual(a, reconstruction_map(qf), space, samples=50, seed=6)
    assert residual <= 1e-5


def test_qfe_residual_constant_map_negative_control():
    constant = np.array([1, 0], dtype=complex)
    residual = qfe_residual(Z, lambda v: constant, SPACE, samples=20, seed=7)
    # the bracket side vanishes, leaving max |(A phi0)_j| = 1
    assert abs(residual - 1.0) <= 1e-9
    assert residual >= 0.1


def test_qfe_residual_rejects_non_unit_map():
    with pytest.raises(NormalizationError):
        qfe_residual(Z, lambda v: 2.0 * np.asarray(v, dtype=complex), SPACE,
                     samples=5, seed=8)


def test_qfe_residual_rejects_dimension_mismatch():
    from symqm.errors import DimensionMismatchError
    with pytest.raises(DimensionMismatchError):
        qfe_residual(Z, lambda v: np.array([1.0, 0, 0]), SPACE, samples=3, seed=9)


def test_quantum_function_from_qfe_identity():
    qf_ref = from_operator(Z, SPACE)
    qf = quantum_function_from_qfe(
        Z, lambda v: np.asarray(v, dtype=complex),
        list(qf_ref.stationary_states), SPACE, samples=30, seed=10,
    )
    np.testing.assert_allclose(qf.eigenvalues, qf_ref.eigenvalues)
    for i in range(20):
        psi = random_unit_state(2, 90, index=i)
        np.testing.assert_allclose(
            qf.quantum_coordinates(psi), qf_ref.quantum_coordinates(psi), atol=1e-12
        )
    report = verify_axioms(qf, 30, seed=11)
    assert report.method == "finite_difference"
    assert report.passed, report.as_dict()


def test_quantum_function_from_qfe_normalization_failure():
    qf_ref = from_operator(Z, SPACE)
    with pytest.raises(PreconditionFailedError) as err:
        quantum_function_from_qfe(
            Z, lambda v: 1.5 * np.asarray(v, dtype=complex),
            list(qf_ref.stationary_states), SPACE, samples=10, seed=12,
        )
    assert err.value.hypothesis == "normalization"


def test_quantum_function_from_qfe_permuted_stationary_states():
    qf_ref = from_operator(Z, SPACE)
    swapped = [qf_ref.stationary_states[1], qf_ref.stationary_states[0]]
    with pytest.raises(PreconditionFailedError) as err:
        quantum_function_from_qfe(
            Z, lambda v: np.asarray(v, dtype=complex), swapped, SPACE,
            samples=10, seed=13,
        )
    assert err.value.hypothesis == "stationary-state match"


def test_quantum_function_from_qfe_nan_fails():
    # NaN at one stationary state: the builtin max would drop it and pass.
    qf_ref = from_operator(Z, SPACE)

    def phi(v):
        v = np.asarray(v, dtype=complex)
        return np.full(2, np.nan, dtype=complex) if np.array_equal(v, [1, 0]) else v

    with pytest.raises(PreconditionFailedError) as err:
        quantum_function_from_qfe(Z, phi, list(qf_ref.stationary_states), SPACE,
                                  samples=10, seed=15)
    assert err.value.hypothesis == "stationary-state match"
    assert np.isnan(err.value.residual)


def test_quantum_function_from_qfe_equation_failure():
    # a unitary but flow-incompatible map: conjugation is antiunitary on
    # coordinates, so the bracket side picks up the wrong sign
    qf_ref = from_operator(Z, SPACE)
    conj_states = [StatePoint(np.conj(s.amplitudes)) for s in qf_ref.stationary_states]
    with pytest.raises(PreconditionFailedError) as err:
        quantum_function_from_qfe(
            Z, lambda v: np.conj(np.asarray(v, dtype=complex)), conj_states,
            SPACE, samples=10, seed=14,
        )
    assert err.value.hypothesis == "quantum-function equation"


def test_schroedinger_intertwining():
    # Phi of the Hamilton flow equals the spectral flow of the recovered
    # operator applied to Phi of the initial state
    a = make_hermitian(random_hermitian(4, 95, norm_bound=1.0))
    space = SymplecticSpace(4)
    qf = from_operator(a, space)
    phi = reconstruction_map(qf)
    psi0 = random_unit_state(4, 96)
    traj = integrate(qf.f, psi0, IntegratorConfig("midpoint", 1e-3, 1000))
    image0 = phi(psi0)
    evolved = np.exp(-1j * qf.eigenvalues * 1.0) * image0
    assert np.linalg.norm(phi(traj.states[-1]) - evolved) <= 1e-5
