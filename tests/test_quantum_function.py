"""Tests for quantum functions, axiom verification and reconstruction."""

import dataclasses
import json
import tracemalloc

import numpy as np
import pytest

import symqm.operators
from symqm import (
    IntegratorConfig,
    ObservableFunction,
    RowwiseMap,
    SymplecticSpace,
    bracket_commutator_report,
    from_operator,
    integrate,
    make_hermitian,
    parse_operator_expr,
    qfe_residual,
    quantum_function_from_qfe,
    reconstruction_map,
    verify_axioms,
    verify_reconstruction,
)
from symqm.brackets import BRACKET_REPORT_STEP, _fd_fields
from symqm.cli import main
from symqm.errors import NormalizationError, PreconditionFailedError, ScenarioError
from symqm.operators import HermitianOperator, expectations
from symqm.quantum_function import AxiomTolerances
from symqm.sampling import random_hermitian, random_unit_state, random_unit_states

Z = make_hermitian([[1, 0], [0, -1]])
SPACE = SymplecticSpace(2)
UNIFORM = np.array([1, 1]) / np.sqrt(2)


def _value(qf, psi):
    """The defining sum ``sum_n a_n |u_n(psi)|^2``, ``u_n(psi) = <phi_n|psi>`` for the columns of V."""
    return float(np.sum(qf.eigenvalues * np.abs(qf.coordinates.conj().T @ psi) ** 2))


def test_from_operator_pauli_z():
    qf = from_operator(Z, SPACE)
    np.testing.assert_allclose(qf.eigenvalues, [-1.0, 1.0])
    # gauge: the -1 eigenvector is e_1, the +1 eigenvector e_0
    np.testing.assert_array_equal(qf.stationary_states[0], [0, 1])
    np.testing.assert_array_equal(qf.stationary_states[1], [1, 0])
    psi = random_unit_state(2, 0)
    assert qf.eigenfunctions[0](psi) == psi[1]
    assert qf.eigenfunctions[1](psi) == psi[0]
    assert not qf.degenerate_flag


def test_from_operator_identity_degenerate():
    qf = from_operator(make_hermitian(np.eye(2)), SPACE)
    assert qf.degenerate_flag
    for _ in range(5):
        psi = random_unit_state(2, 1)
        assert abs(_value(qf, psi) - 1.0) <= 1e-12


def test_stationary_states_are_kronecker_delta():
    qf = from_operator(Z, SPACE)
    for m, xi in enumerate(qf.stationary_states):
        coords = qf.coordinates.conj().T @ xi
        target = np.zeros(2)
        target[m] = 1
        np.testing.assert_allclose(coords, target, atol=1e-15)


def test_evaluate_examples():
    qf = from_operator(Z, SPACE)
    # e_0 is the +1 stationary state under the gauge
    assert abs(_value(qf, np.array([1, 0])) - 1.0) <= 1e-15
    assert abs(_value(qf, UNIFORM)) <= 1e-15


def test_evaluate_matches_expectation():
    rng = np.random.default_rng(2)
    for n in (2, 3, 5):
        space = SymplecticSpace(n)
        a = make_hermitian(random_hermitian(n, 40, index=n))
        qf = from_operator(a, space)
        for i in range(100):
            psi = random_unit_state(n, 41, index=i)
            assert abs(_value(qf, psi) - np.vdot(psi, a.matrix @ psi).real) <= 1e-12


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
    skewed = np.array([0.6, 0.9])
    broken = dataclasses.replace(qf, coordinates=np.column_stack([qf.coordinates[:, 0], skewed]))
    report = verify_axioms(broken, 100, seed=4)
    assert report.normalization > 1e-3
    assert not report.passed


def test_verify_axioms_nan_fails():
    # f is NaN on part of the phase space; the stationary state e_0 lies in it
    def f(v):
        return np.nan if abs(v[0]) > 0.5 else np.vdot(v, Z.matrix @ v).real

    qf = dataclasses.replace(from_operator(Z, SPACE),
                             f=ObservableFunction.from_callable(f, SPACE))
    report = verify_axioms(qf, 30, seed=2)
    assert report.method == "finite_difference"
    assert np.isnan(report.stationary_value)
    assert not report.passed


def test_axiom_tolerances_scaling():
    report = verify_axioms(from_operator(Z, SPACE), 10, seed=0,
                           tol=AxiomTolerances(*[1e-22] * 5))
    # unreachable tolerance: decomposition residual ~1e-16 > 1e-22
    assert not report.passed


def test_reconstruction_map_basics():
    qf = from_operator(Z, SPACE)
    phi = reconstruction_map(qf)
    np.testing.assert_allclose(phi(qf.stationary_states[0]), [1, 0], atol=1e-15)
    np.testing.assert_allclose(phi(qf.stationary_states[1]), [0, 1], atol=1e-15)
    for i in range(20):
        psi = random_unit_state(2, 60, index=i)
        image = phi(psi)
        assert abs(np.linalg.norm(image) - 1) <= 1e-12
        # <A> at psi, read in the image through the diagonal operator of the eigenvalues
        recovered = np.vdot(image, np.diag(qf.eigenvalues) @ image).real
        assert abs(recovered - np.vdot(psi, Z.matrix @ psi).real) <= 1e-12


def test_reconstruct_builds_no_recovered_operator(monkeypatch, tmp_path):
    # No check of reconstruct reads a recovered diagonal operator, so the
    # scenario's operator is the only one that it builds.
    labels = []
    validate = HermitianOperator.__post_init__
    monkeypatch.setattr(HermitianOperator, "__post_init__",
                        lambda self: labels.append(self.label) or validate(self))
    scenario = tmp_path / "scenario.json"
    scenario.write_text(json.dumps({"operator": "0.5*X0*X1 + 0.3*Z0", "samples": 10}))
    assert main(["reconstruct", "--scenario", str(scenario), "--out", str(tmp_path / "out"),
                 "--quiet"]) == 0
    assert labels == ["0.5*X0*X1 + 0.3*Z0"]


def test_recovered_operator_eigenvalues_match():
    a = make_hermitian(random_hermitian(5, 70))
    qf = from_operator(a, SymplecticSpace(5))
    np.testing.assert_allclose(qf.eigenvalues, np.linalg.eigvalsh(a.matrix), atol=1e-10)


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


def _antilinear(weight):
    """``psi + weight * conj(psi)``, normalized row by row: unit, but not a quantum-function map."""
    def rows(states):
        mixed = states + weight * states.conj()
        return mixed / np.linalg.norm(mixed, axis=1, keepdims=True)
    return RowwiseMap(rows)


def _qfe_maps(a, space):
    return {"reconstruction": reconstruction_map(from_operator(a, space)),
            "identity": RowwiseMap(lambda rows: rows), "antilinear": _antilinear(1e-3)}


@pytest.mark.parametrize("n", (2, 5, 16))
@pytest.mark.parametrize("hbar", (1.0, 0.7))
def test_qfe_gradient_differences_phi_alone(n, hbar):
    space = SymplecticSpace(n, hbar=hbar)
    a = make_hermitian(random_hermitian(n, 150 + n))
    states = random_unit_states(n, 151, 10)
    maps = _qfe_maps(a, space)
    for name, phi in maps.items():
        # The central difference of the quadratic <Phi|A|Phi> itself, against the
        # differences of Phi alone, each contracted with A Phi at its state.
        quadratic = _fd_fields(lambda rows: expectations(a, phi.rows(rows)), space, states,
                               BRACKET_REPORT_STEP)
        phi_only = _fd_fields(phi.rows, space, states, BRACKET_REPORT_STEP, phi.rows(states) @ a.matrix.T)
        assert np.max(np.abs(phi_only - quadratic)) <= 1e-9 * (1.0 + np.max(np.abs(quadratic))), name
    assert qfe_residual(a, maps["antilinear"], space, samples=10, seed=151) > 1e-5


def test_qfe_constant_map_reads_the_largest_entry_of_its_image():
    # Phi's differences vanish exactly, so the field and the bracket side are 0.
    a = make_hermitian(random_hermitian(5, 152))
    constant = np.eye(5, dtype=complex)[0]
    residual = qfe_residual(a, lambda v: constant, SymplecticSpace(5, hbar=0.7), samples=7, seed=3)
    assert residual == np.max(np.abs(a.matrix[:, 0]))


@pytest.mark.parametrize("name", ("reconstruction", "antilinear"))
def test_qfe_residual_does_not_depend_on_the_block_size(monkeypatch, name):
    n = 16
    space = SymplecticSpace(n, hbar=0.7)
    a = make_hermitian(random_hermitian(n, 153).real)  # a real eigenbasis: _product blocks too
    phi = _qfe_maps(a, space)[name]
    default = qfe_residual(a, phi, space, samples=10, seed=4)
    monkeypatch.setattr(symqm.operators, "_BLOCK_ENTRIES", 64)  # 2 (state, axis) pairs a block
    small = qfe_residual(a, phi, space, samples=10, seed=4)
    assert abs(small - default) <= 1e-12 * default


def test_qfe_peak_memory_at_n_256():
    q = 8
    terms = [f"0.5*X{k}*X{k + 1}" for k in range(q - 1)] + [f"0.3*Z{k}" for k in range(q)]
    a = make_hermitian(parse_operator_expr(" + ".join(terms)).to_matrix(num_qubits=q))
    space = SymplecticSpace(2**q)
    phi = reconstruction_map(from_operator(a, space))
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        residual = qfe_residual(a, phi, space, samples=20, seed=1)
        peak = tracemalloc.get_traced_memory()[1] - before
    finally:
        tracemalloc.stop()
    # Per-sample (4n, n) complex stacks of the perturbed points, their images and A times
    # them (4 MiB each at n = 256) peaked at 18.2 MiB; a block of (state, axis) pairs holds
    # 1 MiB per array.
    assert residual <= 1e-5
    assert peak < 12 * 2**20, peak / 2**20


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
        np.testing.assert_allclose(qf.coordinates(psi), qf_ref.coordinates.conj().T @ psi, atol=1e-12)
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
    conj_states = [np.conj(s) for s in qf_ref.stationary_states]
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


@pytest.mark.parametrize("samples", [0, -1])
def test_library_checks_reject_a_sample_count_below_one(samples):
    # Each check that draws states takes at least one: none may pass on an empty draw.
    qf = from_operator(Z, SPACE)
    traj = integrate(qf.f, UNIFORM, IntegratorConfig("exact", 0.1, 2))
    identity = RowwiseMap(lambda rows: rows)
    checks = [
        lambda: verify_axioms(qf, samples, 0),
        lambda: verify_reconstruction(qf, traj, samples=samples, seed=0),
        lambda: qfe_residual(Z, identity, SPACE, samples=samples, seed=0),
        lambda: quantum_function_from_qfe(Z, identity, list(qf.stationary_states), SPACE, samples=samples),
        lambda: bracket_commutator_report(Z, Z, SPACE, samples=samples, seed=0),
    ]
    for check in checks:
        with pytest.raises(ScenarioError, match="samples"):
            check()
