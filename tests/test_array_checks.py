"""Array residual checks against per-element reference formulas.

The analytic axiom check, the phase-evolution residuals, the deviation from
the spectral solution and the stored energies are computed with matrix
products over row blocks.  The loops below restate each quantity one
``(sample, n)`` or ``(step, n)`` element at a time; the two must agree to
``1e-12`` relative, or both be below ``1e-12``.  Trajectories of random
states and tampered eigenvalues keep the compared residuals of order one,
so the comparison is not decided by round-off alone.  Residuals along a
real flow cancel to far below their operands and are compared to a few
ulps of the operands instead.
"""

import dataclasses
import json

import numpy as np
import pytest

import symqm.brackets
import symqm.cli
import symqm.dynamics
import symqm.operators
import symqm.quantum_function
from symqm import (
    ComplexFunction,
    IntegratorConfig,
    ObservableFunction,
    SymplecticSpace,
    Trajectory,
    from_operator,
    integrate,
    make_hermitian,
    phase_evolution_residual,
    phase_residuals,
    spectral_deviation,
    trajectory_diagnostics,
    verify_axioms,
)
from symqm.cli import main
from symqm.errors import NonHermitianError
from symqm.sampling import random_hermitian, random_unit_state

SIZES = (2, 5, 16)
# More stored steps than one row block, and not a multiple of it.
STEPS = 600


def _close(new, ref):
    new, ref = np.asarray(new, dtype=float), np.asarray(ref, dtype=float)
    assert new.shape == ref.shape
    tiny = (np.abs(new) < 1e-12) & (np.abs(ref) < 1e-12)
    scale = np.maximum(np.abs(new), np.abs(ref))
    assert np.all(tiny | (np.abs(new - ref) <= 1e-12 * scale)), (new, ref)


def _ulps(new, ref, scale):
    """Equal up to a few ulps of ``scale``, the size of the operands.

    For residuals of a real flow, which cancel operands of size ``scale``
    down to far below it, so that a change of summation order moves them
    by more than ``1e-12`` relative.
    """
    diff = np.abs(np.asarray(new, dtype=float) - np.asarray(ref, dtype=float))
    assert np.all(diff <= 16 * np.finfo(float).eps * scale), (new, ref)


def _operator(n, index):
    return make_hermitian(random_hermitian(n, 31, index=index))


def _random_trajectory(n, seed):
    """Unit states that follow no flow, so every residual is of order one."""
    states = np.stack([random_unit_state(n, seed, k) for k in range(STEPS)])
    return Trajectory(
        times=0.01 * np.arange(STEPS),
        states=states,
        norms=np.linalg.norm(states, axis=1),
        energies=np.zeros(STEPS),
        solver_iterations=np.zeros(STEPS, dtype=int),
        method="exact",
    )


def _reference_bracket(qf, samples, seed):
    a = qf.f.operator.matrix
    hbar = qf.space.hbar
    worst = 0.0
    for i in range(samples):
        psi = random_unit_state(qf.space.complex_dim, seed, i)
        field = -1j / hbar * (a @ psi)
        for k, u in enumerate(qf.eigenfunctions):
            lhs = 1j * hbar * np.vdot(u.vector, field)
            worst = max(worst, abs(lhs - qf.eigenvalues[k] * np.vdot(u.vector, psi)))
    return worst


def _reference_phase(basis, eigenvalues, traj, hbar):
    out = []
    for n, a in enumerate(eigenvalues):
        u0 = np.vdot(basis[:, n], traj.states[0])
        worst = 0.0
        for k in range(len(traj)):
            phase = np.exp(-1j * a * (traj.times[k] - traj.times[0]) / hbar)
            worst = max(worst, abs(np.vdot(basis[:, n], traj.states[k]) - phase * u0))
        out.append(worst)
    return np.array(out)


def _reference_deviation(basis, eigenvalues, traj, hbar):
    coeffs = basis.conj().T @ traj.states[0]
    worst = 0.0
    for k in range(len(traj)):
        exact = basis @ (coeffs * np.exp(-1j * eigenvalues * (traj.times[k] - traj.times[0]) / hbar))
        worst = max(worst, np.linalg.norm(traj.states[k] - exact))
    return worst


@pytest.mark.parametrize("n", SIZES)
def test_analytic_bracket_matches_reference(n):
    space = SymplecticSpace(n, hbar=0.7)
    qf = from_operator(_operator(n, n), space)
    report = verify_axioms(qf, 40, seed=2)
    assert report.method == "analytic"
    _close(report.bracket, _reference_bracket(qf, 40, 2))
    # Wrong eigenvalues make every bracket residual of order one.
    rng = np.random.default_rng(n)
    tampered = dataclasses.replace(qf, eigenvalues=rng.standard_normal(n))
    bad = verify_axioms(tampered, 40, seed=2)
    assert bad.bracket > 1e-3
    _close(bad.bracket, _reference_bracket(tampered, 40, 2))


@pytest.mark.parametrize("n", SIZES)
def test_phase_residuals_and_deviation_match_reference(n):
    qf = from_operator(_operator(n, 10 + n), SymplecticSpace(n))
    basis = qf.coordinate_matrix()
    traj = _random_trajectory(n, 40 + n)
    for hbar in (1.0, 0.3):
        ref = _reference_phase(basis, qf.eigenvalues, traj, hbar)
        assert np.min(ref) > 1e-3
        new = phase_residuals(traj.states, basis, qf.eigenvalues, traj.times, hbar)
        _close(new, ref)
        wrapped = [phase_evolution_residual(u, a, traj, hbar)
                   for u, a in zip(qf.eigenfunctions, qf.eigenvalues)]
        _close(wrapped, ref)
        _close(spectral_deviation(traj, qf.eigenvalues, basis, hbar),
               _reference_deviation(basis, qf.eigenvalues, traj, hbar))


@pytest.mark.parametrize("n", SIZES)
def test_flow_residuals_match_reference(n):
    space = SymplecticSpace(n)
    qf = from_operator(_operator(n, 20 + n), space)
    basis = qf.coordinate_matrix()
    psi0 = random_unit_state(n, 7, n)
    traj = integrate(qf.f, psi0, IntegratorConfig("cayley", 1e-2, STEPS))
    _ulps(phase_residuals(traj.states, basis, qf.eigenvalues, traj.times, 1.0),
          _reference_phase(basis, qf.eigenvalues, traj, 1.0), 1.0)
    _ulps(spectral_deviation(traj, qf.eigenvalues, basis, 1.0),
          _reference_deviation(basis, qf.eigenvalues, traj, 1.0), 1.0)
    # The a -> a+1 control stays of order one.
    wrong = phase_residuals(traj.states, basis, qf.eigenvalues + 1.0, traj.times, 1.0)
    _close(wrong, _reference_phase(basis, qf.eigenvalues + 1.0, traj, 1.0))
    assert np.max(wrong) > 0.1


@pytest.mark.parametrize("n", SIZES)
def test_energies_match_reference(n):
    a = _operator(n, 30 + n)
    f = ObservableFunction.expectation_of(a, SymplecticSpace(n))
    psi0 = random_unit_state(n, 60, n)
    stored = integrate(f, psi0, IntegratorConfig("rk4", 0.05, STEPS - 1))
    ref = [np.vdot(psi, a.matrix @ psi).real for psi in stored.states]
    _close(stored.energies, ref)
    diag = trajectory_diagnostics(stored)
    _ulps(diag.max_energy_drift, np.max(np.abs(np.array(ref) - ref[0])), a.max_norm)


def test_energies_keep_imaginary_part_guard():
    a = _operator(3, 9)
    f = ObservableFunction.expectation_of(a, SymplecticSpace(3))
    # Corrupt the validated matrix: A + 0.1i I has <psi|.|psi> = <A> + 0.1i.
    object.__setattr__(a, "matrix", a.matrix + 0.1j * np.eye(3))
    with pytest.raises(NonHermitianError, match="imaginary"):
        integrate(f, random_unit_state(3, 2, 0), IntegratorConfig("rk4", 1e-2, 10))


def test_generic_eigenfunction_phase_residual():
    qf = from_operator(_operator(4, 3), SymplecticSpace(4))
    traj = _random_trajectory(4, 5)
    u = qf.eigenfunctions[2]
    generic = ComplexFunction.from_callable(lambda v: u(v), u.space)
    _close(phase_evolution_residual(generic, qf.eigenvalues[2], traj),
           phase_evolution_residual(u, qf.eigenvalues[2], traj))


def test_nan_state_propagates_to_phase_and_deviation():
    qf = from_operator(_operator(3, 4), SymplecticSpace(3))
    traj = _random_trajectory(3, 6)
    states = traj.states.copy()
    states[STEPS - 2, 1] = np.nan
    broken = dataclasses.replace(traj, states=states)
    basis = qf.coordinate_matrix()
    assert np.all(np.isnan(phase_residuals(broken.states, basis, qf.eigenvalues,
                                           broken.times, 1.0)))
    assert np.isnan(spectral_deviation(broken, qf.eigenvalues, basis, 1.0))


@pytest.mark.parametrize("n", SIZES)
def test_controls_still_fail(n):
    qf = from_operator(_operator(n, 50 + n), SymplecticSpace(n))
    a = qf.eigenvalues.copy()
    a[n // 2] += 1.0
    assert not verify_axioms(dataclasses.replace(qf, eigenvalues=a), 50, seed=8).passed
    skewed = ComplexFunction.coordinate(1.5 * qf.eigenfunctions[0].vector, qf.space)
    broken = dataclasses.replace(
        qf, eigenfunctions=(skewed,) + qf.eigenfunctions[1:], coords_fn=None
    )
    report = verify_axioms(broken, 50, seed=8)
    assert report.method == "analytic"
    assert report.normalization > 1e-3
    assert not report.passed


def _counting(monkeypatch, owners, name):
    calls = []
    original = getattr(owners[0], name)

    def counted(*args, **kwargs):
        calls.append(name)
        return original(*args, **kwargs)

    for owner in owners:
        if getattr(owner, name, None) is original:
            monkeypatch.setattr(owner, name, counted)
    return calls


def test_analytic_axioms_make_no_complex_bracket_calls(monkeypatch):
    calls = _counting(monkeypatch, [symqm.brackets, symqm.quantum_function],
                      "complex_bracket")
    qf = from_operator(_operator(8, 1), SymplecticSpace(8))
    assert verify_axioms(qf, 20, seed=0).passed
    assert calls == []
    verify_axioms(qf, 2, seed=0, method="finite_difference")
    assert len(calls) == 2 * 8


def test_cayley_evolve_decomposes_once(monkeypatch, tmp_path):
    calls = _counting(
        monkeypatch,
        [symqm.operators, symqm.quantum_function, symqm.dynamics, symqm.cli],
        "spectral_decompose",
    )
    scenario = tmp_path / "scenario.json"
    scenario.write_text(json.dumps({
        "operator": "0.5*X0*X1 + 0.3*Z0 + 0.3*Z1",
        "integrator": {"method": "cayley", "dt": 0.001, "steps": 300},
    }))
    assert main(["evolve", "--scenario", str(scenario), "--out", str(tmp_path / "out"),
                 "--quiet"]) == 0
    assert len(calls) == 1


def test_operator_energies_and_diagnostics_never_call_f(monkeypatch):
    calls = _counting(monkeypatch, [ObservableFunction], "__call__")
    f = ObservableFunction.expectation_of(_operator(4, 2), SymplecticSpace(4))
    traj = integrate(f, random_unit_state(4, 1, 0), IntegratorConfig("midpoint", 1e-2, 300))
    trajectory_diagnostics(traj)
    assert calls == []
    f(traj.states[0])
    assert len(calls) == 1
