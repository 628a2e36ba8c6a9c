"""Tests for Hamiltonian flows and the integrator family."""

import numpy as np
import pytest

from symqm import (
    ComplexFunction,
    IntegratorConfig,
    ObservableFunction,
    SymplecticSpace,
    from_operator,
    integrate,
    make_hermitian,
    phase_evolution_residual,
    spectral_decompose,
    trajectory_diagnostics,
)
from symqm.dynamics import Trajectory
from symqm.errors import DimensionMismatchError, MethodUnsupportedError, NonConvergenceError
from symqm.sampling import random_hermitian, random_unit_state

Z = make_hermitian([[1, 0], [0, -1]])
SPACE = SymplecticSpace(2)
UNIFORM = np.array([1, 1]) / np.sqrt(2)


def _generic(h):
    """``<H>`` as a callable: its midpoint steps iterate to their fixed point."""
    return ObservableFunction.from_callable(lambda v: np.vdot(v, h.matrix @ v).real, SPACE)


def test_integrator_config_validation():
    cfg = IntegratorConfig("midpoint", 1e-3, 100)
    assert cfg.total_time == pytest.approx(0.1)
    with pytest.raises(ValueError):
        IntegratorConfig("euler", 1e-3, 100)
    with pytest.raises(ValueError):
        IntegratorConfig("midpoint", -1e-3, 100)
    with pytest.raises(ValueError):
        IntegratorConfig("midpoint", 1e-3, 0)
    with pytest.raises(ValueError):
        IntegratorConfig("midpoint", 1e-3, 100, solver_tol=1e-16)
    with pytest.raises(ValueError):
        IntegratorConfig("midpoint", 1e-3, 100, stride=3)  # must divide steps


def test_exact_propagate_examples():
    np.testing.assert_array_equal(spectral_decompose(Z).propagate(UNIFORM, [0.0], SPACE.hbar)[0], UNIFORM)
    flipped = spectral_decompose(Z).propagate(UNIFORM, [np.pi], SPACE.hbar)[0]
    np.testing.assert_allclose(flipped, -UNIFORM, atol=1e-15)
    ident = make_hermitian(np.eye(2))
    psi = random_unit_state(2, 0)
    evolved = spectral_decompose(ident).propagate(psi, [0.7], 2.0)[0]  # hbar = 2
    np.testing.assert_allclose(evolved, np.exp(-1j * 0.7 / 2.0) * psi, atol=1e-15)


def test_exact_propagate_norm_preserved():
    rng = np.random.default_rng(1)
    for n in (2, 5, 8):
        h = make_hermitian(random_hermitian(n, 10, index=n))
        psi = random_unit_state(n, 11, index=n)
        for t in rng.uniform(0, 10, size=5):
            out = spectral_decompose(h).propagate(psi, [t], 1.0)[0]
            assert abs(np.linalg.norm(out) - 1) <= 1e-12


def test_midpoint_matches_exact_propagator():
    f = ObservableFunction.expectation_of(Z, SPACE)
    traj = integrate(f, UNIFORM, IntegratorConfig("midpoint", 1e-3, 1000))
    target = spectral_decompose(Z).propagate(UNIFORM, [1.0], SPACE.hbar)[0]
    assert np.linalg.norm(traj.states[-1] - target) <= 1e-6


def test_zero_operator_constant_trajectory():
    f = ObservableFunction.expectation_of(make_hermitian(np.zeros((2, 2))), SPACE)
    traj = integrate(f, UNIFORM, IntegratorConfig("midpoint", 1e-2, 50))
    for k in range(len(traj)):
        np.testing.assert_array_equal(traj.states[k], UNIFORM)


def test_norm_drift_midpoint_vs_rk4():
    f = ObservableFunction.expectation_of(Z, SPACE)
    mid = integrate(f, UNIFORM, IntegratorConfig("midpoint", 1e-2, 10_000))
    rk4 = integrate(f, UNIFORM, IntegratorConfig("rk4", 1e-2, 10_000))
    mid_drift = np.max(np.abs(mid.norms - 1))
    rk4_drift = np.max(np.abs(rk4.norms - 1))
    assert mid_drift <= 1e-10
    assert rk4_drift > mid_drift


def test_cayley_norm_preservation():
    f = ObservableFunction.expectation_of(Z, SPACE)
    traj = integrate(f, UNIFORM, IntegratorConfig("cayley", 1e-2, 10_000))
    assert np.max(np.abs(traj.norms - 1)) <= 1e-12


def test_cayley_equals_midpoint_for_linear_field():
    # the Cayley step is the one midpoint solution of a linear field
    f = ObservableFunction.expectation_of(Z, SPACE)
    cay = integrate(f, UNIFORM, IntegratorConfig("cayley", 1e-2, 100))
    mid = integrate(f, UNIFORM, IntegratorConfig("midpoint", 1e-2, 100))
    np.testing.assert_array_equal(mid.states, cay.states)
    np.testing.assert_array_equal(mid.solver_iterations, cay.solver_iterations)


def test_flow_equivalence_random_hamiltonians():
    for trial, n in enumerate((2, 8, 16)):
        space = SymplecticSpace(n)
        h = make_hermitian(random_hermitian(n, 20, index=trial, norm_bound=1.0))
        f = ObservableFunction.expectation_of(h, space)
        psi0 = random_unit_state(n, 21, index=trial)
        traj = integrate(f, psi0, IntegratorConfig("midpoint", 1e-3, 1000))
        target = spectral_decompose(h).propagate(psi0, [1.0], space.hbar)[0]
        assert np.linalg.norm(traj.states[-1] - target) <= 1e-5


def test_time_reversibility_of_midpoint():
    cfg = IntegratorConfig("midpoint", 1e-2, 100)
    f = ObservableFunction.expectation_of(Z, SPACE)
    forward = integrate(f, UNIFORM, cfg)
    f_neg = ObservableFunction.expectation_of(make_hermitian(-Z.matrix), SPACE)
    back = integrate(f_neg, forward.states[-1], cfg)
    assert np.linalg.norm(back.states[-1] - UNIFORM) <= 10 * cfg.solver_tol


def test_midpoint_generic_observable_matches_linear_path():
    # the same Hamiltonian expressed as a generic closure follows the same
    # flow; solver_tol must sit above the finite-difference field noise
    h = make_hermitian(random_hermitian(3, 30, norm_bound=1.0))
    space = SymplecticSpace(3)
    f_lin = ObservableFunction.expectation_of(h, space)
    f_gen = ObservableFunction.from_callable(lambda v: np.vdot(v, h.matrix @ v).real, space)
    psi0 = random_unit_state(3, 31)
    lin = integrate(f_lin, psi0, IntegratorConfig("midpoint", 1e-2, 50))
    gen = integrate(f_gen, psi0, IntegratorConfig("midpoint", 1e-2, 50, solver_tol=1e-8))
    assert np.max(np.abs(lin.states[-1] - gen.states[-1])) <= 1e-6


def test_method_unsupported_for_generic_observables():
    f_gen = ObservableFunction.from_callable(lambda v: float(np.vdot(v, v).real), SPACE)
    for method in ("exact", "cayley"):
        with pytest.raises(MethodUnsupportedError):
            integrate(f_gen, UNIFORM, IntegratorConfig(method, 1e-2, 10))


def test_rk4_generic_observable_matches_linear_path():
    # RK4 on <H> as a closure steps with the FD field, per step; on <H> itself
    # it takes one increment matrix.  The field's FD noise bounds the gap.
    h = make_hermitian(random_hermitian(3, 30, norm_bound=1.0))
    space = SymplecticSpace(3)
    f_gen = ObservableFunction.from_callable(lambda v: np.vdot(v, h.matrix @ v).real, space)
    psi0 = random_unit_state(3, 31)
    cfg = IntegratorConfig("rk4", 1e-2, 50, stride=5)
    lin = integrate(ObservableFunction.expectation_of(h, space), psi0, cfg)
    gen = integrate(f_gen, psi0, cfg)
    assert len(gen) == 11
    assert np.max(np.abs(lin.states - gen.states)) <= 1e-6
    np.testing.assert_array_equal(gen.solver_iterations, 0)


def test_nonconvergence_reports_step():
    # a huge step makes the fixed-point iteration of a generic observable
    # diverge; on <H> itself midpoint takes the step in closed form
    cfg = IntegratorConfig("midpoint", 1.0, 5, solver_max_iter=10)
    h = make_hermitian(100 * Z.matrix)
    with pytest.raises(NonConvergenceError) as err:
        integrate(_generic(h), UNIFORM, cfg)
    assert err.value.step == 1
    assert err.value.iterations == 10
    linear = integrate(ObservableFunction.expectation_of(h, SPACE), UNIFORM, cfg)
    assert np.max(np.abs(linear.norms - 1)) <= 1e-12


def test_trajectory_stride():
    f = ObservableFunction.expectation_of(Z, SPACE)
    full = integrate(f, UNIFORM, IntegratorConfig("midpoint", 1e-2, 100))
    thin = integrate(f, UNIFORM, IntegratorConfig("midpoint", 1e-2, 100, stride=10))
    assert len(thin) == 11
    np.testing.assert_allclose(thin.times, full.times[::10], atol=1e-15)
    np.testing.assert_array_equal(thin.states[-1], full.states[-1])


def test_trajectory_fields_consistent():
    f = ObservableFunction.expectation_of(Z, SPACE)
    traj = integrate(f, UNIFORM, IntegratorConfig("exact", 0.1, 10))
    assert len(traj) == 11
    assert traj.dim == 2
    assert np.all(np.diff(traj.times) > 0)


def test_phase_evolution_residual_eigenfunction():
    qf = from_operator(Z, SPACE)
    f = ObservableFunction.expectation_of(Z, SPACE)
    traj = integrate(f, UNIFORM, IntegratorConfig("exact", 1e-2, 400))
    for u, a in zip(qf.eigenfunctions, qf.eigenvalues):
        assert phase_evolution_residual(u, a, traj) <= 1e-12


def test_phase_evolution_residual_zero_function():
    f = ObservableFunction.expectation_of(Z, SPACE)
    traj = integrate(f, UNIFORM, IntegratorConfig("exact", 1e-2, 10))
    zero = ComplexFunction.coordinate([0, 0], SPACE)
    assert phase_evolution_residual(zero, 1.0, traj) == 0.0


def test_phase_evolution_residual_wrong_eigenvalue():
    # the a -> a+1 control: |e^{-iat} - e^{-i(a+1)t}| = 2|sin(t/2)| reaches
    # 2|u(0)| at t = pi
    qf = from_operator(Z, SPACE)
    f = ObservableFunction.expectation_of(Z, SPACE)
    steps = 1000
    traj = integrate(f, UNIFORM, IntegratorConfig("exact", np.pi / steps, steps))
    u0, a0 = qf.eigenfunctions[0], qf.eigenvalues[0]
    good = phase_evolution_residual(u0, a0, traj)
    bad = phase_evolution_residual(u0, a0 + 1.0, traj)
    assert good <= 1e-12
    expected = 2 * abs(u0(UNIFORM))
    assert bad >= 0.5
    assert abs(bad - expected) <= 1e-9


def test_trajectory_diagnostics_exact_and_midpoint():
    f = ObservableFunction.expectation_of(Z, SPACE)
    exact = trajectory_diagnostics(
        integrate(f, UNIFORM, IntegratorConfig("exact", 1e-2, 100))
    )
    assert exact.max_norm_drift <= 1e-12
    assert exact.max_energy_drift <= 1e-12

    mid = trajectory_diagnostics(
        integrate(f, UNIFORM, IntegratorConfig("midpoint", 1e-2, 10_000))
    )
    assert mid.max_energy_drift <= 1e-10
    assert mid.max_solver_iterations == 0  # Cayley's step, no fixed-point iteration
    generic = trajectory_diagnostics(
        integrate(_generic(Z), UNIFORM, IntegratorConfig("midpoint", 1e-2, 100, solver_tol=1e-8))
    )
    assert generic.max_solver_iterations >= 1

    rk4 = trajectory_diagnostics(
        integrate(f, UNIFORM, IntegratorConfig("rk4", 1e-2, 10_000))
    )
    assert rk4.max_norm_drift > mid.max_norm_drift


def test_solver_iteration_stats_count_steps_only():
    # Row 0 is the initial state, not a step; its 0 must not enter the mean.
    traj = integrate(_generic(Z), UNIFORM, IntegratorConfig("midpoint", 1e-3, 100, solver_tol=1e-8))
    assert traj.solver_iterations[0] == 0
    steps = traj.solver_iterations[1:]
    assert np.all(steps >= 1)
    diag = trajectory_diagnostics(traj)
    assert diag.mean_solver_iterations == float(np.mean(steps))
    assert diag.max_solver_iterations == np.max(steps)
    single = Trajectory(times=[0.0], states=[UNIFORM], norms=[1.0], energies=[0.0],
                        solver_iterations=[0], method="midpoint")
    assert trajectory_diagnostics(single).mean_solver_iterations == 0.0
    assert trajectory_diagnostics(single).max_solver_iterations == 0


@pytest.mark.parametrize("changes, field", [
    ({"dt": np.inf}, "dt"),
    ({"dt": np.nan}, "dt"),
    ({"solver_tol": np.inf}, "solver_tol"),
    ({"steps": 10.7}, "steps"),
    ({"steps": np.inf}, "steps"),
    ({"stride": 2.5}, "stride"),
    ({"solver_max_iter": 7.5}, "solver_max_iter"),
])
def test_integrator_config_rejects_non_finite_and_fractional_values(changes, field):
    with pytest.raises(ValueError, match=field):
        IntegratorConfig(**{"method": "midpoint", "dt": 0.01, "steps": 10, **changes})
    assert IntegratorConfig("midpoint", 0.01, 10.0, stride=2.0).steps == 10


def _trajectory(times):
    times = np.asarray(times, dtype=float)
    rows = len(times)
    return Trajectory(times=times, states=np.tile(UNIFORM, (rows, 1)), norms=np.ones(rows),
                      energies=np.zeros(rows), solver_iterations=np.zeros(rows, dtype=int),
                      method="exact")


def test_trajectory_rejects_malformed_times():
    with pytest.raises(DimensionMismatchError, match="lengths differ"):
        Trajectory(times=[0.0, 1.0], states=[UNIFORM], norms=[1.0], energies=[0.0],
                   solver_iterations=[0], method="exact")
    with pytest.raises(ValueError, match="strictly increasing"):
        _trajectory([0.0, 1.0, 1.0])
    with pytest.raises(ValueError, match="constant step"):
        _trajectory([0.0, 1.0, 2.0 + 1e-9, 3.0])


def test_trajectory_step_tolerance_scales_with_the_times():
    # dt * arange(k) is as evenly spaced as floats near t allow, and must pass
    # whatever t reaches; a step off by 1e-9 of max |t| must still fail.
    times = 0.1 * np.arange(100001)
    assert len(_trajectory(times)) == 100001
    off = times.copy()
    off[50000:] += 1e-9 * times[-1]
    with pytest.raises(ValueError, match="constant step"):
        _trajectory(off)
