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
import functools
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
    complex_bracket,
    IntegratorConfig,
    ObservableFunction,
    RowwiseMap,
    SpectralData,
    SymplecticSpace,
    Trajectory,
    bracket_commutator_report,
    from_operator,
    from_real_coords,
    integrate,
    make_hermitian,
    phase_evolution_residual,
    poisson_bracket,
    quantum_function_from_qfe,
    reconstruction_map,
    spectral_decompose,
    spectral_residuals,
    trajectory_diagnostics,
    verify_axioms,
    verify_reconstruction,
)
from symqm.brackets import (
    BRACKET_REPORT_STEP,
    _complex_values,
    _fd_bracket,
    _fd_fields,
    _observable_values,
)
from symqm.cli import main
from symqm.errors import NonHermitianError
from symqm.sampling import random_hermitian, random_unit_state, random_unit_states

SIZES = (2, 5, 16)
# More stored steps than one row block, and not a multiple of it.
STEPS = 600
AXIOMS = ("decomposition", "bracket", "normalization", "stationary_delta", "stationary_value")


def _within(report, bound):
    """Every axiom residual of ``report`` at most ``bound``, the CLI's rule: a NaN fails."""
    return all(getattr(report, name) <= bound for name in AXIOMS)


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


def _stretched_u0(qf):
    """The coordinate matrix of ``qf`` with its column ``phi_0`` stretched by 1.5."""
    coordinates = qf.coordinates.copy()
    coordinates[:, 0] *= 1.5
    return coordinates


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
    op = _operator(n, 10 + n)
    traj = _random_trajectory(n, 40 + n)
    for hbar in (1.0, 0.3):
        qf = from_operator(op, SymplecticSpace(n, hbar=hbar))
        basis = qf.coordinates
        ref = _reference_phase(basis, qf.eigenvalues, traj, hbar)
        assert np.min(ref) > 1e-3
        deviation, new = spectral_residuals(traj, spectral_decompose(op), hbar)
        _close(new, ref)
        wrapped = [phase_evolution_residual(u, a, traj)
                   for u, a in zip(qf.eigenfunctions, qf.eigenvalues)]
        _close(wrapped, ref)
        _close(deviation, _reference_deviation(basis, qf.eigenvalues, traj, hbar))


@pytest.mark.parametrize("n", SIZES)
def test_flow_residuals_match_reference(n):
    space = SymplecticSpace(n)
    qf = from_operator(_operator(n, 20 + n), space)
    basis = qf.coordinates
    psi0 = random_unit_state(n, 7, n)
    traj = integrate(qf.f, psi0, IntegratorConfig("cayley", 1e-2, STEPS))
    spectral = spectral_decompose(qf.f.operator)
    deviation, residuals = spectral_residuals(traj, spectral, 1.0)
    _ulps(residuals, _reference_phase(basis, qf.eigenvalues, traj, 1.0), 1.0)
    _ulps(deviation, _reference_deviation(basis, qf.eigenvalues, traj, 1.0), 1.0)
    # The a -> a+1 control stays of order one.
    shifted = SpectralData(spectral.eigenvalues + 1.0, spectral.eigenvectors, spectral.degenerate_flag)
    _, wrong = spectral_residuals(traj, shifted, 1.0)
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
    deviation, residuals = spectral_residuals(broken, spectral_decompose(qf.f.operator), 1.0)
    assert np.all(np.isnan(residuals))
    assert np.isnan(deviation)


@pytest.mark.parametrize("n", SIZES)
def test_controls_still_fail(n):
    qf = from_operator(_operator(n, 50 + n), SymplecticSpace(n))
    a = qf.eigenvalues.copy()
    a[n // 2] += 1.0
    assert not _within(verify_axioms(dataclasses.replace(qf, eigenvalues=a), 50, seed=8), 1e-10)
    broken = dataclasses.replace(qf, coordinates=_stretched_u0(qf))
    report = verify_axioms(broken, 50, seed=8)
    assert report.method == "analytic"
    assert report.normalization > 1e-3
    assert not _within(report, 1e-10)


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
    assert _within(verify_axioms(qf, 20, seed=0), 1e-10)
    assert calls == []
    # The finite-difference path takes all n brackets of a sample from one Jacobian.
    assert _within(verify_axioms(qf, 2, seed=0, method="finite_difference"), 1e-5)
    assert calls == []


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


@pytest.mark.parametrize("command, method", [
    ("evolve", "exact"), ("evolve", "cayley"), ("verify", "exact"), ("reconstruct", "exact"),
    ("bracket", "exact"),
])
def test_one_eigendecomposition_per_command(monkeypatch, tmp_path, command, method):
    # Each operator is decomposed at most once.  verify and bracket read ||A||_2 and
    # ||B||_2 from the eigenvalues, so they decompose the second operator too.  The
    # chain's two parity blocks have one size, so they take one stacked eigh call,
    # as do the two blocks of Y0*I1.
    chain = "0.5*X0*X1 + 0.3*Z0 + 0.3*Z1"
    expected = [chain, "Y0"] if command in ("verify", "bracket") else [chain]
    calls = _counting(monkeypatch, [np.linalg], "eigh")
    spectral = symqm.operators.HermitianOperator.spectral
    computed = []

    def counted(self):
        computed.append(self.label)
        return spectral.func(self)

    prop = functools.cached_property(counted)
    prop.__set_name__(symqm.operators.HermitianOperator, "spectral")
    monkeypatch.setattr(symqm.operators.HermitianOperator, "spectral", prop)
    scenario = tmp_path / "scenario.json"
    scenario.write_text(json.dumps({
        "operator": chain,
        "second_operator": "Y0",
        "integrator": {"method": method, "dt": 0.001, "steps": 300},
    }))
    assert main([command, "--scenario", str(scenario), "--out", str(tmp_path / "out"),
                 "--quiet"]) == 0
    assert sorted(computed) == sorted(expected)
    assert len(calls) == len(expected)


def test_operator_energies_and_diagnostics_never_call_f(monkeypatch):
    calls = _counting(monkeypatch, [ObservableFunction], "__call__")
    f = ObservableFunction.expectation_of(_operator(4, 2), SymplecticSpace(4))
    traj = integrate(f, random_unit_state(4, 1, 0), IntegratorConfig("midpoint", 1e-2, 300))
    trajectory_diagnostics(traj)
    assert calls == []
    f(traj.states[0])
    assert len(calls) == 1


def _reference_jacobian(func, space, psi, step):
    """Central differences one real coordinate at a time, Re and Im apart: ``q_k`` and
    ``p_k`` move ``Re psi_k`` and ``Im psi_k`` by ``h / sqrt(2 hbar)``, with ``h = step`` or
    the kernel's documented default ``sqrt(eps) (1 + sqrt(2 hbar) |psi_k|)``."""
    n, scale = space.complex_dim, space.coord_scale
    re, im = [], []
    for i in range(2 * n):
        k, unit = i % n, (1.0 if i < n else 1j)
        h = np.sqrt(np.finfo(float).eps) * (1.0 + scale * abs(psi[k])) if step is None else step
        vp = psi.copy()
        vm = psi.copy()
        vp[k] += unit * (h / scale)
        vm[k] -= unit * (h / scale)
        fp = complex(func(vp))
        fm = complex(func(vm))
        re.append((fp.real - fm.real) / (2.0 * h))
        im.append((fp.imag - fm.imag) / (2.0 * h))
    return np.array(re), np.array(im)


def _gradient_field(grad, space):
    """``X = J grad``, ``J = [[0, I], [-I, 0]]``, for the real gradient ``grad = (d/dq, d/dp)``."""
    n = space.complex_dim
    return from_real_coords(np.concatenate([grad[n:], -grad[:n]]), space)


@pytest.mark.parametrize("n", SIZES)
def test_batched_jacobian_matches_pointwise_reference(n):
    space = SymplecticSpace(n, hbar=0.7)
    a = _operator(n, 70 + n)
    phi = random_unit_state(n, 71, n)
    psi = random_unit_state(n, 72, n)
    cubic = ObservableFunction.from_callable(
        lambda v: float(np.vdot(v, a.matrix @ v).real + np.sum(v.real ** 3)), space)
    twisted = ComplexFunction.from_callable(lambda v: np.vdot(phi, v) * v[0] ** 2, space)
    coordinate = ComplexFunction.coordinate(phi, space)
    # The real and imaginary parts of complex functions, each a real function of the state.
    generic = ((lambda s: _observable_values(cubic, s), cubic, 0),
               (lambda s: _complex_values(twisted, s).real, twisted, 0),
               (lambda s: _complex_values(twisted, s).imag, twisted, 1))
    axes = np.concatenate([np.eye(n), 1j * np.eye(n)]) / space.coord_scale
    for step in (None, BRACKET_REPORT_STEP):
        for values, func, part in generic:
            field = _fd_fields(values, space, psi[None], step)[0]
            # Generic callables see the same states as one-row kernel calls along
            # each real axis and are called once per point: bit-identical.
            per_axis = np.array([_fd_bracket(values, space, psi[None], axis[None], step)[0]
                                 for axis in axes])
            assert np.array_equal(field, _gradient_field(per_axis, space))
            # The reference takes its own steps and axis scaling, one point at a time.
            reference = _reference_jacobian(func, space, psi, step)[part]
            assert np.max(np.abs(field - _gradient_field(reference, space))) <= 1e-9
    # Products differ from the per-point formulas in the last ulp of each
    # value; divided by the step, that stays far below the 1e-5 tolerances.
    expectation = ObservableFunction.expectation_of(a, space)
    for values, func, part in ((lambda s: _observable_values(expectation, s), expectation, 0),
                               (lambda s: _complex_values(coordinate, s).real, coordinate, 0),
                               (lambda s: _complex_values(coordinate, s).imag, coordinate, 1)):
        field = _fd_fields(values, space, psi[None], BRACKET_REPORT_STEP)[0]
        reference = _reference_jacobian(func, space, psi, BRACKET_REPORT_STEP)[part]
        assert np.max(np.abs(field - _gradient_field(reference, space))) <= 1e-9


def _cubic_observable(qf, weight):
    """``<A>`` plus ``weight * sum Re(psi_k)^3``, evaluated without ``A``'s closed forms."""
    a = qf.f.operator.matrix
    return ObservableFunction.from_callable(
        lambda v: float(np.vdot(v, a @ v).real + weight * np.sum(v.real ** 3)), qf.space)


@pytest.mark.parametrize("n", SIZES)
def test_fd_checks_see_a_term_the_operator_lacks(n):
    qf = from_operator(_operator(n, 80 + n), SymplecticSpace(n))
    traj = integrate(qf.f, random_unit_state(n, 81, n), IntegratorConfig("cayley", 1e-2, 50))
    for weight, fails in ((0.0, False), (0.05, True)):
        generic = dataclasses.replace(qf, f=_cubic_observable(qf, weight))
        axioms = verify_axioms(generic, 20, seed=3)
        assert axioms.method == "finite_difference"
        rec = verify_reconstruction(generic, traj, samples=20, seed=3)
        assert rec.flow_equation_residual_analytic is None
        # The flow and bracket residuals both come from the finite
        # differences of f, so they see the cubic term or nothing.
        assert (axioms.bracket > 1e-5) is fails, axioms.bracket
        assert (rec.flow_equation_residual_fd > 1e-5) is fails, rec.flow_equation_residual_fd
        assert (axioms.bracket <= 1e-6) is not fails


@pytest.mark.parametrize("n", (2, 5))
def test_reconstruction_work_counts(monkeypatch, n):
    calls = _counting(monkeypatch, [symqm.brackets, symqm.quantum_function],
                      "complex_bracket")
    qf = from_operator(_operator(n, 90 + n), SymplecticSpace(n))
    traj = integrate(qf.f, random_unit_state(n, 91, n), IntegratorConfig("cayley", 1e-2, 20))
    evaluated = []
    inner = _cubic_observable(qf, 0.0)
    counted = dataclasses.replace(
        qf, f=ObservableFunction.from_callable(lambda v: evaluated.append(1) or inner(v), qf.space))
    samples = 7
    verify_reconstruction(qf, traj, samples=samples, seed=4)
    verify_reconstruction(counted, traj, samples=samples, seed=4)
    assert calls == []
    # 4n perturbed points per sample, not 4n per eigen-index, plus f at
    # the sample itself for the value residual.
    assert len(evaluated) == samples * (4 * n + 1)


def test_state_matrix_rows_are_the_seeded_states():
    states = random_unit_states(5, 11, 7)
    assert states.shape == (7, 5) and states.dtype == complex
    for i in range(7):
        assert np.array_equal(states[i], random_unit_state(5, 11, i))
    assert random_unit_states(5, 11, 0).shape == (0, 5)


@pytest.mark.parametrize("n", SIZES)
def test_report_reductions_match_reference(n):
    qf = from_operator(_operator(n, 100 + n), SymplecticSpace(n, hbar=0.7))
    # A stretched eigenfunction and shifted eigenvalues make every residual of order one.
    qf = dataclasses.replace(qf, coordinates=_stretched_u0(qf),
                             eigenvalues=qf.eigenvalues + np.linspace(0.5, 1.0, n))
    a, samples, seed = qf.eigenvalues, 30, 12
    states = [random_unit_state(n, seed, i) for i in range(samples)]
    coords = [qf.coordinates.conj().T @ psi for psi in states]
    values = [qf.f(psi) for psi in states]
    offsets = [qf.coordinates.conj().T @ xi - np.eye(n)[m]
               for m, xi in enumerate(qf.stationary_states)]
    value = max(abs(f - np.sum(a * np.abs(c) ** 2)) for f, c in zip(values, coords))
    axioms = verify_axioms(qf, samples, seed)
    _close([axioms.decomposition, axioms.bracket, axioms.normalization,
            axioms.stationary_delta, axioms.stationary_value],
           [value, _reference_bracket(qf, samples, seed),
            max(abs(np.sum(np.abs(c) ** 2) - 1.0) for c in coords),
            max(np.max(np.abs(d)) for d in offsets),
            max(abs(qf.f(xi) - a[m]) for m, xi in enumerate(qf.stationary_states))])
    traj = _random_trajectory(n, 13)
    rec = verify_reconstruction(qf, traj, samples=samples, seed=seed)
    _close([rec.flow_equation_residual_analytic, rec.value_residual, rec.norm_residual,
            rec.stationary_residual],
           [axioms.bracket, value, max(abs(np.linalg.norm(c) - 1.0) for c in coords),
            max(np.linalg.norm(d) for d in offsets)])
    assert min(axioms.decomposition, axioms.normalization, rec.stationary_residual) > 1e-3


def test_intertwining_reads_coordinates_from_the_eigenfunctions():
    space = SymplecticSpace(3)
    qf = from_operator(make_hermitian(random_hermitian(3, 0)), space)
    # Stretch u_0 in the coordinate matrix, the one coordinate source.
    qf = dataclasses.replace(qf, coordinates=_stretched_u0(qf))
    assert qf.operator_backed
    traj = integrate(qf.f, np.ones(3) / np.sqrt(3), IntegratorConfig("exact", 0.01, 300))
    rec = verify_reconstruction(qf, traj)
    # Every row, the first included, comes from the coordinate matrix, so the
    # stretch is intertwined exactly; the norm check still sees it.
    assert rec.intertwining_residual <= 1e-14
    assert rec.norm_residual > 0.1


def test_coordinates_have_one_source():
    space = SymplecticSpace(3)
    qf = from_operator(make_hermitian(random_hermitian(3, 0)), space)
    skewed = dataclasses.replace(qf, coordinates=_stretched_u0(qf))
    psi = random_unit_state(3, 1, 0)
    for read in (lambda q: q.coordinates.conj().T @ psi, lambda q: reconstruction_map(q)(psi),
                 lambda q: [q.eigenfunctions[0](psi)]):
        assert abs(read(skewed)[0]) / abs(read(qf)[0]) == pytest.approx(1.5, rel=1e-12)

    def value(q):  # the defining sum sum_n a_n |u_n|^2, read through the reconstruction map
        return float(np.sum(q.eigenvalues * np.abs(reconstruction_map(q)(psi)) ** 2))

    c0 = (qf.coordinates.conj().T @ psi)[0]
    assert value(skewed) == pytest.approx(value(qf) + 1.25 * qf.eigenvalues[0] * abs(c0) ** 2, rel=1e-12)


@pytest.mark.parametrize("n", SIZES)
def test_a_coordinate_map_gives_the_matrix_residuals(n):
    space = SymplecticSpace(n, hbar=0.7)
    qf = from_operator(_operator(n, 140 + n), space)
    # The same u_n as one row-wise map, which the closed forms cannot read.
    mapped = dataclasses.replace(
        qf, coordinates=RowwiseMap(lambda rows: (rows.conj() @ qf.coordinates).conj()))
    assert qf.operator_backed and not mapped.operator_backed
    psi = random_unit_state(n, 142, 0)
    np.testing.assert_allclose([u(psi) for u in mapped.eigenfunctions],
                               [u(psi) for u in qf.eigenfunctions],
                               rtol=0, atol=4 * n * np.finfo(float).eps)
    axioms = [verify_axioms(q, 20, seed=3, method="finite_difference") for q in (qf, mapped)]
    assert _within(axioms[0], 1e-5) and axioms[0] == axioms[1]
    traj = integrate(qf.f, random_unit_state(n, 141, 0), IntegratorConfig("cayley", 1e-2, 50))
    rec, rec_mapped = (verify_reconstruction(q, traj, samples=20, seed=3) for q in (qf, mapped))
    assert rec_mapped.flow_equation_residual_analytic is None
    assert dataclasses.replace(rec, flow_equation_residual_analytic=None) == rec_mapped


@pytest.mark.parametrize("n", (2, 5))
def test_fd_brackets_take_one_difference_pass(monkeypatch, n):
    calls = []  # one entry per state whose gradient _fd_fields takes
    original = symqm.brackets._fd_fields

    def counted(values, space, states, step=None):
        calls.extend(states)
        return original(values, space, states, step)

    for module in (symqm.brackets, symqm.quantum_function):
        monkeypatch.setattr(module, "_fd_fields", counted)
    space = SymplecticSpace(n, hbar=0.7)
    qf = from_operator(_operator(n, 130 + n), space)
    g = ObservableFunction.expectation_of(_operator(n, 131 + n), space)
    psi = random_unit_state(n, 132, 0)
    poisson_bracket(qf.f, g, psi, method="finite_difference")
    assert len(calls) == 1
    complex_bracket(qf.f, qf.eigenfunctions[0], psi, method="finite_difference")
    assert len(calls) == 2
    # f = <A>: the u_n are differenced along the checked closed-form X_f, with no pass.
    traj = integrate(qf.f, psi, IntegratorConfig("cayley", 1e-2, 5))
    verify_reconstruction(qf, traj, samples=6, seed=1)
    assert len(calls) == 2
    # Values only: one pass per sample gives grad f, and the u_n are differenced along J grad f.
    verify_axioms(qf, 4, seed=1, method="finite_difference")
    assert len(calls) == 6


@pytest.mark.parametrize("n", SIZES)
def test_bracket_report_matches_reference(n):
    space = SymplecticSpace(n, hbar=0.7)
    a, b = _operator(n, 110 + n), _operator(n, 120 + n)
    f = ObservableFunction.expectation_of(a, space)
    g = ObservableFunction.expectation_of(b, space)
    comm = a.matrix @ b.matrix - b.matrix @ a.matrix
    report = bracket_commutator_report(a, b, space, 25, seed=14)
    analytic = fd = 0.0
    for i in range(25):
        psi = random_unit_state(n, 14, i)
        target = np.vdot(psi, comm @ psi)
        analytic = max(analytic, abs(0.7j * poisson_bracket(f, g, psi) - target))
        # d<A>(X_<B>): the directional difference at this one state along the
        # closed-form field, which the FD side of the report takes for every row.
        field = -1j / 0.7 * (psi[None] @ b.matrix.T)
        directional = _fd_bracket(lambda s: _observable_values(f, s), space, psi[None], field,
                                  BRACKET_REPORT_STEP)[0]
        fd = max(fd, abs(0.7j * directional - target))
    # Both residuals cancel operands of size ||A|| ||B|| down to round-off
    # or to the finite-difference error.
    _ulps(report.analytic_max, analytic, report.scale)
    _ulps(report.finite_difference_max, fd, report.scale)


def test_analytic_axioms_never_call_f(monkeypatch):
    calls = _counting(monkeypatch, [ObservableFunction], "__call__")
    qf = from_operator(_operator(6, 4), SymplecticSpace(6))
    # The samples and the stationary states are evaluated as matrices.
    assert _within(verify_axioms(qf, 9, seed=1), 1e-10)
    assert calls == []


def test_qfe_packaging_images_each_state_once():
    n, samples = 3, 5
    space = SymplecticSpace(n, hbar=0.7)
    a = _operator(n, 5)
    calls = []

    def phi(v):
        calls.append(1)
        return np.asarray(v, dtype=complex)

    stationary = list(from_operator(a, space).stationary_states)
    quantum_function_from_qfe(a, phi, stationary, space, samples=samples, seed=2)
    # The samples once (shared by the norm and equation checks), the
    # stationary states once, 4n perturbed points per sample for the gradient
    # of <Phi|A|Phi>, and 2 per sample along its field.
    assert len(calls) == samples + n + (4 * n + 2) * samples


def test_bracket_report_one_fd_bracket_per_sample(monkeypatch):
    calls = _counting(monkeypatch, [symqm.brackets], "poisson_bracket")
    kernel = _counting(monkeypatch, [symqm.brackets], "_fd_bracket")
    space = SymplecticSpace(4, hbar=0.7)
    report = bracket_commutator_report(_operator(4, 6), _operator(4, 7), space, 7, seed=3)
    assert report.analytic_max <= 1e-9 * report.scale
    # One kernel call takes the bracket at all 7 samples, one more the field check.
    assert calls == [] and len(kernel) == 2
