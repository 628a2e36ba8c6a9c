"""Acceptance suite: one test per criterion, each printing a PASS/FAIL line.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the lines.
"""

import json

import numpy as np

from symqm import (
    ComplexFunction,
    IntegratorConfig,
    ObservableFunction,
    SymplecticSpace,
    bracket_commutator_report,
    exact_propagate,
    from_operator,
    hamiltonian_vector_field,
    integrate,
    make_hermitian,
    parse_operator_expr,
    phase_evolution_residual,
    qfe_residual,
    reconstruction_map,
    verify_axioms,
    verify_reconstruction,
)
from symqm.cli import main
from symqm.errors import NonHermitianError
from symqm.quantum_function import AxiomTolerances
from symqm.sampling import random_hermitian, random_unit_state

Z = make_hermitian([[1, 0], [0, -1]], label="Z0")
UNIFORM = np.array([1, 1]) / np.sqrt(2)


def _report(number, ok, text):
    print(f"ACCEPTANCE {number} {'PASS' if ok else 'FAIL'}: {text}")
    assert ok, text


def test_criterion_1_bracket_commutator_identity():
    sizes = (2, 3, 8, 16)
    pairs_per_size = 13  # 52 seeded pairs across the four sizes
    worst_analytic = worst_fd = 0.0
    for n in sizes:
        space = SymplecticSpace(n)
        for p in range(pairs_per_size):
            a = make_hermitian(random_hermitian(n, 1000 + n, index=2 * p))
            b = make_hermitian(random_hermitian(n, 1000 + n, index=2 * p + 1))
            rep = bracket_commutator_report(a, b, space, samples=20, seed=p)
            worst_analytic = max(worst_analytic, rep.analytic_max / rep.scale)
            worst_fd = max(worst_fd, rep.finite_difference_max / rep.scale)
    ok = worst_analytic <= 1e-9 and worst_fd <= 1e-5
    _report(1, ok,
            f"bracket-commutator identity: analytic {worst_analytic:.2e} <= 1e-9, "
            f"finite-difference {worst_fd:.2e} <= 1e-5 "
            f"({pairs_per_size} pairs x {len(sizes)} sizes, 20 states each)")


def test_criterion_2_hamiltonian_vector_field_formula():
    sizes = (2, 3, 5, 8)
    worst = 0.0
    for trial in range(50):
        n = sizes[trial % len(sizes)]
        space = SymplecticSpace(n)
        a = make_hermitian(random_hermitian(n, 2000, index=trial))
        psi = random_unit_state(n, 2001, index=trial)
        generic = ObservableFunction.from_callable(
            lambda v, m=a.matrix: np.vdot(v, m @ v).real, space
        )
        numeric = np.asarray(hamiltonian_vector_field(generic, psi))
        target = -1j * (a.matrix @ psi)
        worst = max(worst,
                    float(np.max(np.abs(numeric - target))) / (1 + a.spectral_norm))
    ok = worst <= 1e-6
    _report(2, ok,
            f"finite-difference field matches -(i/hbar)A psi: {worst:.2e} <= 1e-6 "
            f"(50 random operator/state pairs, n <= 8)")


def test_criterion_3_schroedinger_as_hamilton_flow():
    # midpoint vs spectral propagator
    worst_dev = 0.0
    for trial, n in enumerate((2, 8, 16)):
        space = SymplecticSpace(n)
        h = make_hermitian(random_hermitian(n, 3000, index=trial, norm_bound=1.0))
        f = ObservableFunction.expectation_of(h, space)
        psi0 = random_unit_state(n, 3001, index=trial)
        traj = integrate(f, psi0, IntegratorConfig("midpoint", 1e-3, 1000))
        target = np.asarray(exact_propagate(f, psi0, 1.0))
        worst_dev = max(worst_dev, float(np.linalg.norm(traj.states[-1] - target)))
    flow_ok = worst_dev <= 1e-5

    space2 = SymplecticSpace(2)
    fz = ObservableFunction.expectation_of(Z, space2)
    cayley = integrate(fz, UNIFORM, IntegratorConfig("cayley", 1e-2, 10_000))
    cayley_drift = float(np.max(np.abs(cayley.norms - 1)))
    cayley_ok = cayley_drift <= 1e-12

    mid = integrate(fz, UNIFORM, IntegratorConfig("midpoint", 1e-2, 10_000))
    rk4 = integrate(fz, UNIFORM, IntegratorConfig("rk4", 1e-2, 10_000))
    mid_drift = float(np.max(np.abs(mid.norms - 1)))
    rk4_drift = float(np.max(np.abs(rk4.norms - 1)))
    order_ok = rk4_drift > mid_drift

    ok = flow_ok and cayley_ok and order_ok
    _report(3, ok,
            f"Schroedinger as Hamilton flow: midpoint deviation {worst_dev:.2e} <= 1e-5, "
            f"cayley norm drift {cayley_drift:.2e} <= 1e-12, "
            f"rk4 drift {rk4_drift:.2e} > midpoint drift {mid_drift:.2e}")


def test_criterion_4_phase_evolution():
    steps = 3142  # t reaches pi
    dt = 1e-3
    worst = 0.0
    for trial, n in enumerate((2, 4)):
        space = SymplecticSpace(n)
        h = Z if n == 2 else make_hermitian(
            random_hermitian(n, 4000, index=trial, norm_bound=1.0)
        )
        qf = from_operator(h, space)
        f = ObservableFunction.expectation_of(h, space)
        psi0 = UNIFORM if n == 2 else random_unit_state(n, 4001, index=trial)
        for method in ("exact", "midpoint"):
            traj = integrate(f, psi0, IntegratorConfig(method, dt, steps))
            for u, a in zip(qf.eigenfunctions, qf.eigenvalues):
                worst = max(worst, phase_evolution_residual(u, a, traj))
    forward_ok = worst <= 1e-5

    qf_z = from_operator(Z, SymplecticSpace(2))
    f_z = ObservableFunction.expectation_of(Z, SymplecticSpace(2))
    traj = integrate(f_z, UNIFORM, IntegratorConfig("exact", dt, steps))
    control = phase_evolution_residual(qf_z.eigenfunctions[0],
                                       qf_z.eigenvalues[0] + 1.0, traj)
    control_ok = control > 0.5

    ok = forward_ok and control_ok
    _report(4, ok,
            f"phase evolution: eigenfunction residual {worst:.2e} <= 1e-5 "
            f"(exact and midpoint), wrong-eigenvalue control {control:.3f} > 0.5 by t=pi")


def test_criterion_5_quantum_function_axioms():
    worst = 0.0
    for n in (2, 3, 8, 16):
        space = SymplecticSpace(n)
        a = make_hermitian(random_hermitian(n, 5000, index=n))
        report = verify_axioms(from_operator(a, space), samples=100, seed=5,
                               tol=AxiomTolerances())
        assert report.passed, report.as_dict()
        worst = max(worst, max(report.as_dict()["residuals"].values()))
    axioms_ok = worst <= 1e-10

    import dataclasses
    qf = from_operator(Z, SymplecticSpace(2))
    tampered = dataclasses.replace(
        qf, eigenvalues=np.array([qf.eigenvalues[0] + 1.0, qf.eigenvalues[1]])
    )
    tampered_residual = verify_axioms(tampered, 100, seed=6).bracket

    skewed = ComplexFunction.coordinate(np.array([0.6, 0.9]), SymplecticSpace(2))
    broken = dataclasses.replace(qf, eigenfunctions=(qf.eigenfunctions[0], skewed),
                                 coords_fn=None)
    broken_residual = verify_axioms(broken, 100, seed=7).normalization

    controls_ok = tampered_residual >= 1e-3 and broken_residual >= 1e-3
    ok = axioms_ok and controls_ok
    _report(5, ok,
            f"quantum-function axioms: residuals {worst:.2e} <= 1e-10 at n in (2,3,8,16); "
            f"negative controls {tampered_residual:.2e}, {broken_residual:.2e} >= 1e-3")


def test_criterion_6_reconstruction():
    worst_analytic = worst_fd = worst_intertwining = 0.0
    for trial, n in enumerate((2, 4)):
        space = SymplecticSpace(n)
        h = Z if n == 2 else make_hermitian(
            random_hermitian(n, 6000, index=trial, norm_bound=1.0)
        )
        qf = from_operator(h, space)
        psi0 = UNIFORM if n == 2 else random_unit_state(n, 6001, index=trial)
        traj = integrate(qf.f, psi0, IntegratorConfig("midpoint", 1e-3, 1000))
        rep = verify_reconstruction(qf, traj, samples=100, seed=8)
        worst_analytic = max(worst_analytic, rep.flow_equation_residual_analytic,
                             rep.value_residual, rep.norm_residual,
                             rep.stationary_residual)
        worst_fd = max(worst_fd, rep.flow_equation_residual_fd)
        worst_intertwining = max(worst_intertwining, rep.intertwining_residual)
    ok = (worst_analytic <= 1e-10 and worst_fd <= 1e-5
          and worst_intertwining <= 1e-5)
    _report(6, ok,
            f"reconstruction: pointwise residuals {worst_analytic:.2e} <= 1e-10 analytic / "
            f"{worst_fd:.2e} <= 1e-5 finite-difference, "
            f"intertwining {worst_intertwining:.2e} <= 1e-5 at t=1")


def test_criterion_7_quantum_function_equation():
    space = SymplecticSpace(2)
    identity_res = qfe_residual(Z, lambda v: np.asarray(v, dtype=complex), space,
                                samples=100, seed=9)
    qf = from_operator(Z, space)
    induced_res = qfe_residual(Z, reconstruction_map(qf), space, samples=100, seed=9)

    constant = np.array([1, 0], dtype=complex)
    control = qfe_residual(Z, lambda v: constant, space, samples=20, seed=10)

    ok = identity_res <= 1e-5 and induced_res <= 1e-5 and control >= 0.1
    _report(7, ok,
            f"quantum-function equation: identity {identity_res:.2e} <= 1e-5, "
            f"reconstruction-induced {induced_res:.2e} <= 1e-5, "
            f"constant-map control {control:.3f} >= 0.1 (||A|| = 1)")


def test_criterion_8_cli_determinism(tmp_path):
    scenario = tmp_path / "scenario.json"
    scenario.write_text(json.dumps({
        "operator": "Z0",
        "second_operator": "X0",
        "integrator": {"method": "midpoint", "dt": 0.001, "steps": 500},
        "samples": 25,
    }))
    identical = True
    for command in ("verify", "evolve", "bracket", "reconstruct"):
        out_a = tmp_path / command / "a"
        out_b = tmp_path / command / "b"
        code_a = main([command, "--scenario", str(scenario), "--out", str(out_a), "--quiet"])
        code_b = main([command, "--scenario", str(scenario), "--out", str(out_b), "--quiet"])
        identical &= code_a == code_b == 0
        names = sorted(p.name for p in out_a.iterdir())
        identical &= names == sorted(p.name for p in out_b.iterdir()) and bool(names)
        for name in names:
            identical &= (out_a / name).read_bytes() == (out_b / name).read_bytes()

    rng = np.random.default_rng(88)
    letters = "IXYZ"
    round_trips = True
    for k in range(50):
        terms = []
        for _ in range(1 + k % 3):
            factors = "*".join(
                f"{letters[rng.integers(0, 4)]}{rng.integers(0, 3)}"
                for _ in range(1 + int(rng.integers(0, 2)))
            )
            coeff = float(np.round(rng.standard_normal() * 2, 4))
            terms.append(f"{coeff}*{factors}")
        text = " + ".join(terms)
        tree = parse_operator_expr(text)
        round_trips &= parse_operator_expr(tree.pretty()) == tree

    try:
        make_hermitian(parse_operator_expr("X0*Z0").to_matrix())
        rejected = False
    except NonHermitianError:
        rejected = True
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps({"operator": "X0*Z0"}))
    rejected &= main(["verify", "--scenario", str(bad),
                      "--out", str(tmp_path / "badout"), "--quiet"]) == 2

    ok = identical and round_trips and rejected
    _report(8, ok,
            f"CLI determinism: byte-identical reruns {identical}, "
            f"50-expression round trip {round_trips}, X0*Z0 rejected {rejected}")
