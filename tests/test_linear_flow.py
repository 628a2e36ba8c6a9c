"""The increment loop of ``integrate`` for ``f = <H>`` against per-step references.

Midpoint, Cayley and RK4 on an expectation observable step as
``psi + Q psi`` with one precomputed increment matrix ``Q``.  The per-step
loops they replace are kept here as references: the fixed-point midpoint
iteration with its own stopping rule, whose limit is the midpoint step,
Cayley by one ``lu_solve`` per step and classical RK4.  Generic observables
still iterate, so the non-convergence tests run on ``<H>`` written as a
callable.  Hypothesis runs derandomized and without an example database, so
every run draws the same cases.
"""

import tempfile
import tracemalloc
from pathlib import Path

import numpy as np
import pytest
import scipy.linalg
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.configuration import set_hypothesis_home_dir

import symqm.dynamics
import symqm.operators
from symqm import (IntegratorConfig, ObservableFunction, SymplecticSpace, integrate, make_hermitian,
                   parse_operator_expr, trajectory_diagnostics)
from symqm.errors import NonConvergenceError
from symqm.operators import _BLOCK_ENTRIES, _ROW_BLOCK
from symqm.sampling import random_hermitian, random_unit_state

set_hypothesis_home_dir(Path(tempfile.gettempdir()) / "symqm-hypothesis")

SEEDED = settings(database=None, derandomize=True, max_examples=30, deadline=None)

# More steps than one run of the increment loop.
STEPS = 300


def _reference(method, h, hbar, psi, dt, steps, tol=1e-13, max_iter=50):
    """States after every step, and the fixed-point iterations of every step."""
    k = (-1j / hbar) * h.matrix
    eye = np.eye(psi.shape[0], dtype=complex)
    forward = eye + (dt / 2.0) * k
    backward = scipy.linalg.lu_factor(eye - (dt / 2.0) * k)
    states, counts = [psi], [0]
    for step in range(1, steps + 1):
        iterations = 0
        if method == "midpoint":
            y = psi + dt * (k @ psi)
            for iterations in range(1, max_iter + 1):
                y_next = psi + dt * (k @ (0.5 * (psi + y)))
                delta = float(np.linalg.norm(y_next - y))
                y = y_next
                if delta <= tol:
                    break
            else:
                raise NonConvergenceError(step, max_iter)
            psi = y
        elif method == "cayley":
            psi = scipy.linalg.lu_solve(backward, forward @ psi)
        else:
            k1 = k @ psi
            k2 = k @ (psi + 0.5 * dt * k1)
            k3 = k @ (psi + 0.5 * dt * k2)
            k4 = k @ (psi + dt * k3)
            psi = psi + (dt / 6.0) * (k1 + 2.0 * k2 + 2.0 * k3 + k4)
        states.append(psi)
        counts.append(iterations)
    return np.array(states), np.array(counts)


def _flow(n, seed, hbar, norm_bound=1.0, real=False):
    """A seeded ``<H>``; ``real`` keeps the real part of ``H``, a symmetric float64 matrix."""
    m = random_hermitian(n, seed, norm_bound=norm_bound)
    h = make_hermitian(m.real if real else m)
    return h, ObservableFunction.expectation_of(h, SymplecticSpace(n, hbar=hbar))


def _generic(h, space):
    """``<H>`` as a callable, whose midpoint steps iterate to their fixed point."""
    return ObservableFunction.from_callable(lambda v: np.vdot(v, h.matrix @ v).real, space)


def _assert_matches_reference(traj, states, stride):
    # On a linear field every method takes one step, with no iterations.
    np.testing.assert_array_equal(traj.solver_iterations, 0)
    assert np.max(np.abs(traj.states - states[::stride])) <= 1e-12


@SEEDED
@given(n=st.integers(min_value=1, max_value=8), seed=st.integers(min_value=0, max_value=2**16),
       hbar=st.sampled_from([0.7, 2.0]), stride=st.sampled_from([1, 5]),
       dt=st.floats(min_value=1e-3, max_value=0.1),
       method=st.sampled_from(["midpoint", "cayley", "rk4"]), real=st.booleans())
def test_increment_loop_matches_per_step_reference(n, seed, hbar, stride, dt, method, real):
    h, f = _flow(n, seed, hbar, real=real)
    assert h.matrix.dtype == np.float64 or not real  # a 1 x 1 Hermitian matrix is real anyway
    psi = random_unit_state(n, seed, 1)
    states, _ = _reference(method, h, hbar, psi, dt, STEPS)
    traj = integrate(f, psi, IntegratorConfig(method, dt, STEPS, stride=stride))
    _assert_matches_reference(traj, states, stride)


def _complex_increment(h, method, dt, hbar):
    """``Q`` by the complex formulas, as the flow once built it for every ``H``."""
    a = (0.5 * dt) * ((-1j / hbar) * h)
    eye = np.eye(h.shape[0], dtype=complex)
    if method == "rk4":
        a *= 2.0
        return a @ (eye + (a / 2.0) @ (eye + (a / 3.0) @ (eye + a / 4.0)))
    q = np.linalg.solve(np.subtract(eye, a, out=eye), a)
    q *= 2.0
    return q


def _real_increment(h, method, dt, hbar):
    """``Q`` by the real formulas on one whole float64 matrix, with ``.flat`` diagonals."""
    n = h.shape[0]
    q = np.empty((n, n), dtype=complex)
    if method == "rk4":
        u = (dt / hbar) * h
        u2 = u @ u
        part = u2 / 6.0
        part.flat[::n + 1] -= 1.0
        q.imag = u @ part
        np.divide(u2, 24.0, out=part)
        part.flat[::n + 1] -= 0.5
        q.real = u2 @ part
        return q
    m = (0.5 * dt / hbar) * h
    square = m @ m
    square.flat[::n + 1] += 1.0
    y = np.linalg.solve(square, m)
    np.multiply(m @ y, -2.0, out=q.real)
    np.multiply(y, -2.0, out=q.imag)
    return q


def _whole_increment(h, method, dt, hbar):
    """``Q`` of the whole matrix, by the formula of its dtype."""
    return (_complex_increment if np.iscomplexobj(h) else _real_increment)(h, method, dt, hbar)


def _symmetric(n, seed):
    g = np.random.default_rng(seed).standard_normal((n, n))
    return g + g.T


@pytest.mark.parametrize("method", ["cayley", "rk4"])
@pytest.mark.parametrize("dt, hbar", [(1e-3, 1.0), (0.05, 0.7), (0.5, 2.0)])
@pytest.mark.parametrize("n", [1, 2, 5, 16, 64])
def test_real_increment_matches_the_complex_formula(n, dt, hbar, method):
    h = _symmetric(n, n)
    q = symqm.dynamics._increment(h, method, dt, hbar)
    reference = _complex_increment(h.astype(complex), method, dt, hbar)
    assert q.dtype == np.complex128
    assert np.max(np.abs(q - reference)) <= 4 * n * np.finfo(float).eps * np.max(np.abs(reference))


@pytest.mark.parametrize("method", ["midpoint", "cayley", "rk4"])
def test_complex_increment_keeps_its_bits(method):
    h = random_hermitian(6, 11)
    np.testing.assert_array_equal(symqm.dynamics._increment(h, method, 0.05, 0.7),
                                  _complex_increment(h, method, 0.05, 0.7))


@pytest.mark.parametrize("method, reals", [("cayley", 3), ("rk4", 4)])
def test_real_increment_makes_no_complex_temporary(method, reals):
    n = 256
    h = _symmetric(n, 5)
    peaks = []
    for matrix in (h, h.astype(complex)):
        tracemalloc.start()
        try:
            q = symqm.dynamics._increment(matrix, method, 0.05, 0.7)
            peaks.append(tracemalloc.get_traced_memory()[1])
        finally:
            tracemalloc.stop()
    # Q and at most three (Cayley) or four (RK4) real n x n arrays at once, plus
    # 64 KiB of small objects; the complex formulas hold more complex n x n arrays.
    bound = q.nbytes + reals * h.nbytes + 2**16
    assert peaks[0] <= bound < peaks[1], peaks


# A large dt*||H|| and a loose solver_tol, under which the fixed-point
# iterate would be far from unitary; the linear flow does not read the tolerance.
LOOSE = {"dt": 0.4, "steps": 300, "solver_tol": 3e-2}


def test_linear_midpoint_is_cayley_whatever_the_solver_settings():
    _, f = _flow(4, 7, 0.7, norm_bound=0.7)
    psi = random_unit_state(4, 7, 1)
    cayley = integrate(f, psi, IntegratorConfig("cayley", **LOOSE))
    for max_iter in (1, 50):
        mid = integrate(f, psi, IntegratorConfig("midpoint", solver_max_iter=max_iter, **LOOSE))
        np.testing.assert_array_equal(mid.states, cayley.states)
        np.testing.assert_array_equal(mid.solver_iterations, 0)


@pytest.mark.parametrize("method, options", [
    ("midpoint", {"dt": 0.05, "steps": 600}),
    ("midpoint", LOOSE),
    ("cayley", {"dt": 0.05, "steps": 600}),
    ("rk4", {"dt": 0.05, "steps": 600}),
])
def test_stored_states_bit_identical_across_strides(method, options):
    _, f = _flow(5, 3, 0.7, norm_bound=0.7)
    psi = random_unit_state(5, 3, 1)
    full = integrate(f, psi, IntegratorConfig(method, **options))
    for stride in (5, 10, options["steps"]):
        thin = integrate(f, psi, IntegratorConfig(method, stride=stride, **options))
        np.testing.assert_array_equal(thin.states, full.states[::stride])
        np.testing.assert_array_equal(thin.solver_iterations, full.solver_iterations[::stride])


@pytest.mark.parametrize("hbar", [0.7, 2.0])
@pytest.mark.parametrize("options, max_iter", [
    ({"dt": 0.4, "steps": 300, "solver_tol": 5e-2}, 1),
    ({"dt": 0.8, "steps": 1000, "solver_tol": 1e-2}, 5),  # raises in the fourth block
])
def test_divergent_step_raises_at_the_reference_step(hbar, options, max_iter):
    # The norm changes under the loose tolerance until a step needs more than
    # solver_max_iter iterations, well into the run.
    h, f = _flow(4, 7, hbar, norm_bound=hbar)
    psi = random_unit_state(4, 7, 1)
    with pytest.raises(NonConvergenceError) as ref:
        _reference("midpoint", h, hbar, psi, options["dt"], options["steps"],
                   tol=options["solver_tol"], max_iter=max_iter)
    assert ref.value.step > 1
    with pytest.raises(NonConvergenceError) as err:
        integrate(_generic(h, f.space), psi,
                  IntegratorConfig("midpoint", solver_max_iter=max_iter, **options))
    assert (err.value.step, err.value.iterations) == (ref.value.step, ref.value.iterations)


def _at_reach(monkeypatch, reach, h):
    """Let the step-power tables of a flow on ``h`` hold ``reach`` steps."""
    entries = sum(idx.size * idx.shape[1] for idx in h.sectors)
    monkeypatch.setattr(symqm.dynamics, "_BLOCK_ENTRIES", reach * entries)


# 1 is the per-step recurrence; 7 divides neither 300 nor a block; 256 is a block.
REACHES = (1, 7, 256)


def _seeded_flow():
    _, f = _flow(4, 7, 0.7, norm_bound=0.7)
    return f, random_unit_state(4, 7, 1)


def _empty_fast_mode():
    # The state never enters the mode of eigenvalue 100, where RK4's step
    # gains about 21.5: its step powers overflow long before 256 steps, though
    # every state stays in the slow mode.  Midpoint's step is unitary there.
    f = ObservableFunction.expectation_of(make_hermitian(np.diag([1.0, 100.0])),
                                          SymplecticSpace(2))
    return f, np.array([1.0, 0.0], dtype=complex)


@pytest.mark.parametrize("flow, method, options", [
    (_seeded_flow, "midpoint", {"dt": 0.05, "steps": 300}),
    (_seeded_flow, "midpoint", LOOSE),
    (_seeded_flow, "cayley", {"dt": 0.05, "steps": 300}),
    (_seeded_flow, "rk4", {"dt": 0.05, "steps": 300}),
    (_empty_fast_mode, "midpoint", {"dt": 0.05, "steps": 300}),
    (_empty_fast_mode, "rk4", {"dt": 0.05, "steps": 300}),
])
def test_run_boundaries_move_nothing(monkeypatch, flow, method, options):
    f, psi = flow()
    runs = []
    for reach in REACHES:
        _at_reach(monkeypatch, reach, f.operator)
        runs.append(integrate(f, psi, IntegratorConfig(method, **options)))
    assert np.isfinite(runs[0].states).all()
    for traj in runs[1:]:
        np.testing.assert_array_equal(traj.solver_iterations, runs[0].solver_iterations)
        assert np.max(np.abs(traj.states - runs[0].states)) <= 1e-13


@pytest.mark.parametrize("hbar", [0.7, 2.0])
@pytest.mark.parametrize("options, max_iter", [
    ({"dt": 0.4, "steps": 300, "solver_tol": 5e-2}, 1),
    ({"dt": 0.8, "steps": 1000, "solver_tol": 1e-2}, 5),
])
def test_run_boundaries_keep_the_divergent_step(monkeypatch, hbar, options, max_iter):
    # The generic flow steps one at a time whatever the table holds; <H> itself
    # takes every step at each reach.
    h, f = _flow(4, 7, hbar, norm_bound=hbar)
    psi = random_unit_state(4, 7, 1)
    cfg = IntegratorConfig("midpoint", solver_max_iter=max_iter, **options)
    raised = set()
    for reach in REACHES:
        _at_reach(monkeypatch, reach, h)
        with pytest.raises(NonConvergenceError) as err:
            integrate(_generic(h, f.space), psi, cfg)
        raised.add((err.value.step, err.value.iterations))
        assert np.isfinite(integrate(f, psi, cfg).states).all()
    assert len(raised) == 1


def _long_flow():
    """The long-flow benchmark scenario: 40,000 midpoint steps on the 3-qubit
    chain from the uniform state."""
    chain = parse_operator_expr("0.5*X0*X1 + 0.5*X1*X2 + 0.3*Z0 + 0.3*Z1 + 0.3*Z2")
    f = ObservableFunction.expectation_of(make_hermitian(chain.to_matrix(num_qubits=3)),
                                          SymplecticSpace(8))
    return integrate(f, np.ones(8) / np.sqrt(8), IntegratorConfig("midpoint", 1e-3, 40000))


def test_long_midpoint_flow_keeps_norm_and_energy():
    # Each run of steps takes its states from one table of step powers, whose
    # round-off would show here first.
    traj = _long_flow()
    diagnostics = trajectory_diagnostics(traj)
    assert diagnostics.max_norm_drift <= 1e-13
    assert diagnostics.max_energy_drift <= 1e-13


def test_long_flow_holds_its_states_once():
    tracemalloc.start()
    try:
        traj = _long_flow()
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    arrays = (traj.times, traj.states, traj.norms, traj.energies, traj.solver_iterations)
    # integrate freezes the arrays it made and the trajectory adopts them, and takes
    # the norms a block at a time; a copy of each peaked at 2.05x, one norm over
    # all states at 1.80x.
    assert peak <= 1.25 * sum(arr.nbytes for arr in arrays)


# The sector flow: each connected block of H's pattern stepped apart.


def _pauli_operator(expr, q=3):
    return make_hermitian(parse_operator_expr(expr).to_matrix(num_qubits=q))


def _chain_operator(q, extra=""):
    terms = [f"0.5*X{k}*X{k + 1}" for k in range(q - 1)] + [f"0.3*Z{k}" for k in range(q)]
    return _pauli_operator(" + ".join(terms) + extra, q)


def _interleaved_blocks(real):
    """Dense random blocks of sizes 1, 3, 4, 3 and 1 on shuffled indices: groups of unequal sizes."""
    rng = np.random.default_rng(33)
    perm = rng.permutation(12)
    m = np.zeros((12, 12), dtype=float if real else complex)
    for idx in np.split(perm, [1, 4, 8, 11]):
        g = rng.standard_normal((idx.size, idx.size))
        if not real:
            g = g + 1j * rng.standard_normal((idx.size, idx.size))
        m[np.ix_(idx, idx)] = g + g.conj().T
    return make_hermitian(m)


def _transposed(real):
    """A one-block operator that adopts, without a copy, the read-only F-ordered transpose
    of another's matrix: a stack of its blocks is not C-ordered."""
    g = random_hermitian(6, 4)
    h = make_hermitian(make_hermitian(g.real if real else g).matrix.T)
    assert h.matrix.flags.f_contiguous and not h.matrix.flags.c_contiguous
    return h


def _growing():
    """A slow 2 x 2 sector that RK4 grows by about 1.5 per step (dt * 1.5 = 3), and three
    singleton sectors that the state never enters: a zero mode and two fast modes, whose
    step powers overflow within a run."""
    m = np.diag([1.0, 0.0, 100.0, 1.0, 80.0])
    m[0, 3] = m[3, 0] = 0.5
    return make_hermitian(m)


SECTORED = {
    "chain3": (lambda: _chain_operator(3), [(2, 4)]),
    "chain9": (lambda: _chain_operator(9), [(2, 256)]),
    "diagonal": (lambda: _pauli_operator("0.3*Z0 + 0.2*Z1 + 0.1*Z2"), [(8, 1)]),
    "interleaved-real": (lambda: _interleaved_blocks(True), [(2, 1), (2, 3), (1, 4)]),
    "interleaved-complex": (lambda: _interleaved_blocks(False), [(2, 1), (2, 3), (1, 4)]),
    "Y0*I2": (lambda: _pauli_operator("Y0*I2"), [(4, 2)]),
    "transposed-real": (lambda: _transposed(True), [(1, 6)]),
    "transposed-complex": (lambda: _transposed(False), [(1, 6)]),
}


def _recurrence(q, psi, steps, stride):
    """The stored states of the whole-matrix recurrence ``psi + Q psi``, one step at a time."""
    states = [psi]
    for step in range(1, steps + 1):
        psi = psi + q @ psi
        if step % stride == 0:
            states.append(psi)
    return np.array(states)


def _assert_rows_close(states, reference):
    # Round-off of each stored row, relative to its own size (the growing flow reaches 1e50).
    assert np.isfinite(reference).all()
    scale = np.maximum(np.max(np.abs(reference), axis=1), 1.0)
    assert np.max(np.abs(states - reference).max(axis=1) / scale) <= 1e-12


@pytest.mark.parametrize("stride", [1, 3])
@pytest.mark.parametrize("method", ["cayley", "midpoint", "rk4"])
@pytest.mark.parametrize("name", sorted(SECTORED))
def test_sector_flow_matches_the_whole_matrix_recurrence(name, method, stride):
    build, shapes = SECTORED[name]
    h = build()
    assert [idx.shape for idx in h.sectors] == shapes
    n, hbar, dt = h.dim, 0.7, 0.05
    f = ObservableFunction.expectation_of(h, SymplecticSpace(n, hbar=hbar))
    psi = random_unit_state(n, 5, 1)
    traj = integrate(f, psi, IntegratorConfig(method, dt, STEPS, stride=stride))
    reference = _recurrence(_whole_increment(h.matrix, "rk4" if method == "rk4" else "cayley", dt, hbar),
                            psi, STEPS, stride)
    np.testing.assert_array_equal(traj.solver_iterations, 0)
    _assert_rows_close(traj.states, reference)


@pytest.mark.parametrize("stride", [1, 3])
def test_growing_sector_flow_cuts_its_tables(stride):
    h = _growing()
    assert [idx.shape for idx in h.sectors] == [(3, 1), (1, 2)]
    dt, hbar = 2.0, 1.0
    # The fast sectors' powers overflow well before a run of 256 steps.
    fast = h.matrix[2:3, 2:3][None]
    fast_q = symqm.dynamics._increment(fast, "rk4", dt, hbar)
    assert symqm.dynamics._step_powers(fast_q, _ROW_BLOCK).shape[1] < 64
    f = ObservableFunction.expectation_of(h, SymplecticSpace(5, hbar=hbar))
    psi = np.array([0.6, 0.0, 0.0, 0.8, 0.0], dtype=complex)
    traj = integrate(f, psi, IntegratorConfig("rk4", dt, STEPS, stride=stride))
    reference = _recurrence(_whole_increment(h.matrix, "rk4", dt, hbar), psi, STEPS, stride)
    assert np.max(np.abs(reference[-1])) > 1e40  # the flow grows
    _assert_rows_close(traj.states, reference)


def _whole_matrix_flow(h, method, dt, hbar, psi, steps, stride):
    """The flow on the whole matrix: one 2-D ``Q``, one 2-D table of step powers within
    ``_BLOCK_ENTRIES`` entries, and one ``np.dot`` per run."""
    n = psi.shape[0]
    q = _whole_increment(h, "rk4" if method == "rk4" else "cayley", dt, hbar)
    reach = max(1, min(_ROW_BLOCK, _BLOCK_ENTRIES // n**2, steps))
    table = q
    if reach > 1:
        table = np.empty((reach, n, n), dtype=complex)
        table[0] = q
        for previous, power in zip(table, table[1:]):
            np.matmul(q, previous, out=power)
            power += q
            power += previous
        table = table.reshape(-1, n)
    states = np.empty((steps // stride + 1, n), dtype=complex)
    states[0] = psi
    run = np.empty((reach + 1, n), dtype=complex)
    run[0] = psi
    for done in range(0, steps, reach):
        r = min(reach, steps - done)
        np.dot(table[:r * n], run[0], out=run[1:r + 1].reshape(-1))
        run[1:r + 1] += run[0]
        first = stride - done % stride
        kept = run[first:r + 1:stride]
        states[(done + first) // stride:][:len(kept)] = kept
        run[0] = run[r]
    return states


@pytest.mark.parametrize("stride", [1, 3])
@pytest.mark.parametrize("method", ["cayley", "midpoint", "rk4"])
@pytest.mark.parametrize("build", [lambda: _chain_operator(3, " + 0.2*Y0*Z1"), lambda: make_hermitian(random_hermitian(6, 4)),
                                   lambda: _transposed(False)],
                         ids=["chain+Y0Z1", "random", "transposed"])
def test_one_sector_flow_keeps_the_whole_matrix_bits(build, method, stride):
    h = build()
    assert [idx.shape for idx in h.sectors] == [(1, h.dim)]
    f = ObservableFunction.expectation_of(h, SymplecticSpace(h.dim, hbar=0.7))
    psi = random_unit_state(h.dim, 9, 1)
    traj = integrate(f, psi, IntegratorConfig(method, 0.05, STEPS, stride=stride))
    whole = _whole_matrix_flow(h.matrix, method, 0.05, 0.7, psi, STEPS, stride)
    np.testing.assert_array_equal(traj.states, whole)


@pytest.mark.parametrize("decompose_first", [True, False])
def test_decomposition_and_flow_share_one_search(monkeypatch, decompose_first):
    calls = []
    search = symqm.operators._connected_blocks

    def counted(m):
        calls.append(m.shape)
        return search(m)

    monkeypatch.setattr(symqm.operators, "_connected_blocks", counted)
    h = _chain_operator(4)
    f = ObservableFunction.expectation_of(h, SymplecticSpace(16))
    steps = [lambda: symqm.spectral_decompose(h),
             lambda: integrate(f, random_unit_state(16, 1, 1), IntegratorConfig("cayley", 0.05, 10))]
    for step in steps if decompose_first else steps[::-1]:
        step()
        assert calls == [(16, 16)]  # the first one searches, the second reads its blocks


def test_sector_flow_peak_memory():
    h = _chain_operator(9)
    n = h.dim
    f = ObservableFunction.expectation_of(h, SymplecticSpace(n))
    psi = np.ones(n) / np.sqrt(n)
    tracemalloc.start()
    try:
        integrate(f, psi, IntegratorConfig("cayley", 1e-3, 10))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    # The increment and its temporaries per parity sector of 256: 1.53x of a complex
    # n x n matrix; the whole-matrix increment peaked at 2.52x.
    assert peak <= 1.75 * n * n * 16
