"""Seeded property tests of the Pauli build, the spectral data, the propagator
and the conserving integrators.

The bit-form ``PauliSumExpr.to_matrix`` is compared bit for bit with a
Kronecker-product build kept here as the reference, and the array gauge fix
and ordering of ``HermitianOperator.spectral`` with a per-column reference.
``SpectralData.propagate`` is compared with ``scipy.linalg.expm``, an
independent reference, and checked for the group law and unitarity.
Midpoint and Cayley conserve the quadratic invariants norm and ``<H>``
(Hairer, Lubich & Wanner, *Geometric Numerical Integration*, 2006) up to
the solver tolerance.  The Poisson bracket is antisymmetric, satisfies
Jacobi and Leibniz, and brackets every ``<A>`` with ``<I>`` to zero.  The
U(1) reduction: ``<I>`` also brackets every ``|u_n|^2`` to zero, and
``i*hbar*{<I>, u_n} = u_n``.
Hypothesis runs derandomized and without an example database, so every
run draws the same cases.
"""

import tempfile
from pathlib import Path

import numpy as np
import pytest
import scipy.linalg
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.configuration import set_hypothesis_home_dir

from symqm import (
    ComplexFunction,
    IntegratorConfig,
    ObservableFunction,
    SymplecticSpace,
    complex_bracket,
    integrate,
    make_hermitian,
    parse_operator_expr,
    poisson_bracket,
    spectral_decompose,
)
from symqm.pauli import PauliFactor, PauliSumExpr, PauliTerm
from symqm.sampling import random_hermitian, random_unit_state

# Hypothesis caches the constants of the source modules in its home
# directory while collecting, whatever the settings; keep that cache out of
# the working tree.
set_hypothesis_home_dir(Path(tempfile.gettempdir()) / "symqm-hypothesis")

SEEDED = settings(database=None, derandomize=True, max_examples=30, deadline=None)

dims = st.integers(min_value=1, max_value=8)
seeds = st.integers(min_value=0, max_value=2**16)
times = st.floats(min_value=-5.0, max_value=5.0)
hbars = st.sampled_from([0.7, 2.0])


def _case(n, seed):
    return make_hermitian(random_hermitian(n, seed)), random_unit_state(n, seed, 1)


@SEEDED
@given(n=dims, seed=seeds, t=times, hbar=hbars)
def test_propagate_matches_expm(n, seed, t, hbar):
    h, psi = _case(n, seed)
    out = spectral_decompose(h).propagate(psi, [t], hbar)[0]
    ref = scipy.linalg.expm(-1j * h.matrix * (t / hbar)) @ psi
    assert np.linalg.norm(out - ref) <= 1e-11 * (1.0 + h.spectral_norm * abs(t) / hbar)


@SEEDED
@given(n=dims, seed=seeds, t1=times, t2=times, hbar=hbars)
def test_propagate_group_law_and_norm(n, seed, t1, t2, hbar):
    h, psi = _case(n, seed)
    spectral = spectral_decompose(h)
    first = spectral.propagate(psi, [t1], hbar)[0]
    composed = spectral.propagate(first, [t2], hbar)[0]
    direct = spectral.propagate(psi, [t1 + t2], hbar)[0]
    assert np.linalg.norm(composed - direct) <= 1e-12 * (1.0 + h.spectral_norm)
    assert abs(np.linalg.norm(first) - 1.0) <= 1e-13


@SEEDED
@given(n=dims, seed=seeds, hbar=hbars)
def test_propagate_blocks_match_single_times(n, seed, hbar):
    # More times than one row block, so the rows come from several products.
    h, psi = _case(n, seed)
    spectral = spectral_decompose(h)
    ts = np.linspace(0.0, 3.0, 300)
    states = spectral.propagate(psi, ts, hbar)
    for k in (0, 255, 256, 299):
        single = spectral.propagate(psi, [ts[k]], hbar)[0]
        assert np.linalg.norm(states[k] - single) <= 1e-13


@SEEDED
@given(n=dims, seed=seeds, hbar=hbars, dt=st.floats(min_value=1e-3, max_value=0.1),
       method=st.sampled_from(["midpoint", "cayley"]))
def test_midpoint_and_cayley_conserve_norm_and_energy(n, seed, hbar, dt, method):
    h = make_hermitian(random_hermitian(n, seed, norm_bound=1.0))
    f = ObservableFunction.expectation_of(h, SymplecticSpace(n, hbar=hbar))
    cfg = IntegratorConfig(method, dt, 50)
    traj = integrate(f, random_unit_state(n, seed, 1), cfg)
    bound = 10 * cfg.steps * cfg.solver_tol
    assert np.max(np.abs(traj.norms - 1.0)) <= bound
    assert np.max(np.abs(traj.energies - traj.energies[0])) <= bound * (1.0 + h.spectral_norm)


PAULI = {
    "I": np.eye(2, dtype=complex),
    "X": np.array([[0.0, 1.0], [1.0, 0.0]], dtype=complex),
    "Y": np.array([[0.0, -1.0j], [1.0j, 0.0]], dtype=complex),
    "Z": np.array([[1.0, 0.0], [0.0, -1.0]], dtype=complex),
}


def _kronecker_reference(expr, num_qubits):
    """Each term as the product of its factors, each embedded by Kronecker products."""
    dim = 2 ** num_qubits
    total = np.zeros((dim, dim), dtype=complex)
    for term in expr.terms:
        acc = term.coefficient * np.eye(dim, dtype=complex)
        for factor in term.factors:
            embedded = np.array([[1.0 + 0.0j]])
            for site in range(num_qubits):
                embedded = np.kron(embedded, PAULI[factor.letter if site == factor.site else "I"])
            acc = acc @ embedded
        total += acc
    return total


def _assert_same_bits(actual, expected):
    # Compare bit patterns, so that -0.0 against +0.0 counts as a difference.
    assert actual.shape == expected.shape
    np.testing.assert_array_equal(actual.view(np.uint64), expected.view(np.uint64))


# Exact values such as 1 and -1 cancel to zero; tiny and signed-zero ones test the signs.
coefficients = st.one_of(st.sampled_from([0.0, -0.0, 1.0, -1.0, 2.0, 5e-324]),
                         st.floats(min_value=-1e6, max_value=1e6))


@st.composite
def pauli_sums(draw, max_qubits, coefficient):
    """Sums of up to five terms of up to five factors, sites repeating freely."""
    q = draw(st.integers(min_value=1, max_value=max_qubits))
    factor = st.builds(PauliFactor, st.sampled_from("IXYZ"), st.integers(0, q - 1))
    term = st.builds(PauliTerm, coefficient, st.lists(factor, min_size=1, max_size=5).map(tuple))
    return PauliSumExpr(tuple(draw(st.lists(term, min_size=1, max_size=5))))


@SEEDED
@given(expr=pauli_sums(6, coefficients), pad=st.integers(min_value=0, max_value=2))
def test_bit_form_build_matches_kronecker_reference(expr, pad):
    num_qubits = expr.num_qubits + pad
    _assert_same_bits(expr.to_matrix(num_qubits), _kronecker_reference(expr, num_qubits))


def _fix_phase(column):
    """Rotate so the largest-magnitude component (first on ties) is real positive."""
    mags = np.abs(column)
    k = int(np.argmax(mags))
    if mags[k] == 0.0:
        return column
    return column * (column[k].conjugate() / mags[k])


def _assert_spectral_matches_per_column_reference(h):
    # The solver rule: the real symmetric solver when no imaginary part is nonzero.
    m = h.matrix
    vals, vecs = np.linalg.eigh(m.real if not m.imag.any() else m)
    cols = [_fix_phase(vecs[:, k]) for k in range(vals.shape[0])]
    order = sorted(range(vals.shape[0]), key=lambda k: (vals[k], tuple(cols[k].real)))
    spectral = spectral_decompose(h)
    _assert_same_bits(spectral.eigenvalues, vals[order])
    _assert_same_bits(spectral.eigenvectors,
                      np.column_stack([cols[k] for k in order]).astype(complex))


@SEEDED
@given(n=dims, seed=seeds,
       expr=pauli_sums(3, st.integers(min_value=-2, max_value=2).map(float)))
def test_array_gauge_fix_matches_per_column_reference(n, seed, expr):
    _assert_spectral_matches_per_column_reference(make_hermitian(random_hermitian(n, seed)))
    # Small integer Pauli sums have exactly repeated eigenvalues.
    m = expr.to_matrix()
    _assert_spectral_matches_per_column_reference(make_hermitian(m + m.conj().T))


@pytest.mark.parametrize("text", ["Z0 + Z1 + Z2", "I0*I3", "X0*X1 + Y0*Y1 + Z2",
                                  "X0*Y1 - Y0*X1 + Z0*Z1"])
def test_array_gauge_fix_orders_exact_ties_as_reference(text):
    # Each operator has exactly equal eigenvalues whose order the tie-break decides.
    h = make_hermitian(parse_operator_expr(text).to_matrix())
    assert np.any(np.diff(spectral_decompose(h).eigenvalues) == 0.0)
    _assert_spectral_matches_per_column_reference(h)


def _recorded_eigh_inputs(monkeypatch):
    """Patch ``np.linalg.eigh`` to record each matrix it receives."""
    seen, eigh = [], np.linalg.eigh

    def record(m):
        seen.append(m)
        return eigh(m)

    monkeypatch.setattr(np.linalg, "eigh", record)
    return seen


def _real_with_negative_zero_imaginary_parts():
    m = np.empty((3, 3), dtype=complex)
    m.real = [[1.0, 2.0, 0.0], [2.0, -1.0, 0.5], [0.0, 0.5, 3.0]]
    m.imag = -0.0
    return m


def test_real_matrices_take_the_real_symmetric_solver(monkeypatch):
    seen = _recorded_eigh_inputs(monkeypatch)
    chain = make_hermitian(parse_operator_expr("0.5*X0*X1 + 0.3*Z0 + 0.3*Z1").to_matrix())
    signed = make_hermitian(_real_with_negative_zero_imaginary_parts())
    assert np.all(np.signbit(signed.matrix.imag))
    for h in (chain, signed):
        spectral_decompose(h)
        assert seen[-1].dtype == np.float64
        _assert_same_bits(seen[-1], np.ascontiguousarray(h.matrix.real))
    assert len(seen) == 2


def test_complex_matrices_keep_the_complex_solver(monkeypatch):
    seen = _recorded_eigh_inputs(monkeypatch)
    h = make_hermitian(parse_operator_expr("X0*Y1 + Z0").to_matrix())
    spectral_decompose(h)
    assert len(seen) == 1 and seen[0].dtype == np.complex128
    _assert_same_bits(seen[0], h.matrix)
    # The complex path decomposes exactly as before: the complex solver on the
    # matrix itself, then the per-column gauge fix and order.
    _assert_spectral_matches_per_column_reference(h)


@st.composite
def real_symmetric_matrices(draw):
    """Random real symmetric matrices, and real Pauli sums (even ``Y`` count per term)."""
    if draw(st.booleans()):
        n = draw(st.integers(min_value=1, max_value=16))
        rng = np.random.default_rng(draw(seeds))
        m = rng.standard_normal((n, n))
        return m + m.T
    q = draw(st.integers(min_value=1, max_value=4))
    strings = st.lists(st.sampled_from("IXYZ"), min_size=q, max_size=q).filter(
        lambda letters: letters.count("Y") % 2 == 0)
    terms = draw(st.lists(st.tuples(st.floats(min_value=-2.0, max_value=2.0), strings),
                          min_size=1, max_size=6))
    expr = PauliSumExpr(tuple(
        PauliTerm(c, tuple(PauliFactor(letter, site) for site, letter in enumerate(letters)))
        for c, letters in terms))
    return expr.to_matrix(q)


@SEEDED
@given(m=real_symmetric_matrices())
def test_real_symmetric_solver_meets_eigenpair_bounds(m):
    h = make_hermitian(m)
    assert not h.matrix.imag.any()
    spectral = spectral_decompose(h)
    a, v = spectral.eigenvalues, spectral.eigenvectors
    n = a.shape[0]
    bound = 64 * n * np.finfo(float).eps * (1.0 + np.max(np.abs(a)))
    assert np.max(np.abs(h.matrix @ v - v * a)) <= bound
    assert np.max(np.abs(v.conj().T @ v - np.eye(n))) <= bound
    assert np.max(np.abs(a - np.linalg.eigvalsh(h.matrix))) <= bound


# Poisson-bracket identities.  For expectation observables the closed form
# {<A>,<B>} = <-i[A,B]/hbar> turns Jacobi into an identity of expectation
# brackets; for generic observables the central-difference (FD) backend
# carries an error of order step^2 + eps/step, which the tolerance follows.


def _bracket_operator(a, b, hbar):
    """``-i[A,B]/hbar``, the operator whose expectation is ``{<A>,<B>}``."""
    m = -1j * (a.matrix @ b.matrix - b.matrix @ a.matrix) / hbar
    return make_hermitian((m + m.conj().T) / 2.0)


def _expectation_case(n, seed, hbar, count):
    space = SymplecticSpace(n, hbar=hbar)
    ops = [make_hermitian(random_hermitian(n, seed, index=i)) for i in range(count)]
    return space, ops, random_unit_state(n, seed, count)


def _fd_tolerance(step, scale):
    return 10.0 * (step**2 + np.finfo(float).eps / step) * scale


@SEEDED
@given(n=dims, seed=seeds, hbar=hbars)
def test_poisson_bracket_antisymmetric_and_equal_to_commutator(n, seed, hbar):
    space, (a, b), psi = _expectation_case(n, seed, hbar, 2)
    f, g = (ObservableFunction.expectation_of(x, space) for x in (a, b))
    scale = 1.0 + a.spectral_norm * b.spectral_norm / hbar
    fg = poisson_bracket(f, g, psi)
    assert abs(fg + poisson_bracket(g, f, psi)) <= 1e-14 * scale
    commutator_side = ObservableFunction.expectation_of(_bracket_operator(a, b, hbar), space)
    assert abs(fg - commutator_side(psi)) <= 1e-13 * scale


@SEEDED
@given(n=dims, seed=seeds, hbar=hbars)
def test_poisson_bracket_jacobi_for_expectations(n, seed, hbar):
    space, (a, b, c), psi = _expectation_case(n, seed, hbar, 3)

    def outer(x, y, z):  # {<x>, {<y>, <z>}}
        inner = ObservableFunction.expectation_of(_bracket_operator(y, z, hbar), space)
        return poisson_bracket(ObservableFunction.expectation_of(x, space), inner, psi)

    jacobi = outer(a, b, c) + outer(b, c, a) + outer(c, a, b)
    scale = 1.0 + a.spectral_norm * b.spectral_norm * c.spectral_norm / hbar**2
    assert abs(jacobi) <= 1e-13 * scale


@SEEDED
@given(n=dims, seed=seeds, hbar=hbars)
def test_poisson_bracket_with_identity_vanishes(n, seed, hbar):
    space, (a,), psi = _expectation_case(n, seed, hbar, 1)
    f = ObservableFunction.expectation_of(a, space)
    norm = ObservableFunction.expectation_of(make_hermitian(np.eye(n)), space)
    scale = 1.0 + a.spectral_norm / hbar
    assert abs(poisson_bracket(f, norm, psi)) <= 1e-14 * scale
    step = 1e-5
    fd = poisson_bracket(f, norm, psi, method="finite_difference", step=step)
    assert abs(fd) <= _fd_tolerance(step, scale)


@SEEDED
@given(n=dims, seed=seeds, hbar=hbars, step=st.sampled_from([1e-3, 1e-4, 1e-5]))
def test_poisson_bracket_leibniz_for_generic_observables(n, seed, hbar, step):
    space, (a, b, c), psi = _expectation_case(n, seed, hbar, 3)
    am, bm, cm = a.matrix, b.matrix, c.matrix
    # Generic callables, none of them a quadratic form, so the FD backend runs.
    f = ObservableFunction.from_callable(
        lambda v: np.vdot(v, am @ v).real + 0.3 * np.sum(v.real**3), space)
    g = ObservableFunction.from_callable(
        lambda v: np.vdot(v, bm @ v).real * (1.0 + 0.2 * np.sum(v.imag)), space)
    h = ObservableFunction.from_callable(
        lambda v: np.sum(np.abs(v) ** 4) + np.vdot(v, cm @ v).real, space)
    gh = ObservableFunction.from_callable(lambda v: g(v) * h(v), space)
    lhs = poisson_bracket(f, gh, psi, step=step)
    rhs = (poisson_bracket(f, g, psi, step=step) * h(psi)
           + g(psi) * poisson_bracket(f, h, psi, step=step))
    scale = (1.0 + a.spectral_norm) * (1.0 + b.spectral_norm) * (1.0 + c.spectral_norm) / hbar
    assert abs(lhs - rhs) <= _fd_tolerance(step, scale)


# The U(1) reduction.  <I> generates the global phase psi -> exp(-i t/hbar) psi:
# it commutes with every |u_n|^2 and turns each coordinate u_n = <phi_n|.> at
# unit rate.  The default FD step is about sqrt(eps) per coordinate.
DEFAULT_STEP = float(np.sqrt(np.finfo(float).eps))


def _u1_case(n, seed, hbar):
    space = SymplecticSpace(n, hbar=hbar)
    norm = ObservableFunction.expectation_of(make_hermitian(np.eye(n)), space)
    phi = spectral_decompose(make_hermitian(random_hermitian(n, seed))).eigenvectors[:, seed % n]
    return space, norm, phi, random_unit_state(n, seed, 1)


@SEEDED
@given(n=dims, seed=seeds, hbar=hbars)
def test_squared_coordinates_commute_with_the_norm(n, seed, hbar):
    space, norm, phi, psi = _u1_case(n, seed, hbar)
    # A generic callable, so the bracket takes the FD path.
    weight = ObservableFunction.from_callable(lambda v: abs(np.vdot(phi, v)) ** 2, space)
    scale = 1.0 + 1.0 / hbar
    for step in (None, 1e-5):
        bracket = poisson_bracket(weight, norm, psi, step=step)
        assert abs(bracket) <= _fd_tolerance(step or DEFAULT_STEP, scale)


@SEEDED
@given(n=dims, seed=seeds, hbar=hbars)
def test_norm_turns_every_coordinate_at_unit_rate(n, seed, hbar):
    space, norm, phi, psi = _u1_case(n, seed, hbar)
    u = ComplexFunction.coordinate(phi, space)
    assert abs(1j * hbar * complex_bracket(norm, u, psi) - u(psi)) <= 1e-14
    for step in (None, 1e-5):
        fd = complex_bracket(norm, u, psi, method="finite_difference", step=step)
        assert abs(1j * hbar * fd - u(psi)) <= _fd_tolerance(step or DEFAULT_STEP, 1.0)
