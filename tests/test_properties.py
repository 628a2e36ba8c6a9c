"""Seeded property tests of the Pauli build, the spectral data, the propagator
and the conserving integrators.

The bit-form ``PauliSumExpr.to_matrix`` is compared bit for bit with a
Kronecker-product build kept here as the reference, and the array gauge fix
and ordering of ``HermitianOperator.spectral`` with a per-column reference
that decomposes each connected block (``scipy.sparse.csgraph``) with its own
``eigh`` call.  Real symmetric and complex Hermitian matrices, permuted
block-diagonal ones among them, meet the eigenpair bounds, and each
eigenvector lies on one block.
``SpectralData.propagate`` is compared with ``scipy.linalg.expm``, an
independent reference, and checked for the group law and unitarity.
Midpoint and Cayley conserve the quadratic invariants norm and ``<H>``
(Hairer, Lubich & Wanner, *Geometric Numerical Integration*, 2006) up to
the solver tolerance.  The Poisson bracket is antisymmetric, satisfies
Jacobi and Leibniz, and brackets every ``<A>`` with ``<I>`` to zero; its
directional FD kernel matches the closed form to FD round-off.  The
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
from scipy.sparse.csgraph import connected_components

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
from symqm.brackets import (
    _closed_form_brackets,
    _closed_form_field,
    _fd_bracket,
    _observable_values,
)
from symqm.operators import _product
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
    assert actual.dtype == expected.dtype and actual.shape == expected.shape
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
    actual, reference = expr.to_matrix(num_qubits), _kronecker_reference(expr, num_qubits)
    # The dtype rule: float64 iff the phase of every term's bit form is even.
    real = all(term.bit_form(num_qubits)[2] % 2 == 0 for term in expr.terms)
    assert actual.dtype == (np.float64 if real else np.complex128)
    if real:  # the reference's imaginary parts are all +0.0, and its real parts the same bits
        _assert_same_bits(np.ascontiguousarray(reference.imag), np.zeros(reference.shape))
        reference = np.ascontiguousarray(reference.real)
    _assert_same_bits(actual, reference)


def _fix_phase(column):
    """Rotate so the largest-magnitude component (first on ties) is real positive."""
    mags = np.abs(column)
    k = int(np.argmax(mags))
    if mags[k] == 0.0:
        return column
    return column * (column[k].conjugate() / mags[k])


def _components(m):
    """Index arrays of the connected components of the nonzero pattern of ``m``."""
    count, labels = connected_components(m != 0, directed=False)
    return [np.flatnonzero(labels == c) for c in range(count)]


def _component_stack(m):
    """The diagonal blocks of ``m`` on its components, all of one size, stacked."""
    return np.stack([m[np.ix_(idx, idx)] for idx in _components(m)])


def _assert_spectral_matches_per_column_reference(h):
    # The solver rule: the real symmetric solver when no imaginary part is nonzero,
    # and one eigh call per component, its eigenvectors embedded in full columns.
    m = h.matrix.real if not h.matrix.imag.any() else h.matrix
    n = m.shape[0]
    vals, cols = [], []
    for idx in _components(m):
        block_vals, block_vecs = np.linalg.eigh(m[np.ix_(idx, idx)])
        full = np.zeros((n, idx.size), dtype=block_vecs.dtype)
        full[idx] = block_vecs
        vals.extend(block_vals)
        cols.extend(_fix_phase(full[:, k]) for k in range(idx.size))
    order = sorted(range(n), key=lambda k: (vals[k], tuple(cols[k].real)))
    spectral = spectral_decompose(h)
    _assert_same_bits(spectral.eigenvalues, np.array(vals)[order])
    # The eigenbasis keeps the dtype of the solver's blocks: float64 for a real matrix.
    _assert_same_bits(spectral.eigenvectors, np.column_stack([cols[k] for k in order]))


@st.composite
def block_diagonal_matrices(draw, dtype):
    """Block-diagonal symmetric (``float``) or Hermitian (``complex``) matrices, rows
    and columns permuted at random.

    Block sizes include 1 and repeat, and a repeated size is sometimes an exact
    copy of the earlier block, so eigenvalues tie exactly across blocks.
    """
    rng = np.random.default_rng(draw(seeds))
    blocks = []
    for size in draw(st.lists(st.sampled_from([1, 1, 2, 3, 5]), min_size=1, max_size=6)):
        same = [b for b in blocks if b.shape[0] == size]
        if same and draw(st.booleans()):
            blocks.append(same[0])
            continue
        b = rng.standard_normal((size, size)).astype(dtype)
        if dtype is complex:
            b += 1j * rng.standard_normal((size, size))
        blocks.append(b + b.conj().T)
    m = scipy.linalg.block_diag(*blocks)
    p = rng.permutation(m.shape[0])
    return m[np.ix_(p, p)]


@SEEDED
@given(n=dims, seed=seeds,
       expr=pauli_sums(3, st.integers(min_value=-2, max_value=2).map(float)),
       blocks=st.sampled_from([float, complex]).flatmap(block_diagonal_matrices))
def test_array_gauge_fix_matches_per_column_reference(n, seed, expr, blocks):
    _assert_spectral_matches_per_column_reference(make_hermitian(random_hermitian(n, seed)))
    # Small integer Pauli sums have exactly repeated eigenvalues.
    m = expr.to_matrix()
    _assert_spectral_matches_per_column_reference(make_hermitian(m + m.conj().T))
    _assert_spectral_matches_per_column_reference(make_hermitian(blocks))


@pytest.mark.parametrize("text", ["Z0 + Z1 + Z2", "I0*I3", "X0*X1 + Y0*Y1 + Z2",
                                  "X0*Y1 - Y0*X1 + Z0*Z1"])
def test_array_gauge_fix_orders_exact_ties_as_reference(text):
    # Each operator has exactly equal eigenvalues whose order the tie-break decides.
    h = make_hermitian(parse_operator_expr(text).to_matrix())
    assert np.any(np.diff(spectral_decompose(h).eigenvalues) == 0.0)
    _assert_spectral_matches_per_column_reference(h)


@pytest.mark.parametrize("q, extra, blocks", [(8, "", 2), (9, "", 2), (10, "", 2),
                                             (8, " + 0.2*Y0*Z1 + 0.1*X0*Y1", 1)],
                         ids=["chain8", "chain9", "chain10", "complex-chain8"])
def test_array_gauge_fix_matches_per_column_reference_at_benchmark_sizes(q, extra, blocks):
    # The benchmark's chains (n = 256 to 1024, two real parity blocks) and a complex
    # operator that is one block, at sizes the drawn cases above do not reach.
    terms = [f"0.5*X{k}*X{k + 1}" for k in range(q - 1)] + [f"0.3*Z{k}" for k in range(q)]
    h = make_hermitian(parse_operator_expr(" + ".join(terms) + extra).to_matrix(q))
    assert len(_components(h.matrix)) == blocks
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
    # Its imaginary parts are all -0.0, so it is stored as its real part.
    assert signed.matrix.dtype == np.float64
    _assert_same_bits(signed.matrix, _real_with_negative_zero_imaginary_parts().real.copy())
    for h in (chain, signed):
        spectral_decompose(h)
        assert seen[-1].dtype == np.float64
        # One stacked call: the chain's two 2 x 2 parity blocks, the signed matrix whole.
        _assert_same_bits(seen[-1], _component_stack(h.matrix.real))
    assert len(seen) == 2


def test_complex_matrices_keep_the_complex_solver(monkeypatch):
    seen = _recorded_eigh_inputs(monkeypatch)
    h = make_hermitian(parse_operator_expr("X0*Y1 + Z0").to_matrix())
    spectral_decompose(h)
    assert len(seen) == 1 and seen[0].dtype == np.complex128
    _assert_same_bits(seen[0], _component_stack(h.matrix))
    # The complex path decomposes as the real one: the complex solver on each
    # block, then the per-column gauge fix and order.
    _assert_spectral_matches_per_column_reference(h)


@st.composite
def real_symmetric_matrices(draw):
    """Random real symmetric matrices, permuted block-diagonal ones, and real Pauli
    sums (even ``Y`` count per term)."""
    kind = draw(st.sampled_from(["dense", "blocks", "pauli"]))
    if kind == "dense":
        n = draw(st.integers(min_value=1, max_value=16))
        rng = np.random.default_rng(draw(seeds))
        m = rng.standard_normal((n, n))
        return m + m.T
    if kind == "blocks":
        return draw(block_diagonal_matrices(float))
    q = draw(st.integers(min_value=1, max_value=4))
    strings = st.lists(st.sampled_from("IXYZ"), min_size=q, max_size=q).filter(
        lambda letters: letters.count("Y") % 2 == 0)
    terms = draw(st.lists(st.tuples(st.floats(min_value=-2.0, max_value=2.0), strings),
                          min_size=1, max_size=6))
    expr = PauliSumExpr(tuple(
        PauliTerm(c, tuple(PauliFactor(letter, site) for site, letter in enumerate(letters)))
        for c, letters in terms))
    return expr.to_matrix(q)


@st.composite
def hermitian_matrices(draw):
    """Random complex Hermitian matrices and permuted block-diagonal ones."""
    if draw(st.booleans()):
        return draw(block_diagonal_matrices(complex))
    return random_hermitian(draw(st.integers(min_value=1, max_value=16)), draw(seeds))


def _assert_eigenpair_bounds(h):
    """The eigenpair bounds ``64 n u (1 + max|a|)``, and each eigenvector on one block."""
    spectral = spectral_decompose(h)
    a, v = spectral.eigenvalues, spectral.eigenvectors
    n = a.shape[0]
    bound = 64 * n * np.finfo(float).eps * (1.0 + np.max(np.abs(a)))
    assert np.max(np.abs(h.matrix @ v - v * a)) <= bound
    assert np.max(np.abs(v.conj().T @ v - np.eye(n))) <= bound
    assert np.max(np.abs(a - np.linalg.eigvalsh(h.matrix))) <= bound
    labels = connected_components(h.matrix != 0, directed=False)[1]
    for k in range(n):
        assert np.unique(labels[v[:, k] != 0]).size == 1


@SEEDED
@given(m=real_symmetric_matrices())
def test_real_symmetric_solver_meets_eigenpair_bounds(m):
    h = make_hermitian(m)
    assert not h.matrix.imag.any()
    _assert_eigenpair_bounds(h)


@SEEDED
@given(m=hermitian_matrices())
def test_complex_hermitian_solver_meets_eigenpair_bounds(m):
    _assert_eigenpair_bounds(make_hermitian(m))


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


@SEEDED
@given(n=dims, seed=seeds, hbar=hbars, step=st.sampled_from([None, 1e-5]))
def test_directional_fd_bracket_matches_the_closed_form(n, seed, hbar, step):
    space, (a, b), psi = _expectation_case(n, seed, hbar, 2)
    f, g = (ObservableFunction.expectation_of(x, space) for x in (a, b))
    states = np.stack([psi, random_unit_state(n, seed, 3)])
    closed = _closed_form_brackets(f, g, states)
    scale = 1.0 + a.spectral_norm * b.spectral_norm / hbar
    tol = _fd_tolerance(step or DEFAULT_STEP, scale)
    # d<A>(X_<B>) along the closed-form field, as the bracket report takes it,
    # at two states at once, and along J grad <B> from values alone.
    along_field = _fd_bracket(lambda s: _observable_values(f, s), space, states,
                              _closed_form_field(g, states), step)
    assert np.max(np.abs(along_field - closed)) <= tol
    fd = poisson_bracket(f, g, psi, method="finite_difference", step=step)
    assert abs(fd - closed[0]) <= tol


@SEEDED
@given(n=dims, cols=dims, k=st.integers(min_value=0, max_value=6), seed=seeds, single=st.booleans(),
       real_rows=st.booleans(), real_matrix=st.booleans())
def test_product_matches_the_complex_product(n, cols, k, seed, single, real_rows, real_matrix):
    # One state or a (k, n) stack, times a real or complex (n, cols) matrix.
    rng = np.random.default_rng(seed)
    shape = (n,) if single else (k, n)
    rows = rng.standard_normal(shape) + (0.0 if real_rows else 1j * rng.standard_normal(shape))
    matrix = rng.standard_normal((n, cols)) + (0.0 if real_matrix else 1j * rng.standard_normal((n, cols)))
    got = _product(rows, matrix)
    want = rows.astype(complex) @ matrix.astype(complex)
    assert got.shape == want.shape
    assert got.dtype == (np.float64 if real_rows and real_matrix else np.complex128)
    if not real_matrix:  # a complex matrix multiplies the rows as they are
        _assert_same_bits(got.astype(complex), want)
    # Each part sums the same n products as the complex product, in another order:
    # within 2n ulps of the sum of their magnitudes.
    bound = 2 * n * np.finfo(float).eps * (np.abs(rows) @ np.abs(matrix))
    assert np.all(np.abs(got.real - want.real) <= bound)
    assert np.all(np.abs(np.imag(got) - want.imag) <= bound)
