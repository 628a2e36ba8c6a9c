"""Tests for the Pauli-string expression parser."""

import numpy as np
import pytest

from symqm import make_hermitian, parse_operator_expr
from symqm.errors import NonHermitianError, OperatorSyntaxError
from symqm.pauli import PauliFactor, PauliSumExpr, PauliTerm

X = np.array([[0, 1], [1, 0]], dtype=complex)
Y = np.array([[0, -1j], [1j, 0]], dtype=complex)
Z = np.array([[1, 0], [0, -1]], dtype=complex)
I2 = np.eye(2, dtype=complex)


def test_parse_single_factor():
    expr = parse_operator_expr("Z0")
    assert expr == PauliSumExpr((PauliTerm(1.0, (PauliFactor("Z", 0),)),))
    np.testing.assert_array_equal(expr.to_matrix(), Z)


def test_parse_weighted_sum_two_qubits():
    expr = parse_operator_expr("0.5*X0 + 0.5*X1")
    assert expr.num_qubits == 2
    assert expr.to_matrix().shape == (4, 4)
    expected = 0.5 * (np.kron(X, I2) + np.kron(I2, X))
    np.testing.assert_array_equal(expr.to_matrix(), expected)
    # hand Kronecker product, frozen
    np.testing.assert_array_equal(
        expr.to_matrix().real,
        [[0, 0.5, 0.5, 0], [0.5, 0, 0, 0.5], [0.5, 0, 0, 0.5], [0, 0.5, 0.5, 0]],
    )


def test_site_zero_is_leftmost_tensor_factor():
    expr = parse_operator_expr("Z0 + 0*X1")
    np.testing.assert_array_equal(expr.to_matrix(), np.kron(Z, I2))
    expr = parse_operator_expr("Z1 + 0*X0")
    np.testing.assert_array_equal(expr.to_matrix(), np.kron(I2, Z))


def test_same_site_factors_multiply():
    expr = parse_operator_expr("X0*Z0")
    np.testing.assert_array_equal(expr.to_matrix(), X @ Z)
    with pytest.raises(NonHermitianError):
        make_hermitian(expr.to_matrix())
    # whereas X*X is the identity
    np.testing.assert_array_equal(parse_operator_expr("X0*X0").to_matrix(), I2)


def test_whitespace_insensitive():
    tight = parse_operator_expr("0.5*X0+0.5*X1")
    spaced = parse_operator_expr("  0.5 * X0   +  0.5*  X1 ")
    assert tight == spaced


def test_subtraction_and_signed_coefficients():
    a = parse_operator_expr("X0 - 2.5*Z0")
    assert a.terms[1].coefficient == -2.5
    b = parse_operator_expr("-1*X0")
    assert b.terms[0].coefficient == -1.0
    c = parse_operator_expr("X0 + -2.5*Z0")
    assert c.terms[1].coefficient == -2.5


def test_scientific_notation_coefficients():
    expr = parse_operator_expr("1e-3*Z0 + 2.5E2*X1")
    assert expr.terms[0].coefficient == 1e-3
    assert expr.terms[1].coefficient == 250.0


def test_multi_digit_site_indices():
    expr = parse_operator_expr("Z11")
    assert expr.terms[0].factors[0].site == 11
    assert expr.num_qubits == 12


def test_syntax_errors_carry_positions():
    with pytest.raises(OperatorSyntaxError) as err:
        parse_operator_expr("Z0 + ")
    assert err.value.position == 5
    with pytest.raises(OperatorSyntaxError):
        parse_operator_expr("")
    with pytest.raises(OperatorSyntaxError):
        parse_operator_expr("Q0")
    with pytest.raises(OperatorSyntaxError):
        parse_operator_expr("2.5 Z0")  # missing '*'
    with pytest.raises(OperatorSyntaxError):
        parse_operator_expr("Z0 Z1")  # missing separator
    with pytest.raises(OperatorSyntaxError):
        parse_operator_expr("X")  # missing site index
    with pytest.raises(OperatorSyntaxError):
        parse_operator_expr("x0")  # lowercase


def _expression_corpus():
    """50 deterministic expressions covering the grammar."""
    rng = np.random.default_rng(12345)
    letters = "IXYZ"
    corpus = []
    for k in range(50):
        terms = []
        for _ in range(1 + k % 4):
            n_factors = 1 + int(rng.integers(0, 3))
            factors = "*".join(
                f"{letters[rng.integers(0, 4)]}{rng.integers(0, 4)}"
                for _ in range(n_factors)
            )
            if rng.random() < 0.7:
                coeff = float(np.round(rng.standard_normal() * 4, 3))
                terms.append(f"{coeff}*{factors}")
            else:
                terms.append(factors)
        corpus.append(" + ".join(terms))
    return corpus


def test_pretty_print_round_trip_corpus():
    for text in _expression_corpus():
        tree = parse_operator_expr(text)
        assert parse_operator_expr(tree.pretty()) == tree


def test_round_trip_preserves_matrices():
    for text in _expression_corpus()[:10]:
        tree = parse_operator_expr(text)
        again = parse_operator_expr(tree.pretty())
        nq = tree.num_qubits
        np.testing.assert_array_equal(tree.to_matrix(nq), again.to_matrix(nq))
