"""Pauli-string operator expressions.

Grammar (whitespace insensitive, sites 0-based)::

    expr   := term (('+'|'-') term)*
    term   := [real '*'] factor ('*' factor)*
    factor := ('I'|'X'|'Y'|'Z') site-index

``"0.5*X0 + 0.5*X1"`` denotes ``(X (x) I + I (x) X) / 2`` on two qubits:
site 0 is the leftmost tensor factor.  Factors multiply as operators, so
``"X0*Z0"`` parses to the (non-Hermitian) product ``XZ`` on site 0 and is
rejected later by operator validation.
"""

from __future__ import annotations

import re
from dataclasses import dataclass

import numpy as np

from .errors import OperatorSyntaxError

__all__ = [
    "PauliFactor",
    "PauliTerm",
    "PauliSumExpr",
    "parse_operator_expr",
]

PAULI_MATRICES = {
    "I": np.eye(2, dtype=complex),
    "X": np.array([[0.0, 1.0], [1.0, 0.0]], dtype=complex),
    "Y": np.array([[0.0, -1.0j], [1.0j, 0.0]], dtype=complex),
    "Z": np.array([[1.0, 0.0], [0.0, -1.0]], dtype=complex),
}

_NUMBER = re.compile(r"[+-]?(\d+\.?\d*|\.\d+)([eE][+-]?\d+)?")
_FACTOR = re.compile(r"([IXYZ])(\d+)")


@dataclass(frozen=True)
class PauliFactor:
    letter: str
    site: int


@dataclass(frozen=True)
class PauliTerm:
    coefficient: float
    factors: tuple


@dataclass(frozen=True)
class PauliSumExpr:
    """Real-weighted sum of products of single-site Pauli factors."""

    terms: tuple

    @property
    def num_qubits(self) -> int:
        return 1 + max(f.site for t in self.terms for f in t.factors)

    @property
    def dimension(self) -> int:
        return 2 ** self.num_qubits

    def to_matrix(self, num_qubits: int | None = None) -> np.ndarray:
        """Evaluate to a dense ``2^q x 2^q`` matrix, site 0 leftmost."""
        nq = self.num_qubits if num_qubits is None else int(num_qubits)
        if nq < self.num_qubits:
            raise ValueError(f"expression touches site {self.num_qubits - 1}, "
                             f"but only {nq} qubits requested")
        dim = 2 ** nq
        total = np.zeros((dim, dim), dtype=complex)
        for term in self.terms:
            acc = term.coefficient * np.eye(dim, dtype=complex)
            for factor in term.factors:
                acc = acc @ _embed(factor.letter, factor.site, nq)
            total += acc
        return total

    def pretty(self) -> str:
        """Canonical text form; reparses to an identical tree."""
        rendered = []
        for term in self.terms:
            factors = "*".join(f"{f.letter}{f.site}" for f in term.factors)
            rendered.append(f"{term.coefficient!r}*{factors}")
        return " + ".join(rendered)


def _embed(letter: str, site: int, num_qubits: int) -> np.ndarray:
    acc = np.array([[1.0 + 0.0j]])
    for k in range(num_qubits):
        acc = np.kron(acc, PAULI_MATRICES[letter] if k == site else PAULI_MATRICES["I"])
    return acc


class _Parser:
    def __init__(self, text: str):
        self.text = text
        self.pos = 0

    def _skip_ws(self):
        while self.pos < len(self.text) and self.text[self.pos].isspace():
            self.pos += 1

    def peek(self) -> str | None:
        self._skip_ws()
        return self.text[self.pos] if self.pos < len(self.text) else None

    def number(self) -> float | None:
        self._skip_ws()
        match = _NUMBER.match(self.text, self.pos)
        if match is None:
            return None
        self.pos = match.end()
        return float(match.group(0))

    def factor(self) -> PauliFactor:
        self._skip_ws()
        match = _FACTOR.match(self.text, self.pos)
        if match is None:
            raise OperatorSyntaxError(
                "expected a Pauli factor like 'X0'", self.pos
            )
        self.pos = match.end()
        return PauliFactor(match.group(1), int(match.group(2)))

    def term(self) -> PauliTerm:
        self._skip_ws()
        start = self.pos
        coefficient = 1.0
        head = self.peek()
        if head is not None and (head.isdigit() or head in "+-."):
            value = self.number()
            if value is None:
                raise OperatorSyntaxError("expected a real coefficient", self.pos)
            coefficient = value
            self._skip_ws()
            if self.peek() != "*":
                raise OperatorSyntaxError("expected '*' after coefficient", self.pos)
            self.pos += 1
        factors = [self.factor()]
        while self.peek() == "*":
            self.pos += 1
            factors.append(self.factor())
        if not factors:
            raise OperatorSyntaxError("empty term", start)
        return PauliTerm(coefficient, tuple(factors))

    def expr(self) -> PauliSumExpr:
        terms = [self.term()]
        while True:
            head = self.peek()
            if head is None:
                break
            if head not in "+-":
                raise OperatorSyntaxError(f"unexpected character {head!r}", self.pos)
            sign = 1.0 if head == "+" else -1.0
            self.pos += 1
            nxt = self.term()
            terms.append(PauliTerm(sign * nxt.coefficient, nxt.factors))
        return PauliSumExpr(tuple(terms))


def parse_operator_expr(text: str) -> PauliSumExpr:
    """Parse a Pauli-sum expression; raises with the offending position."""
    parser = _Parser(text)
    if parser.peek() is None:
        raise OperatorSyntaxError("empty expression", 0)
    return parser.expr()
