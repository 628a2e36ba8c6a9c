"""Pauli-string operator expressions.

Grammar (whitespace insensitive, sites 0-based)::

    expr   := term (('+'|'-') term)*
    term   := [real '*'] factor ('*' factor)*
    factor := ('I'|'X'|'Y'|'Z') site-index

``"0.5*X0 + 0.5*X1"`` denotes ``(X (x) I + I (x) X) / 2`` on two qubits:
site 0 is the leftmost tensor factor.  Factors multiply as operators, so
``"X0*Z0"`` parses to the (non-Hermitian) product ``XZ`` on site 0 and is
rejected later by operator validation.

A product of factors on ``q`` qubits is held in binary symplectic form
``(x, z, phase)``, meaning ``i^phase X^x Z^z`` for ``q``-bit masks ``x`` and
``z`` with site 0 the most significant bit (Dehaene & De Moor, PRA 68,
042318, 2003).  It maps ``|j>`` to ``i^phase (-1)^popcount(j & z) |j XOR x>``,
a phased permutation whose ``2^q`` entries are written at once.
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

    def bit_form(self, num_qubits: int) -> tuple:
        """The factors' product as ``(x, z, phase)``, folded left to right:
        ``X_s`` flips bit ``s`` of ``x`` and negates if bit ``s`` of ``z`` is
        set (``ZX = -XZ``), ``Z_s`` flips bit ``s`` of ``z``, ``Y_s = i X_s Z_s``."""
        x = z = phase = 0
        for factor in self.factors:
            bit = 1 << (num_qubits - 1 - factor.site)
            if factor.letter in "XY":
                phase += (factor.letter == "Y") + (2 if z & bit else 0)
                x ^= bit
            if factor.letter in "ZY":
                z ^= bit
        return x, z, phase % 4


@dataclass(frozen=True)
class PauliSumExpr:
    """Real-weighted sum of products of single-site Pauli factors."""

    terms: tuple

    @property
    def num_qubits(self) -> int:
        return 1 + max(f.site for t in self.terms for f in t.factors)

    def to_matrix(self, num_qubits: int | None = None) -> np.ndarray:
        """Evaluate to a dense ``2^q x 2^q`` matrix, site 0 leftmost.

        The matrix is float64 when the phase of every term's bit form is even
        (``i^phase`` is real: an even number of ``Y`` factors, ``ZX = -XZ``
        counted), and complex128 otherwise.  It is returned read-only, so
        :class:`HermitianOperator` adopts it without a copy.
        """
        nq = self.num_qubits if num_qubits is None else int(num_qubits)
        if nq < self.num_qubits:
            raise ValueError(f"expression touches site {self.num_qubits - 1}, "
                             f"but only {nq} qubits requested")
        dim = 2 ** nq
        forms = [term.bit_form(nq) for term in self.terms]
        total = np.zeros((dim, dim), dtype=complex if any(phase % 2 for _, _, phase in forms) else float)
        j = np.arange(dim)
        for term, (x, z, phase) in zip(self.terms, forms):
            sign = np.where((j[:, None] & z) >> np.arange(nq) & 1, -1.0, 1.0).prod(axis=1)
            # i^phase is +-1 or +-i, so each entry adds exactly +-coefficient to one part.
            part = total.imag if phase % 2 else total.real
            part[j ^ x, j] += (-term.coefficient if phase >= 2 else term.coefficient) * sign
        total.setflags(write=False)
        return total

    def pretty(self) -> str:
        """Canonical text form; reparses to an identical tree."""
        rendered = []
        for term in self.terms:
            factors = "*".join(f"{f.letter}{f.site}" for f in term.factors)
            rendered.append(f"{term.coefficient!r}*{factors}")
        return " + ".join(rendered)


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
        coefficient = 1.0
        head = self.peek()
        if head is not None and (head.isdigit() or head in "+-."):
            value = self.number()
            if value is None:
                raise OperatorSyntaxError("expected a real coefficient", self.pos)
            coefficient = value
            if self.peek() != "*":
                raise OperatorSyntaxError("expected '*' after coefficient", self.pos)
            self.pos += 1
        factors = [self.factor()]
        while self.peek() == "*":
            self.pos += 1
            factors.append(self.factor())
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
