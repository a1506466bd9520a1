"""GF(p) as an exact scalar domain: the tests' reference field.

The package does its F_q arithmetic on numpy residues only.  The tests check
it against exact linear algebra over these field elements: ExactMatrix over
PrimeFieldDomain(p), whose inverse divides by the pivots.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

import numpy as np

from hesspave.domains import Domain
from hesspave.exactla import ExactMatrix
from hesspave.oracle import _random_gl


class GF:
    """Element of a prime field F_p, p < 2^31."""

    __slots__ = ("v", "p")

    def __init__(self, v: int, p: int):
        self.v = v % p
        self.p = p

    def _coerce(self, other) -> "GF":
        if isinstance(other, GF):
            if other.p != self.p:
                raise ValueError(f"mixed characteristics {self.p} and {other.p}")
            return other
        if isinstance(other, int):
            return GF(other, self.p)
        return NotImplemented  # type: ignore[return-value]

    def __add__(self, other):
        o = self._coerce(other)
        return o if o is NotImplemented else GF(self.v + o.v, self.p)

    __radd__ = __add__

    def __sub__(self, other):
        o = self._coerce(other)
        return o if o is NotImplemented else GF(self.v - o.v, self.p)

    def __rsub__(self, other):
        o = self._coerce(other)
        return o if o is NotImplemented else GF(o.v - self.v, self.p)

    def __mul__(self, other):
        o = self._coerce(other)
        return o if o is NotImplemented else GF(self.v * o.v, self.p)

    __rmul__ = __mul__

    def __neg__(self):
        return GF(-self.v, self.p)

    def __truediv__(self, other):
        o = self._coerce(other)
        if o is NotImplemented:
            return o
        return GF(self.v * pow(o.v, -1, self.p), self.p)

    def __eq__(self, other):
        if isinstance(other, int):
            return self.v == other % self.p
        return isinstance(other, GF) and self.p == other.p and self.v == other.v

    def __hash__(self):
        return hash((self.v, self.p))

    def __bool__(self):
        return self.v != 0

    def __int__(self):
        return self.v

    def __repr__(self):
        return f"{self.v}"


def _is_prime(p: int) -> bool:
    if p < 2:
        return False
    d = 2
    while d * d <= p:
        if p % d == 0:
            return False
        d += 1
    return True


@dataclass(frozen=True)
class PrimeFieldDomain(Domain):
    p: int = 2

    def __post_init__(self):
        if not _is_prime(self.p) or self.p >= 2**31:
            raise ValueError(f"p must be a prime < 2^31, got {self.p}")

    @property
    def kind(self) -> str:  # type: ignore[override]
        return f"PrimeField({self.p})"

    def zero(self):
        return GF(0, self.p)

    def one(self):
        return GF(1, self.p)

    def from_int(self, k: int):
        return GF(k, self.p)

    def from_fraction(self, q: Fraction):
        return GF(q.numerator, self.p) / GF(q.denominator, self.p)

    def is_field(self) -> bool:
        return True

    def div(self, a, b):
        return a / b

    def elements(self):
        return [GF(v, self.p) for v in range(self.p)]


def conjugate(g: ExactMatrix, x: ExactMatrix) -> ExactMatrix:
    """g^{-1} X g over a field domain."""
    return g.inverse() @ x @ g


def random_gl(n: int, q: int, rng: np.random.Generator) -> ExactMatrix:
    """The g that oracle._random_gl draws from rng, as a matrix over GF(q)."""
    g, _ = _random_gl(n, q, rng)
    dom = PrimeFieldDomain(q)
    return ExactMatrix.from_rows(dom, [[dom.from_int(v) for v in row] for row in g.tolist()])


def residue_array(m: ExactMatrix) -> np.ndarray:
    """A matrix over GF(q) as the (n, n) int64 array of its residues."""
    return np.array([[int(v) for v in row] for row in m.rows], dtype=np.int64)
