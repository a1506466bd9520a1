"""Pluggable exact scalar domains: the polynomials.

Elements support +, -, * via Python operators; each domain knows how to make
0 and 1, and (for fields) divide.  Polynomial scalars are sparse
multivariate polynomials in variables x[a,b] indexed by integer pairs, with
rational coefficients and a canonical normal form, so equality is exact term
comparison.

The field sizes the F_q enumeration accepts (`FieldSpec`) and the error it
raises past its work budget live here too, so the command line can check
`--q` and report a budget overrun without importing the numpy layer.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import Mapping

Pair = tuple[int, int]
Monomial = tuple[tuple[Pair, int], ...]  # sorted ((a,b), exponent) pairs


def _mono_mul(m1: Monomial, m2: Monomial) -> Monomial:
    if not m1:
        return m2
    if not m2:
        return m1
    exps: dict[Pair, int] = dict(m1)
    for var, e in m2:
        exps[var] = exps.get(var, 0) + e
    return tuple(sorted(exps.items()))


class Poly:
    """Sparse multivariate polynomial over Q in variables x[a,b].

    A Poly and its `terms` dict are never mutated after construction: the
    arithmetic below returns an operand itself when the other side is 0 (or,
    for a product, the constant 1), so results may share operands.
    """

    __slots__ = ("terms",)

    def __init__(self, terms: Mapping[Monomial, Fraction | int] | None = None):
        self.terms: dict[Monomial, Fraction | int] = {
            m: c for m, c in (terms or {}).items() if c != 0
        }

    @classmethod
    def _of(cls, terms: dict[Monomial, Fraction | int]) -> "Poly":
        """Wrap a dict that already holds no zero coefficient, without a copy."""
        p = object.__new__(cls)
        p.terms = terms
        return p

    @classmethod
    def const(cls, c) -> "Poly":
        return cls({(): c})

    @classmethod
    def var(cls, a: int, b: int) -> "Poly":
        return cls({(((a, b), 1),): 1})

    def _coerce(self, other) -> "Poly":
        if isinstance(other, Poly):
            return other
        if isinstance(other, (int, Fraction)):
            return Poly.const(other)
        return NotImplemented  # type: ignore[return-value]

    def _combine(self, other: "Poly", sign: int) -> "Poly":
        """self + sign * other, term by term."""
        if not other.terms:
            return self
        terms = dict(self.terms)
        for m, c in other.terms.items():
            s = terms.get(m, 0) + sign * c
            if s:
                terms[m] = s
            else:
                del terms[m]
        return Poly._of(terms)

    def __add__(self, other):
        o = self._coerce(other)
        if o is NotImplemented:
            return o
        return o if not self.terms else self._combine(o, 1)

    __radd__ = __add__

    def __neg__(self):
        return Poly._of({m: -c for m, c in self.terms.items()})

    def __sub__(self, other):
        o = self._coerce(other)
        if o is NotImplemented:
            return o
        return -o if not self.terms else self._combine(o, -1)

    def __rsub__(self, other):
        o = self._coerce(other)
        return o if o is NotImplemented else o - self

    def __mul__(self, other):
        o = self._coerce(other)
        if o is NotImplemented:
            return o
        a, b = self.terms, o.terms
        if not a or not b:
            return Poly()
        if len(b) == 1 and b.get(()) == 1:
            return self
        if len(a) == 1 and a.get(()) == 1:
            return o
        terms: dict[Monomial, Fraction | int] = {}
        for m1, c1 in a.items():
            for m2, c2 in b.items():
                m = _mono_mul(m1, m2)
                terms[m] = terms.get(m, 0) + c1 * c2
        return Poly(terms)

    __rmul__ = __mul__

    def __eq__(self, other):
        o = self._coerce(other)
        return o is not NotImplemented and self.terms == o.terms

    def __hash__(self):
        return hash(frozenset(self.terms.items()))

    def __bool__(self):
        return bool(self.terms)

    def variables(self) -> set[Pair]:
        return {var for m in self.terms for var, _ in m}

    def __repr__(self):
        if not self.terms:
            return "0"
        parts = []
        for mono in sorted(self.terms):
            c = self.terms[mono]
            factors = [f"x{a}{b}" if e == 1 else f"x{a}{b}^{e}" for (a, b), e in mono]
            if not factors:
                parts.append(str(c))
            elif c == 1:
                parts.append("*".join(factors))
            elif c == -1:
                parts.append("-" + "*".join(factors))
            else:
                parts.append(str(c) + "*" + "*".join(factors))
        return " + ".join(parts).replace("+ -", "- ")


class Domain:
    """Base class for scalar domains; subclasses fix the element type."""

    kind: str

    def zero(self):
        raise NotImplementedError

    def one(self):
        raise NotImplementedError

    def is_field(self) -> bool:
        return False

    def div(self, a, b):
        raise NotImplementedError(f"{self.kind} does not support division")


class BudgetExceededError(Exception):
    """Raised when an enumeration would exceed the work budget."""


@dataclass(frozen=True)
class FieldSpec:
    """A prime field size small enough for exhaustive enumeration."""

    q: int

    def __post_init__(self):
        if self.q not in (2, 3, 5, 7, 11, 13):
            raise ValueError(f"q must be a prime <= 13, got {self.q}")


@dataclass(frozen=True)
class PolynomialDomain(Domain):
    """Multivariate polynomials over Q; variables are created on demand."""

    kind: str = "Polynomial"

    def zero(self):
        return Poly()

    def one(self):
        return Poly.const(1)


POLYNOMIALS = PolynomialDomain()
