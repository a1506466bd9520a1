from fractions import Fraction

import pytest

from hesspave.domains import (
    GF,
    POLYNOMIALS,
    RATIONALS,
    Poly,
    PrimeFieldDomain,
)


class TestGF:
    def test_arithmetic(self):
        a, b = GF(3, 5), GF(4, 5)
        assert a + b == GF(2, 5)
        assert a - b == GF(4, 5)
        assert a * b == GF(2, 5)
        assert a / b == a * GF(4, 5)  # 4^{-1} = 4 mod 5
        assert -a == GF(2, 5)
        assert a + 2 == GF(0, 5)
        assert 1 - a == GF(3, 5)

    def test_bool_and_eq(self):
        assert not GF(0, 7)
        assert GF(3, 7)
        assert GF(10, 7) == 3
        assert GF(3, 7) != GF(3, 5)

    def test_mixed_characteristic(self):
        with pytest.raises(ValueError):
            GF(1, 3) + GF(1, 5)

    def test_domain_validation(self):
        with pytest.raises(ValueError):
            PrimeFieldDomain(4)
        with pytest.raises(ValueError):
            PrimeFieldDomain(2**31 + 11)
        dom = PrimeFieldDomain(3)
        assert dom.is_field()
        assert dom.from_fraction(Fraction(1, 2)) == GF(2, 3)
        assert len(dom.elements()) == 3


class TestPoly:
    def test_ring_axioms_spotcheck(self):
        x, y = Poly.var(1, 2), Poly.var(3, 4)
        assert (x + y) * (x - y) == x * x - y * y
        assert x * (y + 1) == x * y + x
        assert x - x == Poly()
        assert not (x - x)

    def test_substitute(self):
        p = Poly.var(1, 2) * Poly.var(1, 2) + 3
        assert p.substitute({(1, 2): Fraction(2)}, RATIONALS) == 7
        assert p.substitute({(1, 2): GF(2, 5)}, PrimeFieldDomain(5)) == GF(2, 5)
        with pytest.raises(KeyError):
            p.substitute({}, RATIONALS)

    def test_subs_zero(self):
        p = Poly.var(1, 2) * Poly.var(3, 4) + Poly.var(5, 6) + 1
        assert p.subs_zero({(3, 4)}) == Poly.var(5, 6) + 1
        assert p.subs_zero({(3, 4), (5, 6)}) == Poly.const(1)

    def test_variables(self):
        p = Poly.var(1, 2) * Poly.var(3, 4) + 1
        assert p.variables() == {(1, 2), (3, 4)}

    def test_repr(self):
        assert repr(Poly()) == "0"
        assert repr(Poly.var(1, 2)) == "x12"
        assert repr(Poly.const(1) - Poly.var(1, 2)) == "1 - x12"

    def test_domain_constants(self):
        assert POLYNOMIALS.zero() == Poly()
        assert POLYNOMIALS.from_int(5) == Poly.const(5)
        assert not POLYNOMIALS.is_field()
        with pytest.raises(NotImplementedError):
            POLYNOMIALS.div(Poly.const(1), Poly.const(2))
