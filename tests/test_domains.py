from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from fq_reference import GF, PrimeFieldDomain
from hesspave.domains import POLYNOMIALS, Poly
from proof_reference import RATIONALS, subs_zero, substitute


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
        assert substitute(p, {(1, 2): Fraction(2)}, RATIONALS) == 7
        assert substitute(p, {(1, 2): GF(2, 5)}, PrimeFieldDomain(5)) == GF(2, 5)
        with pytest.raises(KeyError):
            substitute(p, {}, RATIONALS)

    def test_subs_zero(self):
        p = Poly.var(1, 2) * Poly.var(3, 4) + Poly.var(5, 6) + 1
        assert subs_zero(p, {(3, 4)}) == Poly.var(5, 6) + 1
        assert subs_zero(p, {(3, 4), (5, 6)}) == Poly.const(1)

    def test_variables(self):
        p = Poly.var(1, 2) * Poly.var(3, 4) + 1
        assert p.variables() == {(1, 2), (3, 4)}

    def test_repr(self):
        assert repr(Poly()) == "0"
        assert repr(Poly.var(1, 2)) == "x12"
        assert repr(Poly.const(1) - Poly.var(1, 2)) == "1 - x12"

    def test_domain_constants(self):
        assert POLYNOMIALS.zero() == Poly()
        assert not POLYNOMIALS.is_field()
        with pytest.raises(NotImplementedError):
            POLYNOMIALS.div(Poly.const(1), Poly.const(2))


def _reference(op, a: dict, b: dict) -> dict:
    """a op b over plain {monomial: coefficient} dicts, with no shortcut."""
    out: dict = {}
    if op == "*":
        for m1, c1 in a.items():
            for m2, c2 in b.items():
                exps: dict = {}
                for var, e in m1 + m2:
                    exps[var] = exps.get(var, 0) + e
                m = tuple(sorted(exps.items()))
                out[m] = out.get(m, 0) + c1 * c2
    else:
        sign = 1 if op == "+" else -1
        for m, c in a.items():
            out[m] = out.get(m, 0) + c
        for m, c in b.items():
            out[m] = out.get(m, 0) + sign * c
    return {m: c for m, c in out.items() if c != 0}


_coefficients = st.one_of(
    st.integers(-2, 2), st.fractions(min_value=-2, max_value=2, max_denominator=3)
)
_monomials = st.lists(
    st.tuples(st.sampled_from([(1, 2), (1, 3), (2, 3)]), st.integers(1, 2)),
    max_size=2, unique_by=lambda ve: ve[0],
).map(lambda ves: tuple(sorted(ves)))
_polys = st.one_of(
    st.just({}), st.just({(): 1}), st.just({(): Fraction(1)}),
    _coefficients.map(lambda c: {(): c}),
    st.sampled_from([(1, 2), (2, 3)]).map(lambda v: {((v, 1),): 1}),
    st.dictionaries(_monomials, _coefficients, max_size=4),
)


class TestPolyFastPaths:
    @settings(max_examples=300, deadline=None, database=None, derandomize=True)
    @given(_polys, _polys, st.sampled_from(["+", "-", "*"]))
    def test_matches_dict_reference_and_leaves_operands(self, ta, tb, op):
        a, b = Poly(ta), Poly(tb)
        before = (dict(a.terms), dict(b.terms))
        expected = _reference(op, a.terms, b.terms)
        result = {"+": a.__add__, "-": a.__sub__, "*": a.__mul__}[op](b)
        assert result.terms == expected
        assert all(c != 0 for c in result.terms.values())
        assert (a.terms, b.terms) == before
        # equal polynomials hash alike, whether their coefficients are int
        # or Fraction
        as_fractions = Poly({m: Fraction(c) for m, c in a.terms.items()})
        assert as_fractions == a and hash(as_fractions) == hash(a)
        # the reflected forms with a plain number on the left
        for k in (0, 1, -1, Fraction(1, 2)):
            assert (k + b).terms == _reference("+", Poly.const(k).terms, b.terms)
            assert (k - b).terms == _reference("-", Poly.const(k).terms, b.terms)
            assert (k * b).terms == _reference("*", Poly.const(k).terms, b.terms)
        assert b.terms == before[1]
