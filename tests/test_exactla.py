import itertools
import random
from fractions import Fraction

import pytest

from fq_reference import GF, PrimeFieldDomain, conjugate
from hesspave.combinatorics import (
    Composition,
    HessenbergFunction,
    Permutation,
    factorize,
    is_row_strict,
    tableau_of,
)
from hesspave.domains import POLYNOMIALS, RATIONALS, Poly
from hesspave.exactla import (
    ExactMatrix,
    Flag,
    UnipotentPattern,
    bk_entries,
    bk_generator,
    bruhat_canonical_form,
    difference_residual,
    factor_unipotent,
    generic_coordinates,
    generic_flag,
    hess_zero_coordinates,
    nilpotent_matrix,
    verify_flag_membership,
)
from hesspave.paving import enumerate_cells, springer_inversions
from proof_reference import (
    bn_split,
    flag_matrix,
    flag_of_matrix,
    generic_flag_stages,
    hessenberg_space_contains,
    identity_permutation,
    length,
    matrix_entry,
    partitions,
    project_cell,
    row_pattern,
    standard_flag,
    top_left_block,
)

GF2 = PrimeFieldDomain(2)
GF3 = PrimeFieldDomain(3)


def all_perms(n):
    return [Permutation(p) for p in itertools.permutations(range(1, n + 1))]


def random_invertible(dom, n, rng):
    while True:
        m = ExactMatrix.from_rows(
            dom, [[dom.from_int(rng.randrange(dom.p)) for _ in range(n)] for _ in range(n)]
        )
        try:
            m.inverse()
            return m
        except ValueError:
            continue


class TestExactMatrix:
    def test_permutation_convention(self):
        w = Permutation([3, 1, 2])
        wm = ExactMatrix.permutation(RATIONALS, w)
        e2 = (Fraction(0), Fraction(1), Fraction(0))
        assert wm.apply(e2) == (Fraction(1), Fraction(0), Fraction(0))
        for j in range(1, 4):
            assert matrix_entry(wm, w(j), j) == 1

    def test_matmul_and_inverse_rational(self):
        m = ExactMatrix.from_rows(RATIONALS, [[Fraction(2), Fraction(1)], [Fraction(1), Fraction(1)]])
        ident = ExactMatrix.identity(RATIONALS, 2)
        assert m @ m.inverse() == ident
        assert m.inverse() @ m == ident

    def test_inverse_gf(self):
        rng = random.Random(0)
        for _ in range(20):
            m = random_invertible(GF3, 4, rng)
            assert m @ m.inverse() == ExactMatrix.identity(GF3, 4)

    def test_singular(self):
        z = ExactMatrix.zero(RATIONALS, 2)
        with pytest.raises(ValueError):
            z.inverse()

    def test_unipotent_inverse_polynomial(self):
        x = Poly.var(1, 2)
        u = ExactMatrix.identity(POLYNOMIALS, 3).with_entry(1, 2, x).with_entry(2, 3, x)
        ui = u.inverse()
        assert u @ ui == ExactMatrix.identity(POLYNOMIALS, 3)
        assert matrix_entry(ui, 1, 3) == x * x

    def test_unitriangular_inverse_polynomial_lower(self):
        x, y = Poly.var(1, 2), Poly.var(2, 3)
        low = (
            ExactMatrix.identity(POLYNOMIALS, 3)
            .with_entry(2, 1, x).with_entry(3, 1, y).with_entry(3, 2, x)
        )
        inv = low.inverse()
        assert low @ inv == ExactMatrix.identity(POLYNOMIALS, 3)
        assert inv @ low == ExactMatrix.identity(POLYNOMIALS, 3)
        assert matrix_entry(inv, 3, 1) == x * x - y

    def test_polynomial_inverse_rejects_non_unit_pivot(self):
        x = Poly.var(1, 2)
        for m in [
            ExactMatrix.identity(POLYNOMIALS, 2).with_entry(2, 2, Poly.const(2)),
            ExactMatrix.identity(POLYNOMIALS, 2).with_entry(1, 1, x),
        ]:
            with pytest.raises(ValueError, match="not a field"):
                m.inverse()

    def test_upper_unitriangular(self):
        assert ExactMatrix.identity(GF2, 3).is_upper_unitriangular()
        low = ExactMatrix.identity(GF2, 3).with_entry(3, 1, GF(1, 2))
        assert not low.is_upper_unitriangular()

    def test_domain_mismatch(self):
        with pytest.raises(ValueError):
            ExactMatrix.identity(GF2, 2) @ ExactMatrix.identity(GF3, 2)


class TestNilpotent:
    def test_example(self):
        x = nilpotent_matrix(Composition([2, 3, 1, 1]))
        ones = {(4, 6), (3, 5), (5, 7)}
        for i in range(1, 8):
            for j in range(1, 8):
                assert matrix_entry(x, i, j) == (1 if (i, j) in ones else 0)

    def test_jordan_type(self):
        # rank of X^k determines the Jordan type; check against the partition
        for parts in partitions(5):
            lam = Composition(parts)
            x = nilpotent_matrix(lam)
            p = sorted(parts, reverse=True)
            power = ExactMatrix.identity(RATIONALS, 5)
            for k in range(1, 6):
                power = power @ x
                expected = sum(max(0, part - k) for part in p)
                assert _rank(power) == expected

    def test_hessenberg_space(self):
        lam = Composition([2, 2])
        x = nilpotent_matrix(lam)
        assert hessenberg_space_contains(x, HessenbergFunction.springer(4))
        # X_{(2,2)} has a 1 in row 2, column 4: needs h(4) >= 2
        assert not hessenberg_space_contains(x, HessenbergFunction([0, 1, 1, 1]))
        assert hessenberg_space_contains(x, HessenbergFunction([0, 1, 1, 2]))
        with pytest.raises(ValueError):
            hessenberg_space_contains(x, HessenbergFunction([0, 1]))


def _rank(m: ExactMatrix) -> int:
    rows = [list(r) for r in m.rows]
    rank = 0
    for col in range(m.n):
        piv = next((r for r in range(rank, m.n) if rows[r][col]), None)
        if piv is None:
            continue
        rows[rank], rows[piv] = rows[piv], rows[rank]
        for r in range(m.n):
            if r != rank and rows[r][col]:
                c = rows[r][col] / rows[rank][col]
                rows[r] = [a - c * b for a, b in zip(rows[r], rows[rank])]
        rank += 1
    return rank


class TestUnipotentPattern:
    def test_schubert_size_is_length(self):
        for w in all_perms(4):
            assert len(UnipotentPattern.schubert(w).free_positions) == length(w)

    def test_schubert_longest(self):
        w0 = Permutation([4, 3, 2, 1])
        pat = UnipotentPattern.schubert(w0)
        assert pat.free_positions == frozenset(
            (a, b) for a in range(1, 5) for b in range(a + 1, 5)
        )

    def test_contains(self):
        w = Permutation([2, 1, 3])
        pat = UnipotentPattern.schubert(w)
        u = ExactMatrix.identity(GF2, 3).with_entry(1, 2, GF(1, 2))
        assert pat.contains(u)
        bad = ExactMatrix.identity(GF2, 3).with_entry(2, 3, GF(1, 2))
        assert not pat.contains(bad)

    def test_invalid_positions(self):
        with pytest.raises(ValueError):
            UnipotentPattern(3, frozenset({(2, 2)}))


class TestBkGenerator:
    def test_first_shift_example(self):
        # level 4 of w = [3,2,6,1,7,4,5] on (3,2,2) gives I + x12 E12 + x16 E16
        lam = Composition([3, 2, 2])
        w = Permutation([3, 2, 6, 1, 7, 4, 5])
        spr = springer_inversions(w, lam)
        coords = generic_coordinates(w, spr, 4)
        assert set(coords) == {(1, 2), (1, 6)}
        g = bk_generator(w, lam, spr, 4, coords)
        expect = (
            ExactMatrix.identity(POLYNOMIALS, 7)
            .with_entry(1, 2, Poly.var(1, 2))
            .with_entry(1, 6, Poly.var(1, 6))
        )
        assert g == expect

    def test_shifted_copies_example(self):
        # level 6 of the same cell: the x47 coordinate repeats one box left
        lam = Composition([3, 2, 2])
        w = Permutation([3, 2, 6, 1, 7, 4, 5])
        spr = springer_inversions(w, lam)
        coords = generic_coordinates(w, spr, 6)
        assert set(coords) == {(4, 7)}
        g = bk_generator(w, lam, spr, 6, coords)
        x = Poly.var(4, 7)
        expect = (
            ExactMatrix.identity(POLYNOMIALS, 7)
            .with_entry(4, 7, x)
            .with_entry(1, 6, x)
        )
        assert g == expect

    def test_empty_level_is_identity(self):
        lam = Composition([2, 2, 2])
        w = Permutation([3, 6, 2, 1, 5, 4])
        spr = springer_inversions(w, lam)
        assert spr.level(2) == ()
        g = bk_generator(w, lam, spr, 2, {})
        assert g == ExactMatrix.identity(POLYNOMIALS, 6)

    def test_key_validation(self):
        lam = Composition([2, 2])
        w = identity_permutation(4)
        spr = springer_inversions(w, lam)
        with pytest.raises(ValueError):
            bk_generator(w, lam, spr, 3, {(9, 9): Poly.var(9, 9)})
        with pytest.raises(ValueError):
            bk_generator(w, lam, spr, 1, {})

    def test_rejects_inversions_of_another_cell(self):
        # the keys are checked against the spr passed in, not recomputed from w
        lam = Composition([3, 2, 2])
        w = Permutation([3, 2, 6, 1, 7, 4, 5])
        coords = generic_coordinates(w, springer_inversions(w, lam), 4)
        other = springer_inversions(Permutation([7, 6, 5, 4, 3, 2, 1]), lam)
        assert {(w(4), w(l)) for l in other.level(4)} != set(coords)
        with pytest.raises(ValueError, match="do not match"):
            bk_generator(w, lam, other, 4, coords)

    def test_group_law(self):
        # B_k(w) is abelian: coordinates add under multiplication
        lam = Composition([2, 2, 2])
        w = Permutation([3, 6, 2, 1, 5, 4])
        spr = springer_inversions(w, lam)
        for k in range(2, 7):
            c1 = generic_coordinates(w, spr, k)
            c2 = {key: Poly.var(key[0], key[1]) * Poly.const(3) for key in c1}
            prod = bk_generator(w, lam, spr, k, c1) @ bk_generator(w, lam, spr, k, c2)
            both = {key: c1[key] + c2[key] for key in c1}
            assert prod == bk_generator(w, lam, spr, k, both)

    def test_entries_state_the_generator(self):
        # g_k = I + sum of x E_{tgt,src} over its triples, for every level
        lam = Composition([3, 2, 2])
        w = Permutation([3, 2, 6, 1, 7, 4, 5])
        spr = springer_inversions(w, lam)
        for k in range(2, 8):
            coords = generic_coordinates(w, spr, k)
            expect = ExactMatrix.identity(POLYNOMIALS, 7)
            for tgt, src, x in bk_entries(w, lam, spr, k, coords):
                assert tgt != src
                expect = expect.with_entry(tgt, src, matrix_entry(expect, tgt, src) + x)
            assert bk_generator(w, lam, spr, k, coords) == expect

    def test_add_row_multiples_is_left_product(self):
        # rows are read from the matrix before the step, as in (I + N) @ M
        rng = random.Random(7)
        for _ in range(20):
            m = random_invertible(GF3, 4, rng)
            entries = [(rng.randint(1, 4), rng.randint(1, 4), GF3.from_int(rng.randrange(3)))
                       for _ in range(rng.randint(0, 5))]
            entries = [(t, s, x) for t, s, x in entries if t != s]
            g = ExactMatrix.identity(GF3, 4)
            for tgt, src, x in entries:
                g = g.with_entry(tgt, src, matrix_entry(g, tgt, src) + x)
            assert m.add_row_multiples(entries) == g @ m

    def test_fixes_high_columns_and_kernel(self):
        # g_k fixes e_{w(j)} for j >= k and commutes with X at level n
        lam = Composition([2, 2, 2])
        w = Permutation([3, 6, 2, 1, 5, 4])
        spr = springer_inversions(w, lam)
        x = nilpotent_matrix(lam, POLYNOMIALS)
        n = 6
        ident = ExactMatrix.identity(POLYNOMIALS, n)
        for k in range(2, n + 1):
            g = bk_generator(w, lam, spr, k, generic_coordinates(w, spr, k))
            for j in range(k, n + 1):
                assert g.column(w(j)) == ident.column(w(j))
        gn = bk_generator(w, lam, spr, n, generic_coordinates(w, spr, n))
        assert gn @ x == x @ gn


def dense_generic_flag_stages(w, lam):
    """Reference: the stages as dense products bk_generator(...) @ prod."""
    n = w.n
    spr = springer_inversions(w, lam)
    prod = ExactMatrix.identity(POLYNOMIALS, n)
    stages = [Flag(POLYNOMIALS, tuple(prod.column(w(j)) for j in range(1, n + 1)))]
    for k in range(2, n + 1):
        prod = bk_generator(w, lam, spr, k, generic_coordinates(w, spr, k)) @ prod
        stages.append(Flag(POLYNOMIALS, tuple(prod.column(w(j)) for j in range(1, n + 1))))
    return stages


class TestGenericFlag:
    @pytest.mark.parametrize("n, cells", [(1, 1), (2, 3), (3, 10), (4, 47), (5, 246)])
    def test_stages_match_dense_product(self, n, cells):
        # row operations give the same polynomials as the dense products, on
        # every row-strict w (n!/prod(lambda_i!) of them per partition)
        checked = 0
        for parts in partitions(n):
            lam = Composition(parts)
            for w in all_perms(n):
                if is_row_strict(tableau_of(w, lam)):
                    assert generic_flag_stages(w, lam) == dense_generic_flag_stages(w, lam)
                    checked += 1
        assert checked == cells

    @pytest.mark.parametrize("n, cells", [(1, 1), (2, 3), (3, 10), (4, 47), (5, 246)])
    def test_final_flag_with_caller_springer_set(self, n, cells):
        # the final-only flag from a cell's inv_lambda(w) equals the flag
        # that computes inv_lambda(w) itself, and the last stage
        checked = 0
        for parts in partitions(n):
            lam = Composition(parts)
            for c in enumerate_cells(lam, HessenbergFunction.springer(n)):
                flag = generic_flag(c.w, lam, c.springer_inv)
                assert flag == generic_flag(c.w, lam, springer_inversions(c.w, lam))
                assert flag == generic_flag_stages(c.w, lam)[-1]
                checked += 1
        assert checked == cells

    def test_requires_row_strict(self):
        with pytest.raises(ValueError):
            generic_flag_stages(Permutation([3, 1, 4, 2]), Composition([2, 2]))

    def test_stage_one_is_permuted_standard(self):
        lam = Composition([2, 2, 2])
        w = Permutation([3, 6, 2, 1, 5, 4])
        stages = generic_flag_stages(w, lam)
        assert len(stages) == 6
        ident = ExactMatrix.identity(POLYNOMIALS, 6)
        assert stages[0].columns == tuple(ident.column(w(j)) for j in range(1, 7))

    def test_zero_specialization_is_permutation_flag(self):
        lam = Composition([2, 2, 1])
        for w in all_perms(5):
            if not is_row_strict(tableau_of(w, lam)):
                continue
            flag = generic_flag(w, lam, springer_inversions(w, lam))
            m = flag_matrix(flag)
            zeroed = ExactMatrix.from_rows(
                POLYNOMIALS, [[e.subs_zero(e.variables()) for e in row] for row in m.rows]
            )
            assert zeroed == ExactMatrix.permutation(POLYNOMIALS, w)

    def test_variable_count_is_dimension(self):
        for parts in partitions(5):
            lam = Composition(parts)
            for w in all_perms(5):
                if not is_row_strict(tableau_of(w, lam)):
                    continue
                flag = generic_flag(w, lam, springer_inversions(w, lam))
                used = set()
                for col in flag.columns:
                    for e in col:
                        used |= e.variables()
                assert len(used) == len(springer_inversions(w, lam))

    def test_membership_universal(self):
        # every generic flag lies in the Springer fiber identically in the x's
        for parts in partitions(4):
            lam = Composition(parts)
            x = nilpotent_matrix(lam, POLYNOMIALS)
            springer = HessenbergFunction.springer(4)
            for w in all_perms(4):
                if not is_row_strict(tableau_of(w, lam)):
                    continue
                flag = generic_flag(w, lam, springer_inversions(w, lam))
                assert verify_flag_membership(flag, x, springer)

    def test_difference_residual_zero(self):
        lam = Composition([2, 2, 2])
        w = Permutation([3, 6, 2, 1, 5, 4])
        t = tableau_of(w, lam)
        spr = springer_inversions(w, lam)
        x = nilpotent_matrix(lam, POLYNOMIALS)
        flag = generic_flag(w, lam, springer_inversions(w, lam))
        for l in range(1, 7):
            if t.right_neighbor(l) is None:
                with pytest.raises(ValueError):
                    difference_residual(w, t, spr, x, l, flag)
            else:
                assert not any(difference_residual(w, t, spr, x, l, flag))


class TestMembership:
    def test_standard_flag(self):
        x = nilpotent_matrix(Composition([2]), RATIONALS)
        flag = standard_flag(RATIONALS, 2)
        assert verify_flag_membership(flag, x, HessenbergFunction.springer(2))

    def test_swapped_flag_fails(self):
        x = nilpotent_matrix(Composition([2]), RATIONALS)
        flag = flag_of_matrix(
            ExactMatrix.permutation(RATIONALS, Permutation([2, 1]))
        )
        assert not verify_flag_membership(flag, x, HessenbergFunction.springer(2))

    def test_singular_flag_rejected(self):
        one, zero = Fraction(1), Fraction(0)
        cols = ((one, zero, zero), (one, zero, zero), (zero, one, zero))
        flag = Flag(RATIONALS, cols)
        x = nilpotent_matrix(Composition([1, 1, 1]), RATIONALS)
        with pytest.raises(ValueError):
            verify_flag_membership(flag, x, HessenbergFunction.springer(3))

    def test_domain_mismatch(self):
        x = nilpotent_matrix(Composition([2]), GF2)
        with pytest.raises(ValueError):
            verify_flag_membership(standard_flag(RATIONALS, 2), x, HessenbergFunction.springer(2))

    def test_duality_with_conjugation(self):
        # X(V_i) <= V_{h(i)} iff g^{-1} X g lies in H(h), for flag = columns of g
        rng = random.Random(7)
        lam = Composition([2, 2])
        dom = PrimeFieldDomain(5)
        x = nilpotent_matrix(lam, dom)
        hs = [
            HessenbergFunction.springer(4),
            HessenbergFunction([0, 1, 1, 2]),
            HessenbergFunction([0, 1, 1, 3]),
        ]
        for _ in range(25):
            g = random_invertible(dom, 4, rng)
            flag = flag_of_matrix(g)
            for h in hs:
                assert verify_flag_membership(flag, x, h) == hessenberg_space_contains(
                    conjugate(g, x), h
                )


class TestZeroCoordinates:
    def test_example(self):
        lam = Composition([2, 2, 2])
        w = Permutation([3, 6, 2, 1, 5, 4])
        h = HessenbergFunction([0, 0, 1, 1, 3, 4])
        assert hess_zero_coordinates(w, lam, h) == {(1, 2)}

    def test_springer_zeroes_nothing(self):
        lam = Composition([2, 2])
        for w in all_perms(4):
            if is_row_strict(tableau_of(w, lam)):
                assert hess_zero_coordinates(w, lam, HessenbergFunction.springer(4)) == set()

    def test_requires_row_strict(self):
        with pytest.raises(ValueError):
            hess_zero_coordinates(
                Permutation([3, 1, 4, 2]), Composition([2, 2]), HessenbergFunction.springer(4)
            )

    def test_restricted_flag_lies_in_hess(self):
        # zeroing the named coordinates makes the generic flag satisfy h
        lam = Composition([2, 2, 2])
        w = Permutation([3, 6, 2, 1, 5, 4])
        h = HessenbergFunction([0, 1, 1, 1, 3, 4])
        zeros = hess_zero_coordinates(w, lam, h)
        flag = generic_flag(w, lam, springer_inversions(w, lam))
        cut = Flag(
            POLYNOMIALS,
            tuple(tuple(e.subs_zero(zeros) for e in col) for col in flag.columns),
        )
        x = nilpotent_matrix(lam, POLYNOMIALS)
        assert not verify_flag_membership(flag, x, h)
        assert verify_flag_membership(cut, x, h)


class TestBruhat:
    def test_known_form(self):
        # permutation matrices decompose with u = I
        for w in all_perms(3):
            m = ExactMatrix.permutation(GF3, w)
            ww, u = bruhat_canonical_form(m)
            assert ww == w
            assert u == ExactMatrix.identity(GF3, 3)

    def test_roundtrip_random(self):
        rng = random.Random(11)
        for _ in range(30):
            g = random_invertible(GF3, 4, rng)
            w, u = bruhat_canonical_form(g)
            assert UnipotentPattern.schubert(w).contains(u)
            # uW and g differ by right multiplication by upper triangular B
            uw = u @ ExactMatrix.permutation(GF3, w)
            b = uw.inverse() @ g
            for i in range(2, 5):
                for j in range(1, i):
                    assert not matrix_entry(b, i, j)

    def test_invariant_under_borel(self):
        rng = random.Random(13)
        for _ in range(15):
            g = random_invertible(GF3, 4, rng)
            b = ExactMatrix.identity(GF3, 4)
            for i in range(1, 5):
                for j in range(i, 5):
                    v = rng.randrange(1 if i == j else 0, 3)
                    b = b.with_entry(i, j, GF(v, 3))
            assert bruhat_canonical_form(g) == bruhat_canonical_form(g @ b)

    def test_rejects_non_field(self):
        with pytest.raises(ValueError):
            bruhat_canonical_form(ExactMatrix.identity(POLYNOMIALS, 2))

    def test_rejects_singular(self):
        with pytest.raises(ValueError):
            bruhat_canonical_form(ExactMatrix.zero(GF2, 2))


class TestFactorizations:
    def test_factor_unipotent_exhaustive(self):
        # uw = u_i v u_0 y over F_2, all w in S_4, all u in U^w
        dom = GF2
        n = 4
        for w in all_perms(n):
            v, y = factorize(w)
            free = UnipotentPattern.schubert(w).positions_sorted()
            for bits in itertools.product([0, 1], repeat=len(free)):
                u = ExactMatrix.identity(dom, n)
                for (a, b), bit in zip(free, bits):
                    if bit:
                        u = u.with_entry(a, b, GF(1, 2))
                u_i, u0 = factor_unipotent(u, w)
                assert row_pattern(w(n), n).contains(u_i)
                assert UnipotentPattern.schubert(y).contains(u0)
                lhs = u @ ExactMatrix.permutation(dom, w)
                rhs = (
                    u_i
                    @ ExactMatrix.permutation(dom, v)
                    @ u0
                    @ ExactMatrix.permutation(dom, y)
                )
                assert lhs == rhs

    def test_factor_unipotent_rejects_bad_pattern(self):
        u = ExactMatrix.identity(GF2, 3).with_entry(1, 2, GF(1, 2))
        with pytest.raises(ValueError):
            factor_unipotent(u, identity_permutation(3))

    def test_bn_split_example(self):
        # with x45 = 2, x46 = 3: u_4 = I + 2 E45 + 3 E46, b_6 = I + 2 E12 + 3 E13
        lam = Composition([2, 2, 2])
        w = Permutation([3, 6, 2, 1, 5, 4])
        spr = springer_inversions(w, lam)
        g = ExactMatrix.identity(RATIONALS, 6).add_row_multiples(
            bk_entries(w, lam, spr, 6, {(4, 5): Fraction(2), (4, 6): Fraction(3)})
        )
        u_i, b_n = bn_split(g, w, lam)
        expect_u = (
            ExactMatrix.identity(RATIONALS, 6)
            .with_entry(4, 5, Fraction(2))
            .with_entry(4, 6, Fraction(3))
        )
        expect_b = (
            ExactMatrix.identity(RATIONALS, 6)
            .with_entry(1, 2, Fraction(2))
            .with_entry(1, 3, Fraction(3))
        )
        assert u_i == expect_u
        assert b_n == expect_b
        assert u_i @ b_n == g

    def test_bn_split_generic(self):
        lam = Composition([3, 2, 2])
        w = Permutation([3, 2, 6, 1, 7, 4, 5])
        spr = springer_inversions(w, lam)
        g = bk_generator(w, lam, spr, 7, generic_coordinates(w, spr, 7))
        u_i, b_n = bn_split(g, w, lam)
        assert u_i @ b_n == g
        v, _ = factorize(w)
        vm = ExactMatrix.permutation(POLYNOMIALS, v)
        conj = vm.transpose() @ b_n @ vm
        assert top_left_block(7).contains(conj)

    def test_bn_split_rejects_non_member(self):
        lam = Composition([2, 2, 2])
        w = Permutation([3, 6, 2, 1, 5, 4])
        g = ExactMatrix.identity(RATIONALS, 6).with_entry(1, 2, Fraction(1))
        with pytest.raises(ValueError):
            bn_split(g, w, lam)

    def test_project_cell(self):
        # projecting the flag of uW lands on u_0 y E' in one dimension less
        dom = GF3
        w = Permutation([3, 6, 2, 1, 5, 4])
        flag = flag_of_matrix(ExactMatrix.permutation(dom, w))
        small = project_cell(flag)
        assert small.n == 5
        _, y = factorize(w)
        yp = Permutation(y.word[:-1])
        assert flag_matrix(small) == ExactMatrix.permutation(dom, yp)
