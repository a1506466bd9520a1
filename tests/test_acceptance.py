"""End-to-end acceptance suite.

Each criterion prints one PASS/FAIL line.  The checks rely only on
independently computable facts: pinned example values, brute-force point
counts over small prime fields, and classical counting formulas
(hook lengths, the inversion-number distribution on S_n).
"""

import itertools
from contextlib import contextmanager

from hesspave.combinatorics import (
    Composition,
    HessenbergFunction,
    Permutation,
    Tableau,
    base_filling,
    factorize,
    is_row_strict,
    permutation_of_tableau,
    standardize,
    tableau_of,
)
from hesspave.domains import POLYNOMIALS, Poly
from hesspave.exactla import (
    ExactMatrix,
    bk_generator,
    difference_residual,
    generic_coordinates,
    generic_flag,
    hess_zero_coordinates,
    nilpotent_matrix,
    verify_flag_membership,
)
from hesspave.oracle import dw_equals_cell, springer_points, variety_point_counts
from hesspave.paving import (
    cell_profile,
    enumerate_cells,
    hessenberg_inversions,
    inversion_profile,
    maximal_cells_are_standard,
    poincare,
    r0_tableau,
    springer_inversions,
    zero_dim_cells,
)
from proof_reference import (
    all_hessenberg_functions,
    bn_split,
    column_sort_trace,
    delete_last_box,
    generic_flag_stages,
    matrix_entry,
    partitions,
)


@contextmanager
def criterion(num: int, label: str):
    try:
        yield
    except BaseException:
        print(f"criterion {num} ({label}): FAIL")
        raise
    print(f"criterion {num} ({label}): PASS")


def all_perms(n):
    return [Permutation(p) for p in itertools.permutations(range(1, n + 1))]


def x(a, b):
    return Poly.var(a, b)


def vec(n, entries):
    """Column vector with polynomial entries at the given 1-based rows."""
    return tuple(entries.get(i, POLYNOMIALS.zero()) for i in range(1, n + 1))


ONE = POLYNOMIALS.one()


def test_criterion_1_paper_examples():
    with criterion(1, "paper-example reproduction"):
        # base filling and nilpotent matrix for (2,3,1,1)
        lam = Composition([2, 3, 1, 1])
        assert base_filling(lam).rows == ((4, 6), (3, 5, 7), (2,), (1,))
        xm = nilpotent_matrix(lam)
        ones = {(4, 6), (3, 5), (5, 7)}
        for i in range(1, 8):
            for j in range(1, 8):
                assert matrix_entry(xm, i, j) == (1 if (i, j) in ones else 0)

        # R(w) and both inversion sets for w = [4,3,1,6,5,7,2]
        w = Permutation([4, 3, 1, 6, 5, 7, 2])
        assert tableau_of(w, lam).rows == ((1, 4), (2, 5, 6), (7,), (3,))
        assert springer_inversions(w, lam).pairs == {
            (7, 6), (7, 4), (5, 4), (3, 2), (3, 1), (2, 1)}
        h = HessenbergFunction([0, 0, 1, 2, 3, 3, 3])
        assert hessenberg_inversions(w, lam, h).pairs == {
            (7, 6), (7, 4), (5, 4), (3, 2), (2, 1)}

        # inversion set and the level-4 / level-6 generators for (3,2,2)
        lam = Composition([3, 2, 2])
        w = Permutation([3, 2, 6, 1, 7, 4, 5])
        spr = springer_inversions(w, lam)
        assert spr.pairs == {
            (7, 5), (6, 5), (4, 2), (4, 3), (2, 1)}
        g4 = bk_generator(w, lam, spr, 4, generic_coordinates(w, spr, 4))
        assert g4 == (
            ExactMatrix.identity(POLYNOMIALS, 7)
            .with_entry(1, 2, x(1, 2)).with_entry(1, 6, x(1, 6))
        )
        g6 = bk_generator(w, lam, spr, 6, generic_coordinates(w, spr, 6))
        assert g6 == (
            ExactMatrix.identity(POLYNOMIALS, 7)
            .with_entry(4, 7, x(4, 7)).with_entry(1, 6, x(4, 7))
        )

        # all B_k generators and the staged generic flag for (2,2,2)
        lam = Composition([2, 2, 2])
        w = Permutation([3, 6, 2, 1, 5, 4])
        spr = springer_inversions(w, lam)
        ident = ExactMatrix.identity(POLYNOMIALS, 6)
        assert bk_generator(w, lam, spr, 2, {}) == ident
        assert bk_generator(w, lam, spr, 3, generic_coordinates(w, spr, 3)) == (
            ident.with_entry(2, 6, x(2, 6)))
        assert bk_generator(w, lam, spr, 4, generic_coordinates(w, spr, 4)) == (
            ident.with_entry(1, 2, x(1, 2)).with_entry(1, 6, x(1, 6)))
        assert bk_generator(w, lam, spr, 5, generic_coordinates(w, spr, 5)) == (
            ident.with_entry(5, 6, x(5, 6)).with_entry(2, 3, x(5, 6)))
        assert bk_generator(w, lam, spr, 6, generic_coordinates(w, spr, 6)) == (
            ident.with_entry(4, 5, x(4, 5)).with_entry(4, 6, x(4, 6))
            .with_entry(1, 2, x(4, 5)).with_entry(1, 3, x(4, 6)))

        stages = generic_flag_stages(w, lam)
        e = {i: vec(6, {i: ONE}) for i in range(1, 7)}
        assert stages[0].columns == (e[3], e[6], e[2], e[1], e[5], e[4])
        assert stages[1].columns == stages[0].columns
        assert stages[2].columns == (
            e[3], vec(6, {6: ONE, 2: x(2, 6)}), e[2], e[1], e[5], e[4])
        assert stages[3].columns == (
            e[3],
            vec(6, {6: ONE, 2: x(2, 6), 1: x(1, 6) + x(2, 6) * x(1, 2)}),
            vec(6, {2: ONE, 1: x(1, 2)}),
            e[1], e[5], e[4])
        assert stages[4].columns == (
            vec(6, {3: ONE, 2: x(5, 6)}),
            vec(6, {6: ONE, 5: x(5, 6), 2: x(2, 6),
                    1: x(1, 6) + x(2, 6) * x(1, 2)}),
            vec(6, {2: ONE, 1: x(1, 2)}),
            e[1], e[5], e[4])
        assert stages[5].columns == (
            vec(6, {3: ONE, 2: x(5, 6), 1: x(4, 6) + x(5, 6) * x(4, 5)}),
            vec(6, {6: ONE, 5: x(5, 6), 4: x(4, 6) + x(5, 6) * x(4, 5),
                    2: x(2, 6),
                    1: x(1, 6) + x(2, 6) * x(4, 5) + x(2, 6) * x(1, 2)}),
            vec(6, {2: ONE, 1: x(4, 5) + x(1, 2)}),
            e[1],
            vec(6, {5: ONE, 4: x(4, 5)}),
            e[4])

        # restricting to h = (0,0,1,1,3,4) zeroes exactly x12
        h = HessenbergFunction([0, 0, 1, 1, 3, 4])
        zeros = hess_zero_coordinates(w, lam, h)
        assert zeros == {(1, 2)}
        cut3 = tuple(p.subs_zero(zeros) for p in stages[5].columns[2])
        assert cut3 == vec(6, {2: ONE, 1: x(4, 5)})

        # n = 12 profiles and sorting traces
        R = Tableau([[2, 4, 8, 10], [1, 5, 7, 11], [3, 9, 12], [6]])
        h12 = HessenbergFunction([max(0, i - 2) for i in range(1, 13)])
        S = standardize(R)
        assert S.rows == ((1, 4, 7, 10), (2, 5, 8, 11), (3, 9, 12), (6,))
        p, ps = inversion_profile(R, h12), inversion_profile(S, h12)
        assert (p(1, 1), ps(1, 1)) == (2, 3)
        assert (p(1, 2), ps(1, 2)) == (1, 1)
        assert (p(3, 3), ps(3, 3)) == (0, 1)
        steps = column_sort_trace(R, 1, 1, h12)
        assert len(steps) == 3  # start plus two swaps
        assert [s.profile(1, 1) for s in steps] == sorted(
            s.profile(1, 1) for s in steps)

        # greedy R_0 for (4,4,3,1), h(i) = max(0, i-3)
        r0 = r0_tableau(
            Composition([4, 4, 3, 1]),
            HessenbergFunction([max(0, i - 3) for i in range(1, 13)]),
        )
        assert r0.rows == ((3, 6, 9, 12), (2, 5, 8, 11), (4, 7, 10), (1,))


def test_criterion_2_point_count_identity():
    with criterion(2, "point-count identity"):
        for n in range(1, 6):
            hs = list(all_hessenberg_functions(n))
            for parts in partitions(n):
                lam = Composition(parts)
                for q in (2, 3):
                    for report in variety_point_counts(lam, hs, q):
                        assert report.match, (parts, report.q)


def test_criterion_3_generic_flag_image():
    with criterion(3, "generic-flag image equals brute-force cell"):
        for n in range(2, 5):
            for parts in partitions(n):
                lam = Composition(parts)
                fiber = springer_points(lam, 2)
                for w in all_perms(n):
                    if is_row_strict(tableau_of(w, lam)):
                        spr = springer_inversions(w, lam)
                        flag = generic_flag(w, lam, spr)
                        assert dw_equals_cell(w, spr, 2, flag, fiber[w.word]), (parts, w.word)


def test_criterion_4_symbolic_identities():
    with criterion(4, "symbolic identity suite"):
        for n in range(2, 6):
            for parts in partitions(n):
                lam = Composition(parts)
                base = base_filling(lam)
                kernel = [base.entry(r, 1) for r in lam.column_rows(1)]
                xm = nilpotent_matrix(lam, POLYNOMIALS)
                springer = HessenbergFunction.springer(n)
                for w in all_perms(n):
                    t = tableau_of(w, lam)
                    if not is_row_strict(t):
                        continue
                    _check_symbolic_cell(w, lam, t, base, kernel, xm, springer)


def _check_symbolic_cell(w, lam, t, base, kernel, xm, springer):
    n = w.n
    spr = springer_inversions(w, lam)
    v, y = factorize(w)
    vmat = ExactMatrix.permutation(POLYNOMIALS, v)
    lamp, tp = delete_last_box(t)
    yp = permutation_of_tableau(tp) if tp.rows else None
    ident = ExactMatrix.identity(POLYNOMIALS, n)

    for k in range(2, n + 1):
        coords = generic_coordinates(w, spr, k)
        g = bk_generator(w, lam, spr, k, coords)

        # group law and commutativity: coordinates add
        shifted = {key: Poly.var(key[0], key[1]) * Poly.const(2) for key in coords}
        h_k = bk_generator(w, lam, spr, k, shifted)
        summed = bk_generator(
            w, lam, spr, k, {key: coords[key] + shifted[key] for key in coords})
        assert g @ h_k == summed == h_k @ g

        # stabilization: g_k fixes e_{w(j)} for j >= k and moves each e_{w(j)}
        # with j < k inside Span{e_{w(1)}, ..., e_{w(k)}}
        allowed = {w(j) for j in range(1, k + 1)}
        for j in range(1, n + 1):
            col = g.column(w(j))
            if j >= k:
                assert col == ident.column(w(j))
            for i, entry in enumerate(col, start=1):
                if entry and i != w(j):
                    assert i in allowed

        # kernel preservation
        for i in kernel:
            basis_vec = vec(n, {i: ONE})
            assert not any(xm.apply(g.apply(basis_vec)))

        # commutator: g_k X - X g_k hits only columns of right neighbors
        commutator = g @ xm - xm @ g
        expected = ExactMatrix.zero(POLYNOMIALS, n)
        for l in spr.level(k):
            j = t.right_neighbor(l)
            if j is not None:
                expected = expected.with_entry(w(k), w(j), coords[(w(k), w(l))])
        assert commutator == expected
        if k == n:
            assert commutator == ExactMatrix.zero(POLYNOMIALS, n)

        # conjugation into the one-size-down subgroup
        if k <= n - 1 and yp is not None:
            spr_y = springer_inversions(yp, lamp)
            assert spr_y.level(k) == spr.level(k)
            relabeled = {
                (yp(k), yp(l)): Poly.var(w(k), w(l)) for l in spr.level(k)
            }
            small = bk_generator(yp, lamp, spr_y, k, relabeled)
            embedded = ident
            for a in range(1, n):
                for b in range(1, n):
                    embedded = embedded.with_entry(a, b, matrix_entry(small, a, b))
            assert vmat.transpose() @ g @ vmat == embedded

    # top-level splitting g_n = u_i b_n
    gn = bk_generator(w, lam, spr, n, generic_coordinates(w, spr, n))
    u_i, b_n = bn_split(gn, w, lam)
    assert u_i @ b_n == gn
    i = w(n)
    assert u_i.rows[i - 1] == gn.rows[i - 1]

    # difference residual vanishes identically
    flag = generic_flag(w, lam, spr)
    for l in range(1, n + 1):
        if t.right_neighbor(l) is not None:
            assert not any(difference_residual(w, t, spr, xm, l, flag))

    # generic flag lies in the Springer fiber for all coordinate values
    assert verify_flag_membership(flag, xm, springer)


def test_criterion_5_maximal_cells_standard():
    with criterion(5, "maximal cells have standard tableaux"):
        for n in range(1, 7):
            hs = list(all_hessenberg_functions(n))
            for parts in partitions(n):
                lam = Composition(parts)
                for h in hs:
                    cells = enumerate_cells(lam, h)
                    ok, witness = maximal_cells_are_standard(cells)
                    assert ok, (parts, h.values, witness)
                    for c in cells:
                        s = standardize(c.tableau)
                        if s.rows == c.tableau.rows:
                            continue
                        p = cell_profile(c)
                        ps = inversion_profile(s, h)
                        assert ps.dominates(p)
                        assert ps.total > p.total


def test_criterion_6_unique_zero_cell():
    """The paper's connectedness theorem, read off the paving.

    With an affine paving, H_0 has one generator per zero-dimensional cell,
    so a nonempty Hess(X_lambda, h) is connected iff it has exactly one zero
    cell.  Every composition with n <= 7 under every h has one zero cell,
    equal to the greedy R0, or none with r0_tableau returning None.
    """
    with criterion(6, "nonempty Hess(X_lambda, h) is connected: one zero cell, R0"):
        cases = nonempty = 0
        for n in range(1, 8):
            hs = list(all_hessenberg_functions(n))
            for parts in sorted({c for p in partitions(n) for c in itertools.permutations(p)}):
                lam = Composition(parts)
                for h in hs:
                    cases += 1
                    zeros = zero_dim_cells(lam, h)
                    r0 = r0_tableau(lam, h)
                    if r0 is None:
                        assert zeros == [], (parts, h.values)
                    else:
                        nonempty += 1
                        assert len(zeros) == 1, (parts, h.values)
                        assert zeros[0].rows == r0.rows
        assert cases == sum(2 ** (n - 1) * len(list(all_hessenberg_functions(n)))
                            for n in range(1, 8))
        assert 0 < nonempty < cases


def hook_length_count(partition):
    """Number of standard Young tableaux of a partition, by hook lengths."""
    rows = list(partition)
    n = sum(rows)
    numerator = 1
    for k in range(1, n + 1):
        numerator *= k
    denominator = 1
    for r, width in enumerate(rows):
        for c in range(width):
            arm = width - c - 1
            leg = sum(1 for rr in rows[r + 1:] if rr > c)
            denominator *= arm + leg + 1
    return numerator // denominator


def mahonian(n):
    dist = [1]
    for k in range(2, n + 1):
        new = [0] * (len(dist) + k - 1)
        for d, c in enumerate(dist):
            for add in range(k):
                new[d + add] += c
        dist = new
    return dist


def test_criterion_7_known_values():
    with criterion(7, "known-value cross-checks"):
        # one-column shapes: full flag variety, inversion-number distribution
        for n in range(1, 7):
            p = poincare(Composition([1] * n), HessenbergFunction.springer(n))
            assert list(p.coeffs) == mahonian(n)

        # (2,2,2): top Betti number = number of standard tableaux = 5
        p = poincare(Composition([2, 2, 2]), HessenbergFunction.springer(6))
        assert p.coeffs[-1] == hook_length_count((2, 2, 2)) == 5

        # top Betti equals the standard-tableau count for every shape
        for n in range(2, 7):
            for parts in partitions(n):
                p = poincare(Composition(parts), HessenbergFunction.springer(n))
                assert p.coeffs[-1] == hook_length_count(parts)

        # one-row shapes: the fiber is a single point
        for n in range(1, 7):
            cells = enumerate_cells(Composition([n]), HessenbergFunction.springer(n))
            assert len(cells) == 1
            assert cells[0].dim == 0
            assert poincare(Composition([n]), HessenbergFunction.springer(n)).coeffs == (1,)
