import itertools

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from hesspave.combinatorics import (
    Composition,
    HessenbergFunction,
    Permutation,
    all_hessenberg_functions,
    is_row_strict,
    partitions,
    tableau_of,
)
from hesspave.domains import PrimeFieldDomain
from hesspave.exactla import (
    ExactMatrix,
    Flag,
    UnipotentPattern,
    conjugate,
    generic_flag,
    nilpotent_matrix,
    verify_flag_membership,
)
from hesspave.oracle import (
    BudgetExceededError,
    _m_vectors,
    _np_matrix,
    _random_gl,
    cell_point_count,
    conjugation_invariance,
    dw_equals_cell,
    flag_point_counts,
    springer_points,
    variety_point_count,
    variety_point_counts,
    zeros_structure_check,
)
from hesspave.paving import enumerate_cells, poincare, springer_inversions


def all_perms(n):
    return [Permutation(p) for p in itertools.permutations(range(1, n + 1))]


def exact_u_points(w, dom):
    """Every u in U^w over dom, in the batch's order (first free position slowest)."""
    free = UnipotentPattern.schubert(w).positions_sorted()
    for vals in itertools.product(range(dom.p), repeat=len(free)):
        u = ExactMatrix.identity(dom, w.n)
        for (a, b), v in zip(free, vals):
            u = u.with_entry(a, b, dom.from_int(v))
        yield u


# The brute-force reference for the pruned search: every u in U^w(F_q) at once.

def _batch_u(free: list[tuple[int, int]], n: int, q: int) -> np.ndarray:
    """All q^f matrices of U^w(F_q) as an (N, n, n) array, row-major order."""
    f = len(free)
    big = q**f
    u = np.broadcast_to(np.eye(n, dtype=np.int64), (big, n, n)).copy()
    idx = np.arange(big)
    for p, (a, b) in enumerate(free):
        u[:, a - 1, b - 1] = (idx // q ** (f - 1 - p)) % q
    return u


def _lowest_rows(u: np.ndarray, w: Permutation, x: np.ndarray, q: int) -> np.ndarray:
    """Lowest nonzero row of each column of (uW)^{-1} X (uW) mod q, for a
    batch u of upper unitriangular matrices (0 for a zero column).

    With C = X u W, the product is W^T B where u B = C; B is solved by
    back-substitution from the bottom row and W^T reads its rows in w order.
    """
    n = w.n
    perm = [w(j) - 1 for j in range(1, n + 1)]
    b = ((x % q) @ u[:, :, perm]) % q
    for i in range(n - 2, -1, -1):
        b[:, i] = (b[:, i] - (u[:, i : i + 1, i + 1 :] @ b[:, i + 1 :])[:, 0]) % q
    rows = np.arange(1, n + 1).reshape(1, n, 1)
    return np.max(np.where(b[:, perm] != 0, rows, 0), axis=1)


def reference_m_vectors(w, x, q):
    """m-vectors of every u in U^w(F_q), in the batch's order."""
    free = UnipotentPattern.schubert(w).positions_sorted()
    return _lowest_rows(_batch_u(free, w.n, q), w, x, q)


def sorted_rows(m):
    return sorted(map(tuple, np.asarray(m).tolist()))


def sorted_points(us):
    return sorted(tuple(tuple(e.v for e in row) for row in u.rows) for u in us)


class TestBatchArithmetic:
    @pytest.mark.parametrize("q", [2, 3])
    @pytest.mark.parametrize("n", [3, 4])
    def test_m_vectors_match_exact_conjugation(self, n, q):
        # reference: (uW)^{-1} X (uW) per matrix, with the Gauss-Jordan inverse
        dom = PrimeFieldDomain(q)
        springer = HessenbergFunction.springer(n).values
        xs = [nilpotent_matrix(Composition(p), dom) for p in partitions(n)]
        xs.append(conjugate(_random_gl(n, q, np.random.default_rng(n * q)), xs[0]))
        for x in xs:
            for w in all_perms(n):
                wmat = ExactMatrix.permutation(dom, w)
                expected = []
                for u in exact_u_points(w, dom):
                    m = u @ wmat
                    a = m.inverse() @ x @ m
                    expected.append([
                        max((i + 1 for i in range(n) if a.rows[i][j]), default=0)
                        for j in range(n)
                    ])
                assert reference_m_vectors(w, _np_matrix(x), q).tolist() == expected
                fiber = [m for m in expected if all(np.array(m) <= springer)]
                assert sorted_rows(_m_vectors(w, _np_matrix(x), q, springer)) == (
                    sorted_rows(fiber)
                )

    @settings(max_examples=100, deadline=None, database=None)
    @given(st.data())
    def test_search_matches_brute_force(self, data):
        n = data.draw(st.integers(1, 5))
        split = data.draw(st.lists(st.booleans(), min_size=n - 1, max_size=n - 1))
        cuts = [0] + [i for i, cut in enumerate(split, start=1) if cut] + [n]
        lam = Composition([b - a for a, b in zip(cuts, cuts[1:])])
        q = data.draw(st.sampled_from([2, 3, 5]))
        hs = data.draw(st.lists(
            st.sampled_from(list(all_hessenberg_functions(n))), min_size=1, max_size=3
        ))
        x = nilpotent_matrix(lam, PrimeFieldDomain(q))
        if data.draw(st.booleans()):
            rng = np.random.default_rng(data.draw(st.integers(0, 2**32 - 1)))
            x = conjugate(_random_gl(n, q, rng), x)
        # the reference builds all q^l(w) matrices, so w0 of S_5 is left
        # out at q = 5 (5^10 of them)
        cheap = [w for w in all_perms(n) if q ** w.length() <= 3**10]
        ws = data.draw(st.lists(st.sampled_from(cheap), min_size=1, max_size=6, unique=True))
        counts = flag_point_counts(x, hs, q, budget_bits=40)
        for per_cell in counts:
            assert set(per_cell) == {w.word for w in all_perms(n)}
        bound = np.max([h.values for h in hs], axis=0)
        for w in ws:
            ref = reference_m_vectors(w, _np_matrix(x), q)
            assert sorted_rows(_m_vectors(w, _np_matrix(x), q, bound)) == (
                sorted_rows(ref[np.all(ref <= bound, axis=1)])
            )
            for per_cell, h in zip(counts, hs):
                assert per_cell[w.word] == int(np.all(ref <= h.values, axis=1).sum())

    def test_bound_must_stay_below_the_diagonal(self):
        x = _np_matrix(nilpotent_matrix(Composition([2])))
        with pytest.raises(ValueError, match="bound"):
            _m_vectors(Permutation.identity(2), x, 2, (0, 2))

    @pytest.mark.parametrize("parts", [(2, 2), (3, 1), (2, 1, 1)])
    def test_springer_points_match_exact_membership(self, parts):
        # reference: the exact flag-membership filter over every u in U^w
        dom = PrimeFieldDomain(2)
        lam = Composition(parts)
        x = nilpotent_matrix(lam, dom)
        h = HessenbergFunction.springer(4)
        for w in all_perms(4):
            wmat = ExactMatrix.permutation(dom, w)
            expected = [
                u for u in exact_u_points(w, dom)
                if verify_flag_membership(Flag.from_matrix(u @ wmat), x, h)
            ]
            # the two lists agree as multisets; neither consumer reads the order
            assert sorted_points(springer_points(w, lam, 2)) == sorted_points(expected)


class TestCellCounts:
    def test_identity_cell_is_one_point(self):
        assert cell_point_count(
            Permutation.identity(2), Composition([2]), HessenbergFunction.springer(2), 2
        ) == 1

    def test_non_row_strict_cell_empty(self):
        # the flag (e2+t e1 | ...) never satisfies X(V_1) <= V_0
        for q in (2, 3):
            assert cell_point_count(
                Permutation([2, 1]), Composition([2]), HessenbergFunction.springer(2), q
            ) == 0

    def test_cell_sizes_match_dimension(self):
        lam = Composition([2, 2])
        h = HessenbergFunction.springer(4)
        dims = {c.w.word: c.dim for c in enumerate_cells(lam, h)}
        for w in all_perms(4):
            count = cell_point_count(w, lam, h, 2)
            if w.word in dims:
                assert count == 2 ** dims[w.word]
            else:
                assert count == 0

    def test_restricted_h_halves_cell(self):
        lam = Composition([2, 2, 2])
        w = Permutation([3, 6, 2, 1, 5, 4])
        assert cell_point_count(w, lam, HessenbergFunction.springer(6), 2) == 64
        assert cell_point_count(w, lam, HessenbergFunction([0, 1, 1, 1, 3, 4]), 2) == 32
        # this h forbids the pair 1|2 in R(w) outright, so the cell is empty
        assert cell_point_count(w, lam, HessenbergFunction([0, 0, 1, 1, 3, 4]), 2) == 0

    def test_invalid_q(self):
        with pytest.raises(ValueError):
            cell_point_count(
                Permutation.identity(2), Composition([2]), HessenbergFunction.springer(2), 4
            )

    def test_budget(self):
        with pytest.raises(BudgetExceededError):
            cell_point_count(
                Permutation([4, 3, 2, 1]), Composition([4]),
                HessenbergFunction.springer(4), 2, budget_bits=2,
            )


class TestVarietyCounts:
    def test_projective_line(self):
        report = variety_point_count(
            Composition([1, 1]), HessenbergFunction.springer(2), 2
        )
        assert report.total == 3
        assert report.predicted == 3
        assert report.match

    def test_22_springer(self):
        report = variety_point_count(
            Composition([2, 2]), HessenbergFunction.springer(4), 2
        )
        assert report.total == 15
        assert report.match
        for entry in report.to_json()["per_cell"]:
            assert entry["count"] == entry["expected"]

    def test_all_h_small(self):
        for parts in [(2, 1), (1, 1, 1), (3,)]:
            lam = Composition(parts)
            hs = list(all_hessenberg_functions(3))
            for q in (2, 3):
                for report in variety_point_counts(lam, hs, q):
                    assert report.match

    def test_evaluate_agreement(self):
        lam = Composition([2, 2])
        h = HessenbergFunction([0, 1, 1, 2])
        for q in (2, 3, 5):
            report = variety_point_count(lam, h, q)
            assert report.total == poincare(lam, h).evaluate(q)

    def test_workers_agree(self):
        lam = Composition([2, 1])
        h = HessenbergFunction.springer(3)
        a = variety_point_count(lam, h, 3, workers=1)
        b = variety_point_count(lam, h, 3, workers=2)
        assert a.per_cell == b.per_cell

    def test_budget(self):
        with pytest.raises(BudgetExceededError):
            variety_point_count(
                Composition([2, 2]), HessenbergFunction.springer(4), 2, budget_bits=4
            )

    def test_2221_springer_reach(self):
        # |Fl_7(F_2)| is 2^26.2 flags, over the default 24-bit budget
        lam, h = Composition([2, 2, 2, 1]), HessenbergFunction.springer(7)
        [per_cell] = flag_point_counts(nilpotent_matrix(lam), [h], 2, budget_bits=27)
        dims = {c.w.word: c.dim for c in enumerate_cells(lam, h)}
        assert len(per_cell) == 5040
        assert per_cell == {w: 2 ** dims[w] if w in dims else 0 for w in per_cell}
        assert sum(per_cell.values()) == poincare(lam, h).evaluate(2) == 51429

    def test_json_shape(self):
        report = variety_point_count(
            Composition([1, 1]), HessenbergFunction.springer(2), 2
        )
        data = report.to_json()
        assert data["q"] == 2
        assert data["match"] is True
        assert {e["w"][0] for e in data["per_cell"]} <= {1, 2}


def flag_variables(flag):
    return set().union(*(e.variables() for col in flag.columns for e in col))


class TestGenericFlagImage:
    def test_row_strict_cells(self):
        for parts in [(2, 2), (3, 1), (2, 1, 1)]:
            lam = Composition(parts)
            for w in all_perms(4):
                if is_row_strict(tableau_of(w, lam)):
                    points = springer_points(w, lam, 2)
                    assert dw_equals_cell(w, lam, 2, generic_flag(w, lam), points)

    def test_q3_spot_check(self):
        w, lam = Permutation([2, 4, 1, 3]), Composition([2, 2])
        assert dw_equals_cell(w, lam, 3, generic_flag(w, lam), springer_points(w, lam, 3))

    @pytest.mark.parametrize("q", [2, 3])
    def test_zeroed_coordinate_fails(self, q):
        # a flag with one coordinate set to 0 covers only q^(d-1) points
        w, lam = Permutation([2, 4, 1, 3]), Composition([2, 2])
        flag = generic_flag(w, lam)
        points = springer_points(w, lam, q)
        keys = sorted(flag_variables(flag))
        assert keys
        for key in keys:
            cut = Flag(flag.domain, tuple(
                tuple(e.subs_zero({key}) for e in col) for col in flag.columns
            ))
            assert not dw_equals_cell(w, lam, q, cut, points)

    def test_flag_of_other_w_fails(self):
        # another cell's flag either has a coordinate that w does not name
        # (substitution raises) or lands in that other cell
        lam = Composition([2, 2])
        w = Permutation([2, 4, 1, 3])
        points = springer_points(w, lam, 2)
        keys = {(w(k), w(l)) for k, l in springer_inversions(w, lam).pairs}
        others = [v for v in all_perms(4) if v != w and is_row_strict(tableau_of(v, lam))]
        assert others
        for v in others:
            flag = generic_flag(v, lam)
            if flag_variables(flag) <= keys:
                assert not dw_equals_cell(w, lam, 2, flag, points)
            else:
                with pytest.raises(KeyError):
                    dw_equals_cell(w, lam, 2, flag, points)


class TestZeroStructure:
    def test_small_exhaustive(self):
        for parts in [(2, 2), (2, 1, 1)]:
            lam = Composition(parts)
            for w in all_perms(4):
                assert zeros_structure_check(w, lam, springer_points(w, lam, 2))

    def test_paper_cell(self):
        w, lam = Permutation([3, 6, 2, 1, 5, 4]), Composition([2, 2, 2])
        assert zeros_structure_check(w, lam, springer_points(w, lam, 2))


class TestConjugation:
    def test_invariance(self):
        for parts, h, q, seed in [
            ((2, 2), HessenbergFunction.springer(4), 2, 1),
            ((2, 1), HessenbergFunction([0, 1, 1]), 3, 2),
        ]:
            lam = Composition(parts)
            total = variety_point_count(lam, h, q).total
            assert conjugation_invariance(lam, h, q, total, trials=3, seed=seed)
            assert not conjugation_invariance(lam, h, q, total + 1, trials=1, seed=seed)

    def test_large_n_rejected(self):
        with pytest.raises(ValueError):
            conjugation_invariance(
                Composition([2, 2, 1]), HessenbergFunction.springer(5), 2, 0
            )
