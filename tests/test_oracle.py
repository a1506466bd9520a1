import hashlib
import itertools
import json
import time
import tracemalloc
from math import log2
from pathlib import Path

import hypothesis
import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import hesspave.oracle
from fq_reference import PrimeFieldDomain, conjugate, random_gl, residue_array
from hesspave.combinatorics import (
    Composition,
    HessenbergFunction,
    Permutation,
    base_filling,
    is_row_strict,
    tableau_of,
)
from hesspave.exactla import (
    ExactMatrix,
    Flag,
    UnipotentPattern,
    bruhat_canonical_form,
    factor_unipotent,
    generic_flag,
    nilpotent_matrix,
    verify_flag_membership,
)
from hesspave.oracle import (
    _M,
    _ROWS,
    BudgetExceededError,
    CountReport,
    _check_budget,
    _image_keys,
    _m_vectors,
    _random_gl,
    _search,
    conjugation_invariance,
    dw_equals_cell,
    flag_point_counts,
    nilpotent_residues,
    springer_points,
    variety_point_count,
    variety_point_counts,
    zeros_structure_check,
)
from hesspave.paving import enumerate_cells, poincare, springer_inversions
from hesspave.verify import CONJUGATION_TRIALS
from proof_reference import (
    RATIONALS,
    all_hessenberg_functions,
    compositions,
    dual_hessenberg,
    evaluate,
    flag_matrix,
    flag_of_matrix,
    identity_permutation,
    length,
    matrix_entry,
    partitions,
    subs_zero,
    substitute,
)

# sha256 of the accepted g and of g^{-1} X_lambda g mod q that seeds 0-9 draw,
# CONJUGATION_TRIALS of each, recorded when the draw was made over GF(q)
DRAW_DIGESTS = json.loads(
    (Path(__file__).parent / "data" / "conjugation_draws_sha256.json").read_text()
)


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


def residues(us, n):
    """Exact points over GF(q) as the (N, n, n) residue array of springer_points."""
    return np.array([[[e.v for e in row] for row in u.rows] for u in us],
                    dtype=np.int64).reshape(-1, n, n)


def sorted_points(points):
    return sorted(np.asarray(points).tolist())


def test_nilpotent_residues_match_exact_matrix():
    # the int64 array read off the base filling is X_lambda over Q, read as
    # int64, for every composition with n <= 8
    shapes = [c for n in range(1, 9) for c in compositions(n)]
    assert len(shapes) == 255
    for parts in shapes:
        lam = Composition(parts)
        x = nilpotent_residues(lam)
        expected = np.array(nilpotent_matrix(lam, RATIONALS).rows, dtype=np.int64)
        assert x.dtype == expected.dtype
        assert x.shape == expected.shape == (lam.n, lam.n)
        assert (x == expected).all()


class TestBatchArithmetic:
    @pytest.mark.parametrize("q", [2, 3])
    @pytest.mark.parametrize("n", [3, 4])
    def test_m_vectors_match_exact_conjugation(self, n, q):
        # reference: (uW)^{-1} X (uW) per matrix, with the Gauss-Jordan inverse
        dom = PrimeFieldDomain(q)
        springer = HessenbergFunction.springer(n).values
        xs = [nilpotent_matrix(Composition(p), dom) for p in partitions(n)]
        xs.append(conjugate(random_gl(n, q, np.random.default_rng(n * q)), xs[0]))
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
                assert reference_m_vectors(w, residue_array(x), q).tolist() == expected
                fiber = [m for m in expected if all(np.array(m) <= springer)]
                assert sorted_rows(_m_vectors(w, residue_array(x), q, springer)) == (
                    sorted_rows(fiber)
                )

    # a fixed seed, so that editing this test does not redraw its examples
    # (derandomize seeds them from the source).  Seeds 0-2 draw X = 0 at
    # n = q = 5, where each of the three searches below visits all 22.7
    # million flags; seed 3 is the first that does not, and that case is
    # counted by test_zero_matrix_counts_every_flag_at_q5
    @hypothesis.seed(3)
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
        x = nilpotent_residues(lam)
        if data.draw(st.booleans()):
            rng = np.random.default_rng(data.draw(st.integers(0, 2**32 - 1)))
            g, inv = _random_gl(n, q, rng)
            x = inv @ x @ g % q
        # the reference builds all q^l(w) matrices, so w0 of S_5 is left
        # out at q = 5 (5^10 of them)
        cheap = [w for w in all_perms(n) if q ** length(w) <= 3**10]
        ws = data.draw(st.lists(st.sampled_from(cheap), min_size=1, max_size=6, unique=True))
        counts = flag_point_counts(x, hs, q, budget_bits=40)
        for per_cell in counts:
            # only the cells with points have an entry
            assert set(per_cell) <= {w.word for w in all_perms(n)}
            assert all(c > 0 for c in per_cell.values())
        bound = np.max([h.values for h in hs], axis=0)
        # one search answers every sampled w, batch by batch: the m-vectors
        # of its points whose rows are w's
        found = {w.word: [] for w in ws}
        for nodes in _search(x, q, bound):
            for word, m in found.items():
                m += nodes[_M][:, (nodes[_ROWS].T == np.array(word) - 1).all(axis=1)].T.tolist()
        assert sorted_rows(_m_vectors(ws[0], x, q, bound)) == sorted_rows(found[ws[0].word])
        for w in ws:
            ref = reference_m_vectors(w, x, q)
            assert sorted_rows(found[w.word]) == sorted_rows(ref[np.all(ref <= bound, axis=1)])
            for per_cell, h in zip(counts, hs):
                assert per_cell.get(w.word, 0) == int(np.all(ref <= h.values, axis=1).sum())

    def test_bound_must_stay_below_the_diagonal(self):
        x = nilpotent_residues(Composition([2]))
        with pytest.raises(ValueError, match="bound"):
            _m_vectors(identity_permutation(2), x, 2, (0, 2))

    @pytest.mark.parametrize("q", [2, 3])
    @pytest.mark.parametrize("parts", [(2, 2), (3, 1), (2, 1, 1), (1, 1, 1)])
    def test_springer_points_match_exact_membership(self, parts, q):
        # reference: the exact flag-membership filter over every u in U^w,
        # for every w; the one search keeps exactly the Springer cells
        dom = PrimeFieldDomain(q)
        lam = Composition(parts)
        n = lam.n
        x = nilpotent_matrix(lam, dom)
        h = HessenbergFunction.springer(n)
        expected = {}
        for w in all_perms(n):
            wmat = ExactMatrix.permutation(dom, w)
            us = [
                u for u in exact_u_points(w, dom)
                if verify_flag_membership(flag_of_matrix(u @ wmat), x, h)
            ]
            if us:
                expected[w.word] = sorted_points(residues(us, n))
        fiber = springer_points(lam, q)
        cells = enumerate_cells(lam, h)
        assert sorted(fiber) == sorted(expected) == [word for word, _, _, _ in cells]
        for word, _, _, dim in cells:
            assert fiber[word].shape == (q**dim, n, n)
        # the lists agree as multisets; neither consumer reads the order
        assert {w: sorted_points(points) for w, points in fiber.items()} == expected


class TestBudgetCheck:
    """`_check_budget` against the exact size of Fl_n(F_q)."""

    def test_decision_and_message_match_the_exact_product(self):
        # every q and n <= 60, at each budget around log2 |Fl_n(F_q)|: the
        # check refuses exactly when the product passes 2^budget, and its
        # message shows log2 of the whole product.  |Fl_2(F_3)| = 4 points
        # fit a 2-bit budget exactly
        _check_budget(2, 3, 2)
        cases = refused = 0
        for q in (2, 3, 5, 7, 11, 13):
            exact = 1
            for n in range(1, 61):
                exact *= (q**n - 1) // (q - 1)
                top = exact.bit_length()
                for budget in {1, 24} | set(range(max(1, top - 2), top + 2)):
                    cases += 1
                    if exact <= 2**budget:
                        _check_budget(n, q, budget)
                        continue
                    refused += 1
                    with pytest.raises(BudgetExceededError) as info:
                        _check_budget(n, q, budget)
                    assert str(info.value) == (
                        f"enumeration needs {log2(exact):.1f} bits of work, budget is {budget}"
                    )
        assert cases > 1500 and refused > 1000


class TestCellCounts:
    """Points of single cells, read off the one search over every w."""

    def test_identity_cell_is_one_point(self):
        lam = Composition([2])
        [counts] = flag_point_counts(nilpotent_residues(lam), [HessenbergFunction.springer(2)], 2)
        assert counts[(1, 2)] == 1

    def test_non_row_strict_cell_empty(self):
        # the flag (e2+t e1 | ...) never satisfies X(V_1) <= V_0
        lam = Composition([2])
        for q in (2, 3):
            [counts] = flag_point_counts(
                nilpotent_residues(lam), [HessenbergFunction.springer(2)], q
            )
            assert (2, 1) not in counts

    def test_cell_sizes_match_dimension(self):
        lam = Composition([2, 2])
        h = HessenbergFunction.springer(4)
        dims = {word: dim for word, _, _, dim in enumerate_cells(lam, h)}
        [counts] = flag_point_counts(nilpotent_residues(lam), [h], 2)
        for w in all_perms(4):
            if w.word in dims:
                assert counts.get(w.word, 0) == 2 ** dims[w.word]
            else:
                assert counts.get(w.word, 0) == 0

    def test_restricted_h_halves_cell(self):
        lam = Composition([2, 2, 2])
        w = Permutation([3, 6, 2, 1, 5, 4])
        hs = [
            HessenbergFunction.springer(6),
            HessenbergFunction([0, 1, 1, 1, 3, 4]),
            # this h forbids the pair 1|2 in R(w) outright, so the cell is empty
            HessenbergFunction([0, 0, 1, 1, 3, 4]),
        ]
        counts = flag_point_counts(nilpotent_residues(lam), hs, 2)
        assert [per_cell.get(w.word, 0) for per_cell in counts] == [64, 32, 0]

    def test_invalid_q(self):
        with pytest.raises(ValueError):
            flag_point_counts(
                nilpotent_residues(Composition([2])), [HessenbergFunction.springer(2)], 4
            )

    def test_budget(self):
        with pytest.raises(BudgetExceededError):
            flag_point_counts(
                nilpotent_residues(Composition([4])), [HessenbergFunction.springer(4)], 2,
                budget_bits=2,
            )

    @pytest.mark.parametrize("parts, n_h", [((2, 2), 3), ((2, 1), 4)])
    def test_size_mismatch(self, parts, n_h):
        # one h of the wrong size among several is refused before any search
        x = nilpotent_residues(Composition(parts))
        n = len(x)
        hs = [HessenbergFunction.springer(n), HessenbergFunction.springer(n_h)]
        with pytest.raises(ValueError, match=rf"size mismatch: n\(X\)={n}, n\(h\)={n_h}"):
            flag_point_counts(x, hs, 2)

    @pytest.mark.parametrize("x", [
        # a float array would be read mod q through float32
        np.array([[0.0, 1.0], [0.0, 0.0]]),
        np.zeros((2, 3), dtype=np.int64),
        np.zeros(4, dtype=np.int64),
    ])
    def test_x_must_be_a_square_integer_array(self, x):
        with pytest.raises(ValueError, match="square 2-D integer array"):
            flag_point_counts(x, [HessenbergFunction.springer(2)], 2)


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
            assert report.total == evaluate(poincare(lam, h), q)

    def test_dual_totals_every_partition_of_6(self):
        # Hess(X, h) and Hess(X, h*) are isomorphic, so their F_2-point totals
        # agree with each other and with P(2); one search per partition
        # answers a fixed sample of non-self-dual h and their duals.  For
        # n <= 5 criterion 2 and TestDuality already imply this
        sample = [HessenbergFunction(v) for v in [
            (0, 0, 0, 0, 0, 2), (0, 0, 0, 0, 4, 4), (0, 0, 0, 2, 2, 2),
            (0, 0, 1, 1, 1, 3), (0, 0, 1, 2, 3, 3), (0, 0, 2, 2, 3, 5),
            (0, 1, 1, 1, 3, 4), (0, 1, 1, 3, 4, 4),
        ]]
        duals = [dual_hessenberg(h) for h in sample]
        assert all(d != h for h, d in zip(sample, duals))
        nonempty = 0
        for parts in partitions(6):
            lam = Composition(parts)
            counts = flag_point_counts(nilpotent_residues(lam), sample + duals, 2)
            totals = [sum(c.values()) for c in counts]
            for h, total, dual_total in zip(sample, totals, totals[len(sample):]):
                assert total == dual_total == evaluate(poincare(lam, h), 2), (parts, h)
                nonempty += total > 0
        assert nonempty == 42  # of the 88 (partition, h) pairs

    def test_dense_conjugate_sums_to_poincare(self):
        # a random conjugate of X_lambda prunes little, so the search visits
        # most of each w's flags; per h its cells still add up to P(q)
        lam, q = Composition([2, 2, 1]), 3
        g, inv = _random_gl(5, q, np.random.default_rng(5))
        x = inv @ nilpotent_residues(lam) @ g % q
        hs = [HessenbergFunction.springer(5), HessenbergFunction([0, 1, 1, 2, 3])]
        counts = flag_point_counts(x, hs, q)
        for per_cell, h in zip(counts, hs):
            assert sum(per_cell.values()) == evaluate(poincare(lam, h), q)

    def test_budget(self):
        with pytest.raises(BudgetExceededError):
            variety_point_count(
                Composition([2, 2]), HessenbergFunction.springer(4), 2, budget_bits=4
            )

    def test_2221_springer_reach(self):
        # |Fl_7(F_2)| is 2^26.2 flags, over the default 24-bit budget
        lam, h = Composition([2, 2, 2, 1]), HessenbergFunction.springer(7)
        [per_cell] = flag_point_counts(nilpotent_residues(lam), [h], 2, budget_bits=27)
        dims = {word: dim for word, _, _, dim in enumerate_cells(lam, h)}
        assert per_cell == {w: 2**d for w, d in dims.items()}
        assert sum(per_cell.values()) == evaluate(poincare(lam, h), 2) == 51429

    def test_332_springer_reach(self):
        # |Fl_8(F_2)| is 2^34.2 flags; the shared search visits few of them
        lam, h = Composition([3, 3, 2]), HessenbergFunction.springer(8)
        [per_cell] = flag_point_counts(nilpotent_residues(lam), [h], 2, budget_bits=35)
        dims = {word: dim for word, _, _, dim in enumerate_cells(lam, h)}
        assert per_cell == {w: 2**d for w, d in dims.items()}

    def test_counting_keeps_no_points(self):
        # X = 0 prunes nothing, so all 9,765 flags of Fl_5(F_2) are found;
        # each batch is tallied and dropped, and the frontier stays chunked
        x, h = nilpotent_residues(Composition([1] * 5)), HessenbergFunction.springer(5)
        tracemalloc.start()
        try:
            [per_cell] = flag_point_counts(x, [h], 2)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert sum(per_cell.values()) == 9765
        assert peak <= 2 * 2**20

    def test_tally_holds_no_table_of_all_permutations(self):
        # 10! = 3,628,800 words, so one int64 count per permutation alone
        # would take 29 MB; the tally holds only the 252 cells with points
        lam, h = Composition([5, 5]), HessenbergFunction.springer(10)
        x = nilpotent_residues(lam)
        tracemalloc.start()
        try:
            [per_cell] = flag_point_counts(x, [h], 2, budget_bits=60)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        cells = enumerate_cells(lam, h)
        assert len(cells) == 252
        assert per_cell == {word: 2**dim for word, _, _, dim in cells}
        assert peak <= 4 * 2**20

    @pytest.mark.parametrize("parts, h", [
        ((2, 2), HessenbergFunction.springer(4)),
        ((2, 1, 1), HessenbergFunction([0, 1, 1, 2])),
        ((3, 1), HessenbergFunction([0, 0, 1, 3])),
    ])
    @pytest.mark.parametrize("q", [2, 3])
    def test_sparse_counts_report_as_padded(self, parts, h, q):
        # a word missing from the counts reads as 0, also when the paving
        # expects points there
        lam = Composition(parts)
        cells = enumerate_cells(lam, h)
        [sparse] = flag_point_counts(nilpotent_residues(lam), [h], q)
        assert 0 not in sparse.values()
        word, _, _, dim = cells[-1]
        emptied = dict(sparse)
        del emptied[word]
        for counts in (sparse, emptied):
            padded = {w.word: counts.get(w.word, 0) for w in all_perms(lam.n)}
            report = CountReport.from_counts(q, counts, cells)
            assert report.to_json() == CountReport.from_counts(q, padded, cells).to_json()
        missing = CountReport.from_counts(q, emptied, cells).to_json()
        assert missing["match"] is False
        assert {"w": list(word), "count": 0, "expected": q**dim} in missing["per_cell"]

    def test_zero_matrix_counts_every_flag_at_q5(self):
        # X = 0 at the largest n and q that test_search_matches_brute_force
        # draws: even the smallest h prunes nothing, so all 22,661,496 flags
        # of Fl_5(F_5) are found and each C_w keeps all 5^l(w) of its points
        h = HessenbergFunction((0,) * 5)
        [per_cell] = flag_point_counts(np.zeros((5, 5), dtype=np.int64), [h], 5, budget_bits=40)
        assert per_cell == {w.word: 5 ** length(w) for w in all_perms(5)}

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


# The exact per-point references for the image and zero-structure checks.

def canonical_key(m):
    """(w.word, u's entries at the free positions of U^w) of the flag of m."""
    w, u = bruhat_canonical_form(m)
    return (w.word,) + tuple(
        matrix_entry(u, a, b).v for a, b in UnipotentPattern.schubert(w).positions_sorted()
    )


def reference_image_keys(w, lam, q, flag):
    """canonical_key of the flag evaluated at every coordinate tuple over F_q."""
    dom = PrimeFieldDomain(q)
    coords = [(w(k), w(l)) for k, l in sorted(springer_inversions(w, lam))]
    rows = flag_matrix(flag).rows
    keys = []
    for vals in itertools.product(dom.elements(), repeat=len(coords)):
        values = dict(zip(coords, vals))
        keys.append(canonical_key(ExactMatrix.from_rows(
            dom, [[substitute(e, values, dom) for e in row] for row in rows]
        )))
    return keys


def reference_zeros(w, lam, u_i):
    """True iff u_i, the U_i factor of uw = u_i v u_0 y from factor_unipotent,
    vanishes outside the columns that end a row of the base filling."""
    i = w(w.n)
    end_cols = {row[-1] for row in base_filling(lam).rows}
    return all(not matrix_entry(u_i, i, j) for j in range(i + 1, w.n + 1) if j not in end_cols)


class TestGenericFlagImage:
    def test_row_strict_cells(self):
        for parts in [(2, 2), (3, 1), (2, 1, 1)]:
            lam = Composition(parts)
            fiber = springer_points(lam, 2)
            for w in all_perms(4):
                if is_row_strict(tableau_of(w, lam)):
                    spr = springer_inversions(w, lam)
                    assert dw_equals_cell(w, spr, 2, generic_flag(w, lam, spr), fiber[w.word])

    @pytest.mark.parametrize("q", [2, 3])
    @pytest.mark.parametrize("n", [1, 2, 3, 4])
    def test_keys_match_per_point_canonical_form(self, n, q):
        # the one symbolic reduction keys every evaluated flag as
        # bruhat_canonical_form does point by point
        for parts in partitions(n):
            lam = Composition(parts)
            for word, _, pairs, dim in enumerate_cells(lam, HessenbergFunction.springer(n)):
                w = Permutation(word)
                flag = generic_flag(w, lam, frozenset(pairs))
                coords = [(w(k), w(l)) for k, l in pairs]
                ref = reference_image_keys(w, lam, q, flag)
                assert len(set(ref)) == len(ref) == q**dim
                assert _image_keys(w, coords, q, flag) == set(ref)

    def test_q3_spot_check(self):
        w, lam = Permutation([2, 4, 1, 3]), Composition([2, 2])
        points = springer_points(lam, 3)[w.word]
        spr = springer_inversions(w, lam)
        assert dw_equals_cell(w, spr, 3, generic_flag(w, lam, spr), points)

    @pytest.mark.parametrize("q", [2, 3])
    def test_zeroed_coordinate_fails(self, q):
        # a flag with one coordinate set to 0 covers only q^(d-1) points
        w, lam = Permutation([2, 4, 1, 3]), Composition([2, 2])
        flag = generic_flag(w, lam, springer_inversions(w, lam))
        points = springer_points(lam, q)[w.word]
        spr = springer_inversions(w, lam)
        keys = sorted(flag_variables(flag))
        assert keys
        for key in keys:
            cut = Flag(flag.domain, tuple(
                tuple(subs_zero(e, {key}) for e in col) for col in flag.columns
            ))
            assert not dw_equals_cell(w, spr, q, cut, points)

    def test_flag_of_other_w_fails(self):
        # another cell's flag either has a coordinate that w does not name
        # (substitution raises) or lands in that other cell
        lam = Composition([2, 2])
        w = Permutation([2, 4, 1, 3])
        points = springer_points(lam, 2)[w.word]
        spr = springer_inversions(w, lam)
        keys = {(w(k), w(l)) for k, l in spr}
        others = [v for v in all_perms(4) if v != w and is_row_strict(tableau_of(v, lam))]
        assert others
        for v in others:
            flag = generic_flag(v, lam, springer_inversions(v, lam))
            if flag_variables(flag) <= keys:
                assert not dw_equals_cell(w, spr, 2, flag, points)
            else:
                with pytest.raises(KeyError):
                    dw_equals_cell(w, spr, 2, flag, points)


class TestZeroStructure:
    def test_small_exhaustive(self):
        for parts in [(2, 2), (2, 1, 1)]:
            lam = Composition(parts)
            fiber = springer_points(lam, 2)
            # a cell outside the fiber has no points, and the check holds vacuously
            empty = np.zeros((0, 4, 4), dtype=np.int64)
            for w in all_perms(4):
                assert zeros_structure_check(w, lam, 2, fiber.get(w.word, empty))

    def test_paper_cell(self):
        w, lam = Permutation([3, 6, 2, 1, 5, 4]), Composition([2, 2, 2])
        assert zeros_structure_check(w, lam, 2, springer_points(lam, 2)[w.word])

    @pytest.mark.parametrize("q", [2, 3])
    @pytest.mark.parametrize("n", [3, 4])
    def test_matches_factor_unipotent_on_every_point(self, n, q):
        # every u in U^w(F_q), not only the fiber points, so both answers occur
        dom = PrimeFieldDomain(q)
        answers = set()
        for w in all_perms(n):
            for u in exact_u_points(w, dom):
                u_i, _ = factor_unipotent(u, w)
                for parts in partitions(n):
                    lam = Composition(parts)
                    expected = reference_zeros(w, lam, u_i)
                    assert zeros_structure_check(w, lam, q, residues([u], n)) == expected
                    answers.add(expected)
        assert answers == {True, False}


def test_springer_fiber_checks_reach_n5():
    # image, injectivity and zero structure on every Springer cell of every
    # partition of 5 at q = 2, one search per partition; on a 2-core Xeon the
    # two checks take about 0.25 s of CPU, the per-point exact path took 9 s
    spent = 0.0
    cells = 0
    for parts in partitions(5):
        lam = Composition(parts)
        fiber = springer_points(lam, 2)
        for word, _, pairs, _ in enumerate_cells(lam, HessenbergFunction.springer(5)):
            w, spr = Permutation(word), frozenset(pairs)
            flag, points = generic_flag(w, lam, spr), fiber[word]
            start = time.process_time()
            assert dw_equals_cell(w, spr, 2, flag, points), (parts, w)
            assert zeros_structure_check(w, lam, 2, points), (parts, w)
            spent += time.process_time() - start
            cells += 1
    assert cells == 246
    assert spent < 2.0


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

    @staticmethod
    def draws(lam, q, seeds=range(10)):
        """[g, g^{-1} X_lambda g mod q] for each draw of the seeds' rngs."""
        x = nilpotent_residues(lam)
        out = []
        for seed in seeds:
            rng = np.random.default_rng(seed)
            for _ in range(CONJUGATION_TRIALS):
                g, inv = _random_gl(lam.n, q, rng)
                out.append([g.tolist(), (inv @ x @ g % q).tolist()])
        return out

    @pytest.mark.parametrize("q", [2, 3, 5, 7])
    def test_draws_match_golden(self, q):
        # the same rng calls accept the same g and give the same conjugate
        for n in range(1, 6):
            for parts in partitions(n):
                lam = Composition(parts)
                digest = hashlib.sha256(json.dumps(self.draws(lam, q)).encode()).hexdigest()
                key = f"lambda={','.join(map(str, parts))} q={q}"
                assert digest == DRAW_DIGESTS[key], key

    @pytest.mark.parametrize("q", [2, 3, 5])
    @pytest.mark.parametrize("n", [1, 3, 5])
    def test_inverse_matches_gf(self, n, q):
        # the residue inverse is the Gauss-Jordan inverse over GF(q)
        rng, ref_rng = np.random.default_rng(n * q), np.random.default_rng(n * q)
        for _ in range(20):
            g, inv = _random_gl(n, q, rng)
            ref = random_gl(n, q, ref_rng)
            assert residue_array(ref).tolist() == g.tolist()
            assert residue_array(ref.inverse()).tolist() == inv.tolist()

    @pytest.mark.parametrize("q", [2, 3, 5])
    def test_singular_draw_is_rejected(self, q):
        # rank n - 1: a repeated row, and the last column of zeros
        a = np.array([[1, 2, 0], [1, 2, 0], [0, 1, 0]]) % q
        assert hesspave.oracle._inverse_mod(a, q) is None
        assert hesspave.oracle._inverse_mod(np.zeros((1, 1), dtype=np.int64), q) is None

    def test_invariance_counts_the_drawn_conjugates(self, monkeypatch):
        lam, h, q, seed = Composition([2, 1, 1]), HessenbergFunction.springer(4), 3, 4
        seen = []

        def record(x, hs, q, budget_bits):
            seen.append(x.tolist())
            return [{(): 7}]

        monkeypatch.setattr(hesspave.oracle, "flag_point_counts", record)
        assert conjugation_invariance(lam, h, q, 7, CONJUGATION_TRIALS, seed)
        assert seen == [c for _, c in self.draws(lam, q, [seed])]

    def test_large_n_rejected(self):
        with pytest.raises(ValueError):
            conjugation_invariance(
                Composition([2, 2, 1]), HessenbergFunction.springer(5), 2, 0, trials=1
            )
