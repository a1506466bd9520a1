import itertools
import random
import tracemalloc
from collections import Counter
from math import factorial, prod

import pytest
from hypothesis import assume, given, settings, strategies as st

from hesspave.combinatorics import (
    Composition,
    HessenbergFunction,
    Permutation,
    Tableau,
    base_filling,
    factorize,
    inversions,
    is_h_strict,
    is_row_strict,
    permutation_of_tableau,
    standardize,
    tableau_of,
)
from hesspave import paving
from hesspave.cli import main
from hesspave.exactla import _level
from hesspave.paving import (
    cell_profile,
    enumerate_cells,
    hessenberg_inversions,
    inversion_profile,
    iter_fillings,
    maximal_cells_are_standard,
    poincare,
    r0_tableau,
    springer_inversions,
    zero_dim_cells,
)
import proof_reference
from proof_reference import (
    all_hessenberg_functions,
    column_sort_trace,
    compositions,
    delete_last_box,
    dual_hessenberg,
    evaluate,
    h_leq,
    identity_permutation,
    inv_level,
    orbit_point_counts,
    ordered_poincare,
    partitions,
    row_placements,
    springer_line_count,
)


def all_perms(n):
    return [Permutation(p) for p in itertools.permutations(range(1, n + 1))]


def mahonian(n):
    """Number of permutations of [n] by inversion count (DP over insertions)."""
    dist = [1]
    for k in range(2, n + 1):
        new = [0] * (len(dist) + k - 1)
        for d, c in enumerate(dist):
            for add in range(k):
                new[d + add] += c
        dist = new
    return dist


class TestInversionSets:
    def test_paper_examples(self):
        lam = Composition([2, 3, 1, 1])
        w = Permutation([4, 3, 1, 6, 5, 7, 2])
        springer = HessenbergFunction.springer(7)
        assert hessenberg_inversions(w, lam, springer) == {
            (7, 6), (7, 4), (5, 4), (3, 2), (3, 1), (2, 1)}
        h = HessenbergFunction([0, 0, 1, 2, 3, 3, 3])
        assert hessenberg_inversions(w, lam, h) == {
            (7, 6), (7, 4), (5, 4), (3, 2), (2, 1)}

    def test_springer_examples(self):
        assert springer_inversions(
            Permutation([3, 2, 6, 1, 7, 4, 5]), Composition([3, 2, 2])
        ) == {(7, 5), (6, 5), (4, 2), (4, 3), (2, 1)}
        assert springer_inversions(
            Permutation([3, 6, 2, 1, 5, 4]), Composition([2, 2, 2])
        ) == {(6, 5), (6, 2), (5, 2), (4, 3), (4, 2), (3, 2)}
        for lam in [Composition([2, 2]), Composition([3, 1])]:
            assert not springer_inversions(identity_permutation(4), lam)

    def test_containment_chain(self):
        # inv_{lambda,h} <= inv_lambda <= inv(w), exhaustively for small n
        for n in range(2, 6):
            hs = list(all_hessenberg_functions(n))
            springer = HessenbergFunction.springer(n)
            for parts in partitions(n):
                lam = Composition(parts)
                for w in all_perms(n):
                    spr = springer_inversions(w, lam)
                    assert spr <= inversions(w)
                    for h in hs:
                        assert hessenberg_inversions(w, lam, h) <= spr

    def test_monotone_in_h(self):
        for n in range(2, 6):
            hs = list(all_hessenberg_functions(n))
            for parts in partitions(n):
                lam = Composition(parts)
                for w in all_perms(n):
                    invs = {h: hessenberg_inversions(w, lam, h) for h in hs}
                    for h1, h2 in itertools.combinations(hs, 2):
                        if h_leq(h1, h2):
                            assert invs[h1] <= invs[h2]

    def test_level_rows_distinct(self):
        # for fixed k, the l's of (k,l) pairs lie in distinct rows of a
        # row-strict R(w)
        for parts in partitions(5):
            lam = Composition(parts)
            for w in all_perms(5):
                t = tableau_of(w, lam)
                if not is_row_strict(t):
                    continue
                spr = springer_inversions(w, lam)
                for k in range(2, 6):
                    rows = [t.position(l)[0] for l in inv_level(spr, k)]
                    assert len(rows) == len(set(rows))

    @settings(max_examples=200, deadline=None, database=None, derandomize=True)
    @given(st.sets(st.tuples(st.integers(1, 7), st.integers(1, 7)).filter(lambda p: p[0] > p[1])))
    def test_level_matches_a_fresh_sort(self, pairs):
        # the one level rule that bk_entries and generic_coordinates read,
        # on any set of pairs
        for k in range(0, 9):
            assert _level(frozenset(pairs), k) == sorted(l for kk, l in pairs if kk == k)

    def test_deletion_recursion(self):
        # inv of y on the deleted shape = inv of w minus the k = n level
        for n in range(2, 7):
            for parts in partitions(n):
                lam = Composition(parts)
                for w in all_perms(n):
                    t = tableau_of(w, lam)
                    if not is_row_strict(t):
                        continue
                    _, y = factorize(w)
                    lamp, _ = delete_last_box(t)
                    yp = Permutation(y.word[:-1]) if n > 1 else y
                    expect = {p for p in springer_inversions(w, lam) if p[0] != n}
                    assert springer_inversions(yp, lamp) == expect


class TestEnumerateCells:
    def test_single_row(self):
        cells = enumerate_cells(Composition([2]), HessenbergFunction([0, 1]))
        assert len(cells) == 1
        word, _, _, dim = cells[0]
        assert Permutation(word) == identity_permutation(2)
        assert dim == 0

    def test_222_springer(self):
        cells = enumerate_cells(Composition([2, 2, 2]), HessenbergFunction.springer(6))
        dims = {word: dim for word, _, _, dim in cells}
        assert (3, 6, 2, 1, 5, 4) in dims
        assert dims[(3, 6, 2, 1, 5, 4)] == 6

    def test_one_column_two_cells(self):
        cells = enumerate_cells(Composition([1, 1]), HessenbergFunction([0, 0]))
        assert sorted(dim for _, _, _, dim in cells) == [0, 1]

    def test_matches_direct_filter(self):
        # backtracking enumeration agrees with the n!-filter definition
        for n in range(2, 6):
            for parts in partitions(n):
                lam = Composition(parts)
                for h in all_hessenberg_functions(n):
                    cells = enumerate_cells(lam, h)
                    direct = sorted(
                        w.word for w in all_perms(n)
                        if is_h_strict(tableau_of(w, lam), h)
                    )
                    assert [word for word, _, _, _ in cells] == direct
                    for word, _, _, dim in cells:
                        assert dim == len(hessenberg_inversions(Permutation(word), lam, h))

    def test_cell_consistency(self):
        lam = Composition([2, 2, 1])
        h = HessenbergFunction([0, 1, 1, 2, 3])
        for word, rows, pairs, dim in enumerate_cells(lam, h):
            w, t = Permutation(word), Tableau(rows)
            assert t.rows == tableau_of(w, lam).rows
            assert is_h_strict(t, h)
            assert frozenset(pairs) <= springer_inversions(w, lam)
            assert dim == len(frozenset(pairs))


class TestPoincare:
    def test_examples(self):
        assert poincare(Composition([1, 1]), HessenbergFunction.springer(2)).coeffs == (1, 1)
        assert poincare(Composition([2]), HessenbergFunction([0, 1])).coeffs == (1,)
        p = poincare(Composition([2, 2, 2]), HessenbergFunction.springer(6))
        assert p.coeffs[6] == 5

    def test_mahonian_one_column(self):
        # at n = 30 the coefficients reach 102 bits, so a packed digit that
        # carried into its neighbor would show
        for n in range(1, 31):
            p = poincare(Composition([1] * n), HessenbergFunction.springer(n))
            assert list(p.coeffs) == mahonian(n)
        assert max(p.coeffs).bit_length() == 102

    def test_histogram_consistent(self):
        lam = Composition([2, 2])
        h = HessenbergFunction([0, 0, 1, 1])
        coeffs = poincare(lam, h).coeffs
        cells = enumerate_cells(lam, h)
        assert sum(coeffs) == len(cells)
        for k, c in enumerate(coeffs):
            assert c == sum(1 for _, _, _, dim in cells if dim == k)

    def test_evaluate(self):
        p = poincare(Composition([1, 1]), HessenbergFunction.springer(2))
        assert evaluate(p, 2) == 3
        assert evaluate(p, 3) == 4


def cell_histogram(lam, h):
    """Cell dimensions of the table; `enumerate_cells` checks each one
    against `_inversion_pairs`, so this oracle does not rest on the
    recursion's placement step alone."""
    hist = []
    for _, _, _, dim in enumerate_cells(lam, h):
        hist.extend([0] * (dim + 1 - len(hist)))
        hist[dim] += 1
    return tuple(hist)


def reference_inversions(grid, h):
    """Hessenberg inversions straight from the definition, pair by pair.

    `grid` is a list of rows that may hold None holes; a hole or the end of
    the row to the right of l means no condition on k.
    """
    pos = {v: (r, c) for r, row in enumerate(grid) for c, v in enumerate(row) if v is not None}
    pairs = set()
    for k, (rk, ck) in pos.items():
        for l, (rl, cl) in pos.items():
            if k <= l or not (ck < cl or (ck == cl and rk > rl)):
                continue
            row = grid[rl]
            right = row[cl + 1] if cl + 1 < len(row) else None
            if right is None or k <= h(right):
                pairs.add((k, l))
    return pairs, pos


def reference_profile(grid, h):
    pairs, pos = reference_inversions(grid, h)
    d = {}
    for k, l in pairs:
        key = (pos[k][1] + 1, pos[l][1] + 1)
        d[key] = d.get(key, 0) + 1
    return d


def nonzero(profile):
    return {key: v for key, v in profile.items() if v}


def table_cases():
    """Every composition with n <= 5 under every h, and every composition
    with n = 6 under the Springer h and two others."""
    for n in range(1, 6):
        for parts in compositions(n):
            for h in all_hessenberg_functions(n):
                yield Composition(parts), h
    others = [HessenbergFunction([0, 1, 1, 1, 3, 4]), HessenbergFunction([0, 0, 1, 2, 3, 3])]
    for parts in compositions(6):
        for h in [HessenbergFunction.springer(6)] + others:
            yield Composition(parts), h


class TestCellTable:
    """Each cell of the table against the slow per-cell functions and the
    definition."""

    def test_cells_match_reference(self):
        cases = cells_seen = 0
        for lam, h in table_cases():
            springer = HessenbergFunction.springer(lam.n)
            cases += 1
            for word, rows, pairs, dim in enumerate_cells(lam, h):
                cells_seen += 1
                w, t = Permutation(word), Tableau(rows)
                spr = springer_inversions(w, lam)
                assert pairs == tuple(sorted(frozenset(pairs)))
                assert all(k > l for k, l in pairs + tuple(spr))
                assert t.rows == rows
                assert tableau_of(w, lam).rows == t.rows
                assert permutation_of_tableau(t) == w
                assert frozenset(pairs) == hessenberg_inversions(w, lam, h)
                assert type(spr) is frozenset
                grid = [list(r) for r in t.rows]
                assert frozenset(pairs) == reference_inversions(grid, h)[0]
                assert spr == reference_inversions(grid, springer)[0]
                assert nonzero(inversion_profile(t, h)) == reference_profile(grid, h)
        assert cases == 1 + 2 * 2 + 4 * 5 + 8 * 14 + 16 * 42 + 3 * 32
        assert cells_seen > 10_000

    def test_words_strictly_increase(self):
        # the table is sorted by word, with no word twice
        shapes = [(c, None) for n in range(1, 6) for c in compositions(n)]
        shapes += [(p, HessenbergFunction.springer(6)) for p in partitions(6)]
        cases = cells_seen = 0
        for parts, springer in shapes:
            lam = Composition(parts)
            for h in [springer] if springer else all_hessenberg_functions(lam.n):
                table = enumerate_cells(lam, h)
                words = [word for word, _, _, _ in table]
                assert all(a < b for a, b in zip(words, words[1:]))
                cases += 1
                cells_seen += len(table)
        assert cases == 809 + 11
        assert cells_seen > 10_000

    def test_one_row_of_many_boxes_allocates_no_pair_table(self):
        # the pair table's rows are built on demand: a single row has no
        # inversions, so none is built (a full table at n = 3000 is 9M tuples)
        n = 3000
        tracemalloc.start()
        try:
            cells = enumerate_cells(Composition([n]), HessenbergFunction.springer(n))
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert [(word, dim) for word, _, _, dim in cells] == [(tuple(range(1, n + 1)), 0)]
        assert peak < 20 * 2**20

    def test_sort_trace_profiles_match_reference(self):
        # the trace's grids have None holes where rows of unequal length swap
        R = Tableau([[2, 4, 8, 10], [1, 5, 7, 11], [3, 9, 12], [6]])
        h = HessenbergFunction([max(0, i - 2) for i in range(1, 13)])
        for i, j in [(1, 1), (1, 2), (2, 3), (3, 3)]:
            for step in column_sort_trace(R, i, j, h):
                grid = [list(r) for r in step.grid]
                assert nonzero(step.profile) == reference_profile(grid, h)


def record_calls(monkeypatch, owner=paving, name="_placements"):
    """Record the arguments of every call of the placement step `owner.name`
    (the grouped `paving._placements` by default)."""
    calls = []
    step = getattr(owner, name)

    def recorded(*args):
        calls.append(args)
        return step(*args)

    monkeypatch.setattr(owner, name, recorded)
    return calls


class TestPrunedWalk:
    def test_walk_carries_w_as_tuples(self):
        # what each placement records is what the tableau functions derive,
        # handed out as finished tuples
        cases = fillings = 0
        for n in range(1, 7):
            hs = list(all_hessenberg_functions(n)) if n <= 5 else [HessenbergFunction.springer(n)]
            for parts in compositions(n):
                lam = Composition(parts)
                for h in hs:
                    cases += 1
                    for rows, word, _, pairs in iter_fillings(lam, h):
                        fillings += 1
                        t = Tableau(rows, lam)
                        assert word == permutation_of_tableau(t).word
                        assert type(word) is type(pairs) is tuple
        assert cases == 1 + 2 * 2 + 4 * 5 + 8 * 14 + 16 * 42 + 32
        assert fillings > 10_000

    def test_max_dim_yields_the_full_walk_filtered(self):
        # a pair is counted when its larger entry is placed, so `max_dim`
        # cuts a branch early; what is left must be exactly the full walk's
        # fillings of dim <= max_dim, in the same order
        cases = 0
        for lam, h in table_cases():
            if lam.n > 5:
                continue
            cases += 1
            full = [([list(r) for r in rows], d) for rows, _, d, _ in iter_fillings(lam, h)]
            for max_dim in (0, 1, 2):
                pruned = [([list(r) for r in rows], d)
                          for rows, _, d, _ in iter_fillings(lam, h, max_dim)]
                expect = [(rows, d) for rows, d in full if d <= max_dim]
                assert pruned == expect, (lam.parts, h.values, max_dim)
        assert cases == 1 + 2 * 2 + 4 * 5 + 8 * 14 + 16 * 42

    def test_max_dim_prunes_when_the_larger_entry_is_placed(self, monkeypatch):
        # one column has no dead ends, so the pruned walk reaches exactly the
        # prefixes (n, ..., m+1 placed) of fillings with at most max_dim
        # pairs (k, l) whose k is already placed.  Such a prefix reaches the
        # state whose placed rows are empty (rem 0, bound 0) and whose open
        # rows have rem 1 and bound m; prefixes that reach one state share
        # its expansion, so `_placements` runs exactly once on each state
        calls = record_calls(monkeypatch)
        merged = {}
        for n in range(1, 7):
            lam, h = Composition([1] * n), HessenbergFunction.springer(n)
            columns = [[row[0] for row in rows] for rows, _, _, _ in iter_fillings(lam, h)]
            assert len(columns) == factorial(n)
            for max_dim in (0, 1, 2):
                prefixes, expect = set(), set()
                for col in columns:
                    row_of = {v: r for r, v in enumerate(col)}
                    for m in range(n, 0, -1):
                        pairs = sum(1 for k in range(m + 1, n + 1) for l in range(1, k)
                                    if row_of[k] > row_of[l])
                        if pairs <= max_dim:
                            placed = tuple(row_of[v] for v in range(n, m, -1))
                            prefixes.add(placed)
                            expect.add((m, tuple((0, 0) if r in placed else (1, m)
                                                 for r in range(n))))
                calls.clear()
                for _ in iter_fillings(lam, h, max_dim):
                    pass
                assert sorted((m, state) for m, state, _ in calls) == sorted(expect), \
                    (n, max_dim)
                merged[n, max_dim] = (len(prefixes), len(calls))
        # 3 placed in any row, then 2 above it: 6 prefixes, 5 states
        assert merged[3, 1] == (6, 5)

    @pytest.mark.parametrize("parts", [(3, 3, 2, 2), (2, 4, 3), (4, 1, 1, 1, 1)])
    def test_walk_expands_each_poincare_state_once(self, parts, monkeypatch):
        # without pruning, the walk expands every state that the ordered
        # level loop counts, and each of them once
        per_row = record_calls(monkeypatch, proof_reference, "row_placements")
        grouped = record_calls(monkeypatch)
        lam = Composition(parts)
        h = HessenbergFunction.springer(lam.n)
        ordered_poincare(lam, h)
        states = sorted((m, tuple(zip(rem, bounds))) for m, rem, bounds, _, _ in per_row)
        fillings = sum(1 for _ in iter_fillings(lam, h))
        assert sorted((m, state) for m, state, _ in grouped) == states
        assert len(set(states)) == len(states) < fillings


def reference_walk(lam, h, max_dim=None):
    """The recursive filling walk that `iter_fillings` replaced: one
    generator frame per placed value and the per-row `row_placements` at
    every node, with no memo.  Yields copies of (rows, word, pos, dim)."""
    n = lam.n
    hv = h.values
    grid = [[0] * p for p in lam.parts]
    labels = base_filling(lam).rows
    word = [0] * n
    pos = {}

    def walk(m, rem, bounds, dim):
        if m == 0:
            yield [list(r) for r in grid], list(word), dict(pos), dim
            return
        for i, child_rem, child_bounds, gain in row_placements(
            m, rem, bounds, hv, lam.num_rows
        ):
            d = dim + gain
            if max_dim is not None and d > max_dim:
                continue
            c = rem[i] - 1
            grid[i][c] = m
            word[m - 1] = labels[i][c]
            pos[m] = (i + 1, c + 1)
            yield from walk(m - 1, child_rem, child_bounds, d)

    if n:
        yield from walk(n, lam.parts, (n,) * lam.num_rows, 0)


class TestWalkAgainstReference:
    def test_same_sequence_as_the_recursive_walk(self):
        # order included: the cell table, r0 and every digest rest on it
        cases = fillings = 0
        for n in range(1, 7):
            hs = list(all_hessenberg_functions(n)) if n <= 5 else [HessenbergFunction.springer(n)]
            for parts in compositions(n):
                lam = Composition(parts)
                for h in hs:
                    for max_dim in (None, 0, 1, 2):
                        cases += 1
                        got = [([list(r) for r in rows], list(word), Tableau(rows).index, dim)
                               for rows, word, dim, _ in iter_fillings(lam, h, max_dim)]
                        assert got == list(reference_walk(lam, h, max_dim)), \
                            (parts, h.values, max_dim)
                        fillings += len(got)
        assert cases == 4 * (1 + 2 * 2 + 4 * 5 + 8 * 14 + 16 * 42 + 32)
        assert fillings > 20_000


def walk_pairs_match(lam, h):
    """Check the pairs of every filling of the walk against the pair kernel
    on the finished rows and against `hessenberg_inversions`; return the
    number of fillings."""
    fillings = 0
    for rows, word, dim, pairs in iter_fillings(lam, h):
        got = sorted(pairs)
        assert len(got) == dim
        pos = Tableau(rows, lam).index
        assert got == sorted(paving._inversion_pairs(rows, pos, h.values, lam.n))
        assert got == sorted(hessenberg_inversions(Permutation(word), lam, h))
        fillings += 1
    return fillings


class TestWalkPairs:
    """The pairs that the walk lists node by node, one `_pairs_below` step
    per placed value, against the kernel run on each finished filling."""

    # the sweep to n = 7 takes about 8 minutes, the one to n = 8 hours
    @pytest.mark.parametrize("top, cases, total", [
        (6, 5033, 332_018),
        pytest.param(7, 32_489, 9_819_505, marks=pytest.mark.exhaustive),
        pytest.param(8, 215_529, 343_242_216, marks=pytest.mark.exhaustive),
    ])
    def test_every_composition(self, top, cases, total):
        checked = fillings = 0
        for n in range(1, top + 1):
            for parts in compositions(n):
                lam = Composition(parts)
                for h in all_hessenberg_functions(n):
                    fillings += walk_pairs_match(lam, h)
                    checked += 1
        assert checked == cases
        assert fillings == total

    def test_every_partition_of_7_springer(self):
        fillings = sum(walk_pairs_match(Composition(parts), HessenbergFunction.springer(7))
                       for parts in partitions(7))
        # the Springer fiber of lambda has n!/prod(lambda_i!) cells
        assert fillings == sum(factorial(7) // prod(map(factorial, parts))
                               for parts in partitions(7))

    def test_count_check_does_not_rest_on_the_pair_step(self, monkeypatch):
        # a step that also takes a larger entry above l in l's column lists
        # pairs the gains of `_placements` never counted
        def wrong(l, rl, cl, bound, pos, with_l):
            return [with_l[k] for k in range(l + 1, bound + 1) if pos[k][1] <= cl]

        lam, h = Composition([3, 2, 2, 1]), HessenbergFunction.springer(8)
        enumerate_cells(lam, h)
        monkeypatch.setattr(paving, "_pairs_below", wrong)
        with pytest.raises(RuntimeError, match="walk counted"):
            enumerate_cells(lam, h)


class TestChecksOnBadInput:
    """The per-cell checks of `enumerate_cells` still fire when fed bad data,
    with one exception and message through `enumerate_cells` and the `cells`
    command alike."""

    lam, h = Composition([2, 1]), HessenbergFunction.springer(3)

    def _tampered(self, monkeypatch, tamper):
        walk = paving.iter_fillings

        def tampered(lam, h, max_dim=None):
            for rows, word, dim, pairs in walk(lam, h, max_dim):
                yield tamper(rows, word, dim, pairs)

        monkeypatch.setattr(paving, "iter_fillings", tampered)

    def _raises(self, error, match):
        raised = set()
        for build in (enumerate_cells, lambda lam, h: main(["cells", "--lambda", "2,1"])):
            with pytest.raises(error, match=match) as info:
                build(self.lam, self.h)
            raised.add((info.type, str(info.value)))
        assert len(raised) == 1, raised

    def test_walk_count_disagreeing_with_kernel_raises(self, monkeypatch):
        self._tampered(monkeypatch,
                       lambda rows, word, dim, pairs: (rows, word, dim + 1, pairs))
        self._raises(RuntimeError, "walk counted")

    def test_kernel_counts_pair_by_pair(self, monkeypatch):
        # drop the last pair of each step of the walk: the count check sees
        # it at once
        kernel = paving._pairs_below
        monkeypatch.setattr(paving, "_pairs_below", lambda *a: kernel(*a)[:-1])
        self._raises(RuntimeError, "walk counted")

    def test_word_that_is_not_a_permutation_raises(self, monkeypatch):
        self._tampered(monkeypatch,
                       lambda rows, word, dim, pairs: (rows, (1,) * len(word), dim, pairs))
        self._raises(ValueError, "not a permutation")

    def test_pair_with_smaller_index_first_raises(self, monkeypatch):
        kernel = paving._pairs_below
        monkeypatch.setattr(paving, "_pairs_below",
                            lambda *a: [(l, k) for k, l in kernel(*a)])
        self._raises(ValueError, "larger index first")


class TestPoincareRecursion:
    """The level-by-level deletion step of `poincare` against the cell table."""

    def test_matches_enumeration(self):
        shapes = [c for n in range(6) for c in compositions(n)] + list(partitions(6))
        pairs = empty = 0
        for parts in shapes:
            lam = Composition(parts)
            for h in all_hessenberg_functions(lam.n):
                coeffs = poincare(lam, h).coeffs
                assert coeffs == cell_histogram(lam, h), (parts, h)
                pairs += 1
                empty += coeffs == ()
        assert pairs == 2262  # 2,261 with n >= 1, plus the empty shape
        assert empty > 0

    def test_size_mismatch(self):
        with pytest.raises(ValueError, match="size mismatch"):
            poincare(Composition([2, 1]), HessenbergFunction.springer(4))

    def test_deep_subregular_is_a_chain_of_lines(self):
        # the Springer fiber of a subregular nilpotent is a chain of n - 1
        # projective lines, P = 1 + (n - 1)t, in either order of the parts;
        # n = 1000 levels run with no recursion
        h = HessenbergFunction.springer(1000)
        for parts in [(999, 1), (1, 999)]:
            assert poincare(Composition(parts), h).coeffs == (1, 999), parts

    @settings(max_examples=150, deadline=None, database=None, derandomize=True)
    @given(st.data())
    def test_property_small(self, data):
        n = data.draw(st.integers(1, 7))
        split = data.draw(st.lists(st.booleans(), min_size=n - 1, max_size=n - 1))
        cuts = [0] + [i for i, cut in enumerate(split, start=1) if cut] + [n]
        parts = [b - a for a, b in zip(cuts, cuts[1:])]
        values = []
        for i in range(1, n + 1):
            values.append(data.draw(st.integers(values[-1] if values else 0, i - 1)))
        lam, h = Composition(parts), HessenbergFunction(values)
        assert poincare(lam, h).coeffs == cell_histogram(lam, h)


def _horizontal_strips(shape, size):
    """Shapes nu with nu / shape a horizontal strip of `size` boxes."""
    rows = list(shape) + [0]

    def rec(i, left, acc):
        if i == len(rows):
            if left == 0:
                yield tuple(p for p in acc if p)
            return
        cap = rows[i - 1] - rows[i] if i else left
        for add in range(min(cap, left) + 1):
            yield from rec(i + 1, left - add, acc + [rows[i] + add])

    yield from rec(0, size, [])


def _ssyt_words(content):
    """Reading words (rows bottom to top) of every SSYT of the given content."""
    tableaux = [((), ())]  # (shape, rows)
    for letter, size in enumerate(content, start=1):
        grown = []
        for shape, rows in tableaux:
            for nu in _horizontal_strips(shape, size):
                new = [list(r) for r in rows] + [[] for _ in range(len(nu) - len(rows))]
                for r, p in enumerate(nu):
                    new[r] += [letter] * (p - (shape[r] if r < len(shape) else 0))
                grown.append((nu, tuple(tuple(r) for r in new)))
        tableaux = grown
    return [(shape, [v for r in reversed(rows) for v in r]) for shape, rows in tableaux]


def _charge(word):
    """Lascoux-Schutzenberger charge of a word with partition content.

    Standard subwords are peeled off by scanning leftward, cyclically, from
    the rightmost 1 for 2, 3, ...; a letter found only after wrapping around
    gets index one more than its predecessor, and charge sums the indices.
    """
    word = list(word)
    total = 0
    while word:
        pos = max(i for i, v in enumerate(word) if v == 1)
        taken, index = [pos], 0
        for r in range(2, max(word) + 1):
            left = [i for i in range(pos) if word[i] == r]
            if left:
                pos = left[-1]
            else:
                index += 1
                pos = max(i for i, v in enumerate(word) if v == r)
            taken.append(pos)
            total += index
        word = [v for i, v in enumerate(word) if i not in taken]
    return total


def _standard_tableaux(shape):
    """f^shape by the hook length formula."""
    hooks = prod(
        shape[r] - c + sum(1 for below in shape[r + 1:] if below > c)
        for r in range(len(shape)) for c in range(shape[r])
    )
    return factorial(sum(shape)) // hooks


def springer_poincare(lam):
    """Sum_mu f^mu q^{n(lambda)} K_{mu,lambda}(1/q) for a partition lambda.

    The Springer fibre's Betti numbers (Hotta-Springer 1977) through the
    Kostka-Foulkes polynomials K_{mu,lambda}(t) = sum of t^charge(T) over
    SSYT(mu, content lambda) (Lascoux-Schutzenberger 1978).
    """
    top = sum(i * p for i, p in enumerate(lam))
    coeffs = [0] * (top + 1)
    for shape, word in _ssyt_words(lam):
        coeffs[top - _charge(word)] += _standard_tableaux(shape)
    return tuple(coeffs)


def unfold(groups):
    """The per-row placements that the groups of `_placements` stand for,
    as `row_placements` yields them: row rows[r] of a group takes gain + r,
    and its child is the group's child with the pairs of rows[0] and
    rows[r] swapped."""
    kids = []
    for rows, child, gain in groups:
        for r, i in enumerate(rows):
            kid = list(child)
            kid[rows[0]], kid[i] = kid[i], kid[rows[0]]
            rem, bounds = zip(*kid)
            kids.append((i, rem, bounds, gain + r))
    return sorted(kids)


class TestGroupedStep:
    """`_placements` groups the open rows of one length; unfolded, its
    groups are exactly the per-row step `row_placements`."""

    def test_unfolds_to_the_per_row_step_on_every_ordered_state(self, monkeypatch):
        # every state that the ordered loop reaches, for every composition
        # with n <= 6 under every h
        calls = record_calls(monkeypatch, proof_reference, "row_placements")
        pairs = states = tied = 0
        for n in range(1, 7):
            for parts in compositions(n):
                lam = Composition(parts)
                for h in all_hessenberg_functions(n):
                    calls.clear()
                    ordered_poincare(lam, h)
                    pairs += 1
                    for m, rem, bounds, hv, nrows in calls:
                        groups = paving._placements(m, tuple(zip(rem, bounds)), hv)
                        per_row = list(row_placements(m, rem, bounds, hv, nrows))
                        assert unfold(groups) == per_row, (parts, h, m, rem, bounds)
                        lengths = [rem[rows[0]] for rows, _, _ in groups]
                        assert lengths == sorted(set(lengths), reverse=True)
                        assert all(rows == sorted(rows) for rows, _, _ in groups)
                        states += 1
                        tied += len(groups) < len(per_row)
        assert pairs == 5033
        assert (states, tied) == (140_562, 69_285)

    @pytest.mark.parametrize("parts, entries, children", [
        ((2,) * 20, 420, 3080),
        ((3,) * 13, 1365, 5460),
        ((4, 4, 4), 60, 84),
    ])
    def test_fewer_entries_than_rows(self, parts, entries, children, monkeypatch):
        # over the sorted states that `poincare` expands, the grouped step
        # makes one entry per length where the per-row step makes one
        # child per open row
        step = paving._placements
        calls = record_calls(monkeypatch)
        lam = Composition(parts)
        poincare(lam, HessenbergFunction.springer(lam.n))
        grouped = per_row = 0
        for m, state, hv in calls:
            grouped += len(step(m, state, hv))
            rem, bounds = zip(*state)
            per_row += sum(1 for _ in row_placements(m, rem, bounds, hv, lam.num_rows))
        assert (grouped, per_row) == (entries, children)
        assert grouped < per_row


class TestSortedStates:
    """`poincare` keys each state by its (rem_i, b_i) pairs sorted, against
    the oracle `ordered_poincare`, which keys them in row order."""

    # 2^(n-1) compositions of n times Catalan(n) Hessenberg functions,
    # summed over n; the sweep to n = 8 takes about 4 minutes
    @pytest.mark.parametrize("top, pairs", [
        (6, 5033),
        pytest.param(8, 215_529, marks=pytest.mark.exhaustive),
    ])
    def test_every_composition(self, top, pairs):
        checked = 0
        for n in range(1, top + 1):
            for parts in compositions(n):
                lam = Composition(parts)
                for h in all_hessenberg_functions(n):
                    assert poincare(lam, h) == ordered_poincare(lam, h), (parts, h)
                    checked += 1
        assert checked == pairs

    def test_every_partition_of_7_and_its_reverse(self):
        pairs = 0
        for parts in partitions(7):
            for shape in sorted({parts, parts[::-1]}):
                lam = Composition(shape)
                for h in all_hessenberg_functions(7):
                    assert poincare(lam, h) == ordered_poincare(lam, h), (shape, h)
                    pairs += 1
        assert pairs == (15 + 13) * 429  # (7) and (1^7) are their own reverse

    @settings(max_examples=60, deadline=None, database=None, derandomize=True)
    @given(st.data())
    def test_property_to_14(self, data):
        n = data.draw(st.integers(8, 14))
        split = data.draw(st.lists(st.booleans(), min_size=n - 1, max_size=n - 1))
        cuts = [0] + [i for i, cut in enumerate(split, start=1) if cut] + [n]
        parts = [b - a for a, b in zip(cuts, cuts[1:])]
        values = []
        for i in range(1, n + 1):
            values.append(data.draw(st.integers(values[-1] if values else 0, i - 1)))
        lam, h = Composition(parts), HessenbergFunction(values)
        assert poincare(lam, h) == ordered_poincare(lam, h)

    @pytest.mark.parametrize("parts, states", [((3, 3, 2, 2), 30), ((6, 5, 4, 3, 2), 296)])
    def test_states(self, parts, states, monkeypatch):
        # states that differ only in the order of their rows share an entry
        # (143 and 2519 in the ordered loop, `test_memo_states`)
        calls = record_calls(monkeypatch)
        poincare(Composition(parts), HessenbergFunction.springer(sum(parts)))
        assert len(calls) == states


class TestSpringerClosedForm:
    def test_line_recursion_every_partition_to_14(self):
        assert springer_line_count((1, 1)) == (1, 1)
        assert springer_line_count((2, 1)) == (1, 2)
        checked = 0
        for n in range(1, 15):
            for parts in partitions(n):
                p = poincare(Composition(parts), HessenbergFunction.springer(n))
                assert p.coeffs == springer_line_count(parts), parts
                checked += 1
        assert checked == 507

    @settings(max_examples=25, deadline=None, database=None, derandomize=True)
    @given(st.data())
    def test_line_recursion_property_15_to_40(self, data):
        # compositions too: X_lambda is conjugate to X of the sorted
        # partition, which is what the line recursion reads
        n = data.draw(st.integers(15, 40))
        split = data.draw(st.lists(st.booleans(), min_size=n - 1, max_size=n - 1))
        cuts = [0] + [i for i, cut in enumerate(split, start=1) if cut] + [n]
        parts = [b - a for a, b in zip(cuts, cuts[1:])]
        p = poincare(Composition(parts), HessenbergFunction.springer(n))
        assert p.coeffs == springer_line_count(tuple(sorted(parts, reverse=True))), parts

    @pytest.mark.parametrize("parts", [(5, 4, 3, 2, 2, 2, 1, 1), (4, 4, 4, 4, 4),
                                       (6, 5, 4, 3, 2)])
    def test_line_recursion_at_n_20(self, parts):
        p = poincare(Composition(parts), HessenbergFunction.springer(20))
        assert p.coeffs == springer_line_count(parts)

    @pytest.mark.parametrize("parts", [(3,) * 8, (2,) * 20, (4,) * 10])
    def test_line_recursion_past_n_20(self, parts):
        # many equal rows: their states differ only in row order
        p = poincare(Composition(parts), HessenbergFunction.springer(sum(parts)))
        assert p.coeffs == springer_line_count(parts)

    def test_kostka_foulkes_examples(self):
        def kostka(mu, lam):
            charges = [_charge(word) for shape, word in _ssyt_words(lam) if shape == mu]
            return {c: charges.count(c) for c in charges}

        assert kostka((2, 1), (1, 1, 1)) == {1: 1, 2: 1}
        assert kostka((3,), (1, 1, 1)) == {3: 1}
        assert kostka((3, 1), (2, 1, 1)) == {1: 1, 2: 1}
        assert kostka((2, 2), (2, 1, 1)) == {1: 1}
        assert kostka((4, 2), (2, 2, 2)) == {2: 1, 3: 1, 4: 1}
        assert springer_poincare((2, 1)) == (1, 2)

    def test_matches_recursion(self):
        shapes = [p for n in range(1, 9) for p in partitions(n)] + [(4, 4, 4), (3, 3, 3, 3)]
        for parts in shapes:
            p = poincare(Composition(parts), HessenbergFunction.springer(sum(parts)))
            assert p.coeffs == springer_poincare(parts), parts

    @pytest.mark.parametrize("parts", [(5, 5, 5, 5), (6, 5, 4, 3, 2), (4, 4, 4, 4), (8, 8)])
    def test_large_n(self, parts):
        n = sum(parts)
        p = poincare(Composition(parts), HessenbergFunction.springer(n))
        assert p.total_cells == factorial(n) // prod(factorial(v) for v in parts)
        assert p.coeffs[0] == 1
        assert len(p.coeffs) - 1 == sum(i * v for i, v in enumerate(parts))
        # X_lambda for a composition is conjugate to X of the sorted
        # partition; the ordered loop does not sort the rows of its states
        shuffled = Composition(parts[1:] + parts[:1])
        assert ordered_poincare(shuffled, HessenbergFunction.springer(n)) == p

    def test_reordering_invariance_sampled_h(self):
        # X_lambda for a composition is conjugate to X of the sorted
        # partition, so Hess(X_lambda, h) and Hess(X_{sort lambda}, h) are
        # isomorphic for every h; one side is the ordered loop, which does
        # not sort the rows of its states
        rng = random.Random(0)
        pairs = nonempty = 0
        for n in range(8, 13):
            for _ in range(30):
                cuts = sorted(rng.sample(range(1, n), rng.randint(1, 3)))
                parts = [b - a for a, b in zip([0, *cuts], [*cuts, n])]
                if parts == sorted(parts, reverse=True):
                    parts.reverse()
                # h(i) is i - 1 lowered by up to 1 or 2, kept weakly increasing
                drop, values = rng.randint(1, 2), [0]
                for i in range(2, n + 1):
                    values.append(max(i - 1 - rng.randint(0, drop), values[-1]))
                h = HessenbergFunction(values)
                p = poincare(Composition(parts), h)
                sorted_lam = Composition(sorted(parts, reverse=True))
                assert p == ordered_poincare(sorted_lam, h), (parts, h)
                pairs += 1
                nonempty += p.total_cells > 0
        assert pairs == 150
        assert nonempty >= 75

    @pytest.mark.parametrize("parts, states", [((3, 3, 2, 2), 143), ((6, 5, 4, 3, 2), 2519)])
    def test_memo_states(self, parts, states, monkeypatch):
        # each row_placements call of the ordered loop expands one memo state;
        # the m-1 clamp on the child bounds is what lets equivalent states
        # share an entry
        calls = record_calls(monkeypatch, proof_reference, "row_placements")
        ordered_poincare(Composition(parts), HessenbergFunction.springer(sum(parts)))
        assert len(calls) == states


class TestOrbitPointCounts:
    """`poincare` at q against |Hess(X_mu, h)(F_q)| counted over the
    nilpotent orbits in H(h)(F_q), with no flag and no cell."""

    def test_small_cases_by_hand(self):
        # X = 0 gives every flag; a regular nilpotent in the Springer
        # fiber gives the standard flag alone
        for q in (2, 3, 5):
            counts = orbit_point_counts(HessenbergFunction.springer(2), q)
            assert counts == {(2,): 1, (1, 1): q + 1}
            counts = orbit_point_counts(HessenbergFunction([0, 0, 0]), q)
            assert counts == {(3,): 0, (2, 1): 0, (1, 1, 1): (q**2 + q + 1) * (q + 1)}

    # n = 5 at q = 3 takes about 20 s, n = 6 at q = 2 about 40 s
    @pytest.mark.parametrize("sizes, q, cases", [
        ((2, 3, 4), 2, 89),
        ((2, 3, 4), 3, 89),
        ((5,), 2, 294),
        pytest.param((5,), 3, 294, marks=pytest.mark.exhaustive),
        pytest.param((6,), 2, 1452, marks=pytest.mark.exhaustive),
    ])
    def test_every_partition_and_h(self, sizes, q, cases):
        checked = 0
        for n in sizes:
            for h in all_hessenberg_functions(n):
                counts = orbit_point_counts(h, q)
                for parts in partitions(n):
                    assert counts[parts] == evaluate(poincare(Composition(parts), h), q), \
                        (parts, h.values, q)
                    checked += 1
        assert checked == cases


class TestDuality:
    """Hess(X, h) and Hess(X, h*) are isomorphic through V_i -> V_{n-i}^perp
    and X -> X^T, so `poincare` and the cell tables agree on h and its dual."""

    def test_dual_hessenberg(self):
        assert dual_hessenberg(HessenbergFunction([0, 0, 1, 1])).values == (0, 0, 0, 2)
        assert dual_hessenberg(HessenbergFunction([0, 1, 1, 1])).values == (0, 0, 0, 3)
        for n in range(1, 8):
            assert dual_hessenberg(HessenbergFunction.springer(n)).is_springer()
            for h in all_hessenberg_functions(n):
                assert dual_hessenberg(dual_hessenberg(h)) == h

    def test_every_partition_to_7(self):
        pairs = self_dual = empty = 0
        for n in range(1, 8):
            hs = list(all_hessenberg_functions(n))
            for parts in partitions(n):
                lam = Composition(parts)
                for h in hs:
                    dual = dual_hessenberg(h)
                    p = poincare(lam, h)
                    assert p == poincare(lam, dual), (parts, h, dual)
                    assert (r0_tableau(lam, h) is None) == (r0_tableau(lam, dual) is None)
                    pairs += 1
                    self_dual += dual == h
                    empty += p.coeffs == ()
        assert (pairs, self_dual, empty) == (8271, 859, 3944)

    def test_cell_tables_every_partition_to_6(self):
        # the walk's own dimensions, not the level loop's histogram
        pairs = 0
        for n in range(1, 7):
            hs = list(all_hessenberg_functions(n))
            for parts in partitions(n):
                lam = Composition(parts)
                for h in hs:
                    dims = Counter(dim for _, _, _, dim in enumerate_cells(lam, h))
                    dual = Counter(
                        dim for _, _, _, dim in enumerate_cells(lam, dual_hessenberg(h))
                    )
                    assert dims == dual, (parts, h)
                    pairs += 1
        assert pairs == 1836

    @settings(max_examples=30, deadline=None, database=None, derandomize=True)
    @given(st.data())
    def test_property_8_to_40(self, data):
        # at most 8 rows, which keeps each side under a second at n = 40;
        # h(i) is i - 1 lowered by up to `drop`, kept weakly increasing, so
        # that many draws give a nonempty variety
        n = data.draw(st.integers(8, 40))
        rows = data.draw(st.integers(1, 8))
        cuts = sorted(data.draw(st.lists(st.integers(1, n - 1), min_size=rows - 1,
                                         max_size=rows - 1, unique=True)))
        parts = [b - a for a, b in zip([0, *cuts], [*cuts, n])]
        drop = data.draw(st.integers(1, 3))
        values = [0]
        for i in range(2, n + 1):
            values.append(max(i - 1 - data.draw(st.integers(0, drop)), values[-1]))
        lam, h = Composition(parts), HessenbergFunction(values)
        dual = dual_hessenberg(h)
        assume(dual != h)  # the two sides run different states
        assert poincare(lam, h) == poincare(lam, dual), (parts, values)


class TestR0:
    def test_paper_example(self):
        lam = Composition([4, 4, 3, 1])
        h = HessenbergFunction([max(0, i - 3) for i in range(1, 13)])
        assert r0_tableau(lam, h).rows == (
            (3, 6, 9, 12), (2, 5, 8, 11), (4, 7, 10), (1,))

    def test_springer_gives_base_filling(self):
        for parts in partitions(5):
            lam = Composition(parts)
            r0 = r0_tableau(lam, HessenbergFunction.springer(5))
            assert r0.rows == base_filling(lam).rows

    def test_one_column(self):
        assert r0_tableau(Composition([1, 1]), HessenbergFunction([0, 0])).rows == ((2,), (1,))

    def test_empty_variety(self):
        # single row forces 1|2, which h(2) = 0 forbids
        assert r0_tableau(Composition([2]), HessenbergFunction([0, 0])) is None
        assert enumerate_cells(Composition([2]), HessenbergFunction([0, 0])) == []

    def test_empty_variety_places_nothing(self, monkeypatch):
        # without R_0 `poincare` returns before its first level
        calls = record_calls(monkeypatch)
        lam = Composition([10, 8, 7, 5, 4, 3, 2, 1])
        h = HessenbergFunction([max(0, i - 6) for i in range(1, 41)])
        assert r0_tableau(lam, h) is None
        assert poincare(lam, h).coeffs == ()
        assert calls == []

    def test_none_exactly_when_the_ordered_loop_is_empty(self):
        # the ordered loop never reads R_0
        pairs = empty = 0
        for n in range(1, 8):
            hs = list(all_hessenberg_functions(n))
            for parts in partitions(n):
                lam = Composition(parts)
                for h in hs:
                    none = r0_tableau(lam, h) is None
                    assert none == (ordered_poincare(lam, h).coeffs == ()), (parts, h)
                    pairs += 1
                    empty += none
        assert (pairs, empty) == (8271, 3944)

    def test_unique_zero_cell_exhaustive(self):
        # the zero-dimensional cell is unique and equals R_0 (n <= 6 here;
        # n = 7 runs in the acceptance suite)
        for n in range(1, 7):
            for parts in partitions(n):
                lam = Composition(parts)
                for h in all_hessenberg_functions(n):
                    zeros = zero_dim_cells(lam, h)
                    r0 = r0_tableau(lam, h)
                    if r0 is None:
                        assert zeros == []
                        assert enumerate_cells(lam, h) == []
                    else:
                        assert len(zeros) == 1
                        assert zeros[0].rows == r0.rows


class TestProfilesAndSorting:
    def setup_method(self):
        self.R = Tableau([[2, 4, 8, 10], [1, 5, 7, 11], [3, 9, 12], [6]])
        self.h = HessenbergFunction([max(0, i - 2) for i in range(1, 13)])

    def test_profile_values(self):
        p = inversion_profile(self.R, self.h)
        assert (p[1, 1], p[1, 2], p[3, 3]) == (2, 1, 0)
        s = standardize(self.R)
        ps = inversion_profile(s, self.h)
        assert (ps[1, 1], ps[1, 2], ps[3, 3]) == (3, 1, 1)

    def test_profile_total(self):
        lam = Composition([2, 2, 1])
        h = HessenbergFunction([0, 1, 1, 3, 3])
        for _, rows, _, dim in enumerate_cells(lam, h):
            p = inversion_profile(Tableau(rows), h)
            assert p.total() == dim

    def test_cell_profile_matches_inversion_profile(self):
        # every cell of every composition with n <= 5 under every h
        cells_seen = 0
        for n in range(1, 6):
            for parts in compositions(n):
                lam = Composition(parts)
                for h in all_hessenberg_functions(n):
                    for _, rows, pairs, _ in enumerate_cells(lam, h):
                        cells_seen += 1
                        t = Tableau(rows)
                        assert cell_profile(pairs, t) == inversion_profile(t, h)
        assert cells_seen > 10_000

    def test_profile_rejects_non_h_strict(self):
        with pytest.raises(ValueError):
            inversion_profile(Tableau([[2, 1]]), HessenbergFunction([0, 1]))

    def test_trace_two_column(self):
        steps = column_sort_trace(self.R, 1, 1, self.h)
        assert len(steps) == 3  # start plus two swaps
        assert steps[0].profile[1, 1] == 2
        assert steps[-1].profile[1, 1] == 3
        # intermediate states never decrease d(1,1)
        vals = [s.profile[1, 1] for s in steps]
        assert vals == sorted(vals)
        assert [r[:2] for r in steps[-1].grid] == [
            (1, 4), (2, 5), (3, 9), (6, None)]

    def test_trace_three_column(self):
        steps = column_sort_trace(self.R, 1, 2, self.h)
        assert len(steps) == 4
        vals = [s.profile[1, 2] for s in steps]
        assert vals[0] == 1 and vals[-1] == 1
        assert all(a <= b for a, b in zip(vals, vals[1:]))
        assert [r[:3] for r in steps[-1].grid] == [
            (1, 4, 7), (2, 5, 8), (3, 9, 12), (6, None, None)]

    def test_trace_last_column_strict_increase(self):
        steps = column_sort_trace(self.R, 3, 3, self.h)
        assert steps[0].profile[3, 3] == 0
        assert steps[-1].profile[3, 3] == 1
        assert [r[2:] for r in steps[-1].grid] == [
            (7, 10), (8, 11), (12, None), (None, None)]

    def test_trace_sorted_input_single_step(self):
        s = standardize(self.R)
        assert len(column_sort_trace(s, 2, 2, self.h)) == 1

    def test_trace_rejects_bad_columns(self):
        with pytest.raises(ValueError):
            column_sort_trace(self.R, 0, 1, self.h)
        with pytest.raises(ValueError):
            column_sort_trace(self.R, 2, 5, self.h)


class TestMaximalCells:
    def test_small_exhaustive(self):
        for n in range(2, 6):
            for parts in partitions(n):
                lam = Composition(parts)
                for h in all_hessenberg_functions(n):
                    ok, witness = maximal_cells_are_standard(enumerate_cells(lam, h))
                    assert ok, witness

    def test_reads_the_tableau_of_top_cells_only(self, monkeypatch):
        lam, h = Composition([3, 2, 1]), HessenbergFunction([0, 1, 1, 2, 4, 5])
        cells = enumerate_cells(lam, h)
        top = max(dim for _, _, _, dim in cells)
        built = []
        init = Tableau.__init__

        def counting(self, *args, **kwargs):
            built.append(args)
            init(self, *args, **kwargs)

        monkeypatch.setattr(Tableau, "__init__", counting)
        assert maximal_cells_are_standard(cells) == (True, None)
        # each top cell builds its tableau and that tableau's standardization
        top_cells = sum(dim == top for _, _, _, dim in cells)
        assert 0 < len(built) == 2 * top_cells
        assert top_cells < len(cells)

    def test_composition_with_a_non_standard_top_cell(self):
        # a composition's shape is not a partition (ROADMAP item 1): of the
        # two top cells of (1, 2), the first has 3 above 1 in its first column
        cells = enumerate_cells(Composition([1, 2]), HessenbergFunction.springer(3))
        ok, witness = maximal_cells_are_standard(cells)
        assert not ok
        assert witness.rows == ((3,), (1, 2))

    def test_profile_domination(self):
        # d_R <= d_std(R) with a strict inequality for non-standard R
        for n in range(2, 6):
            for parts in partitions(n):
                lam = Composition(parts)
                for h in all_hessenberg_functions(n):
                    for _, rows, _, _ in enumerate_cells(lam, h):
                        t = Tableau(rows)
                        s = standardize(t)
                        if s.rows == t.rows:
                            continue
                        p = inversion_profile(t, h)
                        ps = inversion_profile(s, h)
                        assert ps >= p
                        assert ps.total() > p.total()
