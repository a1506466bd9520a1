import itertools
import random
import tracemalloc
from functools import lru_cache
from math import factorial, prod

import pytest
from hypothesis import given, settings, strategies as st

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
from hesspave.paving import (
    InversionSet,
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
from proof_reference import (
    all_hessenberg_functions,
    column_sort_trace,
    delete_last_box,
    evaluate,
    h_leq,
    identity_permutation,
    ordered_poincare,
    partitions,
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
        assert hessenberg_inversions(w, lam, springer).pairs == {
            (7, 6), (7, 4), (5, 4), (3, 2), (3, 1), (2, 1)}
        h = HessenbergFunction([0, 0, 1, 2, 3, 3, 3])
        assert hessenberg_inversions(w, lam, h).pairs == {
            (7, 6), (7, 4), (5, 4), (3, 2), (2, 1)}

    def test_springer_examples(self):
        assert springer_inversions(
            Permutation([3, 2, 6, 1, 7, 4, 5]), Composition([3, 2, 2])
        ).pairs == {(7, 5), (6, 5), (4, 2), (4, 3), (2, 1)}
        assert springer_inversions(
            Permutation([3, 6, 2, 1, 5, 4]), Composition([2, 2, 2])
        ).pairs == {(6, 5), (6, 2), (5, 2), (4, 3), (4, 2), (3, 2)}
        for lam in [Composition([2, 2]), Composition([3, 1])]:
            assert not springer_inversions(identity_permutation(4), lam).pairs

    def test_containment_chain(self):
        # inv_{lambda,h} <= inv_lambda <= inv(w), exhaustively for small n
        for n in range(2, 6):
            hs = list(all_hessenberg_functions(n))
            springer = HessenbergFunction.springer(n)
            for parts in partitions(n):
                lam = Composition(parts)
                for w in all_perms(n):
                    spr = springer_inversions(w, lam)
                    assert spr.pairs <= inversions(w)
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
                    rows = [t.position(l)[0] for l in spr.level(k)]
                    assert len(rows) == len(set(rows))

    @settings(max_examples=200, deadline=None, database=None, derandomize=True)
    @given(st.sets(st.tuples(st.integers(1, 7), st.integers(1, 7)).filter(lambda p: p[0] > p[1])))
    def test_level_matches_a_fresh_sort(self, pairs):
        spr = InversionSet(pairs)
        for k in range(0, 9):
            assert spr.level(k) == tuple(sorted(l for kk, l in pairs if kk == k))

    def test_larger_first_enforced(self):
        with pytest.raises(ValueError):
            InversionSet([(1, 2)])

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
                    expect = {p for p in springer_inversions(w, lam).pairs if p[0] != n}
                    assert springer_inversions(yp, lamp).pairs == expect


class TestEnumerateCells:
    def test_single_row(self):
        cells = enumerate_cells(Composition([2]), HessenbergFunction([0, 1]))
        assert len(cells) == 1
        assert cells[0].w == identity_permutation(2)
        assert cells[0].dim == 0

    def test_222_springer(self):
        cells = enumerate_cells(Composition([2, 2, 2]), HessenbergFunction.springer(6))
        by_w = {c.w.word: c for c in cells}
        assert (3, 6, 2, 1, 5, 4) in by_w
        assert by_w[(3, 6, 2, 1, 5, 4)].dim == 6

    def test_one_column_two_cells(self):
        cells = enumerate_cells(Composition([1, 1]), HessenbergFunction([0, 0]))
        assert sorted(c.dim for c in cells) == [0, 1]

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
                    assert [c.w.word for c in cells] == direct
                    for c in cells:
                        assert c.dim == len(hessenberg_inversions(c.w, lam, h))

    def test_descriptor_consistency(self):
        lam = Composition([2, 2, 1])
        h = HessenbergFunction([0, 1, 1, 2, 3])
        for c in enumerate_cells(lam, h):
            assert c.tableau.rows == tableau_of(c.w, lam).rows
            assert is_h_strict(c.tableau, h)
            assert c.hess_inv <= c.springer_inv
            assert c.dim == len(c.hess_inv)


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
            assert c == sum(1 for cell in cells if cell.dim == k)

    def test_evaluate(self):
        p = poincare(Composition([1, 1]), HessenbergFunction.springer(2))
        assert evaluate(p, 2) == 3
        assert evaluate(p, 3) == 4


def cell_histogram(lam, h):
    """Cell dimensions of the table; `enumerate_cells` checks each one
    against `_inversion_pairs`, so this oracle does not rest on the
    recursion's placement step alone."""
    hist = []
    for c in enumerate_cells(lam, h):
        hist.extend([0] * (c.dim + 1 - len(hist)))
        hist[c.dim] += 1
    return tuple(hist)


def compositions(n):
    """Every composition of n with positive parts (each partition permuted)."""
    return sorted({c for p in partitions(n) for c in itertools.permutations(p)})


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
    return {key: v for key, v in profile.d.items() if v}


def descriptor_cases():
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


class TestCellDescriptors:
    """Each descriptor against the slow per-cell functions and the definition."""

    def test_descriptors_match_reference(self):
        cases = cells_seen = 0
        for lam, h in descriptor_cases():
            springer = HessenbergFunction.springer(lam.n)
            cases += 1
            for c in enumerate_cells(lam, h):
                cells_seen += 1
                # the slim fields against the views built from them
                assert c.w == Permutation(c.word)
                assert c.pairs == tuple(c.hess_inv.sorted_pairs())
                assert c.tableau.rows == c.rows
                assert tableau_of(c.w, lam).rows == c.tableau.rows
                assert permutation_of_tableau(c.tableau) == c.w
                assert c.hess_inv == hessenberg_inversions(c.w, lam, h)
                assert c.springer_inv == springer_inversions(c.w, lam)
                grid = [list(r) for r in c.tableau.rows]
                assert c.hess_inv.pairs == reference_inversions(grid, h)[0]
                assert c.springer_inv.pairs == reference_inversions(grid, springer)[0]
                assert nonzero(inversion_profile(c.tableau, h)) == reference_profile(grid, h)
        assert cases == 1 + 2 * 2 + 4 * 5 + 8 * 14 + 16 * 42 + 3 * 32
        assert cells_seen > 10_000

    def test_views_are_built_once_on_first_read(self, monkeypatch):
        lam, h = Composition([2, 2, 1]), HessenbergFunction([0, 1, 1, 2, 3])
        base_filling(lam)
        built = []
        for cls in (Permutation, InversionSet, Tableau):
            init = cls.__init__

            def counting(self, *args, init=init, name=cls.__name__):
                built.append(name)
                init(self, *args)

            monkeypatch.setattr(cls, "__init__", counting)
        cells = enumerate_cells(lam, h)
        assert cells and built == []
        c = cells[-1]
        first = c.w, c.hess_inv, c.tableau, c.springer_inv
        again = c.w, c.hess_inv, c.tableau, c.springer_inv
        assert all(a is b for a, b in zip(first, again))
        # one Tableau for the view, one InversionSet each for hess_inv and
        # springer_inv (h is not Springer), and one Permutation
        assert sorted(built) == ["InversionSet", "InversionSet", "Permutation", "Tableau"]

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
        assert [(c.word, c.dim) for c in cells] == [(tuple(range(1, n + 1)), 0)]
        assert peak < 20 * 2**20

    def test_sort_trace_profiles_match_reference(self):
        # the trace's grids have None holes where rows of unequal length swap
        R = Tableau([[2, 4, 8, 10], [1, 5, 7, 11], [3, 9, 12], [6]])
        h = HessenbergFunction([max(0, i - 2) for i in range(1, 13)])
        for i, j in [(1, 1), (1, 2), (2, 3), (3, 3)]:
            for step in column_sort_trace(R, i, j, h):
                grid = [list(r) for r in step.grid]
                assert nonzero(step.profile) == reference_profile(grid, h)


class TestPrunedWalk:
    def test_walk_carries_w_and_positions(self):
        # what each placement records is what the tableau functions derive
        cases = fillings = 0
        for n in range(1, 7):
            hs = list(all_hessenberg_functions(n)) if n <= 5 else [HessenbergFunction.springer(n)]
            for parts in compositions(n):
                lam = Composition(parts)
                for h in hs:
                    cases += 1
                    for rows, word, pos, _ in iter_fillings(lam, h):
                        fillings += 1
                        t = Tableau(rows, lam)
                        assert tuple(word) == permutation_of_tableau(t).word
                        assert type(pos) is dict and pos == t.index
        assert cases == 1 + 2 * 2 + 4 * 5 + 8 * 14 + 16 * 42 + 32
        assert fillings > 10_000

    def test_max_dim_yields_the_full_walk_filtered(self):
        # a pair is counted when its larger entry is placed, so `max_dim`
        # cuts a branch early; what is left must be exactly the full walk's
        # fillings of dim <= max_dim, in the same order
        cases = 0
        for lam, h in descriptor_cases():
            if lam.n > 5:
                continue
            cases += 1
            full = [([list(r) for r in rows], d) for rows, _, _, d in iter_fillings(lam, h)]
            for max_dim in (0, 1, 2):
                pruned = [([list(r) for r in rows], d)
                          for rows, _, _, d in iter_fillings(lam, h, max_dim)]
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
        calls = []
        inner = paving._placements

        def counting(m, rem, bounds, *args):
            calls.append((m, rem, bounds))
            return inner(m, rem, bounds, *args)

        monkeypatch.setattr(paving, "_placements", counting)
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
                            expect.add((m, tuple(0 if r in placed else 1 for r in range(n)),
                                        tuple(0 if r in placed else m for r in range(n))))
                calls.clear()
                for _ in iter_fillings(lam, h, max_dim):
                    pass
                assert sorted(calls) == sorted(expect), (n, max_dim)
                merged[n, max_dim] = (len(prefixes), len(calls))
        # 3 placed in any row, then 2 above it: 6 prefixes, 5 states
        assert merged[3, 1] == (6, 5)

    @pytest.mark.parametrize("parts", [(3, 3, 2, 2), (2, 4, 3), (4, 1, 1, 1, 1)])
    def test_walk_expands_each_poincare_state_once(self, parts, monkeypatch):
        # without pruning, the walk expands every state that the ordered
        # level loop counts, and each of them once
        calls = []
        step = paving._placements

        def counted(m, rem, bounds, *args):
            calls.append((m, rem, bounds))
            return step(m, rem, bounds, *args)

        monkeypatch.setattr(paving, "_placements", counted)
        lam = Composition(parts)
        h = HessenbergFunction.springer(lam.n)
        ordered_poincare(lam, h)
        states = sorted(calls)
        calls.clear()
        fillings = sum(1 for _ in iter_fillings(lam, h))
        assert sorted(calls) == states
        assert len(set(states)) == len(states) < fillings


def reference_walk(lam, h, max_dim=None):
    """The recursive filling walk that `iter_fillings` replaced: one
    generator frame per placed value and `_placements` at every node, with
    no memo.  Yields copies of (rows, word, pos, dim)."""
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
        for i, child_rem, child_bounds, gain in paving._placements(
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
                        got = [([list(r) for r in rows], list(word), dict(pos), dim)
                               for rows, word, pos, dim in iter_fillings(lam, h, max_dim)]
                        assert got == list(reference_walk(lam, h, max_dim)), \
                            (parts, h.values, max_dim)
                        fillings += len(got)
        assert cases == 4 * (1 + 2 * 2 + 4 * 5 + 8 * 14 + 16 * 42 + 32)
        assert fillings > 20_000


class TestChecksOnBadInput:
    """The per-cell checks of `enumerate_cells` still fire when fed bad data."""

    lam, h = Composition([2, 1]), HessenbergFunction.springer(3)

    def _tampered(self, monkeypatch, tamper):
        walk = paving.iter_fillings

        def tampered(lam, h, max_dim=None):
            for rows, word, pos, dim in walk(lam, h, max_dim):
                yield tamper(rows, list(word), pos, dim)

        monkeypatch.setattr(paving, "iter_fillings", tampered)

    def test_walk_count_disagreeing_with_kernel_raises(self, monkeypatch):
        self._tampered(monkeypatch, lambda rows, word, pos, dim: (rows, word, pos, dim + 1))
        with pytest.raises(RuntimeError, match="walk counted"):
            enumerate_cells(self.lam, self.h)

    def test_kernel_counts_pair_by_pair(self, monkeypatch):
        # drop the kernel's last pair: the count check sees it at once
        kernel = paving._inversion_pairs
        monkeypatch.setattr(paving, "_inversion_pairs", lambda *a: kernel(*a)[:-1])
        with pytest.raises(RuntimeError, match="walk counted"):
            enumerate_cells(self.lam, self.h)

    def test_word_that_is_not_a_permutation_raises(self, monkeypatch):
        self._tampered(monkeypatch, lambda rows, word, pos, dim: (rows, [1] * len(word), pos, dim))
        with pytest.raises(ValueError, match="not a permutation"):
            enumerate_cells(self.lam, self.h)

    def test_pair_with_smaller_index_first_raises(self, monkeypatch):
        kernel = paving._inversion_pairs
        monkeypatch.setattr(paving, "_inversion_pairs",
                            lambda *a: [(l, k) for k, l in kernel(*a)])
        with pytest.raises(ValueError, match="larger index first"):
            enumerate_cells(self.lam, self.h)
        with pytest.raises(ValueError, match="larger index first"):
            InversionSet([(2, 1), (3, 3)])


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


@lru_cache(maxsize=None)
def springer_line_count(mu):
    """|B_mu(F_q)| as coefficients in q, by the line V_1 in ker X_mu.

    Lines whose quotient has Jordan type mu minus a box at the end of a row
    of length r number q^{#parts > r} [m_r(mu)]_q, which gives
    |B_mu| = sum_r q^{#parts > r} [m_r(mu)]_q |B_{mu-r}|; no paving enters.
    """
    if not mu:
        return (1,)
    total = []
    for r in set(mu):
        shift = sum(1 for p in mu if p > r)
        mult = mu.count(r)
        i = mu.index(r) + mult - 1  # the last row of length r stays sorted
        rest = springer_line_count(tuple(p for p in mu[:i] + (r - 1,) + mu[i + 1:] if p))
        size = shift + mult - 1 + len(rest)
        total.extend([0] * (size - len(total)))
        for j in range(mult):  # [m]_q = 1 + q + ... + q^{m-1}
            for d, c in enumerate(rest, start=shift + j):
                total[d] += c
    return tuple(total)


def count_placements(monkeypatch):
    """Record the level m of every `_placements` call."""
    calls = []
    step = paving._placements

    def counted(*args):
        calls.append(args[0])
        return step(*args)

    monkeypatch.setattr(paving, "_placements", counted)
    return calls


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
        calls = count_placements(monkeypatch)
        poincare(Composition(parts), HessenbergFunction.springer(sum(parts)))
        assert len(calls) == states


class TestSpringerClosedForm:
    def test_line_recursion_every_partition_to_12(self):
        assert springer_line_count((1, 1)) == (1, 1)
        assert springer_line_count((2, 1)) == (1, 2)
        checked = 0
        for n in range(1, 13):
            for parts in partitions(n):
                p = poincare(Composition(parts), HessenbergFunction.springer(n))
                assert p.coeffs == springer_line_count(parts), parts
                checked += 1
        assert checked == 271

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
        # each _placements call of the ordered loop expands one memo state;
        # the m-1 clamp on the child bounds is what lets equivalent states
        # share an entry
        calls = count_placements(monkeypatch)
        ordered_poincare(Composition(parts), HessenbergFunction.springer(sum(parts)))
        assert len(calls) == states


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
        assert (p(1, 1), p(1, 2), p(3, 3)) == (2, 1, 0)
        s = standardize(self.R)
        ps = inversion_profile(s, self.h)
        assert (ps(1, 1), ps(1, 2), ps(3, 3)) == (3, 1, 1)

    def test_profile_total(self):
        lam = Composition([2, 2, 1])
        h = HessenbergFunction([0, 1, 1, 3, 3])
        for c in enumerate_cells(lam, h):
            p = inversion_profile(c.tableau, h)
            assert p.total == c.dim

    def test_cell_profile_matches_inversion_profile(self):
        # every cell of every composition with n <= 5 under every h
        cells_seen = 0
        for n in range(1, 6):
            for parts in compositions(n):
                lam = Composition(parts)
                for h in all_hessenberg_functions(n):
                    for c in enumerate_cells(lam, h):
                        cells_seen += 1
                        assert cell_profile(c) == inversion_profile(c.tableau, h)
        assert cells_seen > 10_000

    def test_profile_rejects_non_h_strict(self):
        with pytest.raises(ValueError):
            inversion_profile(Tableau([[2, 1]]), HessenbergFunction([0, 1]))

    def test_trace_two_column(self):
        steps = column_sort_trace(self.R, 1, 1, self.h)
        assert len(steps) == 3  # start plus two swaps
        assert steps[0].profile(1, 1) == 2
        assert steps[-1].profile(1, 1) == 3
        # intermediate states never decrease d(1,1)
        vals = [s.profile(1, 1) for s in steps]
        assert vals == sorted(vals)
        assert [r[:2] for r in steps[-1].grid] == [
            (1, 4), (2, 5), (3, 9), (6, None)]

    def test_trace_three_column(self):
        steps = column_sort_trace(self.R, 1, 2, self.h)
        assert len(steps) == 4
        vals = [s.profile(1, 2) for s in steps]
        assert vals[0] == 1 and vals[-1] == 1
        assert all(a <= b for a, b in zip(vals, vals[1:]))
        assert [r[:3] for r in steps[-1].grid] == [
            (1, 4, 7), (2, 5, 8), (3, 9, 12), (6, None, None)]

    def test_trace_last_column_strict_increase(self):
        steps = column_sort_trace(self.R, 3, 3, self.h)
        assert steps[0].profile(3, 3) == 0
        assert steps[-1].profile(3, 3) == 1
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
        top = max(c.dim for c in cells)
        built = []
        init = Tableau.__init__

        def counting(self, *args, **kwargs):
            built.append(args)
            init(self, *args, **kwargs)

        monkeypatch.setattr(Tableau, "__init__", counting)
        assert maximal_cells_are_standard(cells) == (True, None)
        assert 0 < len(built) == sum(c.dim == top for c in cells) < len(cells)

    def test_profile_domination(self):
        # d_R <= d_std(R) with a strict inequality for non-standard R
        for n in range(2, 6):
            for parts in partitions(n):
                lam = Composition(parts)
                for h in all_hessenberg_functions(n):
                    for c in enumerate_cells(lam, h):
                        s = standardize(c.tableau)
                        if s.rows == c.tableau.rows:
                            continue
                        p = inversion_profile(c.tableau, h)
                        ps = inversion_profile(s, h)
                        assert ps.dominates(p)
                        assert ps.total > p.total
