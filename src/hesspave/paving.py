"""Affine cells of Hess(X_lambda, h): enumeration, dimensions, Betti numbers.

A cell is indexed by a permutation w whose tableau R(w) is h-strict.  Its
dimension is the number of Hessenberg inversions of R(w): pairs (k,l) with
k > l such that k sits strictly below l in the same column or anywhere in a
column strictly to the left, and k <= h(r) whenever r is the entry directly
to the right of l (no condition when l ends its row).
"""

from __future__ import annotations

from bisect import bisect_right
from collections import Counter
from dataclasses import dataclass
from functools import lru_cache
from itertools import starmap
from math import comb
from operator import itemgetter, le
from typing import Iterable, Iterator, Sequence

from .combinatorics import (
    Composition,
    HessenbergFunction,
    Permutation,
    Tableau,
    base_filling,
    is_h_strict,
    standardize,
    tableau_of,
)


class _PairRow(dict):
    """Row l of the pair table: row[k] is the shared tuple (k, l), made on
    the first read."""

    __slots__ = ("l",)

    def __init__(self, l: int):
        self.l = l

    def __missing__(self, k: int) -> tuple[int, int]:
        pair = self[k] = (k, self.l)
        return pair


@lru_cache(maxsize=None)
def _pair_table(n: int) -> list[_PairRow]:
    """Rows of shared pair tuples for size n: table[l][k] == (k, l).

    Every inversion set of a size-n filling shares these tuples, so a cell
    table of many cells does not allocate (and garbage-collect) one tuple
    per pair.  A row holds only the pairs that `_pairs_below` has found, so
    a shape whose cells have few pairs never pays for the (n+1)^2 tuples of
    a full table.
    """
    return [_PairRow(l) for l in range(n + 1)]


def _pairs_below(
    l: int,
    rl: int,
    cl: int,
    bound: int,
    pos: dict[int, tuple[int, int]],
    with_l: _PairRow,
) -> list[tuple[int, int]]:
    """The Hessenberg inversions (k, l) of one entry l, in increasing k.

    l sits at the 1-based (rl, cl), `bound` is h(r) for the entry r directly
    right of l (n when l ends its row), and `pos` maps each k in
    (l, bound] to its box.  The pairs are the k whose box lies in a column
    left of cl, or in column cl below row rl, taken from `with_l`, row l of
    `_pair_table`.
    """
    pairs = []
    for k in range(l + 1, bound + 1):
        rk, ck = pos[k]
        if ck < cl or (ck == cl and rk > rl):
            pairs.append(with_l[k])
    return pairs


def _inversion_pairs(
    rows: Sequence[Sequence[int | None]],
    pos: dict[int, tuple[int, int]],
    h_values: Sequence[int],
    n: int,
) -> list[tuple[int, int]]:
    """The Hessenberg inversions (k, l) of a filling of 1..n, by increasing l.

    `pos` maps each value to its 1-based (row, column).  A row may be padded
    with None holes; a hole to the right of l counts as the end of its row.
    This is `_pairs_below` run once for each l over the finished filling;
    the filling walk runs the same step at the node that places l.
    """
    table = _pair_table(n)
    pairs = []
    for l in range(1, n + 1):
        rl, cl = pos[l]
        row = rows[rl - 1]
        r = row[cl] if cl < len(row) else None
        bound = n if r is None else h_values[r - 1]
        pairs += _pairs_below(l, rl, cl, bound, pos, table[l])
    return pairs


def tableau_inversions(t: Tableau, h: HessenbergFunction) -> frozenset[tuple[int, int]]:
    """inv_{lambda,h}(w) read off the tableau R(w) = t, with no w."""
    return frozenset(_inversion_pairs(t.rows, t.index, h.values, t.n))


def hessenberg_inversions(
    w: Permutation, lam: Composition, h: HessenbergFunction
) -> frozenset[tuple[int, int]]:
    """inv_{lambda,h}(w), the pairs (k, l) with k > l, computed from the
    tableau R(w)."""
    if not (w.n == lam.n == h.n):
        raise ValueError(f"size mismatch: |w|={w.n}, n(lambda)={lam.n}, n(h)={h.n}")
    return tableau_inversions(tableau_of(w, lam), h)


def springer_inversions(w: Permutation, lam: Composition) -> frozenset[tuple[int, int]]:
    """inv_lambda(w): the Hessenberg inversions for h = (0,1,...,n-1)."""
    return hessenberg_inversions(w, lam, HessenbergFunction.springer(lam.n))


def _placements(
    m: int, state: tuple[tuple[int, int], ...], hv: Sequence[int]
) -> list[tuple[list[int], list[tuple[int, int]], int]]:
    """The ways to place m, the largest entry left, at the end of a row.

    This is one step of the n -> n-1 deletion recursion, the tableau side of
    the projection C_w -> C_y.  A state holds one pair (rem_i, b_i) per
    row: the remaining length of row i and a bound on its last entry (h of
    the placed right neighbor, n for a full row).  Row i may hold m iff
    m <= b_i, and then m forms a Hessenberg inversion with the last entry
    of every other open row j (b_j >= m) whose last box lies in a column
    right of m's box, or in the same column above it; no other entry can
    pair with m, since its right neighbor r < m has h(r) < m.  Child bounds
    are clamped to m-1 so that equivalent states compare equal; an empty
    row's bound is 0, and h(m) <= m-1 needs no clamp.

    The open rows of one length c make one entry (rows, child, gain),
    longest c first: `rows` are those rows in row order, `child` the pairs
    after m goes into rows[0], and `gain` the number of open rows longer
    than c.  Row rows[r] would pair m with those rows and with rows[:r], so
    its gain is gain + r; and since every open bound clamps to m-1, its
    child is `child` with the pairs of rows[0] and rows[r] swapped.  The k
    placements of a group thus have children with one multiset of pairs
    and gains gain, ..., gain+k-1: weight t^gain [k]_t.
    """
    cap = m - 1
    placed = hv[cap]
    child = list(state)
    # the rows that may hold m are also the only rows m can pair with, and
    # the only bounds above m-1
    groups: dict[int, list[int]] = {}
    for i, (c, b) in enumerate(state):
        if b >= m:
            child[i] = (c, cap)
            groups.setdefault(c, []).append(i)
    out = []
    gain = 0
    for c in sorted(groups, reverse=True):
        rows = groups[c]
        kid = child.copy()
        kid[rows[0]] = (c - 1, placed) if c > 1 else (0, 0)
        out.append((rows, kid, gain))
        gain += len(rows)
    return out


def iter_fillings(
    lam: Composition, h: HessenbergFunction, max_dim: int | None = None
) -> Iterator[
    tuple[
        tuple[tuple[int, ...], ...],
        tuple[int, ...],
        int,
        tuple[tuple[int, int], ...],
    ]
]:
    """Depth-first enumeration of RS_h(lambda) with its Hessenberg inversions.

    Walks the states of `_placements` from n down to 1, writing each value
    into the box it takes; dim is the sum of the gains.  A branch is pruned
    as soon as its partial sum exceeds `max_dim`.  Each placement of m also
    records w(m), the label of m's box in the base filling R(e), so a
    filling arrives with its permutation already known.

    The node that places l also lists the pairs (k, l) by `_pairs_below`:
    every k > l and the right neighbor of l's box are placed by then.  The
    pairs go onto one stack that is cut back on backtrack, so each prefix
    finds its pairs once, however many fillings extend it.  The gains count
    each pair when its larger entry is placed and `_pairs_below` when its
    smaller one is, so the two counts check each other on every filling.

    Many prefixes reach one state, so each state's children are expanded
    once and kept: each group of `_placements` unfolds into its rows, sorted
    by row index, with the ordered child state and gain of each.  The walk
    itself is one explicit stack of child iterators.

    Yields (rows, word, dim, pairs): the filling R(w) as a tuple of row
    tuples, the one-line word of w, the dimension and the pairs of
    inv_{lambda,h}(w) sorted by (k, l).  A row is frozen once, when its
    first box is filled, and every filling below that node shares the tuple.
    """
    n = lam.n
    if n != h.n:
        raise ValueError(f"size mismatch: n(lambda)={lam.n}, n(h)={h.n}")
    if n == 0:
        return
    hv = h.values
    nrows = lam.num_rows
    grid = [[0] * p for p in lam.parts]
    labels = base_filling(lam).rows
    boxes = [[(i + 1, c) for c in range(1, p + 1)] for i, p in enumerate(lam.parts)]
    word = [0] * n
    pos: dict[int, tuple[int, int]] = {}
    finished: list[tuple[int, ...]] = [()] * nrows
    pairs: list[tuple[int, int]] = []
    table = _pair_table(n)
    # no filling has more than n^2 inversions, so this limit prunes nothing
    limit = n * n if max_dim is None else max_dim
    # state -> [(row index, column, w(m), box, child state, gain)]
    memo: dict[tuple[tuple[int, int], ...], list[tuple]] = {}

    def expand(m: int, state: tuple[tuple[int, int], ...]) -> list[tuple]:
        kids = []
        for rows, child, gain in _placements(m, state, hv):
            first = rows[0]
            for r, i in enumerate(rows):
                kid = child.copy()
                kid[first], kid[i] = kid[i], kid[first]
                c = state[i][0] - 1
                kids.append((i, c, labels[i][c], boxes[i][c], tuple(kid), gain + r))
        kids.sort(key=itemgetter(0))
        memo[state] = kids
        return kids

    # base: how many pairs the placements of n..m+1 hold on the stack
    m, dim, base = n, 0, 0
    it = iter(expand(n, tuple(zip(lam.parts, (n,) * nrows))))
    stack: list[tuple[Iterator[tuple], int, int]] = []
    while True:
        for i, c, label, box, child, gain in it:
            d = dim + gain
            if d > limit:
                continue
            row = grid[i]
            row[c] = m
            word[m - 1] = label
            pos[m] = box
            del pairs[base:]
            bound = hv[row[c + 1] - 1] if c + 1 < len(row) else n
            if bound > m:
                pairs += _pairs_below(m, box[0], box[1], bound, pos, table[m])
            if c == 0:
                finished[i] = tuple(row)
            if m == 1:
                yield tuple(finished), tuple(word), d, tuple(sorted(pairs))
                continue
            kids = memo.get(child)
            if kids is None:
                kids = expand(m - 1, child)
            stack.append((it, dim, base))
            it, dim, m, base = iter(kids), d, m - 1, len(pairs)
            break
        else:
            if not stack:
                return
            it, dim, base = stack.pop()
            m += 1


def enumerate_cells(lam: Composition, h: HessenbergFunction) -> list[tuple]:
    """All affine cells of Hess(X_lambda, h) as (word, rows, pairs, dim)
    tuples, sorted by the one-line word of w.

    An empty list signals that the variety is empty.  Each tuple holds what
    the walk produced: the word of w, the frozen rows of R(w), the sorted
    pairs of inv_{lambda,h}(w) that the walk's `_pairs_below` steps listed
    and the dimension; a caller builds `Permutation(word)` or `Tableau(rows)`
    where it needs them.  Every cell is checked as it is built: each pair
    must have the larger index first (ValueError); the walk's gains from
    `_placements` count each cell's inversions on their own, and a pair list
    whose size disagrees with that count raises RuntimeError; and the word
    must take each of 1..n once, so no box took two values (ValueError).
    """
    values = set(range(1, lam.n + 1))
    cells = []
    for rows, word, dim, pairs in iter_fillings(lam, h):
        if any(starmap(le, pairs)):
            raise ValueError("inversion pairs must have the larger index first")
        if len(pairs) != dim:
            raise RuntimeError(
                f"walk counted {dim} inversions for {rows}, descriptor has {len(pairs)}"
            )
        if set(word) != values:
            raise ValueError(f"not a permutation of 1..{lam.n}: {word}")
        cells.append((word, rows, pairs, dim))
    cells.sort(key=itemgetter(0))
    return cells


@dataclass(frozen=True)
class PoincareData:
    """Cell-dimension histogram; coeffs[k] = number of cells of dimension k."""

    coeffs: tuple[int, ...]

    @property
    def total_cells(self) -> int:
        return sum(self.coeffs)


def poincare(lam: Composition, h: HessenbergFunction) -> PoincareData:
    """Cell-dimension histogram by the n -> n-1 deletion step, level by level.

    Level m maps each state of `_placements` that some placement of n..m+1
    reaches to the dimension histogram of the partial fillings that reach
    it, so each state is expanded once, however many fillings pass through
    it, and no recursion bounds n.  An empty variety (no R_0, see
    `r0_tableau`; only its rows are built) returns at once.

    A state is keyed by its (rem_i, b_i) pairs sorted, and a group of
    `_placements` adds t^gain [k]_t times its histogram to the key of its
    child.  Both rest on this: the histogram H_m(S) of the fillings that
    complete a state S at level m depends only on the multiset of S's
    pairs.  By induction on m: H_0 = 1, and for m >= 1 the k open rows of
    one length c give children that all hold one multiset of pairs (the
    pairs of S clamped to m-1, one open (c, m-1) replaced by (c-1, h(m)),
    or (0, 0) when c = 1) and gains gain, ..., gain+k-1, where gain counts
    the open pairs longer than c; so by the induction hypothesis
    H_m(S) = sum over c of t^gain [k]_t H_{m-1}(child), and k, gain and
    the child's multiset read only the multiset of S.  At the root this is
    the theorem that X_lambda for a composition is conjugate to X of the
    sorted partition.

    A histogram is one int with the coefficient of t^d in bits
    [d*width, (d+1)*width).  The digits of a key sum to the number of
    partial fillings (the rows that n..m+1 went to, row i taking at most
    lambda_i of them) whose ordered state sorts to that key: t^gain [k]_t
    has k digits of 1, one per row of the group.  Each partial filling
    extends to a different complete one, so no digit exceeds the
    multinomial n!/prod(lambda_i!) < 2^width, and adding packed histograms
    never carries from one digit into the next.
    """
    n = lam.n
    if n != h.n:
        raise ValueError(f"size mismatch: n(lambda)={lam.n}, n(h)={h.n}")
    if n == 0 or _r0_rows(lam, h) is None:
        return PoincareData(())
    hv = h.values
    nrows = lam.num_rows
    # the multinomial as a product of binomials: no n! at large n
    multinomial, left = 1, n
    for p in lam.parts:
        multinomial *= comb(left, p)
        left -= p
    width = multinomial.bit_length()
    # tied[k] = [k]_t = 1 + t + ... + t^(k-1), packed
    tied = [0]
    for k in range(nrows):
        tied.append(tied[-1] | 1 << k * width)
    level: dict[tuple[tuple[int, int], ...], int] = {
        tuple(zip(lam.parts, (n,) * nrows)): 1
    }
    for m in range(n, 0, -1):
        below: dict[tuple[tuple[int, int], ...], int] = {}
        for state, hist in level.items():
            for rows, child, gain in _placements(m, state, hv):
                key = tuple(sorted(child))
                below[key] = below.get(key, 0) + (hist << gain * width) * tied[len(rows)]
        level = below
    # every complete filling ends in the one state with all rows empty
    packed = level.get(((0, 0),) * nrows, 0)
    digit = (1 << width) - 1
    coeffs = []
    while packed:
        coeffs.append(packed & digit)
        packed >>= width
    return PoincareData(tuple(coeffs))


def r0_tableau(lam: Composition, h: HessenbergFunction) -> Tableau | None:
    """The greedy zero-cell tableau R_0, or None if the variety is empty.

    Columns are filled right to left, each top to bottom, always choosing the
    largest unused value that keeps the pair with the already-filled right
    neighbor h-strict.  When it exists, R_0 is the unique element of
    RS_h(lambda) with no Hessenberg inversions.
    """
    if lam.n != h.n:
        raise ValueError(f"size mismatch: n(lambda)={lam.n}, n(h)={h.n}")
    grid = _r0_rows(lam, h)
    return None if grid is None else Tableau(grid, lam)


def _r0_rows(lam: Composition, h: HessenbergFunction) -> list[list[int]] | None:
    """The rows of R_0 as lists, or None if the variety is empty; the greedy
    fill of `r0_tableau`, without building the `Tableau`."""
    n, hv = lam.n, h.values
    grid = [[0] * p for p in lam.parts]
    available = list(range(1, n + 1))
    for col in range(lam.num_cols, 0, -1):
        for row in grid:
            if col > len(row):
                continue
            bound = hv[row[col] - 1] if col < len(row) else n
            # the largest unused value <= bound
            j = bisect_right(available, bound)
            if not j:
                return None
            row[col - 1] = available.pop(j - 1)
    return grid


def zero_dim_cells(lam: Composition, h: HessenbergFunction) -> list[Tableau]:
    """All tableaux of cells of dimension zero (pruned enumeration)."""
    return [
        Tableau(rows, lam)
        for rows, _, _, _ in iter_fillings(lam, h, max_dim=0)
    ]


def _grid_profile(
    pairs: Iterable[tuple[int, int]], pos: dict[int, tuple[int, int]]
) -> Counter[tuple[int, int]]:
    """d(i, j): how many inversions (k, l) have k in column i and l in column j.

    d_std(R) dominates d_R, entry by entry with one entry larger, exactly
    when `d_std > d_R` as Counters.
    """
    return Counter((pos[k][1], pos[l][1]) for k, l in pairs)


def inversion_profile(t: Tableau, h: HessenbergFunction) -> Counter[tuple[int, int]]:
    """The profile d_R of an h-strict tableau R."""
    if not is_h_strict(t, h):
        raise ValueError("tableau is not h-strict")
    return _grid_profile(tableau_inversions(t, h), t.index)


def cell_profile(pairs: Iterable[tuple[int, int]], t: Tableau) -> Counter[tuple[int, int]]:
    """The profile d_R(w) of a cell, read off its pairs inv_{lambda,h}(w) and R(w) = t.

    A cell's tableau is h-strict by construction and its inversions are
    already known, so this is `inversion_profile(t, h)` without the
    h-strictness check and without a second pass of the pair kernel.
    """
    return _grid_profile(pairs, t.index)


def maximal_cells_are_standard(
    cells: list[tuple], tableaux: list[Tableau] | None = None
) -> tuple[bool, Tableau | None]:
    """Check that every maximal-dimension cell of a cell table has a standard tableau.

    `cells` is a table of `enumerate_cells` and `tableaux`, if given, their
    tableaux in order; otherwise only the top cells get one.  A tableau is
    standard when `standardize` leaves it as it is.  Returns (ok, witness)
    where witness is a failing tableau if any.
    """
    top = max((dim for _, _, _, dim in cells), default=0)
    for i, (_, rows, _, dim) in enumerate(cells):
        if dim == top:
            t = Tableau(rows) if tableaux is None else tableaux[i]
            if standardize(t).rows != t.rows:
                return False, t
    return True, None
