"""Affine cells of Hess(X_lambda, h): enumeration, dimensions, Betti numbers.

A cell is indexed by a permutation w whose tableau R(w) is h-strict.  Its
dimension is the number of Hessenberg inversions of R(w): pairs (k,l) with
k > l such that k sits strictly below l in the same column or anywhere in a
column strictly to the left, and k <= h(r) whenever r is the entry directly
to the right of l (no condition when l ends its row).
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property, lru_cache
from itertools import starmap
from math import factorial, prod
from operator import attrgetter, le
from typing import Iterable, Iterator, Sequence

from .combinatorics import (
    Composition,
    HessenbergFunction,
    Permutation,
    Tableau,
    base_filling,
    is_h_strict,
    tableau_of,
)


@dataclass(frozen=True)
class InversionSet:
    """A set of Hessenberg inversions (k, l), larger index first."""

    pairs: frozenset[tuple[int, int]]

    def __init__(self, pairs):
        pairs = frozenset(pairs)
        if any(starmap(le, pairs)):
            raise ValueError("inversion pairs must have the larger index first")
        object.__setattr__(self, "pairs", pairs)

    @cached_property
    def _levels(self) -> dict[int, tuple[int, ...]]:
        levels: dict[int, list[int]] = {}
        for k, l in sorted(self.pairs):
            levels.setdefault(k, []).append(l)
        return {k: tuple(ls) for k, ls in levels.items()}

    def level(self, k: int) -> tuple[int, ...]:
        """The l's with (k,l) present, sorted (the set inv^k); every level
        is computed on the first call and kept."""
        return self._levels.get(k, ())

    def __len__(self) -> int:
        return len(self.pairs)

    def __contains__(self, pair) -> bool:
        return pair in self.pairs

    def __le__(self, other: "InversionSet") -> bool:
        return self.pairs <= other.pairs

    def sorted_pairs(self) -> list[tuple[int, int]]:
        return sorted(self.pairs)


@lru_cache(maxsize=None)
def _pair_table(n: int) -> list[tuple[tuple[int, int], ...] | None]:
    """Rows of shared pair tuples for size n: table[l][k] == (k, l), 0 <= k <= n.

    Every inversion set of a size-n filling shares these tuples, so a cell
    table of many cells does not allocate (and garbage-collect) one tuple
    per pair.  Row l starts as None and `_inversion_pairs` fills it the first
    time it finds a pair (k, l), so a shape whose cells have few pairs never
    pays for the (n+1)^2 tuples of a full table.
    """
    return [None] * (n + 1)


def _inversion_pairs(
    rows: Sequence[Sequence[int | None]],
    pos: dict[int, tuple[int, int]],
    h_values: Sequence[int],
    n: int,
) -> list[tuple[int, int]]:
    """The Hessenberg inversions (k, l) of a filling of 1..n.

    `pos` maps each value to its 1-based (row, column).  A row may be padded
    with None holes; a hole to the right of l counts as the end of its row.
    """
    table = _pair_table(n)
    pairs = []
    for l in range(1, n + 1):
        rl, cl = pos[l]
        row = rows[rl - 1]
        r = row[cl] if cl < len(row) else None
        bound = n if r is None else h_values[r - 1]
        with_l = table[l]
        for k in range(l + 1, bound + 1):
            rk, ck = pos[k]
            if ck < cl or (ck == cl and rk > rl):
                if with_l is None:
                    with_l = table[l] = tuple((kk, l) for kk in range(n + 1))
                pairs.append(with_l[k])
    return pairs


def _tableau_inversions(t: Tableau, h: HessenbergFunction) -> frozenset[tuple[int, int]]:
    return frozenset(_inversion_pairs(t.rows, t.index, h.values, t.n))


def hessenberg_inversions(
    w: Permutation, lam: Composition, h: HessenbergFunction
) -> InversionSet:
    """inv_{lambda,h}(w), computed from the tableau R(w)."""
    if not (w.n == lam.n == h.n):
        raise ValueError(f"size mismatch: |w|={w.n}, n(lambda)={lam.n}, n(h)={h.n}")
    return InversionSet(_tableau_inversions(tableau_of(w, lam), h))


def springer_inversions(w: Permutation, lam: Composition) -> InversionSet:
    """inv_lambda(w): the Hessenberg inversions for h = (0,1,...,n-1)."""
    return hessenberg_inversions(w, lam, HessenbergFunction.springer(lam.n))


@dataclass(frozen=True)
class CellDescriptor:
    """One affine cell of the paving: C_w meets Hess(X_lambda,h) in C^dim.

    The fields are what the walk produced: the one-line `word` of w, the
    filling R(w) as `rows` and inv_{lambda,h}(w) as `pairs`, sorted by
    (k, l).  The views `w`, `hess_inv`, `tableau` and the Springer
    inversions inv_lambda(w) are built on first read and cached, so a cell
    table that only lists w, R(w) and inv_{lambda,h}(w) never pays for them.
    """

    word: tuple[int, ...]
    rows: tuple[tuple[int, ...], ...]
    pairs: tuple[tuple[int, int], ...]
    dim: int
    h: HessenbergFunction

    @cached_property
    def w(self) -> Permutation:
        return Permutation(self.word)

    @cached_property
    def hess_inv(self) -> InversionSet:
        return InversionSet(self.pairs)

    @cached_property
    def tableau(self) -> Tableau:
        return Tableau(self.rows)

    @cached_property
    def springer_inv(self) -> InversionSet:
        if self.h.is_springer():
            return self.hess_inv
        return InversionSet(
            _tableau_inversions(self.tableau, HessenbergFunction.springer(self.h.n))
        )


def _placements(
    m: int,
    rem: tuple[int, ...],
    bounds: tuple[int, ...],
    hv: Sequence[int],
    nrows: int,
) -> Iterator[tuple[int, tuple[int, ...], tuple[int, ...], int]]:
    """The ways to place m, the largest entry left, at the end of a row.

    This is one step of the n -> n-1 deletion recursion, the tableau side of
    the projection C_w -> C_y.  A state is the remaining row lengths `rem`
    plus a bound b_i on each row's last entry (h of the placed right
    neighbor, n for a full row).  Row i may hold m iff m <= b_i, and then m
    forms a Hessenberg inversion with the last entry of every other row j
    with b_j >= m whose last box lies in a column right of m's box, or in
    the same column above it; no other entry can pair with m, since its
    right neighbor r < m has h(r) < m.  Child bounds are clamped to m-1 so
    that equivalent states compare equal; an empty row's bound is 0, and
    h(m) <= m-1 needs no clamp.

    Yields (i, child_rem, child_bounds, gain) for each row i that may hold
    m, in row order; gain counts the inversions (m, l).
    """
    cap = m - 1
    clamped = [b if b < cap else cap for b in bounds]
    # the rows that may hold m are also the only rows m can pair with
    open_rows = [(j, rem[j]) for j in range(nrows) if bounds[j] >= m]
    for i, c in open_rows:
        child_rem = list(rem)
        child_rem[i] = c - 1
        child_bounds = clamped.copy()
        child_bounds[i] = hv[cap] if c > 1 else 0
        gain = 0
        for j, cj in open_rows:
            if cj > c or (cj == c and j < i):
                gain += 1
        yield i, tuple(child_rem), tuple(child_bounds), gain


def iter_fillings(
    lam: Composition, h: HessenbergFunction, max_dim: int | None = None
) -> Iterator[tuple[list[list[int]], list[int], dict[int, tuple[int, int]], int]]:
    """Depth-first enumeration of RS_h(lambda) with the inversion count.

    Walks the states of `_placements` from n down to 1, writing each value
    into the box it takes; dim is the sum of the gains.  A branch is pruned
    as soon as its partial sum exceeds `max_dim`.  Each placement of m also
    records w(m), the label of m's box in the base filling R(e), and the
    box's 1-based (row, column), so a filling arrives with its permutation
    and positions already known.

    Many prefixes reach one state (rem, bounds), so each state's children
    are expanded once and kept, the states that `poincare` visits level by
    level; the walk itself is one explicit stack of child iterators.

    Yields (rows, word, pos, dim): the filling R(w), the one-line word of w,
    the map value -> (row, column) and the dimension.  The rows, word and pos
    containers are reused; copy them if kept.
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
    # no filling has more than n^2 inversions, so this limit prunes nothing
    limit = n * n if max_dim is None else max_dim
    # (rem, bounds) -> [(grid row, column, w(m), box, child state, gain)]
    memo: dict[tuple[tuple[int, ...], tuple[int, ...]], list[tuple]] = {}

    def expand(m: int, state: tuple[tuple[int, ...], tuple[int, ...]]) -> list[tuple]:
        rem = state[0]
        kids = []
        for i, child_rem, child_bounds, gain in _placements(m, *state, hv, nrows):
            c = rem[i] - 1
            kids.append((grid[i], c, labels[i][c], boxes[i][c], (child_rem, child_bounds), gain))
        memo[state] = kids
        return kids

    m, dim = n, 0
    it = iter(expand(n, (lam.parts, (n,) * nrows)))
    stack: list[tuple[Iterator[tuple], int]] = []
    while True:
        for row, c, label, box, child, gain in it:
            d = dim + gain
            if d > limit:
                continue
            row[c] = m
            word[m - 1] = label
            pos[m] = box
            if m == 1:
                yield grid, word, pos, d
                continue
            kids = memo.get(child)
            if kids is None:
                kids = expand(m - 1, child)
            stack.append((it, dim))
            it, dim, m = iter(kids), d, m - 1
            break
        else:
            if not stack:
                return
            it, dim = stack.pop()
            m += 1


def enumerate_cells(lam: Composition, h: HessenbergFunction) -> list[CellDescriptor]:
    """All affine cells of Hess(X_lambda, h), sorted by the one-line word of w.

    An empty list signals that the variety is empty.  Each descriptor holds
    what the walk produced: the frozen rows, the word of w and the pairs of
    inv_{lambda,h}(w) from the pair kernel `_inversion_pairs`.  Every cell is
    checked as it is built: each pair must have the larger index first
    (ValueError), the walk counts each cell's inversions on its own and a
    kernel list whose size disagrees with that count raises RuntimeError,
    and the word must take each of 1..n once, so no box took two values
    (ValueError).  `Permutation`, `InversionSet` and `Tableau` are left to
    the descriptor's first read.
    """
    hv = h.values
    n = lam.n
    values = set(range(1, n + 1))
    cells = []
    for grid, word, pos, dim in iter_fillings(lam, h):
        rows = tuple(map(tuple, grid))
        pairs = _inversion_pairs(rows, pos, hv, n)
        if any(starmap(le, pairs)):
            raise ValueError("inversion pairs must have the larger index first")
        if len(pairs) != dim:
            raise RuntimeError(
                f"walk counted {dim} inversions for {rows}, descriptor has {len(pairs)}"
            )
        word = tuple(word)
        if set(word) != values:
            raise ValueError(f"not a permutation of 1..{n}: {word}")
        pairs.sort()
        cells.append(CellDescriptor(word, rows, tuple(pairs), dim, h))
    cells.sort(key=attrgetter("word"))
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
    it, and no recursion bounds n.

    A child state is keyed by its (rem_i, b_i) pairs sorted, so states
    that differ only in the order of their rows share one entry.  That the
    histogram a state contributes does not depend on the order of its rows
    is measured, not proven: for the root state it is the theorem that
    X_lambda for a composition is conjugate to X of the sorted partition,
    but `_placements` breaks ties between rows of equal length by row
    order.  This loop equals the one keyed by ordered states on every
    composition with n <= 8 under every h (215,529 pairs, the `exhaustive`
    test in tests/test_paving.py).

    A histogram is one int with the coefficient of t^d in bits
    [d*width, (d+1)*width).  Sorting a state permutes its rows, and its
    children are those of the unsorted state with the rows permuted alike,
    so the digits of a key sum to the number of partial fillings (the rows
    that n..m+1 went to, row i taking at most lambda_i of them) whose
    ordered state sorts to that key.  Each partial filling extends to a
    different complete one, so no digit exceeds n!/prod(lambda_i!) <
    2^width, and adding packed histograms never carries from one digit
    into the next.
    """
    n = lam.n
    if n != h.n:
        raise ValueError(f"size mismatch: n(lambda)={lam.n}, n(h)={h.n}")
    if n == 0:
        return PoincareData(())
    hv = h.values
    nrows = lam.num_rows
    width = (factorial(n) // prod(map(factorial, lam.parts))).bit_length()
    level: dict[tuple[tuple[int, int], ...], int] = {
        tuple(zip(lam.parts, (n,) * nrows)): 1
    }
    for m in range(n, 0, -1):
        below: dict[tuple[tuple[int, int], ...], int] = {}
        for state, hist in level.items():
            rem, bounds = zip(*state)
            for _, child_rem, child_bounds, gain in _placements(m, rem, bounds, hv, nrows):
                key = tuple(sorted(zip(child_rem, child_bounds)))
                below[key] = below.get(key, 0) + (hist << gain * width)
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
    grid = [[0] * p for p in lam.parts]
    available = set(range(1, lam.n + 1))
    for col in range(lam.num_cols, 0, -1):
        for row in lam.column_rows(col):
            if col < lam.parts[row - 1]:
                bound = h(grid[row - 1][col])
            else:
                bound = lam.n
            candidates = [v for v in available if v <= bound]
            if not candidates:
                return None
            v = max(candidates)
            grid[row - 1][col - 1] = v
            available.remove(v)
    return Tableau(grid, lam)


def zero_dim_cells(lam: Composition, h: HessenbergFunction) -> list[Tableau]:
    """All tableaux of cells of dimension zero (pruned enumeration)."""
    return [
        Tableau(rows, lam)
        for rows, _, _, _ in iter_fillings(lam, h, max_dim=0)
    ]


@dataclass(frozen=True)
class InversionProfile:
    """d_R(i,j): Hessenberg inversions counted by the columns of k and l."""

    d: dict[tuple[int, int], int]

    def __call__(self, i: int, j: int) -> int:
        return self.d.get((i, j), 0)

    @property
    def total(self) -> int:
        return sum(self.d.values())

    def dominates(self, other: "InversionProfile") -> bool:
        keys = set(self.d) | set(other.d)
        return all(self(i, j) >= other(i, j) for i, j in keys)


def _grid_profile(
    pairs: Iterable[tuple[int, int]],
    pos: dict[int, tuple[int, int]],
    num_cols: int,
) -> InversionProfile:
    """d(i, j): how many inversions (k, l) have k in column i and l in column j."""
    d = {(i, j): 0 for i in range(1, num_cols + 1) for j in range(i, num_cols + 1)}
    for k, l in pairs:
        d[(pos[k][1], pos[l][1])] += 1
    return InversionProfile(d)


def inversion_profile(t: Tableau, h: HessenbergFunction) -> InversionProfile:
    """The profile d_R of an h-strict tableau R."""
    if not is_h_strict(t, h):
        raise ValueError("tableau is not h-strict")
    return _grid_profile(_tableau_inversions(t, h), t.index, t.shape.num_cols)


def cell_profile(cell: CellDescriptor) -> InversionProfile:
    """The profile d_R(w) of a cell, read off its inversions inv_{lambda,h}(w).

    A cell's tableau is h-strict by construction and its inversions are
    already known, so this is `inversion_profile(cell.tableau, h)` without
    the h-strictness check and without a second pass of the pair kernel.
    """
    t = cell.tableau
    return _grid_profile(cell.hess_inv.pairs, t.index, t.shape.num_cols)


def maximal_cells_are_standard(
    cells: list[CellDescriptor],
) -> tuple[bool, Tableau | None]:
    """Check that every maximal-dimension cell of a cell table has a standard tableau.

    Returns (ok, witness) where witness is a failing tableau if any.
    """
    top = max((c.dim for c in cells), default=0)
    for c in cells:
        if c.dim != top:
            continue
        t = c.tableau
        if any(
            any(a > b for a, b in zip(colvals, colvals[1:]))
            for colvals in _columns(t)
        ):
            return False, t
    return True, None


def _columns(t: Tableau) -> list[list[int]]:
    return [
        [t.entry(r, c) for r in t.shape.column_rows(c)]
        for c in range(1, t.shape.num_cols + 1)
    ]
