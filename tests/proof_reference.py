"""The paper's proof steps, sweeps and small evaluators that only the tests use.

The inductive steps of the paving argument (the U_i b_n split of g_n, the
projection C_w -> C_y through w = v*y, the deletion of the box labeled n
and the column bubble-sort behind the profile inequality), the sweeps over
partitions and Hessenberg functions, and the evaluators the tests compare
the package against, among them the Poincare level loop on ordered states.  No command runs any of them, so they live here and
not in the package.  (The module is not named `reference`, which is
perfbench's reference loop.)
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import Iterator, Mapping

from hesspave.combinatorics import (
    Composition,
    HessenbergFunction,
    Permutation,
    Tableau,
    factorize,
    inversions,
    is_h_strict,
    is_row_strict,
    tableau_of,
)
from hesspave import paving
from hesspave.domains import Domain, Poly
from hesspave.exactla import (
    ExactMatrix,
    Flag,
    UnipotentPattern,
    _flag_of,
    _generic_products,
    bk_entries,
    bruhat_canonical_form,
    factor_unipotent,
)
from hesspave.paving import (
    InversionProfile,
    PoincareData,
    _grid_profile,
    _inversion_pairs,
    springer_inversions,
)

# -- sweeps and combinatorics --------------------------------------------


def partitions(n: int) -> Iterator[tuple[int, ...]]:
    """Partitions of n in decreasing order, largest first lexicographically."""

    def rec(remaining: int, maxpart: int, prefix: list[int]) -> Iterator[tuple[int, ...]]:
        if remaining == 0:
            yield tuple(prefix)
            return
        for p in range(min(maxpart, remaining), 0, -1):
            prefix.append(p)
            yield from rec(remaining - p, p, prefix)
            prefix.pop()

    yield from rec(n, n, [])


def all_hessenberg_functions(n: int) -> Iterator[HessenbergFunction]:
    """All h with h(i) < i, nondecreasing (there are Catalan(n) of them)."""

    def rec(prefix: list[int]) -> Iterator[tuple[int, ...]]:
        i = len(prefix) + 1
        if i > n:
            yield tuple(prefix)
            return
        lo = prefix[-1] if prefix else 0
        for v in range(lo, i):
            prefix.append(v)
            yield from rec(prefix)
            prefix.pop()

    for vals in rec([]):
        yield HessenbergFunction(vals)


def h_leq(h1: HessenbergFunction, h2: HessenbergFunction) -> bool:
    """Pointwise partial order h1(i) <= h2(i)."""
    if h1.n != h2.n:
        raise ValueError(f"size mismatch: {h1.n} vs {h2.n}")
    return all(a <= b for a, b in zip(h1.values, h2.values))


def identity_permutation(n: int) -> Permutation:
    return Permutation(range(1, n + 1))


def length(w: Permutation) -> int:
    """l(w), the number of inversions of w."""
    return len(inversions(w))


def delete_last_box(t: Tableau) -> tuple[Composition, Tableau]:
    """Remove the box labeled n; n must sit at the end of its row.

    The resulting shape may be a non-partition composition; a row emptied by
    the deletion is dropped (positional row identity is after normalization).
    """
    n = t.n
    if n == 0:
        raise ValueError("cannot delete from an empty tableau")
    r, c = t.position(n)
    if c != len(t.rows[r - 1]):
        raise ValueError(f"entry {n} is not at the end of its row")
    grid = [list(row) for row in t.rows]
    grid[r - 1].pop()
    return Composition([len(row) for row in grid]), Tableau(grid)


# -- evaluators -----------------------------------------------------------


def ordered_poincare(lam: Composition, h: HessenbergFunction) -> PoincareData:
    """The Poincare level loop on ordered states, the oracle for `paving.poincare`.

    States are keyed by the ordered (rem, bounds) tuples, with one list of
    coefficients each, so it relies on no invariance under reordering the
    rows of a state.  It calls `paving._placements` through the module, so
    a test that counts those calls sees each state it expands.
    """
    n = lam.n
    if n != h.n:
        raise ValueError(f"size mismatch: n(lambda)={lam.n}, n(h)={h.n}")
    if n == 0:
        return PoincareData(())
    hv = h.values
    nrows = lam.num_rows
    level: dict[tuple[tuple[int, ...], tuple[int, ...]], list[int]] = {
        (lam.parts, (n,) * nrows): [1]
    }
    for m in range(n, 0, -1):
        below: dict[tuple[tuple[int, ...], tuple[int, ...]], list[int]] = {}
        for (rem, bounds), hist in level.items():
            for _, child_rem, child_bounds, gain in paving._placements(
                m, rem, bounds, hv, nrows
            ):
                total = below.setdefault((child_rem, child_bounds), [])
                if len(total) < gain + len(hist):
                    total.extend([0] * (gain + len(hist) - len(total)))
                for d, v in enumerate(hist, start=gain):
                    total[d] += v
        level = below
    # every complete filling ends in the one state with all rows empty
    return PoincareData(tuple(level.get(((0,) * nrows, (0,) * nrows), ())))


def evaluate(p: PoincareData, q: int) -> int:
    """Point count over F_q predicted by the paving."""
    return sum(c * q**k for k, c in enumerate(p.coeffs))


def substitute(poly: Poly, values: Mapping[tuple[int, int], object], domain: Domain) -> object:
    """Evaluate `poly` with the given variable values in the field `domain`."""
    one = domain.one()
    total = domain.zero()
    for mono, coeff in poly.terms.items():
        c = Fraction(coeff)
        term = domain.div(one * c.numerator, one * c.denominator)
        for var, e in mono:
            if var not in values:
                raise KeyError(f"no value for variable x{var}")
            for _ in range(e):
                term = term * values[var]
        total = total + term
    return total


# -- matrices, patterns and flags -------------------------------------------


def matrix_entry(m: ExactMatrix, i: int, j: int):
    """1-based access."""
    return m.rows[i - 1][j - 1]


def hessenberg_space_contains(m: ExactMatrix, h: HessenbergFunction) -> bool:
    """True iff M lies in H(h) = Span{E_ij | i <= h(j)}."""
    if m.n != h.n:
        raise ValueError(f"size mismatch: n(M)={m.n}, n(h)={h.n}")
    return all(
        not m.rows[i - 1][j - 1]
        for j in range(1, m.n + 1)
        for i in range(h(j) + 1, m.n + 1)
    )


def row_pattern(i: int, n: int) -> UnipotentPattern:
    """U_i: the i-th row of U."""
    return UnipotentPattern(n, frozenset((i, j) for j in range(i + 1, n + 1)))


def top_left_block(n: int) -> UnipotentPattern:
    """U_0: the unipotent group of the top-left (n-1) block."""
    return UnipotentPattern(n, frozenset(
        (a, b) for a in range(1, n) for b in range(a + 1, n)
    ))


def standard_flag(domain: Domain, n: int) -> Flag:
    ident = ExactMatrix.identity(domain, n)
    return Flag(domain, tuple(ident.column(j) for j in range(1, n + 1)))


def flag_of_matrix(m: ExactMatrix) -> Flag:
    return Flag(m.domain, tuple(m.column(j) for j in range(1, m.n + 1)))


def flag_matrix(flag: Flag) -> ExactMatrix:
    return ExactMatrix(flag.domain, tuple(zip(*flag.columns)))


# -- the inductive steps ---------------------------------------------------


def generic_flag_stages(w: Permutation, lam: Composition) -> list[Flag]:
    """The flags D_w^1, ..., D_w^n = generic points of g_k...g_2 wE_.

    Stage k has columns g_k g_{k-1} ... g_2 e_{w(j)}.  R(w) is checked to
    be row-strict and inv_lambda(w) is computed here.
    """
    if not is_row_strict(tableau_of(w, lam)):
        raise ValueError("R(w) is not row-strict")
    spr = springer_inversions(w, lam)
    return [_flag_of(w, prod) for prod in _generic_products(w, lam, spr)]


def bn_split(
    g_n: ExactMatrix, w: Permutation, lam: Composition
) -> tuple[ExactMatrix, ExactMatrix]:
    """Split g_n in B_n(w) as u_i b_n with u_i in U_i and b_n in v U_0 v^{-1}.

    u_i carries the i-th row of g_n (i = w(n)); the product recovers g_n.
    """
    dom = g_n.domain
    n = w.n
    i = w(n)
    spr = springer_inversions(w, lam)
    level = spr.level(n)
    coords = {(i, w(l)): matrix_entry(g_n, i, w(l)) for l in level}
    member = ExactMatrix.identity(dom, n).add_row_multiples(
        bk_entries(w, lam, spr, n, coords))
    if member != g_n:
        raise ValueError("input is not an element of B_n(w)")
    u_i = ExactMatrix.identity(dom, n)
    for l in level:
        u_i = u_i.with_entry(i, w(l), coords[(i, w(l))])
    b_n = u_i.inverse() @ g_n
    v, _ = factorize(w)
    vmat = ExactMatrix.permutation(dom, v)
    conj = vmat.transpose() @ b_n @ vmat
    if not top_left_block(n).contains(conj):
        raise ValueError("split failed: b_n not in v U_0 v^{-1}")
    return u_i, b_n


def project_cell(flag: Flag) -> Flag:
    """The inductive projection C_w -> C_y: uwE = u_i v u_0 y E maps to u_0 y E'.

    Returns a flag in C^{n-1}; the flag matrix must be invertible over a
    field domain.
    """
    m = flag_matrix(flag)
    w, u = bruhat_canonical_form(m)
    _, u0 = factor_unipotent(u, w)
    _, y = factorize(w)
    dom = flag.domain
    full = u0 @ ExactMatrix.permutation(dom, y)
    block = ExactMatrix.from_rows(
        dom, [row[: flag.n - 1] for row in full.rows[: flag.n - 1]]
    )
    return flag_of_matrix(block)


@dataclass(frozen=True)
class SortStep:
    """One state of the column bubble-sort: a grid snapshot plus its profile.

    Swapping rows of unequal length can move boxes (blanks count as
    +infinity), so the snapshot is a padded grid with None holes.
    """

    grid: tuple[tuple[int | None, ...], ...]
    profile: InversionProfile


def column_sort_trace(
    t: Tableau, i: int, j: int, h: HessenbergFunction
) -> list[SortStep]:
    """Trace of the three-column sorting process for columns i, j, j+1.

    For i == j only columns i and i+1 take part.  Each swap exchanges two
    vertically adjacent entries of the column being sorted together with the
    same-row entries of the other participating columns; every intermediate
    state stays h-strict in the touched columns and d(i,j) never decreases.
    The first step is the starting tableau, then one step per swap.
    """
    if not is_h_strict(t, h):
        raise ValueError("tableau is not h-strict")
    m = t.shape.num_cols
    if not (1 <= i <= j < m or (i == j and 1 <= i <= m)):
        raise ValueError(f"invalid column indices i={i}, j={j} for {m} columns")

    width = m
    grid: list[list[int | None]] = [
        list(row) + [None] * (width - len(row)) for row in t.rows
    ]

    def profile_of(g: list[list[int | None]]) -> InversionProfile:
        pos = {
            v: (ri, ci)
            for ri, row in enumerate(g, start=1)
            for ci, v in enumerate(row, start=1)
            if v is not None
        }
        return _grid_profile(_inversion_pairs(g, pos, h.values, h.n), pos, width)

    steps = [SortStep(tuple(tuple(r) for r in grid), profile_of(grid))]

    def sort_column(col: int, companions: tuple[int, ...]) -> None:
        # bubble sort `col` top-to-bottom; blanks are +infinity
        def val(r: int) -> float:
            v = grid[r][col - 1]
            return float("inf") if v is None else v

        swapped = True
        while swapped:
            swapped = False
            for r in range(len(grid) - 1):
                if val(r) > val(r + 1):
                    for c in (col,) + companions:
                        grid[r][c - 1], grid[r + 1][c - 1] = (
                            grid[r + 1][c - 1],
                            grid[r][c - 1],
                        )
                    steps.append(
                        SortStep(tuple(tuple(x) for x in grid), profile_of(grid))
                    )
                    swapped = True

    if i == j:
        extra = (i + 1,) if i + 1 <= width else ()
        sort_column(i, extra)
        if i + 1 <= width:
            sort_column(i + 1, ())
    else:
        cols = tuple(c for c in (j, j + 1) if c <= width)
        sort_column(i, cols)
        sort_column(j, (j + 1,) if j + 1 <= width else ())
        if j + 1 <= width:
            sort_column(j + 1, ())
    return steps
