"""The paper's proof steps, sweeps and small evaluators that only the tests use.

The inductive steps of the paving argument (the U_i b_n split of g_n, the
projection C_w -> C_y through w = v*y, the deletion of the box labeled n
and the column bubble-sort behind the profile inequality), the sweeps over
partitions and Hessenberg functions, and the evaluators the tests compare
the package against, among them the Poincare level loop on ordered states,
the line recursion for |B_mu(F_q)|, the flag-free count of
|Hess(X_mu, h)(F_q)| over nilpotent orbits and the dict-per-cell `cells`
JSON.  No command runs any of them, so they live here and not in the
package.  (The module is not named `reference`, which is perfbench's
reference loop.)
"""

from __future__ import annotations

import itertools
import json
from collections import Counter
from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache
from typing import AbstractSet, Iterator, Mapping, Sequence

import hesspave
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
from hesspave.domains import POLYNOMIALS, Domain, Poly
from hesspave.exactla import (
    ExactMatrix,
    Flag,
    UnipotentPattern,
    bk_entries,
    bruhat_canonical_form,
    factor_unipotent,
    generic_coordinates,
)
from hesspave.paving import (
    PoincareData,
    _grid_profile,
    _inversion_pairs,
    enumerate_cells,
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


def compositions(n: int) -> list[tuple[int, ...]]:
    """Every composition of n with positive parts (each partition permuted)."""
    return sorted({c for p in partitions(n) for c in itertools.permutations(p)})


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


def dual_hessenberg(h: HessenbergFunction) -> HessenbergFunction:
    """h*, with h*(j) = #{i : h(n+1-i) >= n+1-j}.

    Sending a flag to its annihilators, V_i -> V_{n-i}^perp, maps
    Hess(X, h) onto Hess(X^T, h*): the region {(i, j) : i <= h(j)} of H(h)
    reflected across the antidiagonal.  X^T has the Jordan type of X, so
    Hess(X_lambda, h) and Hess(X_lambda, h*) have one Poincare polynomial.
    """
    n = h.n
    return HessenbergFunction(
        [sum(1 for i in range(1, n + 1) if h(n + 1 - i) >= n + 1 - j) for j in range(1, n + 1)]
    )


def h_leq(h1: HessenbergFunction, h2: HessenbergFunction) -> bool:
    """Pointwise partial order h1(i) <= h2(i)."""
    if h1.n != h2.n:
        raise ValueError(f"size mismatch: {h1.n} vs {h2.n}")
    return all(a <= b for a, b in zip(h1.values, h2.values))


def identity_permutation(n: int) -> Permutation:
    return Permutation(range(1, n + 1))


def compose(v: Permutation, y: Permutation) -> Permutation:
    """The composition v*y, with (v*y)(i) = v(y(i))."""
    return Permutation(tuple(v(j) for j in y.word))


def length(w: Permutation) -> int:
    """l(w), the number of inversions of w."""
    return len(inversions(w))


def inv_level(spr: AbstractSet[tuple[int, int]], k: int) -> tuple[int, ...]:
    """inv^k of a set of pairs (k, l): the l that pair with k, sorted."""
    return tuple(sorted(l for kk, l in spr if kk == k))


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


def row_placements(
    m: int,
    rem: tuple[int, ...],
    bounds: tuple[int, ...],
    hv: Sequence[int],
    nrows: int,
) -> Iterator[tuple[int, tuple[int, ...], tuple[int, ...], int]]:
    """The ways to place m, the largest entry left, at the end of a row,
    one row at a time: the oracle for the grouped `paving._placements`.

    A state is the remaining row lengths `rem` plus a bound b_i on each
    row's last entry (h of the placed right neighbor, n for a full row).
    Row i may hold m iff m <= b_i, and then m forms a Hessenberg inversion
    with the last entry of every other row j with b_j >= m whose last box
    lies in a column right of m's box, or in the same column above it.
    Child bounds are clamped to m-1; an empty row's bound is 0.

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


def ordered_poincare(lam: Composition, h: HessenbergFunction) -> PoincareData:
    """The Poincare level loop on ordered states, the oracle for `paving.poincare`.

    States are keyed by the ordered (rem, bounds) tuples, with one list of
    coefficients each, and expanded one row at a time by `row_placements`,
    so it relies on no invariance under reordering the rows of a state and
    shares no code with the grouped step.  It never reads R_0, so an empty
    variety runs every level.  It looks `row_placements` up in this module
    on each call, so a test that counts those calls sees each state it
    expands.
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
            for _, child_rem, child_bounds, gain in row_placements(
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


def _rank_mod(rows: list[list[int]], q: int) -> int:
    """The rank over F_q, q prime, of a matrix of residues."""
    rows = [r for r in rows if any(r)]
    rank = 0
    for c in range(len(rows[0]) if rows else 0):
        piv = next((i for i in range(rank, len(rows)) if rows[i][c]), None)
        if piv is None:
            continue
        rows[rank], rows[piv] = rows[piv], rows[rank]
        top = rows[rank]
        inv = pow(top[c], -1, q)
        for i in range(rank + 1, len(rows)):
            f = rows[i][c] * inv % q
            if f:
                rows[i] = [(a - f * b) % q for a, b in zip(rows[i], top)]
        rank += 1
    return rank


def _jordan_type(x: list[list[int]], q: int) -> tuple[int, ...]:
    """The Jordan type of a nilpotent X over F_q, from the ranks of X^k:
    rank X^(k-1) - rank X^k parts are at least k."""
    n = len(x)
    ranks = [n]
    power = x
    while ranks[-1]:
        ranks.append(_rank_mod(power, q))
        power = [
            [sum(a * b for a, b in zip(row, col)) % q for col in zip(*x)] for row in power
        ]
    at_least = [a - b for a, b in zip(ranks, ranks[1:])]
    return tuple(sum(1 for c in at_least if c >= i) for i in range(1, at_least[0] + 1))


def orbit_point_counts(h: HessenbergFunction, q: int) -> dict[tuple[int, ...], Fraction]:
    """|Hess(X_mu, h)(F_q)| for every partition mu of n, with no flag in sight.

    Count the pairs (X, V) with X in the nilpotent orbit O_mu and V in
    Hess(X, h) two ways.  GL_n(F_q) moves every flag to the standard one,
    which lies in Hess(X, h) exactly when X lies in
    H(h) = {X : X_ij = 0 for i > h(j)}; so
    |Hess(X_mu, h)| = |Fl_n| |O_mu cap H(h)| / |O_mu|.  One pass over
    H(h)(F_q) bins each X by its Jordan type, and
    |O_mu| = |GL_n(F_q)| / a_mu(q), a_mu(q) = q^(|mu| + 2n(mu)) prod_i
    phi_(m_i)(1/q), the order of the centralizer, with
    phi_m(t) = (1 - t)...(1 - t^m) and n(mu) = sum (i-1) mu_i.  A count
    that is not an integer comes back as the Fraction it is.
    """
    n = h.n
    free = [(i, j) for j in range(n) for i in range(h(j + 1))]
    types: Counter[tuple[int, ...]] = Counter()
    for values in itertools.product(range(q), repeat=len(free)):
        x = [[0] * n for _ in range(n)]
        for (i, j), v in zip(free, values):
            x[i][j] = v
        types[_jordan_type(x, q)] += 1
    flags = 1
    group = 1
    for i in range(n):
        flags *= (q ** (i + 1) - 1) // (q - 1)
        group *= q**n - q**i
    counts = {}
    for mu in partitions(n):
        centralizer = Fraction(q ** (n + 2 * sum(i * p for i, p in enumerate(mu))))
        for m in Counter(mu).values():
            for j in range(1, m + 1):
                centralizer *= 1 - Fraction(1, q**j)
        counts[mu] = flags * types[mu] * centralizer / group
    return counts


def cells_json(lam: Composition, h: HessenbergFunction, h_arg: str) -> str:
    """`hesspave cells --format json` for (lambda, h) as one dict per cell
    encoded by json.dumps: the canonical form the CLI's writer must equal
    byte for byte.  `h_arg` is the --h text, which the header echoes when it
    is "springer"."""
    cells = enumerate_cells(lam, h)
    payload = {
        "lambda": list(lam.parts),
        "h": "springer" if h_arg == "springer" else list(h.values),
        "command": "cells",
        "version": hesspave.__version__,
        "cells": [
            {"w": word, "tableau": rows, "inversions": pairs, "dim": dim}
            for word, rows, pairs, dim in cells
        ],
        "count": len(cells),
    }
    return json.dumps(payload, sort_keys=True, separators=(",", ":")) + "\n"


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


@dataclass(frozen=True)
class RationalDomain(Domain):
    """The field Q, on Fraction scalars."""

    kind: str = "Rational"

    def zero(self):
        return Fraction(0)

    def one(self):
        return Fraction(1)

    def is_field(self) -> bool:
        return True

    def div(self, a, b):
        return Fraction(a) / Fraction(b)


RATIONALS = RationalDomain()


def subs_zero(poly: Poly, zeros: set[tuple[int, int]]) -> Poly:
    """`poly` with the listed variables set to zero."""
    return Poly({
        m: c for m, c in poly.terms.items() if not any(var in zeros for var, _ in m)
    })


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


def matrix_difference(a: ExactMatrix, b: ExactMatrix) -> ExactMatrix:
    """The entrywise difference a - b."""
    return ExactMatrix(a.domain, tuple(
        tuple(x - y for x, y in zip(ra, rb)) for ra, rb in zip(a.rows, b.rows)
    ))


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
    prod = ExactMatrix.identity(POLYNOMIALS, w.n)
    stages = [Flag(POLYNOMIALS, tuple(prod.column(v) for v in w.word))]
    for k in range(2, w.n + 1):
        prod = prod.add_row_multiples(
            bk_entries(w, lam, spr, k, generic_coordinates(w, spr, k)))
        stages.append(Flag(POLYNOMIALS, tuple(prod.column(v) for v in w.word)))
    return stages


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
    level = inv_level(spr, n)
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
    profile: Counter[tuple[int, int]]


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

    def profile_of(g: list[list[int | None]]) -> Counter[tuple[int, int]]:
        pos = {
            v: (ri, ci)
            for ri, row in enumerate(g, start=1)
            for ci, v in enumerate(row, start=1)
            if v is not None
        }
        return _grid_profile(_inversion_pairs(g, pos, h.values, h.n), pos)

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
