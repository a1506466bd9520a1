"""Brute-force verification over small prime fields.

Counts points of Schubert cells and of the whole variety over F_q and
compares against the q^dim predictions of the paving; also checks the
generic-flag parametrization and the unipotent factorization structure by
exhaustive enumeration.

The counting is a pruned search on numpy, one per w.  A point uwE_ of the
Schubert cell C_w is the flag of g = uW, whose column j is u e_{w(j)}: a 1 at
row w(j), free entries at the rows above it that no earlier column uses, and
0 elsewhere.  The flag lies in Hess(X, h) exactly when X g_j is in
<g_1..g_{h(j)}> for every j, and h(j) < j, so column j is tested as soon as
it is placed.  Each earlier g_k has a 1 at row w(k) and 0 at rows
w(1..k-1), so the test is elimination in the order w(1), w(2), ...; the last
nonzero coefficient is m_j, the lowest nonzero row of column j of
g^{-1} X g.  With b the pointwise max of the requested h's, a branch is cut
as soon as some X g_j does not reduce to 0 against g_1..g_{b(j)}, and each
surviving point keeps its m-vector, so every h is answered at once by
m <= h.  The exact Springer-fiber points that the generic-flag and
factorization checks walk come from the same search.
"""

from __future__ import annotations

import itertools
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, field
from fractions import Fraction
from math import log2
from typing import Sequence

import numpy as np

from .combinatorics import (
    Composition,
    HessenbergFunction,
    Permutation,
    base_filling,
)
from .domains import PrimeFieldDomain
from .exactla import (
    ExactMatrix,
    Flag,
    UnipotentPattern,
    conjugate,
    nilpotent_matrix,
)
from .paving import CellDescriptor, enumerate_cells, springer_inversions


class BudgetExceededError(Exception):
    """Raised when an enumeration would exceed the work budget."""


@dataclass(frozen=True)
class FieldSpec:
    """A prime field size small enough for exhaustive enumeration."""

    q: int

    def __post_init__(self):
        if self.q not in (2, 3, 5, 7, 11, 13):
            raise ValueError(f"q must be a prime <= 13, got {self.q}")


@dataclass
class CountReport:
    """Per-cell and total point counts over F_q versus the paving prediction."""

    q: int
    per_cell: dict[tuple[int, ...], int]
    total: int
    predicted: int
    match: bool
    expected_per_cell: dict[tuple[int, ...], int] = field(default_factory=dict)

    @classmethod
    def from_counts(
        cls, q: int, per_cell: dict[tuple[int, ...], int], cells: list[CellDescriptor]
    ) -> "CountReport":
        """Compare brute-force counts per w with the q^dim of each paving cell."""
        expected = {c.w.word: q**c.dim for c in cells}
        total = sum(per_cell.values())
        predicted = sum(expected.values())
        match = total == predicted and all(
            per_cell[word] == expected.get(word, 0) for word in per_cell
        )
        return cls(q, per_cell, total, predicted, match, expected)

    def to_json(self) -> dict:
        return {
            "q": self.q,
            "total": self.total,
            "predicted": self.predicted,
            "match": self.match,
            "per_cell": [
                {
                    "w": list(w),
                    "count": c,
                    "expected": self.expected_per_cell.get(w, 0),
                }
                for w, c in sorted(self.per_cell.items())
                if c or self.expected_per_cell.get(w, 0)
            ],
        }


def _check_budget(bits: float, budget_bits: int) -> None:
    if bits > budget_bits:
        raise BudgetExceededError(
            f"enumeration needs {bits:.1f} bits of work, budget is {budget_bits}"
        )


def _free_positions(w: Permutation) -> list[tuple[int, int]]:
    return UnipotentPattern.schubert(w).positions_sorted()


# children per numpy batch of the search; bounds its peak bytes
_CHUNK = 1 << 13


def _extend(
    g: np.ndarray, m: np.ndarray, j: int, rows: list[int], free: list[int],
    xt: np.ndarray, q: int, bound: int, start: int, stop: int,
) -> tuple[np.ndarray, np.ndarray]:
    """Children start..stop-1 of the frontier (g, m) whose column j + 1
    passes its test, as (g, m) with that column and its m-value filled in.

    Child i takes parent i // q^f and writes the base-q digits of i % q^f at
    the free rows of column j + 1, the first free row slowest.  The column
    passes when X g_{j+1} reduces to 0 against g_1..g_bound.
    """
    idx = np.arange(start, stop)
    parent = idx // q ** len(free)
    g, m = g[parent], m[parent]
    col = g[:, :, j]
    col[:, rows[j]] = 1
    col[:, free] = idx[:, None] // q ** np.arange(len(free) - 1, -1, -1) % q
    v = col @ xt % q
    mj = m[:, j]
    for k in range(bound):
        c = v[:, rows[k], None]
        mj[c[:, 0] != 0] = k + 1
        v = (v - c * g[:, :, k]) % q
    keep = ~v.any(axis=1)
    return g[keep], m[keep]


def _search(
    w: Permutation, x: np.ndarray, q: int, bound: Sequence[int]
) -> tuple[np.ndarray, np.ndarray]:
    """Every g = uW, u in U^w(F_q), whose flag has m <= bound pointwise:
    the matrices g as an (N, n, n) array and their m-vectors as (N, n).

    bound(j) < j is required: column j is tested only against the columns
    before it.  The frontier is expanded depth first, at most _CHUNK
    children at a time; points come out in order of their columns' free
    entries, column 1 slowest.
    """
    n = w.n
    if any(b >= j for j, b in enumerate(bound, start=1)):
        raise ValueError(f"bound must satisfy bound(j) < j, got {tuple(bound)}")
    rows = [w(j) - 1 for j in range(1, n + 1)]
    xt = (x % q).T
    # g holds entries mod q <= 13, so int8 keeps the frontier small
    leaves = [(np.zeros((0, n, n), dtype=np.int8), np.zeros((0, n), dtype=np.int64))]

    def place(j: int, g: np.ndarray, m: np.ndarray) -> None:
        if j == n:
            leaves.append((g, m))
            return
        free = [a for a in range(rows[j]) if a not in rows[:j]]
        total = len(g) * q ** len(free)
        for start in range(0, total, _CHUNK):
            stop = min(start + _CHUNK, total)
            place(j + 1, *_extend(g, m, j, rows, free, xt, q, bound[j], start, stop))

    place(0, np.zeros((1, n, n), dtype=np.int8), np.zeros((1, n), dtype=np.int64))
    return (np.concatenate([g for g, _ in leaves]),
            np.concatenate([m for _, m in leaves]))


def _m_vectors(w: Permutation, x: np.ndarray, q: int, bound: Sequence[int]) -> np.ndarray:
    """For every u in U^w(F_q) whose flag uwE_ has m <= bound: the lowest
    nonzero row of each column of (uW)^{-1} X (uW) mod q, as an (N, n) array
    (0 for a zero column).

    Membership of uwE_ in Hess(X, h) is exactly m <= h.values pointwise, so
    with bound >= h the rows answer h.
    """
    return _search(w, x, q, bound)[1]


def cell_point_count(
    w: Permutation,
    lam: Composition,
    h: HessenbergFunction,
    q: int,
    budget_bits: int = 24,
) -> int:
    """|{u in U^w(F_q) : uwE_ in Hess(X_lambda, h)}| by exhaustive search."""
    FieldSpec(q)
    _check_budget(w.length() * log2(q), budget_bits)
    x = _np_matrix(nilpotent_matrix(lam))
    return len(_m_vectors(w, x, q, h.values))


def _np_matrix(m: ExactMatrix) -> np.ndarray:
    return np.array([[int(x) for x in row] for row in m.rows], dtype=np.int64)


def flag_point_counts(
    x: ExactMatrix,
    hs: list[HessenbergFunction],
    q: int,
    budget_bits: int = 24,
    workers: int = 1,
) -> list[dict[tuple[int, ...], int]]:
    """For each h, the points of every Schubert cell C_w in Hess(x, h)(F_q).

    One pruned search per cell answers every h; the work budget is checked
    against the size of the whole flag variety.  The entries of x are read
    as integers mod q.
    """
    FieldSpec(q)
    n = x.n
    total_points = 1
    for i in range(1, n + 1):
        total_points *= (q**i - 1) // (q - 1)
    _check_budget(log2(total_points), budget_bits)
    xq = _np_matrix(x)
    hv = np.array([h.values for h in hs])
    bound = hv.max(axis=0)
    perms = sorted(itertools.permutations(range(1, n + 1)))

    def count_one(word: tuple[int, ...]) -> tuple[tuple[int, ...], list[int]]:
        m = _m_vectors(Permutation(word), xq, q, bound)
        ok = np.all(m[:, None, :] <= hv[None, :, :], axis=2)
        return word, [int(c) for c in ok.sum(axis=0)]

    if workers > 1:
        with ThreadPoolExecutor(max_workers=workers) as pool:
            results = list(pool.map(count_one, perms))
    else:
        results = [count_one(word) for word in perms]
    return [{word: counts[hi] for word, counts in results} for hi in range(len(hs))]


def variety_point_counts(
    lam: Composition,
    hs: list[HessenbergFunction],
    q: int,
    budget_bits: int = 24,
    workers: int = 1,
) -> list[CountReport]:
    """CountReports of Hess(X_lambda, h) for several h at once."""
    counts = flag_point_counts(nilpotent_matrix(lam), hs, q, budget_bits, workers)
    return [
        CountReport.from_counts(q, per_cell, enumerate_cells(lam, h))
        for per_cell, h in zip(counts, hs)
    ]


def variety_point_count(
    lam: Composition,
    h: HessenbergFunction,
    q: int,
    budget_bits: int = 24,
    workers: int = 1,
) -> CountReport:
    """Brute-force count of |Hess(X_lambda, h)(F_q)| versus the paving."""
    return variety_point_counts(lam, [h], q, budget_bits, workers)[0]


def springer_points(
    w: Permutation, lam: Composition, q: int, budget_bits: int = 24
) -> list[ExactMatrix]:
    """All u in U^w(F_q) with uwE_ in the Springer fiber of X_lambda, exact.

    One search serves both structure checks, `dw_equals_cell` and
    `zeros_structure_check`, which take its points from their caller.
    """
    FieldSpec(q)
    _check_budget(w.length() * log2(q), budget_bits)
    dom = PrimeFieldDomain(q)
    n = w.n
    x = _np_matrix(nilpotent_matrix(lam))
    g, _ = _search(w, x, q, HessenbergFunction.springer(n).values)
    # column j of g is u e_{w(j)}
    u = g[:, :, [j - 1 for j in w.inverse().word]]
    return [
        ExactMatrix.from_rows(dom, [[dom.from_int(v) for v in row] for row in point])
        for point in u.tolist()
    ]


def _evaluate(polys: list, coords: list[tuple[int, int]], q: int) -> np.ndarray:
    """Each polynomial at every tuple over F_q of the variables `coords`, the
    first slowest, as a (q^len(coords), len(polys)) array of residues."""
    dom = PrimeFieldDomain(q)
    d = len(coords)
    grid = np.arange(q**d)[:, None] // q ** np.arange(d - 1, -1, -1) % q
    value_of = {var: grid[:, i] for i, var in enumerate(coords)}
    out = np.zeros((q**d, len(polys)), dtype=np.int64)
    for p, poly in enumerate(polys):
        for mono, coeff in poly.terms.items():
            term = np.full(q**d, dom.from_fraction(Fraction(coeff)).v, dtype=np.int64)
            for var, e in mono:
                term = term * value_of[var] ** e % q
            out[:, p] += term
    return out % q


def _image_keys(
    w: Permutation, coords: list[tuple[int, int]], q: int, flag: Flag
) -> set[tuple] | None:
    """The Bruhat keys (w.word, then u's entries at the free positions of
    U^w) of the flag at every tuple over F_q of its coordinates `coords`, or
    None when the flag's matrix does not reduce to u W over the polynomials.

    The matrix is reduced once, symbolically, by the column sweep of
    bruhat_canonical_form: each pivot must be the constant 1 at row w(j) with
    only zero entries below it, so no step divides.  Evaluation Z[x] -> F_q
    is a ring homomorphism, so the evaluated free entries are the keys that
    canonicalizing each evaluated flag gives.  A variable outside `coords`
    raises KeyError, as in Poly.substitute.
    """
    unknown = set().union(*(e.variables() for col in flag.columns for e in col)) - set(coords)
    if unknown:
        raise KeyError(f"no value for variable x{min(unknown)}")
    n = w.n
    cols = [list(col) for col in flag.columns]
    for j in range(n):
        r = w(j + 1) - 1
        if cols[j][r] != 1 or any(cols[j][r + 1:]):
            return None
        for j2 in range(j + 1, n):
            c = cols[j2][r]
            if c:
                cols[j2] = [x - c * y if y else x for x, y in zip(cols[j2], cols[j])]
    winv = w.inverse()
    free = [cols[winv(b) - 1][a - 1] for a, b in _free_positions(w)]
    return {(w.word,) + key for key in map(tuple, _evaluate(free, coords, q).tolist())}


def dw_equals_cell(
    w: Permutation,
    lam: Composition,
    q: int,
    flag: Flag,
    points: list[ExactMatrix],
    budget_bits: int = 24,
) -> bool:
    """Set equality of the generic-flag image and the brute-force cell.

    `flag` is generic_flag(w, lambda) and `points` is springer_points(w,
    lambda, q).  Keys the flag at every coordinate tuple over F_q (see
    _image_keys) and compares with the points; also asserts the
    parametrization is injective (q^{d_w} distinct flags).
    """
    FieldSpec(q)
    spr = springer_inversions(w, lam)
    _check_budget(len(spr) * log2(q), budget_bits)
    coords = [(w(k), w(l)) for k, l in spr.sorted_pairs()]
    dw_keys = _image_keys(w, coords, q, flag)
    if dw_keys is None or len(dw_keys) != q ** len(spr):
        return False
    # each point u is already in U^w, so by uniqueness it is its own key
    free = _free_positions(w)
    cell_keys = {
        (w.word,) + tuple(u.entry(a, b).v for a, b in free)
        for u in points
    }
    return dw_keys == cell_keys


def zeros_structure_check(
    w: Permutation, lam: Composition, points: list[ExactMatrix]
) -> bool:
    """For every Springer-fiber point u of C_w (`points`, from springer_points),
    the U_i factor of uw = u_i v u_0 y vanishes outside the columns that end
    a row of the base filling.

    Row i = w(n) of u_i is minus row n of (uW)^{-1}, which is row i of
    u^{-1}; as u is unitriangular, that row r solves r u = e_i column by
    column.
    """
    n = w.n
    i = w(n)
    end_cols = {row[-1] for row in base_filling(lam).rows}
    watched = [j - 1 for j in range(i + 1, n + 1) if j not in end_cols]
    for u in points:
        r = [u.domain.zero()] * n
        r[i - 1] = u.domain.one()
        for j in range(i, n):
            r[j] = -sum((r[k] * u.rows[k][j] for k in range(i - 1, j)), u.domain.zero())
        if any(r[j] for j in watched):
            return False
    return True


def _random_gl(n: int, q: int, rng: np.random.Generator) -> ExactMatrix:
    """A uniformly random element of GL_n(F_q), by rejection sampling."""
    dom = PrimeFieldDomain(q)
    while True:
        draw = rng.integers(0, q, size=(n, n), dtype=np.int64).tolist()
        g = ExactMatrix.from_rows(dom, [[dom.from_int(v) for v in row] for row in draw])
        try:
            g.inverse()
        except ValueError:
            continue
        return g


def conjugation_invariance(
    lam: Composition,
    h: HessenbergFunction,
    q: int,
    baseline: int,
    trials: int = 10,
    seed: int = 0,
    budget_bits: int = 24,
) -> bool:
    """Point counts of Hess(g^{-1} X g, h) equal `baseline`, the count of
    Hess(X, h)(F_q), for random g."""
    if lam.n > 4:
        raise ValueError("full-variety conjugation check is limited to n <= 4")
    FieldSpec(q)
    x = nilpotent_matrix(lam, PrimeFieldDomain(q))
    rng = np.random.default_rng(seed)
    for _ in range(trials):
        xc = conjugate(_random_gl(lam.n, q, rng), x)
        if sum(flag_point_counts(xc, [h], q, budget_bits)[0].values()) != baseline:
            return False
    return True
