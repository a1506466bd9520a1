"""Brute-force verification over small prime fields.

Counts points of Schubert cells and of the whole variety over F_q and
compares against the q^dim predictions of the paving; also checks the
generic-flag parametrization and the unipotent factorization structure by
exhaustive enumeration.

The counting is one pruned search on numpy over every Schubert cell at once.
A point uwE_ of the Schubert cell C_w is the flag of g = uW, whose column j
is u e_{w(j)}: a 1 at row w(j), free entries at the rows above it that no
earlier column uses, and 0 elsewhere.  So the first j columns of g fix
w(1..j), and the search is one tree over (w(1..j), g_1..g_j) for all w,
expanded a column per level with every node of a level in shared batches.
The flag lies in Hess(X, h) exactly when X g_j is in <g_1..g_{h(j)}> for
every j, and h(j) < j, so column j is tested as soon as it is placed.  Each
earlier g_k has a 1 at row w(k) and 0 at rows w(1..k-1), so the test is
elimination in the order w(1), w(2), ...; the last nonzero coefficient is
m_j, the lowest nonzero row of column j of g^{-1} X g.  With b the
pointwise max of the requested h's, a branch is cut as soon as some X g_j
does not reduce to 0 against g_1..g_{b(j)}, and each surviving point keeps
its m-vector, so every h is answered at once by m <= h.  The exact
Springer-fiber points that the generic-flag and factorization checks walk
come from one such search, grouped by w.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache
from math import log, log1p, log2
from typing import Iterator, Sequence

import numpy as np

from .combinatorics import (
    Composition,
    HessenbergFunction,
    Permutation,
    base_filling,
)
from .domains import BudgetExceededError, FieldSpec
from .exactla import Flag, Pairs, UnipotentPattern
from .paving import enumerate_cells


@dataclass
class CountReport:
    """Per-cell and total point counts over F_q versus the paving prediction."""

    q: int
    per_cell: dict[tuple[int, ...], int]
    total: int
    predicted: int
    match: bool
    expected_per_cell: dict[tuple[int, ...], int]

    @classmethod
    def from_counts(
        cls, q: int, per_cell: dict[tuple[int, ...], int], cells: list[tuple]
    ) -> "CountReport":
        """Compare brute-force counts per w with the q^dim of each
        (word, rows, pairs, dim) cell of `enumerate_cells`."""
        expected = {word: q**dim for word, _, _, dim in cells}
        total = sum(per_cell.values())
        predicted = sum(expected.values())
        match = total == predicted and all(
            per_cell[word] == expected.get(word, 0) for word in per_cell
        )
        return cls(q, per_cell, total, predicted, match, expected)

    def to_json(self) -> dict:
        # a word missing from either dict counts 0 there
        rows = [(w, self.per_cell.get(w, 0), self.expected_per_cell.get(w, 0))
                for w in sorted(self.per_cell.keys() | self.expected_per_cell.keys())]
        return {
            "q": self.q,
            "total": self.total,
            "predicted": self.predicted,
            "match": self.match,
            "per_cell": [
                {"w": list(w), "count": c, "expected": e} for w, c, e in rows if c or e
            ],
        }


def _check_budget(n: int, q: int, budget_bits: int) -> None:
    """Check q, and the budget against log2 |Fl_n(F_q)|, which bounds the
    points of every search.  The product of the [i]_q = (q^i - 1)/(q - 1)
    is multiplied out only until it passes 2^budget_bits, which is never
    formed; the message sums the log2 [i]_q as floats."""
    FieldSpec(q)
    total_points = 1
    for i in range(1, n + 1):
        total_points *= (q**i - 1) // (q - 1)
        # for P >= 1, P > 2^b exactly when P - 1 has more than b bits
        if (total_points - 1).bit_length() > budget_bits:
            # log2 [i]_q = i log2 q + log2(1 - q^-i) - log2(q - 1)
            bits = sum(i * log2(q) + log1p(-(q ** -i)) / log(2) for i in range(1, n + 1))
            bits -= n * log2(q - 1)
            raise BudgetExceededError(
                f"enumeration needs {bits:.1f} bits of work, budget is {budget_bits}"
            )


def _free_positions(w: Permutation) -> list[tuple[int, int]]:
    return UnipotentPattern.schubert(w).positions_sorted()


# children per numpy batch of the search; bounds its peak bytes
_CHUNK = 1 << 12

# A batch of N search nodes is an (n + 2, n, N) int8 array: at level j,
# nodes[k] for k < j is column k of g, nodes[_M] holds the m-values of those
# columns, and nodes[_ROWS] the rows w(1..j) - 1 followed by the unused rows
# in increasing order.
_M, _ROWS = -2, -1


@lru_cache(maxsize=256)
def _child_table(f: int, q: int) -> tuple[np.ndarray, ...]:
    """The children of a node with f unused rows, the same for every node.

    Returns, read-only: their values at the node's unused rows in
    increasing order, as an (f, T) array; which unused row takes the 1 of
    the new column, as (T,); and the (f, f) array whose column s moves
    unused row s in front of the others.  Unused row s takes the 1 and the
    s unused rows above it take base-q digits, the first slowest; s runs
    over 0..f-1 in order.
    """
    vals, ts = [], []
    for s in range(f):
        block = np.zeros((f, q**s), dtype=np.int8)
        block[:s] = np.arange(q**s) // q ** np.arange(s - 1, -1, -1)[:, None] % q
        block[s] = 1
        vals.append(block)
        ts.append(np.full(q**s, s, dtype=np.int8))
    rotations = np.array([[s, *range(s), *range(s + 1, f)] for s in range(f)]).T
    tables = np.concatenate(vals, axis=1), np.concatenate(ts), rotations
    for table in tables:
        table.setflags(write=False)
    return tables


def _search(x: np.ndarray, q: int, bound: Sequence[int]) -> Iterator[np.ndarray]:
    """Every flag g = uW, over every w, whose m-vector is <= bound
    pointwise, as batches of last-level nodes (see _M).

    bound(j) < j is required: column j is tested only against the columns
    before it.  Level j places column j of every node in shared batches.
    Every node of a level has the same children (_child_table), so a batch
    is a slice of parents times a slice of that table, at most _CHUNK
    children, and each parent's columns broadcast over its children.  The
    frontier is expanded depth first.  For a fixed w the points come out in
    order of their columns' free entries, column 1 slowest.
    """
    n = len(bound)
    if any(b >= j for j, b in enumerate(bound, start=1)):
        raise ValueError(f"bound must satisfy bound(j) < j, got {tuple(bound)}")
    # entries of X g_j are below n q^2 < 2^24, so float32 holds them exactly
    xq = (x % q).astype(np.float32)
    tables = [_child_table(n - j, q) for j in range(n)]

    def children(nodes: np.ndarray, j: int, lo: int, hi: int) -> np.ndarray:
        """The children lo..hi-1 of the table of level j, of every node in
        `nodes`, whose column j passes its test."""
        vals, ts, rotations = tables[j]
        vals, ts = vals[:, lo:hi], ts[lo:hi]
        rows = nodes[_ROWS]
        # X g_j for every (child, parent): the values at the parent's unused
        # rows times X's columns there, as an (n, children, parents) array
        v = (vals.T @ xq[:, rows[j:]]).astype(np.int16)
        m = np.zeros(v.shape[1:], dtype=np.int8)
        parents = np.arange(v.shape[2])
        # the reduction stays below 2 n q^2 < 2^15; x - q * (x // q) is x mod q
        for k in range(bound[j]):
            c = v[rows[k], :, parents].T
            c -= q * (c // q)
            m[c != 0] = k + 1
            v -= c * nodes[k][:, None]
        keep = ~(v - q * (v // q)).any(axis=0)
        # parent-major, so a fixed w's points keep their order
        parent, child = np.nonzero(keep.T)
        kids, t = nodes[:, :, parent], ts[child]
        kids[j, kids[_ROWS, j:], np.arange(len(t))] = vals[:, child]
        kids[_M, j] = m[child, parent]
        kids[_ROWS, j:] = np.take_along_axis(kids[_ROWS, j:], rotations[:, t], axis=0)
        return kids

    def expand(nodes: np.ndarray, j: int) -> Iterator[np.ndarray]:
        size = len(tables[j][1])
        step = max(1, _CHUNK // size)
        for start in range(0, nodes.shape[2], step):
            for lo in range(0, size, _CHUNK):
                kids = children(nodes[:, :, start:start + step], j, lo, min(lo + _CHUNK, size))
                if not kids.shape[2]:
                    continue
                if j + 1 == n:
                    yield kids
                else:
                    yield from expand(kids, j + 1)

    root = np.zeros((n + 2, n, 1), dtype=np.int8)
    root[_ROWS, :, 0] = np.arange(n)
    return expand(root, 0)


def _nodes(x: np.ndarray, q: int, bound: Sequence[int]) -> np.ndarray:
    """Every point of the search as one (n + 2, n, N) batch of nodes."""
    n = len(bound)
    return np.concatenate([np.zeros((n + 2, n, 0), dtype=np.int8),
                           *_search(x, q, bound)], axis=2)


def _row_keys(nodes: np.ndarray) -> np.ndarray:
    """Each node's rows w(1..n) - 1 as one n-byte key; byte j + 1 is w(j + 1)."""
    return np.ascontiguousarray(nodes[_ROWS].T).view(f"V{nodes.shape[1]}").ravel()


def _m_vectors(w: Permutation, x: np.ndarray, q: int, bound: Sequence[int]) -> np.ndarray:
    """For every u in U^w(F_q) whose flag uwE_ has m <= bound: the lowest
    nonzero row of each column of (uW)^{-1} X (uW) mod q, as an (N, n) array
    (0 for a zero column).

    Membership of uwE_ in Hess(X, h) is exactly m <= h.values pointwise, so
    with bound >= h the rows answer h.  A per-cell reference for the tests:
    the points of the search over every w whose rows are w's, kept batch by
    batch.
    """
    rows = np.array(w.word)[:, None] - 1
    return np.concatenate([np.zeros((0, len(bound)), dtype=np.int8), *(
        nodes[_M][:, (nodes[_ROWS] == rows).all(axis=0)].T for nodes in _search(x, q, bound)
    )])


def nilpotent_residues(lam: Composition) -> np.ndarray:
    """X_lambda as an (n, n) int64 array, the form the F_q search reads: a 1
    at (l, r) for each pair l|r horizontally adjacent in R(e)."""
    x = np.zeros((lam.n, lam.n), dtype=np.int64)
    for row in base_filling(lam).rows:
        for l, r in zip(row, row[1:]):
            x[l - 1, r - 1] = 1
    return x


def flag_point_counts(
    x: np.ndarray,
    hs: list[HessenbergFunction],
    q: int,
    budget_bits: int = 24,
) -> list[dict[tuple[int, ...], int]]:
    """For each h, the points of every Schubert cell C_w in Hess(x, h)(F_q).

    One pruned search over every w answers every h, and each batch of its
    points is tallied by w and dropped, so a cell without points has no
    entry.  The work budget is checked against the size of the whole flag
    variety.  x is an (n, n) integer array, whose entries are read mod q.
    """
    x = np.asarray(x)
    if x.ndim != 2 or x.shape[0] != x.shape[1] or not np.issubdtype(x.dtype, np.integer):
        raise ValueError(
            f"x must be a square 2-D integer array, got shape {x.shape} of {x.dtype}"
        )
    n = len(x)
    for h in hs:
        if h.n != n:
            raise ValueError(f"size mismatch: n(X)={n}, n(h)={h.n}")
    _check_budget(n, q, budget_bits)
    hv = np.array([h.values for h in hs])
    bound = hv.max(axis=0)
    tallies = [Counter() for _ in hs]
    for nodes in _search(x, q, bound):
        keys = _row_keys(nodes)
        ok = np.all(nodes[_M] <= hv[:, :, None], axis=1)
        for tally, keep in zip(tallies, ok):
            tally.update(keys[keep].tolist())
    return [{tuple(r + 1 for r in key): c for key, c in tally.items()} for tally in tallies]


def variety_point_counts(
    lam: Composition,
    hs: list[HessenbergFunction],
    q: int,
    budget_bits: int = 24,
) -> list[CountReport]:
    """CountReports of Hess(X_lambda, h) for several h at once."""
    counts = flag_point_counts(nilpotent_residues(lam), hs, q, budget_bits)
    return [
        CountReport.from_counts(q, per_cell, enumerate_cells(lam, h))
        for per_cell, h in zip(counts, hs)
    ]


def variety_point_count(
    lam: Composition,
    h: HessenbergFunction,
    q: int,
    budget_bits: int = 24,
) -> CountReport:
    """Brute-force count of |Hess(X_lambda, h)(F_q)| versus the paving."""
    return variety_point_counts(lam, [h], q, budget_bits)[0]


def springer_points(
    lam: Composition, q: int, budget_bits: int = 24
) -> dict[tuple[int, ...], np.ndarray]:
    """For each w whose cell C_w meets the Springer fiber of X_lambda, all u
    in U^w(F_q) with uwE_ in the fiber, as an (N, n, n) array of residues.

    One search over every w serves both structure checks of every cell,
    `dw_equals_cell` and `zeros_structure_check`, which take a cell's points
    from their caller.
    """
    n = lam.n
    _check_budget(n, q, budget_bits)
    nodes = _nodes(nilpotent_residues(lam), q, HessenbergFunction.springer(n).values)
    # nodes[j] is column j of g = uW, so column c of u is column w^{-1}(c) of g
    ut = np.take_along_axis(nodes[:n], np.argsort(nodes[_ROWS], axis=0)[:, None], axis=0)
    points = ut.transpose(2, 1, 0).astype(np.int64)
    words, which = np.unique(_row_keys(nodes), return_inverse=True)
    return {tuple(r + 1 for r in word): points[which == i]
            for i, word in enumerate(words.tolist())}


def _evaluate(polys: list, coords: list[tuple[int, int]], q: int) -> np.ndarray:
    """Each polynomial at every tuple over F_q of the variables `coords`, the
    first slowest, as a (q^len(coords), len(polys)) array of residues."""
    d = len(coords)
    grid = np.arange(q**d)[:, None] // q ** np.arange(d - 1, -1, -1) % q
    value_of = {var: grid[:, i] for i, var in enumerate(coords)}
    out = np.zeros((q**d, len(polys)), dtype=np.int64)
    for p, poly in enumerate(polys):
        for mono, coeff in poly.terms.items():
            c = Fraction(coeff)
            term = np.full(q**d, c.numerator * pow(c.denominator, -1, q) % q, dtype=np.int64)
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
    raises KeyError.
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
    w: Permutation, spr: Pairs, q: int, flag: Flag, points: np.ndarray
) -> bool:
    """Set equality of the generic-flag image and the brute-force cell.

    `spr` is inv_lambda(w) as a set of pairs, `flag` is
    generic_flag(w, lambda, spr) and `points` is
    springer_points(lambda, q)[w.word].  Keys the flag at every coordinate
    tuple over F_q, one per sorted pair of spr (see _image_keys), and
    compares with the points; also asserts the parametrization is
    injective (q^{d_w} distinct flags, d_w = len(spr)).
    """
    FieldSpec(q)
    coords = [(w(k), w(l)) for k, l in sorted(spr)]
    dw_keys = _image_keys(w, coords, q, flag)
    if dw_keys is None or len(dw_keys) != q ** len(spr):
        return False
    # each point u is already in U^w, so by uniqueness it is its own key
    free = np.array(_free_positions(w), dtype=np.intp).reshape(-1, 2) - 1
    entries = points[:, free[:, 0], free[:, 1]]
    return dw_keys == {(w.word,) + key for key in map(tuple, entries.tolist())}


def zeros_structure_check(
    w: Permutation, lam: Composition, q: int, points: np.ndarray
) -> bool:
    """For every Springer-fiber point u of C_w (`points`, residues mod q from
    springer_points), the U_i factor of uw = u_i v u_0 y vanishes outside
    the columns that end a row of the base filling.

    Row i = w(n) of u_i is minus row n of (uW)^{-1}, which is row i of
    u^{-1}; as u is unitriangular, that row r solves r u = e_i mod q column
    by column, for every point at once.
    """
    n = w.n
    i = w(n)
    end_cols = {row[-1] for row in base_filling(lam).rows}
    watched = [j - 1 for j in range(i + 1, n + 1) if j not in end_cols]
    r = np.zeros((len(points), n), dtype=np.int64)
    r[:, i - 1] = 1
    for j in range(i, n):
        r[:, j] = -(r[:, i - 1:j] * points[:, i - 1:j, j]).sum(axis=1) % q
    return not r[:, watched].any()


def _inverse_mod(a: np.ndarray, q: int) -> np.ndarray | None:
    """a^{-1} mod q by Gauss-Jordan elimination on residues, or None when a
    is singular mod q."""
    n = len(a)
    aug = np.concatenate([a % q, np.eye(n, dtype=np.int64)], axis=1)
    for col in range(n):
        below = np.flatnonzero(aug[col:, col])
        if not len(below):
            return None
        piv = col + below[0]
        aug[[col, piv]] = aug[[piv, col]]
        aug[col] = aug[col] * pow(int(aug[col, col]), -1, q) % q
        factors = aug[:, col].copy()
        factors[col] = 0
        aug = (aug - np.outer(factors, aug[col])) % q
    return aug[:, n:]


def _random_gl(n: int, q: int, rng: np.random.Generator) -> tuple[np.ndarray, np.ndarray]:
    """A uniformly random g in GL_n(F_q), by rejection sampling, and g^{-1}
    mod q, as int64 arrays."""
    while True:
        g = rng.integers(0, q, size=(n, n), dtype=np.int64)
        inv = _inverse_mod(g, q)
        if inv is not None:
            return g, inv


def conjugation_invariance(
    lam: Composition,
    h: HessenbergFunction,
    q: int,
    baseline: int,
    trials: int,
    seed: int = 0,
    budget_bits: int = 24,
) -> bool:
    """Point counts of Hess(g^{-1} X g, h) equal `baseline`, the count of
    Hess(X, h)(F_q), for random g."""
    if lam.n > 4:
        raise ValueError("full-variety conjugation check is limited to n <= 4")
    FieldSpec(q)
    x = nilpotent_residues(lam)
    rng = np.random.default_rng(seed)
    for _ in range(trials):
        g, inv = _random_gl(lam.n, q, rng)
        if sum(flag_point_counts(inv @ x @ g % q, [h], q, budget_bits)[0].values()) != baseline:
            return False
    return True
