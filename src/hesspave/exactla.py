"""Exact matrices, the nilpotent matrix X_lambda, B_k(w) generators, generic
flags with symbolic coordinates, and Bruhat/unipotent factorizations.

All arithmetic is exact over a pluggable scalar domain (the commands use
multivariate polynomials).  Matrices, vectors, and flags are immutable
values.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import cached_property, lru_cache
from typing import AbstractSet, Mapping, Sequence

from .combinatorics import (
    Composition,
    HessenbergFunction,
    Permutation,
    Tableau,
    base_filling,
    factorize,
    is_row_strict,
    tableau_of,
)
from .domains import POLYNOMIALS, Domain, Poly
from .paving import springer_inversions

Vector = tuple
# a set of pairs (k, l), k > l, such as inv_lambda(w) or inv_{lambda,h}(w)
Pairs = AbstractSet[tuple[int, int]]


@dataclass(frozen=True)
class ExactMatrix:
    """Immutable n x n matrix over an exact scalar domain."""

    domain: Domain
    rows: tuple[tuple, ...]

    @property
    def n(self) -> int:
        return len(self.rows)

    @classmethod
    def from_rows(cls, domain: Domain, rows: Sequence[Sequence]) -> "ExactMatrix":
        return cls(domain, tuple(tuple(r) for r in rows))

    @classmethod
    @lru_cache(maxsize=None)
    def identity(cls, domain: Domain, n: int) -> "ExactMatrix":
        """The n x n identity, built once per (domain, n) and shared."""
        one, zero = domain.one(), domain.zero()
        return cls(domain, tuple(
            tuple(one if i == j else zero for j in range(n)) for i in range(n)
        ))

    @classmethod
    def zero(cls, domain: Domain, n: int) -> "ExactMatrix":
        z = domain.zero()
        return cls(domain, tuple(tuple(z for _ in range(n)) for _ in range(n)))

    @classmethod
    def permutation(cls, domain: Domain, w: Permutation) -> "ExactMatrix":
        """Matrix W with W e_j = e_{w(j)}, i.e. W[w(j), j] = 1."""
        one, zero = domain.one(), domain.zero()
        n = w.n
        return cls(domain, tuple(
            tuple(one if w(j + 1) == i + 1 else zero for j in range(n))
            for i in range(n)
        ))

    def with_entry(self, i: int, j: int, value) -> "ExactMatrix":
        rows = [list(r) for r in self.rows]
        rows[i - 1][j - 1] = value
        return ExactMatrix.from_rows(self.domain, rows)

    def __matmul__(self, other: "ExactMatrix") -> "ExactMatrix":
        if self.domain != other.domain:
            raise ValueError("domain mismatch")
        n = self.n
        ocols = list(zip(*other.rows))
        zero = self.domain.zero()
        rows = []
        for r in self.rows:
            row = []
            for c in ocols:
                acc = zero
                for a, b in zip(r, c):
                    if a and b:
                        acc = acc + a * b
                row.append(acc)
            rows.append(tuple(row))
        return ExactMatrix(self.domain, tuple(rows))

    def add_row_multiples(self, entries: Sequence[tuple[int, int, object]]) -> "ExactMatrix":
        """(I + sum of x E_{tgt,src}) @ self for the 1-based triples (tgt, src, x).

        Row operations: row tgt gains x times row src, every row read from
        self, so no dense product is formed.
        """
        rows = list(self.rows)
        for tgt, src, x in entries:
            rows[tgt - 1] = tuple(
                a + x * b if b else a for a, b in zip(rows[tgt - 1], self.rows[src - 1])
            )
        return ExactMatrix(self.domain, tuple(rows))

    @cached_property
    def _row_support(self) -> tuple[tuple[tuple[int, object], ...], ...]:
        """Each row's nonzero entries as (0-based column, value) pairs."""
        return tuple(tuple((j, a) for j, a in enumerate(r) if a) for r in self.rows)

    def apply(self, v: Vector) -> Vector:
        zero = self.domain.zero()
        out = []
        for support in self._row_support:
            acc = zero
            for j, a in support:
                x = v[j]
                if x:
                    acc = acc + a * x
            out.append(acc)
        return tuple(out)

    def column(self, j: int) -> Vector:
        """1-based column."""
        return tuple(r[j - 1] for r in self.rows)

    def transpose(self) -> "ExactMatrix":
        return ExactMatrix(self.domain, tuple(zip(*self.rows)))

    def is_upper_unitriangular(self) -> bool:
        one = self.domain.one()
        for i in range(self.n):
            if self.rows[i][i] != one:
                return False
            if any(self.rows[i][j] for j in range(i)):
                return False
        return True

    def inverse(self) -> "ExactMatrix":
        """Gauss-Jordan inverse.

        Over a domain that is not a field every pivot must be 1, as it is for
        unitriangular matrices; any other pivot raises ValueError.
        """
        n = self.n
        dom = self.domain
        one = dom.one()
        aug = [list(r) + list(ir) for r, ir in zip(self.rows, ExactMatrix.identity(dom, n).rows)]
        for col in range(n):
            piv = next((r for r in range(col, n) if aug[r][col]), None)
            if piv is None:
                raise ValueError("matrix is singular")
            aug[col], aug[piv] = aug[piv], aug[col]
            if aug[col][col] != one:
                if not dom.is_field():
                    raise ValueError(f"pivot is not 1 and {dom.kind} is not a field")
                inv_p = dom.div(one, aug[col][col])
                aug[col] = [x * inv_p for x in aug[col]]
            for r in range(n):
                if r != col and aug[r][col]:
                    c = aug[r][col]
                    aug[r] = [x - c * y for x, y in zip(aug[r], aug[col])]
        return ExactMatrix.from_rows(dom, [row[n:] for row in aug])


def nilpotent_matrix(lam: Composition, domain: Domain) -> ExactMatrix:
    """X_lambda: one at (l, r) for each pair l|r horizontally adjacent in R(e).

    Nilpotent, with Jordan type the partition of lambda.
    """
    n = lam.n
    zero, one = domain.zero(), domain.one()
    rows = [[zero] * n for _ in range(n)]
    for row in base_filling(lam).rows:
        for l, r in zip(row, row[1:]):
            rows[l - 1][r - 1] = one
    return ExactMatrix.from_rows(domain, rows)


@dataclass(frozen=True)
class UnipotentPattern:
    """Allowed off-diagonal positions of a unipotent subgroup of U."""

    n: int
    free_positions: frozenset[tuple[int, int]]

    def __post_init__(self):
        if any(not (1 <= a < b <= self.n) for a, b in self.free_positions):
            raise ValueError("free positions must satisfy 1 <= row < col <= n")

    @classmethod
    def schubert(cls, w: Permutation) -> "UnipotentPattern":
        """U^w = U cap wUw^{-1}; (a,b) free iff a < b and w^{-1}(a) > w^{-1}(b).

        The free positions biject with inv(w), so |free| = l(w).
        """
        winv = w.inverse()
        free = frozenset(
            (a, b)
            for a in range(1, w.n + 1)
            for b in range(a + 1, w.n + 1)
            if winv(a) > winv(b)
        )
        return cls(w.n, free)

    def contains(self, m: ExactMatrix) -> bool:
        if m.n != self.n or not m.is_upper_unitriangular():
            return False
        return all(
            (i + 1, j + 1) in self.free_positions
            for i in range(m.n)
            for j in range(i + 1, m.n)
            if m.rows[i][j]
        )

    def positions_sorted(self) -> list[tuple[int, int]]:
        return sorted(self.free_positions)


def _level(spr: Pairs, k: int) -> list[int]:
    """inv^k: the l with (k, l) in spr, sorted."""
    return sorted([l for kk, l in spr if kk == k])


def _bk_level(
    w: Permutation,
    base: Tableau,
    k: int,
    level: Sequence[int],
    coords: Mapping[tuple[int, int], object],
) -> list[tuple[int, int, object]]:
    """The triples of the element of B_k(w) with the given coordinates, for
    inv^k = `level` and the base filling `base`; see bk_entries."""
    expected = {(w(k), w(l)) for l in level}
    if set(coords) != expected:
        raise ValueError(
            f"coordinate keys {sorted(coords)} do not match inv^"
            f"{k} keys {sorted(expected)}"
        )
    a = w(k)
    ra, ca = base.position(a)
    entries = []
    for l in level:
        b = w(l)
        x = coords[(a, b)]
        rb, cb = base.position(b)
        # X^m e_v is e of the box m columns left of v in the base filling
        entries += [
            (base.rows[ra - 1][ca - 1 - m], base.rows[rb - 1][cb - 1 - m], x)
            for m in range(min(ca, cb))
        ]
    return entries


def bk_entries(
    w: Permutation,
    lam: Composition,
    spr: Pairs,
    k: int,
    coords: Mapping[tuple[int, int], object],
) -> list[tuple[int, int, object]]:
    """The element of B_k(w) with the given coordinates, as the triples
    (tgt, src, x) with g_k = I + sum of x E_{tgt,src}.

    `spr` is any set of pairs (k, l) that is a subset S of inv_lambda(w),
    such as inv_{lambda,h}(w).  coords must be keyed by exactly the pairs
    (w(k), w(l)) for l in inv^k, the sorted l with (k, l) in S.  The matrix
    acts by g_k e_{w(j)} = e_{w(j)} + x_{w(k)w(l)} X^m e_{w(k)} whenever
    e_{w(j)} = X^m e_{w(l)}, and fixes all other basis vectors.
    """
    if not (2 <= k <= w.n):
        raise ValueError(f"k must be in 2..{w.n}, got {k}")
    return _bk_level(w, base_filling(lam), k, _level(spr, k), coords)


def bk_generator(
    w: Permutation,
    lam: Composition,
    spr: Pairs,
    k: int,
    coords: Mapping[tuple[int, int], object],
) -> ExactMatrix:
    """The element of B_k(w) with the given coordinates, as a matrix over
    the polynomials; see bk_entries."""
    entries = bk_entries(w, lam, spr, k, coords)
    return ExactMatrix.identity(POLYNOMIALS, w.n).add_row_multiples(entries)


def _fresh_coordinates(
    w: Permutation, k: int, level: Sequence[int]
) -> dict[tuple[int, int], Poly]:
    """Fresh polynomial variables x_{w(k)w(l)} for the l in `level`."""
    a = w(k)
    return {(a, w(l)): Poly.var(a, w(l)) for l in level}


def generic_coordinates(
    w: Permutation, spr: Pairs, k: int
) -> dict[tuple[int, int], Poly]:
    """Fresh polynomial variables x_{w(k)w(l)} for level k of spr, a subset
    S of inv_lambda(w)."""
    return _fresh_coordinates(w, k, _level(spr, k))


@dataclass(frozen=True)
class Flag:
    """A full flag (v_1 | v_2 | ... | v_n); column k spans grow the flag.

    `generators` holds, for a flag built by generic_flag, the triples
    (tgt, src, x) of g_2, ..., g_n in order, as bk_entries gives them; a
    flag built any other way holds none.  They take no part in equality,
    hashing or repr.
    """

    domain: Domain
    columns: tuple[Vector, ...]
    generators: tuple = field(default=(), compare=False, repr=False)

    @property
    def n(self) -> int:
        return len(self.columns)


def generic_flag(w: Permutation, lam: Composition, spr: Pairs) -> Flag:
    """The generic point of D_w = B_n(w)...B_2(w) wE_, over the polynomial ring.

    Parametrizes D_w as affine space of dimension |inv_lambda(w)|.  `spr` is
    a subset S of inv_lambda(w) for a w whose R(w) is row-strict; the
    coordinates outside S are 0.  A cell's Springer set gives D_w itself, and
    S = inv_{lambda,h}(w), as the `generic-flag` command passes it, gives
    the cut of D_w to Hess(X_lambda, h).  S is grouped by level in one
    sorted pass.  The product g_n ... g_2 is built from the identity by
    applying g_2, ..., g_n in turn as row operations; the flag holds its
    columns w(1), ..., w(n) and keeps the triples of g_2, ..., g_n as its
    `generators`.
    """
    levels: dict[int, list[int]] = {}
    for k, l in sorted(spr):
        levels.setdefault(k, []).append(l)
    base = base_filling(lam)
    prod = ExactMatrix.identity(POLYNOMIALS, w.n)
    generators = []
    for k in range(2, w.n + 1):
        level = levels.get(k, ())
        g = tuple(_bk_level(w, base, k, level, _fresh_coordinates(w, k, level)))
        prod = prod.add_row_multiples(g)
        generators.append(g)
    cols = tuple(zip(*prod.rows))
    return Flag(POLYNOMIALS, tuple(cols[v - 1] for v in w.word), tuple(generators))


def _last_nonzero(v: Sequence) -> int | None:
    for i in range(len(v) - 1, -1, -1):
        if v[i]:
            return i
    return None


def _reduce_against(v: list, basis: list[tuple[int, Vector]]) -> list:
    """Cross-multiplication reduction (division-free, exact in any domain)."""
    for piv, b in basis:
        if v[piv]:
            lead = b[piv]
            c = v[piv]
            v = [lead * x - c * y if y else lead * x for x, y in zip(v, b)]
    return v


def verify_flag_membership(
    flag: Flag, x: ExactMatrix, h: HessenbergFunction
) -> bool:
    """True iff X(V_i) is contained in V_{h(i)} for every i.

    The span tests use exact division-free elimination; over the polynomial
    domain a nonzero residual means the condition fails for some coordinate
    values, so a True answer quantifies over all values (the flags produced
    by generic_flag have unit determinant).  Each pivot is the lowest
    nonzero entry of its reduced column; for a flag uwE_ in a Schubert cell
    that is the constant 1 at row w(j), so no row is scaled by a polynomial.
    """
    if flag.domain != x.domain:
        raise ValueError("domain mismatch between flag and matrix")
    if flag.n != h.n:
        raise ValueError(f"size mismatch: n(flag)={flag.n}, n(h)={h.n}")
    basis: list[tuple[int, Vector]] = []
    added = 0
    for i in range(1, flag.n + 1):
        while added < h(i):
            col = _reduce_against(list(flag.columns[added]), basis)
            piv = _last_nonzero(col)
            if piv is None:
                raise ValueError("singular flag matrix")
            basis.append((piv, tuple(col)))
            added += 1
        target = _reduce_against(list(x.apply(flag.columns[i - 1])), basis)
        if any(target):
            return False
    return True


def hess_zero_coordinates(w: Permutation, lam: Composition, hess: Pairs) -> set[tuple[int, int]]:
    """Coordinates set to zero when cutting D_w down to Hess(X_lambda, h).

    Keys (w(k), w(l)) for (k,l) in inv_lambda(w) minus `hess`, the caller's
    inv_{lambda,h}(w).  Raises ValueError if R(w) is not row-strict; the
    `generic-flag` command relies on this as its only R(w) check.
    """
    if not is_row_strict(tableau_of(w, lam)):
        raise ValueError("R(w) is not row-strict")
    return {(w(k), w(l)) for (k, l) in springer_inversions(w, lam) - hess}


def difference_residual(
    w: Permutation, tab: Tableau, spr: Pairs, x: ExactMatrix, l: int, flag: Flag
) -> Vector:
    """v_l - X v_r - sum over (k,l) inversions of x_{w(k)w(l)} v_k.

    `tab` is R(w), `spr` is inv_lambda(w), `x` is X_lambda over POLYNOMIALS and
    `flag` is generic_flag(w, lambda); the residual is identically zero.
    `l` must not end its row.
    """
    r = tab.right_neighbor(l)
    if r is None:
        raise ValueError(f"{l} labels a box at the end of its row")
    residual = list(flag.columns[l - 1])
    for idx, val in enumerate(x.apply(flag.columns[r - 1])):
        residual[idx] = residual[idx] - val
    for k in range(l + 1, w.n + 1):
        if (k, l) in spr:
            coeff = Poly.var(w(k), w(l))
            for idx, val in enumerate(flag.columns[k - 1]):
                residual[idx] = residual[idx] - coeff * val
    return tuple(residual)


def bruhat_canonical_form(g: ExactMatrix) -> tuple[Permutation, ExactMatrix]:
    """Unique (w, u) with u in U^w and uwB = gB, for invertible g over a field.

    Columns are processed left to right; each pivot is the bottom-most
    nonzero entry of its column, which determines w; clearing to the right
    of each pivot leaves the residual factor in U^w.
    """
    dom = g.domain
    if not dom.is_field():
        raise ValueError("bruhat_canonical_form requires a field domain")
    n = g.n
    cols = [list(g.column(j)) for j in range(1, n + 1)]
    word = [0] * n
    for j in range(n):
        r = next((r for r in range(n - 1, -1, -1) if cols[j][r]), None)
        if r is None:
            raise ValueError("matrix is singular")
        word[j] = r + 1
        inv_p = dom.div(dom.one(), cols[j][r])
        cols[j] = [x * inv_p for x in cols[j]]
        for j2 in range(j + 1, n):
            c = cols[j2][r]
            if c:
                cols[j2] = [x - c * y for x, y in zip(cols[j2], cols[j])]
    w = Permutation(word)
    u = ExactMatrix.zero(dom, n)
    for j in range(n):
        for i in range(n):
            if cols[j][i] != dom.zero():
                u = u.with_entry(i + 1, word[j], cols[j][i])
    if not UnipotentPattern.schubert(w).contains(u):
        raise RuntimeError(f"residual factor is not in U^w for w={w}")
    return w, u


def factor_unipotent(
    u: ExactMatrix, w: Permutation
) -> tuple[ExactMatrix, ExactMatrix]:
    """Factor uw = u_i v u_0 y with u_i in U_i (i = w(n)) and u_0 in U^y.

    Returns (u_i, u_0); v and y come from factorize(w).
    """
    if not UnipotentPattern.schubert(w).contains(u):
        raise ValueError("u does not lie in the U^w pattern")
    dom = u.domain
    n = u.n
    i = w(n)
    v, y = factorize(w)
    m = u @ ExactMatrix.permutation(dom, w)
    m_inv = ExactMatrix.permutation(dom, w).transpose() @ u.inverse()
    t = m_inv.rows[n - 1]
    u_i = ExactMatrix.identity(dom, n)
    for j in range(i + 1, n + 1):
        if t[j - 1]:
            u_i = u_i.with_entry(i, j, dom.zero() - t[j - 1])
    rest = u_i.inverse() @ m
    u0 = (
        ExactMatrix.permutation(dom, v).transpose()
        @ rest
        @ ExactMatrix.permutation(dom, y).transpose()
    )
    if not UnipotentPattern.schubert(y).contains(u0):
        raise ValueError("factorization failed: u_0 not in U^y")
    return u_i, u0
