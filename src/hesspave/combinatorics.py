"""Compositions, Hessenberg functions, permutations, and tableaux.

Conventions used throughout the package:

* rows of a diagram are listed top row first; boxes are addressed by
  1-based (row, column) pairs;
* permutations are given in one-line notation, ``word[i-1] == w(i)``;
* inversion pairs are stored with the larger index first.
"""

from __future__ import annotations

from functools import lru_cache
from typing import Sequence


class Record:
    """A frozen dataclass of the fields in `_fields`, without importing
    `dataclasses`: the same ==, hash and repr, and every attribute is
    read-only once __init__ has set it with object.__setattr__."""

    __slots__ = ()

    def _key(self) -> tuple:
        return tuple([getattr(self, name) for name in self._fields])

    def __eq__(self, other):
        if other.__class__ is self.__class__:
            return self._key() == other._key()
        return NotImplemented

    def __hash__(self):
        return hash(self._key())

    def __repr__(self):
        fields = ", ".join(f"{name}={getattr(self, name)!r}" for name in self._fields)
        return f"{self.__class__.__qualname__}({fields})"

    def __setattr__(self, name, value):
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name):
        raise AttributeError(f"cannot delete field {name!r}")

    def __setstate__(self, state):
        # copy and pickle hand back (None, {slot: value})
        for name, value in state[1].items():
            object.__setattr__(self, name, value)


class Composition(Record):
    """A (weak) composition of n; zero parts are dropped on construction."""

    __slots__ = _fields = ("parts",)
    parts: tuple[int, ...]

    def __init__(self, parts: Sequence[int]):
        if any(p < 0 for p in parts):
            raise ValueError(f"composition parts must be nonnegative, got {tuple(parts)}")
        object.__setattr__(self, "parts", tuple(p for p in parts if p > 0))

    @property
    def n(self) -> int:
        return sum(self.parts)

    @property
    def num_rows(self) -> int:
        return len(self.parts)

    @property
    def num_cols(self) -> int:
        return max(self.parts, default=0)

    def column_rows(self, col: int) -> list[int]:
        """Row indices (1-based, top to bottom) of the boxes in column `col`."""
        return [i + 1 for i, p in enumerate(self.parts) if p >= col]

    def __str__(self) -> str:
        return "(" + ",".join(str(p) for p in self.parts) + ")"


class HessenbergFunction(Record):
    """Nondecreasing h:[n] -> [n] with h(i) < i for all i."""

    __slots__ = _fields = ("values",)
    values: tuple[int, ...]

    def __init__(self, values: Sequence[int]):
        values = tuple(values)
        problems = []
        for i, v in enumerate(values, start=1):
            if v >= i:
                problems.append(f"h({i})={v} violates h(i)<i")
            if i > 1 and v < values[i - 2]:
                problems.append(f"h({i})={v} < h({i-1})={values[i-2]} violates monotonicity")
            if v < 0:
                problems.append(f"h({i})={v} is negative")
        if problems:
            raise ValueError("; ".join(problems))
        object.__setattr__(self, "values", values)

    @classmethod
    def springer(cls, n: int) -> "HessenbergFunction":
        return cls(tuple(range(n)))

    @property
    def n(self) -> int:
        return len(self.values)

    def __call__(self, i: int) -> int:
        return self.values[i - 1]

    def is_springer(self) -> bool:
        return self.values == tuple(range(self.n))

    def __str__(self) -> str:
        return "(" + ",".join(str(v) for v in self.values) + ")"


class Permutation(Record):
    """Permutation of [n] in one-line notation: word[i-1] = w(i)."""

    __slots__ = _fields = ("word",)
    word: tuple[int, ...]

    def __init__(self, word: Sequence[int]):
        word = tuple(word)
        if sorted(word) != list(range(1, len(word) + 1)):
            raise ValueError(f"not a permutation of 1..{len(word)}: {word}")
        object.__setattr__(self, "word", word)

    @property
    def n(self) -> int:
        return len(self.word)

    def __call__(self, i: int) -> int:
        return self.word[i - 1]

    def inverse(self) -> "Permutation":
        inv = [0] * self.n
        for i, v in enumerate(self.word, start=1):
            inv[v - 1] = i
        return Permutation(inv)

    def __str__(self) -> str:
        return "[" + ",".join(str(v) for v in self.word) + "]"


def inversions(w: Permutation) -> frozenset[tuple[int, int]]:
    """inv(w) = {(i,j) | i > j and w(i) < w(j)}, larger index first."""
    word = w.word
    return frozenset(
        (i, j)
        for j in range(1, w.n + 1)
        for i in range(j + 1, w.n + 1)
        if word[i - 1] < word[j - 1]
    )


def factorize(w: Permutation) -> tuple[Permutation, Permutation]:
    """Write w = v*y with v = s_i s_{i+1} ... s_{n-1} for i = w(n) and y(n) = n.

    v places w(n) in position n with the remaining values increasing; y keeps
    the first n-1 entries of w in the same relative order.  The factorization
    satisfies l(w) = l(v) + l(y) and inv(w) = inv(y) | y^{-1}(inv(v)).
    """
    n = w.n
    i = w(n)
    v = Permutation(tuple(k for k in range(1, n + 1) if k != i) + (i,))
    rank = {val: pos + 1 for pos, val in enumerate(sorted(w.word[:-1]))}
    y = Permutation(tuple(rank[val] for val in w.word[:-1]) + (n,))
    return v, y


class Tableau(Record):
    """A filling of a composition shape by the integers 1..n, each used once;
    `index` (value -> (row, column)) takes no part in ==, hash or repr."""

    __slots__ = ("shape", "rows", "index")
    _fields = ("shape", "rows")
    shape: Composition
    rows: tuple[tuple[int, ...], ...]
    index: dict[int, tuple[int, int]]

    def __init__(self, rows: Sequence[Sequence[int]], shape: Composition | None = None):
        rows = tuple(tuple(r) for r in rows if len(r) > 0)
        if shape is None:
            shape = Composition([len(r) for r in rows])
        if tuple(len(r) for r in rows) != shape.parts:
            raise ValueError("row lengths do not match shape")
        n = shape.n
        index = {
            val: (ri, ci)
            for ri, row in enumerate(rows, start=1)
            for ci, val in enumerate(row, start=1)
        }
        if sorted(index) != list(range(1, n + 1)):
            raise ValueError(f"entries must be exactly 1..{n}")
        object.__setattr__(self, "shape", shape)
        object.__setattr__(self, "rows", rows)
        object.__setattr__(self, "index", index)

    @property
    def n(self) -> int:
        return self.shape.n

    def entry(self, row: int, col: int) -> int:
        return self.rows[row - 1][col - 1]

    def position(self, value: int) -> tuple[int, int]:
        return self.index[value]

    def right_neighbor(self, value: int) -> int | None:
        """Entry directly to the right of `value`, or None at the end of a row."""
        r, c = self.index[value]
        row = self.rows[r - 1]
        return row[c] if c < len(row) else None


def format_tableau(t: Tableau) -> str:
    """Text format: one row per line, entries space-separated, top row first."""
    return "\n".join(" ".join(str(v) for v in row) for row in t.rows)


@lru_cache(maxsize=None)
def base_filling(lam: Composition) -> Tableau:
    """The base filling R(e): columns filled left to right, bottom to top.

    Cached per shape, so every caller shares one Tableau: do not mutate it.
    """
    grid = [[0] * p for p in lam.parts]
    counter = 1
    for col in range(1, lam.num_cols + 1):
        for row in reversed(lam.column_rows(col)):
            grid[row - 1][col - 1] = counter
            counter += 1
    return Tableau(grid, lam)


def tableau_of(w: Permutation, lam: Composition) -> Tableau:
    """R(w): the box holding i in the base filling is relabeled w^{-1}(i)."""
    if w.n != lam.n:
        raise ValueError(f"size mismatch: |w|={w.n}, n(lambda)={lam.n}")
    winv = w.inverse()
    base = base_filling(lam)
    grid = [[winv(v) for v in row] for row in base.rows]
    return Tableau(grid, lam)


def permutation_of_tableau(t: Tableau) -> Permutation:
    """Recover w from a filling R(w): inverse of tableau_of(.., shape).

    The box holding i in R(e) holds w^{-1}(i) in R(w), so w sends that entry
    back to i.
    """
    word = [0] * t.n
    for base_row, row in zip(base_filling(t.shape).rows, t.rows):
        for i, v in zip(base_row, row):
            word[v - 1] = i
    return Permutation(word)


def is_row_strict(t: Tableau) -> bool:
    """True iff every row strictly increases left to right."""
    return all(a < b for row in t.rows for a, b in zip(row, row[1:]))


def is_h_strict(t: Tableau, h: HessenbergFunction) -> bool:
    """True iff every horizontally adjacent pair l|r satisfies l <= h(r).

    Since h(r) < r this implies row-strictness.
    """
    if t.n != h.n:
        raise ValueError(f"size mismatch: n(R)={t.n}, n(h)={h.n}")
    return all(a <= h(b) for row in t.rows for a, b in zip(row, row[1:]))


def standardize(t: Tableau) -> Tableau:
    """std(R): sort each column so entries increase from top to bottom."""
    if not is_row_strict(t):
        raise ValueError("standardize requires a row-strict tableau")
    grid = [list(row) for row in t.rows]
    for col in range(1, t.shape.num_cols + 1):
        rows_here = t.shape.column_rows(col)
        vals = sorted(t.entry(r, col) for r in rows_here)
        for r, v in zip(rows_here, vals):
            grid[r - 1][col - 1] = v
    return Tableau(grid, t.shape)
