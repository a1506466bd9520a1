import copy
import itertools
import pickle

import pytest

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
from hesspave.paving import PoincareData
from proof_reference import (
    all_hessenberg_functions,
    compose,
    delete_last_box,
    h_leq,
    identity_permutation,
    length,
    partitions,
)


def all_perms(n):
    return [Permutation(p) for p in itertools.permutations(range(1, n + 1))]


class TestComposition:
    def test_zero_parts_dropped(self):
        assert Composition([2, 0, 3, 0]).parts == (2, 3)

    def test_negative_rejected(self):
        with pytest.raises(ValueError):
            Composition([2, -1])

    def test_totals(self):
        lam = Composition([2, 3, 1, 1])
        assert lam.n == 7
        assert lam.num_rows == 4
        assert lam.num_cols == 3
        assert lam.column_rows(2) == [1, 2]
        assert lam.column_rows(3) == [2]


class TestHessenbergFunction:
    def test_springer(self):
        h = HessenbergFunction.springer(4)
        assert h.values == (0, 1, 2, 3)
        assert h.is_springer()

    def test_violations_all_reported(self):
        with pytest.raises(ValueError) as e:
            HessenbergFunction([0, 2, 1])
        msg = str(e.value)
        assert "h(2)=2" in msg and "h(3)=1" in msg

    def test_catalan_count(self):
        # 1, 2, 5, 14, 42 for n = 1..5
        for n, cat in [(1, 1), (2, 2), (3, 5), (4, 14), (5, 42)]:
            assert sum(1 for _ in all_hessenberg_functions(n)) == cat


class TestPermutation:
    def test_validation(self):
        with pytest.raises(ValueError):
            Permutation([1, 3])

    def test_inverse_and_compose(self):
        for w in all_perms(4):
            assert compose(w, w.inverse()) == identity_permutation(4)
            assert w.inverse().inverse() == w

    def test_inversions_examples(self):
        assert inversions(Permutation([3, 4, 1, 2])) == {(3, 2), (3, 1), (4, 2), (4, 1)}
        assert inversions(identity_permutation(3)) == frozenset()
        assert inversions(Permutation([2, 1])) == {(2, 1)}

    def test_length_matches_inversions(self):
        for w in all_perms(5):
            assert length(w) == len(inversions(w))


class TestFactorize:
    def test_examples(self):
        v, y = factorize(Permutation([3, 4, 1, 2]))
        assert v.word == (1, 3, 4, 2) and y.word == (2, 3, 1, 4)
        v, y = factorize(Permutation([3, 6, 2, 1, 5, 4]))
        assert v.word == (1, 2, 3, 5, 6, 4) and y.word == (3, 5, 2, 1, 4, 6)
        e = identity_permutation(5)
        assert factorize(e) == (e, e)

    def test_properties_exhaustive(self):
        # w = v*y, lengths add, and inv(w) = inv(y) | y^{-1}(inv(v))
        for n in range(1, 7):
            for w in all_perms(n):
                v, y = factorize(w)
                assert compose(v, y) == w
                assert length(w) == length(v) + length(y)
                yinv = y.inverse()
                pulled = {
                    tuple(sorted((yinv(i), yinv(j)), reverse=True))
                    for i, j in inversions(v)
                }
                assert inversions(w) == inversions(y) | pulled
                assert not (inversions(y) & pulled)


class TestTableaux:
    def test_base_filling_examples(self):
        assert base_filling(Composition([2, 3, 1, 1])).rows == (
            (4, 6), (3, 5, 7), (2,), (1,))
        assert base_filling(Composition([1])).rows == ((1,),)
        assert base_filling(Composition([3, 2, 2])).rows == ((3, 6, 7), (2, 5), (1, 4))

    def test_tableau_of_examples(self):
        t = tableau_of(Permutation([3, 2, 6, 1, 7, 4, 5]), Composition([3, 2, 2]))
        assert t.rows == ((1, 3, 5), (2, 7), (4, 6))
        lam = Composition([2, 3, 1, 1])
        assert tableau_of(identity_permutation(7), lam).rows == base_filling(lam).rows
        t = tableau_of(Permutation([4, 3, 1, 6, 5, 7, 2]), lam)
        assert t.rows == ((1, 4), (2, 5, 6), (7,), (3,))

    def test_tableau_of_roundtrip(self):
        lam = Composition([2, 2, 1])
        for w in all_perms(5):
            assert permutation_of_tableau(tableau_of(w, lam)) == w

    def test_tableau_index(self):
        lam = Composition([2, 2])
        w = Permutation([3, 1, 4, 2])
        t = tableau_of(w, lam)
        base = base_filling(lam)
        winv = w.inverse()
        for i in range(1, 5):
            r, c = base.position(i)
            assert t.entry(r, c) == winv(i)

    def test_row_strict(self):
        for lam in [Composition([3, 2]), Composition([1, 1, 1])]:
            assert is_row_strict(base_filling(lam))
        assert not is_row_strict(Tableau([[2, 1]]))
        assert is_row_strict(Tableau([[1, 4], [2, 5, 6], [7], [3]]))

    def test_h_strict_examples(self):
        lam = Composition([4, 4, 3, 1])
        h = HessenbergFunction([max(0, i - 3) for i in range(1, 13)])
        assert not is_h_strict(base_filling(lam), h)
        r0 = Tableau([[3, 6, 9, 12], [2, 5, 8, 11], [4, 7, 10], [1]])
        assert is_h_strict(r0, h)

    def test_h_strict_springer_is_row_strict(self):
        lam = Composition([2, 2])
        springer = HessenbergFunction.springer(4)
        for w in all_perms(4):
            t = tableau_of(w, lam)
            assert is_h_strict(t, springer) == is_row_strict(t)

    def test_h_strict_monotone(self):
        lam = Composition([2, 1, 1])
        hs = list(all_hessenberg_functions(4))
        for w in all_perms(4):
            t = tableau_of(w, lam)
            for h1 in hs:
                for h2 in hs:
                    if h_leq(h1, h2) and is_h_strict(t, h1):
                        assert is_h_strict(t, h2)

    def test_standardize(self):
        t = Tableau([[2, 4, 8, 10], [1, 5, 7, 11], [3, 9, 12], [6]])
        assert standardize(t).rows == ((1, 4, 7, 10), (2, 5, 8, 11), (3, 9, 12), (6,))
        assert standardize(Tableau([[2, 3], [1, 4]])).rows == ((1, 3), (2, 4))
        s = standardize(t)
        assert standardize(s).rows == s.rows
        with pytest.raises(ValueError):
            standardize(Tableau([[2, 1]]))

    def test_standardize_preserves_columns(self):
        t = Tableau([[2, 5], [1, 4], [3]])
        s = standardize(t)
        for c in range(1, 3):
            before = sorted(t.entry(r, c) for r in t.shape.column_rows(c))
            after = sorted(s.entry(r, c) for r in s.shape.column_rows(c))
            assert before == after

    def test_delete_last_box(self):
        lam = Composition([2, 2, 2])
        t = tableau_of(Permutation([3, 6, 2, 1, 5, 4]), lam)
        lamp, tp = delete_last_box(t)
        assert lamp.parts == (2, 2, 1)
        assert tp.rows == ((1, 2), (3, 5), (4,))
        lamp, tp = delete_last_box(Tableau([[1]]))
        assert lamp.parts == () and tp.rows == ()
        lamp, tp = delete_last_box(Tableau([[1, 2]]))
        assert lamp.parts == (1,) and tp.rows == ((1,),)
        with pytest.raises(ValueError):
            delete_last_box(Tableau([[2, 1]]))


# (maker, the repr, the tuple that == and hash read, a field name)
RECORDS = [
    (lambda: Composition([2, 0, 1]), "Composition(parts=(2, 1))", ((2, 1),), "parts"),
    (lambda: HessenbergFunction([0, 1, 1]), "HessenbergFunction(values=(0, 1, 1))",
     ((0, 1, 1),), "values"),
    (lambda: Permutation([2, 3, 1]), "Permutation(word=(2, 3, 1))", ((2, 3, 1),), "word"),
    (lambda: Tableau([[1, 3], [2]]),
     "Tableau(shape=Composition(parts=(2, 1)), rows=((1, 3), (2,)))",
     (Composition([2, 1]), ((1, 3), (2,))), "rows"),
    (lambda: PoincareData((1, 2, 1)), "PoincareData(coeffs=(1, 2, 1))", ((1, 2, 1),), "coeffs"),
]


class TestValueObjects:
    """The five immutable records: == and hash read their fields as one
    tuple (a Tableau leaves out its `index`), the repr lists those fields,
    and no attribute can be set or deleted."""

    @pytest.mark.parametrize("make, text, key, name", RECORDS)
    def test_equality_hash_and_repr(self, make, text, key, name):
        a, b = make(), make()
        assert a is not b and a == b and not a != b
        assert hash(a) == hash(b) == hash(key)
        assert repr(a) == text
        # another type is never equal, even with the same field values
        assert a.__eq__(key) is NotImplemented and a != key

    def test_different_values_differ(self):
        assert Composition([2, 1]) != Composition([1, 2])
        assert HessenbergFunction([0, 0, 1]) != HessenbergFunction([0, 1, 1])
        assert Permutation([2, 1]) != Permutation([1, 2])
        assert Tableau([[1, 3], [2]]) != Tableau([[2, 3], [1]])
        assert Tableau([[1], [2]]) != Tableau([[1, 2]])
        assert PoincareData((1, 1)) != PoincareData((1,))
        assert Composition([1, 2]) != PoincareData((1, 2))

    @pytest.mark.parametrize("make, text, key, name", RECORDS)
    def test_fields_are_read_only(self, make, text, key, name):
        a = make()
        with pytest.raises(AttributeError):
            setattr(a, name, getattr(a, name))
        with pytest.raises(AttributeError):
            delattr(a, name)
        with pytest.raises(AttributeError):
            a.extra = 1
        assert repr(a) == text

    @pytest.mark.parametrize("make, text, key, name", RECORDS)
    def test_copies_keep_the_value(self, make, text, key, name):
        a = make()
        for b in (copy.copy(a), copy.deepcopy(a), pickle.loads(pickle.dumps(a))):
            assert b == a and hash(b) == hash(a) and repr(b) == text

    def test_tableau_index_is_left_out(self):
        a, b = Tableau([[1, 3], [2]]), Tableau([[1, 3], [2]])
        object.__setattr__(b, "index", {})
        assert a == b and hash(a) == hash(b) and repr(a) == repr(b)
        assert a.index == {1: (1, 1), 3: (1, 2), 2: (2, 1)}
        assert copy.deepcopy(a).position(3) == (1, 2)

    def test_base_filling_cache_hits_an_equal_shape(self):
        first = base_filling(Composition([4, 2, 2, 1]))
        hits = base_filling.cache_info().hits
        assert base_filling(Composition([4, 0, 2, 2, 1])) is first
        assert base_filling.cache_info().hits == hits + 1


def test_partitions():
    assert list(partitions(4)) == [(4,), (3, 1), (2, 2), (2, 1, 1), (1, 1, 1, 1)]
    assert sum(1 for _ in partitions(7)) == 15
