from dataclasses import replace

import pytest

import hesspave.exactla
import hesspave.oracle
import hesspave.paving
import hesspave.verify
from hesspave.combinatorics import (
    Composition,
    HessenbergFunction,
    Permutation,
    Tableau,
    inversions,
)
from hesspave.domains import POLYNOMIALS
from hesspave.exactla import (
    ExactMatrix,
    Flag,
    generic_flag,
    nilpotent_matrix,
    verify_flag_membership,
)
from hesspave.oracle import dw_equals_cell, springer_points
from hesspave.paving import enumerate_cells, springer_inversions
from hesspave.verify import (
    CONJUGATION_TRIALS,
    CheckResult,
    _check_cells,
    _check_symbolic,
    run_verification,
)
from proof_reference import inv_level, partitions

MODULES = (hesspave.exactla, hesspave.oracle, hesspave.paving, hesspave.verify)


def names(report):
    return [c.name for c in report.checks]


def test_springer_full_suite():
    report = run_verification(
        Composition([2, 2]), HessenbergFunction.springer(4), q=2, seed=0
    )
    assert report.passed
    assert report.first_failure() is None
    assert "point-count-identity" in names(report)
    assert "generic-flag-image" in names(report)
    assert "factor-zero-structure" in names(report)
    assert "conjugation-invariance" in names(report)


def test_combinatorial_only():
    report = run_verification(Composition([2, 2, 2]), HessenbergFunction([0, 1, 1, 1, 3, 4]))
    assert report.passed
    assert "point-count-identity" not in names(report)


def test_empty_variety():
    report = run_verification(Composition([2]), HessenbergFunction([0, 0]), q=2)
    assert report.passed


def test_budget_partial():
    report = run_verification(
        Composition([2, 2]), HessenbergFunction.springer(4), q=2, budget_bits=1
    )
    assert report.partial
    assert not report.passed
    assert report.budget_message
    data = report.to_json()
    assert data["partial"] is True
    assert data["passed"] is False


def test_json_shape():
    report = run_verification(Composition([2, 1]), HessenbergFunction([0, 1, 1]), q=3)
    data = report.to_json()
    assert data["passed"] is True
    assert all(c["ok"] for c in data["checks"])


def count_calls(monkeypatch, name, home=hesspave.paving):
    """Count calls of home.<name> through every module that bound it."""
    orig = getattr(home, name)
    calls = []

    def counted(*args, **kwargs):
        calls.append(args)
        return orig(*args, **kwargs)

    for mod in MODULES:
        if getattr(mod, name, None) is orig:
            monkeypatch.setattr(mod, name, counted)
    return calls


@pytest.mark.parametrize("parts, h, tables", [
    ((2, 2), HessenbergFunction.springer(4), 1),
    ((2, 2, 1), HessenbergFunction([0, 0, 1, 2, 3]), 2),  # h and Springer
])
def test_one_cell_table_per_run(monkeypatch, parts, h, tables):
    cells = count_calls(monkeypatch, "enumerate_cells")
    walks = count_calls(monkeypatch, "iter_fillings")
    report = run_verification(Composition(parts), h, q=2)
    assert report.passed
    assert len(cells) == tables
    assert len(walks) == tables


def test_one_generic_flag_per_springer_cell(monkeypatch):
    lam = Composition([2, 2])
    flags = count_calls(monkeypatch, "generic_flag", hesspave.exactla)
    report = run_verification(lam, HessenbergFunction.springer(4), q=2)
    assert report.passed
    assert "generic-flag-image" in names(report)
    assert len(flags) == len(enumerate_cells(lam, HessenbergFunction.springer(4)))


def test_image_check_evaluates_the_given_flag(monkeypatch):
    w, lam = Permutation([2, 4, 1, 3]), Composition([2, 2])
    flag = generic_flag(w, lam, springer_inversions(w, lam))
    points = springer_points(lam, 3)[w.word]
    generators = count_calls(monkeypatch, "bk_generator", hesspave.exactla)
    assert dw_equals_cell(w, springer_inversions(w, lam), 3, flag, points)
    assert generators == []


def test_one_point_search_for_every_springer_cell(monkeypatch):
    # the count, one search for the points of all 24 Springer cells, which
    # the image and zero-structure checks share, and one per conjugate
    lam, springer = Composition([1, 1, 1, 1]), HessenbergFunction.springer(4)
    searches = count_calls(monkeypatch, "_search", hesspave.oracle)
    report = run_verification(lam, springer, q=2)
    assert report.passed
    assert {"generic-flag-image", "factor-zero-structure"} <= set(names(report))
    assert len(searches) == 2 + CONJUGATION_TRIALS


def test_cell_without_points_fails_the_image_check(monkeypatch):
    # a Springer cell that the search left without points is a failed image
    # check with its witness, not a crash
    lam, springer = Composition([2, 2]), HessenbergFunction.springer(4)
    missing = enumerate_cells(lam, springer)[2][0]
    search = hesspave.verify.springer_points

    def without_one(*args):
        fiber = search(*args)
        del fiber[missing]
        return fiber

    monkeypatch.setattr(hesspave.verify, "springer_points", without_one)
    report = run_verification(lam, springer, q=2)
    assert not report.passed
    failure = report.first_failure()
    assert (failure.name, failure.witness) == (
        "generic-flag-image", f"w={Permutation(missing)}")


@pytest.mark.parametrize("parts", list(partitions(6)) + [(2, 2, 2, 1)],
                         ids=lambda parts: "-".join(map(str, parts)))
def test_symbolic_suite_every_springer_cell(parts):
    result = _check_symbolic(*_springer_flags(parts))
    assert result.ok, result.witness


def test_flags_and_symbolic_suite_form_no_dense_product(monkeypatch):
    # B_k(w) acts by row operations in generic_flag, and the symbolic suite
    # reads the group law off the generators' triples, forming no matrix
    lam = Composition([2, 2, 1])
    cells = enumerate_cells(lam, HessenbergFunction.springer(5))
    tableaux = _tableaux(cells)
    products, row_steps = [], []
    matmul, add_rows = ExactMatrix.__matmul__, ExactMatrix.add_row_multiples

    def counted(self, other):
        products.append(self.n)
        return matmul(self, other)

    def counted_rows(self, entries):
        row_steps.append(self.n)
        return add_rows(self, entries)

    monkeypatch.setattr(ExactMatrix, "__matmul__", counted)
    flags = _flags(lam, cells)
    monkeypatch.setattr(ExactMatrix, "add_row_multiples", counted_rows)
    generators = count_calls(monkeypatch, "bk_generator", hesspave.exactla)
    result = _check_symbolic(lam, cells, tableaux, flags)
    assert result.ok, result.witness
    assert products == []
    assert row_steps == []
    assert generators == []


def _tableaux(cells):
    return [Tableau(rows) for _, rows, _, _ in cells]


def _flags(lam, cells):
    """The generic flag of each cell of a Springer table, whose pairs are
    inv_lambda(w)."""
    return [generic_flag(Permutation(word), lam, frozenset(pairs)) for word, _, pairs, _ in cells]


def _springer_flags(parts):
    """lambda, its Springer table, and each cell's tableau and generic flag:
    the arguments of `_check_symbolic`."""
    lam = Composition(parts)
    cells = enumerate_cells(lam, HessenbergFunction.springer(lam.n))
    return lam, cells, _tableaux(cells), _flags(lam, cells)


def _with_flag(flags, i, **fields):
    """The flags with the i-th one's given fields replaced."""
    return flags[:i] + [replace(flags[i], **fields)] + flags[i + 1:]


def _failure(result):
    return (result.ok, result.name, result.witness)


def test_chained_triple_fails_the_group_law():
    # mutation: one cell's level k gains a triple whose source is another
    # triple's target, so N^2 != 0 and g_k(x)^2 != g_k(2x)
    lam, cells, tableaux, flags = _springer_flags((2, 2, 1))
    i = len(cells) // 2
    word, _, pairs, _ = cells[i]
    k = max(k for k in range(2, 6) if inv_level(frozenset(pairs), k))
    generators = list(flags[i].generators)
    tgt, src, x = generators[k - 2][0]
    generators[k - 2] += ((src, tgt, x),)
    mutated = _with_flag(flags, i, generators=tuple(generators))
    result = _check_symbolic(lam, cells, tableaux, mutated)
    assert _failure(result) == (False, "group-law", f"w={Permutation(word)}, k={k}")
    assert _check_symbolic(lam, cells, tableaux, flags).ok


def test_flag_without_generators_raises():
    # a hand-built flag holds no triples, so its group law cannot be read;
    # it raises instead of passing for want of generators
    lam, cells, tableaux, flags = _springer_flags((2, 2, 1))
    bare = [Flag(flag.domain, flag.columns) for flag in flags]
    assert bare == flags
    with pytest.raises(ValueError, match="holds 0 generator levels, not 4"):
        _check_symbolic(lam, cells, tableaux, bare)


def test_perturbed_column_fails_membership():
    # mutation: v_1 becomes v_1 + v_2 in a cell where X v_2 != 0, so X no
    # longer kills V_1, and X V_1 is not in V_0 = 0
    lam, cells, tableaux, flags = _springer_flags((2, 2, 1))
    x = nilpotent_matrix(lam, POLYNOMIALS)
    i = next(i for i, flag in enumerate(flags) if any(x.apply(flag.columns[1])))
    v = flags[i].columns
    columns = (tuple(a + b for a, b in zip(v[0], v[1])),) + v[1:]
    result = _check_symbolic(lam, cells, tableaux, _with_flag(flags, i, columns=columns))
    assert _failure(result) == (
        False, "generic-flag-membership", f"w={Permutation(cells[i][0])}")


def test_shifted_column_fails_the_difference_identity():
    # mutation: v_l becomes v_l + v_1, which leaves every V_i, and so
    # membership, as it was.  l is the least label with a right neighbour,
    # so no earlier residual reads v_l, and residual l gains v_1 != 0
    lam, cells, tableaux, flags = _springer_flags((2, 2, 1))
    i, l = next(
        (i, l) for i, t in enumerate(tableaux) for l in range(2, 6)
        if t.right_neighbor(l) is not None
        and all(t.right_neighbor(m) is None for m in range(1, l))
    )
    v = list(flags[i].columns)
    v[l - 1] = tuple(a + b for a, b in zip(v[l - 1], v[0]))
    mutated = _with_flag(flags, i, columns=tuple(v))
    springer = HessenbergFunction.springer(5)
    assert verify_flag_membership(mutated[i], nilpotent_matrix(lam, POLYNOMIALS), springer)
    result = _check_symbolic(lam, cells, tableaux, mutated)
    assert _failure(result) == (
        False, "difference-residual", f"w={Permutation(cells[i][0])}, l={l}")


def test_symbolic_suite_forms_no_generators(monkeypatch):
    # the group law reads each flag's kept triples; no level is rebuilt
    lam, cells, tableaux, flags = _springer_flags((2, 2, 1))
    entries = count_calls(monkeypatch, "bk_entries", hesspave.exactla)
    coords = count_calls(monkeypatch, "generic_coordinates", hesspave.exactla)
    result = _check_symbolic(lam, cells, tableaux, flags)
    assert result.ok, result.witness
    assert entries == []
    assert coords == []


def test_symbolic_check_reads_inv_from_the_cells(monkeypatch):
    # inv_lambda(w) is each Springer cell's pairs; the check recomputes none
    lam, cells, tableaux, flags = _springer_flags((2, 2, 1))
    calls = count_calls(monkeypatch, "springer_inversions")
    result = _check_symbolic(lam, cells, tableaux, flags)
    assert result.ok, result.witness
    assert calls == []


def test_generic_flag_reads_inv_from_its_caller(monkeypatch):
    w, lam = Permutation([3, 6, 2, 1, 5, 4]), Composition([2, 2, 2])
    spr = springer_inversions(w, lam)
    calls = count_calls(monkeypatch, "springer_inversions")
    generic_flag(w, lam, spr)
    assert calls == []


@pytest.mark.parametrize("parts, h, built", [
    ((2, 2, 1), None, 66),
    ((1, 1, 1, 1, 1), None, 242),
    ((2, 2, 1), (0, 0, 1, 2, 3), 57),
])
def test_tableaux_built_per_run(monkeypatch, parts, h, built):
    # each cell's Tableau once per table, one standardization per cell,
    # R_0, one more standardization of each top cell, and for another h
    # the Springer table's tableaux, from which no view is built twice
    lam = Composition(parts)
    springer = HessenbergFunction.springer(lam.n)
    h = springer if h is None else HessenbergFunction(h)
    cells = enumerate_cells(lam, h)
    top = max(dim for _, _, _, dim in cells)
    top_cells = sum(dim == top for _, _, _, dim in cells)
    springer_cells = 0 if h.is_springer() else len(enumerate_cells(lam, springer))
    assert built == 2 * len(cells) + 1 + top_cells + springer_cells
    calls = []
    init = Tableau.__init__

    def counting(self, *args, **kwargs):
        calls.append(args)
        init(self, *args, **kwargs)

    monkeypatch.setattr(Tableau, "__init__", counting)
    report = run_verification(lam, h, q=2)
    assert report.passed
    assert len(calls) == built


class TestCheckCellsFailures:
    """Each failure branch of `_check_cells`, on hand-made (word, rows,
    pairs, dim) cells built from a true cell of (2,2,1) under
    h = (0,1,1,2,3) or the Springer h."""

    lam = Composition([2, 2, 1])
    h = HessenbergFunction([0, 1, 1, 2, 3])

    def _cell(self, h, **fields):
        # the cell of highest dimension, with the given fields replaced
        word, rows, pairs, dim = max(enumerate_cells(self.lam, h), key=lambda c: (c[3], c[0]))
        values = {"word": word, "rows": rows, "pairs": pairs, "dim": dim}
        values.update(fields)
        return tuple(values.values())

    def _fails(self, h, cell, name):
        # the bad cell fails with its witness, after a true cell that passes
        good = enumerate_cells(self.lam, h)[0]
        assert _check_cells(self.lam, h, [good], _tableaux([good])) == CheckResult(
            "cell-table", True)
        result = _check_cells(self.lam, h, [good, cell], _tableaux([good, cell]))
        assert (result.ok, result.name, result.witness) == (
            False, name, f"w={Permutation(cell[0])}")

    def test_rows_that_are_not_h_strict(self):
        # 4|5 is row-strict, but 4 > h(5) = 3
        cell = self._cell(self.h, rows=((1, 2), (4, 5), (3,)))
        self._fails(self.h, cell, "cell-tableaux-h-strict")

    def test_wrong_dimension(self):
        _, _, _, dim = self._cell(self.h)
        self._fails(self.h, self._cell(self.h, dim=dim + 1), "cell-dimension")

    def test_duplicated_pair(self):
        # dim equals len(pairs), but the pairs hold one inversion twice
        _, _, pairs, _ = self._cell(self.h)
        assert pairs
        pairs += pairs[:1]
        self._fails(self.h, self._cell(self.h, pairs=pairs, dim=len(pairs)), "cell-dimension")

    def test_pair_outside_the_springer_set(self):
        word, _, pairs, _ = self._cell(self.h)
        spr = springer_inversions(Permutation(word), self.lam)
        extra = next((k, l) for k in range(2, 6) for l in range(1, k) if (k, l) not in spr)
        pairs = tuple(sorted(pairs + (extra,)))
        cell = self._cell(self.h, pairs=pairs, dim=len(pairs))
        self._fails(self.h, cell, "inversion-containment")

    def test_springer_pair_outside_inv_w(self):
        # under the Springer h the cell's pairs are inv_lambda(w) itself
        springer = HessenbergFunction.springer(5)
        word, _, pairs, _ = self._cell(springer)
        extra = next((k, l) for k in range(2, 6) for l in range(1, k)
                     if (k, l) not in inversions(Permutation(word)))
        pairs = tuple(sorted(pairs + (extra,)))
        cell = self._cell(springer, pairs=pairs, dim=len(pairs))
        self._fails(springer, cell, "inversion-containment")
