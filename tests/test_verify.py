from collections import Counter

import pytest

import hesspave.exactla
import hesspave.oracle
import hesspave.paving
import hesspave.verify
from hesspave.combinatorics import Composition, HessenbergFunction, Permutation
from hesspave.exactla import ExactMatrix, generic_flag
from hesspave.oracle import dw_equals_cell, springer_points
from hesspave.paving import CellDescriptor, enumerate_cells, springer_inversions
from hesspave.verify import CONJUGATION_TRIALS, _check_symbolic, run_verification
from proof_reference import partitions

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
    missing = enumerate_cells(lam, springer)[2]
    search = hesspave.verify.springer_points

    def without_one(*args):
        fiber = search(*args)
        del fiber[missing.word]
        return fiber

    monkeypatch.setattr(hesspave.verify, "springer_points", without_one)
    report = run_verification(lam, springer, q=2)
    assert not report.passed
    failure = report.first_failure()
    assert (failure.name, failure.witness) == ("generic-flag-image", f"w={missing.w}")


@pytest.mark.parametrize("parts", list(partitions(6)) + [(2, 2, 2, 1)],
                         ids=lambda parts: "-".join(map(str, parts)))
def test_symbolic_suite_every_springer_cell(parts):
    lam = Composition(parts)
    cells = enumerate_cells(lam, HessenbergFunction.springer(lam.n))
    result = _check_symbolic(lam, cells, [generic_flag(c.w, lam, c.springer_inv) for c in cells])
    assert result.ok, result.witness


def test_flags_and_symbolic_suite_form_no_dense_product(monkeypatch):
    # B_k(w) acts by row operations in generic_flag and the group law
    lam = Composition([2, 2, 1])
    cells = enumerate_cells(lam, HessenbergFunction.springer(5))
    products = []
    matmul = ExactMatrix.__matmul__

    def counted(self, other):
        products.append(self.n)
        return matmul(self, other)

    monkeypatch.setattr(ExactMatrix, "__matmul__", counted)
    flags = [generic_flag(c.w, lam, c.springer_inv) for c in cells]
    result = _check_symbolic(lam, cells, flags)
    assert result.ok, result.witness
    assert products == []


def test_symbolic_check_reads_inv_from_the_cells(monkeypatch):
    # inv_lambda(w) comes from each cell descriptor; the check recomputes none
    lam = Composition([2, 2, 1])
    cells = enumerate_cells(lam, HessenbergFunction.springer(5))
    flags = [generic_flag(c.w, lam, c.springer_inv) for c in cells]
    calls = count_calls(monkeypatch, "springer_inversions")
    result = _check_symbolic(lam, cells, flags)
    assert result.ok, result.witness
    assert calls == []


def test_generic_flag_reads_inv_from_its_caller(monkeypatch):
    w, lam = Permutation([3, 6, 2, 1, 5, 4]), Composition([2, 2, 2])
    spr = springer_inversions(w, lam)
    calls = count_calls(monkeypatch, "springer_inversions")
    generic_flag(w, lam, spr)
    assert calls == []


@pytest.mark.parametrize("parts, h", [
    ((2, 2), HessenbergFunction.springer(4)),
    ((2, 2, 1), HessenbergFunction([0, 0, 1, 2, 3])),
])
def test_each_cell_view_is_built_at_most_once(monkeypatch, parts, h):
    # a descriptor builds w, hess_inv, tableau and springer_inv on first
    # read and caches them, however many checks read them
    built = Counter()
    cells = []
    for name in ("w", "hess_inv", "tableau", "springer_inv"):
        view = CellDescriptor.__dict__[name]

        def counting(cell, build=view.func, name=name):
            built[name, id(cell)] += 1
            cells.append(cell)  # keeps ids unique for the whole run
            return build(cell)

        # the view's own caching stays in place; only its builder is counted
        monkeypatch.setattr(view, "func", counting)
    report = run_verification(Composition(parts), h, q=2)
    assert report.passed
    assert {name for name, _ in built} == {"w", "hess_inv", "tableau", "springer_inv"}
    assert max(built.values()) == 1
