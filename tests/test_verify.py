import pytest

import hesspave.exactla
import hesspave.oracle
import hesspave.paving
import hesspave.verify
from hesspave.combinatorics import Composition, HessenbergFunction, Permutation, partitions
from hesspave.exactla import generic_flag
from hesspave.oracle import dw_equals_cell, springer_points
from hesspave.paving import enumerate_cells
from hesspave.verify import _check_symbolic, run_verification

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
    flag = generic_flag(w, lam)
    points = springer_points(w, lam, 3)
    generators = count_calls(monkeypatch, "bk_generator", hesspave.exactla)
    assert dw_equals_cell(w, lam, 3, flag, points)
    assert generators == []


def test_one_point_search_per_springer_cell(monkeypatch):
    # the image and zero-structure checks share each cell's F_q points
    lam, springer = Composition([1, 1, 1, 1]), HessenbergFunction.springer(4)
    searches = count_calls(monkeypatch, "springer_points", hesspave.oracle)
    report = run_verification(lam, springer, q=2)
    assert report.passed
    assert {"generic-flag-image", "factor-zero-structure"} <= set(names(report))
    assert sorted(args[0].word for args in searches) == [
        c.w.word for c in enumerate_cells(lam, springer)
    ]
    assert len(searches) == 24


@pytest.mark.parametrize("parts", list(partitions(6)) + [(2, 2, 2, 1)],
                         ids=lambda parts: "-".join(map(str, parts)))
def test_symbolic_suite_every_springer_cell(parts):
    lam = Composition(parts)
    cells = enumerate_cells(lam, HessenbergFunction.springer(lam.n))
    result = _check_symbolic(lam, cells, [generic_flag(c.w, lam) for c in cells])
    assert result.ok, result.witness


def test_symbolic_check_reads_inv_from_the_cells(monkeypatch):
    # inv_lambda(w) comes from each cell descriptor; the check recomputes none
    lam = Composition([2, 2, 1])
    cells = enumerate_cells(lam, HessenbergFunction.springer(5))
    flags = [generic_flag(c.w, lam) for c in cells]
    calls = count_calls(monkeypatch, "springer_inversions")
    result = _check_symbolic(lam, cells, flags)
    assert result.ok, result.witness
    assert calls == []


def test_generic_flag_computes_inv_once(monkeypatch):
    calls = count_calls(monkeypatch, "springer_inversions")
    generic_flag(Permutation([3, 6, 2, 1, 5, 4]), Composition([2, 2, 2]))
    assert len(calls) == 1
