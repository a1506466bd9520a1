"""Named invariant checks scoped to one (lambda, h) instance.

Each check returns (ok, witness); the driver collects them in a fixed order
and stops describing failures at the first witness, which keeps reports
short and deterministic.
"""

from __future__ import annotations

from dataclasses import dataclass

from .combinatorics import (
    Composition,
    HessenbergFunction,
    inversions,
    is_h_strict,
    standardize,
)
from .exactla import (
    POLYNOMIALS,
    bk_generator,
    difference_residual,
    generic_coordinates,
    generic_flag,
    nilpotent_matrix,
    verify_flag_membership,
)
from .oracle import (
    BudgetExceededError,
    CountReport,
    conjugation_invariance,
    dw_equals_cell,
    flag_point_counts,
    springer_points,
    zeros_structure_check,
)
from .paving import (
    enumerate_cells,
    inversion_profile,
    maximal_cells_are_standard,
    r0_tableau,
)


@dataclass
class CheckResult:
    name: str
    ok: bool
    witness: str | None = None


@dataclass
class VerifyReport:
    checks: list[CheckResult]
    partial: bool = False
    budget_message: str | None = None

    @property
    def passed(self) -> bool:
        return not self.partial and all(c.ok for c in self.checks)

    def first_failure(self) -> CheckResult | None:
        return next((c for c in self.checks if not c.ok), None)

    def to_json(self) -> dict:
        out = {
            "passed": self.passed,
            "checks": [
                {"name": c.name, "ok": c.ok, "witness": c.witness}
                for c in self.checks
            ],
        }
        if self.partial:
            out["partial"] = True
            out["budget_message"] = self.budget_message
        return out


def _check_cells(h, cells) -> CheckResult:
    for c in cells:
        if not is_h_strict(c.tableau, h):
            return CheckResult("cell-tableaux-h-strict", False, f"w={c.w}")
        if c.dim != len(c.hess_inv):
            return CheckResult("cell-dimension", False, f"w={c.w}")
        if not (c.hess_inv <= c.springer_inv):
            return CheckResult("inversion-containment", False, f"w={c.w}")
        if not (c.springer_inv.pairs <= inversions(c.w)):
            return CheckResult("inversion-containment", False, f"w={c.w}")
    return CheckResult("cell-table", True)


def _check_zero_cell(lam, h, cells) -> CheckResult:
    r0 = r0_tableau(lam, h)
    if not cells:
        if r0 is not None:
            return CheckResult("unique-zero-cell", False, f"R0={r0!r} but no cells")
        return CheckResult("unique-zero-cell", True)
    zeros = [c.tableau for c in cells if c.dim == 0]
    if len(zeros) != 1 or r0 is None or zeros[0].rows != r0.rows:
        return CheckResult(
            "unique-zero-cell", False,
            f"zero cells={[z.rows for z in zeros]}, R0={None if r0 is None else r0.rows}",
        )
    return CheckResult("unique-zero-cell", True)


def _check_max_standard(cells) -> CheckResult:
    ok, witness = maximal_cells_are_standard(cells)
    if not ok:
        return CheckResult("maximal-cells-standard", False, str(witness.rows))
    return CheckResult("maximal-cells-standard", True)


def _check_profiles(h, cells) -> CheckResult:
    for c in cells:
        t = c.tableau
        s = standardize(t)
        if s.rows == t.rows:
            continue
        p, ps = inversion_profile(t, h), inversion_profile(s, h)
        if not ps.dominates(p) or ps.total == p.total and ps.d == p.d:
            return CheckResult("profile-inequality", False, f"w={c.w}")
    return CheckResult("profile-inequality", True)


def _check_symbolic(lam, springer_cells, flags) -> CheckResult:
    x = nilpotent_matrix(lam, POLYNOMIALS)
    springer = HessenbergFunction.springer(lam.n)
    for c, flag in zip(springer_cells, flags):
        w = c.w
        if not verify_flag_membership(flag, x, springer):
            return CheckResult("generic-flag-membership", False, f"w={w}")
        spr = c.springer_inv
        for k in range(2, lam.n + 1):
            coords = generic_coordinates(w, spr, k)
            g = bk_generator(w, lam, spr, k, coords)
            doubled = {key: v + v for key, v in coords.items()}
            if g @ g != bk_generator(w, lam, spr, k, doubled):
                return CheckResult("group-law", False, f"w={w}, k={k}")
        for l in range(1, lam.n + 1):
            if c.tableau.right_neighbor(l) is not None and any(
                difference_residual(w, c.tableau, spr, x, l, flag)
            ):
                return CheckResult("difference-residual", False, f"w={w}, l={l}")
    return CheckResult("symbolic-identities", True)


def run_verification(
    lam: Composition,
    h: HessenbergFunction,
    q: int | None = None,
    budget_bits: int = 24,
    seed: int | None = None,
    workers: int = 1,
    trials: int = 5,
) -> VerifyReport:
    """Run every invariant suite that applies to (lambda, h) and optional q.

    The cell table of (lambda, h) is built once and shared by every check;
    the Springer-fiber checks (n <= 5) share the Springer table, which is
    the same list when h is Springer, and one generic flag per Springer
    cell, which the symbolic and F_q image checks both use.  At n <= 4 each
    Springer cell's F_q points are searched once and handed to both the
    image and the zero-structure check.
    """
    checks: list[CheckResult] = []
    try:
        cells = enumerate_cells(lam, h)
        checks.append(_check_cells(h, cells))
        checks.append(_check_zero_cell(lam, h, cells))
        checks.append(_check_max_standard(cells))
        checks.append(_check_profiles(h, cells))
        if lam.n <= 5:
            springer = HessenbergFunction.springer(lam.n)
            springer_cells = cells if h.is_springer() else enumerate_cells(lam, springer)
            flags = [generic_flag(c.w, lam) for c in springer_cells]
            checks.append(_check_symbolic(lam, springer_cells, flags))
        if q is not None:
            counts = flag_point_counts(nilpotent_matrix(lam), [h], q, budget_bits, workers)
            report = CountReport.from_counts(q, counts[0], cells)
            witness = f"total={report.total}, predicted={report.predicted}"
            checks.append(CheckResult("point-count-identity", report.match,
                                      None if report.match else witness))
            if lam.n <= 4:
                for c, flag in zip(springer_cells, flags):
                    points = springer_points(c.w, lam, q, budget_bits)
                    if not dw_equals_cell(c.w, lam, q, flag, points, budget_bits):
                        checks.append(CheckResult("generic-flag-image", False, f"w={c.w}"))
                        break
                    if not zeros_structure_check(c.w, lam, points):
                        checks.append(CheckResult("factor-zero-structure", False, f"w={c.w}"))
                        break
                else:
                    checks.append(CheckResult("generic-flag-image", True))
                    checks.append(CheckResult("factor-zero-structure", True))
                ok = conjugation_invariance(
                    lam, h, q, report.total, trials, seed or 0, budget_bits
                )
                checks.append(CheckResult("conjugation-invariance", ok))
    except BudgetExceededError as e:
        return VerifyReport(checks, partial=True, budget_message=str(e))
    return VerifyReport(checks)
