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
    Permutation,
    Tableau,
    inversions,
    is_h_strict,
    standardize,
)
from .exactla import (
    POLYNOMIALS,
    difference_residual,
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
    nilpotent_residues,
    springer_points,
    zeros_structure_check,
)
from .paving import (
    cell_profile,
    enumerate_cells,
    inversion_profile,
    maximal_cells_are_standard,
    r0_tableau,
    tableau_inversions,
)

# Random conjugates of X_lambda whose point count the conjugation check compares.
CONJUGATION_TRIALS = 5


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


def _check_cells(lam, h, cells, tableaux) -> CheckResult:
    springer = HessenbergFunction.springer(lam.n)
    for (word, _, pairs, dim), t in zip(cells, tableaux):
        w = Permutation(word)
        if not is_h_strict(t, h):
            return CheckResult("cell-tableaux-h-strict", False, f"w={w}")
        pairs = frozenset(pairs)
        if dim != len(pairs):
            return CheckResult("cell-dimension", False, f"w={w}")
        spr = pairs if h.is_springer() else tableau_inversions(t, springer)
        if not (pairs <= spr):
            return CheckResult("inversion-containment", False, f"w={w}")
        if not (spr <= inversions(w)):
            return CheckResult("inversion-containment", False, f"w={w}")
    return CheckResult("cell-table", True)


def _check_zero_cell(lam, h, cells, tableaux) -> CheckResult:
    r0 = r0_tableau(lam, h)
    if not cells:
        if r0 is not None:
            return CheckResult("unique-zero-cell", False, f"R0={r0!r} but no cells")
        return CheckResult("unique-zero-cell", True)
    zeros = [t for (_, _, _, dim), t in zip(cells, tableaux) if dim == 0]
    if len(zeros) != 1 or r0 is None or zeros[0].rows != r0.rows:
        return CheckResult(
            "unique-zero-cell", False,
            f"zero cells={[z.rows for z in zeros]}, R0={None if r0 is None else r0.rows}",
        )
    return CheckResult("unique-zero-cell", True)


def _check_max_standard(cells, tableaux) -> CheckResult:
    ok, witness = maximal_cells_are_standard(cells, tableaux)
    if not ok:
        return CheckResult("maximal-cells-standard", False, str(witness.rows))
    return CheckResult("maximal-cells-standard", True)


def _check_profiles(h, cells, tableaux) -> CheckResult:
    for (word, _, pairs, _), t in zip(cells, tableaux):
        s = standardize(t)
        if s.rows == t.rows:
            continue
        if not inversion_profile(s, h) > cell_profile(pairs, t):
            return CheckResult("profile-inequality", False, f"w={Permutation(word)}")
    return CheckResult("profile-inequality", True)


def _check_symbolic(lam, springer_cells, tableaux, flags) -> CheckResult:
    """Membership, the group law and the difference identity of each
    Springer cell's generic flag, as generic_flag built it.

    The group law g_k(x)^2 = g_k(2x) is read off the triples that the flag
    keeps as its `generators`: g_k = I + N with N = sum of x_i E_{t_i s_i},
    and N^2 = sum over s_i = t_j of x_i x_j E_{t_i s_j}.  Each x_i is a
    variable, so nothing cancels, and the law holds exactly when no target
    is a source (t = s counts too).  A flag that does not hold one level of
    triples for each k = 2..n raises ValueError, so no flag passes the law
    for want of generators.
    """
    x = nilpotent_matrix(lam, POLYNOMIALS)
    springer = HessenbergFunction.springer(lam.n)
    for (word, _, pairs, _), tableau, flag in zip(springer_cells, tableaux, flags):
        w = Permutation(word)
        if len(flag.generators) != lam.n - 1:
            raise ValueError(
                f"the flag of w={w} holds {len(flag.generators)} generator levels, "
                f"not {lam.n - 1}"
            )
        if not verify_flag_membership(flag, x, springer):
            return CheckResult("generic-flag-membership", False, f"w={w}")
        for k, g in enumerate(flag.generators, start=2):
            if {t for t, _, _ in g} & {s for _, s, _ in g}:
                return CheckResult("group-law", False, f"w={w}, k={k}")
        spr = frozenset(pairs)
        for l in range(1, lam.n + 1):
            if tableau.right_neighbor(l) is not None and any(
                difference_residual(w, tableau, spr, x, l, flag)
            ):
                return CheckResult("difference-residual", False, f"w={w}, l={l}")
    return CheckResult("symbolic-identities", True)


def run_verification(
    lam: Composition,
    h: HessenbergFunction,
    q: int | None = None,
    budget_bits: int = 24,
    seed: int | None = None,
) -> VerifyReport:
    """Run every invariant suite that applies to (lambda, h) and optional q.

    The cell table of (lambda, h) and each cell's Tableau are built once and
    shared by every check; the Springer-fiber checks (n <= 5) share the
    Springer table and tableaux, the same lists when h is Springer, and one
    generic flag per Springer cell, from its pairs inv_lambda(w), which the
    symbolic and F_q image checks both use; the symbolic check reads each
    B_k(w) generator from its flag and forms none.  At n <= 4 one search
    finds the F_q points of every Springer cell, and each cell's points are
    handed to both the image and the zero-structure check.
    """
    checks: list[CheckResult] = []
    try:
        cells = enumerate_cells(lam, h)
        tableaux = [Tableau(rows) for _, rows, _, _ in cells]
        checks.append(_check_cells(lam, h, cells, tableaux))
        checks.append(_check_zero_cell(lam, h, cells, tableaux))
        checks.append(_check_max_standard(cells, tableaux))
        checks.append(_check_profiles(h, cells, tableaux))
        if lam.n <= 5:
            if h.is_springer():
                springer_cells, springer_tableaux = cells, tableaux
            else:
                springer_cells = enumerate_cells(lam, HessenbergFunction.springer(lam.n))
                springer_tableaux = [Tableau(rows) for _, rows, _, _ in springer_cells]
            flags = [generic_flag(Permutation(word), lam, frozenset(pairs))
                     for word, _, pairs, _ in springer_cells]
            checks.append(_check_symbolic(lam, springer_cells, springer_tableaux, flags))
        if q is not None:
            counts = flag_point_counts(nilpotent_residues(lam), [h], q, budget_bits)
            report = CountReport.from_counts(q, counts[0], cells)
            witness = f"total={report.total}, predicted={report.predicted}"
            checks.append(CheckResult("point-count-identity", report.match,
                                      None if report.match else witness))
            if lam.n <= 4:
                fiber = springer_points(lam, q, budget_bits)
                for (word, _, pairs, _), flag in zip(springer_cells, flags):
                    w = Permutation(word)
                    points = fiber.get(word)
                    if points is None or not dw_equals_cell(
                        w, frozenset(pairs), q, flag, points
                    ):
                        checks.append(CheckResult("generic-flag-image", False, f"w={w}"))
                        break
                    if not zeros_structure_check(w, lam, q, points):
                        checks.append(CheckResult("factor-zero-structure", False, f"w={w}"))
                        break
                else:
                    checks.append(CheckResult("generic-flag-image", True))
                    checks.append(CheckResult("factor-zero-structure", True))
                ok = conjugation_invariance(
                    lam, h, q, report.total, CONJUGATION_TRIALS, seed or 0, budget_bits
                )
                checks.append(CheckResult("conjugation-invariance", ok))
    except BudgetExceededError as e:
        return VerifyReport(checks, partial=True, budget_message=str(e))
    return VerifyReport(checks)
