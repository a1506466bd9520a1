"""Affine pavings of type-A Hessenberg varieties Hess(X_lambda, h), h(i) < i.

Exact-arithmetic computation of cell tables, dimensions, Poincare
polynomials, and generic-cell coordinates, with symbolic and finite-field
verification.

The finite-field layer (`oracle` and `verify`) imports numpy, which only
the F_q checks need, so its names load on first access (PEP 562).
"""

from .combinatorics import (
    Composition,
    HessenbergFunction,
    Permutation,
    Tableau,
    base_filling,
    factorize,
    format_tableau,
    inversions,
    is_h_strict,
    is_row_strict,
    permutation_of_tableau,
    standardize,
    tableau_of,
)
from .domains import (
    POLYNOMIALS,
    BudgetExceededError,
    FieldSpec,
    Poly,
    PolynomialDomain,
)
from .exactla import (
    ExactMatrix,
    Flag,
    UnipotentPattern,
    bk_entries,
    bk_generator,
    bruhat_canonical_form,
    difference_residual,
    factor_unipotent,
    generic_flag,
    hess_zero_coordinates,
    nilpotent_matrix,
    verify_flag_membership,
)
from .paving import (
    CellDescriptor,
    InversionProfile,
    InversionSet,
    PoincareData,
    cell_profile,
    enumerate_cells,
    hessenberg_inversions,
    inversion_profile,
    poincare,
    r0_tableau,
    springer_inversions,
)

__version__ = "0.1.0"

_FQ_NAMES = frozenset({
    "CountReport",
    "conjugation_invariance",
    "dw_equals_cell",
    "run_verification",
    "springer_points",
    "variety_point_count",
    "zeros_structure_check",
})


def __getattr__(name: str):
    if name not in _FQ_NAMES:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    from .oracle import (
        CountReport,
        conjugation_invariance,
        dw_equals_cell,
        springer_points,
        variety_point_count,
        zeros_structure_check,
    )
    from .verify import run_verification

    loaded = {key: value for key, value in locals().items() if key in _FQ_NAMES}
    globals().update(loaded)
    return loaded[name]
