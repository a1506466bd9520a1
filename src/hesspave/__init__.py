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
    all_hessenberg_functions,
    base_filling,
    delete_last_box,
    factorize,
    format_tableau,
    h_leq,
    inversions,
    is_h_strict,
    is_row_strict,
    parse_tableau,
    partitions,
    permutation_of_tableau,
    standardize,
    tableau_of,
)
from .domains import (
    POLYNOMIALS,
    RATIONALS,
    BudgetExceededError,
    FieldSpec,
    Poly,
    PolynomialDomain,
    RationalDomain,
)
from .exactla import (
    ExactMatrix,
    Flag,
    UnipotentPattern,
    bk_entries,
    bk_generator,
    bn_split,
    bruhat_canonical_form,
    difference_residual,
    factor_unipotent,
    generic_flag,
    generic_flag_stages,
    hess_zero_coordinates,
    hessenberg_space_contains,
    nilpotent_matrix,
    project_cell,
    verify_flag_membership,
)
from .paving import (
    CellDescriptor,
    InversionProfile,
    InversionSet,
    PoincareData,
    cell_profile,
    column_sort_trace,
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
