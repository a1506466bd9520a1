"""Affine pavings of type-A Hessenberg varieties Hess(X_lambda, h), h(i) < i.

Exact-arithmetic computation of cell tables, dimensions, Poincare
polynomials, and generic-cell coordinates, with symbolic and finite-field
verification.
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
    GF,
    POLYNOMIALS,
    RATIONALS,
    Poly,
    PolynomialDomain,
    PrimeFieldDomain,
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
from .oracle import (
    BudgetExceededError,
    CountReport,
    FieldSpec,
    cell_point_count,
    conjugation_invariance,
    dw_equals_cell,
    springer_points,
    variety_point_count,
    zeros_structure_check,
)
from .paving import (
    CellDescriptor,
    InversionProfile,
    InversionSet,
    PoincareData,
    column_sort_trace,
    enumerate_cells,
    hessenberg_inversions,
    inversion_profile,
    poincare,
    r0_tableau,
    springer_inversions,
)
from .verify import run_verification

__version__ = "0.1.0"
