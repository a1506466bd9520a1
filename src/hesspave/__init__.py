"""Affine pavings of type-A Hessenberg varieties Hess(X_lambda, h), h(i) < i.

Exact-arithmetic computation of cell tables, dimensions, Poincare
polynomials, and generic-cell coordinates, with symbolic and finite-field
verification.

The finite-field layer (`oracle` and `verify`) imports numpy, which only
the F_q checks need, so its names load on first access (PEP 562).
"""

from importlib import import_module

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

# each lazy name and the module that defines it
_FQ_NAMES = {
    "CountReport": "oracle",
    "conjugation_invariance": "oracle",
    "dw_equals_cell": "oracle",
    "run_verification": "verify",
    "springer_points": "oracle",
    "variety_point_count": "oracle",
    "zeros_structure_check": "oracle",
}


def __getattr__(name: str):
    if name not in _FQ_NAMES:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    module = import_module(f".{_FQ_NAMES[name]}", __name__)
    value = globals()[name] = getattr(module, name)
    return value
