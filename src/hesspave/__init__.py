"""Affine pavings of type-A Hessenberg varieties Hess(X_lambda, h), h(i) < i.

Exact-arithmetic computation of cell tables, dimensions, Poincare
polynomials, and generic-cell coordinates, with symbolic and finite-field
verification.

Only the paving (`combinatorics`, `paving`) loads with the package; the
polynomial and matrix layers (`domains`, `exactla`) and the numpy F_q layer
(`oracle`, `verify`) load on first access of one of their names (PEP 562).
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

# the modules that load on first access, and the names each defines
_LAZY_MODULES = {
    "domains": ("BudgetExceededError", "FieldSpec", "POLYNOMIALS", "Poly", "PolynomialDomain"),
    "exactla": ("ExactMatrix", "Flag", "UnipotentPattern", "bk_entries", "bk_generator",
                "bruhat_canonical_form", "difference_residual", "factor_unipotent",
                "generic_flag", "hess_zero_coordinates", "nilpotent_matrix",
                "verify_flag_membership"),
    "oracle": ("CountReport", "conjugation_invariance", "dw_equals_cell", "springer_points",
               "variety_point_count", "zeros_structure_check"),
    "verify": ("run_verification",),
}
_LAZY_NAMES = {name: module for module, names in _LAZY_MODULES.items() for name in names}


def __getattr__(name: str):
    if name not in _LAZY_NAMES:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    module = import_module(f".{_LAZY_NAMES[name]}", __name__)
    value = globals()[name] = getattr(module, name)
    return value
