"""Exact arithmetic in the ring of integral piecewise exponential functions
on a rational fan, with GKM validation, equivariant Euler characteristics by
fixed-point localization, Kronecker duality pairings, and basis solvers."""

from .fan import Cone, Fan, SubdivisionMap, resolve, stellar_subdivision
from .lattice import QuotientLattice, primitive_vector, smith_normal_form
from .laurent import LaurentPoly, LocalizationSum, divide_exact, reduce_localization
from .ktheory import (
    PairingMatrix,
    chi,
    decompose,
    dual_basis_solve,
    gram_matrix,
    kronecker_pair,
    orbit_closure_class,
    tangent_weights,
)
from .pexp import (
    CartierData,
    GkmReport,
    GkmViolation,
    PiecewiseExponential,
    descend,
    from_cartier,
    gkm_validate,
    pullback,
)

__all__ = [
    "Cone", "Fan", "SubdivisionMap", "resolve", "stellar_subdivision",
    "QuotientLattice", "primitive_vector", "smith_normal_form",
    "LaurentPoly", "LocalizationSum", "divide_exact", "reduce_localization",
    "PairingMatrix", "chi", "decompose", "dual_basis_solve", "gram_matrix",
    "kronecker_pair", "orbit_closure_class", "tangent_weights",
    "CartierData", "GkmReport", "GkmViolation", "PiecewiseExponential",
    "descend", "from_cartier", "gkm_validate", "pullback",
]
