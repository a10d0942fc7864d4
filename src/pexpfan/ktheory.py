"""Equivariant Euler characteristics, Kronecker pairings, and basis solvers.

Everything is computed by fixed-point localization on a smooth complete fan;
singular fans are first refined by ``resolve`` and classes are pulled back,
which is valid because the refinement map is proper and birational so the
structure sheaf (and each orbit-closure sheaf, via its strict transform)
pushes forward identically.  That bridge is a standard toric fact used here
without reproof.

The one free sign in the localization formula is pinned by ``EPSILON``:
with EPSILON = +1 the weights attached to a fixed point are exactly the dual
basis of the cone's primitive generators, the trivial class has Euler
characteristic 1, and a line-bundle class with local data m has Euler
characteristic equal to the sum of e^m over the lattice points of its
polytope.  The opposite choice fails the lattice-point normalization (it
produces the mirrored support), which is how the constant was determined;
``scripts/determine_sign_convention.py`` replays the experiment.
"""

from __future__ import annotations

import itertools
import random
from dataclasses import dataclass

from .errors import (
    DependentBasis,
    NotComplete,
    NotFullDimensional,
    NotInSpan,
    NotIndependent,
    NotIntegral,
    NotSmooth,
    ResolutionCheckFailed,
    ResultCheckFailed,
    SingularGram,
)
from .fan import Cone, Fan, RaySet, SubdivisionMap, resolve
from .lattice import Vector, adjugate, dual_basis, vec_scale
from .laurent import LaurentPoly, LocalizationSum, try_div
from .pexp import PiecewiseExponential, pullback

EPSILON = 1  # global sign convention for tangent weights; see module docstring


def tangent_weights(cone: Cone, epsilon: int = EPSILON) -> tuple[Vector, ...]:
    """Weights at the fixed point of a smooth full-dimensional cone: the dual
    basis of the primitive generators, times the sign convention."""
    if cone.dim != cone.rank:
        raise NotFullDimensional("tangent weights need a full-dimensional cone")
    if not cone.is_simplicial or cone.multiplicity() != 1:
        raise NotSmooth(f"cone on {cone.generators} has multiplicity != 1")
    if epsilon not in (1, -1):
        raise ValueError(f"epsilon must be 1 or -1, got {epsilon!r}")
    duals = dual_basis(cone.generators)
    if epsilon == 1:
        return duals
    return tuple(vec_scale(-1, u) for u in duals)


@dataclass(frozen=True)
class FixedPointData:
    """Per maximal cone of a smooth complete fan: the tangent weights and the
    numerator (the class's restriction at that fixed point)."""

    fan: Fan
    weights: tuple[tuple[Vector, ...], ...]
    numerators: tuple[LaurentPoly, ...]

    def scaled(self, factors: tuple[LaurentPoly, ...]) -> "FixedPointData":
        return FixedPointData(
            self.fan,
            self.weights,
            tuple(n * f for n, f in zip(self.numerators, factors)),
        )


def _require_smooth_complete(fan: Fan):
    if not fan.is_complete():
        raise NotComplete("localization needs a complete fan")
    if not fan.is_smooth():
        raise NotSmooth("localization needs a smooth fan")


def localization_data(fan: Fan, numerators, epsilon: int = EPSILON) -> FixedPointData:
    _require_smooth_complete(fan)
    numerators = tuple(numerators)
    if len(numerators) != len(fan.maximal_cones):
        raise ValueError("one numerator per maximal cone is required")
    weights = tuple(tangent_weights(c, epsilon) for c in fan.cone_objects)
    return FixedPointData(fan, weights, numerators)


def orbit_closure_class(fan: Fan, rayset, epsilon: int = EPSILON) -> FixedPointData:
    """Fixed-point restrictions of the structure sheaf class of an orbit
    closure: a Koszul factor (1 - e^w) for each generator of the cone lying in
    the given face, and zero at fixed points away from the face."""
    rs = fan.require_face(rayset)
    _require_smooth_complete(fan)
    weights = tuple(tangent_weights(c, epsilon) for c in fan.cone_objects)
    numerators = []
    for idx, cone_rays in enumerate(fan.maximal_cones):
        if not set(rs) <= set(cone_rays):
            numerators.append(LaurentPoly.zero(fan.rank))
            continue
        num = LaurentPoly.one(fan.rank)
        for ray, w in zip(fan._generator_rays[idx], weights[idx]):
            if ray in rs:
                num = num * (LaurentPoly.one(fan.rank) - LaurentPoly.exponential(w))
        numerators.append(num)
    return FixedPointData(fan, weights, tuple(numerators))


def _resolution_of(fan: Fan, resolution: SubdivisionMap | None) -> SubdivisionMap:
    """The given refinement of ``fan``; by default the identity on a smooth
    fan and ``resolve(fan)`` otherwise."""
    if resolution is None:
        return SubdivisionMap.identity(fan) if fan.is_smooth() else resolve(fan)
    if resolution.coarse != fan:
        raise ValueError("resolution does not refine the given fan")
    return resolution


def euler_characteristic(fan: Fan, data: FixedPointData) -> LaurentPoly:
    """Reduce the localization sum over the fixed points to an element of Z[M]."""
    _require_smooth_complete(fan)
    terms = [(num, w) for num, w in zip(data.numerators, data.weights)]
    return LocalizationSum.build(fan.rank, terms).reduce()


def chi(
    fan: Fan,
    f: PiecewiseExponential,
    *,
    resolution: SubdivisionMap | None = None,
    epsilon: int = EPSILON,
) -> LaurentPoly:
    """Equivariant Euler characteristic of a piecewise exponential class.

    On a smooth complete fan this is the localized sum of the maximal-cone
    values; otherwise the class is pulled back to a resolution first.  The
    result does not depend on the resolution chosen.
    """
    if f.fan != fan:
        raise ValueError("class does not live on the given fan")
    if not fan.is_complete():
        raise NotComplete("chi needs a complete fan")
    resolution = _resolution_of(fan, resolution)
    lifted = pullback(f, resolution)
    return euler_characteristic(
        resolution.fine, localization_data(resolution.fine, lifted.values, epsilon)
    )


def _strict_transform_face(fine: Fan, tau_cone: Cone, dim: int) -> RaySet:
    """Lexicographically least face of the fine fan of the same dimension as
    the coarse cone and contained in it."""
    best = None
    best_key = None
    for face in fine.faces:
        if fine.face_dim(face) != dim:
            continue
        if not all(tau_cone.contains(fine.rays[i]) for i in face):
            continue
        key = tuple(sorted(fine.rays[i] for i in face))
        if best_key is None or key < best_key:
            best, best_key = face, key
    if best is None:
        raise ResolutionCheckFailed(
            f"no face of the refinement is a strict transform of the cone on {tau_cone.generators}"
        )
    return best


@dataclass(frozen=True)
class PairingMatrix:
    """Kronecker pairings of a list of classes against a list of cones."""

    row_labels: tuple[str, ...]
    col_labels: tuple[str, ...]
    entries: tuple[tuple[LaurentPoly, ...], ...]

    def to_json(self) -> dict:
        from .laurent import poly_to_json

        return {
            "rows": list(self.row_labels),
            "cols": list(self.col_labels),
            "entries": [[poly_to_json(e) for e in row] for row in self.entries],
        }


def gram_matrix(
    fan: Fan,
    functions,
    raysets,
    *,
    resolution: SubdivisionMap | None = None,
    epsilon: int = EPSILON,
) -> PairingMatrix:
    """The duality pairings <f_i, [O_{V(tau_j)}]> in Z[M], one row per function.

    Computed on a resolution, pairing each pulled-back class against the
    orbit closure of a strict transform of tau_j (a fine cone of the same
    span inside tau_j); the result is independent of both choices.  Each
    function is pulled back once and each orbit class is built once, then
    every entry is one localization sum.
    """
    functions = tuple(functions)
    if any(f.fan != fan for f in functions):
        raise ValueError("class does not live on the given fan")
    if not fan.is_complete():
        raise NotComplete("the pairing needs a complete fan")
    raysets = tuple(fan.require_face(rs) for rs in raysets)
    resolution = _resolution_of(fan, resolution)
    fine = resolution.fine
    orbits = []
    for rs in raysets:
        tau_cone = Cone.from_generators(fan.rank, tuple(fan.rays[i] for i in rs))
        tau2 = _strict_transform_face(fine, tau_cone, fan.face_dim(rs))
        orbits.append(orbit_closure_class(fine, tau2, epsilon))
    lifted = [pullback(f, resolution).values for f in functions]
    entries = tuple(
        tuple(euler_characteristic(fine, orbit.scaled(values)) for orbit in orbits)
        for values in lifted
    )
    return PairingMatrix(
        tuple(f"f{i}" for i in range(len(functions))),
        tuple("cone" + str(list(rs)) for rs in raysets),
        entries,
    )


def kronecker_pair(
    fan: Fan,
    f: PiecewiseExponential,
    rayset,
    *,
    resolution: SubdivisionMap | None = None,
    epsilon: int = EPSILON,
) -> LaurentPoly:
    """The duality pairing <f, [O_{V(tau)}]> in Z[M]: the 1x1 ``gram_matrix``."""
    return gram_matrix(fan, [f], [rayset], resolution=resolution, epsilon=epsilon).entries[0][0]


# -- linear algebra over Z[M] -----------------------------------------------------


def poly_det(matrix, rank: int) -> LaurentPoly:
    """Determinant of a small square matrix over Z[M], by cofactor expansion."""
    n = len(matrix)
    if n == 0:
        return LaurentPoly.one(rank)
    if n == 1:
        return matrix[0][0]
    acc = LaurentPoly.zero(rank)
    for j in range(n):
        if matrix[0][j].is_zero():
            continue
        minor = [
            [matrix[i][t] for t in range(n) if t != j] for i in range(1, n)
        ]
        term = matrix[0][j] * poly_det(minor, rank)
        acc = acc + term if j % 2 == 0 else acc - term
    return acc


def decompose(
    f: PiecewiseExponential, basis
) -> tuple[LaurentPoly, ...]:
    """Coefficients c_i in Z[M] with f = sum c_i * basis_i, conewise.

    Solved by Cramer's rule on a nonsingular square subsystem of the stacked
    cone-value equations; consistency of the remaining equations separates
    NotInSpan from NotIntegral, and the integral solution is re-verified by
    exact re-multiplication.
    """
    basis = tuple(basis)
    fan = f.fan
    for g in basis:
        if g.fan != fan:
            raise ValueError("basis functions live on a different fan")
    for rs in fan.maximal_cones:
        if fan.face_quotient(rs).rank != fan.rank:
            raise NotFullDimensional(
                "decompose needs every maximal cone full-dimensional"
            )
    k = len(basis)
    rank = fan.rank
    if k == 0:
        if all(v.is_zero() for v in f.values):
            return ()
        raise NotInSpan("nonzero class, empty basis")
    rows = [[g.values[i] for g in basis] for i in range(len(fan.maximal_cones))]
    rhs = list(f.values)

    chosen = None
    det = None
    for subset in itertools.combinations(range(len(rows)), k):
        d = poly_det([rows[i] for i in subset], rank)
        if not d.is_zero():
            chosen, det = subset, d
            break
    if chosen is None:
        raise DependentBasis("basis values are linearly dependent over Z[M]")

    sub = [rows[i] for i in chosen]
    sub_rhs = [rhs[i] for i in chosen]
    numerators = []
    for j in range(k):
        m = [[sub_rhs[i] if t == j else sub[i][t] for t in range(k)] for i in range(k)]
        numerators.append(poly_det(m, rank))

    # consistency over the fraction field, cross-multiplied to stay in Z[M]
    for i in range(len(rows)):
        lhs = LaurentPoly.zero(rank)
        for j in range(k):
            lhs = lhs + numerators[j] * rows[i][j]
        if lhs != rhs[i] * det:
            raise NotInSpan(f"no solution: equation on maximal cone {i} fails")

    coeffs = []
    for j, num in enumerate(numerators):
        c = try_div(num, det)
        if c is None:
            raise NotIntegral(
                f"coefficient {j} exists over fractions but not in Z[M]"
            )
        coeffs.append(c)

    rebuilt = PiecewiseExponential.constant(fan, 0)
    for c, g in zip(coeffs, basis):
        rebuilt = rebuilt + g.module_action(c)
    if rebuilt != f:
        raise ResultCheckFailed("re-expansion of the decomposition differs from the class")
    return tuple(coeffs)


def dual_basis_solve(
    fan: Fan,
    raysets,
    spanning,
    *,
    resolution: SubdivisionMap | None = None,
    epsilon: int = EPSILON,
) -> tuple[PiecewiseExponential, ...]:
    """Functions g_j with <g_j, [O_{V(tau_l)}]> = delta_jl.

    Inverts the Gram matrix G of the spanning functions as adj(G) / det(G),
    both from one fraction-free elimination over Z[M] (``adjugate``), so
    g_j = sum_i adj(G)[j][i] * f_i / det(G); every resulting cone value must
    divide back into Z[M] (NotIntegral otherwise), the results must satisfy
    the face compatibility, and their Gram matrix is re-verified to be
    exactly the identity.
    """
    spanning = tuple(spanning)
    raysets = tuple(fan.require_face(rs) for rs in raysets)
    if len(spanning) != len(raysets):
        raise ValueError("need as many spanning functions as cones")
    k = len(spanning)
    rank = fan.rank
    if not fan.is_complete():  # before a resolution is chosen or built
        raise NotComplete("the pairing needs a complete fan")
    resolution = _resolution_of(fan, resolution)
    gram = gram_matrix(fan, spanning, raysets, resolution=resolution, epsilon=epsilon)
    try:
        det, adj = adjugate(gram.entries)
    except NotIndependent:
        raise SingularGram("the Gram matrix is singular over the fraction field") from None
    if k <= 1:  # below k = 2 the identity block's ints are never eliminated
        det = LaurentPoly.one(rank) * det
        adj = tuple(tuple(LaurentPoly.one(rank) * x for x in row) for row in adj)

    # gram_matrix refused an incomplete fan, so every maximal cone is
    # full-dimensional and each value lives in Z[M] itself
    out = []
    for j in range(k):
        values = []
        for idx in range(len(fan.maximal_cones)):
            num = LaurentPoly.zero(rank)
            for i in range(k):
                num = num + spanning[i].values[idx] * adj[j][i]
            val = try_div(num, det)
            if val is None:
                raise NotIntegral(
                    f"dual function {j} has a non-integral value on cone {idx}"
                )
            values.append(val)
        out.append(PiecewiseExponential.from_values(fan, values))

    check = gram_matrix(fan, out, raysets, resolution=resolution, epsilon=epsilon)
    ident = [
        [LaurentPoly.one(rank) if i == j else LaurentPoly.zero(rank) for j in range(k)]
        for i in range(k)
    ]
    if [list(r) for r in check.entries] != ident:
        raise ResultCheckFailed("dual basis Gram is not the identity")
    return tuple(out)


def random_cartier_combination(
    fan: Fan,
    cartier_classes,
    rng: random.Random,
    *,
    max_terms: int = 3,
    coeff_bound: int = 3,
    exp_bound: int = 2,
) -> PiecewiseExponential:
    """A random R(T)-combination of line-bundle classes, for property tests."""
    out = PiecewiseExponential.constant(fan, 0)
    for _ in range(rng.randint(1, max_terms)):
        cls = rng.choice(list(cartier_classes))
        coeff = rng.randint(-coeff_bound, coeff_bound)
        exp = tuple(rng.randint(-exp_bound, exp_bound) for _ in range(fan.rank))
        out = out + cls.module_action(LaurentPoly.exponential(exp, coeff))
    return out
